"""Rational cohomology of quasitoric manifolds, exactly.

The ring is the facet-class polynomial algebra modulo the monomial ideal of
non-intersecting facet sets and the n linear relations read off the rows of
the characteristic matrix (Davis-Januszkiewicz).  The linear relations are
solved at the smallest vertex: its n facet classes become integer linear
forms in the m - n free facet classes, so what remains is the free
polynomial algebra modulo the images of the minimal non-faces.

What does not depend on the characteristic matrix is the polytope's
``face_ring_skeleton``, built once per polytope and shared by every ring
over it: for each degree, the free monomials supported on a face, which
are the columns (every other monomial is zero, and so is each multiple of
it), and a shift table giving the column of each such monomial times each
free class, or None when the product leaves the faces.  A ring expands a
facet monomial by walking the shift tables from the column of 1, so a term
off the faces is dropped the moment it appears, and shifts its ideal rows
the same way.  Each degree's basis then comes from one sparse exact row
reduction (``linalg.rref``) of that degree's relations on integer columns;
no Groebner machinery.  The relations have about one nonzero per row, and
the faces and minimal non-faces come grouped by size from the polytope,
which computes them once.  A ring reduces each degree when it is first
read; reading degree n also reduces n + 1 and runs the two top checks.

Integration against the fundamental class is normalised so that the product
of the facet classes through the lexicographically least vertex integrates
to the determinant of that vertex's characteristic minor.  The localization
engine independently computes the same pairings, which pins the orientation
convention and doubles as an oracle.

Each ring's ``structure`` holds its flat graded basis and, as integers
over one common denominator delta, the product of every basis class of
degree below n with every degree-one basis class, built from ``basis``,
``mul_basis`` and ``token_degree`` on first use.  The ring is generated in
degree one, so that is all the multiplication anything needs:
``GradedStructure.multiplier`` turns a degree-one class into one sparse
degree-raising map, and it is the one place a product is taken.  Every
class a check needs is a sum or product of lines, integer coefficient
vectors on the generators: ``GradedRing.product`` runs the map once per
line, ``integral`` divides the top coordinate once, and the cohomological
route of the genus engine runs it on integer vectors, one Horner step at a
time.  A ``CohomologyClass`` only holds coordinates for printing, as
``pontryagin_p1`` returns them.

The census needs only degrees 1 and 2: ``facet_class_decomposition`` reads
the reductions of the facet classes and of their pairwise products on
integer columns, builds no structure and reduces no higher degree.
Reduction tables are keyed by column and map each basis column to the int
1, so reductions stay in ints wherever the ring is integral.
"""

import math
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, compress

from .errors import InputError, PropertyViolationError, RingShapeError
from .exactalg import _exact
from .linalg import rref, unimodular_inverse
from .polytope import _integers


class CohomologyClass:
    """A class of a ring as ``describe`` prints it: one rational coordinate
    per ``ring.structure`` basis token, in the order of
    ``structure.tokens``.

    ``coords`` is a tuple of ints and Fractions; each is the true rational
    coefficient, not scaled by the structure denominator.  A class does no
    arithmetic: products are taken on integer lines by
    ``GradedRing.product``.
    """

    __slots__ = ("ring", "coords")

    def __init__(self, ring, coords):
        self.ring = ring
        self.coords = tuple(coords)

    def is_zero(self):
        return not any(self.coords)

    def __str__(self):
        structure = self.ring.structure
        tokens, degrees = structure.tokens, structure.degrees
        keys = sorted((i for i, c in enumerate(self.coords) if c),
                      key=lambda i: (degrees[i], str(tokens[i])))
        if not keys:
            return "0"
        return " + ".join(f"{self.coords[i]}*{self.ring.token_name(tokens[i])}"
                          for i in keys)

    def __repr__(self):
        return f"CohomologyClass({self})"


class GradedStructure:
    """A ring's flat graded basis and its multiplication by degree-one
    classes, in integers.

    ``tokens`` lists basis(0), basis(1), ..., basis(n) in that order;
    ``degrees[i]`` is the degree of tokens[i] and ``starts[d]`` the
    position of the first token of degree d (``starts[n + 1]`` the basis
    size).  For each position i of degree below
    n and each degree-one token g = tokens[starts[1] + r], ``rows[i][r]``
    is ((k, c), ...) for each nonzero term of tokens[i] * g =
    sum of (c / delta) tokens[k], with integers c and delta the least
    common denominator of all those products.  The ring is generated in
    degree one, so these products determine every other; no product of two
    classes of degree 2 or more is stored.
    """

    __slots__ = ("tokens", "degrees", "starts", "delta", "rows")

    def __init__(self, ring):
        n = ring.dimension
        blocks = [ring.basis(d) for d in range(n + 1)]
        self.tokens = tuple(t for block in blocks for t in block)
        self.degrees = tuple(ring.token_degree(t) for t in self.tokens)
        self.starts = tuple(sum(map(len, blocks[:d])) for d in range(n + 2))
        position = {t: i for i, t in enumerate(self.tokens)}
        products = [[ring.mul_basis(t, g).items() for g in blocks[1]]
                    for t in self.tokens[:self.starts[n]]]
        self.delta = math.lcm(1, *(c.denominator for row in products
                                   for terms in row for _, c in terms))
        self.rows = tuple(
            tuple(tuple((position[t],
                         c.numerator * (self.delta // c.denominator))
                        for t, c in terms) for terms in row)
            for row in products)

    def multiplier(self, a):
        """Multiplication by delta * a, for the degree-one class a given by
        its coordinates over basis(1): a function taking a coordinate
        vector u to a new vector delta * a * u.  It reads u only below
        position ``stop``, by default every position of degree below n, so
        a caller that keeps the product only up to some degree passes the
        start of that degree.  The rows of a are summed for each position
        the first time a vector is nonzero there, so one multiplier serves
        many vectors at the cost of one.
        """
        terms = [(r, y) for r, y in enumerate(a) if y]
        rows = [None] * len(self.rows)
        size = len(self.tokens)

        def times(u, stop=len(rows)):
            out = [0] * size
            for i in compress(range(stop), u):
                row = rows[i]
                if row is None:
                    acc = {}
                    for r, y in terms:
                        for k, c in self.rows[i][r]:
                            acc[k] = acc.get(k, 0) + c * y
                    row = rows[i] = [(k, c) for k, c in acc.items() if c]
                x = u[i]
                for k, c in row:
                    out[k] += c * x
            return out
        return times


class GradedRing:
    """The structure and the line arithmetic every ring shares.

    A ring supplies ``dimension``, ``num_generators``, ``basis``,
    ``token_degree``, ``token_name``, ``mul_basis``, ``top_value``, the
    integral of its single top-degree basis token, and ``_forms``, each
    generator's degree-one class as (basis(1) position, integer
    coefficient) pairs.  The generators' classes generate the ring
    (Davis-Januszkiewicz for a face ring), so every class a check needs is
    a sum or product of lines, integer coefficient vectors on the
    generators: sums are taken on the lines, products by ``product``.
    """

    @cached_property
    def structure(self):
        """The ring's ``GradedStructure``, built on first use."""
        return GradedStructure(self)

    def line_coordinates(self, coefficients):
        """The class sum coefficients[j] * g_{j+1} of the generators as
        integer coordinates over basis(1), from their ``_forms``."""
        if len(coefficients) != self.num_generators:
            raise InputError("line coefficients must have one entry per "
                             f"generator ({self.num_generators})")
        out = [0] * len(self.basis(1))
        for g, c in enumerate(coefficients, 1):
            if c:
                for i, a in self._forms[g]:
                    out[i] += c * a
        return out

    def product(self, lines):
        """delta^k times the product of the classes of k lines, as integer
        coordinates over ``structure.tokens``, with delta the structure's
        denominator: one multiplier pass per line."""
        structure = self.structure
        out = [1] + [0] * (len(structure.tokens) - 1)
        for line in lines:
            out = structure.multiplier(self.line_coordinates(line))(out)
        return out

    def integral(self, lines):
        """The integral of the product of the lines' classes over the
        fundamental class."""
        scale = self.structure.delta ** len(lines)
        return _exact(Fraction(self.product(lines)[-1], scale)
                      * self.top_value)

    def square_sum(self, lines, weights=None):
        """delta^2 times the sum of weights[i] times the square of the
        class of lines[i] (every weight 1 by default), as integer
        coordinates over ``structure.tokens``."""
        out = [0] * len(self.structure.tokens)
        for line, w in zip(lines, weights or [1] * len(lines)):
            out = [x + w * y for x, y in zip(out, self.product((line, line)))]
        return out


class FaceRing(GradedRing):
    """H*(M; Q) for a quasitoric M, on explicit monomial bases.

    Basis tokens are sorted tuples, with repetition, of the free facet
    labels: the facets off the smallest vertex v0.  The empty tuple is 1.
    Everything that depends only on the polytope, the face-supported free
    monomials of each degree and the shift tables that multiply them by a
    free class, is the polytope's ``face_ring_skeleton``, shared by every
    ring over it; a ring adds its linear forms and one row reduction per
    degree on the skeleton's integer columns, when the degree is first
    read.  A read of degree n reduces n + 1 too and checks that degree n
    is one-dimensional and n + 1 vanishes; a census ring stops at degree 2,
    its vertex minors checked by the enumeration.  ``reduce_monomial``
    expresses any facet monomial in the chosen basis (or as 0); it builds
    the ring's ``structure``.  The generators are the m facets, so a line
    is a facet coefficient vector.
    """

    def __init__(self, manifold):
        self.manifold = manifold
        p = manifold.polytope
        n, m = p.dimension, p.num_facets
        self.dimension = n
        self.num_generators = m
        skeleton = self.skeleton = p.face_ring_skeleton()
        base = p.vertices[0]
        sign, weights = unimodular_inverse(manifold.minor(base))
        vectors = [manifold.column(j) for j in skeleton.free]
        # Pairing the relations sum_j lambda_j v_j = 0 with the weight w_b
        # dual to base facet b leaves v_b = -sum_free <w_b, lambda_j> v_j.
        # Each form is a tuple of (free index, coefficient) pairs.
        self._forms = {f: ((i, 1),) for i, f in enumerate(skeleton.free)}
        for b, w in zip(base, weights):
            dots = (sum(x * y for x, y in zip(w, col)) for col in vectors)
            self._forms[b] = tuple((i, -a) for i, a in enumerate(dots) if a)
        self._sign, self._ideal = sign, []
        self._bases, self._reductions = [], []

    def _extend(self, degree):
        """Row-reduce the degrees up to ``degree`` not reduced yet; a read of
        degree n reduces n + 1 too, which runs the two top checks."""
        n, skeleton = self.dimension, self.skeleton
        non_faces = self.manifold.polytope.faces()[1]
        free = range(len(skeleton.free))
        for d in range(len(self._bases), degree + 1 if degree < n else n + 2):
            # Columns: the skeleton's free monomials of degree d.  Rows: the
            # previous degree's ideal times each free class, plus the
            # images of the minimal non-faces of size d.
            shift, monos = skeleton.shifts[d], skeleton.monomials[d]
            rows = [{s: x for c, x in row.items()
                     if (s := shift[c][i]) is not None}
                    for row in self._ideal for i in free]
            rows += [self._expand(s) for s in non_faces[d]]
            ideal, pivots = rref(rows)
            # Keyed by column: a pivot maps to minus the rest of its row,
            # a basis column to itself.
            reduction = {c: {i: -x for i, x in r.items() if i != c}
                         for r, c in zip(ideal, pivots)}
            basis = [c for c in range(len(monos)) if c not in reduction]
            if d > n and len(self._bases[n]) != 1:
                raise PropertyViolationError(
                    f"top cohomology has dimension {len(self._bases[n])}, expected 1; "
                    "the characteristic data is inconsistent")
            if d > n and basis:
                raise PropertyViolationError(
                    "cohomology does not vanish above the top degree; "
                    "the characteristic data is inconsistent")
            reduction.update({c: {c: 1} for c in basis})
            self._ideal = ideal
            self._bases.append(tuple(monos[c] for c in basis))
            self._reductions.append(reduction)

    @cached_property
    def top_value(self):
        # The base vertex monomial spans the top degree and integrates to
        # the determinant of its characteristic minor.
        base = self.manifold.polytope.vertices[0]
        (x,) = self.reduce_monomial(base).values()
        return _exact(Fraction(self._sign, x))

    def _expand(self, mono):
        """A facet monomial as an integer polynomial in the free classes,
        ``{column: coefficient}`` in degree len(mono).  It walks the shift
        tables from the column of 1, so a term off the faces is dropped as
        soon as it appears."""
        shifts = self.skeleton.shifts
        poly = {0: 1}
        for d, f in enumerate(mono, 1):
            shift, out = shifts[d], {}
            form = self._forms[f]
            for c, x in poly.items():
                row = shift[c]
                for i, a in form:
                    s = row[i]
                    if s is not None:
                        out[s] = out.get(s, 0) + x * a
            poly = out
        return poly

    # -- ring interface ---------------------------------------------------

    def token_degree(self, token):
        return len(token)

    def token_name(self, token):
        if not token:
            return "1"
        parts = []
        for f in sorted(set(token)):
            e = token.count(f)
            parts.append(f"v{f}" if e == 1 else f"v{f}^{e}")
        return "*".join(parts)

    def basis(self, degree):
        if 0 <= degree <= self.dimension:
            if len(self._bases) <= degree + (degree == self.dimension):
                self._extend(degree)
            return self._bases[degree]
        return ()

    def betti_numbers(self):
        """Even Betti numbers b_0, b_2, ..., b_2n."""
        self._extend(self.dimension)
        return tuple(len(b) for b in self._bases[:-1])

    def _reduced(self, mono):
        """``reduce_monomial`` as ``{skeleton column: value}``, zeros kept."""
        bad = [f for f in mono if f not in self._forms]
        if bad:
            raise InputError(
                f"facet labels {bad} leave 1..{self.num_generators}")
        d = len(mono)
        if d > self.dimension:
            return {}
        if len(self._reductions) <= d + (d == self.dimension):
            self._extend(d)
        table = self._reductions[d]
        out = {}
        for t, c in self._expand(mono).items():
            for i, x in table[t].items():
                out[i] = out.get(i, 0) + c * x
        return out

    def reduce_monomial(self, mono):
        monos = self.skeleton.monomials
        return {monos[len(mono)][i]: _exact(x)
                for i, x in self._reduced(mono).items() if x}

    def mul_basis(self, t1, t2):
        return self.reduce_monomial(tuple(sorted(t1 + t2)))

    # -- characteristic classes -------------------------------------------

    def p1_square_sum(self):
        """delta^2 p1 = delta^2 sum_j v_j^2, the square sum of the unit
        facet lines, as integer coordinates over ``structure.tokens``."""
        m = self.num_generators
        return self.square_sum([[int(i == j) for i in range(m)]
                                for j in range(m)])

    def pontryagin_p1(self):
        square = self.structure.delta ** 2
        return CohomologyClass(self, (_exact(Fraction(x, square))
                                      for x in self.p1_square_sum()))


def build_face_ring(manifold):
    return FaceRing(manifold)


class SyntheticConnectedSumRing(GradedRing):
    """The cohomology of a k-fold connected sum of complex projective
    spaces, possibly with reversed orientations, prescribed directly.

    Generators g_1..g_k in degree 2, relations g_i g_j = 0 for i != j and
    g_i^n = signs[i] * (top class); a line is a coefficient vector on
    them.  Unlike FaceRing this ring is not tied
    to any characteristic data: it exists to exercise constructions whose
    hypotheses real manifolds cannot satisfy.
    """

    TOP = ("top",)
    ONE = ()
    top_value = 1

    def __init__(self, dimension, summands, signs=None):
        n, k = _integers((dimension, summands))
        if n < 2:
            raise InputError("connected-sum pattern needs dimension at least 2")
        if k < 1:
            raise InputError("need at least one summand")
        signs = _integers(signs or (1,) * k)
        if len(signs) != k or any(s not in (1, -1) for s in signs):
            raise InputError("signs must be +-1, one per summand")
        self.dimension = n
        self.num_generators = k
        self.signs = signs
        self._forms = {i: ((i - 1, 1),) for i in range(1, k + 1)}

    def token_degree(self, token):
        if token == self.ONE:
            return 0
        if token == self.TOP:
            return self.dimension
        return token[2]

    def token_name(self, token):
        if token == self.ONE:
            return "1"
        if token == self.TOP:
            return "top"
        _, i, d = token
        return f"g{i}" if d == 1 else f"g{i}^{d}"

    def basis(self, degree):
        n, k = self.dimension, self.num_generators
        if degree == 0:
            return (self.ONE,)
        if degree == n:
            return (self.TOP,)
        if 0 < degree < n:
            return tuple(("g", i, degree) for i in range(1, k + 1))
        return ()

    def mul_basis(self, t1, t2):
        if t1 == self.ONE:
            return {t2: 1}
        if t2 == self.ONE:
            return {t1: 1}
        if t1 == self.TOP or t2 == self.TOP:
            return {}
        _, i, d1 = t1
        _, j, d2 = t2
        if i != j:
            return {}
        d = d1 + d2
        if d < self.dimension:
            return {("g", i, d): 1}
        if d == self.dimension:
            return {self.TOP: self.signs[i - 1]}
        return {}


def _sum_terms(polys, coefficients):
    """The sum of coefficients[i] * polys[i] over ``{token: value}`` dicts,
    without zero values."""
    out = {}
    for poly, c in zip(polys, coefficients):
        for t, x in poly.items():
            out[t] = out.get(t, 0) + c * x
    return {t: x for t, x in out.items() if x}


def facet_class_decomposition(manifold, ring=None):
    """Integral decomposition of all facet classes over canonical generators.

    Takes the lexicographically least set of k = b_2 facets whose classes
    pairwise multiply to zero and whose degree-1 coordinate matrix G is
    unimodular.  The free facet classes are the unit vectors of basis(1)
    and the base facet classes are integer forms in them, so det G = +-1
    is exactly the condition that every facet class has integer
    coordinates over the set; those coordinates are the rows of C G^-1,
    with C the facets' coordinate matrix.  Returns (generator facets,
    integer coordinate matrix with one row per facet, squared-column-sum
    list).  The last item gives the p1 coefficients on the generator
    squares whenever those squares are independent, and is meaningful for
    dimension 2 as well.

    Only degrees 1 and 2 of the ring are read, on integer columns
    (``FaceRing._reduced``): once per facet v_i and at most once per
    product v_i v_j (i <= j), as candidate subsets and p1 ask for them.
    No ``structure`` is built.
    The pairwise-zero test runs before the unimodularity test; both must
    hold, so the order changes only the cost.
    """
    if ring is None:
        ring = build_face_ring(manifold)
    labels = range(1, ring.num_generators + 1)
    k = len(ring.basis(1))
    coords = [ring.line_coordinates([int(i == j) for i in labels])
              for j in labels]
    product = cache(lambda i, j: ring._reduced((i, j)))
    for facets in combinations(labels, k):
        if any(any(product(i, j).values())
               for i, j in combinations(facets, 2)):
            continue
        found = unimodular_inverse([coords[j - 1] for j in facets])
        if found is None:
            continue
        _, inverse = found
        alpha = [[sum(x * inverse[r][i] for r, x in enumerate(row))
                  for i in range(k)] for row in coords]
        beta = [sum(row[i] ** 2 for row in alpha) for i in range(k)]
        # Cross-check: with pairwise-zero generators the facet-square sum
        # p1 = sum_j v_j^2 must equal sum_i beta_i g_i^2 on the nose.
        p1 = _sum_terms([product(j, j) for j in labels], [1] * len(labels))
        recon = _sum_terms([product(f, f) for f in facets], beta)
        if p1 != recon:
            raise PropertyViolationError(
                "facet-square decomposition does not reproduce p1; "
                "generator products are not honestly zero")
        return facets, alpha, beta
    raise RingShapeError(
        "no facet-class generator set admits an integral decomposition "
        "of every facet class; not a connected-sum pattern")
