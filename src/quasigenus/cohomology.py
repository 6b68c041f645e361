"""Rational cohomology of quasitoric manifolds, exactly.

The ring is the facet-class polynomial algebra modulo the monomial ideal of
non-intersecting facet sets and the n linear relations read off the rows of
the characteristic matrix (Davis-Januszkiewicz).  The linear relations are
solved at the smallest vertex: its n facet classes become integer linear
forms in the m - n free facet classes, so what remains is the free
polynomial algebra modulo the images of the minimal non-faces.  Each degree
is represented on an explicit monomial basis of free facet labels, computed
by dense Fraction row reduction; no Groebner machinery, the rings are tiny.

Integration against the fundamental class is normalised so that the product
of the facet classes through the lexicographically least vertex integrates
to the determinant of that vertex's characteristic minor.  The localization
engine independently computes the same pairings, which pins the orientation
convention and doubles as an oracle.

``CohomologyClass`` arithmetic (Fraction dicts, every product through
``mul_basis``) serves the census, ``describe`` and the decompositions.
The cohomological route of the genus engine needs thousands of products
per index instead, so each ring also offers ``structure``: its flat graded
basis and all basis products as integers over one common denominator,
built from ``basis``, ``mul_basis`` and ``token_degree`` on first use.
"""

import math
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .errors import InputError, PropertyViolationError, RingShapeError
from .linalg import rref, solve_in_span


class CohomologyClass:
    """Element of a ring with a fixed basis of hashable tokens.

    ``terms`` maps basis tokens to Fraction coefficients; zero coefficients
    are never stored.  Mixed degrees are allowed (the genus integrand is
    inhomogeneous).  Instances are immutable by convention.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        clean = {}
        for tok, c in terms.items():
            c = c if isinstance(c, Fraction) else Fraction(c)
            if c != 0:
                clean[tok] = c
        self.ring = ring
        self.terms = clean

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, CohomologyClass):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return CohomologyClass(self.ring, {t: -c for t, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, CohomologyClass):
            return NotImplemented
        if self.ring is not other.ring:
            raise InputError("classes live in different rings")
        out = dict(self.terms)
        for t, c in other.terms.items():
            s = out.get(t, Fraction(0)) + c
            if s == 0:
                out.pop(t, None)
            else:
                out[t] = s
        return CohomologyClass(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, CohomologyClass):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CohomologyClass(self.ring, {t: c * f for t, c in self.terms.items()})
        if not isinstance(other, CohomologyClass):
            return NotImplemented
        if self.ring is not other.ring:
            raise InputError("classes live in different rings")
        out = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                for t, c in self.ring.mul_basis(t1, t2).items():
                    s = out.get(t, Fraction(0)) + c1 * c2 * c
                    if s == 0:
                        out.pop(t, None)
                    else:
                        out[t] = s
        return CohomologyClass(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda t: (self.ring.token_degree(t), str(t)))
        return " + ".join(f"{self.terms[t]}*{self.ring.token_name(t)}" for t in keys)

    def __repr__(self):
        return f"CohomologyClass({self})"


class GradedStructure:
    """A ring's flat graded basis and its products, in integers.

    ``tokens`` lists basis(0), basis(1), ..., basis(n) in that order;
    ``degrees[i]`` is the degree of tokens[i], ``starts[d]`` the position
    of the first token of degree d (``starts[n + 1]`` the basis size) and
    ``position`` maps each token back.  basis(0) must be the unit alone, so
    products with it are scalings and are not stored.  For positions i, j
    of positive degree with deg i + deg j <= n, ``rows[i][j]`` is
    ((k, c), ...) for each nonzero product tokens[i] * tokens[j] =
    sum of (c / delta) tokens[k], with integers c and delta the least common
    denominator of all those products.
    """

    __slots__ = ("tokens", "degrees", "starts", "position", "delta", "rows")

    def __init__(self, ring):
        n = ring.dimension
        blocks = [ring.basis(d) for d in range(n + 1)]
        self.tokens = tuple(t for block in blocks for t in block)
        self.degrees = tuple(ring.token_degree(t) for t in self.tokens)
        self.starts = tuple(sum(map(len, blocks[:d])) for d in range(n + 2))
        self.position = {t: i for i, t in enumerate(self.tokens)}
        products = {}
        for i in range(1, len(self.tokens)):
            for j in range(i, self.starts[n + 1 - self.degrees[i]]):
                products[i, j] = products[j, i] = [
                    (self.position[t], c) for t, c in
                    ring.mul_basis(self.tokens[i], self.tokens[j]).items()]
        self.delta = math.lcm(1, *(c.denominator for terms in products.values()
                                   for _, c in terms))
        self.rows = tuple({} for _ in self.tokens)
        for (i, j), terms in products.items():
            if terms:
                self.rows[i][j] = tuple(
                    (k, c.numerator * (self.delta // c.denominator))
                    for k, c in terms)


class GradedRing:
    """The structure every ring shares, built from its class interface."""

    @cached_property
    def structure(self):
        """The ring's ``GradedStructure``, built on first use."""
        return GradedStructure(self)


class FaceRing(GradedRing):
    """H*(M; Q) for a quasitoric M, on explicit monomial bases.

    Basis tokens are sorted tuples, with repetition, of the free facet
    labels: the facets off the smallest vertex v0.  The empty tuple is 1.
    ``reduce_monomial`` expresses any facet monomial in the chosen basis (or
    as 0), and all class arithmetic funnels through it.
    """

    def __init__(self, manifold):
        self.manifold = manifold
        p = manifold.polytope
        n, m = p.dimension, p.num_facets
        self.dimension = n
        self.num_generators = m
        base = manifold.fixed_points()[0]
        free = [f for f in range(1, m + 1) if f not in base.vertex]
        # Pairing the relations sum_j lambda_j v_j = 0 with the weight w_b
        # dual to base facet b leaves v_b = -sum_free <w_b, lambda_j> v_j.
        self._forms = {f: {f: 1} for f in free}
        for b, w in zip(base.vertex, base.weights):
            dots = {j: sum(x * y for x, y in zip(w, manifold.column(j)))
                    for j in free}
            self._forms[b] = {j: -a for j, a in dots.items() if a}
        faces = {s for v in p.vertices for r in range(n + 1)
                 for s in combinations(v, r)}
        monos, ideal = [()], []
        self._bases, self._reductions = [], []
        for d in range(n + 2):
            # Columns: free monomials supported on a face (the others are
            # zero).  Rows: the previous degree's ideal times each free
            # class, plus the images of the minimal non-faces of size d.
            if d:
                monos = [t + (j,) for t in monos for j in free
                         if not t or j >= t[-1]]
                monos = [t for t in monos if tuple(sorted(set(t))) in faces]
            polys = [{tuple(sorted(t + (j,))): c for t, c in row.items()}
                     for row in ideal for j in free]
            polys += [self._expand(s + (j,)) for s in faces if len(s) == d - 1
                      for j in range(s[-1] + 1 if s else 1, m + 1)
                      if s + (j,) not in faces
                      and all(c in faces for c in combinations(s + (j,), d - 1))]
            rows = [row for row in ([poly.get(t, 0) for t in monos]
                                    for poly in polys) if any(row)]
            red, pivots = rref(rows)
            reduction = {monos[c]: {monos[i]: -x for i, x in enumerate(r)
                                    if x and i != c}
                         for r, c in zip(red, pivots)}
            basis = tuple(t for t in monos if t not in reduction)
            reduction.update({t: {t: Fraction(1)} for t in basis})
            ideal = [{monos[i]: x for i, x in enumerate(r) if x} for r in red]
            self._bases.append(basis)
            self._reductions.append(reduction)
        if len(self._bases[n]) != 1:
            raise PropertyViolationError(
                f"top cohomology has dimension {len(self._bases[n])}, expected 1; "
                "the characteristic data is inconsistent")
        if self._bases.pop():
            raise PropertyViolationError(
                "cohomology does not vanish above the top degree; "
                "the characteristic data is inconsistent")
        self._reductions.pop()
        self._top_token = self._bases[n][0]
        # The base vertex monomial spans the top degree and integrates to
        # the determinant of its characteristic minor.
        self._top_value = (Fraction(base.sign)
                           / self.reduce_monomial(base.vertex)[self._top_token])

    def _expand(self, mono):
        """A facet monomial as an integer polynomial in the free classes."""
        poly = {(): 1}
        for f in mono:
            out = {}
            for t, c in poly.items():
                for j, a in self._forms[f].items():
                    key = tuple(sorted(t + (j,)))
                    out[key] = out.get(key, 0) + c * a
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
            return self._bases[degree]
        return ()

    def betti_numbers(self):
        """Even Betti numbers b_0, b_2, ..., b_2n."""
        return tuple(len(b) for b in self._bases)

    def reduce_monomial(self, mono):
        bad = [f for f in mono if f not in self._forms]
        if bad:
            raise InputError(
                f"facet labels {bad} leave 1..{self.num_generators}")
        if len(mono) > self.dimension:
            return {}
        table = self._reductions[len(mono)]
        out = {}
        for t, c in self._expand(mono).items():
            for tok, x in table.get(t, {}).items():
                out[tok] = out.get(tok, 0) + c * x
        return {tok: x for tok, x in out.items() if x}

    def mul_basis(self, t1, t2):
        return self.reduce_monomial(tuple(sorted(t1 + t2)))

    def zero(self):
        return CohomologyClass(self, {})

    def one(self):
        return CohomologyClass(self, {(): Fraction(1)})

    def constant(self, c):
        return CohomologyClass(self, {(): Fraction(c)})

    def facet_class(self, j):
        if not 1 <= j <= self.num_generators:
            raise InputError(f"facet label {j} out of range")
        return CohomologyClass(self, self.reduce_monomial((j,)))

    def line_class(self, coefficients):
        """Degree-2 class sum coefficients[j] * v_{j+1}."""
        if len(coefficients) != self.num_generators:
            raise InputError("line coefficients must have one entry per facet")
        out = self.zero()
        for j, c in enumerate(coefficients):
            if c:
                out = out + self.facet_class(j + 1) * Fraction(c)
        return out

    def integrate(self, cls):
        if cls.ring is not self:
            raise InputError("class belongs to a different ring")
        return cls.terms.get(self._top_token, Fraction(0)) * self._top_value

    # -- characteristic classes -------------------------------------------

    def pontryagin_p1(self):
        out = self.zero()
        for j in range(1, self.num_generators + 1):
            vj = self.facet_class(j)
            out = out + vj * vj
        return out

    def spinc_c1(self):
        return self.line_class(self.manifold.spin_c)


def build_face_ring(manifold):
    return FaceRing(manifold)


class SyntheticConnectedSumRing(GradedRing):
    """The cohomology of a k-fold connected sum of complex projective
    spaces, possibly with reversed orientations, prescribed directly.

    Generators g_1..g_k in degree 2, relations g_i g_j = 0 for i != j and
    g_i^n = signs[i] * (top class).  Unlike FaceRing this ring is not tied
    to any characteristic data: it exists to exercise constructions whose
    hypotheses real manifolds cannot satisfy.
    """

    TOP = ("top",)
    ONE = ()

    def __init__(self, dimension, summands, signs=None):
        n, k = int(dimension), int(summands)
        if n < 2:
            raise InputError("connected-sum pattern needs dimension at least 2")
        if k < 1:
            raise InputError("need at least one summand")
        signs = tuple(int(s) for s in (signs or (1,) * k))
        if len(signs) != k or any(s not in (1, -1) for s in signs):
            raise InputError("signs must be +-1, one per summand")
        self.dimension = n
        self.num_generators = k
        self.signs = signs

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
            return {t2: Fraction(1)}
        if t2 == self.ONE:
            return {t1: Fraction(1)}
        if t1 == self.TOP or t2 == self.TOP:
            return {}
        _, i, d1 = t1
        _, j, d2 = t2
        if i != j:
            return {}
        d = d1 + d2
        if d < self.dimension:
            return {("g", i, d): Fraction(1)}
        if d == self.dimension:
            return {self.TOP: Fraction(self.signs[i - 1])}
        return {}

    def zero(self):
        return CohomologyClass(self, {})

    def one(self):
        return CohomologyClass(self, {self.ONE: Fraction(1)})

    def constant(self, c):
        return CohomologyClass(self, {self.ONE: Fraction(c)})

    def generator(self, i):
        if not 1 <= i <= self.num_generators:
            raise InputError(f"generator index {i} out of range")
        if self.dimension == 1:
            return CohomologyClass(self, {self.TOP: Fraction(self.signs[i - 1])})
        return CohomologyClass(self, {("g", i, 1): Fraction(1)})

    def integrate(self, cls):
        if cls.ring is not self:
            raise InputError("class belongs to a different ring")
        return cls.terms.get(self.TOP, Fraction(0))


def _candidate_generator_sets(ring):
    """Lex-ordered k-subsets of facets whose classes pairwise multiply to 0
    and form a basis of the degree-2 part."""
    k = len(ring.basis(1))
    m = ring.num_generators
    basis1 = ring.basis(1)
    for facets in combinations(range(1, m + 1), k):
        classes = [ring.facet_class(j) for j in facets]
        if any(c.is_zero() for c in classes):
            continue
        ok = True
        for a in range(k):
            for b in range(a + 1, k):
                if not (classes[a] * classes[b]).is_zero():
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        mat = [[cls.terms.get(tok, Fraction(0)) for tok in basis1] for cls in classes]
        red, pivots = rref(mat)
        if len(pivots) == k:
            yield facets, classes


def facet_class_decomposition(manifold, ring=None):
    """Integral decomposition of all facet classes over canonical generators.

    Searches for the lexicographically least facet subset whose classes
    pairwise multiply to zero, span the degree-2 part, and express every
    facet class with integer coordinates.  Returns (generator facets,
    integer coordinate matrix with one row per facet, squared-column-sum
    list).  The last item gives the p1 coefficients on the generator
    squares whenever those squares are independent, and is meaningful for
    dimension 2 as well.
    """
    if ring is None:
        ring = build_face_ring(manifold)
    k = len(ring.basis(1))
    basis1 = ring.basis(1)
    for facets, classes in _candidate_generator_sets(ring):
        gen_rows = [[cls.terms.get(tok, Fraction(0)) for tok in basis1]
                    for cls in classes]
        alpha = []
        ok = True
        for j in range(1, ring.num_generators + 1):
            target = [ring.facet_class(j).terms.get(tok, Fraction(0))
                      for tok in basis1]
            coords = solve_in_span(gen_rows, target)
            if coords is None or any(c.denominator != 1 for c in coords):
                ok = False
                break
            alpha.append([int(c) for c in coords])
        if not ok:
            continue
        beta = [sum(row[i] ** 2 for row in alpha) for i in range(k)]
        # Cross-check: with pairwise-zero generators the facet-square sum
        # must reproduce p1 on the nose.
        p1 = ring.pontryagin_p1()
        recon = ring.zero()
        for i, b in enumerate(beta):
            g = classes[i]
            recon = recon + g * g * Fraction(b)
        if not (p1 - recon).is_zero():
            raise PropertyViolationError(
                "facet-square decomposition does not reproduce p1; "
                "generator products are not honestly zero")
        return facets, alpha, beta
    raise RingShapeError(
        "no facet-class generator set admits an integral decomposition "
        "of every facet class; not a connected-sum pattern")
