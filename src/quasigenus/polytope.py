"""Combinatorial polytopes and the torus-manifold data built on them.

A simple polytope is stored purely combinatorially: its dimension n, the
number m of facets (labelled 1..m), and the set of vertices, each vertex
being the n-subset of facets meeting it.  That is all the index machinery
ever looks at.  Its constructor checks it in one walk of the ridge graph,
which also orients its boundary sphere.

A quasitoric manifold is such a polytope together with an integer n x m
characteristic matrix whose vertex minors are unimodular, and a stable
complex twist vector of odd integers, one per facet.  Its constructor
checks the minors by inverting each once, which gives the fixed points.
"""

from bisect import bisect_right
from itertools import combinations, product as iproduct
from math import comb
from operator import index

from .errors import InputError
from .linalg import int_det, unimodular_inverse


def _integers(values):
    """values as a tuple of ints, each read by ``operator.index``: a float,
    a Fraction or a string is refused, never truncated."""
    values = tuple(values)
    for x in values:
        if not hasattr(type(x), "__index__"):
            raise InputError(f"expected an integer, got {x!r}")
    return tuple(map(index, values))


class SimplePolytope:
    """Facet-labelled combinatorial simple polytope.

    vertices: iterable of n-subsets of {1, ..., num_facets}.  Validation
    refuses a redundant facet and walks the ridge graph once (``_orient``):
    every ridge lies in exactly two vertices, and the vertex complex is
    connected and orientable.  ``orientation`` keeps the walk's signs.
    """

    __slots__ = ("dimension", "num_facets", "vertices", "orientation",
                 "_faces", "_skeleton")

    def __init__(self, dimension, num_facets, vertices):
        n, m = _integers((dimension, num_facets))
        if n < 1:
            raise InputError("polytope dimension must be at least 1")
        if m < n + 1:
            raise InputError(f"a simple {n}-polytope needs at least {n + 1} facets")
        verts = sorted({tuple(sorted(_integers(v))) for v in vertices})
        for v in verts:
            if len(v) != n:
                raise InputError(f"vertex {v} does not have exactly {n} facets")
            if len(set(v)) != n:
                raise InputError(f"vertex {v} repeats a facet")
            if v[0] < 1 or v[-1] > m:
                raise InputError(f"vertex {v} uses a facet label outside 1..{m}")
        if not verts:
            raise InputError("polytope has no vertices")
        used = set()
        for v in verts:
            used.update(v)
        if used != set(range(1, m + 1)):
            missing = sorted(set(range(1, m + 1)) - used)
            raise InputError(f"facets {missing} appear in no vertex")
        self.dimension = n
        self.num_facets = m
        self.vertices = tuple(verts)
        self.orientation = _orient(self.vertices)
        self._faces = self._skeleton = None

    def faces(self):
        """(faces, minimal non-faces), both grouped by size r = 0..n + 1.

        faces[r] is the set of r-element facet sets that meet, the subsets
        of vertices; non_faces[r] lists the r-element sets that do not meet
        although every (r - 1)-subset does, each generated once from its
        first r - 1 facets.  Computed on first use and kept.
        """
        if self._faces is None:
            n, m = self.dimension, self.num_facets
            faces = [set() for _ in range(n + 2)]
            for v in self.vertices:
                for r in range(n + 1):
                    faces[r].update(combinations(v, r))
            non_faces = [()] + [
                tuple(s + (j,) for s in sorted(faces[r - 1])
                      for j in range(s[-1] + 1 if s else 1, m + 1)
                      if s + (j,) not in faces[r]
                      and all(c in faces[r - 1]
                              for c in combinations(s + (j,), r - 1)))
                for r in range(1, n + 2)]
            self._faces = tuple(map(frozenset, faces)), tuple(non_faces)
        return self._faces

    def h_vector(self):
        """(h_0, ..., h_n), h_k = sum_i (-1)^(k-i) C(n-i, k-i) f_i with f_i
        the number of i-element faces; by Davis-Januszkiewicz, the even
        Betti numbers of every quasitoric manifold over the polytope."""
        n = self.dimension
        f = [len(faces) for faces in self.faces()[0]]
        return tuple(sum((-1) ** (k - i) * comb(n - i, k - i) * f[i]
                         for i in range(k + 1)) for k in range(n + 1))

    def face_ring_skeleton(self):
        """The ``FaceRingSkeleton`` every face ring over this polytope
        expands along.  Computed on first use and kept, like ``faces()``,
        so it lives exactly as long as the polytope."""
        if self._skeleton is None:
            self._skeleton = FaceRingSkeleton(self)
        return self._skeleton

    def __eq__(self, other):
        return (isinstance(other, SimplePolytope)
                and self.dimension == other.dimension
                and self.num_facets == other.num_facets
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash((self.dimension, self.num_facets, self.vertices))

    def __repr__(self):
        return (f"SimplePolytope(dim={self.dimension}, facets={self.num_facets}, "
                f"vertices={len(self.vertices)})")


def _orient(vertices):
    """Signs eps(v) orienting the boundary sphere, +1 at the smallest
    vertex, from one walk of the ridge graph.

    Vertices a and b on a common ridge differ in one facet, at position i
    of a and j of b.  Moving it to the end costs (-1)^(n-1-i) and
    (-1)^(n-1-j), and crossing the ridge reverses the orientation, so
    eps(b) = -(-1)^(i+j) eps(a).  A ridge outside exactly two vertices, a
    vertex reached with both signs and an unreached vertex are refused.
    """
    ridges = {}
    for v in vertices:
        for i in reversed(range(len(v))):
            ridges.setdefault(v[:i] + v[i + 1:], []).append((v, i))
    adjacent = {v: [] for v in vertices}
    for r, ends in ridges.items():
        if len(ends) != 2:
            raise InputError(
                f"ridge {r} lies in {len(ends)} vertices, expected exactly 2")
        (a, i), (b, j) = ends
        flip = (i + j) % 2 * 2 - 1
        adjacent[a].append((b, flip))
        adjacent[b].append((a, flip))
    eps = {vertices[0]: 1}
    stack = [vertices[0]]
    while stack:
        a = stack.pop()
        for b, flip in adjacent[a]:
            if b not in eps:
                eps[b] = flip * eps[a]
                stack.append(b)
            elif eps[b] != flip * eps[a]:
                raise InputError("orientation signs are inconsistent; the "
                                 "vertex complex is not an orientable sphere")
    if len(eps) != len(vertices):
        raise InputError("vertex-edge graph is disconnected")
    return eps


def _insert(t, j):
    """The sorted tuple t with j inserted."""
    i = bisect_right(t, j)
    return t[:i] + (j,) + t[i:]


class FaceRingSkeleton:
    """The part of a face ring that depends only on the polytope.

    ``free`` lists the free facets, those off the smallest vertex, in
    increasing order.  For each degree d = 0..n + 1, ``monomials[d]`` lists
    the sorted tuples of d free facet labels, with repetition, whose
    support is a face, in lexicographic order; the others are zero in every
    face ring (Davis-Januszkiewicz), and so is each multiple of them.  A
    monomial's position in monomials[d] is its column.  For d >= 1,
    ``shifts[d][c][i]`` is the column of monomials[d - 1][c] times
    free[i], or None when that product lies off every face.
    """

    __slots__ = ("free", "monomials", "shifts")

    def __init__(self, polytope):
        faces, _ = polytope.faces()
        free = self.free = tuple(_free_columns(polytope))
        grown = [((), ())]  # (monomial, its support) pairs
        monomials, shifts = [], [()]
        for d in range(polytope.dimension + 2):
            if d:
                # Extend each monomial by a label no smaller than its last:
                # a repeated label keeps the support, which is a face.
                grown = [(t + (j,), s if t and j == t[-1] else s + (j,))
                         for t, s in grown for j in free
                         if not t or j >= t[-1]]
                grown = [(t, s) for t, s in grown if s in faces[len(s)]]
            monos = tuple(t for t, _ in grown)
            column = {t: c for c, t in enumerate(monos)}
            if d:
                shifts.append(tuple(
                    tuple(column.get(_insert(t, j)) for j in free)
                    for t in monomials[-1]))
            monomials.append(monos)
        self.monomials = tuple(monomials)
        self.shifts = tuple(shifts)


def simplex(n):
    """The n-simplex: facets 1..n+1, vertices drop one facet each."""
    labels = range(1, n + 2)
    verts = [tuple(j for j in labels if j != skip) for skip in labels]
    return SimplePolytope(n, n + 1, verts)


def cube(n):
    """The n-cube.  Facet i is the lower facet of axis i, facet n+i the upper."""
    if n < 1:
        raise InputError("polytope dimension must be at least 1")
    verts = []
    for choice in iproduct((0, 1), repeat=n):
        verts.append(tuple(sorted(i + 1 + n * c for i, c in enumerate(choice))))
    return SimplePolytope(n, 2 * n, verts)


def polygon(k):
    """The k-gon with facets (edges) labelled cyclically."""
    if k < 3:
        raise InputError("a polygon needs at least 3 edges")
    verts = [(i, i % k + 1) for i in range(1, k + 1)]
    return SimplePolytope(2, k, verts)


def polytope_product(p, q):
    """Cartesian product; the second factor's facets are shifted by p's count."""
    shift = p.num_facets
    verts = [tuple(sorted(a + tuple(f + shift for f in b)))
             for a in p.vertices for b in q.vertices]
    return SimplePolytope(p.dimension + q.dimension, shift + q.num_facets, verts)


def vertex_cut(p, vertex):
    """Truncate one vertex; the fresh facet gets label m + 1."""
    v = tuple(sorted(vertex))
    if v not in p.vertices:
        raise InputError(f"{v} is not a vertex of the polytope")
    fresh = p.num_facets + 1
    verts = [w for w in p.vertices if w != v]
    for drop in v:
        verts.append(tuple(sorted([f for f in v if f != drop] + [fresh])))
    return SimplePolytope(p.dimension, fresh, verts)


def connected_sum(p, vp, q, vq):
    """Connected sum of two simple polytopes at the given vertices.

    Both vertices are removed; the facets through vq are identified with the
    facets through vp, the k-th smallest facet label of vq glued to the k-th
    smallest of vp.
    """
    if p.dimension != q.dimension:
        raise InputError("connected sum needs equal dimensions")
    vp = tuple(sorted(vp))
    vq = tuple(sorted(vq))
    if vp not in p.vertices:
        raise InputError(f"{vp} is not a vertex of the first summand")
    if vq not in q.vertices:
        raise InputError(f"{vq} is not a vertex of the second summand")
    relabel = dict(zip(vq, vp))
    fresh = p.num_facets
    for f in range(1, q.num_facets + 1):
        if f not in relabel:
            fresh += 1
            relabel[f] = fresh
    verts = [w for w in p.vertices if w != vp]
    for w in q.vertices:
        if w == vq:
            continue
        verts.append(tuple(sorted(relabel[f] for f in w)))
    return SimplePolytope(p.dimension, fresh, verts)


class FixedPointDatum:
    """Localization data at one fixed point (vertex) of the torus action.

    weights[k] is the character of the k-th tangent line, dual to the
    characteristic vector of facet vertex[k]; sign is the oriented sign
    eps(v) det, the polytope's orientation at the vertex times the
    determinant of its characteristic minor.
    """

    __slots__ = ("vertex", "weights", "sign")

    def __init__(self, vertex, weights, sign):
        self.vertex = tuple(vertex)
        self.weights = tuple(tuple(w) for w in weights)
        self.sign = int(sign)

    def __repr__(self):
        return f"FixedPointDatum(vertex={self.vertex}, sign={self.sign})"


class QuasitoricManifold:
    """Characteristic data over a simple polytope, with an odd twist vector.

    char_matrix: n rows of m integers; column j is the circle subgroup
    collapsing over facet j.  Every vertex minor must have determinant +-1.
    spin_c: m odd integers fixing the stable complex twist; its facet sum
    is the first Chern class of the twist line bundle.
    """

    __slots__ = ("polytope", "char_matrix", "spin_c", "_fixed")

    def __init__(self, polytope, char_matrix, spin_c):
        n, m = polytope.dimension, polytope.num_facets
        rows = tuple(map(_integers, char_matrix))
        if len(rows) != n or any(len(r) != m for r in rows):
            raise InputError(
                f"characteristic matrix must be {n} x {m}")
        gam = _integers(spin_c)
        if len(gam) != m:
            raise InputError(f"twist vector needs one entry per facet ({m})")
        odd_fail = [j + 1 for j, g in enumerate(gam) if g % 2 == 0]
        if odd_fail:
            raise InputError(
                f"twist entries at facets {odd_fail} are even; all must be odd")
        self.polytope = polytope
        self.char_matrix = rows
        self.spin_c = gam
        self._fixed = None
        self.fixed_points()

    @classmethod
    def _enumerated(cls, polytope, rows):
        """The manifold of an enumerated matrix, with the all-ones twist.
        The enumeration has checked every vertex minor, so the constructor's
        checks are not run again."""
        self = cls.__new__(cls)
        self.polytope, self.char_matrix = polytope, rows
        self.spin_c = (1,) * polytope.num_facets
        self._fixed = None
        return self

    @property
    def dimension(self):
        return self.polytope.dimension

    @property
    def num_facets(self):
        return self.polytope.num_facets

    def column(self, facet):
        return tuple(row[facet - 1] for row in self.char_matrix)

    def minor(self, vertex):
        """Square matrix whose columns are the vertex's facet vectors, sorted."""
        cols = [self.column(f) for f in sorted(vertex)]
        return [[cols[k][i] for k in range(len(cols))]
                for i in range(self.dimension)]

    def fixed_points(self):
        """One FixedPointDatum per vertex, in sorted vertex order.  The
        constructor builds them: one inversion per vertex minor checks it,
        and ``int_det`` only names the determinant of a refused one."""
        if self._fixed is None:
            eps, data = self.polytope.orientation, []
            for v in self.polytope.vertices:
                found = unimodular_inverse(self.minor(v))
                if found is None:
                    raise InputError(f"vertex {v} has characteristic minor "
                                     f"determinant {int_det(self.minor(v))}")
                det, weights = found
                data.append(FixedPointDatum(v, weights, eps[v] * det))
            self._fixed = tuple(data)
        return self._fixed

    def orientation_signs(self):
        """The polytope's signs eps(v), which orient its boundary sphere."""
        return self.polytope.orientation

    def __repr__(self):
        return (f"QuasitoricManifold(dim={self.dimension}, "
                f"facets={self.num_facets})")


def _free_columns(polytope):
    """Facets outside the smallest vertex, the gauge-fixed identity minor."""
    base = polytope.vertices[0]
    return [f for f in range(1, polytope.num_facets + 1) if f not in base]


def _vertex_blocks_by_column(polytope, free):
    """For each free column, the free blocks of the vertices whose minors
    close at that column.

    With the base columns pinned to unit vectors, a vertex's minor equals,
    up to sign, the minor of its free columns on the rows its base facets
    leave out.  Each entry is that (free facets, rows) pair.
    """
    order = {f: i for i, f in enumerate(free)}
    base_row = {f: k for k, f in enumerate(polytope.vertices[0])}
    buckets = [[] for _ in free]
    for v in polytope.vertices:
        outside = [f for f in v if f in order]
        if outside:
            rows = [k for f, k in base_row.items() if f not in v]
            buckets[max(order[f] for f in outside)].append((outside, rows))
    return buckets


def _free_column_search(polytope, bound, keep, charge=None):
    """Gauge-fixed characteristic matrices with free entries in
    [-bound, bound] whose free columns all pass ``keep``, in backtracking
    order over the free columns, each running through [-bound, bound]^n in
    ``iproduct`` order.  Yields full n x m matrices.

    A vertex minor is checked on its free block, the vertex's free columns
    on the rows its base facets leave out.  A block of one free column is
    1 x 1, so it filters that column's candidate list once; the blocks
    joining earlier columns go through ``int_det`` while backtracking.
    ``charge``, if given, gets the filtering work, (2 bound + 1)^n per free
    column, before any candidate is built, and a column's candidate count
    each time the backtracking enters it.
    """
    n = polytope.dimension
    free = _free_columns(polytope)
    if charge:
        charge(len(free) * (2 * bound + 1) ** n)
    cols = {f: tuple(int(i == k) for i in range(n))
            for k, f in enumerate(polytope.vertices[0])}
    kept = [c for c in iproduct(range(-bound, bound + 1), repeat=n) if keep(c)]
    candidates, joint = [], []
    for blocks in _vertex_blocks_by_column(polytope, free):
        units = [rows[0] for facets, rows in blocks if len(facets) == 1]
        candidates.append([c for c in kept
                           if all(c[i] in (1, -1) for i in units)])
        joint.append([b for b in blocks if len(b[0]) > 1])

    def rec(idx):
        if idx == len(free):
            yield tuple(tuple(cols[f][i]
                              for f in range(1, polytope.num_facets + 1))
                        for i in range(n))
            return
        if charge:
            charge(len(candidates[idx]))
        for cand in candidates[idx]:
            cols[free[idx]] = cand
            if all(int_det([[cols[f][i] for f in facets] for i in rows])
                   in (1, -1) for facets, rows in joint[idx]):
                yield from rec(idx + 1)

    yield from rec(0)


def sign_orbit_representatives(polytope, bound, charge=None):
    """Gauge-fixed characteristic matrices with free entries in
    [-bound, bound], one per sign orbit: each free column's first nonzero
    entry is positive.  Yields full n x m matrices in enumeration order;
    ``charge`` is as in ``_free_column_search``.

    Negating a free column keeps every |det|, and the box is symmetric, so
    each orbit has 2^(m - n) members and checking one checks all.
    """
    return _free_column_search(
        polytope, bound, lambda c: next((x for x in c if x), 0) > 0, charge)


def sign_orbit_members(polytope, representatives):
    """(member, representative) for every member of each representative's
    sign orbit, sorted by the tuple of the member's free columns, which is
    the order ``enumerate_characteristic_matrices`` yields them in."""
    free = _free_columns(polytope)
    pairs = []
    for rep in representatives:
        for signs in iproduct((1, -1), repeat=len(free)):
            flip = dict(zip(free, signs))
            pairs.append((tuple(tuple(x * flip.get(j, 1)
                                      for j, x in enumerate(row, 1))
                                for row in rep), rep))
    pairs.sort(key=lambda pair: [[row[f - 1] for row in pair[0]]
                                 for f in free])
    return pairs


def enumerate_characteristic_matrices(polytope, bound):
    """All gauge-fixed characteristic matrices with free entries in
    [-bound, bound]: the minor at the smallest vertex is the identity and
    every vertex minor is unimodular.  Yields full n x m integer matrices
    lazily, in backtracking order over the free columns, each running
    through the nonzero vectors of [-bound, bound]^n in ``iproduct`` order;
    that is the order of ``sign_orbit_members`` over all the
    ``sign_orbit_representatives``.
    """
    return _free_column_search(polytope, bound, any)
