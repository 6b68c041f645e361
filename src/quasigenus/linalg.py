"""Exact dense linear algebra over Fraction, the integers and GF(2).

Everything here works on plain lists of lists and favours simplicity over
asymptotics, although sizes range widely: from a manifold's n x n vertex
minors, or their free blocks of at most (m - n) x (m - n) in the census,
to the 2766 x 792 row reduction in the face ring of (S^2)^6, where dense
elimination dominates the ring's construction.
"""

from fractions import Fraction
from math import gcd


def rref(rows):
    """Reduced row echelon form over Fraction.

    Returns (reduced nonzero rows, pivot column indices).  The input is not
    modified.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def nullspace(rows):
    """Basis of the right kernel, one vector per free column.

    Each basis vector has entry 1 at its free column; computed from the
    reduced row echelon form, so the result is deterministic.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def int_det(mat):
    """Determinant of a square integer matrix (Bareiss, exact)."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def unimodular_inverse(mat):
    """(det, inverse) of a square integer matrix with determinant +-1.

    Returns None for any other determinant.  Integer Gauss-Jordan on
    [M | I]: Euclidean row steps leave the gcd of each column's remaining
    entries on the diagonal, and every such pivot must be a unit when
    det M is.  The inverse comes back as integer rows.
    """
    n = len(mat)
    rows = [list(row) + [int(i == j) for j in range(n)]
            for i, row in enumerate(mat)]
    det = 1
    for c in range(n):
        for r in range(c + 1, n):
            while rows[r][c]:
                q = rows[c][c] // rows[r][c]
                rows[c] = [x - q * y for x, y in zip(rows[c], rows[r])]
                rows[c], rows[r] = rows[r], rows[c]
                det = -det
        if rows[c][c] not in (1, -1):
            return None
        if rows[c][c] == -1:
            rows[c] = [-x for x in rows[c]]
            det = -det
        for r in range(c):
            f = rows[r][c]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det, [row[n:] for row in rows]


def perm_parity(perm):
    """Sign of a permutation given as a sequence of distinct comparables."""
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def gf2_solve(rows, target):
    """Solve x * rows = target over GF(2); returns a 0/1 list or None.

    rows is a list of length-m vectors; the solution x has one bit per row.
    """
    nrows = len(rows)
    if nrows == 0:
        return None if any(t % 2 for t in target) else []
    ncols = len(rows[0])
    # Augment each column equation; work with rows^T x = target.
    m = [[rows[r][c] % 2 for r in range(nrows)] + [target[c] % 2] for c in range(ncols)]
    pivots = []
    r = 0
    for c in range(nrows):
        pivot = next((i for i in range(r, ncols) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(ncols):
            if i != r and m[i][c]:
                m[i] = [(x + y) % 2 for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == ncols:
            break
    for i in range(r, ncols):
        if m[i][nrows]:
            return None
    x = [0] * nrows
    for i, c in enumerate(pivots):
        x[c] = m[i][nrows]
    return x


def primitive_vector(vec):
    """Scale a nonzero rational vector to a primitive integer vector.

    Clears denominators, divides by the gcd and flips signs so the first
    nonzero entry is positive.
    """
    fr = [Fraction(x) for x in vec]
    if all(x == 0 for x in fr):
        raise ValueError("zero vector has no primitive form")
    denom = 1
    for x in fr:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def is_primitive(vec):
    g = 0
    for x in vec:
        g = gcd(g, abs(int(x)))
    return g == 1
