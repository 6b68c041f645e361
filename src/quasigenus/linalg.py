"""Exact dense linear algebra over Fraction, the integers and GF(2).

Everything here works on plain lists of lists.  Matrices are small (at most
a dozen rows at desk scale) so simplicity beats asymptotics throughout.
"""

from fractions import Fraction
from math import gcd


def transpose(mat):
    return [list(col) for col in zip(*mat)]


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


def solve_in_span(basis_rows, target):
    """Coordinates of target in the row span of basis_rows, or None."""
    if not basis_rows:
        return None if any(x != 0 for x in target) else []
    n = len(basis_rows)
    # Solve basis^T * c = target by row reducing [basis^T | target].
    cols = transpose(basis_rows)
    m = [[Fraction(x) for x in row] + [Fraction(t)] for row, t in zip(cols, target)]
    red, pivots = rref(m)
    if n in pivots:
        return None
    coords = [Fraction(0)] * n
    for r, p in enumerate(pivots):
        coords[p] = red[r][n]
    # Verify (the system may be underdetermined only if basis rows are
    # dependent, which callers avoid; check anyway).
    check = [sum(c * row[j] for c, row in zip(coords, basis_rows)) for j in range(len(target))]
    if any(a != b for a, b in zip(check, target)):
        return None
    return coords


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
