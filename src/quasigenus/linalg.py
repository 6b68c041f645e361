"""Exact linear algebra over the rationals, the integers and GF(2).

Row reduction works on sparse rows, ``{column: value}`` dicts with exact
values, each an int when it is integral and a Fraction otherwise
(``exactalg._exact``): the face ring's eliminations, up to the 2766 x 792
reduction in degree 7 of (S^2)^6, hold about one nonzero per row.  The
small integer routines (determinants, unimodular inverses, GF(2) solves)
work on plain lists of lists and favour simplicity over asymptotics: their
sizes are a manifold's n x n vertex minors, or their free blocks of at most
(m - n) x (m - n) in the census.
"""

from fractions import Fraction
from math import gcd

from .exactalg import _exact


def _subtract(row, f, other):
    """row -= f * other on sparse rows, in place, dropping zeros."""
    for k, y in other.items():
        x = row.get(k, 0) - f * y
        if x:
            row[k] = x
        else:
            del row[k]


def rref(rows):
    """Reduced row echelon form of sparse rows over the rationals.

    Each row is a ``{column: value}`` dict with int or Fraction values;
    zero values are allowed and the input is not modified.  Returns
    (reduced rows, pivot columns): the nonzero rows of the unique reduced
    row echelon form in increasing pivot order, each a dict with value 1
    at its pivot, no other pivot column, its columns in increasing order
    and its values exact (``exactalg._exact``), and the increasing list of
    pivot columns.
    """
    pivot_rows = {}  # pivot column -> its fully reduced row
    for row in rows:
        r = {c: x for c, x in row.items() if x}
        for c in [c for c in r if c in pivot_rows]:
            _subtract(r, r[c], pivot_rows[c])
        if not r:
            continue
        # The least column leads the row: every earlier pivot row has its
        # own pivot first, so clearing this column from it keeps that.
        p = min(r)
        lead = r[p]
        if lead != 1:
            r = {k: _exact(Fraction(x, lead)) for k, x in r.items()}
        for q in pivot_rows.values():
            if p in q:
                _subtract(q, q[p], r)
        pivot_rows[p] = r
    pivots = sorted(pivot_rows)
    return [{k: _exact(pivot_rows[p][k]) for k in sorted(pivot_rows[p])}
            for p in pivots], pivots


def nullspace(rows, ncols):
    """Basis of the right kernel of sparse rows with ``ncols`` columns.

    One dense vector per free column, with entry 1 there; read off the
    reduced row echelon form, so the result is deterministic and its
    entries follow ``rref``'s: an int when integral, else a Fraction.
    """
    red, pivots = rref(rows)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[f] = 1
        for r, p in zip(red, pivots):
            v[p] = -r.get(f, 0)
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
