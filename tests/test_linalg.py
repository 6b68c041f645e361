"""Exact linear algebra: determinants, inverses, kernels, GF(2) solves.

Oracles here are deliberately naive: permutation-expansion determinants
and brute-force GF(2) searches.  The library must agree with them on
random inputs, not just on the hand-picked cases.
"""

import random
from fractions import Fraction
from itertools import permutations, product
from math import gcd

import pytest

from quasigenus.linalg import (gf2_solve, int_det, nullspace, primitive_vector,
                               rref, unimodular_inverse)


def det_by_permutation_expansion(mat):
    """Sum over permutations of sign * product, the definition itself."""
    n = len(mat)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= mat[i][perm[i]]
        total += sign * prod
    return total


def test_int_det_examples():
    assert int_det([[5]]) == 5
    assert int_det([[1, 2], [3, 4]]) == -2
    assert int_det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert int_det([[1, 2], [2, 4]]) == 0


def test_int_det_matches_permutation_expansion():
    rng = random.Random(101)
    for _ in range(120):
        n = rng.randint(1, 4)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert int_det(mat) == det_by_permutation_expansion(mat)


def random_unimodular(rng, n):
    """A signed permutation matrix under random elementary row additions."""
    perm = list(range(n))
    rng.shuffle(perm)
    mat = [[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(n)]
           for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        f = rng.randint(-3, 3)
        mat[i] = [x + f * y for x, y in zip(mat[i], mat[j])]
    return mat


def test_unimodular_inverse_matches_permutation_expansion():
    rng = random.Random(404)
    for n in range(1, 7):
        for _ in range(25):
            mat = random_unimodular(rng, n)
            det, inv = unimodular_inverse(mat)
            assert det == det_by_permutation_expansion(mat)
            product = [[sum(mat[i][k] * inv[k][j] for k in range(n))
                        for j in range(n)] for i in range(n)]
            assert product == [[int(i == j) for j in range(n)]
                               for i in range(n)]
            assert all(isinstance(x, int) for row in inv for x in row)


def test_unimodular_inverse_refuses_other_determinants():
    assert unimodular_inverse([[2]]) is None
    assert unimodular_inverse([[1, 2], [2, 4]]) is None
    assert unimodular_inverse([[1, 0], [0, 2]]) is None


def sparse(mat):
    """Dense rows as the {column: value} rows that rref takes."""
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def dense(rows, ncols):
    """Sparse rows back as dense Fraction lists."""
    return [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]


def _rref_reference(rows):
    """The dense Fraction Gauss-Jordan that the sparse rref replaced.

    Returns (reduced nonzero rows, pivot column indices).
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


def test_rref_and_rank():
    rows = sparse([[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]])
    reduced, pivots = rref(rows)
    assert pivots == [0]
    assert dense(reduced, 2) == [[Fraction(1), Fraction(2)]]
    assert len(rref(sparse([[1, 2], [2, 4]]))[1]) == 1
    assert len(rref(sparse([[1, 0], [0, 1]]))[1]) == 2


def random_rank_deficient(rng, nrows, ncols, rank):
    """Integer combinations of ``rank`` random rows."""
    basis = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rank)]
    return [[sum(rng.randint(-2, 2) * b[j] for b in basis)
             for j in range(ncols)] for _ in range(nrows)]


def test_rref_matches_dense_reference():
    rng = random.Random(303)
    cases = [[], [[0, 0, 0]], [[0, 0], [0, 0], [0, 0]]]
    for _ in range(300):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        kind = rng.choice(("dense", "sparse", "zero rows", "deficient"))
        if kind == "deficient":
            mat = random_rank_deficient(rng, nrows, ncols,
                                        rng.randint(0, min(nrows, ncols)))
        else:
            mat = [[rng.randint(-4, 4) if rng.random() < (
                        0.3 if kind == "sparse" else 0.9) else 0
                    for _ in range(ncols)] for _ in range(nrows)]
            if kind == "zero rows":
                mat += [[0] * ncols for _ in range(rng.randint(1, 3))]
                rng.shuffle(mat)
        cases.append(mat)
    shapes = {(len(mat) > len(mat[0]), len(mat) < len(mat[0]))
              for mat in cases if mat}
    assert shapes == {(True, False), (False, True), (False, False)}
    for i, mat in enumerate(cases):
        ncols = len(mat[0]) if mat else 0
        want_rows, want_pivots = _rref_reference(mat)
        # Every other case also passes its zeros explicitly.
        rows = [dict(enumerate(row)) for row in mat] if i % 2 else sparse(mat)
        frozen = [dict(row) for row in rows]
        got_rows, got_pivots = rref(rows)
        assert rows == frozen
        assert got_pivots == want_pivots
        assert dense(got_rows, ncols) == want_rows
        assert all(list(row) == sorted(row) and 0 not in row.values()
                   for row in got_rows)


def test_nullspace_annihilates():
    rng = random.Random(202)
    for _ in range(100):
        nrows = rng.randint(1, 3)
        ncols = rng.randint(1, 4)
        mat = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
        basis = nullspace(sparse(mat), ncols)
        assert len(basis) == ncols - len(rref(sparse(mat))[1])
        for vec in basis:
            assert all(sum(Fraction(row[j]) * vec[j] for j in range(ncols)) == 0
                       for row in mat)


def test_nullspace_example():
    basis = nullspace([{0: 1, 1: 1}], 2)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0


def brute_gf2(rows, target):
    """Try all 2^k combinations of rows over GF(2)."""
    k = len(rows)
    m = len(target)
    for bits in product((0, 1), repeat=k):
        acc = [0] * m
        for b, row in zip(bits, rows):
            if b:
                acc = [(a + r) % 2 for a, r in zip(acc, row)]
        if acc == [t % 2 for t in target]:
            return bits
    return None


def test_gf2_solve_matches_brute_force():
    rng = random.Random(303)
    for _ in range(150):
        k = rng.randint(1, 4)
        m = rng.randint(1, 5)
        rows = [[rng.randint(0, 1) for _ in range(m)] for _ in range(k)]
        target = [rng.randint(0, 1) for _ in range(m)]
        got = gf2_solve(rows, target)
        expect = brute_gf2(rows, target)
        if expect is None:
            assert got is None
        else:
            assert got is not None
            combo = [0] * m
            for b, row in zip(got, rows):
                if b:
                    combo = [(a + r) % 2 for a, r in zip(combo, row)]
            assert combo == [t % 2 for t in target]


def test_primitive_vector():
    assert primitive_vector([2, 4, 6]) == (1, 2, 3)
    assert primitive_vector([-3, 6]) == (1, -2)
    assert primitive_vector([Fraction(1, 2), Fraction(1, 3)]) == (3, 2)
    with pytest.raises(ValueError):
        primitive_vector([0, 0])


def test_primitive_vector_random():
    rng = random.Random(505)
    for _ in range(200):
        n = rng.randint(1, 5)
        vec = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        if all(x == 0 for x in vec):
            continue
        prim = primitive_vector(vec)
        assert gcd(*prim) == 1
        lead = next(x for x in prim if x != 0)
        assert lead > 0
        # proportional to the input
        ratio = None
        for a, b in zip(vec, prim):
            if b != 0:
                r = Fraction(a) / b
                assert ratio is None or r == ratio
                ratio = r
            else:
                assert a == 0
