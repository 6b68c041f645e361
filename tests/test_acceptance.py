"""Acceptance gate: nine independently verifiable claims, one test each.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Each test carries its own wall-clock budget and
fails honestly on overrun; values are exact rational comparisons, never
approximate.
"""

import random
import time
from fractions import Fraction
from math import gcd

from quasigenus.cohomology import build_face_ring
from quasigenus.genus import (BundleSpec, cohomological_index,
                              equivariant_index, euler_characteristic, index,
                              signature, witten_genus)
from quasigenus.models import (cp2_connected_sum, projective_space,
                               sphere_product, sphere_product_spin)
from quasigenus.polytope import (QuasitoricManifold, cube,
                                 enumerate_characteristic_matrices,
                                 polytope_product, simplex)
from quasigenus.theorems import (EquivariantDegree4Class, anomaly_coefficient,
                                 find_circle, finiteness_census,
                                 max_dim_rank_ratio,
                                 synthetic_inflated_instance)
from test_cohomology import localization_pairing


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, (
                f"took {elapsed:.3f}s, budget {self.seconds}s")
        return False


def test_criterion_1_rank_ratio_table_thirty_rows():
    # oracle: running maximum of dimension/rank over the simple compact
    # groups, built outside the timed window
    series = {}
    for l in range(1, 31):
        dims = {l * (l + 2)}
        if l >= 2:
            dims.add(l * (2 * l + 1))
        if l >= 4:
            dims.add(l * (2 * l - 1))
        for rank, dim in [(2, 14), (4, 52), (6, 78), (7, 133), (8, 248)]:
            if rank == l:
                dims.add(dim)
        series[l] = dims
    oracle = {}
    best = Fraction(0)
    for l in range(1, 31):
        best = max(best, max(Fraction(d, l) for d in series[l]))
        oracle[l] = best

    with Budget(0.001):
        for l in range(1, 31):
            assert max_dim_rank_ratio(l) == oracle[l], f"row {l}"


def test_criterion_2_synthetic_euler_pairing_is_two():
    for n in (3, 4, 5, 6):
        for sign in (1, -1):
            with Budget(1.0):
                rep = synthetic_inflated_instance(n, sign=sign, q_order=2)
                series = rep["index_series"]
                assert rep["index_is_constant"]
                assert series.coeffs[0] == rep["euler_pairing"] == 2 * sign
                assert abs(series.coeffs[0]) == 2


def test_criterion_3_localization_equals_ring_integration():
    instances = []
    for n in (1, 2, 3, 4):
        instances.append((projective_space(n), BundleSpec.empty()))
    for n in (1, 2, 3):
        instances.append((sphere_product(n), BundleSpec.empty()))
    instances.append((sphere_product_spin(1), BundleSpec.empty()))
    instances.append((sphere_product_spin(2), BundleSpec.empty()))
    instances.append((cp2_connected_sum(), BundleSpec.empty()))

    rng = random.Random(314159)
    tetra = simplex(3)
    tetra_mats = list(enumerate_characteristic_matrices(tetra, 1))
    rng.shuffle(tetra_mats)
    for mat in tetra_mats[:5]:
        instances.append((QuasitoricManifold(tetra, mat, (1,) * 4),
                          BundleSpec.empty()))
    square = cube(2)
    square_mats = list(enumerate_characteristic_matrices(square, 1))
    rng.shuffle(square_mats)
    for mat in square_mats[:5]:
        instances.append((QuasitoricManifold(square, mat, (1,) * 4),
                          BundleSpec.empty()))

    assert len(instances) >= 20
    with Budget(60.0):
        for manifold, bundles in instances:
            a = index(manifold, bundles, 4)
            b = cohomological_index(manifold, bundles, 4)
            assert a == b, f"disagreement on {manifold!r}"


def test_criterion_4_negative_anomaly_vanishing():
    cases = [(sphere_product_spin(1), (1,))]
    for n in (2, 3):
        cases.append((sphere_product_spin(n), (1,) * n))
    with Budget(30.0):
        for manifold, xi in cases:
            value = anomaly_coefficient(manifold, xi)
            assert value == -manifold.dimension < 0
            eq = equivariant_index(manifold, xi, None, 3)
            assert eq.is_identically_zero()
            for d in range(4):
                assert not eq.q_coefficient(d)


def test_criterion_5_witten_genus_of_sphere_products_vanishes():
    with Budget(30.0):
        for n in (1, 2, 3):
            got = witten_genus(sphere_product_spin(n), 3)
            assert list(got.coeffs) == [0, 0, 0, 0]


def test_criterion_6_hundred_random_circle_constructions():
    rng = random.Random(271828)
    matrices = []
    while len(matrices) < 100:
        rank_t = rng.randint(1, 6)
        b2 = rng.randint(0, rank_t - 1)
        a22 = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                for _ in range(b2)] for _ in range(rank_t)]
        matrices.append((rank_t, b2, a22))

    with Budget(1.0):
        for rank_t, b2, a22 in matrices:
            zero = [[0] * rank_t for _ in range(rank_t)]
            xi = find_circle(EquivariantDegree4Class(zero, a22)).xi
            assert len(xi) == rank_t
            assert gcd(*xi) == 1
            for f in range(b2):
                assert sum(a22[i][f] * xi[i] for i in range(rank_t)) == 0


def test_criterion_7_classical_sanity_values():
    for n in (1, 2, 3, 4):
        manifold = projective_space(n)
        assert euler_characteristic(manifold) == n + 1
        total = sum(localization_pairing(manifold, v)
                    for v in manifold.polytope.vertices)
        assert total == n + 1
    # ring-side cross-check of the index limit on the small cases
    for n in (1, 2, 3):
        manifold = projective_space(n)
        ring = build_face_ring(manifold)
        lines = [[int(j == f) for j in range(1, n + 2)] for f in range(1, n + 2)]
        total = sum(ring.integral([lines[f - 1] for f in v])
                    for v in manifold.polytope.vertices)
        assert total == n + 1
    assert signature(projective_space(2)) == 1
    assert witten_genus(projective_space(3), 0).coeffs[0] == 0


def test_criterion_8_census_beta_bound():
    with Budget(30.0):
        for k in (1, 2):
            for bound in (1, 2):
                rep = finiteness_census(3, k, bound)
                assert rep["pattern_matches"] > 0
                assert rep["violations"] == []
                assert rep["all_within_bound"]
                for beta in rep["beta_vectors"]:
                    assert all(0 < b <= 4 for b in beta)


def test_criterion_9_index_multiplicativity():
    first = projective_space(1)
    second = projective_space(1)
    second_bundles = BundleSpec(((0, 2),), ())

    poly = polytope_product(first.polytope, second.polytope)
    rows = [tuple(r) + (0, 0) for r in first.char_matrix]
    rows += [(0, 0) + tuple(r) for r in second.char_matrix]
    product = QuasitoricManifold(
        poly, rows, tuple(first.spin_c) + tuple(second.spin_c))
    lifted = BundleSpec(
        tuple((0, 0) + tuple(l) for l in second_bundles.v_lines), ())

    a = index(first, None, 3)
    b = index(second, second_bundles, 3)
    together = index(product, lifted, 3)
    assert together == a * b
    assert together == cohomological_index(product, lifted, 3)
