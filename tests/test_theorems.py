"""Circle construction, anomaly integers, twist bundles, bounds, census."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from quasigenus.cli import main
from quasigenus.cohomology import (SyntheticConnectedSumRing, build_face_ring,
                                   facet_class_decomposition)
from quasigenus.errors import (DegenerateCircleError, InputError,
                               PreconditionError, PropertyViolationError,
                               RankHypothesisError, RingShapeError,
                               WellDefinednessError)
from quasigenus import cohomology, polytope, theorems
from quasigenus.genus import BundleSpec, equivariant_index
from quasigenus.models import (cp2_connected_sum, projective_space,
                               sphere_product, sphere_product_spin)
from quasigenus.theorems import (EquivariantDegree4Class, SymmetryBoundInput,
                                 _iterated_connected_sum, anomaly_coefficient,
                                 check_twist_classes,
                                 construct_twist_bundles,
                                 construct_twist_bundles_on_ring, find_circle,
                                 finiteness_census, max_dim_rank_ratio,
                                 rank_ratio_table_check, symmetry_bounds,
                                 synthetic_inflated_instance)
from test_cohomology import (_delta_four_census_rings, _dict_integral,
                             _dict_product, _dict_square_sum, _line_dict,
                             facet_lines, localization_pairing, unit_lines)


class TestDegree4Class:
    def test_validation(self):
        with pytest.raises(InputError, match="symmetric"):
            EquivariantDegree4Class([[0, 1], [2, 0]], [[1], [1]])
        with pytest.raises(InputError, match="square"):
            EquivariantDegree4Class([[0, 1]], [[1]])
        cls4 = EquivariantDegree4Class([[1, 0], [0, 1]], [[1], [2]])
        assert cls4.torus_rank == 2
        assert cls4.b2 == 1

    def test_mixed_component_of_cp2(self):
        cls4 = EquivariantDegree4Class.of_negative_tangent_p1(
            projective_space(2))
        assert cls4.a22 == ((-2,), (-2,))
        assert not cls4.a04_is_zero


class TestFindCircle:
    def test_rank2_kernel(self):
        cls4 = EquivariantDegree4Class([[0, 0], [0, 0]], [[1], [1]])
        assert find_circle(cls4).xi == (1, -1)

    def test_primitive_kernel(self):
        cls4 = EquivariantDegree4Class([[0, 0], [0, 0]], [[2], [4]])
        assert find_circle(cls4).xi == (2, -1)

    def test_rank3_two_columns(self):
        a22 = [[1, 0], [0, 1], [1, 1]]
        cls4 = EquivariantDegree4Class([[0] * 3] * 3, a22)
        xi = find_circle(cls4).xi
        assert xi == (1, 1, -1)
        for f in range(2):
            assert sum(a22[i][f] * xi[i] for i in range(3)) == 0

    def test_empty_mixed_component(self):
        cls4 = EquivariantDegree4Class([[0, 0], [0, 0]], [[], []])
        assert find_circle(cls4).xi == (1, 0)

    def test_nonzero_fiber_component_refused(self):
        cls4 = EquivariantDegree4Class.of_negative_tangent_p1(
            projective_space(2))
        with pytest.raises(PreconditionError):
            find_circle(cls4)

    def test_rank_hypothesis_failure_attaches_kernel(self):
        cls4 = EquivariantDegree4Class.of_negative_tangent_p1(
            sphere_product_spin(2))
        with pytest.raises(RankHypothesisError) as info:
            find_circle(cls4)
        # rank T equals b2 here; whether a kernel exists is reported
        assert hasattr(info.value, "kernel")

    def test_circle_from_spin_sphere_cube(self):
        # (S^2)^3 spin has rank 3 = b2 = 3: hypothesis fails, but p1 = 0
        cls4 = EquivariantDegree4Class.of_negative_tangent_p1(
            sphere_product_spin(3))
        assert cls4.a04_is_zero
        with pytest.raises(RankHypothesisError):
            find_circle(cls4)


class TestAnomalyCoefficient:
    def test_sphere_rotation(self):
        assert anomaly_coefficient(sphere_product_spin(1), (1,)) == -1
        assert anomaly_coefficient(projective_space(1), (1,)) == -1

    def test_diagonal_sphere_products(self):
        # each factor contributes -1: weights are unit vectors, the circle
        # pairs to +-1 with each of the n tangent lines
        for n in (2, 3):
            got = anomaly_coefficient(sphere_product_spin(n), (1,) * n)
            assert got == -n

    def test_cp2_not_a_pullback(self):
        with pytest.raises(WellDefinednessError) as info:
            anomaly_coefficient(projective_space(2), (1, 2))
        assert info.value.values == {(1, 2): -5, (1, 3): -5, (2, 3): -2}

    def test_twisted_non_pullback_reports_every_value(self):
        # CP^2 on (1, 2) with V the first facet line and W the sum of the
        # last two: at vertex {1, 3} the tangent weights are (-1, -2), V
        # restricts to -1 and W to -2, so after the shift by the weights
        # (1, 2) at {1, 2} the value is 2^2 + 4^2 - 1 - 4 = 15
        bundles = BundleSpec(((1, 0, 0),), ((0, 1, 1),))
        with pytest.raises(WellDefinednessError) as info:
            anomaly_coefficient(projective_space(2), (1, 2), bundles)
        assert info.value.values == {(1, 2): -5, (1, 3): 15, (2, 3): 3}

    def test_refusals(self):
        m = projective_space(2)
        with pytest.raises(InputError, match="circle vector length 3"):
            anomaly_coefficient(m, (1, 2, 3))
        with pytest.raises(InputError, match="nonzero"):
            anomaly_coefficient(m, (0, 0))
        # (1, 1) pairs to zero with the weight (1, -1) at vertex {1, 3}
        with pytest.raises(DegenerateCircleError, match=r"\[\(1, -1\)\]"):
            anomaly_coefficient(m, (1, 1))
        # the bundle lines are read before the circle
        with pytest.raises(InputError, match="one coefficient per facet"):
            anomaly_coefficient(m, (1, 2, 3), BundleSpec(((1,),)))

    def test_negative_anomaly_forces_vanishing(self):
        # the bridge the machinery exists for: I < 0 with matching twist
        # class makes the whole equivariant q-series vanish
        for n in (1, 2):
            m = sphere_product_spin(n)
            xi = (1,) * n
            assert anomaly_coefficient(m, xi) == -n < 0
            eq = equivariant_index(m, xi, None, 3)
            assert eq.is_identically_zero()


class TestTwistClassChecks:
    def test_cp1_canonical_classes(self):
        rep = check_twist_classes(projective_space(1), [(1, 1)])
        assert rep["sum_is_spinc_class"]
        assert rep["squares_sum_is_p1"]
        assert rep["pairing"] == 2
        assert rep["all_hold"]

    def test_wrong_count(self):
        with pytest.raises(InputError, match="need exactly 2 lines, got 1"):
            check_twist_classes(projective_space(2), [(1, 0, 0)])

    def test_a_line_needs_one_entry_per_facet(self):
        for lines in ([(1, 0, 0), (1, 0)], [(1, 0, 0), (1, 0, 0, 0)]):
            with pytest.raises(InputError, match="one entry per"):
                check_twist_classes(projective_space(2), lines)

    def test_zero_classes_fail_pairing(self):
        rep = check_twist_classes(projective_space(2), [(0, 0, 0)] * 2)
        assert not rep["sum_is_spinc_class"]
        assert not rep["pairing_nonzero"]
        assert not rep["all_hold"]

    def test_identities_against_the_reference(self):
        # random facet lines on rings with and without a structure
        # denominator, and lines built to meet the sum and square checks
        rng = random.Random(21)
        manifolds = ([projective_space(n) for n in (2, 3)]
                     + [sphere_product(2), cp2_connected_sum()]
                     + [r.manifold for r in _delta_four_census_rings(2, 12)])
        for m in manifolds:
            ring = build_face_ring(m)
            n, size = m.dimension, m.num_facets
            p1 = _dict_square_sum(ring, unit_lines(size), [1] * size)
            for _ in range(6):
                lines = [[rng.randint(-2, 2) for _ in range(size)]
                         for _ in range(n)]
                rep = check_twist_classes(m, lines)
                assert rep["sum_is_spinc_class"] == (_line_dict(
                    ring, [sum(c) - g for *c, g in zip(*lines, m.spin_c)])
                    == {})
                assert rep["squares_sum_is_p1"] == (
                    _dict_square_sum(ring, lines, [1] * n) == p1)
                assert rep["pairing"] == _dict_integral(
                    ring, _dict_product(ring, lines))
            # lines that sum to the twist vector: the facet lines of the
            # first vertex, the last replaced by what the others leave
            v = m.polytope.vertices[0]
            lines = [list(unit_lines(size)[f - 1]) for f in v]
            lines[-1] = [g - sum(c) for *c, g in zip(*lines[:-1], m.spin_c)]
            rep = check_twist_classes(m, lines)
            assert rep["sum_is_spinc_class"]
            assert rep["pairing"] == _dict_integral(
                ring, _dict_product(ring, lines))


class TestTwistConstruction:
    def test_cp3_case1(self):
        rep = construct_twist_bundles(projective_space(3))
        assert rep["beta"] == (4,)
        assert rep["applicable_case"] == 1
        case = rep["cases"][0]
        assert case["parity_matches"]
        # the bound 0 < beta <= n+1 shows up as a negative W multiplicity
        assert case["w_multiplicities"]["w_generator_1"] == -2
        assert not case["all_nonnegative"]
        assert rep["beta_bound_holds"]

    def test_cpn_is_always_case1(self):
        # beta = n+1 has the parity of n+1, so case 1 applies for every n
        # and its pivot W multiplicity is (n+1) - n - 3 = -2
        for n in (3, 4):
            rep = construct_twist_bundles(projective_space(n))
            assert rep["beta"] == (n + 1,)
            assert rep["applicable_case"] == 1
            assert rep["cases"][0]["w_multiplicities"]["w_generator_1"] == -2
            assert rep["beta_bound_holds"]

    def test_case2_on_synthetic_ring(self):
        # case 2 needs beta = n mod 2, which no projective space provides;
        # an inflated one-generator ring with beta = n + 2 exercises it
        for n in (4, 5):
            ring = SyntheticConnectedSumRing(n, 1, (1,))
            rep = construct_twist_bundles_on_ring(ring, (n + 2,))
            assert rep["applicable_case"] == 2
            case = rep["cases"][1]
            assert case["w_multiplicities"]["w_generator_1"] == 2
            assert case["all_nonnegative"]
            assert case["checks"]["c1_v_equals_twist"]
            assert case["checks"]["p1_difference_zero"]
            assert case["checks"]["w_spin"]
            assert case["checks"]["euler_pairing_nonzero"]

    def test_case2_on_a_ring_with_denominator_four(self):
        # with one generator every line of the construction is a multiple
        # of it, so the identities hold for any facet of any ring; here the
        # products carry delta = 4, and both sides of the square check are
        # scaled by delta^2
        ring = _delta_four_census_rings(1, 12)[0]
        assert ring.structure.delta == 4
        checked = 0
        for f in range(1, ring.num_generators + 1):
            square = _dict_product(ring, facet_lines(ring, (f, f)))
            rep = construct_twist_bundles_on_ring(ring, (5,), facets=(f,))
            assert rep["applicable_case"] == 2
            checks = rep["cases"][1]["checks"]
            assert checks["c1_v_equals_twist"]
            assert checks["p1_difference_zero"]
            assert checks["w_spin"]
            assert checks["euler_pairing"] == localization_pairing(
                ring.manifold, (f, f, f))
            checked += bool(square)
        assert checked

    def test_beta_needs_one_entry_per_generator(self):
        with pytest.raises(InputError, match="beta length"):
            construct_twist_bundles_on_ring(
                SyntheticConnectedSumRing(4, 2), (5,))
        with pytest.raises(InputError, match="beta length"):
            construct_twist_bundles_on_ring(
                build_face_ring(projective_space(3)), (4, 4), facets=(4,))

    def test_case2_p1_balance_on_synthetic_rings(self):
        # per-generator balance alpha^2 + (beta - alpha) = beta must hold
        # for every dimension parity, which pins the pivot exclusion
        for n in (3, 4, 5, 6):
            ring = SyntheticConnectedSumRing(n, 2, (1, 1))
            beta = (n + (n % 2), 4)
            beta = (beta[0] if beta[0] % 2 == n % 2 else beta[0] + 1, 4)
            rep = construct_twist_bundles_on_ring(ring, beta)
            for case in rep["cases"]:
                if case.get("checks"):
                    assert case["checks"]["p1_difference_zero"]

    def test_synthetic_inflated_instances(self):
        for n in (3, 4, 5, 6):
            for sign in (1, -1):
                rep = synthetic_inflated_instance(n, sign=sign, q_order=2)
                case = rep["cases"][0]
                assert case["all_nonnegative"]
                assert case["w_lines"] == []
                series = rep["index_series"]
                assert rep["index_is_constant"]
                assert series.coeffs[0] == rep["euler_pairing"]
                # e(V) = 2 g^n, which pairs to twice the orientation sign
                assert series.coeffs[0] == 2 * sign

    def test_inflated_needs_dimension_three(self):
        with pytest.raises(InputError):
            synthetic_inflated_instance(2)


class TestRankRatioTable:
    # oracle first: the running maximum of dim/rank over the simple
    # compact groups, tabulated directly from the classical dimension
    # formulas and the five exceptional dimensions
    @staticmethod
    def brute_table(l_max):
        series = {}
        for l in range(1, l_max + 1):
            dims = {l * (l + 2)}              # A_l
            if l >= 2:
                dims.add(l * (2 * l + 1))     # B_l
            if l >= 3:
                dims.add(l * (2 * l + 1))     # C_l
            if l >= 4:
                dims.add(l * (2 * l - 1))     # D_l
            for rank, dim in [(2, 14), (4, 52), (6, 78), (7, 133), (8, 248)]:
                if rank == l:
                    dims.add(dim)
            series[l] = dims
        best = Fraction(0)
        table = {}
        for l in range(1, l_max + 1):
            for d in series[l]:
                ratio = Fraction(d, l)
                if ratio > best:
                    best = ratio
            table[l] = best
        return table

    def test_closed_form_matches_running_max(self):
        table = self.brute_table(30)
        for l in range(1, 31):
            assert max_dim_rank_ratio(l) == table[l], f"rank {l}"

    def test_known_anchor_rows(self):
        assert max_dim_rank_ratio(1) == 3
        assert max_dim_rank_ratio(2) == 7
        assert max_dim_rank_ratio(4) == 13
        assert max_dim_rank_ratio(7) == 19
        assert max_dim_rank_ratio(8) == 31
        assert max_dim_rank_ratio(14) == 31
        assert max_dim_rank_ratio(15) == 31
        assert max_dim_rank_ratio(16) == 33

    def test_self_check_report(self):
        rep = rank_ratio_table_check(30)
        assert rep["all_match"]
        assert rep["matches"] == rep["total"] == 30

    def test_rejects_bad_rank(self):
        with pytest.raises(InputError):
            max_dim_rank_ratio(0)


class TestSymmetryBounds:
    def test_e8_squared(self):
        inp = SymmetryBoundInput(["E8", "E8"])
        assert symmetry_bounds(inp) == (496, 496)

    def test_mixed_factors_with_b2(self):
        inp = SymmetryBoundInput([(1, 3), "E8"], b2=5)
        lower, upper = symmetry_bounds(inp)
        assert lower == 3 + 248
        assert upper == 31 * (1 + 8) + 5
        assert lower <= upper

    def test_bad_factor_rejected(self):
        with pytest.raises(InputError):
            SymmetryBoundInput([(2, 9)])
        with pytest.raises(InputError):
            SymmetryBoundInput(["Q5"])

    def test_classical_names(self):
        # SU(4), SO(5), Sp(3), SO(8); each series below its lowest rank
        # would repeat a smaller one and is refused
        inp = SymmetryBoundInput(["A3", "B2", "C3", "D4"])
        assert inp.factors == ((3, 15), (2, 10), (3, 21), (4, 28))
        for name in ("A0", "B1", "C2", "D3"):
            with pytest.raises(InputError, match="starts at rank"):
                SymmetryBoundInput([name])


def _free_facets(poly):
    return [f for f in range(1, poly.num_facets + 1)
            if f not in poly.vertices[0]]


def _subsets(items):
    return [set(c) for r in range(len(items) + 1)
            for c in combinations(items, r)]


def _negate_columns(rows, facets):
    return tuple(tuple(-x if j in facets else x for j, x in enumerate(row, 1))
                 for row in rows)


def _beta(poly, rows):
    """The decomposition's beta for an enumerated matrix, or None where the
    ring has no connected-sum shape."""
    manifold = polytope.QuasitoricManifold._enumerated(poly, rows)
    try:
        return facet_class_decomposition(manifold)[2]
    except RingShapeError:
        return None


class TestCensus:
    def test_single_simplex(self):
        rep = finiteness_census(3, 1, 2)
        assert rep["total_matrices"] == 8
        assert rep["pattern_matches"] == 8
        assert rep["beta_vectors"] == [(4,)]
        assert rep["violations"] == []
        assert rep["all_within_bound"]

    def test_two_fold_sum(self):
        for bound, total, matches in ((1, 88, 16), (2, 328, 64)):
            rep = finiteness_census(3, 2, bound)
            assert rep["total_matrices"] == total
            assert rep["pattern_matches"] == matches
            assert rep["beta_vectors"] == [(4, 4)]
            assert rep["all_within_bound"]

    def test_census_builds_no_structure(self, monkeypatch):
        def refuse(self, ring):
            raise AssertionError("the census built a GradedStructure")

        monkeypatch.setattr(cohomology.GradedStructure, "__init__", refuse)
        rep = finiteness_census(3, 2, 1)
        assert (rep["total_matrices"], rep["pattern_matches"]) == (88, 16)
        assert rep["beta_vectors"] == [(4, 4)]

    def test_each_vertex_minor_is_checked_once(self, monkeypatch):
        # the census reads its manifolds from its own enumeration of sign-
        # orbit representatives and runs no int_det outside it: no
        # constructor re-check and no second enumeration
        calls = []
        real = polytope.int_det
        monkeypatch.setattr(polytope, "int_det",
                            lambda mat: calls.append(1) or real(mat))
        poly = _iterated_connected_sum(3, 2)
        assert len(list(polytope.sign_orbit_representatives(poly, 1))) == 22
        alone = len(calls)
        assert alone > 0
        assert finiteness_census(3, 2, 1)["total_matrices"] == 88
        assert len(calls) == 2 * alone

    def test_sign_orbits_share_their_decomposition(self):
        # negating free columns only changes the omniorientation: every
        # flip of an enumerated matrix is enumerated too, and has the same
        # beta or the same RingShapeError, checked without the census
        poly = _iterated_connected_sum(3, 2)
        free = _free_facets(poly)
        for bound in (1, 2):
            results = {rows: _beta(poly, rows) for rows in
                       polytope.enumerate_characteristic_matrices(poly, bound)}
            for rows, beta in results.items():
                for flip in _subsets(free):
                    assert results[_negate_columns(rows, flip)] == beta

    def test_one_decomposition_per_sign_orbit(self, monkeypatch):
        calls = []
        real = theorems.facet_class_decomposition
        monkeypatch.setattr(theorems, "facet_class_decomposition",
                            lambda manifold: calls.append(1) or real(manifold))
        rep = finiteness_census(3, 2, 1)
        assert (rep["total_matrices"], rep["pattern_matches"]) == (88, 16)
        assert len(calls) == 88 // 2 ** 2 == 22

    def test_violations_list_every_member_of_an_orbit(self, monkeypatch,
                                                      capsys):
        # inflate beta on the first two sign orbits that decompose; their
        # members interleave in enumeration order, and every one of them
        # must be reported in that order
        poly = _iterated_connected_sum(3, 2)
        free = _free_facets(poly)
        enumerated = list(polytope.enumerate_characteristic_matrices(poly, 1))
        inflated = set()
        for rows in enumerated:
            if (len(inflated) < 2 * 2 ** len(free) and rows not in inflated
                    and _beta(poly, rows) is not None):
                inflated.update(_negate_columns(rows, flip)
                                for flip in _subsets(free))
        real = theorems.facet_class_decomposition

        def inflate(manifold):
            facets, alpha, beta = real(manifold)
            if manifold.char_matrix in inflated:
                beta = [9] + list(beta[1:])
            return facets, alpha, beta

        monkeypatch.setattr(theorems, "facet_class_decomposition", inflate)
        rep = finiteness_census(3, 2, 1)
        expected = [rows for rows in enumerated if rows in inflated]
        assert len(expected) == 8
        assert [v["matrix"] for v in rep["violations"]] == expected
        assert not rep["all_within_bound"]
        assert main(["census", "--n", "3", "--k", "2", "--bound", "1"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "FAIL"

    def test_five_dimensional_two_fold_sum(self):
        rep = finiteness_census(5, 2, 1)
        assert rep["total_matrices"] == 2656
        assert rep["pattern_matches"] == 64
        assert rep["beta_vectors"] == [(6, 6)]
        assert rep["all_within_bound"]

    def test_ten_dimensional_single_simplex(self):
        # the census reads degrees 0-2 of rings whose top degree is 10
        rep = finiteness_census(10, 1, 1)
        assert rep["total_matrices"] == 1024
        assert rep["pattern_matches"] == 1024
        assert rep["beta_vectors"] == [(11,)]
        assert rep["all_within_bound"]

    def test_dimension_four(self):
        for k, total, matches, betas in ((1, 16, 16, [(5,)]),
                                         (2, 464, 32, [(5, 5)])):
            rep = finiteness_census(4, k, 1)
            assert rep["total_matrices"] == total
            assert rep["pattern_matches"] == matches
            assert rep["beta_vectors"] == betas
            assert rep["all_within_bound"]

    def test_sizes_admitted_by_the_work_budget(self):
        for size, total, matches, betas in (((3, 2, 3), 536, 64, [(4, 4)]),
                                            ((4, 2, 2), 2512, 256, [(5, 5)])):
            rep = finiteness_census(*size)
            assert rep["total_matrices"] == total
            assert rep["pattern_matches"] == matches
            assert rep["beta_vectors"] == betas
            assert rep["all_within_bound"]

    def test_work_budget_refuses_before_any_ring(self, monkeypatch):
        # (5, 3, 1) has 12672 sign orbits of 14 vertices and 8 facets each,
        # far past the budget: it is refused while still enumerating
        calls = []
        monkeypatch.setattr(theorems, "facet_class_decomposition",
                            lambda manifold: calls.append(1))
        with pytest.raises(InputError, match="work budget"):
            finiteness_census(5, 3, 1)
        assert calls == []

    def test_work_budget_is_charged_as_the_census_goes(self, monkeypatch):
        # (3, 2, 1): 2 * 3^3 candidate columns filtered, 60 backtracking
        # nodes and 22 rings of 6 vertices and 5 facets are 774 units
        monkeypatch.setattr(theorems, "MAX_CENSUS_WORK", 774)
        assert finiteness_census(3, 2, 1)["total_matrices"] == 88
        monkeypatch.setattr(theorems, "MAX_CENSUS_WORK", 773)
        with pytest.raises(InputError, match="work budget 773"):
            finiteness_census(3, 2, 1)

    def test_dimension_limit(self):
        with pytest.raises(InputError, match="over the limit 12"):
            finiteness_census(13, 1, 1)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            finiteness_census(2, 1, 1)
        with pytest.raises(PreconditionError):
            finiteness_census(3, 3, 1)
