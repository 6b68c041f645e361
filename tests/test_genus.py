"""Localization engine, cohomological route, classical genera.

The strongest check in the file is route agreement: the exact-division
localization engine and the face-ring integration share only the
combinatorial input, the ``exactalg`` arithmetic types and primitives and
the theta-row recurrence ``_term_series``, each writing out its own index
formula, so exact equality of their q-series is strong evidence both are
right.  The recurrence is checked apart from both: against the full
recurrence below, against dense products of one-binomial tables through
the universal tables, and by localization itself at held-out points.
Individual values are frozen from independent hand computations done
inline.
"""

import hashlib
import math
import random
import re
import time
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations_with_replacement, islice, product
from operator import add, sub
from pathlib import Path

import pytest

from quasigenus.cohomology import SyntheticConnectedSumRing, build_face_ring
from quasigenus import genus
from quasigenus.errors import (DegenerateCircleError, InputError, ParityError,
                               PropertyViolationError, SpinObstructionError)
from quasigenus.exactalg import HalfLaurent, QSeries, binomial_quotient
from quasigenus.genus import (BundleSpec, CircleSubgroup, choose_generic_circles,
                              cohomological_elliptic_genus, cohomological_index,
                              cohomological_witten_genus, elliptic_genus,
                              equivariant_index, equivariant_witten_genus,
                              euler_characteristic, index,
                              localization_integral, signature, spin_gamma,
                              spin_obstruction, witten_genus,
                              equivariant_elliptic_genus, _VertexTerm,
                              _class_table, _integer_tables, _universal_tables,
                              cohomological_index_on_ring)
from quasigenus.linalg import nullspace
from quasigenus.manifest import parse_manifest
from quasigenus.models import (cp2_connected_sum, projective_space,
                               sphere_product, sphere_product_spin)
from quasigenus.polytope import (QuasitoricManifold, SimplePolytope, cube,
                                 polygon, simplex,
                                 enumerate_characteristic_matrices)
from quasigenus.theorems import (_iterated_connected_sum, construct_twist_bundles,
                                 synthetic_inflated_instance)

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def q0_local_term(t, c, w):
    """Hand formula for one vertex's raw q^0 term with a single tangent
    weight: t^((c+w)/2) / (t^w - 1)."""
    half = c + w
    assert half % 2 == 0
    return Fraction(t) ** (half // 2) / (Fraction(t) ** w - 1)


def q1_local_term(t, c, w):
    """q^1 coefficient by hand: the prefactor times the first-order term of
    (1-q)^2 / ((1-t^w q)(1-t^-w q)), which is t^w + t^-w - 2."""
    tw = Fraction(t) ** w
    return q0_local_term(t, c, w) * (tw + 1 / tw - 2)


def _oriented_signs(m):
    """Each fixed point's localization sign by vertex: eps(v) times the
    determinant of its characteristic minor."""
    eps = m.orientation_signs()
    return {d.vertex: eps[d.vertex] * d.sign for d in m.fixed_points()}


def _unit_lines(m):
    return [tuple(int(j == f) for j in range(m)) for f in range(m)]


def _facet_lines(manifold, facets):
    """The unit line of each facet label, repeats included."""
    lines = _unit_lines(manifold.num_facets)
    return [lines[f - 1] for f in facets]


def _held_out_value(term, parity, tau, q_order):
    """A fixed point's contribution at an integer t = tau from the held-out
    check's integer prefactor and theta rows, as Fractions."""
    num, den = genus._prefactor_at(term, parity, tau)
    rows = genus._theta_at(term, tau, q_order)
    return [Fraction(num * c, den * tau ** (j * term.top))
            for j, c in enumerate(rows)]


class TestFixedPointContribution:
    def test_bounding_sphere_cancellation(self):
        # both vertices carry c = 1, w = 1 and opposite orientation signs,
        # so the raw terms are equal and the signed sum cancels: A-hat(S2)=0
        m = sphere_product_spin(1)
        terms = genus._vertex_terms(m, (1,), (), (), m.spin_c, False)
        signs = [t.sigma for t in terms]
        assert signs == [_oriented_signs(m)[t.vertex] for t in terms]
        assert sorted(signs) == [-1, 1]
        for tau in (2, 3):
            signed = [_held_out_value(t, 0, tau, 1) for t in terms]
            raw = [[x * s for x in values] for values, s in zip(signed, signs)]
            assert raw[0] == raw[1] == [q0_local_term(tau, 1, 1),
                                        q1_local_term(tau, 1, 1)]
            assert [a + b for a, b in zip(*signed)] == [0, 0]
        assert [q0_local_term(2, 1, 1), q1_local_term(2, 1, 1)] == [2, 1]

    def test_toric_sphere_todd(self):
        # vertices carry (c, w) = (1, 1) and (-1, -1); the q^0 sum is the
        # Todd genus of CP^1, namely 1, at every integer point
        m = projective_space(1)
        terms = genus._vertex_terms(m, (1,), (), (), m.spin_c, False)
        assert sorted((t.c, t.tangent) for t in terms) == [(-1, (-1,)),
                                                           (1, (1,))]
        for tau in (2, 3):
            assert sum(_held_out_value(t, 0, tau, 0)[0] for t in terms) == 1
        by_hand = q0_local_term(2, 1, 1) + q0_local_term(2, -1, -1)
        assert by_hand == 1

    def test_odd_parity_rejected(self):
        # a fixed point whose half-integer exponent is odd among even ones
        # has no common t^(1/2) shift with them
        even = _VertexTerm((1,), 1, (1,), 1, (), ())
        odd = _VertexTerm((2,), -1, (-1,), 1, (), (1,))
        assert (even.halfexp, odd.halfexp) == (2, -1)
        assert genus._common_parity([even, even]) == 0
        assert genus._common_parity([odd]) == 1
        with pytest.raises(ParityError, match="disagree"):
            genus._common_parity([even, odd])


class TestRouteAgreement:
    CASES = [
        ("cp1", projective_space(1), BundleSpec.empty()),
        ("cp2", projective_space(2), BundleSpec.empty()),
        ("cp3", projective_space(3), BundleSpec.empty()),
        ("cp3 twisted", projective_space(3),
         BundleSpec(((0, 0, 0, 2),), ((0, 0, 0, 2),))),
        ("s2xs2 toric", sphere_product(2), BundleSpec.empty()),
        ("s2 bounding", sphere_product_spin(1), BundleSpec.empty()),
        ("cp2 # cp2", cp2_connected_sum(), BundleSpec.empty()),
        ("cp2 w-twist", projective_space(2), BundleSpec((), ((1, 1, 0),))),
    ]

    @pytest.mark.parametrize("name,manifold,bundles",
                             [(c[0], c[1], c[2]) for c in CASES])
    def test_localization_equals_ring_integration(self, name, manifold, bundles):
        a = index(manifold, bundles, 2)
        b = cohomological_index(manifold, bundles, 2)
        assert a == b

    def test_frozen_values(self):
        assert index(projective_space(2), None, 2) == QSeries([1, 3, 9], 2)
        assert index(projective_space(3),
                     BundleSpec(((0, 0, 0, 2),), ((0, 0, 0, 2),)),
                     1) == QSeries([4, 16], 1)
        assert index(sphere_product(2), None, 1) == QSeries([1, 0], 1)
        assert index(cp2_connected_sum(), None, 1) == QSeries([0, -6], 1)
        assert index(sphere_product_spin(1), None, 3) == QSeries([0] * 4, 3)


def _exact_ints(series):
    """Whether every coefficient of a q-series is an int, not a Fraction
    that happens to be integral."""
    return all(type(c) is int for c in series.coeffs)


class TestExactValues:
    """Every integral value is an int, not an integral Fraction, so equal
    results of the two routes also print alike."""

    MANIFOLDS = ([(path.stem,
                   parse_manifest(path.read_text()).build_manifold())
                  for path in sorted(MANIFESTS.glob("*.ini"))]
                 + [(f"CP{n}", projective_space(n)) for n in range(1, 5)]
                 + [(f"S2^{n}", sphere_product(n)) for n in range(1, 4)]
                 + [("CP2#CP2", cp2_connected_sum())])

    @pytest.mark.parametrize("manifold", [m for _, m in MANIFOLDS],
                             ids=[name for name, _ in MANIFOLDS])
    def test_both_routes_give_ints(self, manifold):
        a = index(manifold, None, 2)
        b = cohomological_index(manifold, None, 2)
        assert a == b and _exact_ints(a) and _exact_ints(b)
        assert repr(a) == repr(b)

    def test_witten_and_elliptic_genera_give_ints(self):
        m = sphere_product_spin(2)
        for local, ring in ((witten_genus, cohomological_witten_genus),
                            (elliptic_genus, cohomological_elliptic_genus)):
            a, b = local(m, 2), ring(m, 2)
            assert a == b and _exact_ints(a) and _exact_ints(b)
            assert repr(a) == repr(b)

    def test_synthetic_index_series_gives_ints(self):
        for n in range(3, 7):
            series = synthetic_inflated_instance(n)["index_series"]
            assert _exact_ints(series)
            assert repr(series) == "QSeries([2, 0, 0])"

    def test_localization_integral_gives_ints(self):
        for m in (projective_space(2), sphere_product(2), cp2_connected_sum()):
            for v in m.polytope.vertices:
                assert type(localization_integral(m, v)) is int
        assert repr(localization_integral(projective_space(2), (1, 1))) == "1"

    def test_nullspace_gives_ints_where_integral(self):
        basis = nullspace([{0: 2, 1: 1}], 3)
        assert basis == [[Fraction(-1, 2), 1, 0], [0, 0, 1]]
        assert [[type(x) for x in v] for v in basis] == [[Fraction, int, int],
                                                         [int, int, int]]
        assert repr(nullspace([{0: 2, 1: 1}, {0: 1, 2: 3}], 3)) == \
            "[[-3, 6, 1]]"


class TestClassicalInvariants:
    def test_euler_characteristic_is_vertex_count(self):
        for n in (1, 2, 3, 4):
            m = projective_space(n)
            assert euler_characteristic(m) == n + 1
        assert euler_characteristic(sphere_product(3)) == 8

    def test_euler_via_top_chern_pairing(self):
        # the top Chern class of the stable tangent bundle is the sum over
        # vertices of the facet products; each pairs to the vertex sign
        for m in (projective_space(2), projective_space(3)):
            ring = build_face_ring(m)
            total = sum(ring.integral(_facet_lines(m, v))
                        for v in m.polytope.vertices)
            assert total == euler_characteristic(m)

    def test_localization_integral_vertex_products(self):
        for m in (projective_space(2), sphere_product(2), cp2_connected_sum()):
            ring = build_face_ring(m)
            for v in m.polytope.vertices:
                got = localization_integral(m, v)
                assert got == _oriented_signs(m)[v]
                assert ring.integral(_facet_lines(m, v)) == got

    def test_localization_integral_needs_n_labels(self):
        with pytest.raises(InputError):
            localization_integral(projective_space(2), (1,))

    def test_localization_integral_label_range(self):
        for bad in (0, 4):
            with pytest.raises(InputError):
                localization_integral(projective_space(2), (1, bad))

    def test_signature_values(self):
        assert signature(projective_space(2)) == 1
        assert signature(sphere_product(2)) == 0
        assert signature(projective_space(3)) == 0

    def test_signature_matches_l_genus_in_dim_four(self):
        # independent oracle: sigma = <p1>/3 for closed 4-manifolds
        for m in (projective_space(2), sphere_product(2), cp2_connected_sum()):
            ring = build_face_ring(m)
            p1 = sum(ring.integral([line, line])
                     for line in _unit_lines(m.num_facets))
            assert signature(m) == Fraction(p1, 3)

    def test_elliptic_q0_is_signature(self):
        got = elliptic_genus(sphere_product_spin(2), 1)
        assert got.coeffs[0] == signature(sphere_product(2)) == 0


class TestSpinStructure:
    def test_obstruction_detection(self):
        assert spin_obstruction(projective_space(2)) == (1, 1, 1)
        assert spin_obstruction(projective_space(3)) is None
        assert spin_obstruction(sphere_product_spin(2)) is None
        # the toric model of S^2 x S^2 is also spin: -I = I mod 2
        assert spin_obstruction(sphere_product(2)) is None
        # the connected sum has an odd intersection form, so it is not
        assert spin_obstruction(cp2_connected_sum()) == (1, 1, 1, 1)

    def test_spin_gamma_kills_twist_class(self):
        for m in (projective_space(1), projective_space(3),
                  sphere_product_spin(1), sphere_product_spin(2)):
            gamma, eta = spin_gamma(m)
            assert all(g % 2 == 1 for g in gamma)
            ring = build_face_ring(m)
            assert not any(ring.line_coordinates(gamma))

    def test_witten_rejects_non_spin(self):
        with pytest.raises(SpinObstructionError):
            witten_genus(projective_space(2), 1)


class TestWittenGenus:
    def test_sphere_vanishing(self):
        got = witten_genus(sphere_product_spin(1), 3)
        assert got == QSeries([0, 0, 0, 0], 3)

    def test_sphere_products_vanish(self):
        for n in (1, 2):
            got = witten_genus(sphere_product_spin(n), 2)
            assert all(c == 0 for c in got.coeffs)

    def ahat_cpn_oracle(self, n):
        """Residue formula: A-hat(CP^n) is the x^n coefficient of
        ((x/2)/sinh(x/2))^(n+1), computed from the raw Taylor series."""
        cap = n + 2
        sinh_half = [Fraction(0)] * (cap + 1)
        fact = 1
        for i in range(cap + 1):
            if i:
                fact *= i
            if i % 2 == 1:
                sinh_half[i] = Fraction(1, 2 ** i) / fact
        norm = sinh_half[1:] + [Fraction(0)]     # sinh(x/2)/x ... wait: /(x/2)
        norm = [2 * c for c in norm]             # sinh(x/2)/(x/2)
        inv = [Fraction(0)] * (cap + 1)
        inv[0] = 1 / norm[0]
        for k in range(1, cap + 1):
            inv[k] = -inv[0] * sum(norm[i] * inv[k - i] for i in range(1, k + 1))
        power = [Fraction(1)] + [Fraction(0)] * cap
        for _ in range(n + 1):
            power = [sum(power[i] * inv[j - i] for i in range(j + 1))
                     for j in range(cap + 1)]
        return power[n]

    def test_cp3_witten_q0_is_ahat(self):
        assert self.ahat_cpn_oracle(3) == 0
        assert self.ahat_cpn_oracle(1) == 0
        got = witten_genus(projective_space(3), 1)
        assert got.coeffs[0] == 0
        both = cohomological_witten_genus(projective_space(3), 1)
        assert got == both

    def test_witten_routes_agree(self):
        for m in (sphere_product_spin(1), sphere_product_spin(2),
                  projective_space(3)):
            assert witten_genus(m, 2) == cohomological_witten_genus(m, 2)


class TestEllipticGenus:
    def test_routes_agree(self):
        for m in (sphere_product_spin(1), sphere_product_spin(2),
                  projective_space(3)):
            assert elliptic_genus(m, 2) == cohomological_elliptic_genus(m, 2)

    def test_elliptic_rejects_non_spin(self):
        with pytest.raises(SpinObstructionError):
            elliptic_genus(cp2_connected_sum(), 1)


class TestZeroTwist:
    """Witten and elliptic twist by zero.  The spin vector gamma = eta
    Lambda of ``spin_gamma`` restricts to <eta, xi> at every fixed point,
    so twisting by gamma and dividing by t^(<eta, xi>/2) is twisting by
    zero; the reference here does the former."""

    @staticmethod
    def cases():
        """Spin manifolds, each with its spin vector, eta and circles."""
        parsed = parse_manifest((MANIFESTS / "s2xs2_spin.ini").read_text())
        for m in [sphere_product_spin(n) for n in (1, 2, 3)] + [
                parsed.build_manifold(), projective_space(3)]:
            gamma, eta = spin_gamma(m)
            for xi in choose_generic_circles(m, count=4):
                yield m, gamma, xi.xi, sum(map(math.prod, zip(eta, xi.xi)))

    @staticmethod
    def shifted(m, xi, twist, q_order, shift):
        """The characters of ``twist`` times t^(-shift/2), and their
        parity."""
        polys, parity = genus._equivariant_series(m, xi, twist, q_order, {})
        return ([HalfLaurent.from_integer_poly(p, parity).shift(-shift)
                 for p in polys], (parity - shift) % 2)

    def test_gamma_restricts_to_eta_at_every_fixed_point(self):
        odd = 0
        for m, gamma, xi, shift in self.cases():
            terms = genus._vertex_terms(m, xi, (), (), gamma, False)
            assert {t.c for t in terms} == {shift}
            odd += shift % 2
        assert odd

    def test_genera_equal_the_shifted_gamma_twist(self):
        # the parity is compared too: these genera vanish, and on a circle
        # with <eta, xi> odd only the parity tells a shift from none
        for m, gamma, xi, shift in self.cases():
            for q_order in (0, 2):
                for compute, tangent_as_w in (
                        (equivariant_witten_genus, False),
                        (equivariant_elliptic_genus, True)):
                    eq = compute(m, xi, q_order)
                    assert (eq.series.coeffs, eq.parity) == self.shifted(
                        m, xi, ((), (), gamma, tangent_as_w), q_order, shift)

    def test_with_v_lines_the_characters_agree_too(self):
        # V lines make the characters nonzero; twisting by zero still
        # equals twisting by gamma with the shift divided out
        nonzero = 0
        for m, gamma, xi, shift in self.cases():
            lines = _unit_lines(m.num_facets)[:2]
            zero = (0,) * m.num_facets
            for tangent_as_w in (False, True):
                polys, parity = genus._equivariant_series(
                    m, xi, (lines, (), zero, tangent_as_w), 1, {})
                got = [HalfLaurent.from_integer_poly(p, parity)
                       for p in polys]
                assert (got, parity) == self.shifted(
                    m, xi, (lines, (), gamma, tangent_as_w), 1, shift)
                nonzero += any(got)
        assert nonzero


class TestEquivariant:
    def test_bounding_sphere_rigid_zero(self):
        eq = equivariant_index(sphere_product_spin(1), (1,), None, 3)
        assert eq.is_identically_zero()
        for d in range(4):
            assert not eq.q_coefficient(d)

    def test_cp2_character_value_at_one(self):
        eq = equivariant_index(projective_space(2), (1, 2), None, 0)
        assert not eq.is_identically_zero()
        char = eq.q_coefficient(0)
        assert char.value_at_one() == 1

    def test_characters_and_indices_hold_ints(self):
        # localization divides exactly in Z[t]: every character
        # coefficient, value at t = 1 and non-equivariant index is an int
        parsed = parse_manifest((MANIFESTS / "cp3_twisted.ini").read_text())
        manifold, bundles = parsed.build_manifold(), parsed.bundles()
        eq = equivariant_index(manifold, (1, 2, 5), bundles, 3)
        assert any(c.coeffs for c in eq.series.coeffs)
        assert {type(x) for c in eq.series.coeffs
                for x in c.coeffs.values()} == {int}
        assert {type(x) for x in eq.value_at_one().coeffs} == {int}
        assert {type(x) for x in index(manifold, bundles, 3).coeffs} == {int}
        assert type(signature(projective_space(2))) is int

    def test_cp2_character_against_direct_sum(self):
        # independent oracle: the three-term localization sum at t = u^2
        # against the engine's character at t^(1/2) = u; the twist
        # (3, -1, 1) makes the character depend on t
        m = projective_space(2)
        xi, gamma = (1, 2), (3, -1, 1)
        m = QuasitoricManifold(m.polytope, m.char_matrix, gamma)
        char = equivariant_index(m, xi, None, 0).q_coefficient(0)
        values = set()
        for u in (Fraction(2), Fraction(3), Fraction(7, 2)):
            direct = Fraction(0)
            for d in m.fixed_points():
                w = [sum(a * b for a, b in zip(row, xi)) for row in d.weights]
                c = sum(gamma[f - 1] * w[k] for k, f in enumerate(d.vertex))
                term = u ** (c + sum(w))
                for wk in w:
                    term /= u ** (2 * wk) - 1
                direct += _oriented_signs(m)[d.vertex] * term
            assert _evaluate(char, u ** 2) == direct
            values.add(direct)
        assert len(values) == 3

    def test_equivariant_specializes_to_index(self):
        m = projective_space(2)
        plain = index(m, None, 2)
        eq = equivariant_index(m, (1, 2), None, 2)
        for d in range(3):
            assert eq.q_coefficient(d).value_at_one() == plain.coeffs[d]

    def test_degenerate_circle_rejected(self):
        with pytest.raises(DegenerateCircleError):
            equivariant_index(sphere_product(2), (1, 0), None, 0)

    def test_equivariant_witten_sphere_powers(self):
        # diagonal circles on spin sphere products: rigidity forces zero
        for n in (1, 2):
            m = sphere_product_spin(n)
            eq = equivariant_witten_genus(m, (1,) * n, 2)
            assert eq.is_identically_zero()


@pytest.mark.parametrize("build, bad", [
    (lambda: equivariant_index(projective_space(2), (1.9, 2), None, 0), 1.9),
    (lambda: CircleSubgroup((1, Fraction(1, 2))), Fraction(1, 2)),
    (lambda: BundleSpec([[0.7, 0, 2.2]]), 0.7),
    (lambda: BundleSpec((), [[0, "1", 0]]), "1"),
    (lambda: QuasitoricManifold(simplex(2), ((1, 0, -1), (0, 1, -1)),
                                [1, 1, 1.5]), 1.5),
    (lambda: QuasitoricManifold(simplex(2), ((1, 0, -1.0), (0, 1, -1)),
                                [1, 1, 1]), -1.0),
    (lambda: SimplePolytope(2, 3.0, [(1, 2), (1, 3), (2, 3)]), 3.0),
    (lambda: SimplePolytope(2, 3, [(1, 2), (1, 3), (2, 3.0)]), 3.0)],
    ids=["index-circle", "circle", "v-line", "w-line", "spin-c", "matrix",
         "facets", "vertex"])
def test_entries_that_are_not_integers_are_refused(build, bad):
    # floats, Fractions and strings are read by operator.index, never
    # truncated or parsed
    with pytest.raises(InputError, match=re.escape(f"got {bad!r}")):
        build()


class TestCircleSelection:
    def test_generic_circles_are_usable(self):
        for m in (projective_space(3), sphere_product(2), cp2_connected_sum()):
            circles = choose_generic_circles(m, None, count=2)
            assert len(circles) == 2
            assert circles[0].xi != circles[1].xi
            for c in circles:
                assert isinstance(c, CircleSubgroup)
                for d in m.fixed_points():
                    for w in d.weights:
                        assert sum(a * b for a, b in zip(w, c.xi)) != 0

    def test_short_bundle_line_rejected(self):
        with pytest.raises(InputError):
            choose_generic_circles(projective_space(2), BundleSpec(((1,),)))

    def test_dimension_one_special_case(self):
        circles = choose_generic_circles(projective_space(1), None, count=2)
        assert len(circles) == 2

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_is_refused(self, n, count):
        with pytest.raises(InputError, match=f"got count {count}"):
            choose_generic_circles(projective_space(n), None, count=count)

    def test_shells_match_full_boxes(self):
        parsed = parse_manifest((MANIFESTS / "cp3_twisted.ini").read_text())
        # the V lines below change which circles are cheapest
        cases = ([(projective_space(n), None) for n in range(1, 6)]
                 + [(sphere_product(n), None) for n in range(1, 5)]
                 + [(cp2_connected_sum(), None),
                    (parsed.build_manifold(), parsed.bundles()),
                    (projective_space(3), BundleSpec([[-2, 1, 1, -2]])),
                    (sphere_product(3), BundleSpec([[-1, 1, 0, 2, 1, -3]])),
                    # here a multiple of the cheapest circle undercuts the
                    # second primitive one
                    (projective_space(2), BundleSpec([[2, 2, -4]])),
                    (sphere_product(2), BundleSpec([[4, -4, -4, 4]]))])
        for m, bundles in cases:
            for count in (2, 3):
                got = choose_generic_circles(m, bundles, count=count)
                assert [c.xi for c in got] == _circles_by_full_boxes(
                    m, bundles, count)


    def test_search_is_bounded_before_it_starts(self):
        # CP^6 and CP^7 fit the node budget and agree with the face ring;
        # CP^12 passes it, and is refused by the node count, not by time
        m = projective_space(6)
        m.fixed_points()
        start = time.perf_counter()
        circles = choose_generic_circles(m)
        assert time.perf_counter() - start < 0.05
        assert [max(map(abs, c.xi)) for c in circles] == [3, 3]
        m = projective_space(7)
        start = time.perf_counter()
        got = index(m, None, 4)
        assert time.perf_counter() - start < 1
        assert got == cohomological_index(m, None, 4)
        assert got.coeffs == [1, 48, 504, 2752, 10248]
        start = time.perf_counter()
        with pytest.raises(InputError, match="circle search in dimension 12 "
                           f"passed {genus.MAX_CIRCLE_NODES} search nodes"):
            choose_generic_circles(projective_space(12))
        assert time.perf_counter() - start < 5

    def test_node_budget_is_deterministic(self, monkeypatch):
        # CP^7 needs a fixed number of nodes: one fewer is refused
        m = projective_space(7)
        monkeypatch.setattr(genus, "MAX_CIRCLE_NODES", 33492)
        assert len(choose_generic_circles(m)) == 2
        monkeypatch.setattr(genus, "MAX_CIRCLE_NODES", 33491)
        with pytest.raises(InputError, match="passed 33491 search nodes"):
            choose_generic_circles(m)


def _circles_by_full_boxes(manifold, bundles, count):
    """Generic circles chosen from the whole box [-b, b]^n, b growing until
    it holds count of them, ordered by weight mass, then by vector."""
    n = manifold.dimension
    if n == 1:
        return [(k,) for k in range(1, count + 1)]
    lines = [] if bundles is None else bundles.v_lines + bundles.w_lines

    def cost(xi):
        total = 0
        for fp in manifold.fixed_points():
            tangent = [sum(a * b for a, b in zip(w, xi)) for w in fp.weights]
            if 0 in tangent:
                return None
            total += sum(map(abs, tangent)) + sum(
                abs(sum(line[f - 1] * tangent[k]
                        for k, f in enumerate(fp.vertex))) for line in lines)
        return total

    bound, found = 0, []
    while len(found) < count:
        bound += 1
        box = (xi for xi in product(range(-bound, bound + 1), repeat=n)
               if math.gcd(*xi) == 1 and next(x for x in xi if x) > 0)
        found = sorted((c, xi) for xi in box if (c := cost(xi)) is not None)
    return [xi for _, xi in found[:count]]


class TestMultiplicativity:
    def build_product(self, m1, m2, bundles1, bundles2):
        poly = None
        from quasigenus.polytope import polytope_product
        poly = polytope_product(m1.polytope, m2.polytope)
        n1, m1f = m1.dimension, m1.num_facets
        n2, m2f = m2.dimension, m2.num_facets
        rows = []
        for r in m1.char_matrix:
            rows.append(tuple(r) + (0,) * m2f)
        for r in m2.char_matrix:
            rows.append((0,) * m1f + tuple(r))
        gamma = tuple(m1.spin_c) + tuple(m2.spin_c)
        prod = QuasitoricManifold(poly, rows, gamma)
        v_lines = tuple(tuple(l) + (0,) * m2f for l in bundles1.v_lines) + \
            tuple((0,) * m1f + tuple(l) for l in bundles2.v_lines)
        w_lines = tuple(tuple(l) + (0,) * m2f for l in bundles1.w_lines) + \
            tuple((0,) * m1f + tuple(l) for l in bundles2.w_lines)
        return prod, BundleSpec(v_lines, w_lines)

    def test_index_of_product_is_product_of_indices(self):
        m1 = projective_space(1)
        spec1 = BundleSpec.empty()
        m2 = projective_space(1)
        spec2 = BundleSpec(((0, 2),), ())
        prod, spec = self.build_product(m1, m2, spec1, spec2)
        order = 2
        a = index(m1, spec1, order)
        b = index(m2, spec2, order)
        together = index(prod, spec, order)
        assert together == a * b
        assert together == cohomological_index(prod, spec, order)


# -- reference arithmetic ---------------------------------------------------
# Series in q and x as tables: row j lists the x^i coefficients of q^j.
# Classes as {basis token: coefficient} dicts, every product through the
# ring's mul_basis.

def _exp(s, cap):
    """e^(s x) up to x^cap, from its Taylor coefficients."""
    return [Fraction(s) ** i / _fact(i) for i in range(cap + 1)]


def _table(rows, cap, q_order):
    """rows padded with zeros to q_order + 1 rows of cap + 1 entries."""
    rows = [[*row, *[0] * (cap + 1)][:cap + 1] for row in rows]
    return rows + [[0] * (cap + 1) for _ in range(q_order + 1 - len(rows))]


def _table_mul(a, b):
    """The product of two tables of one shape, by the defining double sum."""
    return [[sum(a[j1][i1] * b[j - j1][i - i1]
                 for j1 in range(j + 1) for i1 in range(i + 1))
             for i in range(len(a[0]))] for j in range(len(a))]


def _table_inverse(a):
    """The inverse of a table with a nonzero constant term, entry by entry
    from the defining identity a * b = 1."""
    b = [[0] * len(a[0]) for _ in a]
    for j in range(len(a)):
        for i in range(len(a[0])):
            rest = sum(a[j1][i1] * b[j - j1][i - i1]
                       for j1 in range(j + 1) for i1 in range(i + 1)
                       if j1 or i1)
            b[j][i] = (int(i == j == 0) - rest) / Fraction(a[0][0])
    return b


def _reference_tables(cap, q_order):
    """The universal tables, e^(x/2) and the V-line table with the Euler
    root divided out of its prefactor,
    (e^(x/2)-e^(-x/2))/x * prod_k (1-e^x q^k)(1-e^-x q^k) / (1-q^k)^2,
    from Taylor coefficients and dense products of one-binomial tables."""
    def binomial(c, s, k):
        # 1 + c e^(s x) q^k
        rows = [[1]] + [[]] * (k - 1) + [[c * x for x in _exp(s, cap)]]
        return _table(rows[:q_order + 1], cap, q_order)

    def multiply(tables):
        out = _table([[1]], cap, q_order)
        for table in tables:
            out = _table_mul(out, table)
        return out

    def row(coefficients):
        return _table([coefficients], cap, q_order)
    ks = range(1, q_order + 1)
    pairs = {c: multiply(binomial(c, s, k) for s in (1, -1) for k in ks)
             for c in (1, -1)}
    squares = {c: multiply(binomial(c, 0, k) for k in ks for _ in range(2))
               for c in (1, -1)}
    sinh_norm = row([0 if i % 2 else Fraction(1, 2) ** i / _fact(i + 1)
                     for i in range(cap + 1)])
    return {
        "tangent": multiply([_table_inverse(sinh_norm), squares[-1],
                             _table_inverse(pairs[-1])]),
        "vline": multiply([row(map(sub, _exp(0, cap), _exp(-1, cap))),
                           pairs[-1], _table_inverse(squares[-1])]),
        "wline": multiply([row(map(add, _exp(Fraction(1, 2), cap),
                                   _exp(Fraction(-1, 2), cap))),
                           pairs[1], _table_inverse(squares[1])]),
        "twist": [_exp(Fraction(1, 2), cap)],
        "vline_reduced": multiply([sinh_norm, pairs[-1],
                                   _table_inverse(squares[-1])]),
    }


def _dict_ring(ring):
    """Token-dict arithmetic over ring: (one, mul), each basis product
    through ``mul_basis`` and computed once."""
    basis_product = cache(ring.mul_basis)

    def mul(a, b):
        out = {}
        for t1, c1 in a.items():
            for t2, c2 in b.items():
                for t, c in basis_product(t1, t2).items():
                    out[t] = out.get(t, 0) + c1 * c2 * c
        return {t: c for t, c in out.items() if c}
    return {ring.basis(0)[0]: 1}, mul


def _line_dict(ring, line):
    """The class of a line as a token dict, read from its integer
    coordinates over basis(1) alone, so that no product of the ring's own
    is involved."""
    return {t: c for t, c in zip(ring.basis(1), ring.line_coordinates(line))
            if c}


def _combine(dicts, coefficients):
    """The sum of coefficients[i] * dicts[i]."""
    out = {}
    for d, c in zip(dicts, coefficients):
        for t, x in d.items():
            out[t] = out.get(t, 0) + c * x
    return {t: x for t, x in out.items() if x}


def _powers(one, mul, a, cap):
    powers = [one]
    for _ in range(cap):
        powers.append(mul(powers[-1], a))
    return powers


def _substitute(table, powers):
    """Each q-coefficient of a table evaluated at a class from its powers."""
    return [_combine(powers, row) for row in table]


def _series_mul(mul, a, b):
    """The product of two q-series of classes of one order."""
    return [_combine([mul(a[i], b[j - i]) for i in range(j + 1)],
                     [1] * (j + 1)) for j in range(len(a))]


def _cohomological_reference(ring, tangent_roots, v_lines, w_lines, twist,
                             q_order, w_trivial_rank=0):
    """The cohomological route in token-dict arithmetic: the universal
    tables substituted at each line's class, multiplied as q-series of
    classes."""
    cap = ring.dimension
    tables = _universal_tables(cap, q_order)
    one, mul = _dict_ring(ring)
    integrand = [one] + [{}] * q_order
    for name, lines in (("tangent", tangent_roots), ("vline", v_lines),
                        ("wline", w_lines)):
        for line in lines:
            integrand = _series_mul(mul, integrand, _substitute(
                tables[name], _powers(one, mul, _line_dict(ring, line), cap)))
    half_twist = _combine(_powers(one, mul, _line_dict(ring, twist), cap),
                          _exp(Fraction(1, 2), cap))
    top = ring.basis(cap)[0]
    scale = Fraction(1, 2 ** w_trivial_rank)
    return QSeries([mul(cls, half_twist).get(top, 0) * ring.top_value * scale
                    for cls in integrand], q_order)


class TestUniversalTableIdentity:
    def test_euler_reduction_identity_on_cp3(self):
        # e^(c1(V)/2) * prod vline(a_i) = e(V) * prod vline_reduced(a_i):
        # both sides expanded in the face ring of CP^3 with the bundle V
        # produced by the twist construction (case 1)
        manifold = projective_space(3)
        ring = build_face_ring(manifold)
        report = construct_twist_bundles(manifold)
        case = report["cases"][report["applicable_case"] - 1]
        v_classes = [_line_dict(ring, vec) for vec in case["v_bundle"]]
        cap = ring.dimension
        q_order = 2
        tables = _universal_tables(cap, q_order)
        vline_reduced = _reference_tables(cap, q_order)["vline_reduced"]
        one, mul = _dict_ring(ring)
        lhs = rhs = [one] + [{}] * q_order
        c1v, euler = {}, one
        for a in v_classes:
            powers = _powers(one, mul, a, cap)
            lhs = _series_mul(mul, lhs, _substitute(tables["vline"], powers))
            rhs = _series_mul(mul, rhs, _substitute(vline_reduced, powers))
            c1v = _combine([c1v, a], [1, 1])
            euler = mul(euler, a)
        half = _combine(_powers(one, mul, c1v, cap), _exp(Fraction(1, 2), cap))
        assert euler
        assert [mul(c, half) for c in lhs] == [mul(c, euler) for c in rhs]

    def test_single_root_identity_truncated(self):
        # same identity on the nilpotent universal variable itself
        cap, q_order = 4, 2
        vline = _universal_tables(cap, q_order)["vline"]
        half_exp = _table([_exp(Fraction(1, 2), cap)], cap, q_order)
        x = _table([[0, 1]], cap, q_order)
        reduced = _reference_tables(cap, q_order)["vline_reduced"]
        assert _table_mul(vline, half_exp) == _table_mul(x, reduced)

    def test_tables_equal_dense_products(self):
        for cap in range(1, 6):
            for q_order in range(4):
                reference = _reference_tables(cap, q_order)
                for name, table in _universal_tables(cap, q_order).items():
                    assert [list(row) for row in table] == reference[name]

    def test_cached_tables_equal_fresh_builds_and_are_read_only(self):
        for cap in range(1, 7):
            for q_order in range(5):
                assert (_universal_tables(cap, q_order)
                        == _universal_tables.__wrapped__(cap, q_order))
                assert (_integer_tables(cap, q_order)
                        == _integer_tables.__wrapped__(cap, q_order))
        tables = _universal_tables(2, 1)
        with pytest.raises(TypeError):
            tables["vline"] = tables["wline"]
        with pytest.raises(TypeError):
            tables["vline"][0] = tables["vline"][1]
        with pytest.raises(TypeError):
            tables["vline"][0][0] = 1
        _, integer = _integer_tables(2, 1)
        with pytest.raises(TypeError):
            integer["vline"] = integer["wline"]
        with pytest.raises(TypeError):
            integer["vline"][0] = integer["vline"][1]
        with pytest.raises(TypeError):
            integer["vline"][0][0] = 1

    def test_integer_tables_are_the_least_integral_gauge(self):
        # L^i c is an integer for every x^i coefficient c, e^(x/2) included,
        # and no proper divisor L/p of L makes them all integers
        for cap in range(1, 7):
            for q_order in range(5):
                gauge, integer = _integer_tables(cap, q_order)
                fresh = _reference_tables(cap, q_order)
                del fresh["vline_reduced"]
                assert set(integer) == set(fresh)
                coeffs = [(i, c) for table in fresh.values() for row in table
                          for i, c in enumerate(row)]
                for name, table in fresh.items():
                    assert integer[name] == tuple(
                        tuple(c * gauge ** i for i, c in enumerate(row))
                        for row in table)
                assert all((c * gauge ** i).denominator == 1 for i, c in coeffs)
                for p in (p for p in range(2, gauge + 1)
                          if gauge % p == 0 and all(p % r for r in range(2, p))):
                    assert any((c * (gauge // p) ** i).denominator != 1
                               for i, c in coeffs)

    def test_class_tables_are_the_factor_products(self):
        # factors on one class share the product of their integer tables,
        # memoized by the sorted tuple of their names
        names = ("tangent", "twist", "vline", "wline")
        combos = [c for size in (1, 2, 3)
                  for c in combinations_with_replacement(names, size)]
        for cap in range(1, 7):
            for q_order in range(5):
                _, integer = _integer_tables(cap, q_order)
                for combo in combos:
                    expect = _table([[1]], cap, q_order)
                    for name in combo:
                        expect = _table_mul(
                            expect, _table(integer[name], cap, q_order))
                    got = _class_table(combo, cap, q_order)
                    assert got is _class_table(combo, cap, q_order)
                    assert _table(got, cap, q_order) == expect
        with pytest.raises(TypeError):
            got[0][0] = 1


def _pair_denominator(ring):
    """The least common denominator of the products of every two basis
    classes of positive degree, through ``mul_basis``."""
    n = ring.dimension
    tokens = [t for d in range(1, n + 1) for t in ring.basis(d)]
    return math.lcm(1, *(
        c.denominator for a in tokens for b in tokens
        if ring.token_degree(a) + ring.token_degree(b) <= n
        for c in ring.mul_basis(a, b).values()))


def _census_rings(count, seed):
    """Face rings of seeded census matrices over the twice-summed
    3-simplex at entry bound 2 whose basis products have denominator 4."""
    poly = _iterated_connected_sum(3, 2)
    mats = list(enumerate_characteristic_matrices(poly, 2))
    random.Random(seed).shuffle(mats)
    rings = (build_face_ring(QuasitoricManifold(poly, rows, (1,) * 5))
             for rows in mats)
    return list(islice((r for r in rings if _pair_denominator(r) == 4), count))


def _cube_rings(count, seed):
    """Face rings of seeded cube(3) matrices at entry bound 2 whose basis
    products have a denominator; a seeded coin picks the matrices as they
    are enumerated."""
    rng = random.Random(seed)
    poly = cube(3)
    found = []
    for rows in enumerate_characteristic_matrices(poly, 2):
        if rng.random() < 0.02:
            ring = build_face_ring(QuasitoricManifold(poly, rows, (1,) * 6))
            if _pair_denominator(ring) > 1:
                found.append(ring)
                if len(found) == count:
                    return found
    raise AssertionError("too few cube(3) rings with a denominator")


class TestIntegerEngine:
    """The integer engine on lines against the token-dict reference on
    their classes, on rings with and without a structure denominator,
    random twists and q-orders."""

    @staticmethod
    def check(ring, rng, q_order):
        m = ring.num_generators

        def line():
            return [rng.randint(-3, 3) for _ in range(m)]
        lines = (_unit_lines(m), [line() for _ in range(rng.randint(0, 2))],
                 [line() for _ in range(rng.randint(0, 2))], line())
        got = cohomological_index_on_ring(ring, *lines, q_order)
        assert got == _cohomological_reference(ring, *lines, q_order)
        return got

    def test_named_manifolds(self):
        rng = random.Random(5)
        for m in ([projective_space(n) for n in range(1, 5)]
                  + [sphere_product(n) for n in range(1, 4)]
                  + [sphere_product_spin(2), cp2_connected_sum()]):
            ring = build_face_ring(m)
            for q_order in range(5):
                self.check(ring, rng, q_order)
            assert (cohomological_index(m, None, 2) == _cohomological_reference(
                ring, _unit_lines(m.num_facets), (), (), m.spin_c, 2))

    def test_census_rings_with_denominator_four(self):
        rng = random.Random(6)
        rings = _census_rings(8, 6)
        assert len(rings) == 8
        for k, ring in enumerate(rings):
            self.check(ring, rng, k % 5)

    def test_cube_rings_with_a_denominator(self):
        rng = random.Random(7)
        for k, ring in enumerate(_cube_rings(8, 7)):
            self.check(ring, rng, k % 5)

    def test_stable_splitting_of_w(self):
        m = sphere_product_spin(2)
        ring = build_face_ring(m)
        gamma, _ = spin_gamma(m)
        lines = (_unit_lines(m.num_facets), (), _unit_lines(m.num_facets),
                 gamma)
        assert (cohomological_index_on_ring(ring, *lines, 3, w_trivial_rank=2)
                == _cohomological_reference(ring, *lines, 3,
                                            w_trivial_rank=2))

    def test_synthetic_instances(self):
        for n in range(3, 7):
            for sign in (1, -1):
                report = synthetic_inflated_instance(n, sign, 4)
                ring = SyntheticConnectedSumRing(n, 1, (sign,))
                case = report["cases"][0]
                assert report["index_series"] == _cohomological_reference(
                    ring, [(1,)] * (n + 1), case["v_lines"], case["w_lines"],
                    case["twist_class"], 4)
                assert report["index_series"].coeffs == [2 * sign] + [0] * 4

    def test_lines_on_a_multi_generator_ring(self):
        # integer lines on a ring with k = 3, whose basis(1) is the
        # generators, against the reference on their classes
        rng = random.Random(8)
        ring = SyntheticConnectedSumRing(4, 3, (1, -1, 1))

        def line():
            return [rng.randint(-4, 4) for _ in range(3)]
        for q_order in range(5):
            lines = ([line() for _ in range(3)], [line()], [line(), line()],
                     line())
            assert (cohomological_index_on_ring(ring, *lines, q_order)
                    == _cohomological_reference(ring, *lines, q_order))

    def test_a_line_needs_one_entry_per_generator(self):
        for ring in (build_face_ring(projective_space(2)),
                     SyntheticConnectedSumRing(3, 2)):
            k = ring.num_generators
            good = [1] + [0] * (k - 1)
            for bad in ([1] * (k - 1), [1] * (k + 1)):
                with pytest.raises(InputError, match="one entry per"):
                    cohomological_index_on_ring(ring, [good, bad], (), (),
                                                good, 1)
                with pytest.raises(InputError, match="one entry per"):
                    cohomological_index_on_ring(ring, [good], (), (), bad, 1)


def _fact(i):
    out = 1
    for k in range(2, i + 1):
        out *= k
    return out


def _evaluate(half_laurent, t):
    """A q-coefficient with integer exponents at a rational t."""
    assert all(e % 2 == 0 for e in half_laurent.coeffs)
    return sum((c * Fraction(t) ** (e // 2)
                for e, c in half_laurent.coeffs.items()), Fraction(0))


def _signed_contributions(m, xi, bundles, gamma, t, q_order):
    """The fixed-point sum at t by ``_term_value_reference``, each term
    carrying its orientation sign."""
    bundles = bundles or BundleSpec.empty()
    terms = genus._vertex_terms(m, xi, bundles.v_lines, bundles.w_lines,
                                gamma, False)
    assert genus._common_parity(terms) == 0
    total = QSeries([0] * (q_order + 1))
    for term in terms:
        total = total + _term_value_reference(term, 0, t, q_order)
    return total


class TestDivisionOracle:
    """The exact division against the signed sum of single fixed-point
    terms, each evaluated in Fraction arithmetic at points other than the
    held-out ones."""

    POINTS = (Fraction(5, 3), Fraction(-7, 2))

    def test_cp2_with_twist(self):
        m = projective_space(2)
        gamma = (3, -1, 1)
        m = QuasitoricManifold(m.polytope, m.char_matrix, gamma)
        eq = equivariant_index(m, (2, -5), None, 3)
        assert eq.parity == 0
        for t in self.POINTS:
            direct = _signed_contributions(m, (2, -5), None, gamma, t, 3)
            assert [_evaluate(c, t) for c in eq.series.coeffs] == direct.coeffs

    def test_cp3_twisted_wide_circle(self):
        parsed = parse_manifest((MANIFESTS / "cp3_twisted.ini").read_text())
        m, bundles = parsed.build_manifold(), parsed.bundles()
        xi = (7, -19, 23)
        eq = equivariant_index(m, xi, bundles, 2)
        assert eq.parity == 0
        for t in self.POINTS:
            direct = _signed_contributions(m, xi, bundles, m.spin_c, t, 2)
            assert [_evaluate(c, t) for c in eq.series.coeffs] == direct.coeffs

    def test_elliptic_genus_of_spin_sphere_square(self):
        # With W the m facet lines, a fixed point's W weights are its
        # tangent weights plus m - n zeros worth a factor 2 each, so the
        # signed sum is 2^(m-n) times the tangent-as-W sum; the elliptic
        # genus also divides out t^(-<eta, xi>/2).  The genus vanishes
        # identically here, while the single terms do not.
        m = sphere_product_spin(2)
        gamma, eta = spin_gamma(m)
        xi = (3, 5)
        shift = sum(a * b for a, b in zip(eta, xi))
        assert shift % 2 == 0
        eq = equivariant_elliptic_genus(m, xi, 2)
        facets = BundleSpec((), [[int(j == f) for j in range(m.num_facets)]
                                 for f in range(m.num_facets)])
        first = genus._vertex_terms(m, xi, (), facets.w_lines, gamma,
                                    False)[0]
        one = _term_value_reference(first, 0, self.POINTS[0], 2)
        assert all(one.coeffs)
        scale = 2 ** (m.num_facets - m.dimension)
        for t in self.POINTS:
            direct = _signed_contributions(m, xi, facets, gamma, t, 2)
            got = [_evaluate(c, t) * t ** (shift // 2) * scale
                   for c in eq.series.coeffs]
            assert got == direct.coeffs

    def test_a_numerator_that_cancels_seeds_no_rows(self, monkeypatch):
        # on the circle (2, 1) the pentagon's terms have three signatures,
        # and the signs of one cancel in its numerator: only the other two
        # run the theta recurrence, and the character is the one the
        # signed sum of single terms gives, and the one every numerator
        # seeding its rows gave
        m = QuasitoricManifold(polygon(5), ((1, 0, -1, 1, -1),
                                            (0, 1, -1, 0, 1)), (1,) * 5)
        terms = genus._vertex_terms(m, (2, 1), (), (), m.spin_c, False)
        assert len({t.signature for t in terms}) == 3
        real = genus._packed_rows
        seeds = []
        monkeypatch.setattr(genus, "_packed_rows",
                            lambda *args: seeds.append(args[2]) or real(*args))
        eq = equivariant_index(m, (2, 1), None, 2)
        assert len(seeds) == 2 and all(seeds)
        assert str(eq) == (
            "(1) + (t^2 + 2*t - 3 + 2*t^(-1) + t^(-2))*q^1 + (t^4 + 2*t^3 "
            "+ t^2 - 2*t + 5 - 2*t^(-1) + t^(-2) + 2*t^(-3) + t^(-4))*q^2")
        for t in self.POINTS:
            direct = _signed_contributions(m, (2, 1), None, m.spin_c, t, 2)
            assert [_evaluate(c, t) for c in eq.series.coeffs] == direct.coeffs
        # every numerator cancels: the sum is zero in each power of q
        seeds.clear()
        cancelled = terms + [_flip_sign(t) for t in terms]
        assert genus._divided_sum(cancelled, 2) == [(0, [])] * 3
        assert not seeds


def _flip_sign(term):
    return _VertexTerm(term.vertex, -term.sigma, term.tangent, term.c,
                       term.v_weights, term.w_weights)


class TestCertificate:
    """Tampered vertex terms raise PropertyViolationError, never a wrong
    answer: through the division remainder, the held-out evaluation, or
    the agreement of two circles."""

    @staticmethod
    def terms(m, xi, v_lines=()):
        got = genus._vertex_terms(m, xi, v_lines, (), m.spin_c, False)
        genus._common_parity(got)
        return got

    def test_remainder_catches_a_flipped_sign(self):
        terms = self.terms(projective_space(2), (1, 2))
        assert genus._divided_sum(terms, 2)
        tampered = [_flip_sign(terms[0])] + terms[1:]
        with pytest.raises(PropertyViolationError, match="remainder"):
            genus._divided_sum(tampered, 2)

    def test_remainder_catches_a_flipped_weight(self):
        terms = self.terms(projective_space(2), (1, 2))
        t = terms[1]
        flipped = _VertexTerm(t.vertex, t.sigma, (-t.tangent[0],) + t.tangent[1:],
                              t.c, t.v_weights, t.w_weights)
        with pytest.raises(PropertyViolationError, match="remainder"):
            genus._divided_sum([terms[0], flipped] + terms[2:], 2)

    def test_an_inexact_numerator_is_reported(self, monkeypatch):
        # the first division, a numerator's over the common denominator,
        # reports a remainder; the error names that numerator's signature
        terms = self.terms(projective_space(2), (1, 2))
        real = genus.divide_binomials
        calls = []

        def first_inexact(*args):
            calls.append(args)
            quotient = real(*args)
            return quotient if len(calls) > 1 else None
        monkeypatch.setattr(genus, "divide_binomials", first_inexact)
        with pytest.raises(PropertyViolationError,
                           match=re.escape(f"signature {terms[0].signature}")):
            genus._divided_sum(terms, 2)
        assert len(calls) == 1

    def test_held_out_catches_what_divides(self, monkeypatch):
        # CP^1 with V the first facet line: one fixed point's term vanishes
        # and the other is a Laurent polynomial, so flipping its sign still
        # divides exactly, to the negated index
        m = projective_space(1)
        bundles = BundleSpec(((1, 0),))
        terms = self.terms(m, (1,), bundles.v_lines)
        assert [t.zero for t in terms] == [False, True]
        tampered = [_flip_sign(terms[0]), terms[1]]
        real = genus._divided_sum
        assert real(tampered, 2) == [
            (low, [-c for c in p]) for low, p in real(terms, 2)]
        monkeypatch.setattr(genus, "_divided_sum",
                            lambda terms, q: real(tampered, q))
        with pytest.raises(PropertyViolationError, match="held-out"):
            equivariant_index(m, (1,), bundles, 2)

    def test_held_out_catches_tampered_squares(self, monkeypatch):
        # the t-free squares times 1 + q: each row sum gains the row sum
        # below it, so the division by D+ stays exact, but the held-out
        # theta values, which never read the squares, disagree
        m = projective_space(2)
        terms = self.terms(m, (1, 2))
        honest = genus._divided_sum(terms, 2)
        real = genus._square_series

        def times_one_plus_q(*args):
            squares = real(*args)
            return tuple(map(add, squares, (0,) + squares[:-1]))
        monkeypatch.setattr(genus, "_square_series", times_one_plus_q)
        # a fresh majorant cache, so the rows' slots bound the tampered rows
        monkeypatch.setattr(genus, "_theta_majorant", lru_cache(maxsize=128)(
            genus._theta_majorant.__wrapped__))
        rows = genus._divided_sum(terms, 2)
        assert rows != honest and rows[0] == honest[0]
        with pytest.raises(PropertyViolationError, match="held-out"):
            equivariant_index(m, (1, 2), None, 2)

    @pytest.mark.parametrize("compute", [
        lambda m: index(m, None, 1), signature], ids=["index", "signature"])
    def test_circles_must_agree(self, monkeypatch, compute):
        # every sign flipped on the second circle: each circle passes its
        # own remainder and held-out checks, but the results differ
        real = genus._vertex_terms
        calls = []

        def second_flipped(*args):
            calls.append(args[1])
            got = real(*args)
            return [_flip_sign(t) for t in got] if len(calls) == 2 else got
        monkeypatch.setattr(genus, "_vertex_terms", second_flipped)
        with pytest.raises(PropertyViolationError,
                           match="differs between generic circles"):
            compute(projective_space(2))
        assert len(calls) == 2

    def test_localization_pairing_circles_must_agree(self, monkeypatch):
        # one tangent weight negated at every fixed point of the second
        # circle: each term of the pairing flips its sign
        real = genus._fixed_point_weights
        circles = []

        def second_negated(fp, xi, lines=()):
            if xi not in circles:
                circles.append(xi)
            tangent, restricted = real(fp, xi, lines)
            if circles.index(xi) == 1:
                tangent = (-tangent[0],) + tangent[1:]
            return tangent, restricted
        monkeypatch.setattr(genus, "_fixed_point_weights", second_negated)
        with pytest.raises(PropertyViolationError,
                           match="differs between generic circles"):
            localization_integral(projective_space(2), (1, 1))
        assert len(circles) == 2

    def test_a_shared_signature_keeps_each_sign(self, monkeypatch):
        # on CP^2 with xi = (1, 2) two fixed points have weights of
        # magnitudes {1, 2} and share their theta rows; flipping the sign of
        # only one of them is still caught
        m = projective_space(2)
        terms = self.terms(m, (1, 2))
        first, second = [t for t in terms if t.signature == ((1, 2), (), ())]
        assert first.tangent != second.tangent
        tampered = [_flip_sign(t) if t is second else t for t in terms]
        with pytest.raises(PropertyViolationError, match="remainder"):
            genus._divided_sum(tampered, 2)
        monkeypatch.setattr(genus, "_vertex_terms", lambda *args: tampered)
        with pytest.raises(PropertyViolationError):
            equivariant_index(m, (1, 2), None, 2)


def _theta_binomials(term, q_order):
    """A term's theta factors as up and down binomials 1 + s t^e q^k, (s, e, k).

    Each factor is prod_k (1 + s t^x q^k)(1 + s t^-x q^k) / (1 + s q^k)^2,
    inverted with s = -1 for a tangent weight x, and with s = -1 for a V
    weight and s = +1 for a W weight.
    """
    ks = range(1, q_order + 1)
    ups, downs = [], []
    for s, x, inverted in ([(-1, w, True) for w in term.tangent]
                           + [(-1, a, False) for a in term.v_weights]
                           + [(1, b, False) for b in term.w_weights]):
        pair = [(s, e, k) for e in (x, -x) for k in ks]
        squares = [(s, 0, k) for k in ks] * 2
        ups += squares if inverted else pair
        downs += pair if inverted else squares
    return ups, downs


def _term_value_reference(term, parity, tau, q_order):
    """A fixed point's contribution at t = tau, all in Fraction arithmetic:
    the binomial quotient runs on the coefficients s tau^e themselves."""
    if term.zero:
        return QSeries([0] * (q_order + 1))
    scalar = term.sigma * tau ** ((term.halfexp - parity) // 2)
    for w in term.tangent:
        scalar /= tau ** w - 1
    for a in term.v_weights:
        scalar *= 1 - tau ** -a
    for b in term.w_weights:
        scalar *= tau ** b + 1
    ups, downs = _theta_binomials(term, q_order)
    return QSeries(binomial_quotient([(s * tau ** e, k) for s, e, k in ups],
                                     [(s * tau ** e, k) for s, e, k in downs],
                                     q_order)) * scalar


def _term_series_reference(term, q_order):
    """A term's theta rows by the full recurrence: every binomial of
    ``_theta_binomials``, the t-free squares included, is one step."""
    top = term.top
    ups, downs = _theta_binomials(term, q_order)
    rows = [[1]] + [[0] * (2 * j * top + 1) for j in range(1, q_order + 1)]
    for sign, steps, js in ((1, ups, lambda k: range(q_order, k - 1, -1)),
                            (-1, downs, lambda k: range(k, q_order + 1))):
        for s, e, k in steps:
            for j in js(k):
                src, at = rows[j - k], e + k * top
                rows[j][at:at + len(src)] = [
                    x + sign * s * y
                    for x, y in zip(rows[j][at:at + len(src)], src)]
    return rows


def _seeded(rows, seed):
    """Each row times the polynomial seed, by the defining double sum."""
    out = []
    for row in rows:
        want = [0] * (len(seed) + len(row) - 1)
        for i, x in enumerate(seed):
            for k, y in enumerate(row):
                want[i + k] += x * y
        out.append(want)
    return out


def _random_term(rng, vertex=(1,), largest=6):
    """A vertex term with 1-4 tangent, 0-2 V and 0-3 W weights of either
    sign and magnitude at most ``largest``; V and W weights may be 0."""
    def weights(count, low):
        return tuple(rng.choice([-1, 1]) * rng.randint(low, largest)
                     for _ in range(count))
    return _VertexTerm(vertex, rng.choice([-1, 1]), weights(rng.randint(1, 4), 1),
                       rng.randint(-9, 9), weights(rng.randint(0, 2), 0),
                       weights(rng.randint(0, 3), 0))


def _scrambled(term, rng, vertex=(2,), c_shift=0):
    """A term of the same signature: weights permuted, signs flipped."""
    def scramble(weights):
        out = [rng.choice([-1, 1]) * w for w in weights]
        rng.shuffle(out)
        return tuple(out)
    return _VertexTerm(vertex, rng.choice([-1, 1]), scramble(term.tangent),
                       term.c + c_shift, scramble(term.v_weights),
                       scramble(term.w_weights))


class TestSharedTheta:
    def test_rows_equal_the_full_recurrence(self):
        rng = random.Random(5)
        for case in range(120):
            term = _random_term(rng)
            q_order = case % 7
            assert (genus._term_series(term.signature, q_order, [1])
                    == _term_series_reference(term, q_order))

    def test_rows_depend_only_on_the_signature(self):
        rng = random.Random(6)
        for case in range(40):
            term = _random_term(rng)
            other = _scrambled(term, rng)
            assert other.signature == term.signature
            for q_order in (0, 1, 3, 5):
                for tau in (2, 3, -2, 5):
                    assert (genus._theta_at(other, tau, q_order)
                            == genus._theta_at(term, tau, q_order))

    def test_a_seed_multiplies_every_row(self):
        # the rows are linear in the seed: seeded with N they are N times
        # the rows seeded with 1, by the defining double sum
        rng = random.Random(9)
        for case in range(40):
            term = _random_term(rng)
            q_order = case % 5
            seed = [rng.randint(-5, 5) for _ in range(rng.randint(1, 12))]
            plain = genus._term_series(term.signature, q_order, [1])
            assert (genus._term_series(term.signature, q_order, seed)
                    == _seeded(plain, seed))

    def test_every_slot_width(self, monkeypatch):
        # the rows pack into slots of 1, 2, 4, 8 and, past that, as many
        # bytes as the bound needs.  At q-order 0 the bound is max |seed|:
        # +-(2^(8s - 1) - 1) fits s bytes and 2^(8s - 1) needs the next
        # size.  Above it, seeds of up to +-(2^(8s - 1) - 1) // G, with G
        # the majorant, fill s bytes; seeds of up to 2^100 need 13 or more
        sizes, real = [], genus.slot_size

        def recorded(bound):
            sizes.append(real(bound))
            return sizes[-1]
        monkeypatch.setattr(genus, "slot_size", recorded)

        def sizes_used(term, q_order, seed):
            sizes.clear()
            want = _seeded(_term_series_reference(term, q_order), seed)
            assert genus._term_series(term.signature, q_order, seed) == want
            return sizes
        rng = random.Random(11)
        for size, wider in ((1, 2), (2, 4), (4, 8), (8, 9)):
            edge = 2 ** (8 * size - 1) - 1
            for case in range(24):
                term, q_order = _random_term(rng), case % 5
                if not q_order:
                    seed = [edge, -edge, 0, rng.randint(-edge, edge)]
                    rng.shuffle(seed)
                    if case % 2:
                        seed[0] = rng.choice([edge + 1, -edge - 1])
                    assert sizes_used(term, q_order, seed) == [
                        wider if case % 2 else size]
                    continue
                limit = edge // genus._theta_majorant(
                    *map(len, term.signature), q_order)
                if limit:
                    seed = [rng.choice([limit, -limit,
                                        rng.randint(-limit, limit)])
                            for _ in range(rng.randint(1, 8))]
                    seed[rng.randrange(len(seed))] = rng.choice(
                        [limit, -limit])
                    assert sizes_used(term, q_order, seed) == [size]
        for case in range(12):
            seed = [rng.randint(-2 ** 100, 2 ** 100)
                    for _ in range(rng.randint(1, 6))] + [2 ** 100]
            assert sizes_used(_random_term(rng), case % 4, seed)[0] >= 13

    def test_integer_held_out_values_equal_the_fraction_reference(self):
        # q-orders 0 to 12, weights up to 60
        rng = random.Random(7)
        negative = 0
        for case in range(52):
            term = _random_term(rng, largest=(6, 20, 60)[case % 3])
            if term.zero:
                continue
            parity = term.halfexp % 2
            negative += (term.halfexp - parity) // 2 < 0
            q_order = case % 13
            for tau in (2, 3, -2, 5):
                num, den = genus._prefactor_at(term, parity, tau)
                rows = genus._theta_at(term, tau, q_order)
                assert all(type(x) is int for x in [num, den, *rows])
                want = _term_value_reference(term, parity, Fraction(tau),
                                             q_order)
                assert (_held_out_value(term, parity, tau, q_order)
                        == want.coeffs)
        assert negative >= 10

    def test_held_out_values_share_nothing_with_the_division(
            self, monkeypatch):
        # the held-out theta values read only the weights: none of the
        # division's theta machinery runs, and an inexact division by j is
        # reported
        def refused(*args):
            raise AssertionError("the held-out values used the division")
        for name in ("binomial_quotient", "_square_series", "_theta_majorant",
                     "_packed_rows"):
            monkeypatch.setattr(genus, name, refused)
        assert not hasattr(genus, "_theta_binomials")
        rng = random.Random(12)
        for case in range(20):
            term = _random_term(rng, largest=60)
            rows = genus._theta_at(term, (2, 3, -2, 5)[case % 4], 12)
            assert len(rows) == 13 and rows[0] == 1
        # divmod is looked up in the module before the builtins
        monkeypatch.setattr(genus, "divmod", lambda a, b: (a // b, 1),
                            raising=False)
        with pytest.raises(PropertyViolationError, match="not integral at q"):
            genus._theta_at(term, 2, 1)

    def test_held_out_sum_equals_the_reference_sum(self):
        # terms of one parity, some of them sharing a signature, summed over
        # one denominator per integer t
        rng = random.Random(8)
        for case in range(30):
            terms = [_random_term(rng, (k,)) for k in range(3)]
            parity = terms[0].halfexp % 2
            terms = [_VertexTerm(t.vertex, t.sigma, t.tangent,
                                 t.c + (t.halfexp - parity) % 2,
                                 t.v_weights, t.w_weights) for t in terms]
            terms += [_scrambled(t, rng, (9 + k,), 2 * rng.randint(-3, 3))
                      for k, t in enumerate(terms[:2])]
            assert {t.halfexp % 2 for t in terms} == {parity}
            q_order = case % 5
            for tau in (2, 3):
                sums, lcm, top = genus._fixed_point_sum_at(
                    terms, parity, tau, q_order, {})
                want = QSeries([0] * (q_order + 1))
                for t in terms:
                    want = want + _term_value_reference(t, parity,
                                                        Fraction(tau), q_order)
                assert [Fraction(s, lcm * tau ** (j * top))
                        for j, s in enumerate(sums)] == want.coeffs


class TestHeldOutTable:
    """The two circles of one non-equivariant result read one table of
    held-out theta values; the next result starts a new one."""

    def test_held_out_table_lasts_one_result(self, monkeypatch):
        keys = []
        real = genus._theta_at

        def recorded(term, tau, q_order):
            keys.append((term.signature, tau, q_order))
            return real(term, tau, q_order)
        monkeypatch.setattr(genus, "_theta_at", recorded)
        m = projective_space(3)
        low = index(m, None, 2)
        # one table for both circles: no theta product is computed twice,
        # and fewer are computed than with one table per circle
        shared = len(keys)
        assert shared == len(set(keys))
        for circle in choose_generic_circles(m):
            equivariant_index(m, circle, None, 2)
        assert shared < len(keys) - shared
        # the next result computes its own, at its own q-order
        keys.clear()
        high = index(m, None, 4)
        assert keys and all(q_order == 4 for _, _, q_order in keys)
        assert low == index(projective_space(3), None, 2)
        assert high == index(projective_space(3), None, 4)


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _poly_times_binomial(a, m):
    """a times t^m - 1, lowest degree first."""
    out = [-c for c in a] + [0] * m
    for i, c in enumerate(a):
        out[i + m] += c
    return out


def _poly_remainder_monic(a, b):
    """The remainder of a on division by the monic b, lowest degree
    first."""
    a = list(a)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        for k, x in enumerate(b):
            a[i + k] -= c * x
    return a[:len(b) - 1]


class TestCommonDenominator:
    """The bookkeeping of ``_divided_sum`` against brute force, on the
    manifests and on CP^4, whose fixed points disagree more on how many
    weights a d divides, each on its two generic circles and on seeded
    circles: e_d and its binomial exponents, D+ and each term's numerator
    offset and sign."""

    @staticmethod
    def circle_terms():
        rng = random.Random(34)
        cases = [(path.name, parse_manifest(path.read_text()))
                 for path in sorted(MANIFESTS.glob("*.ini"))]
        cases = [(name, parsed.build_manifold(), parsed.bundles())
                 for name, parsed in cases]
        cases.append(("CP^4", projective_space(4), BundleSpec.empty()))
        for name, m, bundles in cases:
            weights = [w for fp in m.fixed_points() for w in fp.weights]
            circles = [c.xi for c in choose_generic_circles(m, bundles)]
            while len(circles) < 8:
                xi = tuple(rng.randint(-9, 9) for _ in range(m.dimension))
                if all(sum(map(math.prod, zip(w, xi))) for w in weights):
                    circles.append(xi)
            for xi in circles:
                yield name, xi, genus._vertex_terms(
                    m, xi, bundles.v_lines, bundles.w_lines, m.spin_c, False)

    def test_denominator_against_brute_force(self, monkeypatch):
        real_exponents, real_divide = (genus.binomial_exponents,
                                       genus.divide_binomials)
        exponent_calls, denominators = [], []

        def exponents(e):
            exponent_calls.append(dict(e))
            return real_exponents(e)

        def divide(value, count, size, downs):
            denominators.append(dict(downs))
            return real_divide(value, count, size, downs)
        monkeypatch.setattr(genus, "binomial_exponents", exponents)
        monkeypatch.setattr(genus, "divide_binomials", divide)
        divided = 0
        for name, xi, terms in self.circle_terms():
            exponent_calls.clear()
            denominators.clear()
            genus._divided_sum(terms, 2)
            live = [t for t in terms if not t.zero]
            e = {}
            for d in range(1, max((t.top for t in live), default=0) + 1):
                most = max(sum(w % d == 0 for w in t.tangent) for t in live)
                if most:
                    e[d] = most
            assert exponent_calls == [e], (name, xi)
            big_e = {}
            for m in e:
                total = sum(e[d] * _mobius(d // m) for d in e if d % m == 0)
                if total:
                    big_e[m] = total
            assert real_exponents(e) == big_e
            positive = {m: x for m, x in big_e.items() if x > 0}
            # the last q-order + 1 divisions are the row sums', by D+
            assert denominators[-3:] in ([], [positive] * 3), (name, xi)
            divided += bool(denominators)
            d_plus = [1]
            for m, x in positive.items():
                for _ in range(x):
                    d_plus = _poly_times_binomial(d_plus, m)
            for t in live:
                b = [1]
                for w in t.tangent:
                    b = _poly_times_binomial(b, abs(w))
                assert not any(_poly_remainder_monic(d_plus, b)), (
                    name, xi, t.vertex)
        assert divided >= 20

    def test_offset_and_sign_against_the_inline_formulas(self):
        rng = random.Random(35)
        cases = [(terms, genus._common_parity(terms))
                 for _, _, terms in self.circle_terms()]
        for _ in range(200):
            term = _random_term(rng, largest=12)
            cases.append(([term], term.halfexp % 2))
        for terms, parity in cases:
            for t in terms:
                low = ((t.halfexp - parity) // 2
                       - sum(w for w in t.tangent if w < 0)
                       + sum(min(0, -a) for a in t.v_weights)
                       + sum(min(0, b) for b in t.w_weights))
                sign = t.sigma * (-1) ** (sum(w < 0 for w in t.tangent)
                                          + sum(a < 0 for a in t.v_weights))
                assert (t.offset, t.sign) == (low, sign)
                # and they write the prefactor over the binomials
                if t.zero:
                    continue
                x = Fraction(5, 3)
                over = t.sign * x ** t.offset
                for a in t.v_weights:
                    over *= x ** abs(a) - 1
                for b in t.w_weights:
                    over *= 1 + x ** abs(b)
                for w in t.tangent:
                    over /= x ** abs(w) - 1
                assert _term_value_reference(t, parity, x, 0).coeffs[0] == over


class TestInputLimits:
    def test_negative_q_order(self):
        m = projective_space(2)
        with pytest.raises(InputError):
            cohomological_index(m, None, -1)
        spin = sphere_product_spin(1)
        with pytest.raises(InputError):
            cohomological_witten_genus(spin, -1)
        with pytest.raises(InputError):
            cohomological_elliptic_genus(spin, -1)

    def test_q_order_over_the_limit(self):
        m = projective_space(2)
        for call in (lambda q: index(m, None, q),
                     lambda q: equivariant_index(m, (1, 2), None, q),
                     lambda q: cohomological_index(m, None, q)):
            with pytest.raises(InputError, match="q-order"):
                call(genus.MAX_Q_ORDER + 1)

    def test_oversized_circle_is_refused_before_work(self):
        m = projective_space(2)
        for xi in ((100000000, 1), (10 ** 40, 3)):
            with pytest.raises(InputError, match="localization degree"):
                equivariant_index(m, xi, None, 1)

    def test_largest_accepted_circle(self):
        # every circle (k, 1) with k over the limit is refused by its weight;
        # below it the slot count of the packed polynomials decides, and the
        # largest accepted k computes CP^2's Todd genus while k + 1 is
        # refused.  At q-order 0 the limit of 3000 admits k up to 1500, and
        # the row sum of k = 1501 has 3002 slots, read as degree 3001
        m = projective_space(2)
        k = genus.MAX_LOCALIZATION_DEGREE + 1
        eq = None
        while eq is None:
            k -= 1
            try:
                eq = equivariant_index(m, (k, 1), None, 0)
            except InputError as e:
                assert "localization degree" in str(e)
        assert k == 1500
        assert eq.value_at_one().coeffs == [1]
        with pytest.raises(InputError, match="localization degree must lie "
                           "in 0..3000, got 3001"):
            equivariant_index(m, (k + 1, 1), None, 0)


def _slot_count(value, bits):
    """The slots of ``bits`` bits a packed integer polynomial occupies: the
    least count whose signed range [-2^(count bits - 1), 2^(count bits - 1))
    holds it, one past its highest nonzero coefficient."""
    return ((value if value >= 0 else ~value).bit_length() + bits) // bits


class TestDegreeLimit:
    @pytest.fixture
    def lengths(self, monkeypatch):
        """Slot counts of every packed polynomial the division builds: each
        numerator and row sum divided, each quotient and each theta row."""
        lengths = []

        def divide(value, count, size, exponents):
            quotient = real_divide(value, count, size, exponents)
            lengths.extend((_slot_count(value, 8 * size), len(quotient)))
            return quotient

        def packed(*args):
            rows = real_rows(*args)
            lengths.extend(_slot_count(row, args[-1]) for row in rows)
            return rows
        real_divide, real_rows = genus.divide_binomials, genus._packed_rows
        monkeypatch.setattr(genus, "divide_binomials", divide)
        monkeypatch.setattr(genus, "_packed_rows", packed)
        return lengths

    @staticmethod
    def largest_accepted(lengths, q_order):
        """The largest accepted circle (k, 1) of CP^2 at the q-order, with
        its character; no refused circle builds a polynomial."""
        m = projective_space(2)
        k = genus.MAX_LOCALIZATION_DEGREE + 1
        while True:
            k -= 1
            lengths.clear()
            try:
                return k, equivariant_index(m, (k, 1), None, q_order)
            except InputError:
                assert not lengths

    def test_no_list_outgrows_the_limit(self, lengths):
        # every polynomial built on the largest accepted circle (k, 1) of
        # CP^2 has at most MAX_LOCALIZATION_DEGREE + 1 slots
        k, eq = self.largest_accepted(lengths, 0)
        assert eq.value_at_one().coeffs == [1]
        assert 2 * k <= max(lengths) <= genus.MAX_LOCALIZATION_DEGREE + 1

    @pytest.mark.parametrize("q_order, largest", [(1, 750), (4, 300)])
    def test_the_limit_is_spent_once(self, lengths, q_order, largest):
        # deg D counts once against the limit: the largest accepted circle
        # builds a polynomial of MAX_LOCALIZATION_DEGREE slots, none longer
        k, eq = self.largest_accepted(lengths, q_order)
        assert k == largest
        assert eq.value_at_one().coeffs[0] == 1
        assert max(lengths) == genus.MAX_LOCALIZATION_DEGREE

    @pytest.mark.parametrize("n, xi, q_order, largest", [
        (5, (-320, -199, 82, -78, -358), 0, 3001), (2, (-101, 202), 4, 2930)])
    def test_the_slots_packed_are_read(self, lengths, n, xi, q_order,
                                       largest):
        # admitted because the polynomials they pack fit the limit; the CP^5
        # circle fills it exactly
        m = projective_space(n)
        eq = equivariant_index(m, xi, None, q_order)
        assert max(lengths) == largest
        assert eq.value_at_one() == index(m, None, q_order)

    @pytest.mark.parametrize("q_order, largest", [(0, 1500), (1, 750),
                                                  (4, 300)])
    def test_the_refusal_names_the_slots(self, lengths, monkeypatch, q_order,
                                         largest):
        # the degree a refusal names is the largest packed polynomial's slot
        # count less one, as built once the limit is lifted
        m = projective_space(2)
        with pytest.raises(InputError, match="localization degree") as refused:
            equivariant_index(m, (largest + 1, 1), None, q_order)
        assert not lengths
        monkeypatch.setattr(genus, "MAX_LOCALIZATION_DEGREE", 10 ** 4)
        equivariant_index(m, (largest + 1, 1), None, q_order)
        assert str(refused.value).endswith(f", got {max(lengths) - 1}")

    def test_a_numerator_that_cancels_is_not_read(self, lengths):
        # on s2xs2_spin.ini every signature's signs cancel, so nothing is
        # packed and nothing is read: the circle (1514, 1) at q-order 1 is
        # admitted with a zero character, although its numerators' slots
        # would read 3028.  A weight over the limit is still refused first.
        parsed = parse_manifest((MANIFESTS / "s2xs2_spin.ini").read_text())
        eq = equivariant_index(parsed.build_manifold(), (1514, 1),
                               parsed.bundles(), 1)
        assert eq.is_identically_zero() and not lengths
        parsed = parse_manifest((MANIFESTS / "s2_bounding.ini").read_text())
        with pytest.raises(InputError, match="got 3001"):
            equivariant_index(parsed.build_manifold(), (3001,),
                              parsed.bundles(), 1)

    @pytest.mark.parametrize("xi, q_order, largest", [
        ((-424, -53, 318), 0, 2598), ((-136, -17, 102), 4, 2806)])
    def test_a_negative_exponent_is_admitted_as_before(self, lengths, xi,
                                                       q_order, largest):
        # on these circles of cp3_twisted some E_m is negative and V weights
        # of magnitude m make up for it; taking the sum over D+ leaves them
        # admitted, their largest polynomial well under the limit, and their
        # index the one a small circle gives
        parsed = parse_manifest((MANIFESTS / "cp3_twisted.ini").read_text())
        manifold, bundles = parsed.build_manifold(), parsed.bundles()
        eq = equivariant_index(manifold, xi, bundles, q_order)
        assert max(lengths) == largest
        assert eq.value_at_one() == equivariant_index(
            manifold, (1, 2, 5), bundles, q_order).value_at_one()


def _character_digest(eq):
    """Digest of the characters' exact values: each coefficient is read
    as a Fraction, so it does not depend on whether an integral value is
    stored as an int or a Fraction."""
    text = repr((eq.parity, [
        sorted((d, Fraction(x)) for d, x in c.coeffs.items())
        for c in eq.series.coeffs]))
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedCharacters:
    """Characters at the q-order limit on the largest circles of the
    degree-limit measurements in docs/manifest_format.md, pinned by
    digests recorded at commit 3a5f496, whose localization divided by
    dense products of cyclotomic polynomials."""

    def test_characters_at_q_order_twelve(self):
        parsed = parse_manifest((MANIFESTS / "cp3_twisted.ini").read_text())
        characters = [
            equivariant_index(parsed.build_manifold(), (47, -46, 44),
                              parsed.bundles(), 12),
            equivariant_index(projective_space(5), (39, -38, 36, -33, 29),
                              None, 12),
            equivariant_witten_genus(sphere_product_spin(5),
                                     (88, 87, 86, 85, 84), 12)]
        assert [_character_digest(eq) for eq in characters] == [
            "fb4889089911bc75e8904cdf69dfcb98e2e836bfad9e9aecde11343909b6ae54",
            "ea96cdd39b4fadd1afea24f895f3620b7e2fbb5f4b645046d3438b2f581d60ec",
            "efc88ecf33185ae9d64abd82c49393bfd0d5c64b62da6d84b95deb38000cd7f1"]


class TestRandomInstances:
    def test_random_lambdas_route_agreement(self):
        # a trimmed version of the acceptance battery: random characteristic
        # matrices over the tetrahedron, both engines, exact equality
        from quasigenus.polytope import enumerate_characteristic_matrices
        rng = random.Random(2024)
        p = simplex(3)
        mats = list(enumerate_characteristic_matrices(p, 1))
        rng.shuffle(mats)
        for mat in mats[:3]:
            m = QuasitoricManifold(p, mat, (1, 1, 1, 1))
            assert index(m, None, 1) == cohomological_index(m, None, 1)
