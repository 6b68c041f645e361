"""Face rings, Poincare pairing, p1, facet-class decompositions."""

import gc
import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice
from math import comb
from pathlib import Path

import pytest

from quasigenus import cohomology
from quasigenus.cli import main
from quasigenus.cohomology import (CohomologyClass, FaceRing,
                                   SyntheticConnectedSumRing, build_face_ring,
                                   facet_class_decomposition)
from quasigenus.errors import (InputError, PropertyViolationError,
                               RingShapeError)
from quasigenus.genus import cohomological_index, localization_integral
from quasigenus.linalg import rref, unimodular_inverse
from quasigenus.manifest import parse_manifest
from quasigenus.models import (cp2_connected_sum, projective_space,
                               sphere_product, sphere_product_spin)
from quasigenus.polytope import (FaceRingSkeleton, QuasitoricManifold,
                                 connected_sum, cube,
                                 enumerate_characteristic_matrices,
                                 polytope_product, simplex)
from quasigenus.theorems import _iterated_connected_sum, finiteness_census


def localization_pairing_oracle(manifold, facet_labels, xi):
    """Independent evaluation of <prod v_j, [M]> by the fixed point formula.

    At each vertex, v_j restricts to its circle weight when j lies on the
    vertex and to 0 otherwise; dividing by the product of all tangent
    weights and summing the signed terms over vertices gives the pairing.
    Any circle with nonzero tangent weights everywhere computes the same
    number, which is itself cross-checked by the caller.
    """
    total = Fraction(0)
    for d in manifold.fixed_points():
        weights = [sum(w[i] * xi[i] for i in range(len(xi))) for w in d.weights]
        assert all(w != 0 for w in weights), "degenerate test circle"
        num = Fraction(1)
        for j in facet_labels:
            if j in d.vertex:
                num *= weights[d.vertex.index(j)]
            else:
                num = Fraction(0)
                break
        den = Fraction(1)
        for w in weights:
            den *= w
        total += manifold.orientation_signs()[d.vertex] * d.sign * num / den
    return total


def h_vector(polytope):
    """The h-vector from the face numbers; by Davis-Januszkiewicz it equals
    the even Betti numbers of every quasitoric manifold over the polytope."""
    n = polytope.dimension
    faces = {s for v in polytope.vertices for r in range(n + 1)
             for s in combinations(v, r)}
    f = [sum(len(s) == i for s in faces) for i in range(n + 1)]
    return tuple(sum((-1) ** (k - i) * comb(n - i, k - i) * f[i]
                     for i in range(k + 1)) for k in range(n + 1))


def unit_lines(m):
    """The facet lines of a ring with m generators: its unit vectors."""
    return [tuple(int(j == f) for j in range(m)) for f in range(m)]


def facet_lines(ring, facets):
    """The unit line of each facet label, repeats included."""
    lines = unit_lines(ring.num_generators)
    return [lines[f - 1] for f in facets]


def off_corner_manifolds():
    """Manifolds whose smallest vertex is not 1..n: CP^2 # CP^2 at (1, 3)
    and two census matrices over the 2-fold sum of 3-simplices at (1, 2, 4)."""
    p = connected_sum(simplex(3), (1, 2, 3), simplex(3), (1, 2, 3))
    rows = list(enumerate_characteristic_matrices(p, 1))
    return [cp2_connected_sum()] + [
        QuasitoricManifold(p, rows[i], (1,) * p.num_facets) for i in (0, 45)]


class TestOracles:
    def test_betti_numbers_are_the_h_vector(self):
        for manifold in off_corner_manifolds():
            ring = build_face_ring(manifold)
            assert ring.betti_numbers() == h_vector(manifold.polytope)

    def test_top_pairings_match_localization(self):
        for manifold in off_corner_manifolds():
            ring = build_face_ring(manifold)
            labels = range(1, manifold.num_facets + 1)
            for facets in combinations_with_replacement(labels, manifold.dimension):
                assert (ring.integral(facet_lines(ring, facets))
                        == localization_integral(manifold, facets))

    def test_large_rings_have_the_h_vector_betti_numbers(self):
        p = polytope_product(simplex(3), simplex(3))
        first = QuasitoricManifold(
            p, next(enumerate_characteristic_matrices(p, 1)), (1,) * 8)
        assert build_face_ring(first).betti_numbers() == (1, 2, 3, 4, 3, 2, 1)
        six = build_face_ring(sphere_product(6))
        assert six.betti_numbers() == (1, 6, 15, 20, 15, 6, 1)
        for manifold in (projective_space(5), sphere_product(5),
                         sphere_product(6), first):
            ring = build_face_ring(manifold)
            assert ring.betti_numbers() == h_vector(manifold.polytope)


    def test_h_vector_method_matches_the_oracle(self):
        polytopes = ([f(n) for f in (simplex, cube) for n in range(1, 6)]
                     + [m.polytope for m in off_corner_manifolds()]
                     + [polytope_product(simplex(3), simplex(3)),
                        _iterated_connected_sum(4, 3)])
        for p in polytopes:
            assert p.h_vector() == h_vector(p)

    def test_describe_checks_the_betti_numbers(self, monkeypatch, capsys):
        # CP^2 has h-vector (1, 1, 1)
        monkeypatch.setattr(FaceRing, "betti_numbers", lambda self: (1, 2, 1))
        cp2 = Path(__file__).resolve().parent.parent / "manifests" / "cp2.ini"
        assert main(["describe", str(cp2)]) == 1
        err = capsys.readouterr().err
        assert "property violation" in err
        assert "(1, 2, 1)" in err and "(1, 1, 1)" in err


class TestConsistencyChecks:
    """Matrices with a singular vertex minor, built without the minor
    checks, so that only the ring's own checks can refuse them.  They run
    on reaching degree n + 1, which every read of the top degree does."""

    @staticmethod
    def assert_refused(bad, message):
        n, m = bad.dimension, bad.num_facets
        reads = (lambda ring: ring.betti_numbers(),
                 lambda ring: ring.basis(n),
                 lambda ring: ring.reduce_monomial((1,) * n),
                 lambda ring: ring.top_value,
                 lambda ring: ring.integral([[1] * m] * n))
        for read in reads:
            ring = build_face_ring(bad)
            assert len(ring.basis(1)) == m - n
            for _ in range(2):
                with pytest.raises(PropertyViolationError, match=message):
                    read(ring)

    def test_cohomology_above_the_top_degree(self):
        bad = QuasitoricManifold._enumerated(simplex(2),
                                             ((1, 0, 0), (0, 1, 1)))
        self.assert_refused(bad, "does not vanish above the top degree")

    def test_top_degree_of_dimension_two(self):
        bad = QuasitoricManifold._enumerated(cube(2),
                                             ((1, 0, 1, 0), (0, 1, 0, 0)))
        self.assert_refused(bad, "top cohomology has dimension 2")


class TestRingStructure:
    def test_cp2_betti(self):
        ring = build_face_ring(projective_space(2))
        assert ring.betti_numbers() == (1, 1, 1)

    def test_s2xs2_betti(self):
        ring = build_face_ring(sphere_product(2))
        assert ring.betti_numbers() == (1, 2, 1)

    def test_b2_is_facet_excess(self):
        for manifold in [projective_space(2), projective_space(3),
                         sphere_product(2), cp2_connected_sum()]:
            ring = build_face_ring(manifold)
            excess = manifold.num_facets - manifold.dimension
            assert len(ring.basis(1)) == excess

    def test_cp2_all_facet_classes_agree(self):
        ring = build_face_ring(projective_space(2))
        x = ring.line_coordinates((0, 0, 1))
        assert ring.line_coordinates((1, 0, 0)) == x
        assert ring.line_coordinates((0, 1, 0)) == x
        assert any(ring.product(facet_lines(ring, (3, 3))))
        assert not any(ring.product(facet_lines(ring, (3, 3, 3))))

    def test_nonface_product_vanishes(self):
        # facets 1 and 3 of the square are opposite edges
        ring = build_face_ring(sphere_product(2))
        assert not any(ring.product(facet_lines(ring, (1, 3))))
        assert any(ring.product(facet_lines(ring, (1, 2))))

    def test_reduce_monomial_label_range(self):
        ring = build_face_ring(projective_space(2))
        assert ring.reduce_monomial((1, 3)) == ring.reduce_monomial((2, 2))
        for bad in ((1, 4), (0,), (-1, 2)):
            with pytest.raises(InputError):
                ring.reduce_monomial(bad)


class TestPairing:
    """Integrals of unit lines against the fixed point formula, by the
    oracle above and by ``localization_integral``."""

    @staticmethod
    def integral(manifold, facets):
        ring = build_face_ring(manifold)
        got = ring.integral(facet_lines(ring, facets))
        assert got == localization_integral(manifold, facets)
        return got

    def test_cp2_top_pairing(self):
        manifold = projective_space(2)
        for xi in [(1, 2), (2, -1)]:
            assert localization_pairing_oracle(manifold, [1, 2], xi) == 1
        assert self.integral(manifold, (1, 2)) == 1

    def test_opposite_facets_pair_to_zero(self):
        manifold = sphere_product(2)
        assert localization_pairing_oracle(manifold, [1, 3], (1, 2)) == 0
        assert self.integral(manifold, (1, 3)) == 0

    def test_cp2_square_normal_form(self):
        manifold = projective_space(2)
        assert self.integral(manifold, (3, 3)) == 1
        assert localization_pairing_oracle(manifold, [3, 3], (1, 2)) == 1

    def test_square_volume(self):
        manifold = sphere_product(2)
        oracle = localization_pairing_oracle(manifold, [3, 4], (1, 2))
        assert self.integral(manifold, (3, 4)) == oracle == 1

    def test_denominator_four_rings(self):
        # the top coordinate of a product carries delta^n, divided once
        for ring in _delta_four_census_rings(2, 12):
            manifold = ring.manifold
            labels = range(1, ring.num_generators + 1)
            values = [self.integral(manifold, facets) for facets
                      in combinations_with_replacement(labels, 3)]
            assert any(values)

    def test_top_class_integrates_to_an_int(self):
        # an integral value is an int, as elsewhere in the library, so the
        # pairings the theorems report print as JSON numbers
        for ring in (build_face_ring(projective_space(2)),
                     _delta_four_census_rings(1, 12)[0]):
            n = ring.dimension
            assert type(ring.top_value) is int
            assert type(ring.integral(facet_lines(ring, (1,) * n))) is int
            assert type(ring.integral(facet_lines(ring, (1,) * (n - 1)))) \
                is int


class TestCharacteristicClasses:
    def test_cp2_p1(self):
        # hand reduction: rows (1,0,-1),(0,1,-1) force v1 = v3 and v2 = v3,
        # so v1^2+v2^2+v3^2 = 3 v3^2
        ring = build_face_ring(projective_space(2))
        square = ring.product(facet_lines(ring, (3, 3)))
        assert ring.p1_square_sum() == [3 * x for x in square]
        assert str(ring.pontryagin_p1()) == "3*v3^2"

    def test_s2xs2_p1_vanishes(self):
        ring = build_face_ring(sphere_product(2))
        assert ring.pontryagin_p1().is_zero()

    def test_sphere_products_are_string_like(self):
        for n in (1, 2, 3):
            manifold = sphere_product(n)
            ring = build_face_ring(manifold)
            assert ring.pontryagin_p1().is_zero()
            assert not any(ring.p1_square_sum())
            assert any(ring.line_coordinates(manifold.spin_c))

    def test_cp2_spinc_class(self):
        ring = build_face_ring(projective_space(2))
        assert ring.line_coordinates((1, 1, 1)) == ring.line_coordinates(
            (0, 0, 3))


class TestDecomposition:
    def test_cp3_beta(self):
        facets, alpha, beta = facet_class_decomposition(projective_space(3))
        assert beta == [4]
        assert len(facets) == 1

    def test_cpn_beta_general(self):
        for n in (3, 4):
            _, _, beta = facet_class_decomposition(projective_space(n))
            assert beta == [n + 1]

    def test_connected_sum_beta(self):
        _, _, beta = facet_class_decomposition(cp2_connected_sum())
        assert sorted(beta) == [3, 3]

    def test_decomposition_betas_positive(self):
        # a nonpositive coefficient on a generator square cannot happen:
        # beta_i is a sum of squares including the generator's own 1
        p = simplex(3)
        count = 0
        for mat in enumerate_characteristic_matrices(p, 1):
            manifold = QuasitoricManifold(p, mat, (1,) * 4)
            ring = build_face_ring(manifold)
            try:
                facets, alpha, beta = facet_class_decomposition(manifold, ring)
            except RingShapeError:
                continue
            count += 1
            assert all(b > 0 for b in beta)
            for j, row in enumerate(alpha, 1):
                line = [0] * 4
                for f, a in zip(facets, row):
                    line[f - 1] = a
                assert ring.line_coordinates(facet_lines(ring, (j,))[0]) \
                    == ring.line_coordinates(line)
        assert count > 0

    def test_spin_product_is_not_projective_shaped(self):
        with pytest.raises(RingShapeError):
            facet_class_decomposition(sphere_product_spin(3))


def _decomposition_reference(manifold, ring):
    """facet_class_decomposition on facet lines: their products and p1
    through the ring's structure, with unimodularity tested before the
    products."""
    k = len(ring.basis(1))
    labels = range(1, ring.num_generators + 1)
    lines = unit_lines(ring.num_generators)
    coords = [ring.line_coordinates(line) for line in lines]
    for facets in combinations(labels, k):
        found = unimodular_inverse([coords[j - 1] for j in facets])
        generators = facet_lines(ring, facets)
        if found is None or any(any(ring.product(pair))
                                for pair in combinations(generators, 2)):
            continue
        _, inverse = found
        alpha = [[sum(x * inverse[r][i] for r, x in enumerate(row))
                  for i in range(k)] for row in coords]
        beta = [sum(row[i] ** 2 for row in alpha) for i in range(k)]
        if ring.p1_square_sum() != ring.square_sum(generators, beta):
            raise PropertyViolationError("does not reproduce p1")
        return facets, alpha, beta
    raise RingShapeError("not a connected-sum pattern")


def _decomposition_or_none(decompose, manifold, ring):
    try:
        return decompose(manifold, ring)
    except RingShapeError:
        return None


def _all_pairs(ring):
    """(delta, rows): the product of every two basis classes of positive
    degree whose degrees sum to at most n, through ``mul_basis``, as
    integer terms over their least common denominator delta.  rows[i][j]
    holds the terms of tokens[i] * tokens[j] over the structure's token
    positions, for nonzero products: the table each ring once stored."""
    s, n = ring.structure, ring.dimension
    position = {t: i for i, t in enumerate(s.tokens)}
    products = {}
    for i in range(1, len(s.tokens)):
        for j in range(i, s.starts[n + 1 - s.degrees[i]]):
            products[i, j] = products[j, i] = [
                (position[t], c) for t, c in
                ring.mul_basis(s.tokens[i], s.tokens[j]).items()]
    delta = math.lcm(1, *(c.denominator for terms in products.values()
                          for _, c in terms))
    rows = [{} for _ in s.tokens]
    for (i, j), terms in products.items():
        if terms:
            rows[i][j] = tuple((k, c.numerator * (delta // c.denominator))
                               for k, c in terms)
    return delta, rows


def _manifest_ring_digest(path, capsys):
    """A digest of a manifest's ring basis, all basis products and their
    denominator, p1 and ``describe --json`` output; classes are written by
    ``str``, so an int and an integral Fraction read the same."""
    ring = build_face_ring(parse_manifest(path.read_text()).build_manifold())
    delta, rows = _all_pairs(ring)
    assert main(["describe", str(path), "--json"]) == 0
    text = json.dumps([[str(t) for t in ring.structure.tokens], delta,
                       [sorted(row.items()) for row in rows],
                       str(ring.pontryagin_p1()), capsys.readouterr().out])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestDegreeTwoDecomposition:
    """The decomposition reads only degree-2 reductions; the reference
    multiplies the facet lines' classes through the ring's structure."""

    @pytest.mark.parametrize("polytope, bound, matches", [
        (simplex(3), 1, 8), (simplex(3), 2, 8), (cube(3), 1, 0),
        (polytope_product(simplex(2), simplex(2)), 1, 0),
        (_iterated_connected_sum(3, 2), 1, 16),
        (_iterated_connected_sum(3, 2), 2, 64),
        (_iterated_connected_sum(4, 2), 1, 32),
        (_iterated_connected_sum(4, 2), 2, 256)],
        ids=["simplex3-1", "simplex3-2", "cube3-1", "d2xd2-1", "sum3-1",
             "sum3-2", "sum4-1", "sum4-2"])
    def test_agrees_with_the_class_reference(self, polytope, bound, matches):
        # no three facets of the cube and no two of the simplex product
        # pairwise miss each other, so those rings raise RingShapeError
        found = 0
        for rows in enumerate_characteristic_matrices(polytope, bound):
            manifold = QuasitoricManifold._enumerated(polytope, rows)
            ring = build_face_ring(manifold)
            got = _decomposition_or_none(facet_class_decomposition,
                                         manifold, ring)
            assert "structure" not in vars(ring)
            assert got == _decomposition_or_none(_decomposition_reference,
                                                 manifold, ring)
            found += got is not None
        assert found == matches

    def test_manifest_rings_are_unchanged(self, capsys):
        manifests = Path(__file__).resolve().parent.parent / "manifests"
        got = {p.name: _manifest_ring_digest(p, capsys)
               for p in sorted(manifests.glob("*.ini"))}
        # recorded on Fraction reduction tables
        assert got == {"cp2.ini": "efe7bd50049bb5d8",
                       "cp2_sum.ini": "4ae06e2400288cf6",
                       "cp3_twisted.ini": "992eebefe5a5b105",
                       "s2_bounding.ini": "39af10094bc2feae",
                       "s2xs2_spin.ini": "bd82054509695347"}

    @pytest.mark.parametrize("manifold", [projective_space(3),
                                          cp2_connected_sum()],
                             ids=["cp3", "cp2#cp2"])
    def test_perturbed_generator_square_fails_the_p1_check(self, manifold,
                                                          monkeypatch):
        ring = build_face_ring(manifold)
        generator = facet_class_decomposition(manifold, ring)[0][0]
        real = ring._reduced

        def perturbed(mono):
            out = real(mono)
            if mono == (generator, generator):
                out = {t: 2 * c for t, c in out.items()}
            return out

        monkeypatch.setattr(ring, "_reduced", perturbed)
        with pytest.raises(PropertyViolationError,
                           match="does not reproduce p1"):
            facet_class_decomposition(manifold, ring)

    def test_reductions_stay_in_integers(self):
        poly = _iterated_connected_sum(3, 2)
        rings = ([build_face_ring(projective_space(n)) for n in range(1, 5)]
                 + [build_face_ring(sphere_product(n)) for n in range(1, 5)]
                 + [build_face_ring(QuasitoricManifold._enumerated(poly, rows))
                    for rows in enumerate_characteristic_matrices(poly, 1)]
                 + _delta_four_census_rings(2, 12))
        fractions = 0
        for ring in rings:
            # reducing every degree first fills every table
            labels = range(1, ring.num_generators + 1)
            values = [x for d in range(ring.dimension + 1)
                      for mono in combinations_with_replacement(labels, d)
                      for x in ring.reduce_monomial(mono).values()]
            assert len(ring._reductions) == ring.dimension + 2
            values += [x for table in ring._reductions
                       for row in table.values() for x in row.values()]
            assert all(type(x) is int or x.denominator != 1 for x in values)
            fractions += sum(type(x) is not int for x in values)
        # the rings with denominator four have fractional reductions
        assert fractions


class TestGradedStructure:
    def test_built_on_first_use_and_equal_to_mul_basis(self):
        # the last ring's products carry denominators 2 and 4, among the
        # degree-one products as among all pairs
        rings = [build_face_ring(sphere_product(3)),
                 SyntheticConnectedSumRing(3, 2, (1, -1)),
                 build_face_ring(QuasitoricManifold(
                     _iterated_connected_sum(3, 2),
                     ((1, 0, -1, 0, -1), (0, 1, -1, 0, -1), (0, 0, -2, 1, -1)),
                     (1,) * 5))]
        for ring in rings:
            assert "structure" not in vars(ring)
            s = ring.structure
            assert ring.structure is s
            n = ring.dimension
            assert s.tokens == sum((ring.basis(d) for d in range(n + 1)), ())
            assert [s.tokens[s.starts[d]:s.starts[d + 1]]
                    for d in range(n + 1)] == [ring.basis(d) for d in range(n + 1)]
            # one row per token of degree below n, one entry per generator
            assert len(s.rows) == s.starts[n]
            for i, a in enumerate(s.tokens[:s.starts[n]]):
                assert len(s.rows[i]) == len(ring.basis(1))
                for r, g in enumerate(ring.basis(1)):
                    assert {s.tokens[k]: Fraction(c, s.delta)
                            for k, c in s.rows[i][r]} == ring.mul_basis(a, g)
        assert [r.structure.delta for r in rings] == [1, 1, 4]
        assert [_all_pairs(r)[0] for r in rings] == [1, 1, 4]


# -- token-dict reference arithmetic ----------------------------------------
# Classes as {basis token: Fraction} dicts, every product through the ring's
# mul_basis, and a line's class read from its degree-one coordinates.

def _dict_mul(ring, a, b):
    out = {}
    for t1, c1 in a.items():
        for t2, c2 in b.items():
            for t, c in ring.mul_basis(t1, t2).items():
                out[t] = out.get(t, 0) + c1 * c2 * c
    return {t: c for t, c in out.items() if c}


def _dict_integral(ring, a):
    """The top coefficient times the integral of the top basis token: a
    facet monomial, integrated by localization, for a face ring; 1 for the
    synthetic ring by its definition."""
    top = ring.basis(ring.dimension)[0]
    if isinstance(ring, SyntheticConnectedSumRing):
        return a.get(top, 0)
    return a.get(top, 0) * localization_integral(ring.manifold, top)


def _dict_str(ring, a):
    keys = sorted(a, key=lambda t: (ring.token_degree(t), str(t)))
    return " + ".join(f"{a[t]}*{ring.token_name(t)}" for t in keys) or "0"


def _line_dict(ring, line):
    return {t: c for t, c in zip(ring.basis(1), ring.line_coordinates(line))
            if c}


def _dict_product(ring, lines):
    out = {ring.basis(0)[0]: 1}
    for line in lines:
        out = _dict_mul(ring, out, _line_dict(ring, line))
    return out


def _dict_square_sum(ring, lines, weights):
    out = {}
    for line, w in zip(lines, weights):
        for t, c in _dict_product(ring, (line, line)).items():
            out[t] = out.get(t, 0) + w * c
    return {t: c for t, c in out.items() if c}


def _scaled(ring, a, power):
    """A token dict as the integer coordinates of delta^power times it."""
    scale = ring.structure.delta ** power
    out = [a.get(t, 0) * scale for t in ring.structure.tokens]
    assert all(x.denominator == 1 for x in map(Fraction, out))
    return [int(x) for x in out]


def _delta_four_census_rings(count, seed):
    """Face rings of seeded census matrices over the twice-summed 3-simplex
    at entry bound 2 whose basis products have denominator 4."""
    poly = _iterated_connected_sum(3, 2)
    mats = list(enumerate_characteristic_matrices(poly, 2))
    random.Random(seed).shuffle(mats)
    rings = (build_face_ring(QuasitoricManifold(poly, rows, (1,) * 5))
             for rows in mats)
    return list(islice((r for r in rings if _all_pairs(r)[0] == 4), count))


class TestClassArithmetic:
    """Products, integrals and square sums of random lines against the
    token-dict reference, and the printed p1 against the reference's."""

    @staticmethod
    def check(ring, rng, trials=12):
        n, m = ring.dimension, ring.num_generators
        for _ in range(trials):
            k = rng.randint(0, n + 1)
            lines = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(k)]
            product = _dict_product(ring, lines)
            assert ring.product(lines) == _scaled(ring, product, k)
            assert ring.integral(lines) == _dict_integral(ring, product)
            weights = [rng.randint(1, 4) for _ in lines]
            assert ring.square_sum(lines, weights) == _scaled(
                ring, _dict_square_sum(ring, lines, weights), 2)
            assert ring.square_sum(lines) == _scaled(
                ring, _dict_square_sum(ring, lines, [1] * k), 2)
        # every top product of facet lines, integrated
        for facets in islice(combinations_with_replacement(
                range(1, m + 1), n), 40):
            lines = facet_lines(ring, facets)
            assert ring.integral(lines) == _dict_integral(
                ring, _dict_product(ring, lines))
        if isinstance(ring, FaceRing):
            p1 = _dict_square_sum(ring, unit_lines(m), [1] * m)
            assert ring.p1_square_sum() == _scaled(ring, p1, 2)
            assert str(ring.pontryagin_p1()) == _dict_str(ring, p1)

    def test_named_manifolds(self):
        rng = random.Random(11)
        for m in ([projective_space(n) for n in range(1, 5)]
                  + [sphere_product(n) for n in range(1, 4)]
                  + [cp2_connected_sum()]):
            self.check(build_face_ring(m), rng)

    def test_census_rings_with_denominator_four(self):
        rng = random.Random(12)
        rings = _delta_four_census_rings(4, 12)
        assert len(rings) == 4
        for ring in rings:
            assert ring.structure.delta == 4
            self.check(ring, rng)

    def test_synthetic_ring(self):
        self.check(SyntheticConnectedSumRing(4, 3, (1, -1, 1)),
                   random.Random(13), trials=30)

    def test_synthetic_ring_refuses_entries_that_are_not_integers(self):
        # read by operator.index, never truncated to a 3-dimensional ring
        # with 2 generators and signs (1, 1)
        for args, bad in (((3.7, 2.2, (1, 1.5)), 3.7), ((3, 2.2), 2.2),
                          ((3, 2, (1, 1.5)), 1.5)):
            with pytest.raises(InputError, match=f"got {bad}"):
                SyntheticConnectedSumRing(*args)

    def test_a_line_needs_one_entry_per_generator(self):
        for ring in (build_face_ring(projective_space(2)),
                     SyntheticConnectedSumRing(3, 2)):
            k = ring.num_generators
            good = [1] + [0] * (k - 1)
            for bad in ([1] * (k - 1), [1] * (k + 1)):
                for call in (ring.product, ring.integral, ring.square_sum):
                    with pytest.raises(InputError, match="one entry per"):
                        call([good, bad])

    def test_integral_results_are_ints(self):
        # the exact-value rule: an integral value is an int, never
        # Fraction(1, 1), in integrals and in the printed p1 alike
        for ring in _delta_four_census_rings(2, 12):
            values = [ring.integral(facet_lines(ring, facets)) for facets
                      in combinations_with_replacement(range(1, 6), 3)]
            values += ring.pontryagin_p1().coords
            assert all(type(x) is int or x.denominator != 1 for x in values)
            assert any(type(x) is int and x for x in values)

    def test_class_str_matches_the_reference(self):
        rng = random.Random(14)
        for ring in (build_face_ring(projective_space(3)),
                     _delta_four_census_rings(1, 12)[0],
                     SyntheticConnectedSumRing(4, 3, (1, -1, 1))):
            tokens = ring.structure.tokens
            for _ in range(12):
                terms = {t: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                         for t in rng.sample(tokens, rng.randint(0, 4))}
                terms = {t: c for t, c in terms.items() if c}
                cls = CohomologyClass(ring, [terms.get(t, 0) for t in tokens])
                assert str(cls) == _dict_str(ring, terms)
                assert repr(cls) == f"CohomologyClass({_dict_str(ring, terms)})"
                assert cls.is_zero() == (not terms)

    def test_p1_text_is_pinned(self):
        manifests = Path(__file__).resolve().parent.parent / "manifests"
        got = {p.name: str(build_face_ring(parse_manifest(
            p.read_text()).build_manifold()).pontryagin_p1())
            for p in sorted(manifests.glob("*.ini"))}
        assert got == {"cp2.ini": "3*v3^2", "cp2_sum.ini": "6*v4^2",
                       "cp3_twisted.ini": "4*v4^2", "s2_bounding.ini": "0",
                       "s2xs2_spin.ini": "0"}
        census = off_corner_manifolds()[1:]
        assert [str(build_face_ring(m).pontryagin_p1())
                for m in census] == ["4*v3^2", "4*v3^2"]


# -- the face ring without the polytope skeleton ------------------------------

def _face_ring_reference(manifold):
    """The face ring as each ring once built it alone: its own monomial
    lists per degree, and an expansion that multiplies a monomial out into
    every free monomial before dropping those off the faces.  Returns
    (bases by degree, top value, reduce_monomial)."""
    p = manifold.polytope
    n, m = p.dimension, p.num_facets
    base = p.vertices[0]
    sign, weights = unimodular_inverse(manifold.minor(base))
    free = [f for f in range(1, m + 1) if f not in base]
    forms = {f: {f: 1} for f in free}
    for b, w in zip(base, weights):
        dots = {j: sum(x * y for x, y in zip(w, manifold.column(j)))
                for j in free}
        forms[b] = {j: -a for j, a in dots.items() if a}

    def expand(mono):
        poly = {(): 1}
        for f in mono:
            out = {}
            for t, c in poly.items():
                for j, a in forms[f].items():
                    key = tuple(sorted(t + (j,)))
                    out[key] = out.get(key, 0) + c * a
            poly = out
        return poly

    faces, non_faces = p.faces()
    monos, ideal = [()], []
    bases, reductions = [], []
    for d in range(n + 2):
        if d:
            monos = [t + (j,) for t in monos for j in free
                     if not t or j >= t[-1]]
            monos = [t for t in monos
                     if (s := tuple(sorted(set(t)))) in faces[len(s)]]
        column = {t: i for i, t in enumerate(monos)}
        polys = [{tuple(sorted(t + (j,))): c for t, c in row.items()}
                 for row in ideal for j in free]
        polys += [expand(s) for s in non_faces[d]]
        red, pivots = rref([{column[t]: c for t, c in poly.items()
                             if t in column} for poly in polys])
        reduction = {monos[c]: {monos[i]: -x for i, x in r.items() if i != c}
                     for r, c in zip(red, pivots)}
        basis = tuple(t for t in monos if t not in reduction)
        reduction.update({t: {t: 1} for t in basis})
        ideal = [{monos[i]: x for i, x in r.items()} for r in red]
        bases.append(basis)
        reductions.append(reduction)
    if len(bases[n]) != 1 or bases.pop():
        raise PropertyViolationError("inconsistent characteristic data")

    def reduce_monomial(mono):
        if len(mono) > n:
            return {}
        out = {}
        for t, c in expand(mono).items():
            for tok, x in reductions[len(mono)].get(t, {}).items():
                out[tok] = out.get(tok, 0) + c * x
        return {tok: x.numerator if x.denominator == 1 else x
                for tok, x in out.items() if x}

    top_value = Fraction(sign) / reduce_monomial(base)[bases[n][0]]
    return bases, top_value, reduce_monomial


def _summed_projective_spaces(n, k):
    """A manifold over ``_iterated_connected_sum(n, k)``: CP^n's columns on
    the first simplex, and each glued simplex's fresh facet gets minus the
    sum of the columns on the vertex it is glued at, so every new vertex
    minor is unimodular."""
    poly = simplex(n)
    cols = {j: tuple(int(i == j - 1) for i in range(n))
            for j in range(1, n + 1)}
    cols[n + 1] = (-1,) * n
    for _ in range(k - 1):
        extra = simplex(n)
        v = poly.vertices[0]
        poly = connected_sum(poly, v, extra, extra.vertices[0])
        cols[poly.num_facets] = tuple(-sum(cols[f][i] for f in v)
                                      for i in range(n))
    assert poly == _iterated_connected_sum(n, k)
    rows = [[cols[j][i] for j in range(1, poly.num_facets + 1)]
            for i in range(n)]
    return QuasitoricManifold(poly, rows, (1,) * poly.num_facets)


def _assert_matches_reference(manifold, monomials=None):
    """The ring equals the reference on its bases, Betti numbers, top value
    and every reduction, key order included; by default every facet
    monomial up to the dimension is reduced."""
    ring = build_face_ring(manifold)
    bases, top_value, reduce_monomial = _face_ring_reference(manifold)
    n = ring.dimension
    assert [ring.basis(d) for d in range(n + 1)] == bases
    assert ring.betti_numbers() == tuple(map(len, bases))
    assert ring.top_value == top_value
    if monomials is None:
        labels = range(1, ring.num_generators + 1)
        monomials = (mono for d in range(n + 1)
                     for mono in combinations_with_replacement(labels, d))
    for mono in monomials:
        assert list(ring.reduce_monomial(mono).items()) == list(
            reduce_monomial(mono).items()), mono


class TestSkeletonAgainstReference:
    """Rings expanded along the polytope skeleton against rings that build
    their own monomial lists and multiply out before they filter."""

    @pytest.mark.parametrize("manifold", [
        *(projective_space(n) for n in range(1, 5)),
        *(sphere_product(n) for n in range(1, 5))],
        ids=[f"cp{n}" for n in range(1, 5)] + [f"s2^{n}" for n in range(1, 5)])
    def test_named_manifolds(self, manifold):
        _assert_matches_reference(manifold)

    def test_manifests(self):
        manifests = Path(__file__).resolve().parent.parent / "manifests"
        paths = sorted(manifests.glob("*.ini"))
        assert len(paths) == 5
        for path in paths:
            _assert_matches_reference(
                parse_manifest(path.read_text()).build_manifold())

    def test_every_census_matrix(self):
        poly = _iterated_connected_sum(3, 2)
        mats = list(enumerate_characteristic_matrices(poly, 1))
        assert len(mats) == 88
        for rows in mats:
            _assert_matches_reference(
                QuasitoricManifold._enumerated(poly, rows))

    def test_rings_with_denominator_four(self):
        rings = _delta_four_census_rings(2, 12)
        assert len(rings) == 2
        for ring in rings:
            _assert_matches_reference(ring.manifold)

    def test_nine_dimensional_eight_fold_sum(self):
        # Every facet monomial up to degree 2, every face-supported free
        # monomial (the reduction tables) and seeded monomials of each
        # higher degree; all monomials up to degree 9 are about 3 * 10^6.
        manifold = _summed_projective_spaces(9, 8)
        skeleton = manifold.polytope.face_ring_skeleton()
        labels = range(1, 18)
        rng = random.Random(17)
        monomials = [mono for d in range(3)
                     for mono in combinations_with_replacement(labels, d)]
        monomials += [mono for block in skeleton.monomials[3:10]
                      for mono in block]
        monomials += [tuple(sorted(rng.choices(labels, k=d)))
                      for d in range(3, 10) for _ in range(40)]
        monomials += list(manifold.polytope.vertices)
        _assert_matches_reference(manifold, monomials)
        ring = build_face_ring(manifold)
        assert ring.betti_numbers() == (1,) + (8,) * 8 + (1,)


class TestSkeletonSharing:
    def test_census_rings_share_their_polytope_skeleton(self, monkeypatch):
        rings = []
        init = FaceRing.__init__

        def recording(self, manifold):
            init(self, manifold)
            rings.append(self)

        monkeypatch.setattr(FaceRing, "__init__", recording)
        finiteness_census(3, 2, 1)
        first = rings[0].skeleton
        assert len(rings) == 22
        assert all(ring.skeleton is first for ring in rings)
        assert first is rings[0].manifold.polytope.face_ring_skeleton()
        for ring in rings:
            assert [sorted(table) for table in ring._reductions] == [
                list(range(len(block))) for block in first.monomials[:3]]
        count = len(rings)
        finiteness_census(3, 2, 1)
        assert rings[count].manifold.polytope is not rings[0].manifold.polytope
        assert rings[count].skeleton is not first
        assert all(ring.skeleton is rings[count].skeleton
                   for ring in rings[count:])

    def test_no_module_level_cache(self):
        def sizes():
            return {name: len(value)
                    for name, value in vars(cohomology).items()
                    if isinstance(value, (dict, list, set))}

        def live_skeletons():
            gc.collect()
            return sum(isinstance(x, FaceRingSkeleton)
                       for x in gc.get_objects())

        finiteness_census(3, 2, 1)
        before = sizes(), live_skeletons()
        for _ in range(3):
            finiteness_census(3, 2, 1)
        assert (sizes(), live_skeletons()) == before

    def test_skeleton_shifts_multiply_by_free_classes(self):
        for p in (cube(3), _iterated_connected_sum(4, 3),
                  polytope_product(simplex(2), simplex(2))):
            skeleton = p.face_ring_skeleton()
            assert p.face_ring_skeleton() is skeleton
            faces = p.faces()[0]
            assert skeleton.free == tuple(
                f for f in range(1, p.num_facets + 1)
                if f not in p.vertices[0])
            for d, block in enumerate(skeleton.monomials):
                assert list(block) == sorted(
                    t for t in combinations_with_replacement(skeleton.free, d)
                    if tuple(sorted(set(t))) in faces[len(set(t))])
                if not d:
                    continue
                column = {t: c for c, t in enumerate(block)}
                for c, t in enumerate(skeleton.monomials[d - 1]):
                    for j, s in zip(skeleton.free, skeleton.shifts[d][c]):
                        product = tuple(sorted(t + (j,)))
                        assert s == column.get(product)


def _recorded_census_rings(monkeypatch, *census):
    """The rings ``finiteness_census(*census)`` builds, in order, with the
    number of ``rref`` calls made while each was the newest ring."""
    rings, calls = [], []
    init, real = FaceRing.__init__, cohomology.rref

    def recording(self, manifold):
        init(self, manifold)
        rings.append(self)
        calls.append(0)

    def counting(rows):
        calls[-1] += 1
        return real(rows)

    monkeypatch.setattr(FaceRing, "__init__", recording)
    monkeypatch.setattr(cohomology, "rref", counting)
    finiteness_census(*census)
    monkeypatch.undo()
    return rings, calls


class TestLazyDegrees:
    """A face ring reduces each degree the first time it is read."""

    def test_census_rings_stop_at_degree_two(self, monkeypatch):
        rings, calls = _recorded_census_rings(monkeypatch, 3, 2, 1)
        assert len(rings) == 22
        assert calls == [3] * 22
        assert all(len(ring._bases) == len(ring._reductions) == 3
                   and "top_value" not in vars(ring) for ring in rings)

    @pytest.mark.parametrize("n", [3, 4])
    def test_degree_two_is_the_same_as_in_a_full_ring(self, monkeypatch, n):
        rings, _ = _recorded_census_rings(monkeypatch, n, 2, 1)
        assert len(rings) == {3: 22, 4: 116}[n]
        for ring in rings:
            full = build_face_ring(ring.manifold)
            assert len(full.betti_numbers()) == n + 1
            assert len(full._bases) == n + 2
            assert ring._bases[:3] == full._bases[:3]
            assert ring._reductions[:3] == full._reductions[:3]
            # extending a ring read to degree 2 gives the full ring
            assert ring.betti_numbers() == full.betti_numbers()
            assert ring._bases == full._bases
            assert ring._reductions == full._reductions
            assert ring.top_value == full.top_value

    def test_the_product_path_reaches_degree_n_plus_one(self, monkeypatch):
        rings = []
        init = FaceRing.__init__

        def recording(self, manifold):
            init(self, manifold)
            rings.append(self)

        monkeypatch.setattr(FaceRing, "__init__", recording)
        cohomological_index(projective_space(3), None, 2)
        assert len(rings) == 1
        assert len(rings[0]._bases) == 3 + 2
        assert rings[0].betti_numbers() == (1, 1, 1, 1)
