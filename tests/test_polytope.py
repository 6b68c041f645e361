"""Simple polytopes, characteristic matrices, fixed-point data, enumeration."""

import random
from collections import deque
from itertools import combinations, product as iproduct

import pytest

from quasigenus import manifest, polytope
from quasigenus.cli import main
from quasigenus.errors import InputError
from quasigenus.linalg import int_det
from quasigenus.models import projective_space
from quasigenus.polytope import (QuasitoricManifold, SimplePolytope,
                                 connected_sum, cube,
                                 enumerate_characteristic_matrices, polygon,
                                 polytope_product, sign_orbit_members,
                                 sign_orbit_representatives, simplex,
                                 vertex_cut)
from quasigenus.theorems import _iterated_connected_sum


class TestConstructions:
    def test_simplex2(self):
        p = simplex(2)
        assert p.num_facets == 3
        assert p.vertices == ((1, 2), (1, 3), (2, 3))

    def test_interval(self):
        p = cube(1)
        assert p.num_facets == 2
        assert p.vertices == ((1,), (2,))

    def test_square_two_ways(self):
        assert polygon(4).vertices == cube(2).vertices
        assert polygon(4).num_facets == cube(2).num_facets

    def test_interval_product_is_square(self):
        sq = polytope_product(cube(1), cube(1))
        assert sq.dimension == 2
        assert sq.num_facets == 4
        assert len(sq.vertices) == 4

    def test_product_vertex_count_multiplies(self):
        for p, q in [(simplex(2), simplex(1)), (cube(2), simplex(2)),
                     (polygon(5), cube(1))]:
            prod = polytope_product(p, q)
            assert len(prod.vertices) == len(p.vertices) * len(q.vertices)
            assert prod.num_facets == p.num_facets + q.num_facets
            assert prod.dimension == p.dimension + q.dimension

    def test_prism_enumeration(self):
        # oracle: direct enumeration of simplex(1) x simplex(2).
        # First factor facets 1,2; second factor facets 1,2,3 shift to 3,4,5.
        expected = sorted(
            tuple(sorted(a + tuple(f + 2 for f in b)))
            for a in [(1,), (2,)]
            for b in [(1, 2), (1, 3), (2, 3)])
        prism = polytope_product(simplex(1), simplex(2))
        assert prism.num_facets == 5
        assert len(prism.vertices) == 6
        assert list(prism.vertices) == expected

    def test_vertex_cut(self):
        cut = vertex_cut(simplex(2), (1, 2))
        assert cut.num_facets == 4
        assert len(cut.vertices) == 4
        assert (1, 4) in cut.vertices and (2, 4) in cut.vertices
        with pytest.raises(InputError):
            vertex_cut(simplex(2), (1, 5))

    def test_connected_sum_of_triangles_is_square(self):
        # oracle: hand enumeration of the glued complex.  Cut {1,2} from
        # both triangles; facets 1,2 of the second are glued to 1,2 of the
        # first, facet 3 becomes the fresh label 4.  Surviving vertices:
        # {1,3},{2,3} from the first and {1,4},{2,4} from the second,
        # which is a 4-cycle: the square.
        s = connected_sum(simplex(2), (1, 2), simplex(2), (1, 2))
        assert s.num_facets == 4
        assert sorted(s.vertices) == [(1, 3), (1, 4), (2, 3), (2, 4)]

    def test_connected_sum_counts(self):
        for p, vp, q, vq in [
                (simplex(3), (1, 2, 3), simplex(3), (2, 3, 4)),
                (cube(2), (1, 2), simplex(2), (1, 3))]:
            s = connected_sum(p, vp, q, vq)
            assert len(s.vertices) == len(p.vertices) + len(q.vertices) - 2
            assert s.num_facets == p.num_facets + q.num_facets - p.dimension

    def test_faces_and_minimal_non_faces_by_brute_force(self):
        cases = [simplex(3), cube(3), polygon(5),
                 vertex_cut(simplex(3), (1, 2, 3)),
                 polytope_product(simplex(2), simplex(2)),
                 connected_sum(simplex(3), (1, 2, 3), simplex(3), (1, 2, 3))]
        for p in cases:
            faces, non_faces = p.faces()
            n, m = p.dimension, p.num_facets
            assert len(faces) == len(non_faces) == n + 2
            for r in range(n + 2):
                subsets = list(combinations(range(1, m + 1), r))
                want = {s for s in subsets
                        if any(set(s) <= set(v) for v in p.vertices)}
                assert faces[r] == want
                assert sorted(non_faces[r]) == [
                    s for s in subsets if s not in want
                    and all(c in faces[r - 1] for c in combinations(s, r - 1))]
            assert p.faces() is p.faces()


class TestValidation:
    def test_ridge_condition(self):
        with pytest.raises(InputError):
            SimplePolytope(2, 4, [(1, 2), (2, 3), (3, 4)])

    def test_disconnected_edge_graph(self):
        # two triangles: every ridge lies in two vertices
        with pytest.raises(InputError, match="disconnected"):
            SimplePolytope(2, 6, [(1, 2), (2, 3), (1, 3),
                                  (4, 5), (5, 6), (4, 6)])

    def test_unused_facet(self):
        with pytest.raises(InputError):
            SimplePolytope(1, 3, [(1,), (2,)])

    def test_wrong_vertex_size(self):
        with pytest.raises(InputError):
            SimplePolytope(2, 3, [(1, 2, 3)])

    @pytest.mark.parametrize("n", [0, -1])
    def test_cube_dimension_below_one(self, n):
        with pytest.raises(InputError, match="at least 1"):
            cube(n)


def perm_parity(perm):
    """Sign of a permutation given as a sequence of distinct comparables."""
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _orientation_reference(p):
    """Reference signs eps(v): a breadth-first walk over the vertex-edge
    graph, each ridge crossing flipping the sign, corrected by the
    parities of the shuffles that move the swapped facet to the end of
    each vertex, each parity counted by ``perm_parity``."""
    ridges = {}
    for v in p.vertices:
        for r in combinations(v, p.dimension - 1):
            ridges.setdefault(r, []).append(v)
    adj = {}
    for r, (a, b) in sorted(ridges.items()):
        adj.setdefault(a, []).append((b, r))
        adj.setdefault(b, []).append((a, r))

    def shuffle_sign(vertex, ridge):
        extra = next(f for f in vertex if f not in ridge)
        return perm_parity([*sorted(ridge), extra])

    eps = {p.vertices[0]: 1}
    queue = deque([p.vertices[0]])
    while queue:
        a = queue.popleft()
        for b, r in adj[a]:
            val = -eps[a] * shuffle_sign(a, r) * shuffle_sign(b, r)
            if b in eps:
                assert eps[b] == val
            else:
                eps[b] = val
                queue.append(b)
    return eps


def _orientation_cases():
    """82 polytopes: simplices and cubes of dimension 1-5, the 3- to
    8-gons, two products, four iterated sums and 60 seeded chains of
    vertex cuts."""
    cases = [f(n) for f in (simplex, cube) for n in range(1, 6)]
    cases += [polygon(k) for k in range(3, 9)]
    cases += [polytope_product(simplex(2), cube(1)),
              polytope_product(polygon(5), simplex(2))]
    cases += [_iterated_connected_sum(n, k)
              for n, k in ((3, 2), (3, 3), (4, 2), (4, 3))]
    rng = random.Random(33)
    for _ in range(60):
        p = rng.choice([simplex(2), simplex(3), simplex(4), cube(2), cube(3),
                        polygon(5)])
        for _ in range(rng.randint(1, 4)):
            p = vertex_cut(p, rng.choice(p.vertices))
        cases.append(p)
    return cases


# The 6-vertex real projective plane: its 10 triangles as vertices of a
# 3-dimensional "polytope" with 6 facets.  Every ridge lies in two
# vertices and the vertex-edge graph is connected.
RP2 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6), (2, 3, 5),
       (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)]


class TestOrientation:
    def test_reference_perm_parity(self):
        assert perm_parity([1, 2, 3]) == 1
        assert perm_parity([2, 1, 3]) == -1
        assert perm_parity([3, 1, 2]) == 1

    def test_walk_matches_the_reference(self):
        cases = _orientation_cases()
        assert len(cases) >= 80
        for p in cases:
            assert p.orientation == _orientation_reference(p)
            assert set(p.orientation) == set(p.vertices)

    def test_one_walk_per_polytope(self, monkeypatch):
        calls = []
        real = polytope._orient
        monkeypatch.setattr(polytope, "_orient",
                            lambda vertices: calls.append(1) or real(vertices))
        m = projective_space(3)
        assert len(calls) == 1
        m.fixed_points()
        assert m.orientation_signs() is m.polytope.orientation
        assert m.orientation_signs() == _orientation_reference(m.polytope)
        assert len(calls) == 1

    def test_projective_plane_is_refused(self):
        with pytest.raises(InputError, match="not an orientable sphere"):
            SimplePolytope(3, 6, RP2)

    @pytest.mark.parametrize("argv", [["describe"], ["genus"],
                                      ["verify", "--theorem", "lemma52"]])
    def test_projective_plane_manifest_exits_2(self, tmp_path, capsys, argv):
        path = tmp_path / "rp2.ini"
        path.write_text(
            "[polytope]\ndimension = 3\nfacets = 6\n"
            + "".join("vertex = {%d %d %d}\n" % v for v in RP2)
            + "\n[characteristic]\nrow = 1 0 0 -1 -1 0\n"
            "row = 0 1 0 -1 -1 -1\nrow = 0 0 1 -1 0 -1\n"
            "\n[spinc]\ngamma = 1 1 1 1 1 1\n")
        assert main([argv[0], str(path), *argv[1:]]) == 2
        assert "not an orientable sphere" in capsys.readouterr().err


# The 7-vertex torus: 14 triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7
# as vertices of a 3-dimensional "polytope" with 7 facets.  It is
# connected, orientable and has every ridge in two vertices, but its
# h-vector (1, 4, 10, -1) is neither nonnegative nor symmetric.
TORUS = [tuple(sorted((i + k) % 7 + 1 for k in ks))
         for i in range(7) for ks in ((0, 1, 3), (0, 2, 3))]


class TestSphereCheck:
    def test_torus_builds_and_has_a_torus_h_vector(self):
        assert SimplePolytope(3, 7, TORUS).h_vector() == (1, 4, 10, -1)

    @pytest.mark.parametrize("argv", [["describe"], ["genus"],
                                      ["verify", "--theorem", "lemma52"]])
    def test_torus_manifest_exits_2(self, tmp_path, capsys, argv):
        path = tmp_path / "torus.ini"
        path.write_text(
            "[polytope]\ndimension = 3\nfacets = 7\n"
            + "".join("vertex = {%d %d %d}\n" % v for v in TORUS)
            + "\n[characteristic]\nrow = 1 0 0 1 0 1 1\n"
            "row = 0 1 0 1 1 0 1\nrow = 0 0 1 0 1 1 1\n"
            "\n[spinc]\ngamma = 1 1 1 1 1 1 1\n")
        assert main([argv[0], str(path), *argv[1:]]) == 2
        assert "h-vector (1, 4, 10, -1)" in capsys.readouterr().err

    def test_constructed_polytopes_pass_as_listings(self):
        for p in (simplex(3), cube(3), polygon(5), _iterated_connected_sum(3, 2),
                  polytope_product(simplex(2), simplex(2))):
            spec = ("explicit", p.dimension, p.num_facets, p.vertices)
            assert manifest._build_polytope(spec) == p


class TestCharacteristicMatrices:
    def test_cp2_matrix_accepted(self):
        # oracle: the three 2x2 minors are
        #   [(1,0),(0,1)] det 1, [(1,0),(-1,-1)] det -1, [(0,1),(-1,-1)] det 1
        lam = [[1, 0, -1], [0, 1, -1]]
        dets = []
        for v in simplex(2).vertices:
            cols = [tuple(row[f - 1] for row in lam) for f in v]
            dets.append(cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0])
        assert sorted(abs(d) for d in dets) == [1, 1, 1]
        QuasitoricManifold(simplex(2), lam, (1, 1, 1))

    def test_bad_minor_rejected(self):
        lam = [[1, 0, 0], [0, 1, 2]]
        with pytest.raises(InputError, match="determinant"):
            QuasitoricManifold(simplex(2), lam, (1, 1, 1))

    def test_interval_spin_model(self):
        m = QuasitoricManifold(cube(1), [[1, 1]], (1, 1))
        assert m.dimension == 1

    def test_even_twist_rejected(self):
        with pytest.raises(InputError, match="even"):
            QuasitoricManifold(cube(1), [[1, 1]], (1, 2))

    def test_shape_check(self):
        with pytest.raises(InputError):
            QuasitoricManifold(simplex(2), [[1, 0, -1]], (1, 1, 1))


class TestFixedPoints:
    def test_cp2_identity_vertex(self):
        m = QuasitoricManifold(simplex(2), [[1, 0, -1], [0, 1, -1]], (1, 1, 1))
        fp = {d.vertex: d for d in m.fixed_points()}
        assert fp[(1, 2)].weights == ((1, 0), (0, 1))
        assert fp[(1, 2)].sign == 1

    def test_cp2_dual_basis_vertex(self):
        # oracle: weights are rows of the inverse of the minor with columns
        # lambda_2=(0,1), lambda_3=(-1,-1).  Solve by hand:
        #   minor [[0,-1],[1,-1]], inverse [[-1,1],[-1,0]] (det 1).
        minor = [[0, -1], [1, -1]]
        assert int_det(minor) == 1
        inverse = [[-1, 1], [-1, 0]]
        for i in range(2):
            for j in range(2):
                acc = sum(inverse[i][k] * minor[k][j] for k in range(2))
                assert acc == (1 if i == j else 0)
        m = QuasitoricManifold(simplex(2), [[1, 0, -1], [0, 1, -1]], (1, 1, 1))
        fp = {d.vertex: d for d in m.fixed_points()}
        assert fp[(2, 3)].weights == ((-1, 1), (-1, 0))

    def test_interval_spin_weights(self):
        m = QuasitoricManifold(cube(1), [[1, 1]], (1, 1))
        data = m.fixed_points()
        assert [d.weights for d in data] == [((1,),), ((1,),)]
        # both minors have determinant 1; the two ends of the interval
        # carry opposite orientations, and so opposite oriented signs
        assert [d.sign for d in data] == [1, -1]

    def test_orientation_signs_consistent(self):
        m = QuasitoricManifold(simplex(2), [[1, 0, -1], [0, 1, -1]], (1, 1, 1))
        signs = m.orientation_signs()
        assert signs[m.polytope.vertices[0]] == 1
        assert set(signs.values()) <= {1, -1}
        # each fixed point carries eps(v) det, and every combination of the
        # two factors' signs occurs
        seen = set()
        for p in (simplex(2), cube(2), vertex_cut(simplex(3), (1, 2, 3))):
            for mat in enumerate_characteristic_matrices(p, 1):
                m = QuasitoricManifold(p, mat, (1,) * p.num_facets)
                for d in m.fixed_points():
                    pair = (p.orientation[d.vertex], int_det(m.minor(d.vertex)))
                    assert d.sign == pair[0] * pair[1]
                    seen.add(pair)
        assert len(seen) == 4


class TestOneInversionPerVertex:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"unimodular_inverse": [], "int_det": []}
        for name, seen in calls.items():
            real = getattr(polytope, name)
            monkeypatch.setattr(
                polytope, name,
                lambda mat, real=real, seen=seen: seen.append(mat) or real(mat))
        return calls

    def test_each_minor_is_inverted_once(self, calls):
        m = projective_space(4)
        minors = [m.minor(v) for v in m.polytope.vertices]
        assert calls["unimodular_inverse"] == minors
        assert len(minors) == 5
        m.fixed_points()
        assert len(calls["unimodular_inverse"]) == 5
        assert calls["int_det"] == []

    def test_refused_minor_names_its_determinant(self, calls):
        with pytest.raises(InputError,
                           match=r"vertex \(1, 3\) has characteristic minor "
                                 r"determinant 2"):
            QuasitoricManifold(simplex(2), [[1, 0, 0], [0, 1, 2]], (1, 1, 1))
        assert len(calls["int_det"]) == 1

    def test_enumerated_manifolds_invert_nothing(self, calls):
        poly = _iterated_connected_sum(3, 2)
        rows = next(sign_orbit_representatives(poly, 1))
        m = QuasitoricManifold._enumerated(poly, rows)
        assert calls["unimodular_inverse"] == []
        assert m._fixed is None


class TestEnumeration:
    def test_interval_bound_one(self):
        # oracle: gauge fixes column 1 to (1); column 2 ranges over
        # {-1, 0, 1} and needs |det| = 1, so (1) and (-1) survive.
        got = sorted(enumerate_characteristic_matrices(cube(1), 1))
        assert got == [((1, -1),), ((1, 1),)]

    def test_triangle_bound_one(self):
        # oracle: brute force over all 9 candidate third columns (a, b),
        # a, b in {-1, 0, 1}; vertices {1,3} and {2,3} demand |b| = 1
        # and |a| = 1 respectively.
        survivors = []
        for a, b in iproduct((-1, 0, 1), repeat=2):
            if abs(b) == 1 and abs(a) == 1:
                survivors.append((a, b))
        assert len(survivors) == 4
        got = list(enumerate_characteristic_matrices(simplex(2), 1))
        assert len(got) == 4
        third_columns = sorted((mat[0][2], mat[1][2]) for mat in got)
        assert third_columns == sorted(survivors)
        for mat in got:
            assert (mat[0][:2], mat[1][:2]) == ((1, 0), (0, 1))

    def test_bound_zero_empty(self):
        assert list(enumerate_characteristic_matrices(simplex(2), 0)) == []

    def test_every_emitted_matrix_is_valid(self):
        for mat in enumerate_characteristic_matrices(simplex(2), 1):
            QuasitoricManifold(simplex(2), mat, (1, 1, 1))

    def test_enumerated_manifolds_equal_constructed_ones(self):
        # the census skips the constructor's minor checks, which the
        # enumeration has already made; nothing else may differ
        for p in (simplex(3), cube(2), vertex_cut(simplex(3), (1, 2, 3))):
            for mat in enumerate_characteristic_matrices(p, 1):
                fast = QuasitoricManifold._enumerated(p, mat)
                full = QuasitoricManifold(p, mat, (1,) * p.num_facets)
                assert (fast.polytope, fast.char_matrix, fast.spin_c) == (
                    full.polytope, full.char_matrix, full.spin_c)
                assert [(d.vertex, d.weights, d.sign)
                        for d in fast.fixed_points()] == [
                    (d.vertex, d.weights, d.sign) for d in full.fixed_points()]
                assert fast.orientation_signs() == full.orientation_signs()

    @pytest.mark.parametrize("poly", [
        simplex(3), cube(2), vertex_cut(simplex(3), (1, 2, 3)),
        _iterated_connected_sum(3, 2)])
    def test_matches_full_minor_oracle(self, poly):
        # oracle: every gauge-fixed candidate, in backtracking order, kept
        # when each vertex's full n x n minor is unimodular
        n, m = poly.dimension, poly.num_facets
        base = poly.vertices[0]
        free = [f for f in range(1, m + 1) if f not in base]
        unit = {f: tuple(int(i == k) for i in range(n))
                for k, f in enumerate(base)}
        boxes = list(iproduct((-1, 0, 1), repeat=n))
        expected = []
        for choice in iproduct(boxes, repeat=len(free)):
            cols = dict(unit)
            cols.update(zip(free, choice))
            if all(int_det([[cols[f][i] for f in v] for i in range(n)])
                   in (1, -1) for v in poly.vertices):
                expected.append(tuple(
                    tuple(cols[f][i] for f in range(1, m + 1))
                    for i in range(n)))
        assert list(enumerate_characteristic_matrices(poly, 1)) == expected



def _enumerate_reference(poly, bound):
    """The backtracking enumeration over every sign, as it was before the
    sign-orbit cut: free columns run through [-bound, bound]^n in iproduct
    order, and each vertex's full n x n minor goes through int_det once
    all of its columns are decided."""
    n, m = poly.dimension, poly.num_facets
    base = poly.vertices[0]
    free = [f for f in range(1, m + 1) if f not in base]
    cols = {f: tuple(int(i == k) for i in range(n)) for k, f in enumerate(base)}
    closing = [[v for v in poly.vertices
                if max((free.index(f) for f in v if f in free), default=-1)
                == idx] for idx in range(len(free))]
    boxes = list(iproduct(range(-bound, bound + 1), repeat=n))
    out = []

    def rec(idx):
        if idx == len(free):
            out.append(tuple(tuple(cols[f][i] for f in range(1, m + 1))
                             for i in range(n)))
            return
        for cand in boxes:
            cols[free[idx]] = cand
            if all(int_det([[cols[f][i] for f in v] for i in range(n)])
                   in (1, -1) for v in closing[idx]):
                rec(idx + 1)

    rec(0)
    return out


ORBIT_CASES = [(simplex(3), 1), (simplex(3), 2), (cube(2), 1), (cube(3), 1),
               (_iterated_connected_sum(3, 2), 2),
               (_iterated_connected_sum(4, 2), 1)]


class TestSignOrbits:
    @pytest.mark.parametrize("poly, bound", ORBIT_CASES)
    def test_matches_reference_in_order(self, poly, bound):
        assert (list(enumerate_characteristic_matrices(poly, bound))
                == _enumerate_reference(poly, bound))

    @pytest.mark.parametrize("poly, bound", ORBIT_CASES)
    def test_representatives_have_positive_leads(self, poly, bound):
        n, m = poly.dimension, poly.num_facets
        free = [f for f in range(1, m + 1) if f not in poly.vertices[0]]
        reps = list(sign_orbit_representatives(poly, bound))
        for rows in reps:
            for f in free:
                assert next(x for x in (row[f - 1] for row in rows) if x) > 0
        total = len(list(enumerate_characteristic_matrices(poly, bound)))
        assert total == 2 ** (m - n) * len(reps)

    def test_cube_count(self):
        assert len(list(enumerate_characteristic_matrices(cube(3), 1))) == 872

    @pytest.mark.parametrize("poly, bound", ORBIT_CASES[:2] + ORBIT_CASES[3:5])
    def test_order_is_the_sorted_orbit_members(self, poly, bound):
        members = sign_orbit_members(
            poly, sign_orbit_representatives(poly, bound))
        assert (list(enumerate_characteristic_matrices(poly, bound))
                == [rows for rows, _ in members])

    def test_first_matrix_comes_before_the_rest_are_built(self, monkeypatch):
        # cube(4) at bound 1 has 151184 matrices; the first needs
        # under a hundred determinants, and the second a few more
        calls = []
        real = polytope.int_det
        monkeypatch.setattr(polytope, "int_det",
                            lambda rows: calls.append(rows) or real(rows))
        matrices = enumerate_characteristic_matrices(cube(4), 1)
        first = next(matrices)
        assert first == ((1, 0, 0, 0, -1, 0, 0, 0), (0, 1, 0, 0, -1, -1, 0, 0),
                         (0, 0, 1, 0, -1, -1, -1, 0),
                         (0, 0, 0, 1, -1, -1, -1, -1))
        assert len(calls) < 100
        assert next(matrices)[3][7] == 1
        assert len(calls) < 120
        QuasitoricManifold(cube(4), first, (1,) * 8)

    def test_charge_sees_candidates_then_columns(self):
        # simplex(2): 3^2 candidates filtered for its one free column, then
        # that column's candidates, the two with entries +-1 and a positive
        # lead, as the backtracking enters it
        charged = []
        reps = list(sign_orbit_representatives(simplex(2), 1, charged.append))
        assert charged == [9, 2]
        assert [rows[0][2] for rows in reps] == [1, 1]


def test_random_polytopes_stay_simple():
    rng = random.Random(909)
    base = [simplex(2), simplex(3), cube(2), polygon(5)]
    for _ in range(40):
        p = rng.choice(base)
        op = rng.randrange(3)
        if op == 0:
            q = vertex_cut(p, rng.choice(p.vertices))
        elif op == 1:
            q = polytope_product(p, cube(1))
        else:
            other = rng.choice(base)
            if other.dimension != p.dimension:
                continue
            q = connected_sum(p, rng.choice(p.vertices),
                              other, rng.choice(other.vertices))
        # the SimplePolytope constructor re-validates simplicity and
        # connectivity; reaching here means the construction is closed
        assert q.dimension == p.dimension or op == 1
        assert q.vertices
