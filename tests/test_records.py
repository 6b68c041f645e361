"""Localization on fixed-point records alone.

Localization reads a manifold only through ``dimension``, ``num_facets``,
``spin_c`` and ``fixed_points()``, each record giving the facets
``vertex`` through it, its oriented ``sign`` and its tangent ``weights``.
The records here are plain objects, built without the polytope module:
the two poles of an even sphere, CP^2 written out by hand, and products,
whose records are the pairs of their factors' fixed points.
"""

from types import SimpleNamespace

import pytest

from quasigenus.errors import PropertyViolationError
from quasigenus.genus import (choose_generic_circles, equivariant_index,
                              euler_characteristic, index, signature)
from quasigenus.models import (cp2_connected_sum, projective_space,
                               sphere_product)
from quasigenus.theorems import anomaly_coefficient


class Records:
    """A manifold given by its fixed-point records and nothing else."""

    def __init__(self, dimension, num_facets, spin_c, points):
        self.dimension, self.num_facets = dimension, num_facets
        self.spin_c, self.points = tuple(spin_c), tuple(points)

    def fixed_points(self):
        return self.points


def record(vertex, sign, weights):
    return SimpleNamespace(vertex=tuple(vertex), sign=sign,
                           weights=tuple(map(tuple, weights)))


def even_sphere(n):
    """S^2n: two poles over the facets 1..n, both with the weights
    e_1..e_n of C^n, oriented oppositely."""
    units = [[int(i == k) for i in range(n)] for k in range(n)]
    return Records(n, n, (1,) * n,
                   [record(range(1, n + 1), sign, units) for sign in (1, -1)])


def hand_cp2():
    """CP^2 over the triangle with characteristic columns (1, 0), (0, 1),
    (-1, -1): the weights at a vertex are the dual basis of its two
    columns, and every oriented sign is +1, the complex orientation."""
    return Records(2, 3, (1, 1, 1), [
        record((1, 2), 1, [(1, 0), (0, 1)]),
        record((1, 3), 1, [(1, -1), (0, -1)]),
        record((2, 3), 1, [(-1, 1), (-1, 0)])])


def product(first, second):
    """M x N: a record per pair of fixed points, with the second factor's
    facets shifted past the first's, the weights concatenated (each padded
    with zeros on the other factor's coordinates) and the signs
    multiplied; the twist vectors are concatenated."""
    m, n = first.dimension, second.dimension
    shift = first.num_facets
    points = [record(a.vertex + tuple(f + shift for f in b.vertex),
                     a.sign * b.sign,
                     [w + (0,) * n for w in a.weights]
                     + [(0,) * m + w for w in b.weights])
              for a in first.fixed_points() for b in second.fixed_points()]
    return Records(m + n, shift + second.num_facets,
                   first.spin_c + second.spin_c, points)


def flipped(manifold, i=0):
    """The records with record i's sign negated."""
    points = list(manifold.fixed_points())
    r = points[i]
    points[i] = record(r.vertex, -r.sign, r.weights)
    return Records(manifold.dimension, manifold.num_facets, manifold.spin_c,
                   points)


def assert_fails(check, manifold, want):
    """check(manifold) raises PropertyViolationError or differs from want."""
    try:
        got = check(manifold)
    except PropertyViolationError:
        return
    assert got != want


def index_to_q4(manifold):
    return index(manifold, None, 4)


def generic_character(manifold):
    xi = choose_generic_circles(manifold, count=1)[0]
    return equivariant_index(manifold, xi, None, 4).series


@pytest.mark.parametrize("n", [2, 3])
def test_even_sphere(n):
    sphere = even_sphere(n)
    assert euler_characteristic(sphere) == 2
    assert signature(sphere) == 0
    assert list(index_to_q4(sphere).coeffs) == [0] * 5
    xi = choose_generic_circles(sphere, count=1)[0].xi
    assert equivariant_index(sphere, xi, None, 4).is_identically_zero()
    assert anomaly_coefficient(sphere, xi) == -sum(x * x for x in xi)
    # the Euler characteristic counts the records and reads no sign; every
    # sum over them fails once one sign is flipped
    tampered = flipped(sphere)
    assert euler_characteristic(tampered) == 2
    assert_fails(signature, tampered, 0)
    assert_fails(index_to_q4, tampered, index_to_q4(sphere))
    assert_fails(generic_character, tampered, generic_character(sphere))


def test_hand_written_cp2_equals_the_constructed_one():
    hand, built = hand_cp2(), projective_space(2)
    assert euler_characteristic(hand) == 3
    assert index_to_q4(hand) == index_to_q4(built)
    assert signature(hand) == signature(built) == 1
    character = equivariant_index(hand, (1, 2), None, 1)
    assert character == equivariant_index(built, (1, 2), None, 1)
    assert character.q_coefficient(1).coeffs.keys() - {0}
    for i in range(3):
        tampered = flipped(hand, i)
        assert_fails(index_to_q4, tampered, index_to_q4(built))
        assert_fails(signature, tampered, 1)
        assert_fails(lambda m: equivariant_index(m, (1, 2), None, 1),
                     tampered, character)


@pytest.mark.parametrize("first, second, count, sigma", [
    (projective_space(2), sphere_product(2), 12, 0),
    (projective_space(3), projective_space(3), 16, 0),
    (sphere_product(3), sphere_product(3), 64, 0),
    (cp2_connected_sum(), projective_space(2), 12, -2)],
    ids=["cp2 x (s2)^2", "cp3 x cp3", "(s2)^3 x (s2)^3", "cp2#cp2 x cp2"])
def test_product_records_multiply(first, second, count, sigma):
    both = product(first, second)
    assert euler_characteristic(both) == count
    want = index_to_q4(first) * index_to_q4(second)
    assert index_to_q4(both) == want
    assert signature(both) == signature(first) * signature(second) == sigma
    tampered = flipped(both, count // 2)
    assert_fails(index_to_q4, tampered, want)
    assert_fails(signature, tampered, sigma)
