"""Property test of the generic circle search, run when hypothesis is
installed (the ``test`` extra): the pruned depth-first search returns the
circles that costing every vector of every box returns."""

from functools import cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st

from quasigenus.genus import BundleSpec, choose_generic_circles
from quasigenus.polytope import (QuasitoricManifold, cube,
                                 enumerate_characteristic_matrices, simplex,
                                 vertex_cut)

from test_genus import _circles_by_full_boxes

POLYTOPES = {"simplex(3)": lambda: simplex(3),
             "cube(2)": lambda: cube(2),
             "cube(3)": lambda: cube(3),
             "vertex_cut(simplex(3))": lambda: vertex_cut(simplex(3), (1, 2, 3))}


@cache
def _matrices(name):
    polytope = POLYTOPES[name]()
    return polytope, list(enumerate_characteristic_matrices(polytope, 1))


@st.composite
def cases(draw):
    polytope, matrices = _matrices(draw(st.sampled_from(sorted(POLYTOPES))))
    rows = draw(st.sampled_from(matrices))
    m = polytope.num_facets
    line = st.lists(st.integers(-3, 3), min_size=m, max_size=m)
    v_lines = draw(st.lists(line, max_size=2))
    w_lines = draw(st.lists(line, max_size=2))
    if w_lines:
        # a W part whose coefficients sum to an even vector is spin
        w_lines[-1] = [c + sum(other[j] for other in w_lines) % 2
                       for j, c in enumerate(w_lines[-1])]
    manifold = QuasitoricManifold(polytope, rows, (1,) * m)
    return manifold, BundleSpec(v_lines, w_lines), draw(st.integers(1, 3))


@seed(19)
@settings(max_examples=150, deadline=None, database=None)
@given(cases())
def test_search_matches_full_boxes(case):
    manifold, bundles, count = case
    got = choose_generic_circles(manifold, bundles, count)
    assert [c.xi for c in got] == _circles_by_full_boxes(
        manifold, bundles, count)
