"""Property tests of the binomial passes in Z[t], run when hypothesis is
installed (the ``test`` extra)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st

from quasigenus.exactalg import binomial_passes

polynomials = st.lists(st.integers(-50, 50), min_size=1, max_size=40)
exponent_maps = st.dictionaries(st.integers(1, 25), st.integers(-3, 3),
                                max_size=5)


@seed(23)
@settings(max_examples=200, deadline=None, database=None)
@given(polynomials, exponent_maps)
def test_undoing_an_exponent_map_gives_the_polynomial_back(a, exponents):
    # a times the binomials of the negative exponents is divisible by all
    # of them, so the map applies exactly and its negation undoes it
    start, exact = binomial_passes(
        a, {m: -e for m, e in exponents.items() if e < 0})
    assert exact
    image, exact = binomial_passes(start, exponents)
    assert exact
    back, exact = binomial_passes(image, {m: -e for m, e in exponents.items()})
    assert exact
    assert back == start
