"""Property tests of exact division by binomials t^m - 1 in Z[t], packed
into ints, run when hypothesis is installed (the ``test`` extra)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st

from quasigenus.exactalg import (divide_binomials, pack_slots, slot_size,
                                 unpack_slots)

polynomials = st.lists(st.integers(-50, 50), min_size=1, max_size=40)
exponent_maps = st.dictionaries(st.integers(1, 25), st.integers(1, 3),
                                max_size=5)


@seed(28)
@settings(max_examples=200, deadline=None, database=None)
@given(polynomials, exponent_maps, st.data())
def test_undoing_an_exponent_map_gives_the_polynomial_back(a, exponents,
                                                           data):
    # packed at t = X, a times D = prod (t^m - 1)^e is a(X) D(X), whose
    # coefficients each binomial at most doubles; at every width that holds
    # them it divides back to a, and one more t^i makes it refused
    count = len(a) + sum(m * e for m, e in exponents.items())
    least = slot_size(max(map(abs, a)) << sum(exponents.values()))
    for size in sorted({least, least + 1, 8, 9, 13}):
        if size < least:
            continue
        x = 1 << 8 * size
        value = pack_slots(a, size)
        for m, e in exponents.items():
            value *= (x ** m - 1) ** e
        assert divide_binomials(value, count, size, exponents) == a
        if exponents:
            i = data.draw(st.integers(0, count - 1))
            step = -1 if unpack_slots(value, count, size)[i] > 0 else 1
            assert divide_binomials(value + step * x ** i, count, size,
                                    exponents) is None
