"""Half-integer Laurent polynomials, q-series, binomial quotients, and
exact division by binomials t^m - 1 in Z[t], packed into ints."""

import random
from fractions import Fraction
from operator import add

import pytest

from quasigenus.exactalg import (HalfLaurent, QSeries, _divide_mersenne,
                                 binomial_exponents, binomial_quotient,
                                 divide_binomials, divisors, pack_slots,
                                 slot_size, unpack_slots)


def brute_convolution(a, b, order):
    """Multiply coefficient lists directly, the defining formula."""
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        for j, y in enumerate(b[: order + 1]):
            if i + j <= order:
                out[i + j] += Fraction(x) * Fraction(y)
    return out


class TestQSeries:
    def test_difference_of_squares(self):
        one_plus = QSeries([1, 1, 0], 2)
        one_minus = QSeries([1, -1, 0], 2)
        assert (one_plus * one_minus) == QSeries([1, 0, -1], 2)

    def test_multiplicative_identity(self):
        a = QSeries([3, -2, 5], 2)
        assert a * QSeries([1, 0, 0], 2) == a

    def test_geometric_series_telescopes(self):
        # oracle: brute-force convolution of [1,1,1,1,1,1] with [1,-1,0,...]
        geo = [1] * 6
        lin = [1, -1, 0, 0, 0, 0]
        expect = brute_convolution(geo, lin, 5)
        assert expect == [1, 0, 0, 0, 0, 0]
        got = QSeries(geo, 5) * QSeries(lin, 5)
        assert got == QSeries(expect, 5)

    def test_invert_one_minus_q(self):
        inv = QSeries([1, -1, 0, 0], 3).invert()
        assert inv == QSeries([1, 1, 1, 1], 3)

    def test_invert_square(self):
        # oracle: square the geometric series by convolution
        geo = [1, 1, 1]
        expect = brute_convolution(geo, geo, 2)
        assert expect == [1, 2, 3]
        sq = QSeries([1, -2, 1], 2)
        assert sq.invert() == QSeries(expect, 2)

    def test_invert_random_roundtrip(self):
        rng = random.Random(11)
        for _ in range(60):
            order = rng.randint(0, 5)
            coeffs = [Fraction(rng.randint(1, 5))]
            coeffs += [Fraction(rng.randint(-4, 4)) for _ in range(order)]
            a = QSeries(coeffs, order)
            assert a * a.invert() == QSeries([1] + [0] * order, order)

    def test_invert_needs_unit(self):
        with pytest.raises(ArithmeticError):
            QSeries([0, 1], 1).invert()


class TestHalfLaurent:
    def test_addition_and_value_at_one(self):
        f = HalfLaurent({2: 1, -2: 1})  # doubled exponents: t + t^-1
        assert f.value_at_one() == 2

    def test_str_uses_halves(self):
        f = HalfLaurent({3: 2})
        assert "t^(3/2)" in str(f)

    def test_equality_drops_zeros(self):
        a = HalfLaurent({4: 0})
        assert a == 0
        assert not a

    def test_shift(self):
        f = HalfLaurent({2: 1})
        assert f.shift(-2) == 1

    def test_integral_coefficients_are_stored_as_int(self):
        f = HalfLaurent({2: 3, -1: Fraction(4, 2), 5: Fraction(-7)})
        assert f.coeffs == {2: 3, -1: 2, 5: -7}
        assert all(type(c) is int for c in f.coeffs.values())
        assert type(f.value_at_one()) is int and f.value_at_one() == -2

    def test_non_integral_coefficients_stay_fractions(self):
        f = HalfLaurent({1: Fraction(1, 2), 3: Fraction(6, 4)})
        assert f.coeffs == {1: Fraction(1, 2), 3: Fraction(3, 2)}
        assert all(type(c) is Fraction for c in f.coeffs.values())
        # a value at t = 1 that is integral is an int again
        assert type(f.value_at_one()) is int and f.value_at_one() == 2

    def test_zeros_are_dropped(self):
        f = HalfLaurent({0: 0, 2: Fraction(0), 4: Fraction(0, 5), 6: 1})
        assert f.coeffs == {6: 1}
        assert HalfLaurent({1: 0}).coeffs == {}

    @pytest.mark.parametrize("c", [0.0, 1.0, 0.5, -0.0])
    def test_floats_raise(self, c):
        with pytest.raises(TypeError):
            HalfLaurent({2: c})

    def test_equality_across_int_and_fraction_inputs(self):
        assert HalfLaurent({2: 3, 1: Fraction(1, 2)}) == HalfLaurent(
            {2: Fraction(6, 2), 1: Fraction(1, 2)})
        assert HalfLaurent({0: Fraction(5, 1)}) == 5
        assert HalfLaurent({0: 5}) == Fraction(5)
        assert HalfLaurent({0: 2}) != HalfLaurent({0: Fraction(5, 2)})

    def test_halved_exponents_and_text(self):
        f = HalfLaurent({3: 1, 4: Fraction(2), -1: Fraction(-1, 3)})
        assert f.items_halved() == [(2, 2), (Fraction(3, 2), 1),
                                    (Fraction(-1, 2), Fraction(-1, 3))]
        assert [type(e) for e, _ in f.items_halved()] == [int, Fraction, Fraction]
        assert str(f) == "2*t^2 + t^(3/2) - 1/3*t^(-1/2)"
        assert str(HalfLaurent({-2: 1, 2: -4, 0: 7})) == "-4*t + 7 + t^(-1)"

    def test_integer_polynomials_and_shifts_keep_their_coefficients(self):
        f = HalfLaurent.from_integer_poly({-1: 3, 2: -5}, 1)
        assert f.coeffs == {-1: 3, 5: -5}
        assert f.shift(2).coeffs == {1: 3, 7: -5}
        assert f.shift(0) is f


def dense_binomial_quotient(ups, downs, order):
    """The coefficients of the quotient from dense products of one-binomial
    series and their inverses, the defining formula."""
    def binomial(c, k):
        coeffs = [1] + [0] * order
        if k <= order:
            coeffs[k] = c
        return QSeries(coeffs, order)
    out = QSeries([1] + [0] * order, order)
    for c, k in ups:
        out = out * binomial(c, k)
    for c, k in downs:
        out = out * binomial(c, k).invert()
    return out.coeffs


class TestBinomialQuotient:
    @staticmethod
    def random_factors(rng, coefficient, order):
        return [(coefficient(), rng.randint(1, order + 2))
                for _ in range(rng.randint(0, 4))]

    def test_fraction_coefficients(self):
        rng = random.Random(17)
        coefficient = lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        for order in range(7):
            for _ in range(5):
                ups = self.random_factors(rng, coefficient, order)
                downs = self.random_factors(rng, coefficient, order)
                assert (binomial_quotient(ups, downs, order)
                        == dense_binomial_quotient(ups, downs, order))


def brute_poly_mul(a, b):
    """Multiply coefficient lists by the defining double sum."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def brute_divmod(a, b):
    """Schoolbook long division by the monic b: (quotient, remainder), the
    remainder of length deg b (shorter when a is)."""
    n = len(b) - 1
    r = list(a)
    quotient = [0] * max(len(a) - n, 0)
    for i in range(len(quotient) - 1, -1, -1):
        quotient[i] = c = r[i + n]
        for k, y in enumerate(b):
            r[i + k] -= c * y
    return quotient, r[:n]


def binomial(m):
    """t^m - 1 as a coefficient list."""
    return [-1] + [0] * (m - 1) + [1]


def cyclotomic(d):
    """Phi_d, by dividing t^d - 1 by Phi_s for every proper divisor s."""
    out = binomial(d)
    for s in range(1, d):
        if d % s == 0:
            out, remainder = brute_divmod(out, cyclotomic(s))
            assert not any(remainder)
    return out


def brute_product(factors):
    out = [1]
    for f in factors:
        out = brute_poly_mul(out, f)
    return out


def divided(a, exponents, size):
    """``divide_binomials`` on the coefficient list a packed at size bytes."""
    return divide_binomials(pack_slots(a, size), len(a), size, exponents)


def widths(a):
    """The slot sizes that hold every coefficient of a, from the least up
    to 13 bytes; 3, 9 and 13 have no array type code."""
    least = slot_size(max(map(abs, a), default=0))
    return [size for size in (1, 2, 3, 4, 8, 9, 13) if size >= least]


def binomials(exponents):
    """prod_m (t^m - 1)^exponents[m] as a coefficient list."""
    return brute_product(binomial(m) for m, e in exponents.items()
                         for _ in range(e))


class TestIntegerPolynomials:
    """Exact division by binomials t^m - 1, packed, against schoolbook
    arithmetic: products formed by the double sum divide back, and nothing
    else divides."""

    @staticmethod
    def random_poly(rng, length):
        return [rng.randint(-6, 6) for _ in range(length)]

    @staticmethod
    def random_exponents(rng):
        return {m: rng.randint(1, 3) for m in rng.sample(range(1, 30),
                                                          rng.randint(1, 3))}

    def test_mul_against_double_sum(self):
        # A = Q D by the double sum divides back to Q at every width that
        # holds A, past 8 bytes too; Q may be negative or zero
        rng = random.Random(41)
        for trial in range(150):
            quotient = self.random_poly(rng, rng.randint(1, 30))
            if trial % 10 == 0:
                quotient = [0] * len(quotient)
            exponents = self.random_exponents(rng)
            a = brute_poly_mul(quotient, binomials(exponents))
            for size in widths(a):
                assert divided(a, exponents, size) == quotient

    def test_division_oracle(self):
        # (t^2 - 1) / (t - 1) = t + 1; t^2 + 1 leaves 2; a nonzero
        # polynomial of lower degree than the divisor is refused, and zero
        # divides to zero
        assert divided([-1, 0, 1], {1: 1}, 1) == [1, 1]
        assert divided([1, 0, 1], {1: 1}, 1) is None
        assert divided([5], {2: 1}, 1) is None
        assert divided([3, 1, 4], {3: 1}, 1) is None
        assert divided([3, 1, 4], {5: 1}, 1) is None
        assert divided([0, 0, 0], {1: 1}, 1) == [0, 0]
        assert divided([0, 0], {5: 2}, 1) == []
        # t - 1 does not divide 100 + 100 t + 55 t^2, which is 255 at t = 1,
        # but its value at t = 2^8 is a multiple of 2^8 - 1: at one byte
        # only the certificate refuses the quotient, -100 + 56 t, and the
        # next width refuses the division
        assert (100 + 100 * 256 + 55 * 256 ** 2) % 255 == 0
        for size in (1, 2, 9):
            assert divided([100, 100, 55], {1: 1}, size) is None

    def test_divmod_recovers_quotient_and_remainder(self):
        # A = P (t^(km) - 1) has small coefficients, and its quotient by
        # t^m - 1, P (1 + t^m + ... + t^((k-1)m)), large ones: from one
        # byte, too narrow for the quotient, the division widens
        rng = random.Random(42)
        narrow = 0
        for _ in range(100):
            m, k = rng.randint(1, 4), rng.randint(20, 60)
            p = [rng.randint(1, 6) for _ in range(rng.randint(k, 2 * k) * m)]
            a = brute_poly_mul(p, binomial(k * m))
            want = brute_poly_mul(p, [int(i % m == 0)
                                      for i in range((k - 1) * m + 1)])
            exponents = {m: 1}
            if rng.random() < 0.5:
                exponents[2 * m] = 1
                a = brute_poly_mul(a, binomial(2 * m))
            size = widths(a)[0]
            narrow += (max(want) << len(exponents)) >= 2 ** (8 * size - 1)
            assert divided(a, exponents, size) == want
            a[rng.randrange(len(a))] += rng.choice([-1, 1])
            assert divided(a, exponents, size) is None
        assert narrow >= 50

    def test_a_non_multiple_reports_a_remainder(self):
        # A + t^i is refused at every width that holds it
        rng = random.Random(43)
        for _ in range(100):
            exponents = self.random_exponents(rng)
            a = brute_poly_mul(self.random_poly(rng, rng.randint(1, 40)),
                               binomials(exponents))
            a[rng.randrange(len(a))] += rng.choice([-1, 1])
            for size in widths(a):
                assert divided(a, exponents, size) is None

    def test_an_exact_step_gives_the_quotient(self):
        # v = q (2^k - 1) gives q back, whatever its sign and size, and
        # v + r, for 0 < r < 2^k - 1, is refused
        rng = random.Random(45)
        for k in (8, 16, 24, 40, 72, 104, 800):
            for q in [0, 1, -1, 2 ** k, -2 ** k + 1] + [
                    rng.randint(-2 ** 900, 2 ** 900) for _ in range(20)]:
                v = q * (2 ** k - 1)
                assert _divide_mersenne(v, k) == q
                assert _divide_mersenne(v + rng.randint(1, 2 ** k - 2),
                                        k) is None

    def test_cyclotomic_products_are_binomials(self):
        # t^n - 1 is the product of Phi_d over the divisors d of n
        for n in range(1, 121):
            assert binomial_exponents({d: 1 for d in divisors(n)}) == {n: 1}

    def test_cyclotomic_values(self):
        # the test-local oracle against known values, the last being the
        # first cyclotomic polynomial with a coefficient other than +-1
        assert cyclotomic(1) == [-1, 1]
        assert cyclotomic(6) == [1, -1, 1]
        assert cyclotomic(105)[7] == -2

    def test_mobius_form_equals_the_cyclotomic_product(self):
        # prod (t^m - 1)^E_m = prod Phi_d^e_d for random exponent maps on
        # divisor-closed supports, E_m of either sign: the binomials of the
        # positive E_m divided by those of the negative ones give the
        # cyclotomic product
        rng = random.Random(44)
        negative = 0
        for _ in range(60):
            support = {d for _ in range(rng.randint(1, 4))
                       for d in divisors(rng.randint(1, 36))}
            e = {d: rng.randint(0, 3) for d in support}
            want = brute_product(cyclotomic(d) for d, k in e.items()
                                 for _ in range(k))
            exponents = binomial_exponents(e)
            assert all(exponents.values())
            negative += any(k < 0 for k in exponents.values())
            ups = binomials({m: k for m, k in exponents.items() if k > 0})
            downs = {m: -k for m, k in exponents.items() if k < 0}
            assert brute_poly_mul(want, binomials(downs)) == ups
            assert divided(ups, downs, widths(ups)[0]) == want
        assert negative >= 10


class TestPackedSlots:
    def test_slot_sizes(self):
        # the least of 1, 2, 4 and 8 bytes whose signed range holds
        # +-bound, then the least byte count that does
        bounds = {0: 1, 127: 1, 128: 2, 2 ** 15 - 1: 2, 2 ** 15: 4,
                  2 ** 31: 8, 2 ** 63 - 1: 8, 2 ** 63: 9, 2 ** 71 - 1: 9,
                  2 ** 71: 10, 2 ** 100: 13}
        assert {b: slot_size(b) for b in bounds} == bounds

    def test_round_trip_at_the_slot_edges(self):
        # a packed list is its polynomial at t = 2^(8 size), and unpacks
        # to itself; every size from 1 to 8 runs on array type codes
        rng = random.Random(3)
        for size in (1, 2, 4, 8, 9, 13):
            half = 2 ** (8 * size - 1)
            for count in (0, 1, 2, 7, 30):
                coeffs = [rng.choice([-half, half - 1, -1, 0, 1,
                                      rng.randrange(-half, half)])
                          for _ in range(count)]
                value = pack_slots(coeffs, size)
                assert value == sum(c << 8 * size * i
                                    for i, c in enumerate(coeffs))
                assert unpack_slots(value, count, size) == coeffs
                # sums and shifts of packed values are sums and shifts of
                # the polynomials, as long as each coefficient fits: here
                # halves plus halves shifted by three slots
                halves = [c // 2 for c in coeffs]
                packed = pack_slots(halves, size)
                assert unpack_slots(packed + (packed << 24 * size),
                                    count + 3, size) == list(map(
                                        add, halves + [0] * 3,
                                        [0] * 3 + halves))

    def test_a_coefficient_over_the_slot_is_refused_when_packed(self):
        for size in (1, 8, 9):
            with pytest.raises(OverflowError):
                pack_slots([0, 2 ** (8 * size - 1)], size)
