"""Half-integer Laurent polynomials, q-series, binomial quotients, and
multiplying and dividing by t^m - 1 in Z[t]."""

import random
from fractions import Fraction

import pytest

from quasigenus.exactalg import (HalfLaurent, QSeries, binomial_exponents,
                                 binomial_passes, binomial_quotient, divisors,
                                 divmod_binomial, mul_binomial)


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
        assert a * QSeries.one(2) == a

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
            assert a * a.invert() == QSeries.one(order)

    def test_invert_needs_unit(self):
        with pytest.raises(ArithmeticError):
            QSeries([0, 1], 1).invert()

    def test_truncate_and_pow(self):
        a = QSeries([1, 1, 0, 0], 3)
        assert a ** 2 == QSeries([1, 2, 1, 0], 3)


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


def dense_binomial_quotient(ups, downs, one, order):
    """The quotient from dense products of one-binomial series and their
    inverses, the defining formula."""
    def binomial(c, k):
        coeffs = [one] + [one * 0] * order
        if k <= order:
            coeffs[k] = one * c
        return QSeries(coeffs, order)
    out = QSeries([one] + [one * 0] * order, order)
    for c, k in ups:
        out = out * binomial(c, k)
    for c, k in downs:
        out = out * binomial(c, k).invert()
    return out


class TestBinomialQuotient:
    @staticmethod
    def random_factors(rng, coefficient, order):
        return [(coefficient(), rng.randint(1, order + 2))
                for _ in range(rng.randint(0, 4))]

    def test_fraction_coefficients(self):
        rng = random.Random(17)
        coefficient = lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        one = Fraction(1)
        for order in range(7):
            for _ in range(5):
                ups = self.random_factors(rng, coefficient, order)
                downs = self.random_factors(rng, coefficient, order)
                assert (binomial_quotient(ups, downs, one, order)
                        == dense_binomial_quotient(ups, downs, one, order))


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


class TestIntegerPolynomials:
    """Multiplying and dividing by t^m - 1 against schoolbook arithmetic.
    ``divmod_binomial`` takes m running sums when m^2 is below the
    quotient's length (one per residue class mod m), and one shifted
    addition per chunk of m otherwise; the cases below reach both."""

    @staticmethod
    def random_poly(rng, length):
        return [rng.randint(-6, 6) for _ in range(length)]

    def test_mul_against_double_sum(self):
        rng = random.Random(41)
        for _ in range(200):
            a = self.random_poly(rng, rng.randint(1, 30))
            m = rng.choice([1, 2, 3, rng.randint(1, 40)])
            assert mul_binomial(a, m) == brute_poly_mul(a, binomial(m))
            plus = [1] + [0] * (m - 1) + [1]
            assert mul_binomial(a, m, 1) == brute_poly_mul(a, plus)

    def test_division_oracle(self):
        # (t^2 - 1) / (t - 1) = t + 1; t^2 + 1 leaves 2; a constant or a
        # list no longer than m is all remainder
        assert divmod_binomial([-1, 0, 1], 1) == ([1, 1], [0])
        assert divmod_binomial([1, 0, 1], 1) == ([1, 1], [2])
        assert divmod_binomial([5], 2) == ([], [5])
        assert divmod_binomial([3, 1, 4], 3) == ([], [3, 1, 4])
        assert divmod_binomial([3, 1, 4], 5) == ([], [3, 1, 4])

    def test_divmod_recovers_quotient_and_remainder(self):
        rng = random.Random(42)
        branches = set()
        for _ in range(300):
            m = rng.choice([1, 2, 3, 5, rng.randint(1, 30)])
            quotient = self.random_poly(rng, rng.randint(1, 60))
            remainder = self.random_poly(rng, m)
            dividend = brute_poly_mul(quotient, binomial(m))
            dividend[:m] = [x + r for x, r in zip(dividend, remainder)]
            assert divmod_binomial(dividend, m) == (quotient, remainder)
            branches.add(m * m < len(quotient))
        assert branches == {True, False}

    def test_a_non_multiple_reports_a_remainder(self):
        rng = random.Random(43)
        for _ in range(100):
            m = rng.randint(1, 12)
            a = brute_poly_mul(self.random_poly(rng, rng.randint(1, 40)),
                               binomial(m))
            a[rng.randrange(len(a))] += rng.choice([-1, 1]) * rng.randint(1, 5)
            _, remainder = divmod_binomial(a, m)
            assert any(remainder)
            assert binomial_passes(a, {m: -1})[1] is False

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
        # divisor-closed supports, E_m of either sign
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
            ups = brute_product(binomial(m) for m, k in exponents.items()
                                for _ in range(k))
            downs = brute_product(binomial(m) for m, k in exponents.items()
                                  for _ in range(-k))
            assert brute_poly_mul(want, downs) == ups
            assert binomial_passes([1], exponents) == (want, True)
        assert negative >= 10
