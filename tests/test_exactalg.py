"""Half-integer Laurent polynomials, q-series, binomial quotients, interpolation."""

import random
from fractions import Fraction

import pytest

from quasigenus.errors import (InterpolationConsistencyError,
                               InterpolationError)
from quasigenus.exactalg import (HalfLaurent, QSeries, TruncatedPolynomial,
                                 binomial_quotient, laurent_interpolate)


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
        assert (a ** 2).truncate(1) == QSeries([1, 2], 1)


class TestHalfLaurent:
    def test_monomial_inverse(self):
        t = HalfLaurent.monomial(2)  # doubled exponent 2 = t^1
        assert t.inverse() == HalfLaurent.monomial(-2)

    def test_half_exponents_multiply(self):
        half = HalfLaurent.monomial(1)  # t^(1/2)
        assert half * half == HalfLaurent.monomial(2)

    def test_addition_and_value_at_one(self):
        f = HalfLaurent.monomial(2) + HalfLaurent.monomial(-2)
        assert f.value_at_one() == 2
        assert f.evaluate_doubled(Fraction(2)) == Fraction(2) ** 2 + Fraction(2) ** -2

    def test_str_uses_halves(self):
        f = HalfLaurent.monomial(3, 2)
        assert "t^(3/2)" in str(f)

    def test_equality_drops_zeros(self):
        a = HalfLaurent.monomial(4) - HalfLaurent.monomial(4)
        assert a == 0
        assert not a

    def test_shift(self):
        f = HalfLaurent.monomial(2)
        assert f.shift(-2) == HalfLaurent.constant(1)


class TestTruncatedPolynomial:
    def test_inverse(self):
        x = TruncatedPolynomial.variable(3)
        one_minus = TruncatedPolynomial.constant(1, 3) - x
        inv = one_minus.inverse()
        assert inv == TruncatedPolynomial([1, 1, 1, 1], 3)

    def test_nilpotent_truncation(self):
        x = TruncatedPolynomial.variable(2)
        assert x ** 3 == TruncatedPolynomial.constant(0, 2)

    def test_substitute(self):
        # f(x) = 1 + 2x + x^2 evaluated at powers of a class
        f = TruncatedPolynomial([1, 2, 1], 2)
        powers = [Fraction(1), Fraction(3), Fraction(9)]
        got = f.substitute(powers)
        assert got == Fraction(1) + 2 * 3 + 9


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

    def test_truncated_polynomial_coefficients(self):
        # c is either a ring element or a scalar Fraction; k runs past order
        rng = random.Random(18)
        cap = 3
        one = TruncatedPolynomial.constant(1, cap)

        def coefficient():
            if rng.random() < 0.3:
                return Fraction(rng.randint(-3, 3))
            return TruncatedPolynomial(
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(cap + 1)], cap)
        for order in range(7):
            for _ in range(3):
                ups = self.random_factors(rng, coefficient, order)
                downs = self.random_factors(rng, coefficient, order)
                assert (binomial_quotient(ups, downs, one, order)
                        == dense_binomial_quotient(ups, downs, one, order))


class TestInterpolation:
    def test_exact_fit_t_plus_inverse(self):
        f = lambda t: t + 1 / t
        pts = [(Fraction(2), f(Fraction(2))),
               (Fraction(3), f(Fraction(3))),
               (Fraction(1, 2), f(Fraction(1, 2)))]
        got = laurent_interpolate(pts, -1, 1)
        assert got == {-1: 1, 1: 1}

    def test_constant(self):
        pts = [(Fraction(2), Fraction(5))]
        assert laurent_interpolate(pts, 0, 0) == {0: 5}

    def test_polynomial_division_oracle(self):
        # oracle: (t^2 - 1) / (t - 1) = t + 1 by long division;
        # verify the quotient reproduces the samples before fitting
        def ratio(t):
            return (t * t - 1) / (t - 1)

        ts = [Fraction(2), Fraction(3), Fraction(5)]
        for t in ts:
            assert ratio(t) == t + 1
        got = laurent_interpolate([(t, ratio(t)) for t in ts], 0, 1)
        assert got == {0: 1, 1: 1}

    def test_empty_window_demands_zero(self):
        assert laurent_interpolate([(Fraction(2), 0)], 3, 1) == {}
        with pytest.raises(InterpolationConsistencyError):
            laurent_interpolate([(Fraction(2), 1)], 3, 1)

    def test_held_out_mismatch_detected(self):
        # claim the window [0, 0] for f(t) = t + 1: the held-out point breaks
        pts = [(Fraction(2), Fraction(3)), (Fraction(3), Fraction(4))]
        with pytest.raises(InterpolationConsistencyError):
            laurent_interpolate(pts, 0, 0)

    def test_forbidden_and_duplicate_points(self):
        with pytest.raises(InterpolationError):
            laurent_interpolate([(Fraction(1), Fraction(1))], 0, 0)
        with pytest.raises(InterpolationError):
            laurent_interpolate([(Fraction(2), 1), (Fraction(2), 1)], 0, 1)

    def test_too_few_samples(self):
        with pytest.raises(InterpolationError):
            laurent_interpolate([(Fraction(2), 1)], 0, 3)

    def test_random_laurent_roundtrip(self):
        rng = random.Random(77)
        for _ in range(200):
            lo = rng.randint(-6, 2)
            hi = lo + rng.randint(0, 5)
            coeffs = {e: Fraction(rng.randint(-9, 9)) for e in range(lo, hi + 1)}

            def f(t):
                return sum(c * t ** e for e, c in coeffs.items())

            width = hi - lo + 1
            ts = []
            k = 2
            while len(ts) < width + 3:
                ts.append(Fraction(k))
                k += 1
            got = laurent_interpolate([(t, f(t)) for t in ts], lo, hi)
            assert got == {e: c for e, c in coeffs.items() if c != 0}
