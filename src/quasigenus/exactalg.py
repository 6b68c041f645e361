"""Exact arithmetic building blocks.

Two small types cover everything the index computations need:

* ``HalfLaurent``: circle characters, Laurent polynomials in a formal
  square root of the circle variable t, read but never multiplied.
  Exponents are stored doubled so every exponent is an integer.
* ``QSeries``: truncated power series in the modular parameter q whose
  coefficients are exact rationals, or characters that are added but
  never multiplied together.

An exact rational value is an ``int`` when it is integral and a
``Fraction`` only otherwise, as elsewhere in the library; the characters
localization computes therefore hold ints only.

Plus primitives.  ``binomial_quotient`` builds a quotient of products
of binomials 1 + c q^k, the shape of every theta-function factor of the
indices, in place on one coefficient list.  Integer polynomials in t are
coefficient lists, lowest degree first, and are only ever multiplied or
divided by binomials t^m +- 1, each in one shift-add pass:
``mul_binomial``, ``divmod_binomial`` and ``binomial_passes``, which
applies a map {m: exponent} of powers of t^m - 1.  ``binomial_exponents``
rewrites a product of cyclotomic polynomials in that form, which is how
localization divides a sum of fixed-point numerators by their common
denominator.
"""

import math
from fractions import Fraction
from itertools import accumulate
from operator import add, sub


def _exact(x):
    """x as an int when it is integral, else as a Fraction."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class HalfLaurent:
    """A circle character: a Laurent polynomial in t^(1/2), read but never
    multiplied.

    The key of ``coeffs`` is the doubled exponent: key 3 means t^(3/2),
    key -4 means t^(-2).  Each coefficient is an int when it is integral
    and a Fraction otherwise, and zeros are never stored, so equality is
    plain dict equality.  Instances are treated as immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        clean = {}
        for d, c in coeffs.items():
            c = _exact(c)
            if c:
                clean[int(d)] = c
        self.coeffs = clean

    @staticmethod
    def _of_clean(coeffs):
        """Wrap a dict that already holds int keys and nonzero exact
        coefficients in the library's convention, without copying it."""
        out = object.__new__(HalfLaurent)
        out.coeffs = coeffs
        return out

    @staticmethod
    def from_integer_poly(poly, parity=0):
        """Lift {integer exponent: nonzero int} to exponents e + parity/2."""
        return HalfLaurent._of_clean(
            {2 * e + parity: c for e, c in poly.items()})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, HalfLaurent):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.coeffs
            return self.coeffs == {0: other}
        return NotImplemented

    def shift(self, doubled):
        """Multiply by t^(doubled/2)."""
        if not doubled:
            return self
        return HalfLaurent._of_clean(
            {d + doubled: c for d, c in self.coeffs.items()})

    def value_at_one(self):
        return _exact(sum(self.coeffs.values()))

    def items_halved(self):
        """Sorted (exponent, coefficient) pairs, descending; an exponent is
        an int when it is integral and a Fraction otherwise."""
        return [(d // 2 if d % 2 == 0 else Fraction(d, 2), self.coeffs[d])
                for d in sorted(self.coeffs, reverse=True)]

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for exp, c in self.items_halved():
            neg = c < 0
            a = -c if neg else c
            if exp == 0:
                body = str(a)
            else:
                if exp == 1:
                    mono = "t"
                elif exp.denominator == 1 and exp > 0:
                    mono = f"t^{exp}"
                else:
                    mono = f"t^({exp})"
                body = mono if a == 1 else f"{a}*{mono}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"HalfLaurent({self.coeffs!r})"


def _coeff_zero(sample):
    """A zero of the same coefficient ring as sample."""
    return sample * 0


class QSeries:
    """Power series in q truncated above q^order.

    ``coeffs[k]`` is the coefficient of q^k; the list always has length
    order + 1.  Coefficients are exact rationals, or characters, which are
    added but never multiplied together.  Arithmetic silently truncates,
    which is the whole point.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if len(coeffs) != order + 1:
            raise ValueError("coefficient list does not match the order")
        self.coeffs = coeffs
        self.order = order

    @staticmethod
    def constant(value, order):
        value = value if not isinstance(value, int) else Fraction(value)
        zero = _coeff_zero(value)
        return QSeries([value] + [zero] * order, order)

    @staticmethod
    def one(order):
        return QSeries.constant(Fraction(1), order)

    def _check(self, other):
        if self.order != other.order:
            raise ValueError("q-series orders differ")

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.order, tuple(str(c) for c in self.coeffs)))

    def __neg__(self):
        return QSeries([-c for c in self.coeffs], self.order)

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check(other)
        return QSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check(other)
        return QSeries([a - b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return QSeries([c * other for c in self.coeffs], self.order)
        self._check(other)
        out = []
        for k in range(self.order + 1):
            acc = None
            for i in range(k + 1):
                term = self.coeffs[i] * other.coeffs[k - i]
                acc = term if acc is None else acc + term
            out.append(acc)
        return QSeries(out, self.order)

    def __rmul__(self, other):
        return QSeries([other * c for c in self.coeffs], self.order)

    def __pow__(self, k):
        if k < 0:
            return self.invert() ** (-k)
        out = QSeries.one(self.order) if k == 0 else None
        base = self
        while k:
            if k & 1:
                out = base if out is None else out * base
            base = base * base
            k >>= 1
        if out is None:
            out = QSeries.one(self.order)
        return out

    def invert(self):
        """Multiplicative inverse; the constant term must be a nonzero
        rational."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise ArithmeticError("constant term vanishes, not invertible")
        b0 = Fraction(1) / a0
        inv = [b0]
        for k in range(1, self.order + 1):
            acc = None
            for i in range(1, k + 1):
                term = self.coeffs[i] * inv[k - i]
                acc = term if acc is None else acc + term
            inv.append(-(b0 * acc) if acc is not None else _coeff_zero(b0))
        return QSeries(inv, self.order)

    def __str__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            body = str(c)
            if k == 0:
                terms.append(body)
            else:
                qk = "q" if k == 1 else f"q^{k}"
                terms.append(f"({body})*{qk}" if " " in body or "+" in body else f"{body}*{qk}")
        return " + ".join(terms) + f" + O(q^{self.order + 1})"

    def __repr__(self):
        return f"QSeries({self.coeffs!r})"


def binomial_quotient(ups, downs, one, order):
    """prod (1 + c q^k) over ``ups`` divided by prod (1 + c q^k) over ``downs``.

    ``ups`` and ``downs`` are iterables of (c, k) pairs with k >= 1; a factor
    with k > order is 1 to this order.  ``one`` is the unit of the
    coefficient ring, an int or a Fraction, and each c is an exact
    rational.  The result is a QSeries truncated
    above q^order.  Each factor is one pass over the coefficient list, in
    place: multiplying by 1 + c q^k adds c a[j-k] to a[j] for j falling, and
    dividing subtracts c a[j-k] from a[j] for j rising, where a[j-k] already
    holds the quotient's coefficient.
    """
    a = [one] + [_coeff_zero(one)] * order
    for c, k in ups:
        for j in range(order, k - 1, -1):
            a[j] = a[j] + a[j - k] * c
    for c, k in downs:
        for j in range(k, order + 1):
            a[j] = a[j] - a[j - k] * c
    return QSeries(a, order)


def divisors(n):
    """The positive divisors of n >= 1, ascending."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def binomial_exponents(cyclotomic_exponents):
    """{m: E_m} with prod_m (t^m - 1)^E_m = prod_d Phi_d^e_d.

    ``cyclotomic_exponents`` maps d to e_d and must hold every divisor of
    each of its keys.  As t^m - 1 = prod_{d | m} Phi_d, e_d is the sum of
    E_m over the multiples m of d, so E_m = sum_{m | d} e_d mu(d/m), got
    here from the largest m down; an E_m may be negative.  Zero exponents
    are dropped.
    """
    out = {}
    for m in sorted(cyclotomic_exponents, reverse=True):
        e = cyclotomic_exponents[m] - sum(E for d, E in out.items() if d % m == 0)
        if e:
            out[m] = e
    return out


def mul_binomial(a, m, sign=-1):
    """The integer polynomial a (a coefficient list, lowest degree first)
    times t^m + sign, for m >= 1 and sign = +-1: a shifted up by m, plus
    or minus a."""
    out = [0] * m + a
    out[:len(a)] = map(add if sign > 0 else sub, out[:len(a)], a)
    return out


def divmod_binomial(a, m):
    """Quotient and remainder of the integer polynomial a by t^m - 1.

    Quotient coefficient k is a[k + m] + a[k + 2m] + ..., a running sum
    from the top of each residue class mod m: one ``accumulate`` per
    class when there are fewer classes than chunks of m, else one
    shifted addition per chunk of m, from the top down.  The remainder
    has length min(m, len(a)) and holds the sums of whole residue classes,
    so ``any`` of it says whether t^m - 1 divides a.
    """
    q = a[m:]
    n = len(q)
    if m * m < n:
        for r in range(m):
            q[r::m] = list(accumulate(q[r::m][::-1]))[::-1]
    else:
        for hi in range(n - m, 0, -m):
            lo = max(hi - m, 0)
            q[lo:hi] = map(add, q[lo:hi], q[lo + m:hi + m])
    remainder = a[:m]
    remainder[:n] = map(add, remainder, q)
    return q, remainder


def binomial_passes(a, exponents):
    """The integer polynomial a times prod_m (t^m - 1)^exponents[m], as
    (product, exact).

    The factors with a positive exponent are multiplied in first, smallest
    m first, then those with a negative one divided out, largest m first,
    so a division is exact whenever the product is a polynomial.  exact is
    False, and the product unfinished, once a division leaves a remainder.
    """
    for m in sorted(exponents):
        for _ in range(exponents[m]):
            a = mul_binomial(a, m)
    for m in sorted(exponents, reverse=True):
        for _ in range(-exponents[m]):
            a, remainder = divmod_binomial(a, m)
            if any(remainder):
                return a, False
    return a, True
