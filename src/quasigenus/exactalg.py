"""Exact arithmetic building blocks.

Two small types cover everything the index computations need:

* ``HalfLaurent``: circle characters, Laurent polynomials in a formal
  square root of the circle variable t, read but never multiplied.
  Exponents are stored doubled so every exponent is an integer.
* ``QSeries``: truncated power series in the modular parameter q whose
  coefficients are exact rationals, or characters that are added but
  never multiplied together.

An exact rational value is an ``int`` when it is integral and a
``Fraction`` only otherwise.  ``_exact`` is the one place that rule is
written: ``linalg``, ``cohomology`` and ``theorems`` call it wherever a
value may come out of a division, so equal results of the two index
routes are also alike in type and print alike.  The characters
localization computes hold ints only.

Plus primitives.  ``binomial_quotient`` builds a quotient of products
of binomials 1 + c q^k, the shape of every theta-function factor of the
indices, in place on one coefficient list.  ``binomial_exponents``
rewrites a product of cyclotomic polynomials as a product of binomials
t^m - 1 with signed exponents, which is how localization divides a sum of
fixed-point numerators by their common denominator.  Such integer
polynomials in t are packed into one int, coefficient i in slot i of a
fixed width (Kronecker substitution), so that each step is one
big-integer operation: ``slot_size`` picks the width from a bound on the
coefficients, ``pack_slots`` and ``unpack_slots`` convert, and
``divide_binomials`` divides a packed polynomial exactly by binomials
t^m - 1 and proves the quotient is the polynomial one.
"""

import math
import sys
from array import array
from fractions import Fraction


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

    def invert(self):
        """Multiplicative inverse; the constant term must be a nonzero
        rational."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise ArithmeticError("constant term vanishes, not invertible")
        b0 = _exact(Fraction(1, a0))
        inv = [b0]
        for k in range(1, self.order + 1):
            acc = sum(self.coeffs[i] * inv[k - i] for i in range(1, k + 1))
            inv.append(_exact(-b0 * acc))
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


def binomial_quotient(ups, downs, order):
    """prod (1 + c q^k) over ``ups`` divided by prod (1 + c q^k) over ``downs``.

    ``ups`` and ``downs`` are iterables of (c, k) pairs with k >= 1; a factor
    with k > order is 1 to this order.  Each c is an exact rational; the
    result is the list of the q^0 .. q^order coefficients, ints when every
    c is an int.  Each factor is one pass over the coefficient list, in
    place: multiplying by 1 + c q^k adds c a[j-k] to a[j] for j falling, and
    dividing subtracts c a[j-k] from a[j] for j rising, where a[j-k] already
    holds the quotient's coefficient.
    """
    a = [1] + [0] * order
    for c, k in ups:
        for j in range(order, k - 1, -1):
            a[j] = a[j] + a[j - k] * c
    for c, k in downs:
        for j in range(k, order + 1):
            a[j] = a[j] - a[j - k] * c
    return a


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


# Signed array type codes by item size; on a big-endian host none is used,
# as their bytes would put the slots in the wrong order.
_SLOT_CODES = ({array(code).itemsize: code for code in "bhiq"}
               if sys.byteorder == "little" else {})


def slot_size(bound):
    """The slot size in bytes for integers of magnitude at most bound: the
    least of 1, 2, 4 and 8 with bound < 2^(8 size - 1), else the least
    size that fits."""
    for size in (1, 2, 4, 8):
        if bound < 1 << (8 * size - 1):
            return size
    return (bound.bit_length() + 8) // 8


def _slot_bias(count, size):
    """The int with the top bit of each of count slots of size bytes set."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")


def pack_slots(coeffs, size):
    """The integer polynomial coeffs (lowest degree first) at t = 2^(8 size),
    sum_i coeffs[i] 2^(8 size i).  Every coefficient must lie in
    [-2^(8 size - 1), 2^(8 size - 1)).

    The slots are first written in two's complement; setting each one's
    top bit with xor adds 2^(8 size - 1) to it, which the bias subtracts
    again, borrows included.
    """
    code = _SLOT_CODES.get(size)
    if code:
        data = array(code, coeffs).tobytes()
    else:
        data = b"".join(c.to_bytes(size, "little", signed=True)
                        for c in coeffs)
    bias = _slot_bias(len(coeffs), size)
    return (int.from_bytes(data, "little") ^ bias) - bias


def unpack_slots(value, count, size):
    """The count coefficients of a ``pack_slots`` value, each of which must
    lie in [-2^(8 size - 1), 2^(8 size - 1)): adding the bias lifts every
    slot to [0, 2^(8 size)) with no carry between slots, and the xor puts
    each back in two's complement."""
    bias = _slot_bias(count, size)
    data = ((value + bias) ^ bias).to_bytes(count * size, "little")
    code = _SLOT_CODES.get(size)
    if code:
        return memoryview(data).cast(code).tolist()
    return [int.from_bytes(data[i:i + size], "little", signed=True)
            for i in range(0, len(data), size)]


def _divide_mersenne(v, k):
    """v / (2^k - 1) if that is an integer, else None.

    1 / (2^k - 1) = -(1 + 2^k + 2^2k + ...) in the 2-adic integers, so the
    quotient is -v times that sum, read as a signed integer mod 2^n for n
    past the bit length of v, where the sum doubles its length with each
    shift-add (Jebelean's exact division); multiplying back decides.
    """
    n = v.bit_length() + 1
    half, mask = 1 << (n - 1), (1 << n) - 1
    s, shift = v, k
    while shift < n:
        s = (s + (s << shift)) & mask
        shift *= 2
    q = ((half - s) & mask) - half
    return q if (q << k) - q == v else None


def divide_binomials(value, count, size, exponents):
    """The integer polynomial packed in ``value``, ``count`` slots of
    ``size`` bytes each in (-X/2, X/2) for X = 2^(8 size), divided by
    D = prod_m (t^m - 1)^exponents[m], every exponent positive: the
    quotient's coefficients, or None when D does not divide it.

    Each binomial divides value(X) by X^m - 1 (``_divide_mersenne``), or
    D does not divide the polynomial.  D's |coefficients| sum to at most
    2^e, e the sum of its exponents, so a quotient Q with max |Q| 2^e < X/2
    is certified: Q D and the dividend agree at t = X and have all their
    coefficients in (-X/2, X/2), so they are equal.  Otherwise the
    dividend is divided again at twice the width, which ends: once X is
    large enough, D(X) divides no value at X of a polynomial D does not.
    """
    total = sum(exponents.values())
    slots = max(count - sum(m * e for m, e in exponents.items()), 0)
    while True:
        q = value
        for m, e in exponents.items():
            for _ in range(e):
                q = _divide_mersenne(q, 8 * size * m)
                if q is None:
                    return None
        try:
            quotient = unpack_slots(q, slots, size)
        except OverflowError:  # Q does not fit its slots
            quotient = None
        if (quotient is not None and max(map(abs, quotient), default=0)
                << total < 1 << (8 * size - 1)):
            return quotient
        value = pack_slots(unpack_slots(value, count, size), 2 * size)
        size *= 2
