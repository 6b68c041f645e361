"""Twisted Dirac-operator indices of quasitoric manifolds, two ways.

Localization route: the circle-equivariant index is a Laurent polynomial in
the circle character t for each power of q.  Each fixed point contributes
an integer Laurent polynomial over prod_k (t^|w_k| - 1), read once per
circle into plain ints: its sign, its lowest power of t and its signature,
the multisets of its weight magnitudes, which alone fix its theta product,
so the terms of one signature share their theta rows.  The engine puts
every term over one common denominator D+, the positive part of a product
of binomials t^m - 1 with signed exponents, found from one divisor list
per weight value, sums the numerators and divides by D+ in Z[t].  Each
polynomial is packed into one int, one fixed-width slot per coefficient of
t, so multiplying by a binomial or a step of the theta recurrence is one
shift and one addition, and each exact 2-adic division is certified by a
coefficient bound.  A division that is not exact, or a mismatch with the
fixed-point sum evaluated in integers at t = 2 and 3, aborts the
computation; it is never papered over.  That sum shares only the weights
with the division, its theta values being the exponential of the weights'
power sums; the two circles of one non-equivariant result read one table
of them, and each quotient is evaluated at both points in one pass.

Localization reads only fixed-point records, and so do the Euler
characteristic, the generic circle search and the anomaly: a manifold is
its ``dimension``, ``num_facets``, ``spin_c`` and ``fixed_points()``, each
record with the facets ``vertex`` through it, its oriented ``sign`` and
its tangent ``weights``, plus ``char_matrix`` for the spin tests.  Any
object with these localizes; no polytope or orientation is read.

Cohomological route: expand the universal one-root power series of each
index factor as tables of x^i coefficients per power of q, substitute the
facet classes of the stable tangent splitting, multiply in the twist and
bundle factors, and integrate.  It runs in integers: every input is an
integer line, the tables are scaled once by the least gauge L that clears
every denominator of x^i with L^i, and the ring multiplies by a degree-one
class over one integer denominator delta.  The factors on one class
multiply their tables first and enter by Horner's rule, one multiplication
by the class per degree, so degree d carries (L delta)^d and only the top
coordinate of each q-coefficient is divided.  The two routes agreeing
exactly is the workbench's core consistency contract.  Both read what an
index twists by from ``_twist``; the Witten and elliptic genera twist by
zero.

Exponent bookkeeping: t^(1/2) never appears at run time.  With an all-odd
twist vector, (twist character + sum of tangent weights) is even at every
vertex, and spin W-data shifts it by a constant, so contributions share one
global half-integer parity.  The engine works with the integer-normalised
exponents and doubles them back, adding the parity, only when packaging
the final Laurent polynomials.
"""

import math
from bisect import insort
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, neg, sub
from types import MappingProxyType

from .errors import (BundleSpinError, DegenerateCircleError, InputError,
                     ParityError, PropertyViolationError, SpinObstructionError)
from .exactalg import (HalfLaurent, QSeries, binomial_exponents,
                       binomial_quotient, divide_binomials, divisors,
                       pack_slots, slot_size, unpack_slots)
from .linalg import gf2_solve
from .cohomology import build_face_ring
from .polytope import _integers


class CircleSubgroup:
    """A circle in the torus, given by an integer lattice vector."""

    __slots__ = ("xi",)

    def __init__(self, xi):
        xi = _integers(xi)
        if not xi or all(x == 0 for x in xi):
            raise InputError("circle vector must be nonzero")
        self.xi = xi

    def __eq__(self, other):
        return isinstance(other, CircleSubgroup) and self.xi == other.xi

    def __hash__(self):
        return hash(self.xi)

    def __repr__(self):
        return f"CircleSubgroup({list(self.xi)})"


class BundleSpec:
    """Twisting data: lists of line-bundle facet-coefficient vectors.

    Each entry of V or W is a length-m integer vector c, describing the
    line bundle whose first Chern class is sum c_j v_j.  The W part must
    satisfy the spin condition relative to the manifold it is used with
    (checked by validate_for, not at construction: the same spec may be
    spin for one characteristic matrix and not another).
    """

    __slots__ = ("v_lines", "w_lines")

    def __init__(self, v_lines=(), w_lines=()):
        self.v_lines = tuple(map(_integers, v_lines))
        self.w_lines = tuple(map(_integers, w_lines))

    @staticmethod
    def empty():
        return BundleSpec((), ())

    def validate_for(self, manifold):
        m = manifold.num_facets
        for line in self.v_lines + self.w_lines:
            if len(line) != m:
                raise InputError(
                    f"bundle line {line} needs one coefficient per facet ({m})")
        if self.w_lines:
            total = [sum(line[j] for line in self.w_lines) % 2 for j in range(m)]
            if any(total):
                # The sum of the W first Chern classes must vanish mod 2 in
                # H^2(M; Z/2) = Z_2^m / rowspan(characteristic matrix).
                if gf2_solve(list(manifold.char_matrix), total) is None:
                    raise BundleSpinError(
                        "W part is not spin: the mod-2 sum of its line "
                        f"coefficients is {total}, which is not a mod-2 "
                        "combination of the characteristic matrix rows")

    def __eq__(self, other):
        return (isinstance(other, BundleSpec)
                and self.v_lines == other.v_lines
                and self.w_lines == other.w_lines)

    def __repr__(self):
        return f"BundleSpec(V={len(self.v_lines)} lines, W={len(self.w_lines)} lines)"


class EquivariantIndex:
    """A q-series of circle characters (Laurent polynomials in t^(1/2)).

    Localization divides exactly in Z[t], so every coefficient of every
    character is an int, and so is each value at t = 1.
    """

    __slots__ = ("series", "xi", "parity")

    def __init__(self, series, xi, parity):
        self.series = series
        self.xi = xi
        self.parity = parity

    @property
    def q_order(self):
        return self.series.order

    def q_coefficient(self, d):
        return self.series.coeffs[d]

    def is_identically_zero(self):
        return all(not c.coeffs for c in self.series.coeffs)

    def value_at_one(self):
        return QSeries([c.value_at_one() for c in self.series.coeffs],
                       self.series.order)

    def __eq__(self, other):
        if not isinstance(other, EquivariantIndex):
            return NotImplemented
        return self.series == other.series and self.xi == other.xi

    def __str__(self):
        return " + ".join(
            f"({c})*q^{d}" if d else f"({c})"
            for d, c in enumerate(self.series.coeffs))


def _as_circle(xi):
    return xi if isinstance(xi, CircleSubgroup) else CircleSubgroup(xi)


def _fixed_point_weights(fp, xi, lines=()):
    """Tangent weights <w, xi> at a fixed point, and the weights of lines.

    A facet-coefficient line c restricts to the fixed point with weight
    sum_k c[f_k] <w_k, xi> over the facets f_k through its vertex.  A circle
    that annihilates a tangent weight is refused before any line is read.
    """
    tangent = tuple(sum(map(mul, w, xi)) for w in fp.weights)
    if 0 in tangent:
        bad = [fp.weights[k] for k, w in enumerate(tangent) if w == 0]
        raise DegenerateCircleError(
            f"circle {list(xi)} annihilates tangent weight(s) {bad} at "
            f"vertex {fp.vertex}; pick a generic circle")
    return tangent, tuple(
        sum(line[f - 1] * tangent[k] for k, f in enumerate(fp.vertex))
        for line in lines)


class _VertexTerm:
    """One fixed point's weights on the circle, as the localization sum
    reads them: the oriented sign, the tangent, twist (c), V and W weights,
    the half-integer exponent and the largest weight magnitude.

    ``signature`` holds the multisets of |tangent|, |V| and |W| weights.  A
    term's theta product depends on nothing else, as every factor pairs
    t^x with t^-x, so terms of one signature share it.  ``_divided_sum``
    writes the prefactor as sign t^offset times binomials t^m +- 1; the
    offset takes halfexp // 2, (halfexp - parity) / 2 at the one parity.
    """

    __slots__ = ("vertex", "sigma", "tangent", "c", "v_weights", "w_weights",
                 "zero", "halfexp", "top", "signature", "offset", "sign")

    def __init__(self, vertex, sigma, tangent, c, v_weights, w_weights):
        self.vertex = vertex
        self.sigma = sigma
        self.tangent = tangent
        self.c = c
        self.v_weights = v_weights
        self.w_weights = w_weights
        self.zero = any(a == 0 for a in v_weights)
        self.halfexp = c + sum(tangent) - sum(w_weights)
        self.top = max(map(abs, tangent + v_weights + w_weights))
        self.signature = tuple(tuple(sorted(map(abs, weights)))
                               for weights in (tangent, v_weights, w_weights))
        self.offset = (self.halfexp // 2 - sum(w for w in tangent if w < 0)
                       - sum(a for a in v_weights if a > 0)
                       + sum(b for b in w_weights if b < 0))
        self.sign = sigma * (-1) ** sum(w < 0 for w in tangent + v_weights)


def _circle_vector(manifold, xi):
    """The circle xi's entries, one per coordinate of the torus."""
    xi = _as_circle(xi).xi
    if len(xi) != manifold.dimension:
        raise InputError(
            f"circle vector length {len(xi)} does not match dimension "
            f"{manifold.dimension}")
    return xi


def _vertex_terms(manifold, xi, v_lines, w_lines, gamma, tangent_as_w):
    """Each fixed point's ``_VertexTerm`` on the circle xi for a twist."""
    xi = _circle_vector(manifold, xi)
    lines = (gamma,) + tuple(v_lines) + tuple(w_lines)
    terms = []
    for fp in manifold.fixed_points():
        tangent, (c, *weights) = _fixed_point_weights(fp, xi, lines)
        terms.append(_VertexTerm(
            fp.vertex, fp.sign, tangent, c,
            tuple(weights[:len(v_lines)]),
            tangent if tangent_as_w else tuple(weights[len(v_lines):])))
    return terms


def _common_parity(terms):
    parities = {t.halfexp % 2 for t in terms}
    if len(parities) != 1:
        detail = [(t.vertex, t.halfexp) for t in terms]
        raise ParityError(
            "fixed points disagree on the half-integer exponent parity: "
            f"{detail}; the twist data is inconsistent")
    return parities.pop()


def _power(tau, e):
    """t^e at an integer t = tau as an integer numerator and denominator."""
    return (tau ** e, 1) if e >= 0 else (1, tau ** -e)


def _prefactor_at(term, parity, tau):
    """sigma t^g prod_V (1 - t^-a) prod_W (t^b + 1) / prod_k (t^w_k - 1) at
    an integer t = tau, with g = (halfexp - parity)/2, as an integer
    numerator and denominator.  With t^e = P/R from ``_power``,
    t^w - 1 = (P - R)/R, 1 - t^-a = (R - P)/R and t^b + 1 = (P + R)/R.
    """
    num, den = _power(tau, (term.halfexp - parity) // 2)
    num *= term.sigma
    for w in term.tangent:
        up, down = _power(tau, w)
        num, den = num * down, den * (up - down)
    for a in term.v_weights:
        up, down = _power(tau, -a)
        num, den = num * (down - up), den * down
    for b in term.w_weights:
        up, down = _power(tau, b)
        num, den = num * (up + down), den * down
    return num, den


def _theta_at(term, tau, q_order):
    """A term's theta product at an integer t = tau in the gauge
    q -> tau^top q: entry j is the integer tau^(j top) times the q^j
    coefficient.

    The product's logarithm is sum_k sum_r P_r q^(k r) / r, where P_r sums
    t^(x r) + t^(-x r) - 2 over the tangent weights x, minus it over the V
    weights, plus (-1)^(r+1) times it over the W weights.  With the
    integers S_r = tau^(r top) P_r and
    M_m = sum_(r | m) (m/r) tau^((m - r) top) S_r, the exponential's
    derivative gives j theta_j = sum_(m <= j) M_m theta_(j - m), and each
    theta_j is an integer: a division by j with a remainder is an error.
    """
    tangent, v_weights, w_weights = term.signature
    top = term.top
    tops = [tau ** (r * top) for r in range(q_order + 1)]
    # S_r is -2 tau^(r top) per weight, signed as in P_r, plus each
    # magnitude x's signed count times tau^(r (top + x)) + tau^(r (top - x))
    sums = [2 * ((-1) ** r * len(w_weights) + len(v_weights) - len(tangent))
            * power for r, power in enumerate(tops)]
    for x in {*tangent, *v_weights, *w_weights}:
        # x's signed count at even and at odd r
        count = tangent.count(x) - v_weights.count(x)
        signed = (count - w_weights.count(x), count + w_weights.count(x))
        up_step, down_step, up, down = tau ** (top + x), tau ** (top - x), 1, 1
        for r in range(1, q_order + 1):
            up, down = up * up_step, down * down_step
            sums[r] += signed[r % 2] * (up + down)
    logs = [0] * (q_order + 1)
    for r in range(1, q_order + 1):
        for m in range(r, q_order + 1, r):
            logs[m] += m // r * tops[m - r] * sums[r]
    theta = [1]
    for j in range(1, q_order + 1):
        value, rest = divmod(sum(map(mul, logs[1:j + 1], reversed(theta))), j)
        if rest:
            raise PropertyViolationError(
                f"the held-out theta product of {term.signature} at "
                f"t = {tau} is not integral at q^{j}")
        theta.append(value)
    return theta


def _fixed_point_sum_at(terms, parity, tau, q_order, thetas):
    """The fixed-point sum at an integer t = tau as (sums, lcm, top): its
    q^j coefficient is sums[j] / (lcm tau^(j top)).

    lcm is the lcm of the terms' prefactor denominators and top their
    largest weight magnitude.  The prefactors of one signature are summed
    over lcm first, so ``_theta_at``, which reads nothing of the division's
    theta rows, runs once per signature, reading and filling the table
    ``thetas`` keyed by (signature, tau): at one q-order a theta product
    depends on nothing else, so the circles of one result can share it.
    """
    terms = [t for t in terms if not t.zero]
    prefactors = [_prefactor_at(t, parity, tau) for t in terms]
    lcm = math.lcm(*(den for _, den in prefactors))
    top = max((t.top for t in terms), default=0)
    scales = {}
    for t, (num, den) in zip(terms, prefactors):
        scales.setdefault(t.signature, [t, 0])[1] += num * (lcm // den)
    sums = [0] * (q_order + 1)
    for t, scale in scales.values():
        if scale:
            key = (t.signature, tau)
            if key not in thetas:
                thetas[key] = _theta_at(t, tau, q_order)
            for j, c in enumerate(thetas[key]):
                sums[j] += scale * c * tau ** (j * (top - t.top))
    return sums, lcm, top


# Largest q-order either route accepts, and largest degree of the integer
# polynomials localization packs for one circle, so none has over 3001 slots.
# Both are checked before any polynomial is built (docs/manifest_format.md).
MAX_Q_ORDER = 12
MAX_LOCALIZATION_DEGREE = 3000


def _check_limit(name, value, limit):
    if not 0 <= value <= limit:
        raise InputError(f"{name} must lie in 0..{limit}, got {value}")


@lru_cache(maxsize=128)
def _square_series(tangents, v_count, w_count, q_order):
    """The t-free squares of all theta factors as one integer q-series,
    prod_k (1 - q^k)^(2 tangents - 2 v_count) / (1 + q^k)^(2 w_count).

    It depends on the weight counts alone, so it is built once per
    (tangents, v_count, w_count, q_order) and kept read-only, like the
    universal tables.
    """
    ks = range(1, q_order + 1)
    net = tangents - v_count
    ups = [(-1, k) for k in ks] * (2 * max(net, 0))
    downs = ([(-1, k) for k in ks] * (2 * max(-net, 0))
             + [(1, k) for k in ks] * (2 * w_count))
    return tuple(binomial_quotient(ups, downs, q_order))


@lru_cache(maxsize=128)
def _theta_majorant(tangents, v_count, w_count, q_order):
    """A bound on the sum of |coefficients| of every row of
    ``_term_series`` seeded with [1], for signatures with these weight
    counts: the largest coefficient of the recurrence's nonnegative
    majorant prod_k (1 + q^k)^(2 v_count + 2 w_count) / (1 - q^k)^(2 tangents),
    times the q-series of |coefficients| of ``_square_series``.

    Every pair factor's recurrence adds or subtracts shifted rows, and
    adding everything, with t = 1, bounds it; built once per
    (tangents, v_count, w_count, q_order), like ``_square_series``.
    """
    ks = range(1, q_order + 1)
    pairs = binomial_quotient([(1, k) for k in ks] * (2 * (v_count + w_count)),
                              [(-1, k) for k in ks] * (2 * tangents),
                              q_order)
    squares = _square_series(tangents, v_count, w_count, q_order)
    return max(sum(pairs[j - i] * abs(squares[i]) for i in range(j + 1))
               for j in range(q_order + 1))


def _packed_rows(signature, q_order, seed, bits):
    """The rows of ``_term_series`` for a packed seed, each one int with
    coefficient i in slot i of ``bits`` bits (``exactalg.pack_slots``).

    Only the pair factors (1 + s t^x q^k)(1 + s t^-x q^k), s = +1 for a W
    weight and -1 otherwise, run the recurrence of
    ``exactalg.binomial_quotient``, each c a monomial +-t^e, so a step adds
    a shifted row onto another: row j - k times t^e lies in row j from slot
    e + k*top >= 0, one shift and one addition.  The squares (1 + s q^k)^2
    are the one integer q-series S of ``_square_series``, applied last: S_i
    times row j - i lies in row j from slot i*top.  The ints are exact
    whatever the slots hold; only unpacking needs each coefficient to fit.
    """
    top, ks = max(max(w, default=0) for w in signature), range(1, q_order + 1)
    tangent, v_weights, w_weights = signature
    rows = [seed] + [0] * q_order
    # dividing by 1 - t^e q^k (tangent) adds row j - k, j rising;
    # multiplying by 1 - t^e q^k (V) or 1 + t^e q^k (W) subtracts or adds
    # it, j falling
    for x, subtract, rising in ([(w, False, True) for w in tangent]
                                + [(a, True, False) for a in v_weights]
                                + [(b, False, False) for b in w_weights]):
        for e in (x, -x):
            for k in ks:
                shift = bits * (e + k * top)
                for j in (range(k, q_order + 1) if rising
                          else range(q_order, k - 1, -1)):
                    step = rows[j - k] << shift
                    rows[j] = rows[j] - step if subtract else rows[j] + step
    squares = _square_series(len(tangent), len(v_weights), len(w_weights),
                             q_order)
    for j in range(q_order, 0, -1):
        rows[j] += sum(c * (rows[j - i] << bits * i * top)
                       for i, c in enumerate(squares[1:j + 1], 1) if c)
    return rows


def _term_series(signature, q_order, seed):
    """The integer polynomial ``seed`` times the product of the theta
    factors of a term's ``signature``: row j holds the coefficients of
    t^-j*top .. t^j*top + deg seed in q^j, top its largest |weight|.

    The rows are ``_packed_rows`` on the packed seed, unpacked; the slots
    hold max |seed| times ``_theta_majorant``, which bounds every
    coefficient of every row.
    """
    top = max(max(w, default=0) for w in signature)
    size = slot_size(max(map(abs, seed))
                     * _theta_majorant(*map(len, signature), q_order))
    rows = _packed_rows(signature, q_order, pack_slots(seed, size), 8 * size)
    return [unpack_slots(row, 2 * j * top + len(seed), size)
            for j, row in enumerate(rows)]


def _divided_sum(terms, q_order):
    """Each q-coefficient of the fixed-point sum as (low, coefficients),
    the integer polynomial t^low * sum_i coefficients[i] t^i.

    A term's q^j coefficient is its prefactor times row j of its theta
    series over B = prod_k (t^|w_k| - 1), which divides D = prod_d Phi_d^e_d,
    with e_d the most tangent weights at one fixed point that d divides.
    As t^m - 1 is the product of Phi_d over d | m, D is also
    prod_m (t^m - 1)^E_m with E_m = sum_{m | d} e_d mu(d/m).  B divides
    D+ = prod_m (t^m - 1)^max(E_m, 0) too, and the sum is taken over D+, so
    the row sums are only divided.  Polynomials are packed: multiplying by
    t^m +- 1 is a shift and an addition, and dividing by binomials is
    ``exactalg.divide_binomials``.

    Up to its ``sign`` and ``offset``, a term's prefactor times B is
    prod_V (t^|a| - 1) prod_W (1 + t^|b|), with 2 for b = 0, so it
    depends only on the term's signature, and so does
    D+/B = prod_m (t^m - 1)^(max(E_m, 0) - #{k : |w_k| = m}).  Each
    signature's numerator over D+ is therefore its terms' signs, summed at
    each offset, times these binomials, built once; unless the signs all
    cancel, it seeds the signature's ``_packed_rows``, whose rows come out
    multiplied.  All rows are packed in slots of one width, which hold the
    sum over signatures of max |numerator| times ``_theta_majorant``, a
    bound on every coefficient of every row sum.  Each signature's packed
    row j, shifted to its offset low - j*top, is added into the q^j row
    sum, which is divided by D+; a division that is not exact means it is
    no Laurent polynomial, so the terms are wrong.

    Before any polynomial is built, the slot counts of the polynomials the
    division packs are read from the plans and must stay within the limit:
    each numerator's dividend, and the row sum at q^q_order, which holds
    every lower row sum, every theta row and every quotient.  A signature
    whose signs all cancel has no plan, so it is not read.
    """
    terms = [t for t in terms if not t.zero]
    # a weight over the limit is refused before divisors() runs on it
    _check_limit("localization degree", max((t.top for t in terms), default=0),
                 MAX_LOCALIZATION_DEGREE)
    # e_d, from one divisor list per weight value
    tangents, most = {t.signature[0] for t in terms}, {}
    divisor_lists = {w: divisors(w) for w in set().union(*tangents)}
    for tangent in tangents:
        counts = {}
        for w in tangent:
            for d in divisor_lists[w]:
                counts[d] = counts.get(d, 0) + 1
        for d, count in counts.items():
            most[d] = max(most.get(d, 0), count)
    denominator = {m: e for m, e in binomial_exponents(most).items() if e > 0}
    groups = {}
    for t in terms:
        signs = groups.setdefault(t.signature, (t, {}))[1]
        signs[t.offset] = signs.get(t.offset, 0) + t.sign
    plans = []
    for t, signs in groups.values():
        # the signs summed at each offset; if all cancel, nothing is read
        pieces = {lo: sign for lo, sign in signs.items() if sign}
        if not pieces:
            continue
        tangent, v_weights, w_weights = t.signature
        exponent_map = dict(denominator)
        for weights, step in ((tangent, -1), (v_weights, 1)):
            for m in weights:
                exponent_map[m] = exponent_map.get(m, 0) + step
        # (m, s) for each factor t^m + s, W's and the map's positive part
        ups = [(b, 1) for b in w_weights] + [
            (m, -1) for m, e in exponent_map.items() for _ in range(e)]
        downs = {m: -e for m, e in exponent_map.items() if e < 0}
        low = min(pieces)
        count = max(pieces) - low + 1 + sum(m for m, _ in ups)
        length = count - sum(m * e for m, e in downs.items())
        plans.append((t, pieces, low, ups, count, downs, length))
    if not plans:
        return [(0, [])] * (q_order + 1)
    # the row sum at q^q_order, over each numerator's length once divided,
    # holds every signature's theta rows, every lower row sum and quotient
    reach = (max(low + q_order * t.top + length
                 for t, _, low, *_, length in plans)
             - min(low - q_order * t.top for t, _, low, *_ in plans))
    _check_limit("localization degree",
                 max(reach, *(count for *_, count, _, _ in plans)) - 1,
                 MAX_LOCALIZATION_DEGREE)
    numerators = []
    for t, pieces, low, ups, count, downs, _ in plans:
        # |coefficients| <= sum |sign|, at most doubled by each factor
        size = slot_size(sum(map(abs, pieces.values())) << len(ups))
        bits = 8 * size
        value = sum(sign << bits * (lo - low) for lo, sign in pieces.items())
        for m, s in ups:
            value = (value << bits * m) + s * value
        numerator = divide_binomials(value, count, size, downs)
        if numerator is None:
            raise PropertyViolationError(
                f"the numerator of signature {t.signature} over the common "
                "denominator leaves a nonzero remainder, so the fixed-point "
                "data is inconsistent")
        numerators.append((t, low, numerator))
    # no coefficient of a row sum exceeds the sum over signatures of
    # max |numerator| times the majorant of their theta rows
    size = slot_size(sum(
        max(map(abs, numerator))
        * _theta_majorant(*map(len, t.signature), q_order)
        for t, _, numerator in numerators))
    bits = 8 * size
    shared = [(t.top, low, len(numerator),
               _packed_rows(t.signature, q_order, pack_slots(numerator, size),
                            bits))
              for t, low, numerator in numerators]
    out = []
    for j in range(q_order + 1):
        # a signature's row j holds t^(lo - j*top) up to, not including,
        # t^(lo + j*top + length)
        low = min(lo - j * top for top, lo, _, _ in shared)
        count = max(lo + j * top + length
                    for top, lo, length, _ in shared) - low
        total = sum(rows[j] << bits * (lo - j * top - low)
                    for top, lo, _, rows in shared)
        quotient = divide_binomials(total, count, size, denominator)
        if quotient is None:
            raise PropertyViolationError(
                f"the fixed-point sum at q^{j} leaves a nonzero remainder on "
                "division by its common denominator, so it is no Laurent "
                "polynomial and the fixed-point data is inconsistent")
        out.append((low, quotient))
    return out


def _equivariant_series(manifold, xi, twist, q_order, thetas):
    """Shared engine: returns (polys, parity), polys[j] the q^j coefficient
    as {e: c} for the character sum c t^(e + parity/2), for the twist
    tuple of ``_twist``.

    The exact, certified division of ``_divided_sum`` proves every
    q-coefficient with no exponent window; the fixed-point sum,
    evaluated in integers at t = 2 and 3 by ``_fixed_point_sum_at`` from
    its own recurrence, must match it there too.  Both sides stay integers:
    each quotient is evaluated at both points by ``_at_two_and_three``,
    and they are compared by cross-multiplying their denominators.
    ``thetas`` is the held-out table of ``_fixed_point_sum_at`` at this
    q-order: a new ``{}`` for one circle, one shared table for the two
    circles of ``_on_two_circles``.
    """
    _check_limit("q-order", q_order, MAX_Q_ORDER)
    terms = _vertex_terms(manifold, xi, *twist)
    parity = _common_parity(terms)
    rows = _divided_sum(terms, q_order)
    low = min(lo for lo, _ in rows)
    at_points = zip(*(_at_two_and_three(quotient) for _, quotient in rows))
    for tau, values in zip((2, 3), at_points):
        sums, lcm, top = _fixed_point_sum_at(terms, parity, tau, q_order,
                                             thetas)
        # q^j: the divided sum is got * tau^low, the fixed-point sum
        # sums[j] / (lcm tau^(j top))
        gots = [value * tau ** (lo - low)
                for value, (lo, _) in zip(values, rows)]
        shifts = [low + j * top for j in range(q_order + 1)]
        if any(got * lcm * tau ** max(shift, 0) != s * tau ** max(-shift, 0)
               for got, s, shift in zip(gots, sums, shifts)):
            divided = [got * Fraction(tau) ** low for got in gots]
            fixed = [Fraction(s, lcm * tau ** (j * top))
                     for j, s in enumerate(sums)]
            raise PropertyViolationError(
                f"held-out check at t = {tau}: the divided sum gives "
                f"{divided}, the fixed-point sum {fixed}")
    return [{lo + i: c for i, c in enumerate(quotient) if c}
            for lo, quotient in rows], parity


def _at_two_and_three(a):
    """The integer polynomial a (lowest degree first) at t = 2 and 3, by
    Horner's rule in one pass."""
    two = three = 0
    for c in reversed(a):
        two, three = 2 * two + c, 3 * three + c
    return two, three


def _characters(polys, parity):
    """The q-coefficients of ``_equivariant_series`` as characters."""
    return QSeries([HalfLaurent.from_integer_poly(p, parity) for p in polys],
                   len(polys) - 1)


def _equivariant(manifold, xi, twist, q_order):
    """The circle-equivariant index of a ``_twist`` tuple on the circle xi."""
    xi = _as_circle(xi)
    polys, parity = _equivariant_series(manifold, xi, twist, q_order, {})
    return EquivariantIndex(_characters(polys, parity), xi, parity)


def equivariant_index(manifold, xi, bundles, q_order):
    """The circle-equivariant twisted index as exact Laurent q-coefficients,
    twisted by ``manifold.spin_c``."""
    return _equivariant(manifold, xi, _twist(manifold, "custom", bundles),
                        q_order)


def choose_generic_circles(manifold, bundles=None, count=2):
    """Deterministic generic circle vectors, cheapest first.

    Candidates are primitive integer vectors with a positive first nonzero
    entry; genericity means no tangent weight pairs to zero anywhere.  The
    cost orders candidates by the total weight mass they produce, which is
    what the polynomial degrees of localization scale with, and ties by the
    vector.  The result is the ``count`` cheapest candidates of the smallest
    box [-b, b]^n that holds ``count`` of them, found by
    ``_cheapest_in_box`` within ``MAX_CIRCLE_NODES`` search nodes.
    """
    if count < 1:
        raise InputError(f"need at least one circle, got count {count}")
    n = manifold.dimension
    fps = manifold.fixed_points()
    lines = []
    if bundles is not None:
        bundles.validate_for(manifold)
        lines = list(bundles.v_lines) + list(bundles.w_lines)
    if n == 1:
        # one primitive direction: scaled copies give honest independent
        # evaluations for cross-checking
        return [CircleSubgroup((k,)) for k in range(1, count + 1)]

    # The mass is sum |<u, xi>| over every fixed point's tangent weights u
    # and, for each line, its vector u = sum_k line[f_k] w_k there, so it is
    # a weighted sum over the distinct vectors up to sign.
    zero = (0,) * n

    def up_to_sign(u):
        return u if u > zero else tuple(map(neg, u))

    tangents = [up_to_sign(w) for fp in fps for w in fp.weights]
    masses = Counter(tangents)
    masses.update(up_to_sign(tuple(
        sum(line[f - 1] * w[i] for f, w in zip(fp.vertex, fp.weights))
        for i in range(n))) for fp in fps for line in lines)
    best = _cheapest_in_box(n, masses, set(tangents), count)
    return [CircleSubgroup(xi) for _, xi in best]


# Largest number of nodes the generic circle search may visit over all the
# boxes it searches; a node is a partial vector whose completed tangent
# weights all pair nonzero.  CP^8 needs 55812, CP^9 would need 2931542.
MAX_CIRCLE_NODES = 6 * 10 ** 4


def _cheapest_in_box(n, masses, weights, count):
    """The ``count`` cheapest (cost, xi) of the smallest box that holds
    ``count`` primitive generic vectors, sorted.

    Box bound b = 1, 2, ... adds only its shell, the vectors whose largest
    |entry| is b, to the candidates of the boxes before it, which number
    fewer than ``count``.  A shell is searched depth first, one coordinate
    at a time with small |x| first, carrying every mass vector's partial
    dot product; a vector's pairing is final at its last nonzero
    coordinate, where a tangent weight rules out the one value that pairs
    it to zero.  Once ``count`` candidates are held, a branch is cut when
    its completed mass, plus one unit for each open tangent weight since it
    must pair nonzero, passes the dearest of them, or equals its cost with
    a greater prefix.  Primitivity is tested at the leaves.
    """
    # dots at depth i holds the partial pairings of the vectors that close
    # at i or later, ordered by closing coordinate, tangent weights first,
    # so the weights closing at i lead the list
    ends = {u: max(i for i, a in enumerate(u) if a) for u in masses if any(u)}
    vectors = sorted(ends, key=lambda u: (ends[u], u not in weights))
    closing = [[u for u in vectors if ends[u] == i] for i in range(n)]
    coefficients = [[u[i] for u in group] for i, group in enumerate(closing)]
    costs = [[masses[u] for u in group] for group in closing]
    closing_weights = [[u[i] for u in group if u in weights]
                       for i, group in enumerate(closing)]
    open_weights = [sum(masses[u] for u in vectors
                        if ends[u] > i and u in weights) for i in range(n)]
    columns = [[u[i] for u in vectors if ends[u] > i] for i in range(n)]
    best, xi = [], [0] * n
    nodes = 0

    def visit(i, dots, mass, lead, hit):
        nonlocal nodes
        if i == n - 1 and not hit:
            values = (bound,) if lead else (bound, -bound)
        elif lead:
            values = range(bound + 1)
        else:
            values = order
        terms = list(zip(dots, coefficients[i], costs[i]))
        banned = {-p // a for p, a in zip(dots, closing_weights[i])
                  if not p % a}
        rest = dots[len(terms):]
        for x in values:
            if x in banned:
                continue
            nodes += 1
            if nodes > MAX_CIRCLE_NODES:
                raise InputError(
                    f"generic circle search in dimension {n} passed "
                    f"{MAX_CIRCLE_NODES} search nodes at box bound {bound}")
            total = mass
            for p, a, c in terms:
                total += c * abs(p + a * x)
            xi[i] = x
            if len(best) == count:
                low, (cost, dearest) = total + open_weights[i], best[-1]
                if low > cost or low == cost and xi[:i + 1] > list(
                        dearest[:i + 1]):
                    continue
            if i < n - 1:
                if x:
                    now = [d + a * x for d, a in zip(rest, columns[i])]
                else:
                    now = rest
                visit(i + 1, now, total, lead and not x,
                      hit or abs(x) == bound)
            elif math.gcd(*xi) == 1:
                found = (total, tuple(xi))
                if len(best) < count:
                    insort(best, found)
                elif found < best[-1]:
                    insort(best, found)
                    best.pop()
        xi[i] = 0

    for bound in range(1, 65):
        order = [0] + [y for x in range(1, bound + 1) for y in (x, -x)]
        visit(0, [0] * len(vectors), 0, True, False)
        if len(best) == count:
            return best
    raise DegenerateCircleError(
        "could not find enough generic circle vectors; "
        "the characteristic data is degenerate")


def _on_two_circles(manifold, bundles, what, compute):
    """``compute(circle, thetas)`` on the two cheapest generic circles,
    which must agree: a non-equivariant localization result does not
    depend on it.  Both calls get one new held-out table ``thetas`` (see
    ``_fixed_point_sum_at``), dropped when this returns."""
    first, second = choose_generic_circles(manifold, bundles, count=2)
    thetas = {}
    result, other = compute(first, thetas), compute(second, thetas)
    if result != other:
        raise PropertyViolationError(
            f"{what} differs between generic circles {first.xi} and "
            f"{second.xi}: {result} vs {other}")
    return result


def _index_at_one(manifold, twist, q_order):
    """Non-equivariant index of a ``_twist`` tuple, certified on two
    generic circles."""
    def at_one(xi, thetas):
        polys, _ = _equivariant_series(manifold, xi, twist, q_order, thetas)
        return QSeries([sum(p.values()) for p in polys], q_order)
    return _on_two_circles(manifold, BundleSpec(*twist[:2]), "index", at_one)


def index(manifold, bundles, q_order):
    """The twisted index as a q-series of integers (t = 1 characters),
    twisted by ``manifold.spin_c``."""
    return _index_at_one(manifold, _twist(manifold, "custom", bundles),
                         q_order)


def spin_obstruction(manifold):
    """None if M is spin, else the mod-2 facet vector that obstructs it."""
    m = manifold.num_facets
    ones = [1] * m
    if gf2_solve(list(manifold.char_matrix), ones) is None:
        return tuple(ones)
    return None


def spin_gamma(manifold):
    """An odd twist vector whose facet sum vanishes exactly in cohomology.

    Solves (row bits) . characteristic matrix = all-ones over GF(2) and
    lifts the bits to integers; the resulting vector is odd entrywise and
    its facet-class combination is a row combination, hence zero.
    """
    m = manifold.num_facets
    eta = gf2_solve(list(manifold.char_matrix), [1] * m)
    if eta is None:
        raise SpinObstructionError(
            "manifold is not spin: the all-ones facet vector is not a mod-2 "
            "combination of the characteristic matrix rows",
            obstruction=(1,) * m)
    gamma = tuple(
        sum(eta[i] * manifold.char_matrix[i][j] for i in range(manifold.dimension))
        for j in range(m))
    return gamma, tuple(eta)


def _twist(manifold, kind, bundles=None):
    """(v_lines, w_lines, gamma, tangent_as_w) for an index of one kind:
    its V and W lines, its twist vector and whether W is TM.

    "custom" twists by ``bundles``, validated here, and ``manifold.spin_c``.
    "witten", "elliptic" and "signature" twist by the zero vector, the last
    two with W = TM, and all but "signature" need a spin structure.  Zero
    stands in for gamma = eta Lambda of ``spin_gamma``: the tangent weights
    at a fixed point are the dual basis of its characteristic columns, so
    gamma restricts to <eta, xi> at each one and its class is 0; twisting
    by gamma, then dividing by t^(<eta, xi>/2), is twisting by zero.
    """
    if kind == "custom":
        bundles = bundles or BundleSpec.empty()
        bundles.validate_for(manifold)
        return bundles.v_lines, bundles.w_lines, manifold.spin_c, False
    if kind != "signature":
        spin_gamma(manifold)
    return (), (), (0,) * manifold.num_facets, kind != "witten"


def witten_genus(manifold, q_order):
    """Untwisted spin index; requires a spin structure."""
    return _index_at_one(manifold, _twist(manifold, "witten"), q_order)


def elliptic_genus(manifold, q_order):
    """Index twisted by the full tangent bundle; requires spin."""
    return _index_at_one(manifold, _twist(manifold, "elliptic"), q_order)


def equivariant_witten_genus(manifold, xi, q_order):
    return _equivariant(manifold, xi, _twist(manifold, "witten"), q_order)


def equivariant_elliptic_genus(manifold, xi, q_order):
    return _equivariant(manifold, xi, _twist(manifold, "elliptic"), q_order)


def euler_characteristic(manifold):
    """Fixed-point count of the torus action."""
    return len(manifold.fixed_points())


def signature(manifold):
    """Signature by the rigid fixed-point sum; no spin structure needed.

    The sum of sign(v) * prod (t^w + 1)/(t^w - 1) over fixed points is the
    q^0 index with W the tangent bundle and no twist.  It must be constant
    in t and agree between two generic circles.
    """
    twist = _twist(manifold, "signature")

    def constant(xi, thetas):
        character = _characters(*_equivariant_series(
            manifold, xi, twist, 0, thetas)).coeffs[0]
        if set(character.coeffs) - {0}:
            raise PropertyViolationError(
                f"signature sum is not constant in t for circle {xi.xi}: "
                f"{character}")
        return character.value_at_one()
    return _on_two_circles(manifold, None, "signature", constant)


# ---------------------------------------------------------------------------
# Cohomological route
# ---------------------------------------------------------------------------


def _truncated_product(a, b):
    """The product of two tables, truncated to the larger.  A table lists
    the q^j coefficients of a power series in q and x, each as the list of
    its x^i coefficients, and all its rows have one length."""
    width = len(a[0])
    out = [[0] * width for _ in range(max(len(a), len(b)))]
    for j, row in enumerate(a):
        for i, x in enumerate(row):
            if x:
                for target, other in zip(out[j:], b):
                    for k, y in enumerate(other[:width - i], i):
                        target[k] += x * y
    return out


def _exp_row(cap, s):
    """e^(s x) up to x^cap, for a Fraction s."""
    return [s ** i / math.factorial(i) for i in range(cap + 1)]


@lru_cache(maxsize=128)
def _universal_tables(cap, q_order):
    """One-root tables for the three index factors, each a read-only tuple
    of q-coefficients, each a tuple of its x^i coefficients for i <= cap,
    built once per (cap, q_order).

    tangent: (x/2)/sinh(x/2) * prod_k (1-q^k)^2 / ((1-e^x q^k)(1-e^-x q^k))
    vline:   (1-e^-x) * prod_k (1-e^x q^k)(1-e^-x q^k) / (1-q^k)^2
    wline:   (e^(x/2)+e^(-x/2)) * prod_k (1+e^x q^k)(1+e^-x q^k) / (1+q^k)^2

    Each theta product is a Laurent polynomial in t = e^x per power of q,
    row j of ``_term_series`` for a single weight 1, and t^e adds
    e^i / i! to the x^i coefficient; the prefactor multiplies it as a table
    of one row.
    """
    # (x/2)/sinh(x/2) inverts sinh(x/2)/(x/2) = sum_i x^2i / (4^i (2i+1)!),
    # a power series in x
    sinh_norm = [0 if i % 2 else Fraction(1, 2 ** i * math.factorial(i + 1))
                 for i in range(cap + 1)]
    one = _exp_row(cap, Fraction(0))
    factors = {
        "tangent": (((1,), (), ()), QSeries(sinh_norm).invert().coeffs),
        "vline": (((), (1,), ()),
                  list(map(sub, one, _exp_row(cap, Fraction(-1))))),
        "wline": (((), (), (1,)), list(map(add, _exp_row(cap, Fraction(1, 2)),
                                           _exp_row(cap, Fraction(-1, 2))))),
    }
    tables = {}
    for name, (signature, prefactor) in factors.items():
        theta = [[Fraction(sum(c * e ** i for e, c in enumerate(row, -j)),
                           math.factorial(i)) for i in range(cap + 1)]
                 for j, row in enumerate(_term_series(signature, q_order, [1]))]
        tables[name] = tuple(map(tuple, _truncated_product([prefactor], theta)))
    return MappingProxyType(tables)


def _prime_exponents(n):
    """{p: e} with n = prod p^e, by trial division (n is a small lcm)."""
    out, p = Counter(), 2
    while p * p <= n:
        while n % p == 0:
            out[p] += 1
            n //= p
        p += 1
    if n > 1:
        out[n] += 1
    return out


@lru_cache(maxsize=128)
def _integer_tables(cap, q_order):
    """The universal tables and e^(x/2) in the gauge x -> L x: (L, tables).

    ``tables[name][j][i]`` is L^i times the x^i coefficient of the q^j
    coefficient, with "twist" the single q^0 row of e^(x/2).  L is the
    least integer with D_i | L^i for every i, D_i the lcm of the
    denominators of all x^i coefficients, so every entry is an integer.
    Built once per (cap, q_order) and read-only, like ``_universal_tables``.
    """
    tables = dict(_universal_tables(cap, q_order),
                  twist=(tuple(_exp_row(cap, Fraction(1, 2))),))
    need = Counter()
    for i in range(1, cap + 1):
        lcm = math.lcm(*(row[i].denominator
                         for table in tables.values() for row in table))
        for p, e in _prime_exponents(lcm).items():
            need[p] = max(need[p], -(-e // i))
    gauge = math.prod(p ** e for p, e in need.items())
    return gauge, MappingProxyType({
        name: tuple(tuple(int(c * gauge ** i) for i, c in enumerate(row))
                    for row in table)
        for name, table in tables.items()})


@lru_cache(maxsize=128)
def _class_table(names, cap, q_order):
    """The product of the integer tables of ``names``, the sorted names of
    the factors on one class, repeats kept.  The gauge L^i is
    multiplicative, so the product is in the same gauge and in integers.
    Built once per (names, cap, q_order) and read-only, like
    ``_integer_tables``.
    """
    tables = _integer_tables(cap, q_order)[1]
    out = tables[names[0]]
    for name in names[1:]:
        out = _truncated_product(out, tables[name])
    return tuple(map(tuple, out))


def cohomological_index_on_ring(ring, tangent_roots, v_lines, w_lines, twist,
                                q_order, w_trivial_rank=0):
    """Integrate the index density over any ``GradedRing``.

    Every input is a line, an integer coefficient vector on the ring's
    generators, whose first Chern class ``ring.line_coordinates`` gives as
    integer coordinates over ``ring.basis(1)``.  tangent_roots are the
    stable splitting roots (trivial summands may be included or left out:
    their factor is 1), and ``twist`` enters as e^(c1/2).
    ``w_trivial_rank`` divides out the constant 2 that each trivial W
    summand contributes, for callers that describe W through a stable
    splitting.

    The integrand U is a q-series of integer vectors over
    ``ring.structure``.  The factors on one class a share one table T, the
    product of theirs, which enters by Horner's rule: R_d = a R_(d+1) +
    T_d U for d from n, or from the largest d with a^d != 0, down to 0,
    with T_d the q-series of x^d coefficients, and U becomes R_0.  R_d is
    later multiplied by a^d, so only its degrees up to n - d are kept, and
    zero vectors are skipped.  With L the gauge of ``_integer_tables`` and
    delta the structure's denominator, degree d carries (L delta)^d
    throughout, and each top coordinate is divided back once.
    """
    _check_limit("q-order", q_order, MAX_Q_ORDER)
    structure = ring.structure
    n, starts, size = ring.dimension, structure.starts, len(structure.tokens)
    # Lines of one class share one table and one pass.  The twist's table
    # is one row in q, so it goes first, while the integrand is still 1.
    names, coordinates = {}, ring.line_coordinates
    for name, lines in (("twist", (twist,)), ("wline", w_lines),
                        ("vline", v_lines), ("tangent", tangent_roots)):
        for line in lines:
            names.setdefault(tuple(coordinates(line)), []).append(name)
    integrand = [[1] + [0] * (size - 1)] + [[0] * size for _ in range(q_order)]
    for vec, factors in names.items():
        table = _class_table(tuple(sorted(factors)), n, q_order)
        times = structure.multiplier(vec)
        top, power = 0, times([1] + [0] * (size - 1))
        while top < n and any(power):
            top, power = top + 1, times(power)
        live = [u if any(u) else None for u in integrand]
        out = [[0] * size for _ in integrand]
        for d in range(top, -1, -1):
            keep = starts[n - d + 1]
            out = [times(r, starts[n - d]) if any(r) else r for r in out]
            for i, row in enumerate(table):
                if row[d]:
                    for target, u in zip(out[i:], live):
                        if u:
                            target[:keep] = [x + row[d] * y
                                             for x, y in zip(target[:keep], u)]
        integrand = out
    gauge = _integer_tables(n, q_order)[0]
    scale = (gauge * structure.delta) ** n * 2 ** w_trivial_rank
    return QSeries([ring.top_integral(vec[-1], scale) for vec in integrand],
                   q_order)


def _cohomological(manifold, twist, q_order):
    """The index of a ``_twist`` tuple from the face ring.  The tangent
    roots are the m facet lines; W = TM is taken as the same lines, which
    overshoot TM by m - n trivial summands, each worth a constant factor 2
    in the W product, divided back out."""
    v_lines, w_lines, gamma, tangent_as_w = twist
    m, trivial = manifold.num_facets, 0
    roots = [tuple(int(j == f) for j in range(m)) for f in range(m)]
    if tangent_as_w:
        w_lines, trivial = roots, m - manifold.dimension
    return cohomological_index_on_ring(
        build_face_ring(manifold), roots, v_lines, w_lines, gamma, q_order,
        w_trivial_rank=trivial)


def cohomological_index(manifold, bundles, q_order):
    """The twisted index from the face ring; the localization oracle's twin."""
    return _cohomological(manifold, _twist(manifold, "custom", bundles),
                          q_order)


def cohomological_elliptic_genus(manifold, q_order):
    """Elliptic genus through the stable splitting W = TM."""
    return _cohomological(manifold, _twist(manifold, "elliptic"), q_order)


def cohomological_witten_genus(manifold, q_order):
    return _cohomological(manifold, _twist(manifold, "witten"), q_order)
