"""Executable forms of the vanishing and finiteness arguments.

Everything here reduces a geometric statement to finite exact linear
algebra and ring arithmetic:

* a degree-4 equivariant class is a triple of components in a chosen
  splitting; killing its middle component is a rational kernel computation
  that produces the circle subgroup the vanishing theorems want;
* the sign test assigns an integer to (manifold, circle, bundles) by
  restricting the equivariant Pontryagin class to fixed points, and checks
  the answer is the same at every fixed point;
* the twist-bundle construction turns a p1 decomposition into explicit
  line-bundle data whose defining identities are then re-verified on
  integer lines, never assumed;
* the census enumerates all characteristic matrices over small connected
  sums of simplices and confirms the resulting p1 coefficients stay inside
  the proven bound.
"""

from fractions import Fraction

from .errors import (InputError, PreconditionError, PropertyViolationError,
                     RankHypothesisError, RingShapeError, WellDefinednessError)
from .exactalg import _exact
from .linalg import nullspace, primitive_vector, rref
from .cohomology import (SyntheticConnectedSumRing, build_face_ring,
                         facet_class_decomposition)
from .genus import (CircleSubgroup, _circle_vector, _fixed_point_weights,
                    _twist, cohomological_index_on_ring)
from .manifest import MAX_DIMENSION
from .polytope import (QuasitoricManifold, connected_sum,
                       sign_orbit_members, sign_orbit_representatives,
                       simplex)


class EquivariantDegree4Class:
    """A degree-4 equivariant class split into its three components.

    ``a40``: symmetric rational matrix on the torus Lie algebra (the pure
    base component).  ``a22``: rational matrix of shape (rank T) x b2, the
    mixed component in a chosen basis of degree-two classes.  ``a04_is_zero``
    records whether the purely fiberwise component vanishes; the circle
    construction requires it.
    """

    __slots__ = ("a40", "a22", "a04_is_zero")

    def __init__(self, a40, a22, a04_is_zero=True):
        self.a40 = tuple(tuple(Fraction(x) for x in row) for row in a40)
        for i, row in enumerate(self.a40):
            if len(row) != len(self.a40):
                raise InputError("a40 must be square")
            for k in range(len(row)):
                if row[k] != self.a40[k][i]:
                    raise InputError("a40 must be symmetric")
        self.a22 = tuple(tuple(Fraction(x) for x in row) for row in a22)
        widths = {len(row) for row in self.a22}
        if len(widths) > 1:
            raise InputError("a22 rows must have equal length")
        if self.a40 and len(self.a22) != len(self.a40):
            raise InputError("a22 must have one row per torus coordinate")
        self.a04_is_zero = bool(a04_is_zero)

    @property
    def torus_rank(self):
        return len(self.a22)

    @property
    def b2(self):
        return len(self.a22[0]) if self.a22 else 0

    @classmethod
    def of_negative_tangent_p1(cls, manifold):
        """The class -sum u_j^2 of equivariant facet classes, split over a
        pivot/free column choice of the characteristic matrix.

        Each facet class decomposes as (torus part mu_j) + (fiber part
        rho_j over the free columns); the components of the square follow
        by expanding.  The fiberwise component is the ordinary -p1, whose
        vanishing is checked in the face ring.
        """
        n = manifold.dimension
        m = manifold.num_facets
        aug = [{**{j: x for j, x in enumerate(row) if x}, m + i: 1}
               for i, row in enumerate(manifold.char_matrix)]
        red, pivots = rref(aug)
        if len(pivots) != n or any(p >= m for p in pivots):
            raise PropertyViolationError(
                "characteristic matrix lost full rank during reduction")
        free = [j for j in range(m) if j not in pivots]
        mu = {}
        rho = {}
        for row, p in zip(red, pivots):
            mu[p] = tuple(row.get(m + k, 0) for k in range(n))
            rho[p] = tuple(-row.get(f, 0) for f in free)
        for pos, f in enumerate(free):
            mu[f] = (0,) * n
            rho[f] = tuple(int(k == pos) for k in range(len(free)))
        a40 = [[-sum(mu[j][i] * mu[j][k] for j in range(m)) for k in range(n)]
               for i in range(n)]
        a22 = [[-2 * sum(mu[j][i] * rho[j][f] for j in range(m))
                for f in range(len(free))]
               for i in range(n)]
        return cls(a40, a22, not any(build_face_ring(manifold).p1_square_sum()))


def find_circle(cls4):
    """A primitive circle killing the mixed component of a degree-4 class.

    Requires rank T > b2 (so a nonzero kernel is guaranteed) and a vanishing
    fiberwise component.  Returns a primitive integer vector xi with
    a22^T xi = 0, verified literally before returning.
    """
    if not cls4.a04_is_zero:
        raise PreconditionError(
            "the fiberwise degree-4 component does not vanish; no circle "
            "can reduce this class to a pullback")
    rank_t = cls4.torus_rank
    b2 = cls4.b2
    rows = [{i: cls4.a22[i][f] for i in range(rank_t) if cls4.a22[i][f]}
            for f in range(b2)]
    basis = nullspace(rows, rank_t) if rows else None
    if rank_t <= b2:
        kernel = None
        if basis:
            kernel = CircleSubgroup(primitive_vector(basis[0]))
        raise RankHypothesisError(
            f"torus rank {rank_t} does not exceed b2 = {b2}; a kernel "
            + ("still exists and is attached" if kernel else "need not exist"),
            kernel=kernel)
    if rows:
        if not basis:
            raise PropertyViolationError(
                "rank hypothesis holds but the kernel computation came back "
                "empty")
        xi = primitive_vector(basis[0])
    else:
        xi = tuple([1] + [0] * (rank_t - 1))
    for f in range(b2):
        if sum(cls4.a22[i][f] * xi[i] for i in range(rank_t)) != 0:
            raise PropertyViolationError(
                f"constructed circle {xi} fails to annihilate column {f}")
    return CircleSubgroup(xi)


def anomaly_coefficient(manifold, xi, bundles=None):
    """The integer I with p1 of (V + W - TM), restricted equivariantly,
    equal to I x^2 at every fixed point.

    Line-bundle lifts are normalised to have zero weight at the
    lexicographically least vertex.  If the fixed points disagree the class
    is not a pullback and the computation reports all values.
    """
    v_lines, w_lines, _, _ = _twist(manifold, "custom", bundles)
    xi = _circle_vector(manifold, xi)
    values, base = {}, None
    for fp in manifold.fixed_points():
        tangent, weights = _fixed_point_weights(fp, xi, v_lines + w_lines)
        if base is None:
            base = weights
        values[fp.vertex] = (sum((a - b) ** 2 for a, b in zip(weights, base))
                             - sum(w * w for w in tangent))
    distinct = set(values.values())
    if len(distinct) != 1:
        raise WellDefinednessError(
            "the restricted degree-4 class differs across fixed points, so "
            f"it is not a pullback: {values}", values=values)
    return distinct.pop()


def check_twist_classes(manifold, lines):
    """Verify the three conditions a twisting class system must satisfy,
    for n lines given as facet coefficient vectors: their classes sum to
    the Spin^c class, their squares sum to p1, and their product pairs
    nontrivially with the fundamental class.
    """
    n = manifold.dimension
    if len(lines) != n:
        raise InputError(f"need exactly {n} lines, got {len(lines)}")
    ring = build_face_ring(manifold)
    sums, squares, pairing = _twist_identities(ring, lines, lines,
                                               manifold.spin_c)
    report = {
        "sum_is_spinc_class": sums,
        "squares_sum_is_p1": squares == ring.p1_square_sum(),
        "pairing": pairing,
        "pairing_nonzero": pairing != 0,
    }
    report["all_hold"] = all(report[key] for key in (
        "sum_is_spinc_class", "squares_sum_is_p1", "pairing_nonzero"))
    return report


def _case_line_data(beta, n, i0_idx, case):
    """Line-bundle coefficient vectors (over the generator basis) and
    multiplicities for one parity case of the twist construction.

    The W counts are {generator index: (vector, multiplicity)}, the pivot
    generator last.
    """
    k = len(beta)
    alpha = [b % 2 for b in beta]

    def unit(i, scale=1):
        v = [0] * k
        v[i] = scale
        return tuple(v)

    mixed = tuple(1 if i == i0_idx else a for i, a in enumerate(alpha))

    if case == 1:
        v_counts = [(unit(i0_idx, 2), 1), (mixed, 1), (unit(i0_idx), n - 2)]
        pivot_twist, pivot_w = n + 1, n + 3
    else:
        v_counts = [(mixed, 1), (unit(i0_idx), n - 1)]
        pivot_twist, pivot_w = n, n
    parity_ok = alpha[i0_idx] == pivot_twist % 2
    w_counts = {i: (unit(i), beta[i] - alpha[i])
                for i in range(k) if i != i0_idx}
    w_counts[i0_idx] = (unit(i0_idx), beta[i0_idx] - pivot_w)
    twist = list(alpha)
    twist[i0_idx] = pivot_twist
    return parity_ok, v_counts, w_counts, tuple(twist)


def _expand_counts(counts):
    return [vec for vec, mult in counts for _ in range(mult)]


def construct_twist_bundles_on_ring(ring, beta, i0=1, spinc_coords=None,
                                    facets=None):
    """Build and verify the two parity cases of the twist construction over
    a ring with a fixed generator basis and p1 = sum beta_i g_i^2.

    Works for synthetic rings (where inflated beta exercises the branch the
    bound forbids on real manifolds) and for real decompositions alike.
    The line data are coefficient vectors on the k generators, and each
    becomes a ring line through ``_facet_spec``: for a face ring the caller
    passes the generator ``facets``, while a synthetic ring's generators
    are its own.  Negative multiplicities are reported, not raised: they
    are the shape of the conclusion "the bound holds here".
    """
    k = len(beta)
    if facets is None:
        facets = range(1, ring.num_generators + 1)
    if len(facets) != k:
        raise InputError("beta length does not match the generator count")
    if not 1 <= i0 <= k:
        raise InputError(f"generator index {i0} out of range 1..{k}")
    if any(b <= 0 for b in beta):
        raise InputError(f"p1 coefficients must be positive, got {beta}")
    n = ring.dimension
    i0_idx = i0 - 1
    p1 = ring.square_sum([[int(j == f) for j in range(
        1, ring.num_generators + 1)] for f in facets], beta)

    cases = []
    for case in (1, 2):
        parity_ok, v_counts, w_counts, twist = _case_line_data(
            beta, n, i0_idx, case)
        mults = {f"w_generator_{i + 1}": m for i, (_, m) in w_counts.items()}
        nonneg = all(m >= 0 for _, m in v_counts + list(w_counts.values()))
        entry = {
            "case": case,
            "parity_matches": parity_ok,
            "twist_class": twist,
            "v_lines": _expand_counts(v_counts),
            "w_lines": _expand_counts(w_counts.values()),
            "w_multiplicities": mults,
            "all_nonnegative": nonneg,
        }
        if parity_ok and not nonneg:
            entry["bound_holds"] = True
        if nonneg:
            entry["checks"] = _verify_case(
                ring, facets, p1, entry, twist, spinc_coords)
        cases.append(entry)

    applicable = next(e for e in cases if e["parity_matches"])
    report = {
        "beta": tuple(beta),
        "pivot_generator": i0,
        "dimension": n,
        "cases": cases,
        "applicable_case": applicable["case"],
        "beta_bound_holds": not applicable["all_nonnegative"],
    }
    return report


def _sums_to(ring, lines, target):
    """Whether the classes of lines sum to the class of the line target:
    ``line_coordinates`` of their difference is 0."""
    total = [sum(column) - t for *column, t in zip(*lines, target)]
    return not any(ring.line_coordinates(total))


def _twist_identities(ring, lines, squared, target):
    """Whether the classes of lines sum to the class of the line target,
    delta^2 times the sum of the squares of squared, and the integral of
    the product of lines."""
    return (_sums_to(ring, lines, target), ring.square_sum(squared),
            ring.integral(lines))


def _verify_case(ring, facets, p1, entry, twist, spinc_coords):
    """Re-derive the three defining identities of a constructed case on
    the ring lines of its vectors; p1 is scaled by delta^2, as
    ``square_sum`` scales the squares."""
    m = ring.num_generators
    v = _facet_spec(entry["v_lines"], facets, m)
    w = _facet_spec(entry["w_lines"], facets, m)
    c1_v, squares, pairing = _twist_identities(
        ring, v, v + w, _facet_spec([twist], facets, m)[0])

    w_total = [sum(vec[i] for vec in entry["w_lines"])
               for i in range(len(twist))]

    checks = {
        "c1_v_equals_twist": c1_v,
        "p1_difference_zero": squares == p1,
        "w_spin": all(c % 2 == 0 for c in w_total),
        "euler_pairing": pairing,
        "euler_pairing_nonzero": pairing != 0,
    }
    if spinc_coords is not None:
        checks["twist_matches_spinc_mod2"] = all(
            (a - b) % 2 == 0 for a, b in zip(twist, spinc_coords))
    return checks


def construct_twist_bundles(manifold, i0=1):
    """The twist construction on a real manifold via its p1 decomposition.

    Adds facet-coefficient BundleSpec forms for the line data, since the
    generators are facet classes there.
    """
    ring = build_face_ring(manifold)
    facets, alpha_rows, beta = facet_class_decomposition(manifold, ring)
    gamma = manifold.spin_c
    # Spin^c class in generator coordinates: gamma_j * (facet j in generators)
    spinc_coords = [
        sum(gamma[j] * alpha_rows[j][i] for j in range(manifold.num_facets))
        for i in range(len(facets))]
    report = construct_twist_bundles_on_ring(
        ring, beta, i0=i0, spinc_coords=spinc_coords, facets=facets)
    report["generator_facets"] = tuple(facets)
    m = manifold.num_facets
    for entry in report["cases"]:
        entry["v_bundle"] = _facet_spec(entry["v_lines"], facets, m)
        entry["w_bundle"] = _facet_spec(entry["w_lines"], facets, m)
    return report


def _facet_spec(lines, facets, m):
    """Coefficient vectors on the generator facets as facet lines."""
    column = {f - 1: i for i, f in enumerate(facets)}
    return tuple(tuple(vec[column[j]] if j in column else 0 for j in range(m))
                 for vec in lines)


def synthetic_inflated_instance(n, sign=1, q_order=2):
    """The minimal synthetic ring exercising the forbidden branch.

    One generator, p1 coefficient n + 3 (the least value past the bound
    with the right parity): case 1 applies with an empty W, and the twisted
    index collapses to the Euler pairing of V, a constant +-2.
    """
    if n < 3:
        raise InputError("needs dimension at least 3")
    ring = SyntheticConnectedSumRing(n, 1, (sign,))
    beta = (n + 3,)
    report = construct_twist_bundles_on_ring(ring, beta)
    case1 = report["cases"][0]
    if not (case1["parity_matches"] and case1["all_nonnegative"]):
        raise PropertyViolationError(
            f"inflated beta {beta} was expected to make case 1 applicable")
    series = cohomological_index_on_ring(
        ring, [(1,)] * (n + 1), case1["v_lines"], case1["w_lines"],
        case1["twist_class"], q_order)
    report["index_series"] = series
    report["euler_pairing"] = case1["checks"]["euler_pairing"]
    report["index_is_constant"] = all(c == 0 for c in series.coeffs[1:])
    return report


# Simple compact groups: the classical series by (lowest rank, dimension at
# rank l), the exceptional groups by (rank, dimension).
_CLASSICAL_SERIES = {"A": (1, lambda l: l * (l + 2)),
                     "B": (2, lambda l: l * (2 * l + 1)),
                     "C": (3, lambda l: l * (2 * l + 1)),
                     "D": (4, lambda l: l * (2 * l - 1))}
_EXCEPTIONAL_DIMS = {"G2": (2, 14), "F4": (4, 52), "E6": (6, 78),
                     "E7": (7, 133), "E8": (8, 248)}


def _classical_dims(rank):
    """Dimensions of the simple compact groups of a given rank."""
    return ({dim(rank) for low, dim in _CLASSICAL_SERIES.values() if rank >= low}
            | {d for r, d in _EXCEPTIONAL_DIMS.values() if r == rank})


def max_dim_rank_ratio(l):
    """Largest dimension-to-rank ratio over simple compact groups of rank
    at most l."""
    if l < 1:
        raise InputError(f"rank bound must be at least 1, got {l}")
    if l == 1:
        return 3
    if l <= 3:
        return 7
    if l <= 6:
        return 13
    if l == 7:
        return 19
    if l <= 14:
        return 31
    return 2 * l + 1


def rank_ratio_table_check(l_max=30):
    """Compare the closed form against a direct maximum over the simple
    compact groups, rank by rank."""
    report = {"rows": {}, "total": l_max, "matches": 0}
    best = 0
    for l in range(1, l_max + 1):
        for dim in _classical_dims(l):
            best = max(best, _exact(Fraction(dim, l)))
        closed = max_dim_rank_ratio(l)
        ok = best == closed
        report["rows"][l] = {"closed_form": closed, "recomputed": best, "match": ok}
        if ok:
            report["matches"] += 1
    report["all_match"] = report["matches"] == report["total"]
    return report


class SymmetryBoundInput:
    """Factors of a symmetry group: simple compact pieces plus b2 slack.

    Each factor is either a name like "E8", "A3", "B4" or a raw
    (rank, dim) pair; pairs must match a simple compact group of that rank.
    """

    __slots__ = ("factors", "b2")

    def __init__(self, factors, b2=0):
        resolved = []
        for f in factors:
            if isinstance(f, str):
                resolved.append(self._resolve_name(f))
            else:
                rank, dim = int(f[0]), int(f[1])
                if rank < 1 or dim < 1:
                    raise InputError(f"bad factor {f}")
                if dim not in _classical_dims(rank):
                    raise InputError(
                        f"no simple compact group has rank {rank} and "
                        f"dimension {dim}")
                resolved.append((rank, dim))
        if not resolved:
            raise InputError("need at least one simple factor")
        if b2 < 0:
            raise InputError("b2 must be non-negative")
        self.factors = tuple(resolved)
        self.b2 = int(b2)

    @staticmethod
    def _resolve_name(name):
        name = name.strip().upper()
        if name in _EXCEPTIONAL_DIMS:
            return _EXCEPTIONAL_DIMS[name]
        if len(name) >= 2 and name[0] in _CLASSICAL_SERIES and name[1:].isdigit():
            series, rank = name[0], int(name[1:])
            low, dim = _CLASSICAL_SERIES[series]
            if rank < low:
                raise InputError(f"series {series} starts at rank {low}")
            return (rank, dim(rank))
        raise InputError(f"unknown group name {name!r}")


def symmetry_bounds(inp):
    """(lower, upper) bounds on the symmetry degree of the associated
    manifold: the group dimension from below, the rank-ratio bound plus b2
    from above."""
    lower = sum(dim for _, dim in inp.factors)
    total_rank = sum(rank for rank, _ in inp.factors)
    l = max(rank for rank, _ in inp.factors)
    upper = max_dim_rank_ratio(l) * total_rank + inp.b2
    if lower > upper:
        raise PropertyViolationError(
            f"bounds crossed: {lower} > {upper}; input dims are inconsistent")
    return lower, upper


def _iterated_connected_sum(n, k):
    poly = simplex(n)
    for _ in range(k - 1):
        extra = simplex(n)
        poly = connected_sum(poly, poly.vertices[0], extra, extra.vertices[0])
    return poly


# Work a census may do, in units of one candidate column filtered, one
# backtracking node, or one (vertex, facet) pair of a face ring built; a
# unit takes about 2-6 us on a 2-core host with Python 3.11.7 over the
# censuses of docs/manifest_format.md, whose rings stop at degree 2.
MAX_CENSUS_WORK = 5 * 10 ** 5


def finiteness_census(n, k, entry_bound):
    """Enumerate characteristic matrices over a k-fold connected sum of
    n-simplices, extract p1 coefficients where the ring has the expected
    split shape, and check them against the 0 < beta <= n+1 bound.

    One face ring and one decomposition serve each sign orbit of the free
    columns, built on its ``sign_orbit_representatives`` matrix: negating
    free column j only changes the omniorientation, as v_j -> -v_j fixes
    the Stanley-Reisner ideal and carries the linear relations to the
    flipped matrix's (the base vertex keeps its facets, so the integral is
    unchanged), and the chosen facet subset and beta_i = sum_r alpha_ri^2
    do not see those signs.  Each orbit counts 2^k matrices; violations
    list every member, in ``enumerate_characteristic_matrices`` order.

    Dimensions over ``manifest.MAX_DIMENSION`` are refused at once, and
    passing ``MAX_CENSUS_WORK`` is invalid input: the candidate filtering
    is charged before it runs, the backtracking as it goes, and each ring,
    weighted by vertices times facets, as its representative is found.
    No ring is built before the enumeration has finished.
    """
    if n < 3:
        raise PreconditionError(f"census needs dimension >= 3, got {n}")
    if not 1 <= k < n:
        raise PreconditionError(
            f"summand count must satisfy 1 <= k < n, got k={k}, n={n}")
    if entry_bound < 1:
        raise InputError("entry bound must be at least 1")
    if n > MAX_DIMENSION:
        raise InputError(f"census dimension {n} is over the limit "
                         f"{MAX_DIMENSION}")
    spent = 0

    def charge(units):
        nonlocal spent
        spent += units
        if spent > MAX_CENSUS_WORK:
            raise InputError(f"census ({n}, {k}, {entry_bound}) needs more "
                             f"than the work budget {MAX_CENSUS_WORK}")

    poly = _iterated_connected_sum(n, k)
    reps = []
    for rows in sign_orbit_representatives(poly, entry_bound, charge):
        charge(len(poly.vertices) * poly.num_facets)
        reps.append(rows)
    matches = {}
    for rows in reps:
        manifold = QuasitoricManifold._enumerated(poly, rows)
        try:
            matches[rows] = tuple(facet_class_decomposition(manifold)[2])
        except RingShapeError:
            pass
    violating = {rows: beta for rows, beta in matches.items()
                 if any(not 0 < b <= n + 1 for b in beta)}
    violations = [{"matrix": rows, "beta": violating[rep]}
                  for rows, rep in sign_orbit_members(poly, violating)]
    return {
        "dimension": n,
        "summands": k,
        "entry_bound": entry_bound,
        "total_matrices": len(reps) * 2 ** k,
        "pattern_matches": len(matches) * 2 ** k,
        "beta_vectors": sorted({tuple(sorted(beta))
                                for beta in matches.values()}),
        "beta_bound": n + 1,
        "violations": violations,
        "all_within_bound": not violations,
    }
