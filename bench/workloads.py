"""The three benchmark workloads: seeded inputs, operations and oracles.

A workload is built by ``setup(name, seed, size)``, which returns a list of
operations.  Each operation is a ``(label, thunk)`` pair; the thunk runs one
exact computation, checks it against an oracle independent of the code path
under test, and returns a canonical string of its exact output (the input
of the per-pass digest).  A failed oracle raises ``OracleFailure``.

Library functions are always looked up through their module at call time
(``genus.index``, never a name imported from it), so that the traced run
can rebind them without the workloads knowing.
"""

import contextlib
import io
import json
import random
from itertools import combinations
from math import comb
from pathlib import Path

from quasigenus import (cli, cohomology, genus, manifest, models, polytope,
                        theorems)

# Full size is what the benchmark measures; toy size is what the self-test
# runs, a few seconds for all three workloads together.
# ``windows`` holds, per manifold of the wide_circle workload (cp3_twisted,
# or the dimension of a spin sphere product), the band of window_width
# that its seeded circles must fall in.
SIZES = {
    "full": {"q_order": 4, "census": (3, 2, 1), "wide_q": 2, "circles": 3,
             "synthetic_dims": (3, 4, 5, 6),
             "windows": {"cp3": (193, 197), 2: (39, 40), 3: (34, 35),
                         4: (30, 31)}},
    "toy": {"q_order": 1, "census": (3, 1, 1), "wide_q": 1, "circles": 1,
            "synthetic_dims": (3,), "windows": {"cp3": (0, 60), 2: (0, 30)}},
}

# Entry range of the seeded circles on the wide_circle workload: wide
# enough that the exponent windows, not the q-series products, dominate.
CIRCLE_ENTRY = 24

ROOT = Path(__file__).resolve().parent.parent
MANIFEST_DIR = ROOT / "manifests"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


class OracleFailure(Exception):
    """An operation's output disagreed with its oracle."""


def load_reference():
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _require(condition, message):
    if not condition:
        raise OracleFailure(message)


def _series_text(series):
    return "[" + ",".join(str(c) for c in series.coeffs) + "]"


def _character_text(eq):
    return "[" + ",".join(
        "{" + ",".join(f"{e}:{c}" for e, c in eq.q_coefficient(d).items_halved()) + "}"
        for d in range(eq.q_order + 1)) + "]"


def h_vector_betti(poly):
    """Betti numbers b_0, b_2, ..., b_2n as the polytope's h-vector.

    Independent of the face ring (Davis-Januszkiewicz).  In a simple
    polytope the faces of codimension j are the j-subsets of the vertices'
    facet sets, so f[j] counts those, and
    h_i = sum_j (-1)^(i-j) C(n-j, i-j) f[j].
    """
    n = poly.dimension
    faces = {frozenset(s) for v in poly.vertices
             for r in range(n + 1) for s in combinations(v, r)}
    f = [0] * (n + 1)
    for face in faces:
        f[len(face)] += 1
    return [sum((-1) ** (i - j) * comb(n - j, i - j) * f[j]
                for j in range(i + 1)) for i in range(n + 1)]


def _warm(manifold):
    """Fixed-point data and orientation signs are part of a ready manifold."""
    manifold.fixed_points()
    manifold.orientation_signs()
    return manifold


# -- route_agreement ---------------------------------------------------------

def _route_instances(seed):
    rng = random.Random(seed)
    out = []
    for n in (1, 2, 3, 4):
        out.append((f"CP{n}", models.projective_space(n)))
    for n in (1, 2, 3):
        out.append((f"S2^{n}", models.sphere_product(n)))
    for n in (1, 2):
        out.append((f"spin S2^{n}", models.sphere_product_spin(n)))
    out.append(("CP2#CP2", models.cp2_connected_sum()))
    for name, poly in (("tetra", polytope.simplex(3)), ("square", polytope.cube(2))):
        mats = list(polytope.enumerate_characteristic_matrices(poly, 1))
        for rows in rng.sample(mats, 5):
            out.append((f"{name} {rows}", polytope.QuasitoricManifold(
                poly, rows, (1,) * poly.num_facets)))
    return [(label, _warm(m)) for label, m in out]


def _route_op(manifold, q_order):
    def op():
        a = genus.index(manifold, None, q_order)
        b = genus.cohomological_index(manifold, None, q_order)
        _require(a == b, f"localization {a} != face ring {b}")
        return _series_text(a)
    return op


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    _require(code == 0, f"exit code {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def _describe_op(path, manifold):
    def op():
        got = _run_cli(["describe", str(path), "--json"])
        ring = cohomology.build_face_ring(manifold)
        betti = list(ring.betti_numbers())
        obstruction = genus.spin_obstruction(manifold)
        poly = manifold.polytope
        want = {
            "dimension": poly.dimension,
            "facets": poly.num_facets,
            "vertices": len(poly.vertices),
            "euler_characteristic": len(poly.vertices),
            "betti": betti,
            "b2": betti[1] if len(betti) > 1 else 0,
            "p1": str(ring.pontryagin_p1()),
            "spinc_gamma": list(manifold.spin_c),
            "spin": obstruction is None,
            "spin_obstruction": list(obstruction) if obstruction else None,
        }
        _require(got == want, f"describe {got} != library {want}")
        _require(betti == h_vector_betti(poly),
                 f"betti {betti} != h-vector {h_vector_betti(poly)}")
        return json.dumps(got, sort_keys=True)
    return op


def _genus_op(path, manifold, bundles, q_order):
    def op():
        got = _run_cli(["genus", str(path), "--twist", "custom",
                        "--q-order", str(q_order), "--json"])
        series = genus.cohomological_index(manifold, bundles, q_order)
        want = {"twist": "custom", "q_order": q_order,
                "coefficients": {str(d): str(c)
                                 for d, c in enumerate(series.coeffs)}}
        _require(got == want, f"genus {got} != face ring {want}")
        return json.dumps(got, sort_keys=True)
    return op


def _synthetic_op(n, sign, q_order):
    def op():
        rep = theorems.synthetic_inflated_instance(n, sign, q_order)
        coeffs = rep["index_series"].coeffs
        _require(list(coeffs) == [2 * sign] + [0] * q_order,
                 f"synthetic n={n} sign={sign}: index {list(coeffs)}")
        return _series_text(rep["index_series"])
    return op


def _setup_route_agreement(seed, size, reference):
    q = size["q_order"]
    ops = [(f"route {label}", _route_op(m, q))
           for label, m in _route_instances(seed)]
    for path in sorted(MANIFEST_DIR.glob("*.ini")):
        parsed = manifest.parse_manifest(path.read_text(encoding="utf-8"))
        manifold = _warm(parsed.build_manifold())
        ops.append((f"cli describe {path.name}", _describe_op(path, manifold)))
        ops.append((f"cli genus {path.name}",
                    _genus_op(path, manifold, parsed.bundles(), q)))
    for n in size["synthetic_dims"]:
        for sign in (1, -1):
            ops.append((f"synthetic {n} {sign}", _synthetic_op(n, sign, q)))
    return ops


# -- census ------------------------------------------------------------------

def census_summary(rep):
    """The reference-comparable part of a finiteness_census report."""
    return {"total_matrices": rep["total_matrices"],
            "pattern_matches": rep["pattern_matches"],
            "beta_vectors": [list(b) for b in rep["beta_vectors"]],
            "all_within_bound": rep["all_within_bound"],
            "violations": len(rep["violations"])}


def _setup_census(seed, size, reference):
    n, k, bound = size["census"]
    want = reference["census"][f"{n},{k},{bound}"]

    def op():
        got = census_summary(theorems.finiteness_census(n, k, bound))
        _require(got == want, f"census {got} != reference {want}")
        return json.dumps(got, sort_keys=True)
    return [(f"census {n},{k},{bound}", op)]


# -- wide_circle -------------------------------------------------------------

def _generic(manifold, xi):
    """No tangent weight pairs to zero with xi at any fixed point."""
    return all(sum(a * b for a, b in zip(w, xi)) != 0
               for fp in manifold.fixed_points() for w in fp.weights)


def window_width(manifold, xi, v_lines, w_lines, gamma, q):
    """The widest exponent window the localization sampler interpolates for
    circle xi, by the sampler's envelope rules when this benchmark was
    written.  Interpolation time grows with it, so set-up draws circles
    within a band of it to give every seed the same amount of work.  It is
    a copy, so that a later change to the sampler cannot change the inputs.

    Each fixed point's factor with weight x has a q^0 window (lo, hi) that
    q^d widens by d * |x| each way, and a product's q^d window is widest
    with all d on one factor of largest |x|: (L - d A, H + d A) with L, H
    the sums of the factors' lo, hi and A their largest |x|.
    """
    windows = []
    for fp in manifold.fixed_points():
        tangent = [sum(a * b for a, b in zip(w, xi)) for w in fp.weights]

        def pair(line):
            return sum(line[f - 1] * tangent[k] for k, f in enumerate(fp.vertex))
        v, w = [pair(line) for line in v_lines], [pair(line) for line in w_lines]
        if any(a == 0 for a in v):
            continue                        # this fixed point contributes 0
        g = (pair(gamma) + sum(tangent) - sum(w)) // 2
        factors = ([(max(0, -x), min(0, -x)) for x in tangent]
                   + [(min(0, -x), max(0, -x)) for x in v]
                   + [(min(0, x), max(0, x)) for x in w])
        windows.append((g + sum(lo for lo, _ in factors),
                        g + sum(hi for _, hi in factors),
                        max(abs(hi - lo) for lo, hi in factors)))
    widths = [max(h + d * a for _, h, a in windows)
              - min(lo - d * a for lo, _, a in windows) + 1
              for d in range(q + 1)] if windows else [0]
    return max(max(widths), 0)


def _draw_circle(rng, manifold, band, v_lines, w_lines, gamma, q):
    """A generic circle whose window width lies in band."""
    while True:
        xi = tuple(rng.randint(-CIRCLE_ENTRY, CIRCLE_ENTRY)
                   for _ in range(manifold.dimension))
        if (_generic(manifold, xi) and band[0] <= window_width(
                manifold, xi, v_lines, w_lines, gamma, q) <= band[1]):
            return xi


def _setup_wide_circle(seed, size, reference):
    rng = random.Random(seed)
    q = size["wide_q"]
    parsed = manifest.parse_manifest(
        (MANIFEST_DIR / "cp3_twisted.ini").read_text(encoding="utf-8"))
    manifold, bundles = _warm(parsed.build_manifold()), parsed.bundles()
    # index(M, B, q) through q^2 as the README documents it; the index
    # operation checks the library against it, and every character's value
    # at t = 1 is checked against the same values.
    want = reference["cp3_twisted_index"][:q + 1]

    def index_op():
        series = genus.index(manifold, bundles, q)
        _require(list(series.coeffs) == want,
                 f"index(cp3_twisted, q={q}) {list(series.coeffs)} != {want}")
        return _series_text(series)

    def circle_op(xi):
        def op():
            eq = genus.equivariant_index(manifold, xi, bundles, q)
            at_one = list(eq.value_at_one().coeffs)
            _require(at_one == want,
                     f"character at t=1 {at_one} != index {want} for xi={xi}")
            return _character_text(eq)
        return op

    def anomaly_op(spheres, xi):
        def op():
            value = theorems.anomaly_coefficient(spheres, xi)
            _require(value == -sum(x * x for x in xi) < 0,
                     f"anomaly {value} != -|xi|^2 for xi={xi}")
            eq = genus.equivariant_witten_genus(spheres, xi, q)
            _require(eq.is_identically_zero(),
                     f"Witten character for xi={xi} is {_character_text(eq)}")
            return f"{value} {_character_text(eq)}"
        return op

    windows = size["windows"]
    ops = [(f"index cp3_twisted q={q}", index_op)]
    for _ in range(size["circles"]):
        xi = _draw_circle(rng, manifold, windows["cp3"], bundles.v_lines,
                          bundles.w_lines, manifold.spin_c, q)
        ops.append((f"equivariant cp3_twisted {xi}", circle_op(xi)))
    for n in (n for n in windows if n != "cp3"):
        spheres = _warm(models.sphere_product_spin(n))
        gamma, _ = genus.spin_gamma(spheres)
        xi = _draw_circle(rng, spheres, windows[n], (), (), gamma, q)
        ops.append((f"anomaly spin S2^{n} {xi}", anomaly_op(spheres, xi)))
    return ops


_SETUP = {"route_agreement": _setup_route_agreement,
          "census": _setup_census,
          "wide_circle": _setup_wide_circle}


def setup(name, seed, size="full", reference=None):
    """Build the seeded operations of one workload pass."""
    if reference is None:
        reference = load_reference()
    return _SETUP[name](seed, SIZES[size], reference)
