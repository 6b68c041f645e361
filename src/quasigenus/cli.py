"""Command line front end.

Exit codes are the contract: 0 all checks passed, 1 a verified property
failed (an implementation bug, treat like a test failure), 2 invalid
input, 3 a precondition of the requested computation is unmet (non-spin
manifold, degenerate circle, rank hypothesis, ...).  Any other exception
is a bug too: it exits 1 with one ``internal error`` line on stderr, never
a traceback.  KeyboardInterrupt still stops the command.
"""

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from .errors import (InputError, PreconditionError, PropertyViolationError,
                     WorkbenchError)
from .cohomology import build_face_ring
from .genus import (MAX_Q_ORDER, BundleSpec, _check_limit,
                    choose_generic_circles, equivariant_index, elliptic_genus,
                    equivariant_elliptic_genus, equivariant_witten_genus,
                    euler_characteristic, index, signature, spin_obstruction,
                    witten_genus)
from .manifest import parse_manifest
from .theorems import (EquivariantDegree4Class, _sums_to, anomaly_coefficient,
                       check_twist_classes, construct_twist_bundles,
                       find_circle, finiteness_census, rank_ratio_table_check)


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return obj
    return str(obj)


def _emit(report, as_json, text_lines):
    if as_json:
        print(json.dumps(_jsonable(report), sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _load_manifest(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read manifest {path}: {e}") from None
    return parse_manifest(text)


def _parse_circle(raw):
    pieces = raw.replace(",", " ").split()
    if not pieces:
        raise InputError("empty circle vector")
    try:
        return tuple(int(p) for p in pieces)
    except ValueError:
        raise InputError(f"circle vector must be integers, got {raw!r}") from None


def _laurent_dict(half_laurent):
    return {str(e): str(c) for e, c in half_laurent.items_halved()}


def cmd_describe(args):
    manifest = _load_manifest(args.manifest)
    manifold = manifest.build_manifold()
    ring = build_face_ring(manifold)
    betti, h = ring.betti_numbers(), manifold.polytope.h_vector()
    if betti != h:
        raise PropertyViolationError(
            f"Betti numbers {betti} differ from the h-vector {h}")
    obstruction = spin_obstruction(manifold)
    report = {
        "dimension": manifold.dimension,
        "facets": manifold.num_facets,
        "vertices": len(manifold.polytope.vertices),
        "euler_characteristic": euler_characteristic(manifold),
        "betti": list(betti),
        "b2": betti[1] if len(betti) > 1 else 0,
        "p1": str(ring.pontryagin_p1()),
        "spinc_gamma": list(manifold.spin_c),
        "spin": obstruction is None,
        "spin_obstruction": list(obstruction) if obstruction else None,
    }
    lines = [
        f"dimension: {report['dimension']}",
        f"facets: {report['facets']}",
        f"vertices: {report['vertices']}",
        f"euler characteristic: {report['euler_characteristic']}",
        "betti numbers: " + " ".join(str(b) for b in report["betti"]),
        f"b2: {report['b2']}",
        f"p1: {report['p1']}",
        "spin-c gamma: " + " ".join(str(g) for g in report["spinc_gamma"]),
        f"spin: {'yes' if report['spin'] else 'no'}",
    ]
    if obstruction:
        lines.append("spin obstruction (mod 2 facet vector): "
                     + " ".join(str(b) for b in obstruction))
    _emit(report, args.json, lines)
    return 0


def cmd_genus(args):
    _check_limit("q-order", args.q_order, MAX_Q_ORDER)
    manifest = _load_manifest(args.manifest)
    manifold = manifest.build_manifold()
    q_order = args.q_order
    xi = None if args.equivariant is None else _parse_circle(args.equivariant)

    if args.twist == "signature":
        if args.equivariant is not None:
            raise InputError("--twist signature takes no --equivariant circle")
        value = signature(manifold)
        report = {"twist": "signature", "value": str(value)}
        _emit(report, args.json, [f"signature: {value}"])
        return 0

    if xi is not None:
        if args.twist == "witten":
            eq = equivariant_witten_genus(manifold, xi, q_order)
        elif args.twist == "elliptic":
            eq = equivariant_elliptic_genus(manifold, xi, q_order)
        else:
            spec = manifest.bundles() if args.twist == "custom" else BundleSpec.empty()
            eq = equivariant_index(manifold, xi, spec, q_order)
        report = {
            "twist": args.twist,
            "q_order": q_order,
            "circle": list(xi),
            "coefficients": {str(d): _laurent_dict(eq.q_coefficient(d))
                             for d in range(q_order + 1)},
        }
        lines = [f"q^{d}: {eq.q_coefficient(d)}" for d in range(q_order + 1)]
        _emit(report, args.json, lines)
        return 0

    if args.twist == "witten":
        series = witten_genus(manifold, q_order)
    elif args.twist == "elliptic":
        series = elliptic_genus(manifold, q_order)
    else:
        spec = manifest.bundles() if args.twist == "custom" else BundleSpec.empty()
        series = index(manifold, spec, q_order)
    report = {
        "twist": args.twist,
        "q_order": q_order,
        "coefficients": {str(d): str(c) for d, c in enumerate(series.coeffs)},
    }
    lines = [f"q^{d}: {c}" for d, c in enumerate(series.coeffs)]
    _emit(report, args.json, lines)
    return 0


def _verify_circle(args, manifest):
    manifold = manifest.build_manifold()
    cls4 = EquivariantDegree4Class.of_negative_tangent_p1(manifold)
    xi = find_circle(cls4)
    report = {
        "theorem": "circle",
        "xi": list(xi.xi),
        "a22": [[str(x) for x in row] for row in cls4.a22],
        "annihilates_mixed_component": True,
        "status": "pass",
    }
    return report, [f"circle: {list(xi.xi)}", "mixed component killed: yes",
                    "PASS"], 0


def _verify_anomaly(args, manifest):
    manifold = manifest.build_manifold()
    bundles = manifest.bundles()
    if manifest.circle:
        xi = manifest.circle
    else:
        xi = choose_generic_circles(manifold, bundles, count=1)[0].xi
    value = anomaly_coefficient(manifold, xi, bundles)
    twist_matches = _sums_to(build_face_ring(manifold), bundles.v_lines,
                             manifold.spin_c)
    report = {
        "theorem": "index-I",
        "circle": list(xi),
        "anomaly": value,
        "twist_matches_c1_of_v": twist_matches,
    }
    lines = [f"circle: {list(xi)}", f"I = {value}"]
    exit_code = 0
    q_order = args.q_order
    if value < 0 and twist_matches:
        eq = equivariant_index(manifold, xi, bundles, q_order)
        vanished = eq.is_identically_zero()
        report["equivariant_index_vanishes"] = vanished
        report["q_order"] = q_order
        if vanished:
            report["status"] = "pass"
            lines.append(f"equivariant index vanishes identically to q^{q_order}")
            lines.append("PASS")
        else:
            report["status"] = "fail"
            lines.append("VANISHING VIOLATED: nonzero equivariant index "
                         "despite negative anomaly")
            lines.append("FAIL")
            exit_code = 1
    else:
        report["status"] = "pass"
        report["note"] = ("no vanishing claim: anomaly non-negative"
                          if value >= 0 else
                          "no vanishing claim: twist class differs from c1(V)")
        lines.append(report["note"])
        lines.append("PASS")
    return report, lines, exit_code


def _verify_twist_classes(args, manifest):
    manifold = manifest.build_manifold()
    if len(manifest.v_lines) != manifold.dimension:
        raise InputError(
            "this check reads one class per complex dimension from the "
            f"manifest's bundle v lines; need {manifold.dimension}, got "
            f"{len(manifest.v_lines)}")
    rep = check_twist_classes(manifold, manifest.v_lines)
    report = {"theorem": "thm34", **rep}
    lines = [
        f"sum equals spin-c class: {'yes' if rep['sum_is_spinc_class'] else 'no'}",
        f"squares sum to p1: {'yes' if rep['squares_sum_is_p1'] else 'no'}",
        f"top pairing: {rep['pairing']}",
    ]
    if rep["all_hold"]:
        report["status"] = "pass"
        lines.append("PASS")
        return report, lines, 0
    report["status"] = "hypotheses not satisfied"
    lines.append("HYPOTHESES NOT SATISFIED")
    return report, lines, 3


def _verify_bundle_construction(args, manifest):
    manifold = manifest.build_manifold()
    rep = construct_twist_bundles(manifold)
    rep["theorem"] = "lemma52"
    rep["status"] = "pass"
    lines = [
        f"beta: {list(rep['beta'])}",
        f"applicable case: {rep['applicable_case']}",
        f"beta bound holds: {'yes' if rep['beta_bound_holds'] else 'no'}",
    ]
    applicable = rep["cases"][rep["applicable_case"] - 1]
    if applicable.get("checks"):
        checks = applicable["checks"]
        lines.append(f"c1(V) = twist class: {checks['c1_v_equals_twist']}")
        lines.append(f"p1 difference zero: {checks['p1_difference_zero']}")
        lines.append(f"W spin: {checks['w_spin']}")
        lines.append(f"Euler pairing: {checks['euler_pairing']}")
    lines.append("PASS")
    return rep, lines, 0


def _verify_table(args, manifest):
    rep = rank_ratio_table_check(30)
    rep["theorem"] = "table1"
    lines = [f"{rep['matches']}/{rep['total']} rows match"]
    if rep["all_match"]:
        rep["status"] = "pass"
        lines.append("PASS")
        return rep, lines, 0
    rep["status"] = "fail"
    lines.append("FAIL")
    return rep, lines, 1


_VERIFIERS = {
    "circle": (_verify_circle, True),
    "index-I": (_verify_anomaly, True),
    "thm34": (_verify_twist_classes, True),
    "lemma52": (_verify_bundle_construction, True),
    "table1": (_verify_table, False),
}


def cmd_verify(args):
    # every verifier takes --q-order, though only index-I reads it
    _check_limit("q-order", args.q_order, MAX_Q_ORDER)
    runner, needs_manifest = _VERIFIERS[args.theorem]
    manifest = None
    if needs_manifest:
        if not args.manifest:
            raise InputError(f"--theorem {args.theorem} needs a manifest")
        manifest = _load_manifest(args.manifest)
    report, lines, code = runner(args, manifest)
    _emit(report, args.json, lines)
    return code


def cmd_census(args):
    report = finiteness_census(args.n, args.k, args.bound)
    lines = [
        f"matrices: {report['total_matrices']}",
        f"pattern matches: {report['pattern_matches']}",
        "beta vectors: " + (", ".join(str(list(b)) for b in report["beta_vectors"])
                            or "(none)"),
        f"bound 0 < beta <= {report['beta_bound']}: "
        + ("satisfied" if report["all_within_bound"] else "VIOLATED"),
    ]
    if not report["pattern_matches"]:
        code, verdict = 3, ("NO MATCHES: no ring has the #k shape, so the "
                            "bound was not tested")
    elif report["all_within_bound"]:
        code, verdict = 0, "PASS"
    else:
        code, verdict = 1, "FAIL"
    _emit(report, args.json, lines + [verdict])
    return code


@cache
def build_parser():
    """The argument parser, built once per process.  Parsing leaves it
    unchanged; ``main`` finds the handler by command name at call time."""
    parser = argparse.ArgumentParser(
        prog="quasigenus",
        description="Exact twisted Dirac indices of quasitoric manifolds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="basic invariants of a manifest")
    p.add_argument("manifest")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("genus", help="twisted index q-series")
    p.add_argument("manifest")
    p.add_argument("--twist", default="none",
                   choices=["none", "custom", "witten", "elliptic", "signature"])
    p.add_argument("--q-order", type=int, default=4,
                   help="truncation order (default: 4)")
    p.add_argument("--equivariant", metavar="XI", default=None,
                   help="circle vector, e.g. '1,2'; emits Laurent coefficients "
                        "(not with --twist signature)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run one verifier")
    p.add_argument("manifest", nargs="?")
    p.add_argument("--theorem", required=True, choices=sorted(_VERIFIERS))
    p.add_argument("--q-order", type=int, default=3,
                   help="truncation order of the index-I equivariant check "
                        "(default: 3)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("census", help="characteristic matrix census")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--json", action="store_true")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {"describe": cmd_describe, "genus": cmd_genus,
                "verify": cmd_verify, "census": cmd_census}
    try:
        return handlers[args.command](args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except PreconditionError as e:
        print(f"precondition unmet: {e}", file=sys.stderr)
        return 3
    except PropertyViolationError as e:
        print(f"property violation (implementation bug): {e}", file=sys.stderr)
        return 1
    except WorkbenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # last resort: a bug, reported in one line
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
