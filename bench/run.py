"""quasigenus benchmark: closed-loop exact workloads with per-operation oracles.

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the repository root.  One caller runs the workload's operations
one after another, each only after the previous one returned, in a single
process and without threads or pools.  The last line of standard output
is the result: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (``wall_s``,
``setup_s``, ``peak_rss_mib``); with ``--trace 1`` they are the per-layer
self times and counts of a separately traced run.  The line before it
records the run's context: host calibration, Python version, core count,
platform, seed, code revision and the digest of the exact outputs.
See bench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("route_agreement", "census", "wide_circle")
MIN_PASSES = 3          # untraced passes per run, whatever --seconds says
SETUP_REPEATS = 7       # fresh interpreters timed for setup_s
CALIB_SLICES = 60       # host.calib_s: about 0.15 s of calibration slices

# The host's speed drifts by up to 1.6x within seconds (other tenants share
# the cores), and CPU time drifts with it.  wall_s and setup_s therefore
# divide each pass's or set-up's time by the host's speed while it ran,
# sampled by a short calibration slice every PASS_SLICE_EVERY_S or
# SETUP_SLICE_EVERY_S.  SLICE_REF_S is a slice's time on the 2-core
# reference host at full speed, so both read as seconds at that speed.  The
# raw times are kept in the context line.
PASS_SLICE_EVERY_S = 0.05
SETUP_SLICE_EVERY_S = 0.01
SLICE_REF_S = 0.0023

# A slice is Gauss-Jordan elimination of this fixed 9 x 9 rational matrix,
# written here rather than taken from the library so that a change to the
# library cannot change the yardstick.  Fraction row reduction tracked
# the workloads' slowdowns better than scalar Fraction loops did.
_CALIB_RNG = random.Random(5)
CALIB_MATRIX = [[Fraction(_CALIB_RNG.randint(-9, 9), _CALIB_RNG.randint(1, 9))
                 for _ in range(9)] for _ in range(9)]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy is the self-test's size")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this interpreter and exit")
    return p.parse_args(argv)


def import_library():
    """Import quasigenus from this checkout's src/, never from elsewhere,
    and return the workloads module that drives it."""
    init = SRC / "quasigenus" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: {init} not found; run from a checkout")
    sys.path.insert(0, str(SRC))
    import quasigenus
    if Path(quasigenus.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported {quasigenus.__file__}, not {init}")
    import workloads
    return workloads


def calibration_slice():
    """Time one elimination of CALIB_MATRIX."""
    t0 = time.perf_counter()
    m = [row[:] for row in CALIB_MATRIX]
    for c in range(len(m)):
        p = next(i for i in range(c, len(m)) if m[i][c] != 0)
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(len(m)):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return time.perf_counter() - t0


class HostSpeed:
    """Calibration slices run from a timer signal while timed work runs.

    The handler runs in the main thread between bytecodes, so the slices'
    own time lands inside the work and ``net`` subtracts it again.
    """

    def __init__(self, every_s):
        self.every_s = every_s

    def __enter__(self):
        self.slices = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.slices:                 # work shorter than one interval
            self.slices.append(calibration_slice())
        return False

    def net(self, elapsed):
        """Time of the work alone, without the slices run inside it."""
        return elapsed - sum(self.slices)

    def _sample(self, signum, frame):
        self.slices.append(calibration_slice())

    def factor(self):
        """How much slower than the reference the host ran, on average."""
        return statistics.mean(self.slices) / SLICE_REF_S


def run_pass(ops, tracer=None):
    """Run every operation once, in order.  Returns (failures, digest)."""
    failures, outputs = [], []
    for op_id, (label, thunk) in enumerate(ops):
        if tracer is not None:
            tracer.op = op_id
        try:
            outputs.append(f"{label}\n{thunk()}")
        except Exception as e:  # any raise is a failed operation, not a crash
            failures.append(f"{label}: {type(e).__name__}: {e}")
            outputs.append(f"{label}\nFAILED")
    digest = hashlib.sha256("\n\n".join(outputs).encode()).hexdigest()
    return failures, digest


def timed_pass(ops, tracer=None):
    t0 = time.perf_counter()
    failures, digest = run_pass(ops, tracer)
    return time.perf_counter() - t0, failures, digest


def time_setups(args):
    """setup_s samples from fresh interpreters, and their raw times."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    samples, raw = [], []
    for _ in range(SETUP_REPEATS):
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as child:
            out, err = child.communicate()
        if child.returncode != 0:
            raise SystemExit(f"bench: setup child failed: {err.strip()}")
        got = json.loads(out.splitlines()[-1])
        samples.append(got["setup_s"])
        raw.append(got["raw_setup_s"])
    return samples, raw


def set_up_once(args):
    """In a fresh interpreter: import the library and build the workload's
    inputs, timed at the reference host speed from just before the import."""
    with HostSpeed(SETUP_SLICE_EVERY_S) as host:
        t0 = time.perf_counter()
        workloads = import_library()
        workloads.setup(args.workload, args.seed, args.size)
        elapsed = time.perf_counter() - t0
    raw = host.net(elapsed)
    print(json.dumps({"setup_s": raw / host.factor(), "raw_setup_s": raw}))


def measure_untraced(args, ops):
    """Passes at the reference host speed, and the raw times and factors."""
    times, raw, factors, failures, digests = [], [], [], [], set()
    start = time.perf_counter()
    while len(times) < MIN_PASSES or (
            time.perf_counter() - start + statistics.median(raw)
            <= args.seconds):
        with HostSpeed(PASS_SLICE_EVERY_S) as host:
            elapsed, failed, digest = timed_pass(ops)
        elapsed = host.net(elapsed)
        raw.append(elapsed)
        factors.append(host.factor())
        times.append(elapsed / factors[-1])
        failures += failed
        digests.add(digest)
    return times, raw, factors, failures, digests


def measure_traced(args, workloads, ops):
    """Alternate an untraced pass with a traced set-up plus traced pass.

    Per-layer values are low medians over the traced iterations (so a
    count stays a count it was observed at); each traced
    iteration sets up afresh so that manifold construction and fixed-point
    data are traced too.
    """
    import spans
    untraced, traced, per_iter, failures, digests = [], [], [], [], set()
    absent, tracer = [], None
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start
                         + statistics.median(untraced)
                         + statistics.median(traced) <= args.seconds):
        elapsed, failed, digest = timed_pass(ops)
        untraced.append(elapsed)
        failures += failed
        digests.add(digest)

        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            tracer.open("setup")
            try:
                traced_ops = workloads.setup(args.workload, args.seed,
                                             args.size)
            finally:
                tracer.close()
            tracer.open("pass")
            try:
                elapsed, failed, digest = timed_pass(traced_ops, tracer)
            finally:
                tracer.close()
        finally:
            uninstall()
        traced.append(elapsed)
        failures += failed
        digests.add(digest)
        per_iter.append(spans.layer_metrics(tracer.spans, tracer.counts))
        absent = tracer.absent
    layers = {name: statistics.median_low(it[name] for it in per_iter)
              for name in per_iter[0]}
    layers["trace.overhead_frac"] = (statistics.median(traced)
                                     / statistics.median(untraced) - 1)
    layers["trace.absent_targets"] = len(absent)
    write_spans(args, tracer)
    times = untraced + traced
    return times, failures, digests, layers, absent


def write_spans(args, tracer):
    """Spans of the last traced iteration, written once the run is over."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([s.as_dict() for s in tracer.spans], fh)


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_fill")):
        return "ratio"
    return "count"


def code_revision():
    """(git commit or None, sha256 of the library sources)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "quasigenus").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            rev = got.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    return rev, h.hexdigest()


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        set_up_once(args)
        return 0
    workloads = import_library()

    calib_s = sum(calibration_slice() for _ in range(CALIB_SLICES))
    setup_samples, setup_raw = time_setups(args) if not args.trace else ([], [])
    ops = workloads.setup(args.workload, args.seed, args.size)
    if args.trace:
        times, failures, digests, layers, absent = measure_traced(
            args, workloads, ops)
        raw, factors = times, []
        layers["host.calib_s"] = calib_s
    else:
        times, raw, factors, failures, digests = measure_untraced(args, ops)
        absent = []
    passes = len(times)
    attempted = passes * len(ops)
    fail_frac = len(failures) / attempted

    reference = workloads.load_reference()["digests"].get(
        args.workload, {}).get(str(args.seed))
    digest = sorted(digests)[0]
    rev, src_sha = code_revision()
    context = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "passes": passes,
        "ops_per_pass": len(ops), "pass_times_s": times,
        "raw_pass_times_s": raw, "wall_raw_s": statistics.median(raw),
        "host_factors": factors,
        "setup_times_s": setup_samples, "raw_setup_times_s": setup_raw,
        "host.calib_s": calib_s,
        "fail_frac": fail_frac, "python": platform.python_version(),
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "git_rev": rev, "src_sha256": src_sha, "digest": digest,
        "digests_agree": len(digests) == 1,
        "digest_matches_reference": (None if reference is None
                                     else digest == reference),
        "absent_trace_targets": absent,
    }
    for line in failures[:20]:
        print(f"bench: FAILED {line}", file=sys.stderr)
    print(json.dumps(context))

    if args.trace:
        layers["fail_frac"] = fail_frac
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in sorted(layers.items())}
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples),
                        "unit": "s"},
            "peak_rss_mib": {"value": peak_kib / 1024, "unit": "MiB"},
        }
    print(json.dumps({"correct": not failures and len(digests) == 1,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
