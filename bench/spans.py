"""Spans around the calls into each quasigenus module, for the traced run.

Only the traced run installs the wrappers.  ``install`` rebinds public
functions in the modules that import them (and methods on their classes)
with wrappers that record a span per call and update counters; the
returned callable puts the originals back.  A target that no longer exists
is recorded as absent instead of failing the run.

Spans stay in memory; ``layer_metrics`` turns them into per-layer self
times, where a span's self time is its duration minus the part of it its
child spans cover.
"""

import importlib
import time
from collections import Counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, end, parent, op):
        self.name, self.start, self.end = name, start, end
        self.parent, self.op = parent, op

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op}


class Tracer:
    """Records spans (by index, with the index of the enclosing span) and
    counters; ``op`` is the id of the workload operation being run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.absent = []
        self.op = None
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), None, parent, self.op))
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()].end = time.perf_counter()


def self_times(spans):
    """Self time of each span: its duration minus the union of the parts of
    its children's intervals that fall inside it."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


# -- counters updated after a wrapped call returns ---------------------------

def _count_rref(t, args, kwargs, result, before):
    rows = args[0] if args else kwargs["rows"]
    t.counts["linalg.rref_calls"] += 1
    t.counts["linalg.rref_rows"] += len(rows)
    t.counts["linalg.rref_cells"] += len(rows) * (len(rows[0]) if rows else 0)
    t.counts["linalg.rref_rank"] += len(result[1])


def _count_ring(t, args, kwargs, result, before):
    t.counts["cohomology.rings_built"] += 1
    t.counts["cohomology.basis_dim"] += sum(args[0].betti_numbers())


def _count_decompose(t, args, kwargs, result, before):
    t.counts["cohomology.shape_matches"] += 1


def _count_decompose_call(t, args, kwargs):
    t.counts["cohomology.decompose_calls"] += 1


def _fixed_points_pending(t, args, kwargs):
    return args[0]._fixed is None


def _count_fixed_points(t, args, kwargs, result, before):
    if before:
        t.counts["polytope.fixed_points"] += len(result)


def _count_interpolate(t, args, kwargs, result, before):
    samples, lo, hi = args
    t.counts["exactalg.interpolate_calls"] += 1
    t.counts["exactalg.samples"] += len(samples)
    t.counts["exactalg.window"] += max(hi - lo + 1, 0)


def _counter(key):
    def count(t, args, kwargs, result, before):
        t.counts[key] += 1
    return count


def _count_cli(t, args, kwargs, result, before):
    t.counts["cli.calls"] += 1
    t.counts["cli.nonzero_exits"] += result != 0


# (module, attribute path, span name, before hook, after hook).  The span
# name's prefix is the layer; SPAN_METRIC maps it to the reported metric.
TARGETS = [
    ("quasigenus.linalg", "rref", "linalg.rref", None, _count_rref),
    ("quasigenus.cohomology", "rref", "linalg.rref", None, _count_rref),
    ("quasigenus.theorems", "rref", "linalg.rref", None, _count_rref),
    ("quasigenus.cohomology", "FaceRing.__init__", "cohomology.ring_build",
     None, _count_ring),
    ("quasigenus.genus", "build_face_ring", "cohomology.ring_build", None, None),
    ("quasigenus.theorems", "build_face_ring", "cohomology.ring_build",
     None, None),
    ("quasigenus.cli", "build_face_ring", "cohomology.ring_build", None, None),
    ("quasigenus.theorems", "facet_class_decomposition",
     "cohomology.decompose", _count_decompose_call, _count_decompose),
    ("quasigenus.polytope", "SimplePolytope.__init__", "polytope.manifold",
     None, None),
    ("quasigenus.polytope", "QuasitoricManifold.__init__", "polytope.manifold",
     None, None),
    ("quasigenus.polytope", "QuasitoricManifold.fixed_points",
     "polytope.fixed_points", _fixed_points_pending, _count_fixed_points),
    ("quasigenus.polytope", "QuasitoricManifold.orientation_signs",
     "polytope.fixed_points", None, None),
    ("quasigenus.genus", "laurent_interpolate", "exactalg.interpolate",
     None, _count_interpolate),
    ("quasigenus.genus", "index", "genus.localization", None,
     _counter("genus.localization_calls")),
    ("quasigenus.genus", "equivariant_index", "genus.localization", None,
     _counter("genus.localization_calls")),
    ("quasigenus.genus", "equivariant_witten_genus", "genus.localization",
     None, _counter("genus.localization_calls")),
    ("quasigenus.cli", "index", "genus.localization", None,
     _counter("genus.localization_calls")),
    ("quasigenus.genus", "choose_generic_circles", "genus.circles", None, None),
    ("quasigenus.genus", "cohomological_index", "genus.cohomological", None,
     _counter("genus.cohomological_calls")),
    ("quasigenus.theorems", "finiteness_census", "theorems.census", None, None),
    ("quasigenus.theorems", "anomaly_coefficient", "theorems.anomaly",
     None, None),
    ("quasigenus.theorems", "synthetic_inflated_instance", "theorems.synthetic",
     None, None),
    ("quasigenus.manifest", "parse_manifest", "manifest.parse", None,
     _counter("manifest.parse_calls")),
    ("quasigenus.cli", "parse_manifest", "manifest.parse", None,
     _counter("manifest.parse_calls")),
    ("quasigenus.cli", "main", "cli.main", None, _count_cli),
]

# Generators: one span per item drawn, so the time is the time spent inside
# the generator and not in the consumer's loop body.
GENERATOR_TARGETS = [
    ("quasigenus.polytope", "enumerate_characteristic_matrices",
     "polytope.enumerate"),
    ("quasigenus.theorems", "enumerate_characteristic_matrices",
     "polytope.enumerate"),
]

SPAN_METRIC = {
    "linalg.rref": "linalg.rref_s",
    "cohomology.ring_build": "cohomology.ring_build_s",
    "cohomology.decompose": "cohomology.decompose_s",
    "polytope.manifold": "polytope.manifold_s",
    "polytope.fixed_points": "polytope.fixed_points_s",
    "polytope.enumerate": "polytope.enumerate_s",
    "exactalg.interpolate": "exactalg.interpolate_s",
    "genus.localization": "genus.localization_s",
    "genus.circles": "genus.circles_s",
    "genus.cohomological": "genus.cohomological_s",
    "theorems.census": "theorems.census_s",
    "theorems.anomaly": "theorems.anomaly_s",
    "theorems.synthetic": "theorems.synthetic_s",
    "manifest.parse": "manifest.parse_s",
    "cli.main": "cli.main_s",
}


def _wrap(tracer, fn, name, before_hook, after_hook):
    def wrapper(*args, **kwargs):
        before = before_hook(tracer, args, kwargs) if before_hook else None
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if after_hook:
            after_hook(tracer, args, kwargs, result, before)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_generator(tracer, fn, name):
    def wrapper(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            tracer.open(name)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                tracer.close()
            tracer.counts["polytope.matrices"] += 1
            yield item
    wrapper.__wrapped__ = fn
    return wrapper


def _resolve(module_name, path):
    """(owner object, attribute name) of a dotted target, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


def install(tracer):
    """Rebind every target to a tracing wrapper; returns the undo callable."""
    undo = []
    plan = [(m, p, lambda fn, n=n, b=b, a=a: _wrap(tracer, fn, n, b, a))
            for m, p, n, b, a in TARGETS]
    plan += [(m, p, lambda fn, n=n: _wrap_generator(tracer, fn, n))
             for m, p, n in GENERATOR_TARGETS]
    for module_name, path, make in plan:
        found = _resolve(module_name, path)
        if found is None:
            tracer.absent.append(f"{module_name}.{path}")
            continue
        owner, attr = found
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        undo.append((owner, attr, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counts):
    """Per-layer self times (seconds) and counts from one traced pass."""
    out = {metric: 0.0 for metric in SPAN_METRIC.values()}
    for span, own in zip(spans, self_times(spans)):
        metric = SPAN_METRIC.get(span.name)
        if metric is not None:
            out[metric] += own
    c = counts
    out.update({
        "linalg.rref_calls": c["linalg.rref_calls"],
        "linalg.rref_cells": c["linalg.rref_cells"],
        "linalg.rref_rank_frac": _ratio(c["linalg.rref_rank"],
                                        c["linalg.rref_rows"]),
        "cohomology.rings_built": c["cohomology.rings_built"],
        "cohomology.basis_dim": c["cohomology.basis_dim"],
        "cohomology.shape_match_frac": _ratio(
            c["cohomology.shape_matches"], c["cohomology.decompose_calls"]),
        "polytope.fixed_points": c["polytope.fixed_points"],
        "polytope.matrices": c["polytope.matrices"],
        "exactalg.interpolate_calls": c["exactalg.interpolate_calls"],
        "exactalg.samples": c["exactalg.samples"],
        "exactalg.window_fill": _ratio(c["exactalg.window"],
                                       c["exactalg.samples"]),
        "genus.localization_calls": c["genus.localization_calls"],
        "genus.cohomological_calls": c["genus.cohomological_calls"],
        "manifest.parse_calls": c["manifest.parse_calls"],
        "cli.calls": c["cli.calls"],
        "cli.nonzero_exits": c["cli.nonzero_exits"],
    })
    return out
