"""Spans and counters around the library's public functions.

The tracer replaces a function at every module binding that holds it (for
example ``fano.extract_tensors``, ``classify.extract_tensors`` and
``cli.extract_tensors`` are separate bindings), keeps spans in memory and
computes self time afterwards.  Spans record (id, name, start, end, parent,
op).  Functions called hundreds of thousands of times get a counter and no
span, so their time stays in the caller's self time.

This module imports nothing from numpy or the library at import time, so a
launcher can time ``import multiaxial.cli`` after importing it.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

PACKAGE = "multiaxial"

# (metric name, defining module, attribute); patched at every binding.
SPANS = [
    ("angular.tau_matrix", "angular", "tau_matrix"),
    ("angular.couple_axis_chain", "angular", "couple_axis_chain"),
    ("angular.wigner_d_matrix", "angular", "wigner_d_matrix"),
    ("fano.extract_tensors", "fano", "extract_tensors"),
    ("axes.solve_axes", "axes", "solve_axes"),
    ("axes.fit_rk", "axes", "fit_rk"),
    ("axes.pairwise_invariants", "axes", "pairwise_invariants"),
    ("classify.signature_from_tensors", "classify", "signature_from_tensors"),
    ("classify.degeneracy_configuration", "classify", "degeneracy_configuration"),
    ("classify.pure_separability_check", "classify", "pure_separability_check"),
    ("classify.lu_equivalent", "classify", "lu_equivalent"),
    ("states.validate", "states", "validate"),
    ("states.rotate_density", "states", "rotate_density"),
    ("states.read_state", "states", "read_state"),
    ("states.ppt_check", "states", "ppt_check"),
    ("families.family_density", "families", "family_density"),
    ("cli.build_report", "cli", "build_report"),
    ("cli.main", "cli", "main"),
]
COUNTERS = [
    ("angular.clebsch_gordan", "angular", "clebsch_gordan"),
    ("angular.couple_pair", "angular", "couple_pair"),
]

CALL_METRICS = [
    "halfint.HalfInteger.of", "angular.clebsch_gordan", "angular.tau_matrix",
    "angular.couple_axis_chain", "angular.couple_pair", "axes.solve_axes",
    "axes.polyval", "axes.fit_rk", "axes.refine",
]
SELF_METRICS = [
    "angular.tau_matrix", "angular.couple_axis_chain", "angular.wigner_d_matrix",
    "fano.extract_tensors", "axes.solve_axes", "axes.roots", "axes.fit_rk",
    "axes.refine", "axes.pairwise_invariants", "classify.signature_from_tensors",
    "classify.degeneracy_configuration", "classify.pure_separability_check",
    "classify.lu_equivalent", "states.validate", "states.rotate_density",
    "states.read_state", "states.ppt_check", "families.family_density",
    "cli.build_report", "cli.main",
]
PER_OP_METRICS = ["fano.extract_tensors", "classify.signature_from_tensors"]


class _NumpyView:
    """Stands in for ``numpy`` inside ``axes``: roots and polyval are traced."""

    def __init__(self, numpy, roots, polyval):
        self._numpy = numpy
        self.roots = roots
        self.polyval = polyval

    def __getattr__(self, name):
        return getattr(self._numpy, name)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []      # (id, name, start, end, parent, op)
        self.counters: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def record(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call is a span; ``after(result)`` may count more."""
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                tracer.spans.append((sid, name, start, end, parent, tracer.op))
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def span(self, name: str):
        """Context-manager form of ``record``, for code that is not a call."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.op))

    def begin_op(self, op) -> None:
        """Attribute later spans to ``op``; drops frames an interrupted op left."""
        self.op = op
        self._stack.clear()

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function; the library must already be imported."""
        import numpy

        mods = {name: sys.modules[f"{PACKAGE}.{name}"] for name in
                ("halfint", "angular", "axes", "classify", "states", "fano",
                 "families", "cli")}
        for metric, modname, attr in SPANS:
            original = getattr(mods[modname], attr)
            after = self._count_present if metric == "axes.solve_axes" else None
            self._patch_everywhere(original, self.record(metric, original, after))
        for metric, modname, attr in COUNTERS:
            original = getattr(mods[modname], attr)
            self._patch_everywhere(original, self.count(metric, original))

        half = mods["halfint"].HalfInteger
        self._patch(half, "of", staticmethod(self.count("halfint.HalfInteger.of", half.of)))

        axes = mods["axes"]
        # Only the binding solve_axes uses: classify clusters for another purpose.
        self._patch(axes, "cluster_directions",
                    self.count("axes.cluster_directions", axes.cluster_directions))
        self._patch(axes, "least_squares",
                    self.record("axes.refine", axes.least_squares, self._count_nfev))
        self._patch(axes, "np", _NumpyView(
            numpy,
            self.record("axes.roots", numpy.roots),
            self.count("axes.polyval", numpy.polyval)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _count_present(self, decomposition) -> None:
        if decomposition.r_k > 0.0:
            self.counters["axes.present_ranks"] += 1

    def _count_nfev(self, solution) -> None:
        self.counters["axes.refine.nfev"] += int(solution.nfev)


# ---------------------------------------------------------------------------
# Analysis of recorded spans


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> its duration minus the part its direct children cover."""
    own = {s[0]: s[3] - s[2] for s in spans}
    out = dict(own)
    for sid, _, _, _, parent, _ in spans:
        if parent is not None and parent in out:
            out[parent] -= own[sid]
    return out


def summarize(tracer: Tracer) -> dict:
    """Additive per-name totals; sums of summaries are summaries."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_id = {s[0]: s for s in spans}
    calls: Counter = Counter(tracer.counters)
    self_s: defaultdict = defaultdict(float)
    top_level_s = 0.0
    witness_checks = 0
    for sid, name, start, end, parent, _ in spans:
        calls[name] += 1
        self_s[name] += selfs[sid]
        if parent is None:
            top_level_s += end - start
        if name == "states.rotate_density":
            p = parent
            while p is not None and by_id[p][1] != "classify.lu_equivalent":
                p = by_id[p][4]
            witness_checks += p is not None
    return {"calls": dict(calls), "self_s": dict(self_s),
            "top_level_s": top_level_s, "witness_checks": witness_checks}


def merge(summaries: list[dict]) -> dict:
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    for s in summaries:
        calls.update(s["calls"])
        for k, v in s["self_s"].items():
            self_s[k] += v
    return {"calls": dict(calls), "self_s": dict(self_s),
            "top_level_s": sum(s["top_level_s"] for s in summaries),
            "witness_checks": sum(s["witness_checks"] for s in summaries)}


def layer_metrics(summary: dict, ops: int, traced_op_s: float, untraced_op_s: float,
                  import_ms: float) -> dict:
    """Per-layer metrics over the traced ops (totals unless named per-something).

    ``traced_op_s`` and ``untraced_op_s`` are the summed latencies of the same
    ops run with and without the tracer.
    """
    calls = summary["calls"]
    self_s = summary["self_s"]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in CALL_METRICS:
        put(f"{name}.calls", calls.get(name, 0), "count")
    for name in SELF_METRICS:
        put(f"{name}.self_ms", 1000.0 * self_s.get(name, 0.0), "ms")
    for name in PER_OP_METRICS:
        put(f"{name}.calls_per_op", calls.get(name, 0) / ops, "calls/op")
    put("axes.refine.nfev", calls.get("axes.refine.nfev", 0), "count")
    present = calls.get("axes.present_ranks", 0)
    put("axes.cluster_directions.calls_per_rank",
        calls.get("axes.cluster_directions", 0) / present if present else 0.0, "calls/rank")
    compares = calls.get("classify.lu_equivalent", 0)
    put("classify.witness.checks_per_compare",
        summary["witness_checks"] / compares if compares else 0.0, "checks/compare")
    put("cli.import_ms", import_ms, "ms")
    put("trace.overhead_ratio", traced_op_s / untraced_op_s, "ratio")
    put("trace.coverage", summary["top_level_s"] / traced_op_s, "fraction")
    return out
