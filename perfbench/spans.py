"""Span tracing of the steinpi layers, installed from outside the package.

A traced run replaces every public function and method of the layer
modules (``grid``, ``targets``, ``pi_targets``, ``kernels``, ``mala``,
``quantise``, ``metrics``, ``experiment``) with a wrapper that records a
span: an id, the id of the enclosing span, the run id shared by all spans
of one run, the span name ``<layer>.<qualified function name>``, start and
end times and a few counts read from the arguments or the result.  A
module-level function is replaced in every ``steinpi`` module that holds a
reference to it (``steinpi.quantise.optimal_weights`` and
``steinpi.experiment.optimal_weights`` alike); a method is replaced on the
class that defines it.  Nothing under ``src/`` is edited, and ``traced``
puts every original back when the run ends, also on error.

Spans stay in memory until the caller writes them out.  A span's self time
is its duration minus the durations of its direct children; runs are
single-threaded, so children never overlap and the self times of all spans
add up to the root span's duration.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field, is_dataclass

import numpy as np

LAYERS = ("grid", "targets", "pi_targets", "kernels", "mala", "quantise", "metrics", "experiment")

# Functions whose first argument after ``self`` is a point or a batch of points.
_POINT_FUNCTIONS = frozenset(
    {"log_density", "grad_log_density", "hessian_log_density", "log_density_with_grad",
     "diag_values", "diag_grads", "diag"}
)
_GRAM = "kernels.SteinKernel.gram"  # traced under tracemalloc for its peak bytes


@dataclass
class Span:
    id: int
    parent: int | None
    run: str
    name: str
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _layer(name):
    return name.split(".", 1)[0]


def _function(name):
    return name.rsplit(".", 1)[1]


def _batch_size(x):
    x = np.asarray(x)
    return 1 if x.ndim <= 1 else int(x.shape[0])


def _attrs(name, args, kwargs, result):
    """Counts recorded on a finished span, read from its arguments or result."""
    if _function(name) in _POINT_FUNCTIONS:
        return {"points": _batch_size(args[1] if len(args) > 1 else kwargs["x"])}
    if name == _GRAM:
        x = args[1]
        y = args[2] if len(args) > 2 else kwargs.get("y")
        return {"entries": _batch_size(x) * _batch_size(x if y is None else y),
                "result_bytes": int(result.nbytes)}
    if name == "grid.GridSampler.__init__":
        return {"nodes": int(args[0].nodes.shape[0])}
    if name == "mala.run_chain":
        return {"steps": int(result.states.shape[0]), "accept_rate": float(result.accept_rate),
                "nonfinite": int(result.nonfinite_proposals)}
    if name == "quantise.optimal_weights":
        return {"iterations": int(result.iterations), "converged": bool(result.converged),
                "rel_gap": float(result.duality_gap) / max(1.0, abs(float(result.objective)))}
    if name == "metrics.wasserstein1_exact":
        return {"pairs": int(args[0].n) * int(args[1].n)}
    return {}


class Tracer:
    """Records the spans of one traced run in memory."""

    def __init__(self, run_id):
        self.run = run_id
        self.spans = []
        self._stack = []

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.run, name)
        self.spans.append(span)
        self._stack.append(span)
        peak = None
        track = name == _GRAM and not tracemalloc.is_tracing()
        if track:
            tracemalloc.start()
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if track:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        span.attrs = _attrs(name, args, kwargs, result)
        if peak is not None:
            span.attrs["peak_bytes"] = peak
        return result


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return wrapper


def _traceable_class(obj):
    # Dataclasses (ChainOutput, QPResult, ResultRow, ...) only carry results;
    # spans for their construction would add overhead and no layer work.
    return not is_dataclass(obj) and not issubclass(obj, BaseException)


def _traceable_method(key, value):
    return inspect.isfunction(value) and (not key.startswith("_") or key in ("__init__", "__call__"))


def install(tracer):
    """Wrap the layers' public functions and methods; return the undo list."""
    holders = [m for n, m in sorted(sys.modules.items()) if n == "steinpi" or n.startswith("steinpi.")]
    undo = []
    for layer in LAYERS:
        module = sys.modules[f"steinpi.{layer}"]
        for key, obj in list(vars(module).items()):
            if key.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrapper = _wrap(tracer, f"{layer}.{obj.__qualname__}", obj)
                for holder in holders:
                    for ref, value in list(vars(holder).items()):
                        if value is obj:
                            setattr(holder, ref, wrapper)
                            undo.append((holder, ref, obj))
            elif inspect.isclass(obj) and _traceable_class(obj):
                for ref, value in list(vars(obj).items()):
                    if _traceable_method(ref, value):
                        setattr(obj, ref, _wrap(tracer, f"{layer}.{value.__qualname__}", value))
                        undo.append((obj, ref, value))
    return undo


def restore(undo):
    for owner, ref, original in reversed(undo):
        setattr(owner, ref, original)


@contextmanager
def traced(tracer):
    """Install the wrappers for the duration of the block."""
    undo = install(tracer)
    try:
        yield tracer
    finally:
        restore(undo)


def self_times(spans):
    """Self time per span: its duration minus its direct children's durations."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.duration
    return [s.duration - child.get(s.id, 0.0) for s in spans]


def _tail(values):
    """The highest quantile with at least ten samples beyond it (the median if none)."""
    level = max(0.5, 1.0 - 10.0 / len(values))
    return float(np.quantile(values, level))


def layer_metrics(spans, cells, failed_cells):
    """Per-layer metrics of one traced run; the root span is ``run_experiment``."""
    groups = {}  # span name -> [spans, summed self time]
    for s, own in zip(spans, self_times(spans)):
        group = groups.setdefault(s.name, [[], 0.0])
        group[0].append(s)
        group[1] += own
    layer_of = {s.id: _layer(s.name) for s in spans}

    def named(name):
        return groups.get(name, ([], 0.0))[0]

    def attr(name, key):
        return [s.attrs[key] for s in named(name)]

    def self_s(pred):
        return float(sum(own for name, (_, own) in groups.items() if pred(name)))

    def entries(layer):  # evaluations of the layer called from another layer
        return [
            s
            for name, (group, _) in groups.items()
            if _layer(name) == layer and _function(name) in _POINT_FUNCTIONS
            for s in group
            if s.parent is None or layer_of[s.parent] != layer
        ]

    def per(total, count, scale=1.0):
        return scale * total / count if count else 0.0

    out = {f"{layer}.self_s": self_s(lambda n, layer=layer: _layer(n) == layer) for layer in LAYERS}

    out["grid.build_s"] = float(sum(s.duration for s in named("grid.GridSampler.__init__")))
    out["grid.nodes"] = sum(attr("grid.GridSampler.__init__", "nodes"))

    target_calls = entries("targets")
    out["targets.calls"] = len(target_calls)
    out["targets.points"] = sum(s.attrs["points"] for s in target_calls)
    out["targets.us_per_point"] = per(out["targets.self_s"], out["targets.points"], 1e6)
    out["pi_targets.calls"] = len(entries("pi_targets"))

    grams = named(_GRAM)
    entries_ = sum(attr(_GRAM, "entries"))
    peak = max(grams, key=lambda s: s.attrs["peak_bytes"], default=None)
    out["kernels.gram.calls"] = len(grams)
    out["kernels.gram.entries"] = entries_
    out["kernels.gram.self_s"] = self_s(lambda n: n == _GRAM)
    out["kernels.gram.ns_per_entry"] = per(sum(s.duration for s in grams), entries_, 1e9)
    out["kernels.gram.per_cell"] = per(len(grams), cells)
    out["kernels.gram.peak_bytes"] = peak.attrs["peak_bytes"] if peak else 0
    out["kernels.gram.peak_over_result"] = (
        per(peak.attrs["peak_bytes"], peak.attrs["result_bytes"]) if peak else 0.0
    )
    diag = ("diag_values", "diag_grads", "diag")
    out["kernels.diag.points"] = sum(
        s.attrs["points"]
        for name, (group, _) in groups.items()
        if _layer(name) == "kernels" and _function(name) in diag[:2]
        for s in group
    )
    out["kernels.diag.self_s"] = self_s(lambda n: _layer(n) == "kernels" and _function(n) in diag)

    chains = named("mala.run_chain")
    steps = sum(attr("mala.run_chain", "steps"))
    out["mala.steps"] = steps
    out["mala.us_per_step"] = per(sum(s.duration for s in chains), steps, 1e6)
    out["mala.self_us_per_step"] = per(out["mala.self_s"], steps, 1e6)
    out["mala.accept_rate"] = per(sum(s.attrs["accept_rate"] * s.attrs["steps"] for s in chains), steps)
    out["mala.nonfinite"] = sum(attr("mala.run_chain", "nonfinite"))

    qp = "quantise.optimal_weights"
    ms = [1e3 * s.duration for s in named(qp)]
    out["quantise.qp.calls"] = len(ms)
    out["quantise.qp.self_s"] = self_s(lambda n: n == qp)
    out["quantise.qp.ms_p50"] = float(statistics.median(ms)) if ms else 0.0
    out["quantise.qp.ms_tail"] = _tail(ms) if ms else 0.0
    out["quantise.qp.iterations"] = per(sum(attr(qp, "iterations")), len(ms))
    out["quantise.qp.converged_frac"] = per(sum(attr(qp, "converged")), len(ms))
    out["quantise.qp.rel_gap_max"] = max(attr(qp, "rel_gap"), default=0.0)
    for metric, functions in (("thin", ("greedy_thin", "greedy_thin_indices")),
                              ("ksd", ("ksd", "quadratic_form"))):
        names = {f"quantise.{f}" for f in functions}
        out[f"quantise.{metric}.calls"] = len(named(f"quantise.{functions[0]}"))
        out[f"quantise.{metric}.self_s"] = self_s(lambda n, names=names: n in names)

    for metric, function in (("w1_1d", "wasserstein1_1d"), ("w1_exact", "wasserstein1_exact")):
        out[f"metrics.{metric}.calls"] = len(named(f"metrics.{function}"))
        out[f"metrics.{metric}.self_s"] = self_s(lambda n, f=function: n == f"metrics.{f}")
    out["metrics.w1_exact.pairs"] = sum(attr("metrics.wasserstein1_exact", "pairs"))

    out["experiment.cells"] = cells
    out["experiment.failed_cells"] = failed_cells
    out["trace.wall_s"] = float(sum(s.duration for s in spans if s.parent is None))
    return out
