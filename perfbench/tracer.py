"""Outside-in tracing of qdisk: wrapped layer functions, spans and layer metrics.

`Tracer.install()` wraps the public functions of each qdisk module (the names
in its `__all__`), `cli.main`, and a fixed list of methods.  Several modules
bind layer functions by name at import (`from .nullity import
count_null_dense`), so patching only the defining module would miss calls:
every `qdisk.*` module attribute and class attribute that *is* one of the
original function objects is rebound to its wrapper.

Each call records a span (name, start, end, parent span, operation id) in
flat arrays; nothing is aggregated while the program runs.  Counts beyond
call counts (matrix shapes, jobs requested, errors raised) are read from the
arguments, return values and exceptions that pass through the wrappers.  The process is single-threaded (QDISK_THREADS is
cleared), so one span stack suffices.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np

MODULES = ("weights", "element", "ncops", "parametrix", "hilbert", "nullity",
           "aps", "classical", "report")
METHODS = {
    ("weights", "WeightPair"): ("a_at", "b_at", "log_b_cumsum"),
    ("element", "ToeplitzElement"): ("read", "__add__", "__sub__", "__mul__",
                                     "to_json_dict"),
    ("report", "Report"): ("to_json",),
}


def _dense_shape(counter: Counter, bound: inspect.BoundArguments, result, exc) -> None:
    rows, cols = bound.arguments["matrix"].shape
    m, n = max(rows, cols), min(rows, cols)
    counter["nullity.dense_cells"] += rows * cols
    # 4mn^2 - 4n^3/3: flops of the Golub-Kahan bidiagonalisation that
    # dominates an SVD without vectors; computed from the shape, not counted
    counter["nullity.dense_flops_computed"] += (12 * m * n * n - 4 * n ** 3) // 3


def _bidiagonal_shape(counter: Counter, bound: inspect.BoundArguments, result, exc) -> None:
    counter["nullity.tridiag_len"] += bound.arguments["rows"] + bound.arguments["cols"]


def _jobs(key: str):
    def observe(counter: Counter, bound, result, exc) -> None:
        if result is not None:
            counter[key] += len(result.per_mode)
    return observe


def _nullity(observe):
    """Observe a null count: its shape when it returns, or its error."""
    def wrapped(counter: Counter, bound, result, exc) -> None:
        if exc is None:
            observe(counter, bound, result, exc)
        elif type(exc).__name__ == "IllConditionedError":
            counter["nullity.ill_conditioned"] += 1
    return wrapped


OBSERVERS = {
    "nullity.count_null_dense": _nullity(_dense_shape),
    "nullity.count_null_bidiagonal": _nullity(_bidiagonal_shape),
    "aps.index_numeric": _jobs("aps.jobs_requested"),
    "classical.index_classical": _jobs("classical.jobs_requested"),
}


class Tracer:
    """Span recorder for one process; `op` is the current operation id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.span_op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op = -1
        self.counters: dict[int, Counter] = {}

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None
        span_name, parent, span_op = self.span_name, self.parent, self.span_op
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            span_op.append(self.op)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                if observe is not None:
                    counter = self.counters.setdefault(self.op, Counter())
                    observe(counter, signature.bind(*args, **kwargs), result, exc)

        return traced

    def install(self) -> None:
        """Wrap every traced function and rebind every reference to it."""
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"qdisk.{short}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for (short, cls_name), methods in METHODS.items():
            cls = getattr(importlib.import_module(f"qdisk.{short}"), cls_name)
            for attr in methods:
                fn = cls.__dict__[attr]
                wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        cli = importlib.import_module("qdisk.cli")
        wrappers[cli.main] = self._wrap("cli.main", cli.main)

        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qdisk" and not mod_name.startswith("qdisk."):
                continue
            for owner in [module] + [v for v in vars(module).values()
                                     if inspect.isclass(v)
                                     and v.__module__.startswith("qdisk")]:
                for attr, value in list(vars(owner).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        setattr(owner, attr, wrappers[value])

    def per_op(self, n_ops: int) -> tuple[np.ndarray, np.ndarray]:
        """Calls and self seconds, shape (n_ops, len(names)).

        A span's self time is its duration minus the durations of its direct
        children; calls run one at a time, so children never overlap.
        """
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op = np.frombuffer(self.span_op, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        keep = (op >= 0) & (op < n_ops)
        key = op[keep] * len(self.names) + name[keep]
        size = n_ops * len(self.names)
        shape = (n_ops, len(self.names))
        calls = np.bincount(key, minlength=size).reshape(shape)
        self_s = np.bincount(key, weights=(dur - child)[keep],
                             minlength=size).reshape(shape)
        return calls, self_s

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.span_name),
            start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent), op=np.asarray(self.span_op))


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric: a sum of calls, self seconds or counters, or a
    ratio of null-count calls to jobs requested."""

    name: str
    unit: str
    kind: str                  # "calls", "self_s", "counter" or "ratio"
    sources: tuple[str, ...]   # span names, or counter keys


def _calls(name: str, *spans: str) -> LayerMetric:
    return LayerMetric(name, "count", "calls", spans or (name[: -len(".calls")],))


def _self(name: str, *spans: str) -> LayerMetric:
    return LayerMetric(name, "s", "self_s", spans or (name[: -len(".self_s")],))


def _counter(name: str, unit: str = "count") -> LayerMetric:
    return LayerMetric(name, unit, "counter", (name,))


# Rows of the layer -> metric -> workload map.  "on" lists the workloads
# where the layer runs and a change to it should move the end-to-end
# metrics in "moves"; the prediction elsewhere is no change.
LAYERS = [
    {"layer": "weights", "moves": ["wall_rel"], "on": ["suites"],
     "metrics": [_calls("weights.a_at.calls"), _calls("weights.b_at.calls"),
                 _self("weights.eval.self_s", "weights.a_at", "weights.b_at",
                       "weights.log_b_cumsum")]},
    {"layer": "element", "moves": ["wall_rel"], "on": ["suites"],
     "metrics": [_calls("element.read.calls"), _self("element.read.self_s"),
                 _self("element.arith.self_s", "element.__add__",
                       "element.__sub__", "element.__mul__"),
                 _self("element.random_element.self_s"),
                 _self("element.restrict.self_s"),
                 _calls("element.to_json_dict.calls"),
                 _self("element.to_json_dict.self_s")]},
    {"layer": "ncops", "moves": ["wall_rel"], "on": ["suites"],
     "metrics": [_calls("ncops.apply_D.calls"), _self("ncops.apply_D.self_s"),
                 _self("ncops.apply_Dbar.self_s")]},
    {"layer": "parametrix", "moves": ["wall_rel"], "on": ["suites"],
     "metrics": [_calls("parametrix.apply_Q.calls"),
                 _self("parametrix.apply_Q.self_s"),
                 _self("parametrix.apply_Qbar.self_s"),
                 _self("parametrix.norm_bound_check.self_s")]},
    {"layer": "hilbert", "moves": ["wall_rel"], "on": ["suites"],
     "metrics": [_calls("hilbert.inner_product_fourier.calls"),
                 _self("hilbert.inner_product_fourier.self_s"),
                 _self("hilbert.integration_by_parts_residual.self_s")]},
    {"layer": "nullity (dense)", "moves": ["wall_rel"], "on": ["index-nc"],
     "metrics": [_calls("nullity.count_null_dense.calls"),
                 _self("nullity.count_null_dense.self_s"),
                 _counter("nullity.dense_cells"),
                 _counter("nullity.dense_flops_computed", "flop")]},
    {"layer": "nullity (structured)", "moves": ["wall_rel", "peak_rss_mb"],
     "on": ["index-classical"],
     "metrics": [_calls("nullity.count_null_bidiagonal.calls"),
                 _self("nullity.count_null_bidiagonal.self_s"),
                 _counter("nullity.tridiag_len")]},
    {"layer": "nullity (failures)", "moves": ["ok_frac"],
     "on": ["index-nc", "index-classical"],
     "metrics": [_counter("nullity.ill_conditioned")]},
    {"layer": "aps", "moves": ["wall_rel"], "on": ["index-nc"],
     "metrics": [_calls("aps.index_numeric.calls"),
                 _self("aps.index_numeric.self_s"),
                 _counter("aps.jobs_requested"),
                 LayerMetric("aps.cache_hit_ratio", "fraction", "ratio",
                             ("nullity.count_null_dense", "aps.jobs_requested"))]},
    {"layer": "classical", "moves": ["wall_rel"], "on": ["index-classical"],
     "metrics": [_self("classical.index_classical.self_s"),
                 _counter("classical.jobs_requested"),
                 LayerMetric("classical.cache_hit_ratio", "fraction", "ratio",
                             ("nullity.count_null_bidiagonal",
                              "classical.jobs_requested"))]},
    {"layer": "cli", "moves": ["wall_rel"],
     "on": ["index-nc", "index-classical", "suites"],
     "metrics": [_self("cli.self_s", "cli.main")]},
    # index-sweep writes CSV, so Report.to_json runs on suites only
    {"layer": "report", "moves": ["wall_rel"], "on": ["suites"],
     "metrics": [_self("report.to_json.self_s")]},
]
LAYER_METRICS = [m for row in LAYERS for m in row["metrics"]]


def layer_values(names: list[str], calls: np.ndarray, self_s: np.ndarray,
                 counters: Counter) -> dict[str, float]:
    """Per-layer metric values of one batch from its summed calls/self/counters."""
    index = {n: i for i, n in enumerate(names)}
    values: dict[str, float] = {}
    for m in LAYER_METRICS:
        if m.kind == "calls":
            values[m.name] = int(sum(calls[index[s]] for s in m.sources))
        elif m.kind == "self_s":
            values[m.name] = float(sum(self_s[index[s]] for s in m.sources))
        elif m.kind == "counter":
            values[m.name] = counters.get(m.sources[0], 0)
        else:
            null_calls = calls[index[m.sources[0]]]
            jobs = counters.get(m.sources[1], 0)
            values[m.name] = 1.0 - null_calls / jobs if jobs else 0.0
    return values
