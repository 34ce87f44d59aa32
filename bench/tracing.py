"""Span tracing of sqitest's layers, installed from outside the package.

Every public function of the six modules, plus the two scipy kernels that
``fock`` imports (``expm_multiply`` and ``eigh``), is replaced by a wrapper
wherever a sqitest module holds a reference to it, so calls between
modules and inside a module are both seen.  Spans (name, start, end,
parent, round) are kept in memory; ``summarize`` turns one round's spans
into the per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import time
from collections import defaultdict

MODULES = ("cli", "experiments", "hypotests", "distributions", "phase_space", "fock")
KERNELS = (("fock", "expm_multiply"), ("fock", "eigh"))

# (name, unit, better).  BENCHMARK.json's per_layer list is this list.
PER_LAYER = [
    ("cli.main.total_s", "s", "lower"),
    ("experiments.run_curve.calls", "count", "lower"),
    ("experiments.run_curve.self_s", "s", "lower"),
    ("hypotests.hh_type2_analytic.calls", "count", "lower"),
    ("hypotests.hh_type2_analytic.total_s", "s", "lower"),
    ("hypotests.hh_type2_analytic.self_s", "s", "lower"),
    ("hypotests.si_type2_closed.calls", "count", "lower"),
    ("hypotests.si_type2_closed.total_s", "s", "lower"),
    ("hypotests.hh_type2_montecarlo.calls", "count", "lower"),
    ("hypotests.hh_type2_montecarlo.total_s", "s", "lower"),
    ("hypotests.hh_type2_montecarlo.self_s", "s", "lower"),
    ("hypotests.hh_type2_montecarlo.reps", "count", "lower"),
    ("hypotests.si_type2_n2.calls", "count", "lower"),
    ("hypotests.si_type2_n2.total_s", "s", "lower"),
    ("hypotests.si_type2_n2.self_s", "s", "lower"),
    ("distributions.noncentral_f_cdf.calls", "count", "lower"),
    ("distributions.noncentral_f_cdf.total_s", "s", "lower"),
    ("distributions.exp_cos_integral_scaled.calls", "count", "lower"),
    ("distributions.exp_cos_integral_scaled.total_s", "s", "lower"),
    ("distributions.critical_point.calls", "count", "lower"),
    ("distributions.critical_point.total_s", "s", "lower"),
    ("distributions.critical_point.distinct_ratio", "ratio", "higher"),
    ("distributions.count_difference_distribution.calls", "count", "lower"),
    ("distributions.count_difference_distribution.total_s", "s", "lower"),
    ("distributions.count_difference_distribution.support", "count", "lower"),
    ("phase_space.kappa.calls", "count", "lower"),
    ("phase_space.kappa.total_s", "s", "lower"),
    ("phase_space.heterodyne_sample.calls", "count", "lower"),
    ("phase_space.heterodyne_sample.total_s", "s", "lower"),
    ("phase_space.heterodyne_sample.draws", "count", "lower"),
    ("fock.si_type2_fock.calls", "count", "lower"),
    ("fock.si_type2_fock.total_s", "s", "lower"),
    ("fock.si_type2_fock.self_s", "s", "lower"),
    ("fock.invariant_expectation.total_s", "s", "lower"),
    ("fock.rotation_average_apply.calls", "count", "lower"),
    ("fock.rotation_average_apply.total_s", "s", "lower"),
    ("fock.expm_multiply.calls", "count", "lower"),
    ("fock.expm_multiply.total_s", "s", "lower"),
    ("fock.eigh.calls", "count", "lower"),
    ("fock.eigh.total_s", "s", "lower"),
    ("fock.rotation_defect_observable.total_s", "s", "lower"),
    ("fock.product_state.total_s", "s", "lower"),
    ("fock.basis_states", "count", "lower"),
    ("fock.dense_bytes", "B", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _arguments(fn):
    """Map a call's (args, kwargs) to ``fn``'s named arguments, defaults filled."""
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return get


class Tracer:
    """Wraps sqitest's layer boundaries and records one span per call."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, round)
        self.counts = defaultdict(float)
        self.critical_keys = set()
        self.round = 0
        self._stack = []
        self._patches = []

    def _counter(self, name, fn):
        """Per-call counting hook for the layers that have a work count."""
        named = _arguments(fn)
        if name == "hypotests.hh_type2_montecarlo":
            return lambda a, k, r: self._add(f"{name}.reps", named(a, k)["reps"])
        if name == "phase_space.heterodyne_sample":
            return lambda a, k, r: self._add(f"{name}.draws", named(a, k)["count"])
        if name == "distributions.count_difference_distribution":
            return lambda a, k, r: self._add(f"{name}.support", len(r.pmf))
        if name == "distributions.critical_point":
            return lambda a, k, r: self.critical_keys.add(tuple(named(a, k).values()))
        if name == "fock.si_type2_fock":
            return lambda a, k, r: self._add("fock.basis_states", named(a, k)["config"].dim)
        if name.startswith("fock."):
            def dense(a, k, r):
                entries = getattr(r, "entries", None)
                if entries is not None and entries.ndim == 2:
                    self._add("fock.dense_bytes", entries.shape[0] ** 2 * 16)
            return dense
        return None

    def _add(self, key, value):
        self.counts[key] += value

    def _wrap(self, name, fn):
        count = self._counter(name, fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.round)
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every sqitest reference to a traced function; undo on exit."""
        mods = {m: importlib.import_module(f"sqitest.{m}") for m in MODULES}
        targets = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets[id(obj)] = (f"{short}.{attr}", obj)
        for short, attr in KERNELS:
            obj = getattr(mods[short], attr)
            targets[id(obj)] = (f"{short}.{attr}", obj)
        wrappers = {key: self._wrap(name, obj) for key, (name, obj) in targets.items()}
        holders = list(mods.values()) + [importlib.import_module("sqitest")]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        try:
            yield self
        finally:
            for mod, attr, obj in reversed(self._patches):
                setattr(mod, attr, obj)
            self._patches.clear()

    def take_round(self) -> tuple[dict, list]:
        """Per-layer metrics of the spans recorded since the last call; resets."""
        spans = list(self.spans)
        metrics = summarize(spans, self.counts, self.critical_keys)
        self.spans.clear()
        self.counts.clear()
        self.critical_keys.clear()
        return metrics, spans


def summarize(spans, counts, critical_keys) -> dict:
    """Calls, total time and self time per layer, plus the work counts.

    Self time is a span's duration minus the time its child spans cover.
    A layer's total time counts only its outermost spans, so a layer that
    re-enters itself is not counted twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, total, self_time = defaultdict(int), defaultdict(float), defaultdict(float)
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        self_time[name] += end - start - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] += end - start
    out = {"trace.spans": float(len(spans))}
    for name in calls:
        out[f"{name}.calls"] = float(calls[name])
        out[f"{name}.total_s"] = total[name]
        out[f"{name}.self_s"] = self_time[name]
    out.update(counts)
    n_crit = calls.get("distributions.critical_point", 0)
    out["distributions.critical_point.distinct_ratio"] = (
        len(critical_keys) / n_crit if n_crit else 0.0)
    return out


def per_layer(rounds: list[dict], overhead_s: float) -> dict:
    """Median over traced rounds of each PER_LAYER metric; 0 where never called."""
    out = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_s":
            value = overhead_s
        else:
            value = statistics.median(r.get(name, 0.0) for r in rounds)
        out[name] = {"value": value, "unit": unit}
    return out
