"""Span tracing of the starsearch layers, done from outside the package.

install() replaces each public function of the six layer modules with a
wrapper that records a span (name, start, end, parent) around the call. It
patches every place a starsearch module holds the function, including the
names other modules imported it under, so a solve inside sweep_n or a payoff
inside an acceptance criterion becomes a child span and each module's self
time is its own. uninstall() puts the originals back. Spans stay in memory
until write() saves them; nothing under src/ is changed.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("model", "equilibrium", "simulate", "verify", "acceptance", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: array = array("i")
        self.start: array = array("q")
        self.end: array = array("q")
        self.parent: array = array("i")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict = {}
        # Counters read off return values, keyed by span name.
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.criteria: list = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        on_result = _RESULT_HOOKS.get(name)
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            return
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "starsearch" or name.startswith("starsearch."))]
        wrappers = self._wrappers
        if not wrappers:
            for layer in LAYERS:
                module = sys.modules[f"starsearch.{layer}"]
                for attr in module.__all__:
                    fn = getattr(module, attr)
                    if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                        wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def layer_stats(self) -> tuple[dict[str, list[float]], dict[str, float]]:
        """Per span name [calls, inclusive ns]; per layer self time in s.

        Self time of a span is its duration minus the durations of its direct
        children; calls are strictly nested in one thread, so those children
        never overlap and their sum is the time they cover.
        """
        if not self.start:
            return {}, {layer: 0.0 for layer in LAYERS}
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        child_ns = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_ns = dur - child_ns
        calls = np.bincount(ids, minlength=len(self.names))
        incl = np.bincount(ids, weights=dur, minlength=len(self.names))
        own = np.bincount(ids, weights=self_ns, minlength=len(self.names))
        by_name = {name: [float(calls[i]), float(incl[i])] for i, name in enumerate(self.names)}
        self_s = {layer: 0.0 for layer in LAYERS}
        for i, name in enumerate(self.names):
            self_s[name.split(".", 1)[0]] += float(own[i]) * 1e-9
        return by_name, self_s

    def write(self, path) -> None:
        """Save every span: name index, start and end in ns from the first, parent index."""
        base = self.start[0] if self.start else 0
        payload = {
            "names": self.names,
            "name": self.name_id.tolist(),
            "start_ns": [t - base for t in self.start],
            "end_ns": [t - base for t in self.end],
            "parent": self.parent.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _count_solve(tracer: Tracer, solution) -> None:
    tracer.counts["equilibrium.iterations"] += solution.iterations


def _count_points(key: str):
    def hook(tracer: Tracer, curve) -> None:
        tracer.counts[key] += len(curve.points)
    return hook


def _count_simulation(tracer: Tracer, report) -> None:
    finished = report.rounds_completed - report.capped_rounds
    tracer.counts["simulate.rounds"] += report.rounds_completed
    tracer.counts["simulate.capped_rounds"] += report.capped_rounds
    if finished:
        tracer.counts["simulate.turns"] += round(report.mean_finish_turn * finished)


def _keep_criteria(tracer: Tracer, results) -> None:
    tracer.criteria.extend(results)


def _count_exit(tracer: Tracer, code) -> None:
    tracer.counts["cli.nonzero_exits"] += code != 0


_RESULT_HOOKS = {
    "equilibrium.solve_equilibrium": _count_solve,
    "equilibrium.sweep_n": _count_points("equilibrium.sweep_points"),
    "equilibrium.sweep_k": _count_points("equilibrium.sweep_points"),
    "equilibrium.residual_curve": _count_points("equilibrium.curve_points"),
    "equilibrium.reliability_curve": _count_points("equilibrium.curve_points"),
    "simulate.estimate_payoff": _count_simulation,
    "acceptance.run_all": _keep_criteria,
    "cli.dispatch": _count_exit,
}


def per_layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, per traced pass.

    Counts are exact for a given seed; times are means over the traced
    passes. A layer the workload never calls reports zero calls and zero
    time.
    """
    by_name, self_s = tracer.layer_stats()
    counts = tracer.counts

    def calls(name: str) -> float:
        return by_name.get(name, [0.0, 0.0])[0] / passes

    def per_call(name: str, scale: float) -> float:
        n, ns = by_name.get(name, [0.0, 0.0])
        return ns / n * scale if n else 0.0

    def total_ns(*names: str) -> float:
        return sum(by_name.get(name, [0.0, 0.0])[1] for name in names)

    out: dict[str, float] = {}
    for fn in ("expected_payoff", "reliability_from_trust", "equilibrium_residual"):
        out[f"model.{fn}.calls"] = calls(f"model.{fn}")
        out[f"model.{fn}.ns_per_call"] = per_call(f"model.{fn}", 1.0)
    solves = by_name.get("equilibrium.solve_equilibrium", [0.0, 0.0])[0]
    out["equilibrium.solve_equilibrium.calls"] = solves / passes
    out["equilibrium.solve_equilibrium.us_per_call"] = per_call(
        "equilibrium.solve_equilibrium", 1e-3)
    out["equilibrium.iterations_per_solve"] = (
        counts["equilibrium.iterations"] / solves if solves else 0.0)
    sweep_points = counts["equilibrium.sweep_points"]
    curve_points = counts["equilibrium.curve_points"]
    out["equilibrium.sweep.us_per_point"] = (
        total_ns("equilibrium.sweep_n", "equilibrium.sweep_k") / sweep_points * 1e-3
        if sweep_points else 0.0)
    out["equilibrium.curve.us_per_point"] = (
        total_ns("equilibrium.residual_curve", "equilibrium.reliability_curve")
        / curve_points * 1e-3 if curve_points else 0.0)
    rounds = counts["simulate.rounds"]
    turns = counts["simulate.turns"]
    out["simulate.estimate_payoff.calls"] = calls("simulate.estimate_payoff")
    out["simulate.estimate_payoff.rounds"] = rounds / passes
    out["simulate.estimate_payoff.ns_per_round"] = (
        total_ns("simulate.estimate_payoff") / rounds if rounds else 0.0)
    out["simulate.turns_per_round"] = turns / rounds if rounds else 0.0
    out["simulate.landing_ratio"] = rounds / turns if turns else 0.0
    out["simulate.capped_rounds"] = counts["simulate.capped_rounds"] / passes
    out["simulate.series_payoff.calls"] = calls("simulate.series_payoff")
    out["simulate.series_payoff.ms_per_call"] = per_call("simulate.series_payoff", 1e-6)
    for fn in ("best_response_scan", "check_equilibrium"):
        out[f"verify.{fn}.calls"] = calls(f"verify.{fn}")
        out[f"verify.{fn}.us_per_call"] = per_call(f"verify.{fn}", 1e-3)
    for i in range(1, 11):
        out[f"acceptance.criterion_{i}_s"] = sum(
            c.elapsed for c in tracer.criteria if c.number == i) / passes
    out["acceptance.failed"] = sum(not c.passed for c in tracer.criteria) / passes
    out["cli.nonzero_exits"] = counts["cli.nonzero_exits"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer] / passes
    out["trace.spans"] = len(tracer.start) / passes
    return out
