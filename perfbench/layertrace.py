"""Outside-in tracer: spans around chanrec's public names, no source edits.

``from .x import y`` copies a name into the importing module, so a function
is wrapped in every chanrec namespace that binds it (found by identity), not
only where it is defined.  Each call records a span (name, start, end,
parent) in memory; a layer's self time is its span durations minus the part
covered by its child spans.  A name that the library no longer defines is
reported as a missing layer instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict

# (module, public name, layer).  The three study runners share one layer.
LAYERS = (
    ("experiments", "generate_instance", "experiments.generate_instance"),
    ("experiments", "run_scaling_study", "experiments.study"),
    ("experiments", "run_gap_study", "experiments.study"),
    ("experiments", "run_traffic_study", "experiments.study"),
    ("assign", "edge_color", "assign.edge_color"),
    ("assign", "ifa_assign", "assign.ifa_assign"),
    ("assign", "greedy_assign", "assign.greedy_assign"),
    ("assign", "random_assign", "assign.random_assign"),
    ("metrics", "recovery_capacity", "metrics.recovery_capacity"),
    ("metrics", "feasibility_ratio", "metrics.feasibility_ratio"),
    ("metrics", "max_node_load", "metrics.max_node_load"),
    ("metrics", "max_odd_set_load_exact", "metrics.max_odd_set_load_exact"),
    ("metrics", "max_odd_set_load_bracket", "metrics.max_odd_set_load_bracket"),
    ("metrics", "is_interference_free", "metrics.is_interference_free"),
    ("netmodel", "check_assignment", "netmodel.check_assignment"),
    ("netmodel", "parse_network", "netmodel.parse_network"),
    ("netmodel", "parse_assignment", "netmodel.parse_assignment"),
    ("oracles", "solve_whiterec_exact", "oracles.whiterec"),
    ("oracles", "solve_feasi_exact", "oracles.feasi"),
    ("cli", "main", "cli.main"),
)

ORACLES = ("oracles.whiterec", "oracles.feasi")


def _oracle_counts(tracer, layer, args, result):
    net = args[0]
    c = tracer.counts
    c[layer + ".leaves"] += result.explored
    c[layer + ".proven"] += bool(result.proven_optimal)
    c[layer + ".space"] += float(net.n_channels) ** net.n_edges


def _oddset_counts(tracer, layer, args, result):
    net = args[0]
    if net.n_nodes >= 3 and net.n_edges > 0:
        # computed, not counted: odd subsets of size >= 3 enumerated per call
        tracer.counts["metrics.oddset_exact.subsets"] += 2 ** (net.n_nodes - 1) - net.n_nodes


HOOKS = {
    "oracles.whiterec": _oracle_counts,
    "oracles.feasi": _oracle_counts,
    "metrics.max_odd_set_load_exact": _oddset_counts,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}
        self._resolve()

    def _resolve(self) -> None:
        """Build one wrapper per public function the library still defines."""
        for mod, attr, layer in LAYERS:
            try:
                fn = getattr(importlib.import_module("chanrec." + mod), attr)
            except (ImportError, AttributeError):
                if layer not in self.missing:
                    self.missing.append(layer)
                continue
            self._wrappers[id(fn)] = (fn, self._wrap(fn, layer))

    def _wrap(self, fn, layer):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if layer == "metrics.feasibility_ratio":
                span[0] = f"{layer}.{result.mode}"
            if hook is not None:
                hook(self, layer, args, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every chanrec module global bound to a wrapped function."""
        for name, module in list(sys.modules.items()):
            if name != "chanrec" and not name.startswith("chanrec."):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def layer_totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        return calls, self_s


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics by name; layers the library lacks are left out."""
    calls, self_s = tracer.layer_totals()
    c = tracer.counts
    out: dict[str, float] = {}
    present = {layer for _, _, layer in LAYERS if layer not in tracer.missing}
    for layer in present:
        if layer == "metrics.feasibility_ratio":
            for mode in ("exact", "bracket"):
                name = f"{layer}.{mode}"
                out[name + ".calls"] = calls[name]
                out[name + ".self_ms"] = self_s[name] * 1000.0
            continue
        out[layer + ".calls"] = calls[layer]
        out[layer + ".self_ms"] = self_s[layer] * 1000.0
    for layer in ORACLES:
        if layer not in present:
            continue
        leaves, secs = c[layer + ".leaves"], self_s[layer]
        out[layer + ".leaves"] = leaves
        out[layer + ".proven"] = c[layer + ".proven"]
        out[layer + ".leaves_per_s"] = leaves / secs if secs > 0 else 0.0
        space = c[layer + ".space"]
        out[layer + ".leaf_frac"] = leaves / space if space > 0 else 0.0
    if "metrics.max_odd_set_load_exact" in present:
        subsets = c["metrics.oddset_exact.subsets"]
        secs = self_s["metrics.max_odd_set_load_exact"]
        out["metrics.oddset_exact.subsets"] = subsets
        out["metrics.oddset_exact.subsets_per_s"] = subsets / secs if secs > 0 else 0.0
    return {k: v for k, v in out.items() if math.isfinite(v)}
