"""Layer spans recorded by wrapping qrelay functions where their callers look them up.

Each target is a module attribute that a caller in the layer above reads at
call time, for example `qrelay.scenarios.apply` for the optics layer.  The
wrapper records one span (name, start, end, parent) in memory and adds the
target's work counters; `Tracer.active()` installs every wrapper and puts the
original functions back on exit.  A target whose module or attribute no
longer exists is skipped, and a layer left with no target is reported as
absent, so the benchmark keeps running across refactors.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import statistics
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("cli", "scenarios", "sources", "optics", "fock", "kernels", "detection", "analysis", "stability")


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _optics_counts(args, kwargs, result):
    return {
        "elements": len(_first(args, kwargs, "circuit").elements),
        "terms_out": len(result),
    }


def _state_in(args, kwargs, result):
    return {"terms_in": len(_first(args, kwargs, "state"))}


def _terms_out(args, kwargs, result):
    return {"terms_out": len(result)}


def _ensemble_counts(args, kwargs, result):
    ensemble = _first(args, kwargs, "ensemble")
    return {
        "terms": sum(len(state) for _, state in ensemble),
        "entries": len(ensemble),
        "zero_weight": sum(1 for weight, _ in ensemble if weight == 0.0),
    }


def _fit_counts(args, kwargs, result):
    return {"constrained": int(bool(getattr(result, "constrained", False)))}


def _stability_counts(args, kwargs, result):
    return {"steps": len(result.time_s)}


# (layer, module, attribute, counter); the module is the caller's namespace
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli", "qrelay.cli", "main", None),
    ("scenarios", "qrelay.cli", "run_teleport_scan", None),
    ("scenarios", "qrelay.cli", "teleport_acceptance", None),
    ("scenarios", "qrelay.cli", "background_probability", None),
    ("scenarios", "qrelay.cli", "run_blocking", None),
    ("scenarios", "qrelay.cli", "run_mandel_scan", None),
    ("scenarios", "qrelay.scenarios", "calibrate_dark_counts", None),
    ("analysis", "qrelay.cli", "fit_fringe", _fit_counts),
    ("analysis", "qrelay.cli", "fit_dip", None),
    ("analysis", "qrelay.cli", "net_visibility", None),
    ("stability", "qrelay.cli", "simulate", _stability_counts),
    ("sources", "qrelay.scenarios", "emit_pairs_single_bin", _terms_out),
    ("sources", "qrelay.scenarios", "emit_pairs_entangled", _terms_out),
    ("optics", "qrelay.scenarios", "apply", _optics_counts),
    ("detection", "qrelay.scenarios", "teleport_outcome_distribution", _ensemble_counts),
    ("detection", "qrelay.scenarios", "coincidence_probability", _ensemble_counts),
    ("fock", "qrelay.scenarios", "vacuum", None),
    ("fock", "qrelay.sources", "apply_creation", _state_in),
    ("fock", "qrelay.optics", "mode_transform", _state_in),
    ("fock", "qrelay.detection", "occupation_distribution", _state_in),
    ("kernels", "qrelay.kernels", "two_mode_transform", None),
    ("kernels", "qrelay.kernels", "scale_mode_transform", None),
)

# per-layer counters reported besides calls and self time
COUNTERS = {
    "detection": ("terms",),
    "optics": ("elements", "terms_out"),
    "fock": ("terms_in",),
    "sources": ("terms_out",),
    "analysis": ("constrained",),
    "stability": ("steps",),
}


class Tracer:
    """In-memory span recorder; spans are (target index, start, end, parent span)."""

    def __init__(self):
        self.names: List[str] = [f"{layer}:{mod}.{attr}" for layer, mod, attr, _ in TARGETS]
        # a slot is reserved on entry and filled on exit, so parents precede children
        self.spans: List[Optional[Tuple[int, float, float, int]]] = []
        self.counts: Dict[str, Counter] = defaultdict(Counter)
        self.optics_state_terms: List[int] = []
        self.missing: List[str] = []
        self.counter_errors: Counter = Counter()
        self._stack: List[int] = []

    def _wrap(self, target: int, layer: str, fn: Callable, counter: Optional[Callable]):
        spans, stack, counts = self.spans, self._stack, self.counts[layer]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (target, start, end, parent)
            if counter is not None:
                try:
                    delta = counter(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError):
                    # a refactor changed the signature; keep timing, drop the count
                    self.counter_errors[self.names[target]] += 1
                else:
                    counts.update(delta)
                    if layer == "optics":
                        self.optics_state_terms.append(delta["terms_out"])
            return result

        return traced

    @contextlib.contextmanager
    def active(self):
        """Install every wrapper that still has a target; restore on exit."""
        installed = []
        self.missing = []
        try:
            for i, (layer, mod_name, attr, counter) in enumerate(TARGETS):
                try:
                    module = importlib.import_module(mod_name)
                except ImportError:
                    self.missing.append(self.names[i])
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    self.missing.append(self.names[i])
                    continue
                setattr(module, attr, self._wrap(i, layer, original, counter))
                installed.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(installed):
                setattr(module, attr, original)

    def absent_layers(self) -> List[str]:
        present = {TARGETS[i][0] for i, name in enumerate(self.names) if name not in self.missing}
        return [layer for layer in LAYERS if layer not in present]

    def layer_metrics(self) -> Dict[str, float]:
        """calls, self time and work counters per layer; absent layers read 0."""
        child = [0.0] * len(self.spans)
        for target, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Dict[str, float] = defaultdict(float)
        for idx, (target, start, end, _) in enumerate(self.spans):
            layer = TARGETS[target][0]
            calls[layer] += 1
            self_s[layer] += (end - start) - child[idx]
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_ms"] = self_s[layer] * 1e3
            for name in COUNTERS.get(layer, ()):
                out[f"{layer}.{name}"] = self.counts[layer][name]
        det = self.counts["detection"]
        out["detection.zero_weight_ratio"] = det["zero_weight"] / det["entries"] if det["entries"] else 0.0
        return out

    def terms_per_state(self) -> Dict[str, float]:
        terms = self.optics_state_terms
        if not terms:
            return {}
        return {
            "states": len(terms),
            "min": min(terms),
            "median": statistics.median(terms),
            "max": max(terms),
            "mean": sum(terms) / len(terms),
        }

    def write(self, path) -> None:
        """Spans as gzip CSV: name, start_s, end_s, parent (row index, -1 for none)."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("name,start_s,end_s,parent\n")
            for target, start, end, parent in self.spans:
                handle.write(f"{self.names[target]},{start!r},{end!r},{parent}\n")
