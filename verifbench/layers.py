"""Per-layer numbers for the traced run, measured from the benchmark's side of each layer.

:class:`LayerTrace` wraps the public functions through which the pipeline
calls each layer (the names as the calling module binds them) with timing
spans, and reads the library's own counters from ``metrics_snapshot()``
before and after every request (the result cache's hit, miss and eviction
counters are published there; ``cache_stats()`` is a view over the same
counters).  Nothing under ``src/`` is instrumented for the benchmark.

Spans nest: a layer's busy time is its self time, the span's duration minus
the spans of other wrapped layers inside it, so the prover's busy time
excludes the ⊑_inf decisions and denotations it calls.  Spans are recorded
only while a measured request runs, never during the reference checks.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Dict, List, Tuple

from repro import metrics_snapshot

#: (layer, module, attribute) — the call sites the traced run wraps.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("language", "repro.assistant.verify", "parse_annotated_program"),
    ("analysis", "repro.assistant.verify", "analyze_source"),
    ("resolve", "repro.assistant.verify", "resolve_assertion"),
    ("prover", "repro.logic.prover", "Prover.generate"),
    ("order", "repro.logic.prover", "leq_inf"),
    ("order", "repro.logic.ranking", "leq_inf"),
    ("denotation", "repro.semantics.equivalence", "denotation"),
    ("denotation", "repro.logic.ranking", "denotation"),
    ("compare", "repro.semantics.equivalence", "set_subset"),
    ("compare", "repro.semantics.equivalence", "set_equal"),
)

CACHE_REGIONS = ("prover", "wp", "denotation", "loop-prefix")

#: Per-layer metrics in the order they are printed.
PER_LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("language.busy_ms", "ms"),
    ("language.nodes_per_s", "1/s"),
    ("analysis.busy_ms", "ms"),
    ("resolve.busy_ms", "ms"),
    ("prover.busy_ms", "ms"),
    ("prover.rules", "count"),
    ("vc.predicates", "count"),
    ("order.busy_ms", "ms"),
    ("order.decisions", "count"),
    ("cache.hit_ratio.prover", "ratio"),
    ("cache.hit_ratio.wp", "ratio"),
    ("cache.hit_ratio.denotation", "ratio"),
    ("cache.hit_ratio.loop-prefix", "ratio"),
    ("cache.evictions", "count"),
    ("denotation.busy_ms", "ms"),
    ("denotation.maps", "count"),
    ("compare.busy_ms", "ms"),
    ("parallel.dispatches", "count"),
    ("tracing.overhead_ratio", "ratio"),
)


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _counter_deltas(before: Dict, after: Dict) -> Dict[str, float]:
    deltas = {
        name: value - before["counters"].get(name, 0) for name, value in after["counters"].items()
    }
    for name, histogram in after["histograms"].items():
        previous = before["histograms"].get(name, {}).get("total", 0.0)
        deltas[f"{name}.total"] = histogram["total"] - previous
    return deltas


def _sum_counters(deltas: Dict[str, float], prefix: str) -> float:
    """Sum ``name{labels}`` counters whose name (before the labels) equals ``prefix``."""
    return sum(value for name, value in deltas.items() if name.split("{", 1)[0] == prefix)


class LayerTrace:
    """Timing spans around the layers' entry points plus per-request counter deltas."""

    def __init__(self):
        self.busy: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        self.nodes = 0
        self.maps = 0
        self.vc_predicates = 0
        self.requests = 0
        self._stack: List[List[float]] = []
        self._active = False
        self._saved: List[tuple] = []
        self._before: Dict = {}

    # ------------------------------------------------------------------ wrapping
    def _wrap(self, layer: str, function):
        trace = self

        def traced(*args, **kwargs):
            if not trace._active:
                return function(*args, **kwargs)
            frame = [time.perf_counter(), 0.0]
            trace._stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[0]
                trace._stack.pop()
                trace.busy[layer] += duration - frame[1]
                if trace._stack:
                    trace._stack[-1][1] += duration
            if layer == "language":
                trace.nodes += result.program.size()
            elif layer == "denotation":
                trace.maps += len(result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target by its traced wrapper."""
        for layer, module_name, attribute in TARGETS:
            owner, name = _resolve(module_name, attribute)
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, original))

    def uninstall(self) -> None:
        """Restore the original functions."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # ---------------------------------------------------------------- per request
    def begin(self) -> None:
        """Start recording one request (called just before its timer starts)."""
        self._before = metrics_snapshot()
        self._active = True

    def end(self, outcome) -> None:
        """Stop recording and add the request's counter deltas (called after its timer stops)."""
        self._active = False
        for name, value in _counter_deltas(self._before, metrics_snapshot()).items():
            self.counters[name] += value
        self.requests += 1
        report = outcome.value
        if outcome.error is None and hasattr(report, "verification_condition"):
            self.vc_predicates += len(report.verification_condition)

    # -------------------------------------------------------------------- metrics
    def metrics(self, scale: float, traced_seconds: float, untraced_seconds: float) -> Dict[str, float]:
        """Per-layer metrics of the traced pass; counts and busy times are per request.

        ``scale`` converts this host's timings to the reference speed; the two
        pass totals are already converted.
        """
        n = max(self.requests, 1)
        counters = self.counters

        def per_request_ms(layer: str) -> float:
            return 1000.0 * self.busy[layer] * scale / n

        def hit_ratio(region: str) -> float:
            hits = counters.get(f"cache.hits{{region={region}}}", 0)
            misses = counters.get(f"cache.misses{{region={region}}}", 0)
            return hits / (hits + misses) if hits + misses else 0.0

        language_seconds = self.busy["language"] * scale
        values = {
            "language.busy_ms": per_request_ms("language"),
            "language.nodes_per_s": self.nodes / language_seconds if language_seconds else 0.0,
            "analysis.busy_ms": per_request_ms("analysis"),
            "resolve.busy_ms": per_request_ms("resolve"),
            "prover.busy_ms": per_request_ms("prover"),
            # One proof-rule application per annotation the prover computes
            # rather than replays from the cache.
            "prover.rules": counters.get("cache.misses{region=prover}", 0) / n,
            "vc.predicates": self.vc_predicates / n,
            "order.busy_ms": 1000.0 * counters.get("order.latency_seconds.total", 0.0) * scale / n,
            "order.decisions": _sum_counters(counters, "order.decisions") / n,
            "cache.evictions": _sum_counters(counters, "cache.evictions") / n,
            "denotation.busy_ms": per_request_ms("denotation"),
            "denotation.maps": self.maps / n,
            "compare.busy_ms": per_request_ms("compare"),
            "parallel.dispatches": _sum_counters(counters, "parallel.dispatches") / n,
            "tracing.overhead_ratio": traced_seconds / untraced_seconds if untraced_seconds else 0.0,
        }
        for region in CACHE_REGIONS:
            values[f"cache.hit_ratio.{region}"] = hit_ratio(region)
        return values
