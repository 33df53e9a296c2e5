"""Per-layer metric definitions, exact quantiles and the environment
fingerprint.

``PER_LAYER`` is the per-layer metric catalogue; the names and units in
``BENCHMARK.json`` mirror it (the smoke tests check that they agree).
Per-layer times and counts are per op: one ``Goggles.label`` call on
the closed-loop workloads, one service batch on ``serve-online``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from hooks import Tracer

def nearest_rank(values: list[float], q: float) -> float:
    """The nearest-rank ``q`` quantile of raw samples (no interpolation,
    no histogram buckets): the ``ceil(q * n)``-th smallest value."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def peak_rss_mb() -> float:
    """Process high-water resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit(root: Path) -> str | None:
    """HEAD of a git checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def environment(root: Path, seed: int) -> dict:
    """What a result depends on besides the code under test."""
    import numpy as np
    import scipy

    blas: object = None
    try:
        found = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: found.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    threads = {
        var: os.environ[var]
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        if var in os.environ
    }
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas,
        "blas_threads": threads or "library default",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric: how to compute it and which spans feed it."""

    name: str
    unit: str
    spans: tuple[str, ...]
    value: Callable[["LayerInputs"], float]


@dataclass
class LayerInputs:
    """A traced phase: the tracer plus what the benchmark saw itself."""

    tracer: Tracer
    ops: int  # label calls, or service batches on serve-online
    op_wall_s: float  # wall time of those ops, for the residual
    traced_e2e_s: float  # end-to-end time of the traced phase ...
    untraced_e2e_s: float  # ... and of the same inputs run without hooks
    cache_ops: int = 0  # ops that looked anything up in the cache ...
    cache_hit_ops: int = 0  # ... and found every artifact there
    client: dict[str, list[float]] = field(default_factory=dict)  # serve-online client samples
    sent: int = 0
    polls: int = 0
    rows_labeled: int = 0

    def per_op(self, amount: float) -> float:
        return amount / self.ops if self.ops else 0.0

    def time(self, span: str) -> float:
        return self.per_op(self.tracer.durations.get(span, 0.0))

    def count(self, name: str) -> float:
        return self.per_op(self.tracer.counts.get(name, 0.0))

    def total(self, name: str) -> float:
        return self.tracer.counts.get(name, 0.0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _quantile(samples: list[float], q: float) -> float:
    return nearest_rank(samples, q) if samples else 0.0


def _busy(name: str, span: str) -> LayerMetric:
    """Seconds per op spent in one span (nested calls included)."""
    return LayerMetric(name, "s/op", (span,), lambda m: m.time(span))


def _per_op(name: str, unit: str, span: str, count: str, scale: float = 1.0) -> LayerMetric:
    """A count the hooks on ``span`` derive, per op."""
    return LayerMetric(name, unit, (span,), lambda m: m.count(count) * scale)


def _queue_wait(m: LayerInputs) -> list[float]:
    return m.tracer.samples.get("serving.queue_wait", [])


PER_LAYER: tuple[LayerMetric, ...] = (
    _busy("nn.forward_s", "nn.forward"),
    _per_op("nn.images", "images/op", "nn.forward", "nn.images"),
    _busy("tiling.prototype_s", "tiling.prototype"),
    LayerMetric(
        "tiling.unique_prototype_ratio", "ratio", ("tiling.prototype",),
        lambda m: _ratio(m.total("tiling.unique_prototypes"), m.total("tiling.candidates")),
    ),
    _busy("tiling.similarity_s", "tiling.similarity"),
    # Computed from operand shapes, not counted by hardware.
    _per_op("tiling.similarity_gflop", "GFLOP/op", "tiling.similarity", "tiling.similarity_flop", 1e-9),
    _busy("tiling.assemble_s", "tiling.assemble"),
    _busy("inference.base_fit_s", "inference.base_fit"),
    _per_op("inference.base_em_iters", "iters/op", "inference.base_fit", "inference.base_em_iters"),
    _per_op("inference.base_reinits", "fits/op", "inference.base_fit", "inference.base_reinits"),
    _busy("inference.ensemble_s", "inference.ensemble"),
    _per_op("inference.ensemble_em_iters", "iters/op", "inference.ensemble", "inference.ensemble_em_iters"),
    _busy("inference.mapping_s", "inference.mapping"),
    LayerMetric("cache.hits", "count", ("cache.load",), lambda m: m.total("cache.hits")),
    LayerMetric("cache.misses", "count", ("cache.load",), lambda m: m.total("cache.misses")),
    LayerMetric(
        "cache.hit_ratio", "ratio", ("cache.load",), lambda m: _ratio(m.cache_hit_ops, m.cache_ops)
    ),
    _busy("cache.hash_s", "cache.hash"),
    _busy("cache.load_s", "cache.load"),
    _busy("cache.save_s", "cache.save"),
    _per_op("cache.bytes_written", "bytes/op", "cache.save", "cache.bytes_written"),
    _busy("online.absorb_s", "online.absorb"),
    _busy("online.arrival_rows_s", "online.arrival_rows"),
    _busy("online.refit_s", "online.refit"),
    LayerMetric("online.refits", "count", ("online.refit",), lambda m: m.total("online.refits")),
    LayerMetric(
        "online.refit_ratio", "ratio", ("online.refit", "serving.batch"),
        lambda m: _ratio(m.total("online.refits"), m.ops),
    ),
    _busy("engine.extend_s", "engine.extend"),
    LayerMetric(
        "serving.queue_wait_s_p50", "s", ("serving.batch",), lambda m: _quantile(_queue_wait(m), 0.5)
    ),
    LayerMetric(
        "serving.queue_wait_s_p90", "s", ("serving.batch",), lambda m: _quantile(_queue_wait(m), 0.9)
    ),
    LayerMetric(
        "serving.batches", "count", ("serving.batch",), lambda m: float(len(m.tracer.op_walls))
    ),
    LayerMetric(
        "serving.rows_per_batch", "rows/batch", ("serving.batch",),
        lambda m: _ratio(m.rows_labeled, len(m.tracer.op_walls)),
    ),
    LayerMetric(
        "http.submit_s_p50", "s", (), lambda m: _quantile(m.client.get("submit_s", []), 0.5)
    ),
    LayerMetric("http.polls_per_ticket", "polls/ticket", (), lambda m: _ratio(m.polls, m.sent)),
    LayerMetric(
        "loadgen.send_lag_s_p90", "s", (), lambda m: _quantile(m.client.get("send_lag_s", []), 0.9)
    ),
    LayerMetric("loadgen.sent", "count", (), lambda m: float(m.sent)),
    LayerMetric(
        "trace.residual_s", "s/op", (), lambda m: m.per_op(m.op_wall_s - m.tracer.toplevel_s)
    ),
    LayerMetric(
        "trace.overhead_ratio", "ratio", (), lambda m: _ratio(m.traced_e2e_s, m.untraced_e2e_s)
    ),
)

# Sample counts behind each quantile-valued per-layer metric.
_QUANTILE_SAMPLES = {
    "serving.queue_wait_s_p50": lambda m: len(_queue_wait(m)),
    "serving.queue_wait_s_p90": lambda m: len(_queue_wait(m)),
    "http.submit_s_p50": lambda m: len(m.client.get("submit_s", [])),
    "loadgen.send_lag_s_p90": lambda m: len(m.client.get("send_lag_s", [])),
}


def layer_metrics(inputs: LayerInputs) -> tuple[dict[str, tuple[float, str]], list[str], dict[str, int]]:
    """Per-layer values, the metric names left unmeasured (a hook target
    missing after a refactor — reported, never emitted as zero), and the
    sample count behind every quantile."""
    tracer = inputs.tracer
    values: dict[str, tuple[float, str]] = {}
    unmeasured: list[str] = []
    # Residual and overhead subtract every top-level stage, so they need all.
    every_span = tuple(sorted({span for metric in PER_LAYER for span in metric.spans}))
    for metric in PER_LAYER:
        spans = every_span if metric.name == "trace.residual_s" else metric.spans
        if all(tracer.measured(span) for span in spans):
            values[metric.name] = (float(metric.value(inputs)), metric.unit)
        else:
            unmeasured.append(metric.name)
    counts = {name: n(inputs) for name, n in _QUANTILE_SAMPLES.items()}
    return values, unmeasured, counts


def result_line(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> str:
    """The result object, printed as the last line of a run."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )
