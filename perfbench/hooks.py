"""Trace hooks: time calls into each layer from outside the program.

A hook rebinds one name the engine looks up at call time (a module
global such as ``repro.engine.source.best_similarities``, or a method on
a class) to a wrapper that records a span and then calls the original.
Nothing under ``src/`` changes; :meth:`Tracer.uninstall` puts every
original back.  Targets are resolved by dotted name, so a refactor that
moves or renames one leaves that hook *unmeasured* — reported by name,
never read as zero — instead of crashing the run.

Span kinds:

* ``stage`` — a layer's work.  Per thread, a stage entered while no
  other stage is running is *top level*; the sum of top-level stage time
  is what ``trace.residual_s`` subtracts from the op wall time.
* ``op`` — an operation boundary inside the program (the serving
  worker's batch).  Its wall time is an op, not a stage.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

STAGE = "stage"
OP = "op"


@dataclass(frozen=True)
class Hook:
    """One rebinding: ``target`` (dotted name) timed under ``span``.

    ``observe(tracer, args, result)`` derives counts from the call's
    arguments and result (e.g. images per forward pass).
    """

    target: str
    span: str
    kind: str = STAGE
    observe: Callable[["Tracer", tuple, Any], None] | None = None
    before: Callable[["Tracer", tuple], None] | None = None


def _images(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("nn.images", args[1].shape[0])


def _prototypes(tracer: "Tracer", args: tuple, result: Any) -> None:
    filter_maps, top_z = args[0], args[1]
    tracer.count("tiling.candidates", filter_maps.shape[0] * top_z)
    tracer.count("tiling.unique_prototypes", result.vectors.shape[0])


def _similarity_flops(tracer: "Tracer", args: tuple, result: Any) -> None:
    # best_similarities(prototypes (P, C), unit_vectors (N, C, L)): one
    # (P, C) @ (C, L) product per image — computed from operand shapes.
    prototypes, vectors = args[0], args[1]
    flops = 2.0 * prototypes.shape[0] * vectors.shape[0] * vectors.shape[1] * vectors.shape[2]
    tracer.count("tiling.similarity_flop", flops)


def _base_fits(tracer: "Tracer", args: tuple, result: Any) -> None:
    fits = result[1]
    tracer.count("inference.base_em_iters", sum(fit.n_iterations for fit in fits))
    tracer.count("inference.base_reinits", sum(1 for fit in fits if fit.reinitialized))


def _ensemble(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("inference.ensemble_em_iters", result.ensemble_result.n_iterations)


def _cache_load(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("cache.hits" if result is not None else "cache.misses", 1)


def _cache_save(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("cache.bytes_written", os.path.getsize(result))


def _refit(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("online.refits", 1)


def _queue_wait(tracer: "Tracer", args: tuple) -> None:
    # LabelingService._process(self, batch): every submission carries its
    # time.monotonic() enqueue stamp.
    now = time.monotonic()
    for submission in args[1]:
        tracer.sample("serving.queue_wait", now - submission.submitted_at)


HOOKS: tuple[Hook, ...] = (
    Hook("repro.engine.source.extract_pool_features", "nn.forward", observe=_images),
    Hook("repro.engine.source.unit_location_vectors", "tiling.prototype"),
    Hook("repro.engine.source.unique_unit_prototypes", "tiling.prototype", observe=_prototypes),
    Hook("repro.engine.source.best_similarities", "tiling.similarity", observe=_similarity_flops),
    Hook("repro.engine.source.assemble_blocks", "tiling.assemble"),
    Hook("repro.engine.inference.fit_all_base_functions", "inference.base_fit", observe=_base_fits),
    Hook("repro.engine.inference.complete_hierarchy", "inference.ensemble", observe=_ensemble),
    Hook("repro.core.goggles.map_clusters_to_classes", "inference.mapping"),
    Hook("repro.core.goggles.apply_mapping", "inference.mapping"),
    Hook("repro.engine.engine.hash_arrays", "cache.hash"),
    Hook("repro.engine.inference.hash_arrays", "cache.hash"),
    Hook("repro.engine.cache.ArtifactCache.load_affinity", "cache.load", observe=_cache_load),
    Hook("repro.engine.cache.ArtifactCache.load_arrays", "cache.load", observe=_cache_load),
    Hook("repro.engine.cache.ArtifactCache.save_affinity", "cache.save", observe=_cache_save),
    Hook("repro.engine.cache.ArtifactCache.save_arrays", "cache.save", observe=_cache_save),
    Hook("repro.online.session.OnlineSession.absorb_rows", "online.absorb"),
    Hook("repro.engine.source.PrototypeAffinitySource.extend_rows", "online.arrival_rows"),
    Hook("repro.core.goggles.Goggles.label_incremental", "online.refit", observe=_refit),
    Hook("repro.engine.engine.AffinityEngine.extend", "engine.extend"),
    Hook("repro.serving.service.LabelingService._process", "serving.batch", kind=OP, before=_queue_wait),
)


def resolve(dotted: str) -> tuple[object, str]:
    """``(owner, attribute)`` for a dotted name: the longest importable
    module prefix, then attribute lookups.  Raises ``LookupError`` when
    any part is missing."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner: object = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:-1]:
            if not hasattr(owner, name):
                raise LookupError(dotted)
            owner = getattr(owner, name)
        if not hasattr(owner, parts[-1]):
            raise LookupError(dotted)
        return owner, parts[-1]
    raise LookupError(dotted)


@dataclass
class Tracer:
    """Span durations, counts and samples recorded by the installed hooks."""

    durations: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    op_walls: list[float] = field(default_factory=list)
    toplevel_s: float = 0.0
    unmeasured: list[str] = field(default_factory=list)
    _broken_spans: set[str] = field(default_factory=set)
    _installed: list[tuple[object, str, object, bool]] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _depth: threading.local = field(default_factory=threading.local)

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def measured(self, span: str) -> bool:
        """Whether every hook feeding ``span`` resolved and derived cleanly."""
        return span not in self._broken_spans

    def _broken(self, hook: Hook) -> None:
        with self._lock:
            if hook.target not in self.unmeasured:
                self.unmeasured.append(hook.target)
            self._broken_spans.add(hook.span)

    def install(self, hooks: tuple[Hook, ...] = HOOKS) -> None:
        for hook in hooks:
            try:
                owner, name = resolve(hook.target)
            except LookupError:
                self._broken(hook)
                continue
            if isinstance(owner, type):
                # The plain function, possibly inherited, so the wrapper
                # binds to instances as the original did.
                own = name in vars(owner)
                original = next(vars(k)[name] for k in owner.__mro__ if name in vars(k))
            else:
                own, original = True, getattr(owner, name)
            if not callable(original):
                self._broken(hook)
                continue
            setattr(owner, name, self._wrap(hook, original))
            self._installed.append((owner, name, original, own))

    def uninstall(self) -> None:
        while self._installed:
            owner, name, original, own = self._installed.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def _derive(self, hook: Hook, derive: Callable, *args: Any) -> None:
        """Run a count-deriving callback; a refactored argument or result
        shape marks the hook unmeasured instead of failing the call."""
        try:
            derive(self, *args)
        except (AttributeError, IndexError, KeyError, TypeError, OSError):
            self._broken(hook)

    def _wrap(self, hook: Hook, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if hook.before is not None:
                tracer._derive(hook, hook.before, args)
            depth = getattr(tracer._depth, "value", 0)
            nested = hook.kind == STAGE
            if nested:
                tracer._depth.value = depth + 1
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                if nested:
                    tracer._depth.value = depth
                with tracer._lock:
                    if hook.kind == OP:
                        tracer.op_walls.append(elapsed)
                    else:
                        tracer.durations[hook.span] += elapsed
                        if depth == 0:
                            tracer.toplevel_s += elapsed
            if hook.observe is not None:
                tracer._derive(hook, hook.observe, args, result)
            return result

        return timed
