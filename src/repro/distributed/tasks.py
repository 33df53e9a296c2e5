"""Shard tasks: the unit of work of the distributed runtime.

All three embarrassingly parallel stages of the pipeline decompose
into pure, content-addressed tasks that any worker can compute:

* ``"extraction"`` — one chunked-batch VGG forward pass of stage 1
  (paper §3, "all 5 max-pooling layers").  The :class:`ShardPlanner`
  cuts the corpus at *exactly* the serial chunk boundaries
  (:func:`repro.engine.features.iter_batches`); the backbone is fully
  deterministic from its :class:`~repro.nn.vgg.VGGConfig`, so the
  worker rebuilds it once per process (memoised) and runs the same
  per-chunk ``forward_pools`` call as the serial engine — every conv /
  ReLU / max-pool layer is per-sample independent, so the merged pool
  features are bit-identical to a single-machine extraction.
* ``"similarity"`` — one (image-tile × prototype-row-tile) block of the
  α·N² affinity computation (paper §3).  The :class:`ShardPlanner` cuts
  the grid at *exactly* the serial tile boundaries
  (:func:`repro.engine.tiling.tile_bounds`) and the worker kernel runs
  the same per-image matmuls as the serial ``score_block``, so the
  merged matrix is bit-identical to a single-machine build.
* ``"base-fit"`` — one per-affinity-function base GMM fit (paper §4,
  "we can parallelize all of the base models", §5.3).  The worker runs
  :func:`repro.core.inference.hierarchical.fit_base_function` — the
  F = 1 slice of the stacked EM kernel every executor runs — which
  derives the function's own seed stream, so the result is independent
  of which worker computes it, in which order, after how many retries.

A task's id is a SHA-256 over every value-affecting byte of its payload
(array content + parameter reprs).  Content addressing buys three
properties at once: duplicate tiles collapse into one computation,
at-least-once execution under lease reassignment is harmless
(identical content ⇒ identical output), and results can be cached in a
shared :class:`~repro.engine.cache.ArtifactCache` (kind ``"shard"``) so
a rerun — by any worker or the coordinator itself — is a disk hit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.inference.base_gmm import BASE_EM_KERNEL, GMMFitResult
from repro.core.inference.hierarchical import HierarchicalConfig, fit_base_function
from repro.engine.cache import ArtifactCache, hash_arrays, hash_params
from repro.engine.features import iter_batches
from repro.engine.tiling import tile_bounds
from repro.nn.vgg import VGG16, VGGConfig
from repro.obs import current_trace_id

__all__ = [
    "ShardTask",
    "ShardPlanner",
    "extraction_task",
    "similarity_task",
    "base_fit_task",
    "execute_shard",
    "load_shard_result",
    "required_result_keys",
    "pack_gmm_result",
    "unpack_gmm_result",
    "shard_key",
]

# Bounds of one grid axis: (start, end).
Bounds = tuple[int, int]


def shard_key(kind: str, data_hash: str, params: dict[str, object]) -> str:
    """Content address of one shard: kind | array content | parameters."""
    material = f"{kind}|{data_hash}|{hash_params(params)}"
    return hashlib.sha256(material.encode()).hexdigest()


@dataclass(frozen=True)
class ShardTask:
    """One unit of distributed work.

    Attributes:
        task_id: content address (see :func:`shard_key`); identical
            payloads share an id, so retries and duplicates are safe.
        kind: ``"similarity"`` or ``"base-fit"``.
        payload: everything the worker needs — numpy arrays plus plain
            picklable parameters.  Shipped over the connection verbatim.
        trace_id: the submitting request's trace id, captured from the
            planning context at build time.  **Not** part of the content
            address (two requests computing the same shard share one
            task id, result, and cache entry) and excluded from
            equality — it is observability freight, never compute
            input.  The worker re-installs it around the shard's
            execution so worker-side spans stitch into the submitting
            request's timeline.
    """

    task_id: str
    kind: str
    payload: dict = field(repr=False)
    trace_id: str | None = field(default=None, repr=False, compare=False)


# ----------------------------------------------------------------------
# Task builders
# ----------------------------------------------------------------------
def extraction_task(vgg_config: VGGConfig, images: np.ndarray, layers: tuple[int, ...]) -> ShardTask:
    """One chunked-batch VGG forward pass of stage-1 feature extraction.

    The payload carries the *config*, not the model: the surrogate
    backbone derives every weight deterministically from its
    :class:`~repro.nn.vgg.VGGConfig` seed, so ``repr(config)`` is a
    complete content address for the network and the worker can rebuild
    it (memoised per process) instead of shipping megabytes of weights
    with every shard.
    """
    images = np.ascontiguousarray(images)
    layers = tuple(int(layer) for layer in layers)
    task_id = shard_key("extraction", hash_arrays(images), {"vgg": repr(vgg_config), "layers": layers})
    return ShardTask(
        task_id=task_id,
        kind="extraction",
        payload={"images": images, "vgg": vgg_config, "layers": layers},
        trace_id=current_trace_id(),
    )


def similarity_task(prototypes: np.ndarray, vectors: np.ndarray) -> ShardTask:
    """One tile of ``best_similarities``: score ``prototypes`` against
    the unit location vectors of a tile of images.

    The arrays must already carry the engine's compute dtype (the
    planner casts once, before slicing, exactly like the serial kernel)
    — the dtype is therefore part of the content hash via the array
    bytes themselves.

    Bit-identity requires shipping not just the tile's *values* but its
    per-image memory **layout**: VGG pool features arrive as transposed
    views, so the serial kernel's ``(C, P)`` operands are F-ordered,
    and BLAS may round a transposed GEMM differently (~1 ulp) than a
    C-ordered one.  F-ordered tiles are therefore serialised as their
    ``(P, C)`` transpose and re-transposed by the worker, recreating
    the exact strides the serial kernel sees.
    """
    prototypes = np.ascontiguousarray(prototypes)
    # Per-image layout: F-ordered when the channel axis is the minor one.
    transposed = vectors.strides[-2] <= vectors.strides[-1]
    shipped = np.ascontiguousarray(vectors.transpose(0, 2, 1) if transposed else vectors)
    task_id = shard_key("similarity", hash_arrays(prototypes, shipped), {"transposed": transposed})
    return ShardTask(
        task_id=task_id,
        kind="similarity",
        payload={"prototypes": prototypes, "vectors": shipped, "transposed": transposed},
        trace_id=current_trace_id(),
    )


def base_fit_task(
    block: np.ndarray,
    config: HierarchicalConfig,
    function_index: int,
    init: np.ndarray | None = None,
) -> ShardTask:
    """One per-affinity-function base GMM fit (optionally warm-started)."""
    block = np.ascontiguousarray(block)
    arrays = [block] if init is None else [block, np.ascontiguousarray(init)]
    params: dict[str, object] = {
        "config": repr(config),
        "function_index": int(function_index),
        "warm": init is not None,
        "kernel": BASE_EM_KERNEL,
    }
    task_id = shard_key("base-fit", hash_arrays(*arrays), params)
    return ShardTask(
        task_id=task_id,
        kind="base-fit",
        payload={
            "block": block,
            "config": config,
            "function_index": int(function_index),
            "init": init,
        },
        trace_id=current_trace_id(),
    )


# ----------------------------------------------------------------------
# Result (de)serialisation: every shard result is a flat {name: array}
# mapping, so it ships over a connection and caches as an .npz alike.
# ----------------------------------------------------------------------
_GMM_KEYS = (
    "responsibilities",
    "log_likelihood",
    "n_iterations",
    "converged",
    "degenerate",
    "reinitialized",
)


def pack_gmm_result(result: GMMFitResult) -> dict[str, np.ndarray]:
    return {
        "responsibilities": result.responsibilities,
        "log_likelihood": np.float64(result.log_likelihood),
        "n_iterations": np.int64(result.n_iterations),
        "converged": np.bool_(result.converged),
        "degenerate": np.bool_(result.degenerate),
        "reinitialized": np.bool_(result.reinitialized),
    }


def unpack_gmm_result(arrays: dict[str, np.ndarray]) -> GMMFitResult:
    # params=None on purpose: responsibilities — not means, whose
    # dimension is N — are the portable state, matching what a cached
    # inference replay reconstructs.
    return GMMFitResult(
        responsibilities=np.asarray(arrays["responsibilities"]),
        log_likelihood=float(arrays["log_likelihood"]),
        n_iterations=int(arrays["n_iterations"]),
        converged=bool(arrays["converged"]),
        degenerate=bool(arrays["degenerate"]),
        reinitialized=bool(arrays["reinitialized"]),
    )


# ----------------------------------------------------------------------
# Execution (worker side)
# ----------------------------------------------------------------------
#: Per-process backbone memo: building a VGG16 (calibration forward
#: passes included) dwarfs a single chunk's forward pass, so a worker
#: rebuilds each distinct config exactly once and reuses it for every
#: extraction shard that names it.
_BACKBONES: dict[str, VGG16] = {}


def _backbone(config: VGGConfig) -> VGG16:
    key = repr(config)
    model = _BACKBONES.get(key)
    if model is None:
        model = _BACKBONES[key] = VGG16(config)
    return model


def _run_extraction(payload: dict) -> dict[str, np.ndarray]:
    """Exactly the serial per-chunk call of
    :func:`repro.engine.features.extract_pool_features`: the backbone is
    per-sample independent, so a chunk's pool maps are bit-identical to
    the same rows of a whole-corpus forward pass.

    Like similarity tiles, extraction results ship their memory
    **layout**, not just their values: the conv stack emits pool maps
    channels-last in memory (an ``(N, H, W, C)`` buffer viewed as
    ``(N, C, H, W)``), the downstream unit vectors inherit those
    strides, and BLAS rounds the per-image GEMM differently (~1 ulp)
    for C- vs F-ordered operands.  Channels-last maps therefore travel
    as their natural ``(N, H, W, C)`` contiguous form plus a flag, and
    the coordinator re-views them so the merged corpus carries exactly
    the serial strides.
    """
    model = _backbone(payload["vgg"])
    pools = model.forward_pools(payload["images"])
    out: dict[str, np.ndarray] = {}
    for layer in payload["layers"]:
        pool = pools[layer]
        channels_last = pool.strides[1] <= pool.strides[-1]  # channel axis is minor
        out[f"pool_{layer}"] = np.ascontiguousarray(pool.transpose(0, 2, 3, 1) if channels_last else pool)
        out[f"channels_last_{layer}"] = np.bool_(channels_last)
    return out


def _run_similarity(payload: dict) -> dict[str, np.ndarray]:
    """Exactly the serial ``score_block`` inner loop of
    :func:`repro.engine.tiling.best_similarities`: same per-image
    matmul shapes *and strides* (see :func:`similarity_task`), so the
    result is bit-identical to a serial tile."""
    prototypes, vectors = payload["prototypes"], payload["vectors"]
    if payload.get("transposed"):
        vectors = vectors.transpose(0, 2, 1)  # restore the serial F-order view
    best = np.empty((prototypes.shape[0], vectors.shape[0]), dtype=np.float64)
    for i in range(vectors.shape[0]):
        best[:, i] = (prototypes @ vectors[i]).max(axis=1)
    return {"best": best}


def _run_base_fit(payload: dict) -> dict[str, np.ndarray]:
    result = fit_base_function(
        payload["block"],
        payload["config"],
        int(payload["function_index"]),
        init=payload.get("init"),
    )
    return pack_gmm_result(result)


#: kind -> (executor function, required result keys — static tuple or
#: a function of the task for kinds whose schema depends on the payload)
TASK_KINDS: dict[str, tuple] = {
    "extraction": (
        _run_extraction,
        lambda task: tuple(
            f"{prefix}_{layer}"
            for layer in task.payload["layers"]
            for prefix in ("pool", "channels_last")
        ),
    ),
    "similarity": (_run_similarity, ("best",)),
    "base-fit": (_run_base_fit, _GMM_KEYS),
}


def required_result_keys(task: ShardTask) -> tuple[str, ...]:
    """The result keys a well-formed shard result of ``task`` must hold."""
    _, required = TASK_KINDS[task.kind]
    return tuple(required(task)) if callable(required) else required


def load_shard_result(cache: ArtifactCache, task: ShardTask) -> dict[str, np.ndarray] | None:
    """A cached shard result, or ``None`` (schema drift evicts+misses)."""
    arrays = cache.load_arrays("shard", task.task_id)
    if arrays is None:
        return None
    if any(name not in arrays for name in required_result_keys(task)):
        cache.evict("shard", task.task_id)
        return None
    return arrays


def execute_shard(task: ShardTask, cache: ArtifactCache | None = None) -> dict[str, np.ndarray]:
    """Compute one shard (cache-aware when a shared cache is mounted)."""
    if task.kind not in TASK_KINDS:
        raise ValueError(f"unknown shard kind {task.kind!r}")
    if cache is not None:
        cached = load_shard_result(cache, task)
        if cached is not None:
            return cached
    run, _ = TASK_KINDS[task.kind]
    result = run(task.payload)
    if cache is not None:
        cache.save_arrays("shard", task.task_id, result)
    return result


# ----------------------------------------------------------------------
# Planning (coordinator side)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardPlanner:
    """Cuts stage work into content-addressed shard tasks.

    ``row_tile``/``col_tile`` mirror the engine's serial tile grid over
    (images × prototype rows); sharding at the same boundaries is what
    makes the distributed merge bit-identical to the serial kernel.
    Extraction shards likewise cut the corpus at the serial chunked-batch
    boundaries of :func:`repro.engine.features.iter_batches`.
    """

    row_tile: int | None = 32
    col_tile: int | None = None

    def extraction_shards(
        self,
        vgg_config: VGGConfig,
        images: np.ndarray,
        layers: tuple[int, ...],
        batch_size: int | None,
    ) -> tuple[list[ShardTask], list[str]]:
        """Shard one ``extract_pool_features`` call.

        Returns ``(tasks, order)`` where ``order`` lists one task id per
        corpus chunk *in corpus order* — the merge concatenates chunk
        results along axis 0 in exactly this order, which is what makes
        the assembled pool features bit-identical to the serial chunked
        extraction.  Identical chunks de-duplicate into a single task
        whose id then appears at every slot it fills.
        """
        tasks: list[ShardTask] = []
        order: list[str] = []
        known: set[str] = set()
        for batch in iter_batches(images.shape[0], batch_size):
            task = extraction_task(vgg_config, images[batch], layers)
            if task.task_id not in known:
                known.add(task.task_id)
                tasks.append(task)
            order.append(task.task_id)
        return tasks, order

    def similarity_shards(
        self,
        prototypes: np.ndarray,
        unit_vectors: np.ndarray,
        dtype: np.dtype | type = np.float64,
    ) -> tuple[list[ShardTask], dict[str, list[tuple[Bounds, Bounds]]]]:
        """Shard one ``best_similarities`` call.

        Returns ``(tasks, targets)`` where ``targets[task_id]`` lists
        the ``((i0, i1), (j0, j1))`` output slots the shard's ``best``
        block fills — more than one when identical tiles de-duplicate.
        """
        dtype = np.dtype(dtype)
        # Cast once, then slice — the same bytes the serial kernel sees.
        protos = prototypes.astype(dtype, copy=False)
        vectors = unit_vectors.astype(dtype, copy=False)
        tasks: list[ShardTask] = []
        targets: dict[str, list[tuple[Bounds, Bounds]]] = {}
        for rows in tile_bounds(vectors.shape[0], self.row_tile):
            for cols in tile_bounds(protos.shape[0], self.col_tile):
                (i0, i1), (j0, j1) = rows, cols
                task = similarity_task(protos[j0:j1], vectors[i0:i1])
                if task.task_id not in targets:
                    tasks.append(task)
                targets.setdefault(task.task_id, []).append((rows, cols))
        return tasks, targets

    def base_fit_shards(
        self,
        affinity,
        config: HierarchicalConfig,
        initializers: list[np.ndarray] | None = None,
    ) -> list[ShardTask]:
        """One shard per affinity function (the §5.3 parallel unit)."""
        return [
            base_fit_task(
                affinity.block(f),
                config,
                f,
                init=initializers[f] if initializers is not None else None,
            )
            for f in range(affinity.n_functions)
        ]
