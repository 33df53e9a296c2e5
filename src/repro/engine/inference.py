"""The staged inference engine: parallel base fits, warm starts, caching.

Mirrors the affinity engine on step 2 of the pipeline (the hierarchical
generative model of paper §4.1)::

    affinity ──(1) per-function base GMM fits──> label predictions LP
             ──(2) one-hot + Bernoulli ensemble──> posterior
             ──(3) artifact cache──> fitted parameters + posterior on disk
    extended affinity ──(4) warm start──> EM resumes from the previous fit

Stage 1 is embarrassingly parallel — "we can parallelize all of the
base models using different slices of the affinity matrix" (§5.3).
Every executor runs the one stacked EM kernel
(:func:`~repro.core.inference.hierarchical.fit_base_functions`) and
only schedules slices of the function list: ``executor="thread"`` maps
fixed chunks of functions over a thread pool (the kernel's matmuls are
BLAS-bound and release the GIL); ``executor="process"`` side-steps the
GIL entirely with a ``ProcessPoolExecutor``, handing workers the
affinity matrix through POSIX shared memory so the O(α·N²) values are
never pickled; ``executor="distributed"`` leases one base-fit shard
per affinity function to coordinator/worker cluster processes that may
live on other machines (``repro.distributed``).  A stacked fit over
any slice equals that slice of the full stack, and every mode consumes
the same ``derive_seed`` streams, so posteriors are **bit-identical**
regardless of executor.

Stage 4 is the incremental-inference path: instead of refitting from
scratch, the base GMMs resume from the previous run's posterior (old
rows keep their responsibilities; new rows are initialised by
affinity-weighted propagation of the old posterior) and the ensemble
resumes from its previous parameters — its dimension α·K does not
change when the corpus grows.  Warm-started EM converges in a fraction
of the cold iterations while landing in the same basin; agreement with
a cold refit is checked in the test suite and benchmarks.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.core.affinity import AffinityMatrix, SparseAffinityMatrix, densify_topk_rows
from repro.core.inference.base_gmm import BASE_EM_KERNEL, GMMFitResult
from repro.core.inference.bernoulli import (
    BernoulliFitResult,
    BernoulliParams,
    one_hot_encode_lp,
)
from repro.core.inference.hierarchical import (
    HierarchicalConfig,
    HierarchicalResult,
    complete_hierarchy,
    fit_all_base_functions,
    fit_base_functions,
    function_chunks,
    warn_if_reinitialized,
)
from repro.engine.cache import ArtifactCache, hash_arrays
from repro.obs import span

__all__ = ["EXECUTORS", "InferenceState", "InferenceEngine", "warm_start_responsibilities"]

EXECUTORS = ("serial", "thread", "process", "distributed")


@dataclass(frozen=True)
class InferenceState:
    """Everything a fit leaves behind for warm-starting the next one.

    Attributes:
        label_predictions: ``(N, α·K)`` concatenated soft base-model
            posteriors of the previous fit (the per-function
            responsibilities, which survive corpus growth — unlike the
            GMM means, whose dimension is N).
        ensemble: fitted Bernoulli-mixture parameters (dimension α·K,
            unchanged by corpus growth).
        n_examples: corpus size N of the previous fit.
        n_classes: K.
    """

    label_predictions: np.ndarray
    ensemble: BernoulliParams
    n_examples: int
    n_classes: int

    @property
    def n_functions(self) -> int:
        return int(self.label_predictions.shape[1] // self.n_classes)

    def compatible_with(self, affinity: AffinityMatrix, n_classes: int) -> bool:
        """Whether this state can warm-start a fit on ``affinity``."""
        return (
            self.n_classes == n_classes
            and self.n_functions == affinity.n_functions
            and self.n_examples <= affinity.n_examples
            and self.ensemble.probs.shape == (n_classes, affinity.n_functions * n_classes)
        )


def warm_start_responsibilities(state: InferenceState, affinity: AffinityMatrix) -> list[np.ndarray]:
    """Per-function initial responsibilities for a (possibly grown) corpus.

    Rows present in the previous fit reuse their posterior verbatim.
    New rows are initialised by affinity-weighted propagation: the new
    instance's affinities to the old corpus (shifted from [-1, 1] to
    [0, 1]) average the old responsibilities — instances similar to a
    cluster start in that cluster.  This is the "new rows initialized
    from posterior responsibilities" seed that EM then refines.
    """
    n_prev, k = state.n_examples, state.n_classes
    n = affinity.n_examples
    inits: list[np.ndarray] = []
    for f in range(affinity.n_functions):
        old = state.label_predictions[:, f * k : (f + 1) * k]
        if n == n_prev:
            inits.append(old)
            continue
        weights = (affinity.block(f)[n_prev:, :n_prev] + 1.0) / 2.0  # (M, N_prev), >= 0
        new = weights @ old
        norm = new.sum(axis=1, keepdims=True)
        new = np.where(norm > 1e-12, new / np.maximum(norm, 1e-12), 1.0 / k)
        inits.append(np.concatenate([old, new], axis=0))
    return inits


def _fit_chunk_from_shm(
    shm_name: str,
    shape: tuple[int, int],
    dtype: str,
    functions: range,
    config: HierarchicalConfig,
    inits: list[np.ndarray] | None,
) -> tuple[GMMFitResult, ...]:
    """Process-pool worker: attach the shared affinity values, fit one chunk.

    Module-level (picklable) by construction; the worker copies its
    functions' N×N blocks out of shared memory so the fit never holds
    the segment alive past this call.
    """
    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        values = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
        n = shape[0]
        blocks = [np.array(values[:, f * n : (f + 1) * n], copy=True) for f in functions]
    finally:
        shm.close()
    return fit_base_functions(blocks, config, functions, inits)


def _fit_chunk_from_csr(
    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    n_examples: int,
    functions: range,
    config: HierarchicalConfig,
    inits: list[np.ndarray] | None,
) -> tuple[GMMFitResult, ...]:
    """Process-pool worker for the sparse path: densify a chunk's CSR blocks, fit.

    Sparse blocks travel as their O(N·k) CSR arrays instead of a shared
    O(α·N²) dense segment — pickling N·k floats per function is already
    sublinear in the dense footprint, which is the point of the sparse
    path; densification happens worker-side with the shared scatter
    kernel, so the fitted blocks are bitwise the ones serial mode sees.
    """
    dense = [densify_topk_rows(data, indices, fill, n_examples) for data, indices, fill in blocks]
    return fit_base_functions(dense, config, functions, inits)


def _chunk_inits(inits: list[np.ndarray] | None, chunk: range) -> list[np.ndarray] | None:
    return [inits[f] for f in chunk] if inits is not None else None


class InferenceEngine:
    """Fits the hierarchical model with staged, cache-aware execution.

    Parameters:
        config: hierarchical-model hyper-parameters (the engine derives
            the exact same seed streams as
            :class:`~repro.core.inference.hierarchical.HierarchicalModel`,
            so results match the monolithic path bit-for-bit).
        executor: ``"serial"``, ``"thread"`` (GIL-releasing EM inner
            loops fan out over a thread pool), ``"process"``
            (ProcessPoolExecutor + shared-memory affinity blocks) or
            ``"distributed"`` (base-fit shards leased to
            coordinator/worker cluster processes, possibly on other
            machines).  Value-neutral: identical posteriors in every
            mode.
        n_jobs: worker count for the thread/process executors (and the
            local worker count a self-created distributed session
            defaults to).
        cache: optional artifact cache; fitted parameters and the
            posterior are persisted next to the corpus state, so a
            fresh process can restore the warm-start state from disk.
        coordinator: distributed session to run base-fit shards on
            (shared with the affinity engine when driven by
            ``Goggles``).  When ``None`` and ``executor="distributed"``
            a session is created lazily from ``broker``/``n_workers``.
        broker / n_workers: the distributed knobs a self-created
            session uses — broker address to bind and local workers to
            spawn (see :meth:`repro.distributed.Coordinator.for_engine`).
    """

    def __init__(
        self,
        config: HierarchicalConfig | None = None,
        *,
        executor: str = "thread",
        n_jobs: int = 1,
        cache: ArtifactCache | None = None,
        coordinator: "object | None" = None,
        broker: str | None = None,
        n_workers: int = 0,
    ):
        self.config = config or HierarchicalConfig()
        if self.config.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.config.n_classes}")
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        if n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
        if n_workers < 0:
            raise ValueError(f"n_workers must be >= 0, got {n_workers}")
        self.executor = executor
        self.n_jobs = n_jobs
        self.cache = cache
        self.broker = broker
        self.n_workers = n_workers
        # Duck-typed warm-pool unwrap: a WorkerPool exposes the shared
        # persistent Coordinator through as_coordinator().
        unwrap = getattr(coordinator, "as_coordinator", None)
        self._coordinator = unwrap() if callable(unwrap) else coordinator
        self._owns_coordinator = False
        self._state: InferenceState | None = None

    # ------------------------------------------------------------------
    # Distributed session plumbing
    # ------------------------------------------------------------------
    def _get_coordinator(self):
        """The distributed session (lazily self-created when not injected)."""
        if self._coordinator is None:
            from repro.distributed import Coordinator

            self._coordinator = Coordinator.for_engine(
                broker=self.broker,
                n_workers=self.n_workers,
                n_jobs=self.n_jobs,
                cache=self.cache,
            )
            self._owns_coordinator = True
        return self._coordinator

    def close(self) -> None:
        """Shut down a self-created distributed session (no-op otherwise)."""
        if self._owns_coordinator and self._coordinator is not None:
            self._coordinator.close()
            self._coordinator = None
            self._owns_coordinator = False

    # ------------------------------------------------------------------
    # State & keys
    # ------------------------------------------------------------------
    @property
    def state(self) -> InferenceState | None:
        """The warm-start state of the last fit (or cache restore), if any."""
        return self._state

    def _params(self, warm: InferenceState | None) -> dict[str, object]:
        # Every value-affecting input: the full hyper-parameter set and,
        # for warm starts, the content of the initialisation (a warm fit
        # may settle in a slightly different optimum than a cold one, so
        # the two must never share a key) and the base-EM kernel tag.
        # The executor is deliberately excluded: it cannot change values.
        params: dict[str, object] = {"stage": "inference", "base_em": BASE_EM_KERNEL, **asdict(self.config)}
        if warm is not None:
            params["warm"] = hash_arrays(warm.label_predictions, warm.ensemble.weights, warm.ensemble.probs)
        return params

    def _key(
        self, affinity: AffinityMatrix | SparseAffinityMatrix, warm: InferenceState | None
    ) -> str | None:
        if self.cache is None:
            return None
        # Duck-typed content address: a SparseAffinityMatrix hashes its
        # CSR arrays (cheap, O(α·N·k)); a dense matrix hashes values.
        content = getattr(affinity, "content_hash", None)
        data_hash = content() if callable(content) else hash_arrays(affinity.values)
        return self.cache.key(data_hash, self._params(warm))

    # ------------------------------------------------------------------
    # Stage 1: base-model fits (serial | thread | process)
    # ------------------------------------------------------------------
    def _fit_base_models(
        self, affinity: AffinityMatrix | SparseAffinityMatrix, inits: list[np.ndarray] | None
    ) -> tuple[np.ndarray, tuple[GMMFitResult, ...]]:
        """Stage 1 with executor dispatch; returns (LP, per-function fits).

        Serial/thread delegate to the shared
        :func:`~repro.core.inference.hierarchical.fit_all_base_functions`;
        only the process and distributed branches live here.  Every
        branch consumes the affinity through ``block(f)`` only, so a
        sparse matrix flows through serial/thread/distributed unchanged;
        the process branch ships CSR arrays instead of a dense
        shared-memory segment when the matrix is sparse.
        """
        if self.executor == "distributed":
            results = self._get_coordinator().fit_base_models(affinity, self.config, inits)
            warn_if_reinitialized(results)
            label_predictions = np.concatenate([r.responsibilities for r in results], axis=1)
            return label_predictions, results
        if self.executor == "process" and self.n_jobs > 1 and affinity.n_functions > 1:
            if isinstance(affinity, SparseAffinityMatrix):
                results = self._fit_base_models_process_sparse(affinity, inits)
            else:
                results = self._fit_base_models_process(affinity, inits)
            warn_if_reinitialized(results)
            label_predictions = np.concatenate([r.responsibilities for r in results], axis=1)
            return label_predictions, results
        n_jobs = 1 if self.executor == "serial" else self.n_jobs
        return fit_all_base_functions(affinity, self.config, n_jobs=n_jobs, initializers=inits)

    def _fit_base_models_process(
        self, affinity: AffinityMatrix, inits: list[np.ndarray] | None
    ) -> tuple[GMMFitResult, ...]:
        """Fan the base-fit chunks out over processes, affinity via shared memory.

        Only the (small) warm-start responsibilities and fit results
        cross the process boundary by pickling; the O(α·N²) affinity
        values are written once into a POSIX shared-memory segment that
        every worker maps read-only.
        """
        values = np.ascontiguousarray(affinity.values)
        chunks = function_chunks(affinity.n_functions)
        shm = shared_memory.SharedMemory(create=True, size=values.nbytes)
        try:
            staging = np.ndarray(values.shape, dtype=values.dtype, buffer=shm.buf)
            staging[:] = values
            with ProcessPoolExecutor(max_workers=min(self.n_jobs, len(chunks))) as pool:
                futures = [
                    pool.submit(
                        _fit_chunk_from_shm,
                        shm.name,
                        values.shape,
                        str(values.dtype),
                        chunk,
                        self.config,
                        _chunk_inits(inits, chunk),
                    )
                    for chunk in chunks
                ]
                return tuple(result for future in futures for result in future.result())
        finally:
            shm.close()
            shm.unlink()

    def _fit_base_models_process_sparse(
        self, affinity: SparseAffinityMatrix, inits: list[np.ndarray] | None
    ) -> tuple[GMMFitResult, ...]:
        """Process fan-out over sparse blocks: per-chunk CSR pickling.

        No shared-memory staging — each submission carries only its
        chunk's (N, k) CSR arrays, sublinear in the dense footprint.
        """
        chunks = function_chunks(affinity.n_functions)
        with ProcessPoolExecutor(max_workers=min(self.n_jobs, len(chunks))) as pool:
            futures = [
                pool.submit(
                    _fit_chunk_from_csr,
                    [affinity.csr_block(f) for f in chunk],
                    affinity.n_examples,
                    chunk,
                    self.config,
                    _chunk_inits(inits, chunk),
                )
                for chunk in chunks
            ]
            return tuple(result for future in futures for result in future.result())

    # ------------------------------------------------------------------
    # Full fit
    # ------------------------------------------------------------------
    def fit(
        self,
        affinity: AffinityMatrix | SparseAffinityMatrix,
        warm_start: InferenceState | None = None,
    ) -> HierarchicalResult:
        """Run the staged hierarchy: base fits → one-hot → ensemble.

        ``warm_start`` resumes EM from a previous fit's state (silently
        ignored when incompatible — different K, α, or a shrunk corpus).
        Cache-aware: an identical (affinity, config, warm-start) triple
        is a disk load that also restores the warm-start state.
        """
        with span("inference.fit"):
            return self._fit(affinity, warm_start)

    def _fit(
        self,
        affinity: AffinityMatrix | SparseAffinityMatrix,
        warm_start: InferenceState | None,
    ) -> HierarchicalResult:
        cfg = self.config
        if warm_start is not None and not warm_start.compatible_with(affinity, cfg.n_classes):
            warm_start = None
        key = self._key(affinity, warm_start)
        if key is not None:
            cached = self._load_cached(key, affinity)
            if cached is not None:
                return cached

        inits = warm_start_responsibilities(warm_start, affinity) if warm_start else None
        label_predictions, base_results = self._fit_base_models(affinity, inits)
        result = complete_hierarchy(
            label_predictions,
            base_results,
            cfg,
            ensemble_init=warm_start.ensemble if warm_start else None,
        )
        assert result.ensemble_result.params is not None
        self._state = InferenceState(
            label_predictions=label_predictions,
            ensemble=result.ensemble_result.params,
            n_examples=affinity.n_examples,
            n_classes=cfg.n_classes,
        )
        if key is not None:
            self._save_cached(key, result)
        return result

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    _SCHEMA = (
        "posterior",
        "label_predictions",
        "ens_weights",
        "ens_probs",
        "base_ll",
        "base_iters",
        "base_converged",
        "base_reinit",
        "base_degenerate",
        "ens_ll",
        "ens_iters",
        "ens_converged",
        "n_classes",
    )

    def _save_cached(self, key: str, result: HierarchicalResult) -> None:
        assert self.cache is not None
        base = result.base_results
        arrays = {
            "posterior": result.posterior,
            "label_predictions": result.label_predictions,
            "ens_weights": result.ensemble_result.params.weights,
            "ens_probs": result.ensemble_result.params.probs,
            "base_ll": np.array([r.log_likelihood for r in base]),
            "base_iters": np.array([r.n_iterations for r in base], dtype=np.int64),
            "base_converged": np.array([r.converged for r in base], dtype=bool),
            "base_reinit": np.array([r.reinitialized for r in base], dtype=bool),
            "base_degenerate": np.array([r.degenerate for r in base], dtype=bool),
            "ens_ll": np.float64(result.ensemble_result.log_likelihood),
            "ens_iters": np.int64(result.ensemble_result.n_iterations),
            "ens_converged": np.bool_(result.ensemble_result.converged),
            "n_classes": np.int64(self.config.n_classes),
        }
        self.cache.save_arrays("inference", key, arrays)

    def _load_cached(self, key: str, affinity: AffinityMatrix) -> HierarchicalResult | None:
        assert self.cache is not None
        stored = self.cache.load_arrays("inference", key)
        if stored is None:
            return None
        if any(name not in stored for name in self._SCHEMA):
            # Readable zip, wrong schema (drift or a foreign file in a
            # shared cache dir): evict and refit rather than crash.
            self.cache.evict("inference", key)
            return None
        k = int(stored["n_classes"])
        label_predictions = stored["label_predictions"]
        if k != self.config.n_classes or label_predictions.shape != (
            affinity.n_examples,
            affinity.n_functions * k,
        ):
            self.cache.evict("inference", key)
            return None
        base_results = tuple(
            GMMFitResult(
                responsibilities=label_predictions[:, f * k : (f + 1) * k],
                log_likelihood=float(stored["base_ll"][f]),
                n_iterations=int(stored["base_iters"][f]),
                converged=bool(stored["base_converged"][f]),
                degenerate=bool(stored["base_degenerate"][f]),
                reinitialized=bool(stored["base_reinit"][f]),
            )
            for f in range(affinity.n_functions)
        )
        # A cached replay keeps its diagnostics: collapsed base fits
        # warn exactly as the original fit did.
        warn_if_reinitialized(base_results)
        ensemble_params = BernoulliParams(weights=stored["ens_weights"], probs=stored["ens_probs"])
        ensemble_result = BernoulliFitResult(
            responsibilities=stored["posterior"],
            log_likelihood=float(stored["ens_ll"]),
            n_iterations=int(stored["ens_iters"]),
            converged=bool(stored["ens_converged"]),
            params=ensemble_params,
        )
        self._state = InferenceState(
            label_predictions=label_predictions,
            ensemble=ensemble_params,
            n_examples=affinity.n_examples,
            n_classes=k,
        )
        return HierarchicalResult(
            posterior=stored["posterior"],
            label_predictions=label_predictions,
            one_hot=one_hot_encode_lp(label_predictions, k),
            base_results=base_results,
            ensemble_result=ensemble_result,
        )
