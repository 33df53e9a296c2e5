"""Diagonal-covariance Gaussian mixture base models (paper §4.1–4.2).

Each base model fits one affinity function's block ``A_f ∈ R^{N×N}``
with a K-component GMM whose covariances are **diagonal** — the key
simplification that reduces parameters from O(N²) to O(N) per class
("Instead of using the full covariance matrix Σ_k ... we use the
diagonal covariance matrix", §4.1).  EM updates follow Eq. 8/10.

The α base fits are independent, so all EM work runs in one *stacked*
kernel that fits F functions at once from ``[X, X²]`` of shape
``(F, N, 2D)`` (:func:`stack_blocks`, built once per fit):

* E-step (:func:`e_step`) — ``log N(x | μ, Σ)`` expands to
  ``-½(x²/Σ - 2xμ/Σ + μ²/Σ + log Σ + log 2π)`` summed over D, i.e. one
  batched matmul of ``[X, X²]`` against ``[-2μ/Σ, 1/Σ]`` plus a
  per-(f, k) constant;
* M-step (:func:`m_step`) — one batched matmul ``Rᵀ[X, X²]`` yields the
  sufficient statistics ``(nk, Σγx, Σγx²)``; :func:`diagonal_params`
  turns them into parameters (the same function
  ``repro.online.stats.GMMStats.params`` calls);
* functions that converge drop out of the active stack
  (:func:`fit_stacked`).

Every per-function number comes only from that function's own rows —
the batched matmul is one GEMM per function and every reduction runs
along that function's own axes — so a stacked fit over any function
slice equals the same slice of the full stack.  :class:`DiagonalGMM`
is the F = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.utils.numeric import logsumexp
from repro.utils.rng import spawn_rng
from repro.utils.validation import check_array

__all__ = [
    "BASE_EM_KERNEL",
    "DiagonalGMM",
    "GMMFitResult",
    "GMMParams",
    "diagonal_params",
    "e_step",
    "fit_stacked",
    "kmeans_plusplus_init",
    "m_step",
    "stack_blocks",
    "sufficient_statistics",
]

#: Version tag of the base-GMM EM kernel.  Folded into the inference
#: cache key: a kernel change moves posteriors in the last bits.
BASE_EM_KERNEL = "stacked-suffstats/1"

_LOG_2PI = np.log(2.0 * np.pi)
# Responsibility mass below which a component counts as empty.
_EMPTY_MASS = 1e-10


@dataclass(frozen=True)
class GMMParams:
    """The fitted parameters of a diagonal GMM (a warm-start seed).

    Inside the stacked kernel every array carries a leading function
    axis F.

    Attributes:
        weights: ``(K,)`` mixing weights π.
        means: ``(K, D)`` component means μ.
        variances: ``(K, D)`` diagonal covariances Σ.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray


@dataclass(frozen=True)
class GMMFitResult:
    """Outcome of one EM run.

    Attributes:
        responsibilities: ``(N, K)`` posterior P(y_i = k | s_i) (Eq. 8).
        log_likelihood: final data log-likelihood (Eq. 5).
        n_iterations: EM iterations executed.
        converged: whether the tolerance was reached before max_iter.
        params: the fitted parameters (warm-start seed for a later fit).
        degenerate: every instance's posterior argmax landed in a single
            component — the fit collapsed and carries no class signal.
        reinitialized: the fit collapsed once and was retried from a
            derived seed (see ``fit_base_functions``).
    """

    responsibilities: np.ndarray
    log_likelihood: float
    n_iterations: int
    converged: bool
    params: GMMParams | None = None
    degenerate: bool = False
    reinitialized: bool = False


def kmeans_plusplus_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: returns ``(K, D)`` initial means."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centers[0] = x[first]
    closest_sq = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest_sq.sum()
        if total <= 1e-12:
            centers[j] = x[int(rng.integers(n))]
            continue
        probs = closest_sq / total
        choice = int(rng.choice(n, p=probs))
        centers[j] = x[choice]
        closest_sq = np.minimum(closest_sq, ((x - centers[j]) ** 2).sum(axis=1))
    return centers


# ----------------------------------------------------------------------
# The stacked kernel
# ----------------------------------------------------------------------
def stack_blocks(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """``[X, X²]`` for F equally shaped ``(N, D)`` blocks: ``(F, N, 2D)`` float64."""
    n, d = np.shape(blocks[0])
    xx = np.empty((len(blocks), n, 2 * d))
    for f, block in enumerate(blocks):
        block = check_array(np.asarray(block), name="x", ndim=2)
        if block.shape != (n, d):
            raise ValueError(f"block {f} shaped {block.shape}, expected ({n}, {d})")
        xx[f, :, :d] = block
        np.square(xx[f, :, :d], out=xx[f, :, d:])
    return xx


def e_step(
    xx: np.ndarray, weights: np.ndarray, means: np.ndarray, variances: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked E-step: responsibilities ``(F, K, N)`` and log-likelihoods ``(F,)``.

    ``weights`` is ``(F, K)``; ``means``/``variances`` are ``(F, K, D)``.
    Responsibilities are component-major so the reductions over K run
    across contiguous rows of length N.
    """
    d = means.shape[-1]
    precision = 1.0 / variances
    coef = np.empty(means.shape[:-1] + (2 * d,))  # (F, K, 2D): [-2μ/Σ, 1/Σ]
    np.multiply(means, -2.0 * precision, out=coef[..., :d])
    coef[..., d:] = precision
    const = d * _LOG_2PI + np.log(variances).sum(axis=-1) + (np.square(means) * precision).sum(axis=-1)
    log_joint = coef @ xx.transpose(0, 2, 1)  # (F, K, N)
    log_joint += const[..., None]
    log_joint *= -0.5
    log_joint += np.log(np.maximum(weights, 1e-300))[..., None]
    log_norm = logsumexp(log_joint, axis=1, keepdims=True)
    log_joint -= log_norm
    return np.exp(log_joint, out=log_joint), log_norm[:, 0].sum(axis=-1)


def sufficient_statistics(
    xx: np.ndarray, responsibilities: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``nk`` ``(F, K)``, ``Σγx`` and ``Σγx²`` ``(F, K, D)`` from one batched
    ``Rᵀ[X, X²]`` (responsibilities ``(F, K, N)``)."""
    d = xx.shape[-1] // 2
    moments = responsibilities @ xx
    return responsibilities.sum(axis=-1), moments[..., :d], moments[..., d:]


def diagonal_params(nk: np.ndarray, sx: np.ndarray, sxx: np.ndarray, variance_floor: float) -> GMMParams:
    """The M-step from sufficient statistics, over any leading axes.

    ``μ = Σγx / nk`` and ``Σ = max(Σγx²/nk − μ², floor)``, ``π ∝ nk``.
    Scale-invariant, so raw sums and per-row-normalised statistics
    (``repro.online.stats.GMMStats``) give the same parameters.
    """
    mass = np.maximum(nk, _EMPTY_MASS)
    means = sx / mass[..., None]
    variances = np.maximum(sxx / mass[..., None] - np.square(means), variance_floor)
    return GMMParams(weights=mass / mass.sum(axis=-1, keepdims=True), means=means, variances=variances)


def m_step(
    xx: np.ndarray,
    responsibilities: np.ndarray,
    rngs: Sequence[np.random.Generator],
    variance_floor: float,
) -> GMMParams:
    """Stacked M-step from ``(F, K, N)`` responsibilities; returns
    ``(F, ...)``-stacked parameters.

    A component left without mass is re-seeded at a random row of its
    function's block (drawn from that function's own stream ``rngs[f]``)
    with the block's global variance.
    """
    nk, sx, sxx = sufficient_statistics(xx, responsibilities)
    params = diagonal_params(nk, sx, sxx, variance_floor)
    n, d = xx.shape[1], xx.shape[2] // 2
    empty = nk < _EMPTY_MASS
    for f in np.flatnonzero(empty.any(axis=1)):
        x = xx[f, :, :d]
        params.means[f, empty[f]] = x[rngs[f].integers(n, size=int(empty[f].sum()))]
        params.variances[f, empty[f]] = np.maximum(x.var(axis=0), variance_floor)
        params.weights[f, empty[f]] = 1.0 / n
        params.weights[f] /= params.weights[f].sum()
    return params


def _initial_params(
    xx: np.ndarray,
    inits: Sequence[GMMParams | np.ndarray | None],
    rngs: Sequence[np.random.Generator],
    k: int,
    variance_floor: float,
) -> GMMParams:
    """Starting parameters for each function of the stack.

    ``inits[f]`` may be ``None`` (k-means++ initialisation, the cold
    path), a :class:`GMMParams` (resume EM from those parameters — only
    valid while the feature dimension is unchanged), or an ``(N, K)``
    responsibility matrix (one M-step from the given posterior — the
    portable warm start, since responsibilities survive a change of
    feature dimension while means do not).
    """
    n_functions, n, d = xx.shape[0], xx.shape[1], xx.shape[2] // 2
    weights = np.full((n_functions, k), 1.0 / k)
    means = np.empty((n_functions, k, d))
    variances = np.empty((n_functions, k, d))
    seeded: list[int] = []
    posteriors: list[np.ndarray] = []
    for f, init in enumerate(inits):
        x = xx[f, :, :d]
        if init is None:
            means[f] = kmeans_plusplus_init(x, k, rngs[f])
            variances[f] = np.maximum(x.var(axis=0), variance_floor)
        elif isinstance(init, GMMParams):
            if init.means.shape != (k, d) or init.variances.shape != (k, d) or init.weights.shape != (k,):
                raise ValueError(
                    f"init params shaped {init.weights.shape}/{init.means.shape}/"
                    f"{init.variances.shape} do not match (K={k}, D={d})"
                )
            weights[f] = init.weights / np.sum(init.weights)
            means[f] = init.means
            variances[f] = np.maximum(init.variances, variance_floor)
        else:
            posterior = check_array(np.asarray(init, dtype=np.float64), name="init responsibilities", ndim=2)
            if posterior.shape != (n, k):
                raise ValueError(f"init responsibilities shaped {posterior.shape}, expected ({n}, {k})")
            seeded.append(f)
            posteriors.append(posterior)
    params = GMMParams(weights=weights, means=means, variances=variances)
    if seeded:
        stacked = np.stack(posteriors).transpose(0, 2, 1)  # (F, K, N)
        _store(params, seeded, m_step(xx[seeded], stacked, [rngs[f] for f in seeded], variance_floor))
    return params


def _store(params: GMMParams, rows: Sequence[int] | np.ndarray, values: GMMParams) -> None:
    """Write ``values`` into rows ``rows`` of the stacked ``params``."""
    params.weights[rows], params.means[rows], params.variances[rows] = (
        values.weights,
        values.means,
        values.variances,
    )


def fit_stacked(
    xx: np.ndarray,
    inits: Sequence[GMMParams | np.ndarray | None],
    rngs: Sequence[np.random.Generator],
    *,
    n_components: int,
    max_iter: int,
    tol: float,
    variance_floor: float,
) -> list[GMMFitResult]:
    """Run EM for every function of the ``[X, X²]`` stack at once.

    Result f depends only on ``xx[f]``, ``inits[f]`` and ``rngs[f]``.
    Each iteration is one stacked E-step and one stacked M-step over
    the functions still running; a function whose log-likelihood gain
    drops below ``tol`` leaves the active stack.
    """
    n_functions, n = xx.shape[:2]
    if n < n_components:
        raise ValueError(f"need at least {n_components} examples, got {n}")
    params = _initial_params(xx, inits, rngs, n_components, variance_floor)

    previous = np.full(n_functions, -np.inf)
    iterations = np.zeros(n_functions, dtype=np.int64)
    converged = np.zeros(n_functions, dtype=bool)
    # The running stack: functions still iterating, their [X, X²] rows,
    # streams and current parameters (written back when they leave).
    active, stack, streams = np.arange(n_functions), xx, list(rngs)
    current = params
    for iteration in range(1, max_iter + 1):
        responsibilities, log_likelihood = e_step(stack, current.weights, current.means, current.variances)
        current = m_step(stack, responsibilities, streams, variance_floor)
        iterations[active] = iteration
        done = log_likelihood - previous[active] < tol if iteration > 1 else np.zeros(active.size, bool)
        previous[active] = log_likelihood
        if done.any():
            converged[active[done]] = True
            _store(params, active, current)
            keep = ~done
            active, stack = active[keep], xx[active[keep]]
            streams = [stream for stream, kept in zip(streams, keep) if kept]
            current = GMMParams(current.weights[keep], current.means[keep], current.variances[keep])
            if active.size == 0:
                break
    _store(params, active, current)

    # Final E-step so responsibilities match the last parameters.
    responsibilities, log_likelihood = e_step(xx, params.weights, params.means, params.variances)
    hard = responsibilities.argmax(axis=1)
    degenerate = (hard == hard[:, :1]).all(axis=1) & (n_components > 1)
    return [
        GMMFitResult(
            responsibilities=np.ascontiguousarray(responsibilities[f].T),
            log_likelihood=float(log_likelihood[f]),
            n_iterations=int(iterations[f]),
            converged=bool(converged[f]),
            params=GMMParams(weights=params.weights[f], means=params.means[f], variances=params.variances[f]),
            degenerate=bool(degenerate[f]),
        )
        for f in range(n_functions)
    ]


class DiagonalGMM:
    """K-component Gaussian mixture with diagonal covariances.

    The F = 1 case of the stacked kernel.

    Parameters:
        n_components: K, the number of classes/clusters.
        max_iter: EM iteration cap.
        tol: convergence threshold on the log-likelihood increase.
        variance_floor: lower bound applied to every variance, guarding
            against singular components on (near-)duplicated columns.
        seed: RNG seed for the k-means++ initialisation.
    """

    def __init__(
        self,
        n_components: int,
        max_iter: int = 100,
        tol: float = 1e-6,
        variance_floor: float = 1e-6,
        seed: int | np.random.Generator = 0,
    ):
        if n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {n_components}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        self.n_components = n_components
        self.max_iter = max_iter
        self.tol = tol
        self.variance_floor = variance_floor
        self.seed = seed
        self.weights_: np.ndarray | None = None
        self.means_: np.ndarray | None = None
        self.variances_: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _e_step(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """One E-step under the current parameters: ``(N, K)`` posterior, log-likelihood."""
        assert self.means_ is not None and self.variances_ is not None and self.weights_ is not None
        responsibilities, log_likelihood = e_step(
            stack_blocks([x]), self.weights_[None], self.means_[None], self.variances_[None]
        )
        return np.ascontiguousarray(responsibilities[0].T), float(log_likelihood[0])

    def _m_step(self, x: np.ndarray, responsibilities: np.ndarray, rng: np.random.Generator) -> None:
        """One M-step from ``(N, K)`` responsibilities (updates the parameters)."""
        params = m_step(stack_blocks([x]), responsibilities.T[None], [rng], self.variance_floor)
        self.weights_, self.means_, self.variances_ = params.weights[0], params.means[0], params.variances[0]

    # ------------------------------------------------------------------
    def fit(self, x: np.ndarray, init: GMMParams | np.ndarray | None = None) -> GMMFitResult:
        """Run EM on ``x`` of shape ``(N, D)`` and return the fit result.

        ``init`` warm-starts EM (see :func:`_initial_params`); warm-started
        runs typically converge in a fraction of the cold iterations.
        """
        (result,) = fit_stacked(
            stack_blocks([x]),
            [init],
            [spawn_rng(self.seed, "diag-gmm")],
            n_components=self.n_components,
            max_iter=self.max_iter,
            tol=self.tol,
            variance_floor=self.variance_floor,
        )
        assert result.params is not None
        self.weights_ = result.params.weights.copy()
        self.means_ = result.params.means.copy()
        self.variances_ = result.params.variances.copy()
        return result

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Posterior P(y = k | x) for new rows under the fitted model."""
        if self.means_ is None:
            raise RuntimeError("DiagonalGMM must be fitted before predict_proba")
        return self._e_step(x)[0]
