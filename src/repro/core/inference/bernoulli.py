"""Multivariate-Bernoulli mixture ensemble model (paper §4.1–4.2).

The ensemble consumes the concatenated, **one-hot encoded** label
prediction matrix ``LP ∈ {0,1}^{N × αK}`` and models each class k with
an αK-dimensional multivariate Bernoulli (Eq. 7), learned by EM
(Eq. 11).  Modelling binary votes with Bernoullis instead of Gaussians
avoids the singularity problem of near-discrete data (§4.1) and lets
the ensemble learn *per-function accuracies*, which is how GOGGLES
separates good affinity functions from noisy ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.numeric import logsumexp
from repro.utils.rng import spawn_rng
from repro.utils.validation import check_array

__all__ = ["BernoulliMixture", "BernoulliFitResult", "BernoulliParams", "one_hot_encode_lp"]


@dataclass(frozen=True)
class BernoulliParams:
    """The fitted parameters of a Bernoulli mixture (a warm-start seed).

    Attributes:
        weights: ``(K,)`` mixing weights π.
        probs: ``(K, D)`` per-class Bernoulli parameters b (Eq. 7).
    """

    weights: np.ndarray
    probs: np.ndarray


@dataclass(frozen=True)
class BernoulliFitResult:
    """Outcome of one EM run (best of ``n_init`` restarts).

    Attributes:
        responsibilities: ``(N, K)`` posterior P(y_i = k | s'_i).
        log_likelihood: final data log-likelihood.
        n_iterations: EM iterations of the winning restart.
        converged: whether the winning restart reached tolerance.
        params: the fitted parameters (warm-start seed for a later fit).
    """

    responsibilities: np.ndarray
    log_likelihood: float
    n_iterations: int
    converged: bool
    params: BernoulliParams | None = None


def one_hot_encode_lp(label_predictions: np.ndarray, n_classes: int) -> np.ndarray:
    """One-hot encode the concatenated label-prediction matrix.

    ``label_predictions`` has shape ``(N, α·K)`` holding α blocks of
    per-class probabilities.  Per instance and per block, the highest
    class probability becomes 1 and the rest 0 ("we convert LP to a
    one-hot encoded matrix", §4.1).  Ties resolve to the lowest class
    index (argmax semantics), deterministically.
    """
    lp = check_array(np.asarray(label_predictions, dtype=np.float64), name="label_predictions", ndim=2)
    n, width = lp.shape
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    if width % n_classes != 0:
        raise ValueError(f"LP width {width} is not a multiple of K={n_classes}")
    alpha = width // n_classes
    blocks = lp.reshape(n, alpha, n_classes)
    winners = blocks.argmax(axis=2)
    one_hot = np.zeros_like(blocks)
    rows, funcs = np.meshgrid(np.arange(n), np.arange(alpha), indexing="ij")
    one_hot[rows, funcs, winners] = 1.0
    return one_hot.reshape(n, width)


class BernoulliMixture:
    """K-component mixture of multivariate Bernoullis with EM.

    Parameters:
        n_components: K classes.
        max_iter: EM iteration cap per restart.
        tol: log-likelihood convergence threshold.
        n_init: random restarts; the best final likelihood wins (EM on
            Bernoulli mixtures is sensitive to initialisation).
        param_floor: clamp for the Bernoulli parameters, keeping all
            log terms finite (b ∈ [floor, 1-floor]).
        seed: RNG seed for responsibility initialisation.
    """

    def __init__(
        self,
        n_components: int,
        max_iter: int = 200,
        tol: float = 1e-7,
        n_init: int = 4,
        param_floor: float = 1e-3,
        seed: int | np.random.Generator = 0,
    ):
        if n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {n_components}")
        if n_init < 1:
            raise ValueError(f"n_init must be >= 1, got {n_init}")
        if not 0 < param_floor < 0.5:
            raise ValueError(f"param_floor must be in (0, 0.5), got {param_floor}")
        self.n_components = n_components
        self.max_iter = max_iter
        self.tol = tol
        self.n_init = n_init
        self.param_floor = param_floor
        self.seed = seed
        self.weights_: np.ndarray | None = None
        self.probs_: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _log_prob(self, x: np.ndarray, weights: np.ndarray, probs: np.ndarray) -> np.ndarray:
        """log π_k + Σ_l [ x_l log b_kl + (1-x_l) log(1-b_kl) ] (Eq. 7)."""
        log_b = np.log(probs)
        log_1mb = np.log1p(-probs)
        # (N, D) @ (D, K) for both terms.
        log_lik = x @ log_b.T + (1.0 - x) @ log_1mb.T
        return log_lik + np.log(np.maximum(weights, 1e-300))

    def _run_em(
        self, x: np.ndarray, responsibilities: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float, int, bool, np.ndarray]:
        n, d = x.shape
        weights = np.full(self.n_components, 1.0 / self.n_components)
        probs = np.full((self.n_components, d), 0.5)
        previous_ll = -np.inf
        converged = False
        iteration = 0
        for iteration in range(1, self.max_iter + 1):
            # M-step from current responsibilities (Eq. 11).
            nk = np.maximum(responsibilities.sum(axis=0), 1e-10)
            weights = nk / n
            probs = (responsibilities.T @ x) / nk[:, None]
            probs = np.clip(probs, self.param_floor, 1.0 - self.param_floor)
            # E-step.
            log_joint = self._log_prob(x, weights, probs)
            log_norm = logsumexp(log_joint, axis=1, keepdims=True)
            responsibilities = np.exp(log_joint - log_norm)
            log_likelihood = float(log_norm.sum())
            if log_likelihood - previous_ll < self.tol and iteration > 1:
                converged = True
                previous_ll = log_likelihood
                break
            previous_ll = log_likelihood
        return weights, probs, previous_ll, iteration, converged, responsibilities

    def fit(self, x: np.ndarray, init: BernoulliParams | None = None) -> BernoulliFitResult:
        """Fit by EM on binary data ``(N, D)``; keeps the best restart.

        With ``init`` given, a single EM run resumes from those
        parameters (one E-step recovers the responsibilities) instead of
        running ``n_init`` random restarts — the warm-start path for
        incremental inference, where the previous fit is already near
        the optimum.
        """
        x = check_array(np.asarray(x, dtype=np.float64), name="x", ndim=2)
        if not np.isin(x, (0.0, 1.0)).all():
            raise ValueError("BernoulliMixture expects one-hot/binary inputs (see one_hot_encode_lp)")
        n, d = x.shape
        best: tuple | None = None
        if init is not None:
            if init.probs.shape != (self.n_components, d) or init.weights.shape != (self.n_components,):
                raise ValueError(
                    f"init params shaped {init.weights.shape}/{init.probs.shape} "
                    f"do not match (K={self.n_components}, D={d})"
                )
            probs = np.clip(
                np.asarray(init.probs, dtype=np.float64), self.param_floor, 1.0 - self.param_floor
            )
            weights = np.asarray(init.weights, dtype=np.float64)
            log_joint = self._log_prob(x, weights / weights.sum(), probs)
            responsibilities = np.exp(log_joint - logsumexp(log_joint, axis=1, keepdims=True))
            best = self._run_em(x, responsibilities)
        else:
            rng = spawn_rng(self.seed, "bernoulli-mixture")
            for restart in range(self.n_init):
                # Initialise from random soft assignments (Dirichlet-ish).
                restart_rng = spawn_rng(rng, "restart", restart)
                responsibilities = restart_rng.random((n, self.n_components)) + 0.1
                responsibilities /= responsibilities.sum(axis=1, keepdims=True)
                result = self._run_em(x, responsibilities)
                if best is None or result[2] > best[2]:
                    best = result
        weights, probs, log_likelihood, iteration, converged, responsibilities = best
        self.weights_ = weights
        self.probs_ = probs
        return BernoulliFitResult(
            responsibilities=responsibilities,
            log_likelihood=log_likelihood,
            n_iterations=iteration,
            converged=converged,
            params=BernoulliParams(weights=weights.copy(), probs=probs.copy()),
        )

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Posterior P(y = k | x) for binary rows under the fitted model."""
        if self.weights_ is None or self.probs_ is None:
            raise RuntimeError("BernoulliMixture must be fitted before predict_proba")
        x = check_array(np.asarray(x, dtype=np.float64), name="x", ndim=2)
        log_joint = self._log_prob(x, self.weights_, self.probs_)
        return np.exp(log_joint - logsumexp(log_joint, axis=1, keepdims=True))
