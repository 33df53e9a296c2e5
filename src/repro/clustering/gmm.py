"""Full-covariance Gaussian mixture (EM) — Table 1 ablation baseline.

This is the "naive invocation of GMM on our affinity matrix" the paper
argues against in §4: a K-component mixture with *full* covariance
matrices over the concatenated affinity features.  In high dimensions
the covariance estimate needs heavy regularisation (shrinkage to the
diagonal), which is exactly the pathology §4 describes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from repro.core.inference.base_gmm import kmeans_plusplus_init
from repro.utils.numeric import logsumexp
from repro.utils.rng import spawn_rng
from repro.utils.validation import check_array

__all__ = ["FullCovarianceGMM", "FullGMMResult"]


@dataclass(frozen=True)
class FullGMMResult:
    """EM outcome for the full-covariance mixture."""

    responsibilities: np.ndarray
    log_likelihood: float
    n_iterations: int
    converged: bool

    @property
    def labels(self) -> np.ndarray:
        return self.responsibilities.argmax(axis=1)


class FullCovarianceGMM:
    """K-component GMM with full covariances and shrinkage regularisation.

    Parameters:
        n_components: K.
        max_iter / tol: EM schedule.
        shrinkage: convex combination weight pulling each covariance
            toward its diagonal (needed when features >> examples).
        ridge: additive diagonal jitter for numerical stability.
        seed: initialisation seed.
    """

    def __init__(
        self,
        n_components: int,
        max_iter: int = 100,
        tol: float = 1e-6,
        shrinkage: float = 0.5,
        ridge: float = 1e-6,
        seed: int = 0,
    ):
        if n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {n_components}")
        if not 0.0 <= shrinkage <= 1.0:
            raise ValueError(f"shrinkage must be in [0, 1], got {shrinkage}")
        self.n_components = n_components
        self.max_iter = max_iter
        self.tol = tol
        self.shrinkage = shrinkage
        self.ridge = ridge
        self.seed = seed
        self.weights_: np.ndarray | None = None
        self.means_: np.ndarray | None = None
        self.covariances_: np.ndarray | None = None

    def _regularise(self, cov: np.ndarray) -> np.ndarray:
        diag = np.diag(np.diag(cov))
        out = (1 - self.shrinkage) * cov + self.shrinkage * diag
        out[np.diag_indices_from(out)] += self.ridge
        return out

    def _log_prob(self, x: np.ndarray) -> np.ndarray:
        assert self.means_ is not None and self.covariances_ is not None and self.weights_ is not None
        n, d = x.shape
        out = np.empty((n, self.n_components))
        for k in range(self.n_components):
            diff = x - self.means_[k]
            try:
                chol = np.linalg.cholesky(self.covariances_[k])
            except np.linalg.LinAlgError:
                cov = self.covariances_[k].copy()
                cov[np.diag_indices_from(cov)] += 1e-3 * max(np.trace(cov) / d, 1.0)
                chol = np.linalg.cholesky(cov)
            solved = solve_triangular(chol, diff.T, lower=True)
            quad = (solved**2).sum(axis=0)
            log_det = 2.0 * np.log(np.diag(chol)).sum()
            out[:, k] = -0.5 * (d * np.log(2 * np.pi) + log_det + quad)
        return out + np.log(np.maximum(self.weights_, 1e-300))

    def fit(self, x: np.ndarray) -> FullGMMResult:
        """Run EM on ``(N, D)`` data."""
        x = check_array(np.asarray(x, dtype=np.float64), name="x", ndim=2)
        n, d = x.shape
        if n < self.n_components:
            raise ValueError(f"need at least {self.n_components} examples, got {n}")
        rng = spawn_rng(self.seed, "full-gmm")
        self.means_ = kmeans_plusplus_init(x, self.n_components, rng)
        base_cov = self._regularise(np.cov(x.T) if n > 1 else np.eye(d))
        self.covariances_ = np.stack([base_cov.copy() for _ in range(self.n_components)])
        self.weights_ = np.full(self.n_components, 1.0 / self.n_components)

        previous_ll = -np.inf
        converged = False
        responsibilities = np.full((n, self.n_components), 1.0 / self.n_components)
        iteration = 0
        for iteration in range(1, self.max_iter + 1):
            log_joint = self._log_prob(x)
            log_norm = logsumexp(log_joint, axis=1, keepdims=True)
            responsibilities = np.exp(log_joint - log_norm)
            log_likelihood = float(log_norm.sum())
            nk = np.maximum(responsibilities.sum(axis=0), 1e-10)
            self.weights_ = nk / n
            for k in range(self.n_components):
                self.means_[k] = responsibilities[:, k] @ x / nk[k]
                diff = x - self.means_[k]
                cov = (responsibilities[:, k, None] * diff).T @ diff / nk[k]
                self.covariances_[k] = self._regularise(cov)
            if log_likelihood - previous_ll < self.tol and iteration > 1:
                converged = True
                previous_ll = log_likelihood
                break
            previous_ll = log_likelihood
        return FullGMMResult(
            responsibilities=responsibilities,
            log_likelihood=previous_ll,
            n_iterations=iteration,
            converged=converged,
        )
