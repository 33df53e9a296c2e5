"""Direct-form diagonal-GMM EM: the oracle for the stacked kernel.

The per-component form the base models used before EM became one
stacked kernel (``repro.core.inference.base_gmm``): an E-step that
evaluates ``Σ(x − μ_k)²/Σ_k`` one component at a time, and an M-step
that computes ``Σγ(x − μ_k)²/nk`` one component at a time.  Slow but
transparent — tests compare the kernel's EM steps against it, and
:func:`fit_base_functions` replays the old per-function fits.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.inference.base_gmm import GMMFitResult, GMMParams, kmeans_plusplus_init
from repro.utils.numeric import logsumexp
from repro.utils.rng import derive_seed, spawn_rng

_LOG_2PI = np.log(2.0 * np.pi)


def log_prob(x: np.ndarray, weights: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Per-component joint log density: log π_k + log N(x | μ_k, Σ_k)."""
    n, d = x.shape
    log_probs = np.empty((n, means.shape[0]))
    for k in range(means.shape[0]):
        diff_sq = (x - means[k]) ** 2
        log_det = np.log(variances[k]).sum()
        quad = (diff_sq / variances[k]).sum(axis=1)
        log_probs[:, k] = -0.5 * (d * _LOG_2PI + log_det + quad)
    return log_probs + np.log(np.maximum(weights, 1e-300))


def e_step(x: np.ndarray, params: GMMParams) -> tuple[np.ndarray, float]:
    log_joint = log_prob(x, params.weights, params.means, params.variances)
    log_norm = logsumexp(log_joint, axis=1, keepdims=True)
    return np.exp(log_joint - log_norm), float(log_norm.sum())


def m_step(
    x: np.ndarray,
    responsibilities: np.ndarray,
    variance_floor: float,
    rng: np.random.Generator | None = None,
) -> GMMParams:
    """Direct-form M-step; an empty component is re-seeded from ``rng``."""
    n, d = x.shape
    k = responsibilities.shape[1]
    weights, means, variances = np.empty(k), np.empty((k, d)), np.empty((k, d))
    nk = responsibilities.sum(axis=0)
    for j in range(k):
        if nk[j] < 1e-10:
            assert rng is not None, "empty component without a reseed stream"
            means[j] = x[int(rng.integers(n))]
            variances[j] = np.maximum(x.var(axis=0), variance_floor)
            weights[j] = 1.0 / n
            continue
        weights[j] = nk[j] / n
        means[j] = responsibilities[:, j] @ x / nk[j]
        diff_sq = (x - means[j]) ** 2
        variances[j] = np.maximum(responsibilities[:, j] @ diff_sq / nk[j], variance_floor)
    return GMMParams(weights=weights / weights.sum(), means=means, variances=variances)


def fit(
    x: np.ndarray,
    n_components: int,
    seed: int,
    *,
    max_iter: int,
    tol: float,
    variance_floor: float,
    init: np.ndarray | None = None,
) -> GMMFitResult:
    """One cold (or responsibility-initialised) EM run, function by function."""
    rng = spawn_rng(seed, "diag-gmm")
    if init is None:
        params = GMMParams(
            weights=np.full(n_components, 1.0 / n_components),
            means=kmeans_plusplus_init(x, n_components, rng),
            variances=np.tile(np.maximum(x.var(axis=0), variance_floor), (n_components, 1)),
        )
    else:
        params = m_step(x, init, variance_floor, rng)
    previous, converged, iteration = -np.inf, False, 0
    for iteration in range(1, max_iter + 1):
        responsibilities, log_likelihood = e_step(x, params)
        params = m_step(x, responsibilities, variance_floor, rng)
        if log_likelihood - previous < tol and iteration > 1:
            converged = True
            break
        previous = log_likelihood
    responsibilities, log_likelihood = e_step(x, params)
    hard = responsibilities.argmax(axis=1)
    return GMMFitResult(
        responsibilities=responsibilities,
        log_likelihood=log_likelihood,
        n_iterations=iteration,
        converged=converged,
        params=params,
        degenerate=n_components > 1 and np.unique(hard).size == 1,
    )


def fit_base_functions(blocks, config, function_indices, inits=None) -> tuple[GMMFitResult, ...]:
    """Drop-in for ``repro.core.inference.hierarchical.fit_base_functions``
    running the oracle EM one function at a time (with the degenerate retry)."""
    results = []
    for i, f in enumerate(function_indices):
        x = np.asarray(blocks[i], dtype=np.float64)
        kwargs = dict(
            max_iter=config.base_max_iter, tol=config.base_tol, variance_floor=config.variance_floor
        )
        init = inits[i] if inits is not None else None
        result = fit(x, config.n_classes, derive_seed(config.seed, "base", f), init=init, **kwargs)
        if result.degenerate:
            retry = fit(x, config.n_classes, derive_seed(config.seed, "base-reinit", f), **kwargs)
            kept = result if retry.degenerate and retry.log_likelihood <= result.log_likelihood else retry
            result = replace(kept, reinitialized=True)
        results.append(result)
    return tuple(results)
