"""Snorkel-style generative label model.

Given the vote matrix of many noisy labeling functions, the label model
estimates each LF's class-conditional behaviour and the class prior,
then produces probabilistic labels — "Snorkel then models the
high-level interdependencies between the possibly conflicting labeling
functions to produce probabilistic labels" (§5.1.2).

We implement the conditionally-independent generative model with a
*full class-conditional vote distribution* per LF:

    P(λ, y) = π_y · Π_j θ_j[y, λ_j],   λ_j ∈ {ABSTAIN, 0, …, K-1}

Modelling the abstain probability per class matters: attribute-style
LFs fire almost exclusively on their own class, so the *coverage
pattern* carries as much signal as the votes themselves.  (A model with
class-independent propensity admits a degenerate "one class explains
everything" optimum on such LFs.)  Parameters are learned by EM with
Laplace smoothing, initialised from the majority vote; majority vote
itself is provided as a fallback/baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.labeling.lf import ABSTAIN
from repro.utils.numeric import logsumexp

__all__ = ["LabelModel", "LabelModelResult", "majority_vote"]


@dataclass(frozen=True)
class LabelModelResult:
    """EM outcome: probabilistic labels plus learned LF parameters.

    Attributes:
        probabilistic_labels: ``(N, K)`` posterior over classes.
        class_prior: learned π.
        vote_tables: ``(M, K, K+1)`` per-LF conditional distributions;
            ``vote_tables[j, y, 0]`` is P(abstain | y) and
            ``vote_tables[j, y, 1 + v]`` is P(vote v | y).
        propensities: ``(M,)`` marginal non-abstain rates (diagnostic).
        accuracies: ``(M,)`` P(vote = y | active, y) averaged over
            classes under the learned model (diagnostic).
        log_likelihood: final data log-likelihood.
        n_iterations: EM iterations executed.
    """

    probabilistic_labels: np.ndarray
    class_prior: np.ndarray
    vote_tables: np.ndarray
    propensities: np.ndarray
    accuracies: np.ndarray
    log_likelihood: float
    n_iterations: int


def majority_vote(votes: np.ndarray, n_classes: int) -> np.ndarray:
    """Probabilistic labels by per-instance vote counting.

    Instances where every LF abstains get the uniform distribution; ties
    split their mass evenly.
    """
    n = votes.shape[0]
    out = np.zeros((n, n_classes))
    for i in range(n):
        active = votes[i][votes[i] != ABSTAIN]
        if active.size == 0:
            out[i] = 1.0 / n_classes
            continue
        counts = np.bincount(active, minlength=n_classes).astype(np.float64)
        winners = counts == counts.max()
        out[i, winners] = 1.0 / winners.sum()
    return out


class LabelModel:
    """EM-learned generative model over LF votes.

    Parameters:
        n_classes: K.
        max_iter / tol: EM schedule.
        smoothing: Laplace pseudo-count applied to every vote-table cell.
        seed: kept for API stability (the MV initialisation is
            deterministic, so the seed currently only matters for
            potential subclass extensions).
    """

    def __init__(
        self,
        n_classes: int,
        max_iter: int = 100,
        tol: float = 1e-6,
        smoothing: float = 0.5,
        seed: int = 0,
    ):
        if n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {n_classes}")
        if smoothing <= 0:
            raise ValueError(f"smoothing must be positive, got {smoothing}")
        self.n_classes = n_classes
        self.max_iter = max_iter
        self.tol = tol
        self.smoothing = smoothing
        self.seed = seed

    # ------------------------------------------------------------------
    def _encode(self, votes: np.ndarray) -> np.ndarray:
        """Map votes to symbol indices: ABSTAIN -> 0, class v -> v + 1."""
        return np.where(votes == ABSTAIN, 0, votes + 1)

    def _m_step(self, symbols: np.ndarray, posterior: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n, m = symbols.shape
        k = self.n_classes
        prior = posterior.sum(axis=0) + self.smoothing
        prior /= prior.sum()
        tables = np.full((m, k, k + 1), self.smoothing)
        for j in range(m):
            for symbol in range(k + 1):
                mask = symbols[:, j] == symbol
                if mask.any():
                    tables[j, :, symbol] += posterior[mask].sum(axis=0)
        tables /= tables.sum(axis=2, keepdims=True)
        return prior, tables

    def _e_step(self, symbols: np.ndarray, prior: np.ndarray, tables: np.ndarray) -> tuple[np.ndarray, float]:
        n, m = symbols.shape
        k = self.n_classes
        log_joint = np.tile(np.log(prior), (n, 1))
        for j in range(m):
            # (K+1,) table columns indexed by each instance's symbol.
            log_joint += np.log(tables[j, :, symbols[:, j]])
        log_norm = logsumexp(log_joint, axis=1, keepdims=True)
        return np.exp(log_joint - log_norm), float(log_norm.sum())

    def fit(self, votes: np.ndarray) -> LabelModelResult:
        """Run EM on a vote matrix ``(N, M)`` with ABSTAIN = -1 entries."""
        votes = np.asarray(votes, dtype=np.int64)
        if votes.ndim != 2:
            raise ValueError(f"votes must be (N, M), got shape {votes.shape}")
        if votes.size == 0:
            raise ValueError("votes must be non-empty")
        if votes.max() >= self.n_classes:
            raise ValueError(f"vote {votes.max()} out of range for K={self.n_classes}")
        if votes.min() < ABSTAIN:
            raise ValueError(f"votes must be >= {ABSTAIN} (ABSTAIN)")
        symbols = self._encode(votes)
        k = self.n_classes

        # EM anchored at the (softened) majority-vote solution.
        posterior = 0.8 * majority_vote(votes, k) + 0.2 / k
        prior, tables = self._m_step(symbols, posterior)
        previous_ll = -np.inf
        iteration = 0
        for iteration in range(1, self.max_iter + 1):
            posterior, log_likelihood = self._e_step(symbols, prior, tables)
            prior, tables = self._m_step(symbols, posterior)
            if log_likelihood - previous_ll < self.tol and iteration > 1:
                previous_ll = log_likelihood
                break
            previous_ll = log_likelihood
        posterior, final_ll = self._e_step(symbols, prior, tables)

        # Diagnostics: marginal propensity and model-implied accuracy.
        propensities = 1.0 - (tables[:, :, 0] * prior).sum(axis=1)
        m = votes.shape[1]
        accuracies = np.empty(m)
        for j in range(m):
            per_class = np.empty(k)
            for y in range(k):
                active = 1.0 - tables[j, y, 0]
                per_class[y] = tables[j, y, 1 + y] / active if active > 1e-12 else 0.0
            accuracies[j] = float(per_class @ prior)

        return LabelModelResult(
            probabilistic_labels=posterior,
            class_prior=prior,
            vote_tables=tables,
            propensities=propensities,
            accuracies=accuracies,
            log_likelihood=final_ll,
            n_iterations=iteration,
        )
