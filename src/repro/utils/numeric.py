"""Small numeric kernels shared by the EM fits."""

from __future__ import annotations

import numpy as np

__all__ = ["logsumexp"]


def logsumexp(a: np.ndarray, axis: int | None = None, keepdims: bool = False) -> np.ndarray:
    """``log(sum(exp(a), axis))`` computed stably, in plain numpy.

    Same contract as ``scipy.special.logsumexp`` without ``b``/``return_sign``
    and without its per-call dispatch overhead: the EM E-steps call this
    hundreds of times per labeling run on small ``(N, K)`` arrays.  Slices
    that are all ``-inf`` give ``-inf`` (no warning).
    """
    a = np.asarray(a)
    peak = np.max(a, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - peak), axis=axis, keepdims=True))
    out += peak
    return out if keepdims else np.squeeze(out, axis=axis)
