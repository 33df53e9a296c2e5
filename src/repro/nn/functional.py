"""Stateless tensor operations for the numpy CNN substrate.

These implement the forward-pass primitives needed by the VGG-16
feature extractor used for GOGGLES' affinity functions: 2-D convolution,
ReLU, max pooling, linear layers, and softmax.

Convolution has a single kernel, :func:`conv2d_nhwc`: a stride-1
*shifted GEMM* over a zero-bordered channels-last ``(N, Hp, Wp, C)``
buffer.  Flattened to ``(N*Hp*Wp, C)`` rows, output row ``q`` is the sum
over the k² taps of input row ``q + dy*Wp + dx`` times the tap matrix
``W[dy, dx]``, so every tap is one matmul of a contiguous row slice,
accumulated in place — no patch matrix is ever copied.  The VGG forward
drives it directly (each conv writes into the next conv's bordered
input, with bias and ReLU applied in place); :func:`conv2d` wraps it
with the NCHW signature for every other caller.  Max pooling likewise
runs on channels-last buffers (:func:`maxpool2d_nhwc`) behind the NCHW
:func:`maxpool2d`.

The NCHW functions return channels-last memory viewed as
``(N, C, H, W)`` and compute in the input's dtype — float64 on the
default path, float32 when the sparse affinity path feeds half-width
batches (the layer objects cast their parameters to match the
activations).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pad2d",
    "conv_taps",
    "conv2d_nhwc",
    "conv2d",
    "relu",
    "maxpool2d_nhwc",
    "maxpool2d",
    "global_max_pool",
    "linear",
    "softmax",
    "log_softmax",
    "flatten",
]


# Output elements per row block of :func:`conv2d_nhwc` (256 KB at
# float64): a block's accumulator and tap product stay in cache across
# its k² GEMMs, instead of every tap streaming the whole output.
_BLOCK_ELEMENTS = 32768


def pad2d(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two trailing (spatial) axes of ``x`` by ``padding``."""
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    if padding == 0:
        return x
    pad_width = [(0, 0)] * (x.ndim - 2) + [(padding, padding), (padding, padding)]
    return np.pad(x, pad_width, mode="constant")


def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"kernel {kernel} with stride {stride} and padding {padding} "
            f"does not fit input of size {size}"
        )
    return out


def _window(x: np.ndarray, dy: int, dx: int, h_out: int, w_out: int, stride: int) -> np.ndarray:
    """The ``(N, h_out, w_out, C)`` strided view of ``x`` seen by tap ``(dy, dx)``."""
    return x[:, dy : dy + stride * (h_out - 1) + 1 : stride, dx : dx + stride * (w_out - 1) + 1 : stride]


def conv_taps(weight: np.ndarray) -> np.ndarray:
    """Tap matrices of a ``(C_out, C_in, k, k)`` kernel as a contiguous
    ``(k, k, C_in, C_out)`` array: ``taps[dy, dx]`` maps input channels
    to output channels at offset ``(dy, dx)``."""
    if weight.ndim != 4:
        raise ValueError(f"conv weight must be 4-D, got shape {weight.shape}")
    if weight.shape[2] != weight.shape[3]:
        raise ValueError(f"only square kernels are supported, got {weight.shape[2]}x{weight.shape[3]}")
    return np.ascontiguousarray(weight.transpose(2, 3, 1, 0))


def conv2d_nhwc(
    padded: np.ndarray,
    taps: np.ndarray,
    out: np.ndarray,
    bias: np.ndarray | None = None,
    relu: bool = False,
) -> np.ndarray:
    """Stride-1 convolution of a zero-bordered NHWC batch, written into ``out``.

    ``padded`` is a C-contiguous ``(N, Hp, Wp, C_in)`` buffer (the
    padding already applied), ``taps`` a ``(k, k, C_in, C_out)`` array
    from :func:`conv_taps`, and ``out`` a C-contiguous ``(L, C_out)``
    array with ``L = N*Hp*Wp - (k-1)*(Wp+1)``, all of one dtype.  Row
    ``q`` of ``out`` is the output whose window starts at flat position
    ``q`` of ``padded``: valid where that position's row is below
    ``Hp-k+1`` and its column below ``Wp-k+1``; the remaining rows
    straddle a border and hold values the caller discards or overwrites.

    The rows are processed in cache-sized blocks; within a block each
    tap is one ``matmul`` into a scratch buffer added in place to the
    block's rows of ``out``, then bias and ReLU are applied in place
    while the block is still in cache.  Every row is a row of the same
    k² GEMMs, so a sample's outputs do not depend on the rest of the
    batch or on the block boundaries, as long as no GEMM has a single
    row (BLAS may route a one-row product to a differently rounding
    matrix-vector kernel): ``L >= 2`` and no one-row block.
    """
    n, hp, wp, c_in = padded.shape
    k = taps.shape[0]
    if taps.shape[:3] != (k, k, c_in):
        raise ValueError(f"taps of shape {taps.shape} do not match {c_in} input channels")
    length = n * hp * wp - (k - 1) * (wp + 1)
    if out.shape != (length, taps.shape[3]):
        raise ValueError(f"out must have shape {(length, taps.shape[3])}, got {out.shape}")
    rows = padded.reshape(-1, c_in)
    block = max(2, _BLOCK_ELEMENTS // out.shape[1])
    scratch = np.empty((min(block + 1, length), out.shape[1]), dtype=out.dtype)
    start = 0
    while start < length:
        stop = min(start + block, length)
        if length - stop == 1:  # never leave a one-row block
            stop = length
        acc, tmp = out[start:stop], scratch[: stop - start]
        np.matmul(rows[start:stop], taps[0, 0], out=acc)
        for dy in range(k):
            for dx in range(k):
                if dy or dx:
                    shift = dy * wp + dx
                    np.matmul(rows[start + shift : stop + shift], taps[dy, dx], out=tmp)
                    acc += tmp
        if bias is not None:
            acc += bias
        if relu:
            np.maximum(acc, 0, out=acc)
        start = stop
    return out


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """2-D cross-correlation (the deep-learning "convolution").

    ``x``: ``(N, C_in, H, W)``; ``weight``: ``(C_out, C_in, kh, kw)`` with
    ``kh == kw``; ``bias``: ``(C_out,)`` or None.  Returns
    ``(N, C_out, H_out, W_out)``.  Runs :func:`conv2d_nhwc` at stride 1
    and subsamples for ``stride > 1``.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ValueError(f"conv2d expects 4-D input/weight, got {x.shape} / {weight.shape}")
    c_out, c_in, kernel, _ = weight.shape
    taps = conv_taps(weight)
    if x.shape[1] != c_in:
        raise ValueError(f"input has {x.shape[1]} channels, weight expects {c_in}")
    n, _, h, w = x.shape
    h_out = _out_size(h, kernel, stride, padding)
    w_out = _out_size(w, kernel, stride, padding)
    dtype = np.result_type(x, weight) if bias is None else np.result_type(x, weight, bias)
    hp, wp = h + 2 * padding, w + 2 * padding
    padded = np.zeros((n, hp, wp, c_in), dtype=dtype)
    padded[:, padding : padding + h, padding : padding + w] = x.transpose(0, 2, 3, 1)
    grid = np.empty((n, hp, wp, c_out), dtype=dtype)
    rows = grid.reshape(-1, c_out)
    conv2d_nhwc(padded, taps.astype(dtype, copy=False), rows[: rows.shape[0] - (kernel - 1) * (wp + 1)], bias)
    return np.ascontiguousarray(_window(grid, 0, 0, h_out, w_out, stride)).transpose(0, 3, 1, 2)


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise rectified linear unit."""
    return np.maximum(x, 0.0)


def maxpool2d_nhwc(x: np.ndarray, kernel: int = 2, stride: int | None = None) -> np.ndarray:
    """Max pooling of a channels-last ``(N, H, W, C)`` batch into a new
    C-contiguous ``(N, H_out, W_out, C)`` array."""
    if stride is None:
        stride = kernel
    n, h, w, c = x.shape
    h_out = _out_size(h, kernel, stride, 0)
    w_out = _out_size(w, kernel, stride, 0)
    out = np.empty((n, h_out, w_out, c), dtype=x.dtype)
    np.copyto(out, _window(x, 0, 0, h_out, w_out, stride))
    for dy in range(kernel):
        for dx in range(kernel):
            if dy or dx:
                np.maximum(out, _window(x, dy, dx, h_out, w_out, stride), out=out)
    return out


def maxpool2d(x: np.ndarray, kernel: int = 2, stride: int | None = None) -> np.ndarray:
    """Max pooling over non-overlapping (by default) spatial windows."""
    return maxpool2d_nhwc(x.transpose(0, 2, 3, 1), kernel, stride).transpose(0, 3, 1, 2)


def global_max_pool(x: np.ndarray) -> np.ndarray:
    """2-D global max pooling: ``(N, C, H, W)`` -> ``(N, C)``.

    This is the channel "activation" used by the paper's top-Z channel
    selection (§3.1): the activation of a channel is the maximum value of
    its ``H×W`` matrix.
    """
    return x.max(axis=(2, 3))


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Affine map ``x @ weight.T + bias`` with ``weight``: ``(out, in)``."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def flatten(x: np.ndarray) -> np.ndarray:
    """Flatten all axes but the first: ``(N, ...)`` -> ``(N, prod(...))``."""
    return x.reshape(x.shape[0], -1)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
