"""VGG-16 feature extractor (numpy, forward-only).

This reproduces the exact VGG-16 topology from Simonyan & Zisserman
(configuration "D"): five blocks of (2, 2, 3, 3, 3) 3x3 convolutions
with (64, 128, 256, 512, 512) channels, each block ending in a 2x2
max-pool, followed by a three-layer fully connected classifier.  A
``width_multiplier`` scales the channel counts so the full pipeline runs
quickly on CPUs; the architecture and all code paths are unchanged at
any width (DESIGN.md, "Known deviations").

GOGGLES consumes the outputs of the **five max-pooling layers**
(§3, "we thus leverage all 5 max-pooling layers of the network").
:meth:`VGG16.forward_pools` returns them in order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn import functional as F
from repro.nn.calibration import calibrate_conv_biases, calibration_batch
from repro.nn.layers import Conv2d, Linear, MaxPool2d, ReLU, Sequential
from repro.nn.weights import conv_orthogonal, first_layer_bank, linear_orthogonal
from repro.utils.rng import derive_seed
from repro.utils.validation import check_images

__all__ = ["VGGConfig", "VGG16", "VGG16_BLOCKS", "VGG16_CHANNELS", "BACKBONE_KERNEL"]

# Configuration "D" of Simonyan & Zisserman (2014): convs per block and
# full-width channel counts.
VGG16_BLOCKS: tuple[int, ...] = (2, 2, 3, 3, 3)
VGG16_CHANNELS: tuple[int, ...] = (64, 128, 256, 512, 512)

# Version tag of the conv kernel behind the forward pass.  Pool features
# depend on it in the last ulp (the order of the GEMM accumulation), so
# every cache key over VGG features folds it in; change it whenever the
# kernel's rounding changes.
BACKBONE_KERNEL = "nhwc-shifted-gemm/1"


@dataclass(frozen=True)
class VGGConfig:
    """Hyper-parameters of the surrogate-pretrained VGG-16.

    Attributes:
        in_channels: input image channels (3 for RGB).
        width_multiplier: scales all channel counts; 1.0 recovers the
            paper's full-width VGG-16, the default 0.125 gives a fast
            CPU model with identical topology.
        n_logits: size of the final "logits" layer (the paper's VGG has
            1000 ImageNet classes; any fixed generic projection works
            for Snuba primitives and end-model features).
        hidden_features: width of the two hidden FC layers (VGG uses
            4096); scaled versions keep the same 3-layer classifier.
        seed: root seed for the deterministic surrogate weights.
        calibration_sparsity: target post-ReLU sparsity set by the
            activation calibration (the "pretraining" surrogate; see
            ``repro.nn.calibration``).  0 disables calibration.
        n_calibration_images: size of the procedural calibration batch.
        calibration_size: side length of the calibration images.
    """

    in_channels: int = 3
    width_multiplier: float = 0.125
    n_logits: int = 128
    hidden_features: int = 256
    seed: int = 0
    calibration_sparsity: float = 0.65
    n_calibration_images: int = 12
    calibration_size: int = 64

    def block_channels(self) -> tuple[int, ...]:
        channels = tuple(max(4, int(round(c * self.width_multiplier))) for c in VGG16_CHANNELS)
        return channels


class VGG16:
    """Forward-only VGG-16 with deterministic surrogate weights.

    The object is immutable after construction; all methods are pure
    functions of the input batch.
    """

    N_POOL_LAYERS = 5

    def __init__(self, config: VGGConfig | None = None):
        self.config = config or VGGConfig()
        self._build()

    def _build(self) -> None:
        cfg = self.config
        channels = cfg.block_channels()
        seed = cfg.seed
        layers: list = []
        # Per block, the (taps, bias) of each conv for the channels-last
        # forward; each bias is the layer's array, calibrated in place below.
        self._blocks: list[list[tuple[np.ndarray, np.ndarray]]] = []
        in_ch = cfg.in_channels
        conv_index = 0
        for block, (n_convs, out_ch) in enumerate(zip(VGG16_BLOCKS, channels)):
            self._blocks.append([])
            for conv_in_block in range(n_convs):
                if conv_index == 0:
                    weight = first_layer_bank(out_ch, in_ch, size=3, seed=derive_seed(seed, "conv1"))
                else:
                    weight = conv_orthogonal(
                        out_ch, in_ch, 3, seed=derive_seed(seed, "conv", block, conv_in_block)
                    )
                bias = np.zeros(out_ch)
                name = f"conv{block + 1}_{conv_in_block + 1}"
                layers.append(Conv2d(weight, bias, stride=1, padding=1, name=name))
                self._blocks[-1].append((F.conv_taps(weight), bias))
                layers.append(ReLU(name=f"relu{block + 1}_{conv_in_block + 1}"))
                in_ch = out_ch
                conv_index += 1
            layers.append(MaxPool2d(kernel=2, name=f"pool{block + 1}"))
        self.features = Sequential(layers, name="features")
        self._final_channels = in_ch
        if cfg.calibration_sparsity > 0:
            calibration_images = calibration_batch(
                cfg.n_calibration_images,
                cfg.calibration_size,
                cfg.in_channels,
                derive_seed(seed, "calibration"),
            )
            calibrate_conv_biases(list(self.features), calibration_images, cfg.calibration_sparsity)
        # Classifier (fc6/fc7/fc8 in VGG nomenclature).  Input size depends
        # on the image size, so the first FC is materialised lazily.
        self._fc_hidden = cfg.hidden_features
        self._fc1: Linear | None = None
        self._fc2 = Linear(
            linear_orthogonal(cfg.hidden_features, cfg.hidden_features, derive_seed(seed, "fc2")),
            np.zeros(cfg.hidden_features),
            name="fc7",
        )
        self._fc3 = Linear(
            linear_orthogonal(cfg.n_logits, cfg.hidden_features, derive_seed(seed, "fc3")),
            np.zeros(cfg.n_logits),
            name="fc8",
        )

    # ------------------------------------------------------------------
    # Feature extraction
    # ------------------------------------------------------------------
    def forward_pools(self, images: np.ndarray) -> list[np.ndarray]:
        """Run the conv stack, returning the 5 max-pool outputs in order.

        Each element has shape ``(N, C_L, H_L, W_L)``; spatial size
        halves at every pool.  These are the filter maps from which
        GOGGLES extracts prototypes (Algorithm 1, line 2).
        """
        return self._forward(check_images(images), self.N_POOL_LAYERS)

    def pool_features(self, images: np.ndarray, layer: int) -> np.ndarray:
        """Return the filter map of max-pool layer ``layer`` (0-based)."""
        if not 0 <= layer < self.N_POOL_LAYERS:
            raise ValueError(f"layer must be in [0, {self.N_POOL_LAYERS}), got {layer}")
        return self._forward(check_images(images), layer + 1)[layer]

    def _forward(self, x: np.ndarray, n_blocks: int) -> list[np.ndarray]:
        """Channels-last forward through the first ``n_blocks`` blocks.

        Activations live in zero-bordered ``(N, H+2, W+2, C)`` buffers.
        Each 3x3 conv runs :func:`F.conv2d_nhwc` straight into the
        interior of the next conv's bordered buffer: its output row for
        padded position ``q`` lands at ``q + W+3``, the junk rows fall on
        the border, and re-zeroing the border leaves the next input
        ready.  Each pool map is an ``(N, C, H, W)`` view of a contiguous
        ``(N, H, W, C)`` buffer.
        """
        dtype = x.dtype
        feed = x.transpose(0, 2, 3, 1)
        pools: list[np.ndarray] = []
        for block in self._blocks[:n_blocks]:
            padded = _bordered(feed)
            for taps, bias in block:
                taps, bias = taps.astype(dtype, copy=False), bias.astype(dtype, copy=False)
                n, hp, wp, _ = padded.shape
                out = np.empty((n, hp, wp, taps.shape[3]), dtype=dtype)
                rows = out.reshape(-1, taps.shape[3])
                F.conv2d_nhwc(padded, taps, rows[wp + 1 : rows.shape[0] - wp - 1], bias, relu=True)
                for border in (out[:, 0], out[:, -1], out[:, :, 0], out[:, :, -1]):
                    border.fill(0)
                padded = out
            feed = F.maxpool2d_nhwc(padded[:, 1:-1, 1:-1])
            pools.append(feed.transpose(0, 3, 1, 2))
        return pools

    def _ensure_fc1(self, flat_features: int) -> Linear:
        if self._fc1 is None or self._fc1.weight.shape[1] != flat_features:
            self._fc1 = Linear(
                linear_orthogonal(
                    self._fc_hidden, flat_features, derive_seed(self.config.seed, "fc1", flat_features)
                ),
                np.zeros(self._fc_hidden),
                name="fc6",
            )
        return self._fc1

    def embed(self, images: np.ndarray) -> np.ndarray:
        """Frozen feature vector for end models and the FSL baseline.

        Concatenates the global-max-pooled channel activations of the
        three deepest max-pool layers with the flattened pool5 map.
        Global max pooling preserves "does feature c fire anywhere"
        evidence, which the paper's backbone carries in its trained FC
        layers; our surrogate FC layers are random projections, so this
        descriptor is the faithful stand-in for the penultimate
        representation (see DESIGN.md, "Substitutions").
        """
        pools = self.forward_pools(images)
        parts = [F.global_max_pool(pool) for pool in pools[2:]]
        parts.append(F.flatten(pools[-1]))
        return np.concatenate(parts, axis=1)

    def _fc_head(self, images: np.ndarray) -> np.ndarray:
        """ReLU(fc7(ReLU(fc6(pool5)))) — the surrogate FC stack."""
        pool5 = self.forward_pools(images)[-1]
        flat = F.flatten(pool5)
        fc1 = self._ensure_fc1(flat.shape[1])
        hidden = F.relu(fc1(flat))
        return F.relu(self._fc2(hidden))

    def logits(self, images: np.ndarray) -> np.ndarray:
        """Final "logits" layer output (fc8), the representation Snuba's
        primitives are extracted from (§5.1.2)."""
        return self._fc3(self._fc_head(images))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pool_channels(self) -> tuple[int, ...]:
        """Channel count of each max-pool output."""
        return self.config.block_channels()

    def n_parameters(self) -> int:
        total = self.features.n_parameters()
        for fc in (self._fc1, self._fc2, self._fc3):
            if fc is not None:
                total += fc.n_parameters()
        return total

    def describe(self) -> str:
        """Human-readable architecture summary."""
        lines = [f"VGG-16 (width x{self.config.width_multiplier}, seed={self.config.seed})"]
        for layer in self.features:
            if isinstance(layer, Conv2d):
                lines.append(
                    f"  {layer.name}: {layer.in_channels} -> {layer.out_channels}, "
                    f"{layer.kernel_size}x{layer.kernel_size}"
                )
            elif isinstance(layer, MaxPool2d):
                lines.append(f"  {layer.name}: 2x2 max pool")
        lines.append(f"  fc: ... -> {self._fc_hidden} -> {self._fc_hidden} -> {self.config.n_logits}")
        return "\n".join(lines)


def _bordered(x: np.ndarray) -> np.ndarray:
    """``(N, H, W, C)`` -> a new C-contiguous ``(N, H+2, W+2, C)`` buffer
    holding ``x`` inside a one-pixel zero border."""
    n, h, w, c = x.shape
    out = np.zeros((n, h + 2, w + 2, c), dtype=x.dtype)
    out[:, 1:-1, 1:-1] = x
    return out
