"""Numpy CNN substrate: VGG-16 feature extractor with surrogate weights.

The paper treats a pretrained VGG-16 as an external, frozen substrate;
this package implements it from scratch (forward passes only) together
with a deterministic surrogate for "pretrained" weights.  See DESIGN.md
for the substitution rationale.
"""

from repro.nn.layers import Conv2d, Flatten, Layer, Linear, MaxPool2d, ReLU, Sequential
from repro.nn.receptive_field import (
    LayerGeometry,
    ReceptiveField,
    receptive_field_box,
    vgg16_pool_geometry,
)
from repro.nn.vgg import BACKBONE_KERNEL, VGG16, VGGConfig

__all__ = [
    "BACKBONE_KERNEL",
    "Conv2d",
    "Flatten",
    "Layer",
    "Linear",
    "MaxPool2d",
    "ReLU",
    "Sequential",
    "VGG16",
    "VGGConfig",
    "LayerGeometry",
    "ReceptiveField",
    "receptive_field_box",
    "vgg16_pool_geometry",
]
