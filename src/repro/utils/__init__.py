"""Shared utilities: seeding, validation, and small numeric helpers."""

from repro.utils.npz import load_npz
from repro.utils.numeric import logsumexp
from repro.utils.rng import spawn_rng, derive_seed
from repro.utils.validation import (
    check_array,
    check_images,
    check_labels,
    check_probabilities,
)

__all__ = [
    "load_npz",
    "logsumexp",
    "spawn_rng",
    "derive_seed",
    "check_array",
    "check_images",
    "check_labels",
    "check_probabilities",
]
