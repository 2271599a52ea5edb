"""Deterministic RNG stream derivation.

Every stochastic component derives its own stream from a global seed plus
integer context (null-model key, ensemble member index, ...) so that results do
not depend on evaluation order.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream namespace tags, so e.g. member 3 of the surrogate ensemble and the
# null key (T, 3, 3) never collide on the same stream.
NULL_MODEL_TAG = 0x6E756C6C  # "null"
SURROGATE_TAG = 0x73757272  # "surr"
SYNTH_TAG = 0x73796E74  # "synt"


def mix64(*parts: int) -> int:
    """Mix integers into a 64-bit value (splitmix64-style finalizer per part)."""
    x = 0x9E3779B97F4A7C15
    for p in parts:
        x = (x ^ (int(p) & _MASK64)) & _MASK64
        x = (x * 0xBF58476D1CE4E5B9) & _MASK64
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & _MASK64
        x ^= x >> 31
    return x


def stream(*parts: int) -> np.random.Generator:
    """PCG64 generator seeded from the mixed parts."""
    return np.random.Generator(np.random.PCG64(mix64(*parts)))

