"""Seeded synthetic inputs that only the tests use.

Clustered event fields (for link-detection checks against the exact null)
and paired-sample fixtures where a subtraction-like and a division-like
correction demonstrably diverge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gridsync.grid_io import GridSpec
from gridsync.seeding import SYNTH_TAG, stream


@dataclass(frozen=True)
class SynthEventSpec:
    grid: GridSpec
    T: int
    base_rate: float
    cluster_groups: tuple = ()  # ((node_ids, rho), ...)
    seed: int = 0


def gen_event_field(spec: SynthEventSpec) -> np.ndarray:
    """Clustered synthetic (n, T) bool event matrix over T consecutive days (deduplicated).

    Each day, every cluster group fires jointly with its probability rho
    (all members get the event) and every node fires independently at
    base_rate.
    """
    if not 0.0 <= spec.base_rate <= 1.0:
        raise ValueError("base_rate must lie in [0, 1]")
    n = spec.grid.n
    rng = stream(spec.seed, SYNTH_TAG, 2)
    active = rng.random((n, spec.T)) < spec.base_rate
    for nodes, rho in spec.cluster_groups:
        if not 0.0 <= rho <= 1.0:
            raise ValueError("cluster rho must lie in [0, 1]")
        fires = rng.random(spec.T) < rho
        idx = np.asarray(list(nodes), dtype=int)
        active[np.ix_(idx, np.nonzero(fires)[0])] = True
    active[:, 1:] &= ~active[:, :-1]
    return active


def gen_divergence_fixture(
    n: int,
    seed: int,
    denominator_base: float = 1.0,
    small_fraction: float = 0.05,
    small_denominator: float = 0.05,
) -> tuple[np.ndarray, np.ndarray]:
    """Paired samples where subtracting and dividing by a baseline diverge.

    Integer-valued raw counts are corrected against heterogeneous
    denominators: a small fraction of nodes get a near-zero denominator,
    which blows up their ratio and compresses everyone else's normalized
    ratio toward zero. With small_fraction = 0 and denominator_base = 1 the
    two outputs are identical.
    """
    if n < 30:
        raise ValueError("fixture needs n >= 30")
    rng = stream(seed, SYNTH_TAG, 3)
    raw = rng.binomial(60, 0.25, size=n).astype(float)
    denom = np.full(n, float(denominator_base))
    k = int(round(small_fraction * n))
    if k > 0:
        idx = rng.choice(n, size=k, replace=False)
        denom[idx] = small_denominator
    x = _minmax(raw - denom)
    y = _minmax(raw / denom)
    return x, y


def _minmax(v: np.ndarray) -> np.ndarray:
    lo, hi = float(v.min()), float(v.max())
    if hi == lo:
        raise ValueError("constant field cannot be min-max normalized")
    return (v - lo) / (hi - lo)
