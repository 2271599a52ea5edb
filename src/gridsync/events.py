"""Extreme-event extraction: local percentile thresholds and deduplication.

A season's events are one (n_nodes, n_days) bool matrix over the seasonal
day vector. A node has an event on a day whose value strictly exceeds
(above) or falls below its local percentile threshold; runs of consecutive
calendar days are collapsed to their first day so temporal clustering does
not inflate synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid_io import GriddedSeries

# rows per threshold block: one block of the whole matrix would copy it once more
_QUANTILE_ROWS = 256


@dataclass(frozen=True)
class ThresholdSpec:
    """Local percentile threshold definition.

    support="positive_only" restricts the quantile to values strictly above
    positive_floor (default 0, i.e. all wet days count); "all" uses every
    finite value. min_support is the smallest support sample size accepted.
    """

    percentile: float
    direction: str = "above"  # "above" | "below"
    support: str = "all"  # "all" | "positive_only"
    positive_floor: float = 0.0
    min_support: int = 20

    def __post_init__(self):
        if not 0.0 < self.percentile < 100.0:
            raise ValueError("percentile must lie in (0, 100)")
        if self.direction not in ("above", "below"):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.support not in ("all", "positive_only"):
            raise ValueError(f"unknown support {self.support!r}")
        if self.min_support < 1:
            raise ValueError(f"min_support must be >= 1, got {self.min_support}")


def extract_events(gs: GriddedSeries, spec: ThresholdSpec) -> tuple[np.ndarray, list[int]]:
    """The deduplicated (n_nodes, n_days) bool event matrix of a seasonal series, and its unusable nodes.

    A node's threshold is the linear-interpolation quantile of its support
    values: the finite ones, and for positive_only those above
    positive_floor. A node with fewer than min_support of them is unusable:
    it has no events and enters the network with degree 0. Ties at the
    threshold and NaN values are never events. An event is dropped iff the
    previous calendar day is also an event, so a season gap never merges two.
    """
    v = gs.values
    support = np.isfinite(v)
    if spec.support == "positive_only":
        support &= v > spec.positive_floor
    count = support.sum(axis=1)
    usable = count >= spec.min_support
    thr = np.full(gs.n_nodes, np.nan)
    rows = np.flatnonzero(usable)
    for start in range(0, rows.size, _QUANTILE_ROWS):
        r = rows[start : start + _QUANTILE_ROWS]
        thr[r] = _quantiles(np.where(support[r], v[r], np.nan), count[r], spec.percentile / 100.0)
    # a NaN threshold (unusable node) compares false everywhere
    events = v > thr[:, None] if spec.direction == "above" else v < thr[:, None]
    events[:, 1:] &= ~(events[:, :-1] & (np.diff(gs.days) == 1))
    return events, np.flatnonzero(~usable).tolist()


def _quantiles(x: np.ndarray, k: np.ndarray, q: float) -> np.ndarray:
    """The linear-interpolation q-quantile of each row of x over its k[i] >= 1 non-NaN values.

    np.nanquantile's arithmetic, and so its values, without its per-row
    Python loop: x is sorted in place, NaN last; the quantile sits at (k - 1)
    * q, between positions prev (its floor) and min(prev + 1, k - 1), and is
    interpolated from the nearer end, as numpy's _lerp does.
    """
    x.sort(axis=1)
    virtual = (k - 1) * q
    prev = np.floor(virtual)
    gamma = virtual - prev
    rows, lo = np.arange(x.shape[0]), prev.astype(np.intp)
    a, b = x[rows, lo], x[rows, np.minimum(lo + 1, k - 1)]
    d = b - a
    return np.where(gamma >= 0.5, b - d * (1 - gamma), a + d * gamma)
