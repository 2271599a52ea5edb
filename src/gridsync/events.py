"""Extreme-event extraction: local percentile thresholds and deduplication.

A node's daily series becomes an event series by strict threshold exceedance
(above) or deficit (below); runs of consecutive event days are collapsed to
their first day so temporal clustering does not inflate synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid_io import GriddedSeries


class InsufficientSupportError(ValueError):
    """Too few finite support values to estimate a stable local threshold."""


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


@dataclass(frozen=True)
class EventSeries:
    """Sorted event day-indices for one node within a season day universe."""

    node_id: int
    event_days: np.ndarray
    season_days: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.event_days, dtype=np.int64)
        sd = np.asarray(self.season_days, dtype=np.int64)
        object.__setattr__(self, "event_days", ev)
        object.__setattr__(self, "season_days", sd)
        if ev.size > 1 and not (np.diff(ev) > 0).all():
            raise ValueError("event days must be strictly increasing")
        if sd.size > 1 and not (np.diff(sd) > 0).all():
            raise ValueError("season days must be strictly increasing")
        if ev.size and not np.isin(ev, sd).all():
            raise ValueError("event days must belong to the season day universe")

    @property
    def n_events(self) -> int:
        return int(self.event_days.size)

    @property
    def n_days_in_season(self) -> int:
        return int(self.season_days.size)


def compute_threshold(values: np.ndarray, spec: ThresholdSpec) -> float:
    """Linear-interpolation quantile of the support values.

    Raises InsufficientSupportError when fewer than spec.min_support finite
    support values remain after filtering.
    """
    v = np.asarray(values, dtype=float)
    v = v[np.isfinite(v)]
    if spec.support == "positive_only":
        v = v[v > spec.positive_floor]
    if v.size < spec.min_support:
        raise InsufficientSupportError(
            f"{v.size} support values < required {spec.min_support}"
        )
    return float(np.quantile(v, spec.percentile / 100.0))


def to_event_series(
    values: np.ndarray,
    threshold: float,
    direction: str,
    *,
    days: np.ndarray,
    node_id: int = 0,
) -> EventSeries:
    """Days whose value strictly exceeds (above) or falls below the threshold.

    Ties at the threshold are never events; NaN values are never events.
    """
    if not np.isfinite(threshold):
        raise ValueError("threshold must be finite")
    if direction not in ("above", "below"):
        raise ValueError(f"unknown direction {direction!r}")
    v = np.asarray(values, dtype=float)
    days = np.asarray(days, dtype=np.int64)
    if v.shape != days.shape:
        raise ValueError("values and days must have equal length")
    with np.errstate(invalid="ignore"):
        mask = (v > threshold) if direction == "above" else (v < threshold)
    mask &= np.isfinite(v)
    return EventSeries(node_id=node_id, event_days=days[mask], season_days=days)


def dedup_consecutive(es: EventSeries) -> EventSeries:
    """Collapse each run of consecutive event days to its first day.

    An event is dropped iff the previous calendar day is also an event, so
    events separated by a season gap are never merged. Idempotent.
    """
    ev = es.event_days
    if ev.size < 2:
        return es
    keep = np.empty(ev.size, dtype=bool)
    keep[0] = True
    keep[1:] = np.diff(ev) > 1
    return EventSeries(node_id=es.node_id, event_days=ev[keep], season_days=es.season_days)


def extract_events(gs: GriddedSeries, spec: ThresholdSpec) -> tuple[list[EventSeries], list[int]]:
    """Per-node deduplicated event series for a seasonal gridded series.

    Nodes with too little threshold support are returned with empty event
    series and listed as unusable (they enter the network with degree 0).
    """
    series: list[EventSeries] = []
    unusable: list[int] = []
    empty = np.empty(0, dtype=np.int64)
    for i in range(gs.n_nodes):
        try:
            thr = compute_threshold(gs.values[i], spec)
        except InsufficientSupportError:
            unusable.append(i)
            series.append(EventSeries(node_id=i, event_days=empty, season_days=gs.days))
            continue
        es = to_event_series(gs.values[i], thr, spec.direction, days=gs.days, node_id=i)
        series.append(dedup_consecutive(es))
    return series, unusable
