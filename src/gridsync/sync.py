"""Zero-lag event synchronization, shuffle null model, and network construction.

Two events at different nodes are synchronized when they fall on the same
day: strictly increasing event days make every dynamic local time scale at
least 0.5, so no same-day pair is ever gated out, and ES is |A & B|. A link
is established when the pair's ES reaches the chosen quantile of a null that
re-draws both nodes' event days uniformly from their shared season-day
universe; a shuffle's overlap is Hypergeom(T, n_lo, n_hi) distributed, so
the null is drawn from that law directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .events import EventSeries
from .grid_io import GridSpec
from .netmetrics import Network
from .seeding import NULL_MODEL_TAG, stream


@dataclass(frozen=True)
class SyncParams:
    n_shuffles: int = 1000
    link_quantile: float = 0.995
    seed: int = 0

    def __post_init__(self):
        if self.n_shuffles < 100:
            raise ValueError("n_shuffles must be >= 100")
        if not 0.0 < self.link_quantile < 1.0:
            raise ValueError("link_quantile must lie in (0, 1)")


def _key_threshold(T: int, n_lo: int, n_hi: int, params: SyncParams, rng: np.random.Generator) -> float:
    """Null threshold of one (T, n_lo, n_hi) key: the link_quantile nearest-rank
    order statistic of n_shuffles hypergeometric overlaps drawn from rng."""
    sample = np.sort(rng.hypergeometric(n_lo, T - n_lo, n_hi, params.n_shuffles))
    return float(sample[math.ceil(params.link_quantile * sample.size) - 1])


def _es_matrix(all_series: list[EventSeries], universe: np.ndarray) -> np.ndarray:
    """All-pairs zero-lag ES: E @ E.T for the n x T float32 0/1 event matrix E.

    Sums of 0/1 below 2**24 are exact in float32 in any BLAS order.
    """
    e = np.zeros((len(all_series), universe.size), dtype=np.float32)
    for i, es in enumerate(all_series):
        e[i, np.searchsorted(universe, es.event_days)] = 1.0
    return e @ e.T


def _threshold_table(counts: np.ndarray, T: int, params: SyncParams) -> np.ndarray:
    """Null thresholds indexed by two event counts; +inf where no pair is tested.

    One threshold per distinct (n_lo, n_hi) key among pairs of nodes with
    events, each from the key's own stream, independent of the other keys.
    """
    vals, mult = np.unique(counts[counts > 0], return_counts=True)
    table = np.full((int(counts.max(initial=0)) + 1,) * 2, np.inf)
    ia, ib = np.triu_indices(vals.size)
    keep = (ia != ib) | (mult[ia] > 1)
    for n_lo, n_hi in zip(vals[ia[keep]].tolist(), vals[ib[keep]].tolist()):
        rng = stream(params.seed, NULL_MODEL_TAG, T, n_lo, n_hi)
        table[n_lo, n_hi] = table[n_hi, n_lo] = _key_threshold(T, n_lo, n_hi, params, rng)
    return table


def build_network(all_series: list[EventSeries], grid: GridSpec, params: SyncParams) -> Network:
    """Undirected unweighted network: edge (i, j) iff ES >= null threshold.

    All nodes must share one season-day universe of T days. A pair's null
    then depends only on (T, n_lo, n_hi): one threshold is drawn per distinct
    key from the stream mix64(seed, NULL_MODEL_TAG, T, n_lo, n_hi). Pairs
    with an empty series never link. Deterministic for a fixed params.seed.
    """
    n = grid.n
    if len(all_series) != n:
        raise ValueError(f"{len(all_series)} event series for {n} grid nodes")
    for i, es in enumerate(all_series):
        if es.node_id != i:
            raise ValueError(f"series at position {i} has node_id {es.node_id}")
    universe = all_series[0].season_days if n else np.empty(0, dtype=np.int64)
    for es in all_series:
        if not np.array_equal(es.season_days, universe):
            raise ValueError(f"node {es.node_id} has a different season-day universe than node 0")

    counts = np.array([es.n_events for es in all_series], dtype=np.int64)
    thr = _threshold_table(counts, universe.size, params)
    linked = _es_matrix(all_series, universe) >= thr[np.ix_(counts, counts)]
    i, j = np.nonzero(np.triu(linked, 1))
    return Network.from_edges(grid, np.stack([i, j], axis=1))
