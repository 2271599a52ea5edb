"""Zero-lag event synchronization, shuffle null model, and network construction.

Events come as one season's (n_nodes, T) bool matrix E. Two events at
different nodes are synchronized when they fall on the same day: strictly
increasing event days make every dynamic local time scale at least 0.5, so
no same-day pair is ever gated out, and the ES of every pair is E @ E.T. A
link is established when the pair's ES reaches the chosen quantile of a null
that re-draws both nodes' event days uniformly from the T season days; a
shuffle's overlap is Hypergeom(T, n_lo, n_hi) distributed, so the null is
drawn from that law directly.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .grid_io import GridSpec
from .netmetrics import Network
from .seeding import NULL_MODEL_TAG, stream

# rows of E per ES block: the n x n ES, threshold and link arrays are never built whole
_ES_ROWS = 256


@dataclass(frozen=True)
class SyncParams:
    n_shuffles: int = 1000
    link_quantile: float = 0.995

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


def _es_matrix(events: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """All-pairs zero-lag ES of the n x T bool event matrix E, in row blocks.

    ES is symmetric, so each block holds only the rows' upper triangle and
    diagonal block: yields (r0, E[r0:r1] @ E[r0:].T) in float32 for r1 =
    r0 + _ES_ROWS, and no n x n array is ever held. Each block is one sgemm,
    serial under gridsync's default of one BLAS thread. Sums of 0/1 below
    2**24 are exact in float32 in any BLAS order and any blocking.
    """
    e = events.astype(np.float32)
    for r0 in range(0, e.shape[0], _ES_ROWS):
        yield r0, e[r0 : r0 + _ES_ROWS] @ e[r0:].T


def _threshold_table(counts: np.ndarray, T: int, params: SyncParams, seed: int) -> np.ndarray:
    """Null thresholds indexed by two event counts; +inf where no pair is tested.

    One threshold per distinct (n_lo, n_hi) key among pairs of nodes with
    events, each from the key's own stream, independent of the other keys.
    """
    vals, mult = np.unique(counts[counts > 0], return_counts=True)
    table = np.full((int(counts.max(initial=0)) + 1,) * 2, np.inf)
    ia, ib = np.triu_indices(vals.size)
    keep = (ia != ib) | (mult[ia] > 1)
    for n_lo, n_hi in zip(vals[ia[keep]].tolist(), vals[ib[keep]].tolist()):
        rng = stream(seed, NULL_MODEL_TAG, T, n_lo, n_hi)
        table[n_lo, n_hi] = table[n_hi, n_lo] = _key_threshold(T, n_lo, n_hi, params, rng)
    return table


def build_network(events: np.ndarray, grid: GridSpec, params: SyncParams, seed: int = 0) -> Network:
    """Undirected unweighted network: edge (i, j) iff ES >= null threshold.

    events is the (n_nodes, T) bool event matrix of one season, so every
    node shares its T season days. A pair's null then depends only on
    (T, n_lo, n_hi): one threshold is drawn per distinct key from the stream
    mix64(seed, NULL_MODEL_TAG, T, n_lo, n_hi). Nodes without events never
    link. Deterministic for a fixed seed.
    """
    if events.shape[0] != grid.n:
        raise ValueError(f"{events.shape[0]} event series for {grid.n} grid nodes")
    counts = events.sum(axis=1)
    thr = _threshold_table(counts, events.shape[1], params, seed)
    edges = [np.empty((0, 2), dtype=np.intp)]
    for r0, es in _es_matrix(events):
        i, j = np.nonzero(es >= thr[counts[r0 : r0 + es.shape[0]]][:, counts[r0:]])
        edges.append(np.stack([i, j], axis=1)[j > i] + r0)
    return Network.from_edges(grid, np.concatenate(edges))
