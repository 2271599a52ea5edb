"""Event synchronization, shuffle null model, and network construction.

Two events at different nodes count as synchronized when their lag is within
the allowed window (|delta| <= tau_max) and strictly inside the dynamic local
time scale tau, half the smallest inter-event gap adjacent to either event.
A link is established when the pair's synchronization count reaches the
chosen quantile of a Monte-Carlo null built by re-drawing each node's event
days uniformly from its season-day universe.

At zero lag (the default) ES is w * |A & B|, since strictly increasing event
days make every local tau at least 0.5: all pairs come from one event-matrix
product, and a shuffle's overlap is Hypergeom(T, n_lo, n_hi) distributed.
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
    tau_max: int = 0
    n_shuffles: int = 1000
    link_quantile: float = 0.995
    seed: int = 0
    simultaneous_weight: float = 1.0

    def __post_init__(self):
        if self.tau_max < 0:
            raise ValueError("tau_max must be >= 0")
        if self.n_shuffles < 100:
            raise ValueError("n_shuffles must be >= 100")
        if not 0.0 < self.link_quantile < 1.0:
            raise ValueError("link_quantile must lie in (0, 1)")


@dataclass(frozen=True)
class DelayPair:
    """Lag between two events and the local time scale that gates it."""

    delta: int
    tau: float


@dataclass(frozen=True)
class SyncResult:
    es: float
    threshold: float
    significant: bool


def _gap_arrays(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-event gaps to the previous/next event; +inf where none exists."""
    prev = np.full(t.size, np.inf)
    nxt = np.full(t.size, np.inf)
    if t.size > 1:
        d = np.diff(t).astype(float)
        prev[1:] = d
        nxt[:-1] = d
    return prev, nxt


def local_tau(ei: EventSeries, ej: EventSeries, m: int, n: int) -> float:
    """Dynamic local time scale for event m of ei and event n of ej (1-based).

    Half the minimum of the up-to-four adjacent inter-event gaps; gaps that
    do not exist (series boundaries) are omitted, and +inf is returned when
    no gap exists at all (both series are singletons).
    """
    ti, tj = ei.event_days, ej.event_days
    if not 1 <= m <= ti.size:
        raise IndexError(f"m={m} out of range 1..{ti.size}")
    if not 1 <= n <= tj.size:
        raise IndexError(f"n={n} out of range 1..{tj.size}")
    gaps = []
    if m > 1:
        gaps.append(float(ti[m - 1] - ti[m - 2]))
    if m < ti.size:
        gaps.append(float(ti[m] - ti[m - 1]))
    if n > 1:
        gaps.append(float(tj[n - 1] - tj[n - 2]))
    if n < tj.size:
        gaps.append(float(tj[n] - tj[n - 1]))
    if not gaps:
        return math.inf
    return 0.5 * min(gaps)


def delay_pair(ei: EventSeries, ej: EventSeries, m: int, n: int) -> DelayPair:
    """Lag t_n(j) - t_m(i) together with its local time scale (1-based)."""
    delta = int(ej.event_days[n - 1] - ei.event_days[m - 1])
    return DelayPair(delta=delta, tau=local_tau(ei, ej, m, n))


def _es_days(
    ti: np.ndarray, tj: np.ndarray, tau_max: int, simultaneous_weight: float
) -> float:
    """Synchronization count between two sorted, strictly increasing day arrays."""
    if ti.size == 0 or tj.size == 0:
        return 0
    prev_i, next_i = _gap_arrays(ti)
    prev_j, next_j = _gap_arrays(tj)
    lo = np.searchsorted(tj, ti - tau_max, side="left")
    hi = np.searchsorted(tj, ti + tau_max, side="right")
    n_zero = 0
    n_lagged = 0
    for m in np.nonzero(hi > lo)[0]:
        own = min(prev_i[m], next_i[m])
        for n in range(lo[m], hi[m]):
            tau = 0.5 * min(own, prev_j[n], next_j[n])
            delta = int(tj[n]) - int(ti[m])
            if abs(delta) < tau:
                if delta == 0:
                    n_zero += 1
                else:
                    n_lagged += 1
    if simultaneous_weight == 1.0:
        return n_lagged + n_zero
    return n_lagged + simultaneous_weight * n_zero


def event_sync(
    ei: EventSeries,
    ej: EventSeries,
    tau_max: int = 0,
    simultaneous_weight: float = 1.0,
) -> int | float:
    """Count event pairs with |delta| <= tau_max and |delta| < local tau.

    Symmetric in its arguments. With tau_max = 0 this is the number of shared
    event days whose local time scale is positive; simultaneous pairs carry
    weight 1 by default (set simultaneous_weight=0.5 for the half-weight
    convention).
    """
    if tau_max < 0:
        raise ValueError("tau_max must be >= 0")
    return _es_days(ei.event_days, ej.event_days, tau_max, simultaneous_weight)


# ---------------------------------------------------------------------------
# null model


def _null_sample(
    universe_i: np.ndarray,
    universe_j: np.ndarray,
    n_i: int,
    n_j: int,
    params: SyncParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Null ES sample: re-draw both event-day sets uniformly, n_shuffles times.

    Over a shared universe the counts are taken as (n_lo, n_hi); at zero lag
    the overlaps are then drawn as Hypergeom(T, n_lo, n_hi), their exact law.
    """
    w = params.simultaneous_weight
    if np.array_equal(universe_i, universe_j):
        n_i, n_j = sorted((n_i, n_j))
        if params.tau_max == 0:
            T = universe_i.size
            return w * rng.hypergeometric(n_i, T - n_i, n_j, params.n_shuffles)
    out = np.empty(params.n_shuffles)
    for k in range(params.n_shuffles):
        a = np.sort(rng.choice(universe_i, size=n_i, replace=False))
        b = np.sort(rng.choice(universe_j, size=n_j, replace=False))
        out[k] = _es_days(a, b, params.tau_max, w)
    return out


def _nearest_rank(sample: np.ndarray, q: float) -> float:
    """Nearest-rank order statistic: rank ceil(q * len) of the sorted sample."""
    s = np.sort(sample)
    rank = math.ceil(q * s.size)
    rank = min(max(rank, 1), s.size)
    return float(s[rank - 1])


def null_threshold(
    ei: EventSeries, ej: EventSeries, params: SyncParams, pair_seed: int
) -> float:
    """Link-significance threshold from the shuffle null distribution.

    Each shuffle draws the two nodes' event counts without replacement from
    their own season-day universes (independently, no re-deduplication) and
    recomputes ES; the threshold is the link_quantile nearest-rank order
    statistic; with a shared universe and tau_max = 0 one hypergeometric draw
    of the same law stands in for the shuffles. Empty series give threshold
    0 (and can never link).
    """
    n_i, n_j = ei.n_events, ej.n_events
    if n_i == 0 or n_j == 0:
        return 0.0
    rng = np.random.Generator(np.random.PCG64(pair_seed))
    sample = _null_sample(ei.season_days, ej.season_days, n_i, n_j, params, rng)
    return _nearest_rank(sample, params.link_quantile)


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def hypergeom_pmf(T: int, n_i: int, n_j: int, k: int) -> float:
    """P(overlap = k) for two independent uniform subsets of sizes n_i, n_j."""
    if k < max(0, n_i + n_j - T) or k > min(n_i, n_j):
        return 0.0
    return math.exp(
        _log_comb(n_i, k) + _log_comb(T - n_i, n_j - k) - _log_comb(T, n_j)
    )


def null_threshold_exact(T: int, n_i: int, n_j: int, q: float) -> int:
    """Smallest k with hypergeometric CDF(k; T, n_i, n_j) >= q.

    Exact-arithmetic oracle for the tau_max = 0 null: the shuffle ES is the
    overlap of two independent uniform random subsets of the day universe.
    """
    if not (0 <= n_i <= T and 0 <= n_j <= T):
        raise ValueError("need 0 <= n_i, n_j <= T")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    k_max = min(n_i, n_j)
    if n_i == 0 or n_j == 0:
        return 0
    if q == 1.0:
        return k_max
    cdf = 0.0
    for k in range(max(0, n_i + n_j - T), k_max + 1):
        cdf += hypergeom_pmf(T, n_i, n_j, k)
        if cdf >= q:
            return k
    return k_max


def pair_sync(
    ei: EventSeries, ej: EventSeries, params: SyncParams, pair_seed: int
) -> SyncResult:
    """ES, null threshold, and the link decision for one node pair."""
    es = event_sync(ei, ej, params.tau_max, params.simultaneous_weight)
    thr = null_threshold(ei, ej, params, pair_seed)
    significant = ei.n_events > 0 and ej.n_events > 0 and es >= thr
    return SyncResult(es=float(es), threshold=thr, significant=significant)


# ---------------------------------------------------------------------------
# network construction


def _es_matrix(all_series: list[EventSeries], universe: np.ndarray, params: SyncParams) -> np.ndarray:
    """All-pairs ES as a float64 n x n matrix; the upper triangle is complete.

    At tau_max = 0 it is w * (E @ E.T) for the n x T float32 0/1 event matrix
    E: sums of 0/1 below 2**24 are exact in any BLAS order, and scaling them
    in float64 gives what _es_days gives. Lagged ES keeps the per-pair count.
    """
    n, w = len(all_series), params.simultaneous_weight
    if params.tau_max == 0:
        e = np.zeros((n, universe.size), dtype=np.float32)
        for i, es in enumerate(all_series):
            e[i, np.searchsorted(universe, es.event_days)] = 1.0
        return np.multiply(e @ e.T, w, dtype=np.float64)
    es = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            es[i, j] = _es_days(all_series[i].event_days, all_series[j].event_days, params.tau_max, w)
    return es


def _threshold_table(counts: np.ndarray, universe: np.ndarray, params: SyncParams) -> np.ndarray:
    """Null thresholds indexed by two event counts; +inf where no pair is tested.

    One threshold per distinct (n_lo, n_hi) key among pairs of nodes with
    events, each from the key's own stream, independent of the other keys.
    """
    vals, mult = np.unique(counts[counts > 0], return_counts=True)
    table = np.full((int(counts.max(initial=0)) + 1,) * 2, np.inf)
    ia, ib = np.triu_indices(vals.size)
    keep = (ia != ib) | (mult[ia] > 1)
    for n_lo, n_hi in zip(vals[ia[keep]].tolist(), vals[ib[keep]].tolist()):
        rng = stream(params.seed, NULL_MODEL_TAG, universe.size, n_lo, n_hi)
        sample = _null_sample(universe, universe, n_lo, n_hi, params, rng)
        table[n_lo, n_hi] = table[n_hi, n_lo] = _nearest_rank(sample, params.link_quantile)
    return table


def build_network(all_series: list[EventSeries], grid: GridSpec, params: SyncParams) -> Network:
    """Undirected unweighted network: edge (i, j) iff ES >= null threshold.

    All nodes must share one season-day universe of T days. A pair's null
    then depends only on (T, n_lo, n_hi): one threshold is drawn per distinct
    key from the stream mix64(seed, NULL_MODEL_TAG, T, n_lo, n_hi), so edge
    (i, j) is pair_sync(ei, ej, params, <key seed>).significant. Pairs with
    an empty series never link. Deterministic for a fixed params.seed.
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
    thr = _threshold_table(counts, universe, params)
    linked = _es_matrix(all_series, universe, params) >= thr[np.ix_(counts, counts)]
    i, j = np.nonzero(np.triu(linked, 1))
    return Network.from_edges(grid, np.stack([i, j], axis=1))
