"""Reference implementations that only the tests use.

Per-node event extraction, set-intersection ES, explicit shuffles and exact
hypergeometric arithmetic for the null model, one-pair link decisions, the
scalar haversine and the dense distance matrix, the CSR by one sort of keys,
one-source-at-a-time Brandes betweenness, the per-bin surrogate draw by pair
enumeration, the 0.8.0 ensemble fold, and pair-level helpers on networks and
surrogates. Where a helper runs a production kernel (event_sync,
null_threshold, pair_bins, sample_surrogate, ensemble_means_oracle), its
docstring says so; compare it only with an independent oracle, never with
itself.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from gridsync.netmetrics import EARTH_RADIUS_KM, compute_metric, pair_distances
from gridsync.seeding import SURROGATE_TAG, stream
from gridsync.surrogate import surrogate_member
from gridsync.sync import _es_matrix, _key_threshold


# ---------------------------------------------------------------------------
# event extraction


def events_oracle(values: np.ndarray, days: np.ndarray, spec) -> tuple[np.ndarray, list[int]]:
    """Per-node extraction: the quantile of each node's filtered support values,
    a strict comparison of its finite values, then event days one calendar day
    after another event dropped."""
    events = np.zeros(values.shape, dtype=bool)
    unusable = []
    for i, v in enumerate(values):
        support = v[np.isfinite(v)]
        if spec.support == "positive_only":
            support = support[support > spec.positive_floor]
        if support.size < spec.min_support:
            unusable.append(i)
            continue
        thr = np.quantile(support, spec.percentile / 100.0)
        hit = (v > thr) if spec.direction == "above" else (v < thr)
        ev = np.flatnonzero(hit & np.isfinite(v))
        events[i, ev[np.diff(days[ev], prepend=days[0] - 2) > 1]] = True
    return events, unusable


# ---------------------------------------------------------------------------
# event synchronization and the shuffle null
#
# A node's events are a bool row over the season's T days.


def shared_days(ei, ej) -> int:
    """Zero-lag ES oracle: the number of days on which both nodes have an event."""
    return len(set(np.flatnonzero(ei).tolist()) & set(np.flatnonzero(ej).tolist()))


def event_sync(ei, ej) -> int:
    """Zero-lag ES of one pair, computed by the production all-pairs kernel."""
    (_, es), = _es_matrix(np.stack([ei, ej]))
    return int(es[0, 1])


def null_threshold(ei, ej, params, pair_seed: int) -> float:
    """One pair's null threshold: the production per-key draw from PCG64(pair_seed).

    Both rows must span the same season days. Empty rows give 0.
    """
    if not (ei.any() and ej.any()):
        return 0.0
    assert ei.size == ej.size
    n_lo, n_hi = sorted((int(ei.sum()), int(ej.sum())))
    rng = np.random.Generator(np.random.PCG64(pair_seed))
    return _key_threshold(ei.size, n_lo, n_hi, params, rng)


@dataclass(frozen=True)
class SyncResult:
    es: float
    threshold: float
    significant: bool


def pair_sync(ei, ej, params, pair_seed: int) -> SyncResult:
    """Set-intersection ES, null threshold and link decision for one node pair."""
    es = shared_days(ei, ej)
    thr = null_threshold(ei, ej, params, pair_seed)
    significant = ei.any() and ej.any() and es >= thr
    return SyncResult(es=float(es), threshold=thr, significant=significant)


def shuffle_overlaps(T: int, n_i: int, n_j: int, n_shuffles: int, rng: np.random.Generator) -> np.ndarray:
    """Explicit shuffle null: both event sets re-drawn without replacement, overlaps counted."""
    return np.array([
        np.intersect1d(rng.choice(T, n_i, replace=False), rng.choice(T, n_j, replace=False)).size
        for _ in range(n_shuffles)
    ])


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

    Exact-arithmetic oracle for the zero-lag null: the shuffle ES is the
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


# ---------------------------------------------------------------------------
# distances, networks and surrogates


def haversine(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in km between (lat, lon) points in degrees."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    s1 = math.sin(0.5 * (lat2 - lat1))
    s2 = math.sin(0.5 * (lon2 - lon1))
    h = s1 * s1 + math.cos(lat1) * math.cos(lat2) * s2 * s2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def haversine_matrix(grid) -> np.ndarray:
    """Full n x n great-circle distance matrix in km, by the 0.7.0 broadcast formula.

    Each element is the double the in-place production kernel must give for
    its pair; the formula is spelled out here so the bitwise tests do not
    restate the kernel.
    """
    lat = np.radians(grid.lat)
    lon = np.radians(grid.lon)
    lat1, lon1, lat2, lon2 = lat[:, None], lon[:, None], lat[None, :], lon[None, :]
    s1 = np.sin(0.5 * (lat1 - lat2))
    s2 = np.sin(0.5 * (lon1 - lon2))
    h = s1 * s1 + np.cos(lat1) * np.cos(lat2) * s2 * s2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def csr_by_sort(n: int, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the graph on pair ranks, i < j, by one sort of both directions' keys i * n + j."""
    ends = np.cumsum(np.arange(n - 1, 0, -1))  # row i of np.triu_indices(n, 1) ends at ends[i]
    i = np.searchsorted(ends, rank, side="right")
    j = rank - (ends[i] - (n - 1 - i)) + i + 1
    key = np.sort(np.concatenate([i * n + j, j * n + i]).astype(np.int64))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // max(n, 1), minlength=n), out=indptr[1:])
    return indptr, key % max(n, 1)


def neighbors(net, i: int) -> np.ndarray:
    """Node i's neighbors, sorted ascending."""
    return net.indices[net.indptr[i] : net.indptr[i + 1]]


def has_edge(net, i: int, j: int) -> bool:
    a = neighbors(net, i)
    k = np.searchsorted(a, j)
    return bool(k < a.size and a[k] == j)


def pair_bins(grid, bin_width_km: float) -> np.ndarray:
    """Distance bin floor(d / bin_width_km) of every pair i < j, in np.triu_indices(n, 1) order.

    Runs the production pass (netmetrics.pair_distances), which the tests
    check bitwise against haversine_matrix. In the smallest unsigned dtype
    that holds the bin of half the Earth's circumference.
    """
    dtype = np.min_scalar_type(int(np.pi * EARTH_RADIUS_KM / bin_width_km) + 1)
    return (pair_distances(grid) / bin_width_km).astype(dtype)  # the cast truncates, which is floor for d >= 0


def pair_link_probabilities(profile, grid) -> np.ndarray:
    """Link probability of every pair i < j, in np.triu_indices(n, 1) order.

    Pairs beyond the last bin get 0.
    """
    bins = pair_bins(grid, profile.bin_width_km)
    prob = np.zeros(max(profile.bin_prob.size, int(bins.max(initial=0)) + 1))
    prob[: profile.bin_prob.size] = profile.bin_prob
    return prob[bins]


def sample_surrogate(profile, grid, member_seed: int):
    """One surrogate member: the production draw from PCG64(member_seed)."""
    return surrogate_member(profile, grid, np.random.Generator(np.random.PCG64(member_seed)))


def surrogate_member_oracle(profile, grid, rng) -> tuple[np.ndarray, np.ndarray]:
    """The linked pairs (i, j) of the per-bin surrogate draw, by brute force.

    Enumerates the pairs with np.triu_indices, bins them by the dense
    distance matrix, and makes the production's rng calls bin by bin: a link
    count K ~ Binomial(N, p), then K of the bin's N pairs (in rank order) by
    rng.choice(N, K, replace=False, shuffle=False).
    """
    w = profile.bin_width_km
    iu, ju = np.triu_indices(grid.n, k=1)
    bins = np.floor(haversine_matrix(grid)[iu, ju] / w).astype(np.int64)
    linked = []
    for b in range(profile.bin_prob.size):
        members = np.flatnonzero(bins == b)
        p = profile.bin_prob[b]
        if p > 0 and members.size:
            k = rng.binomial(members.size, p)
            linked.extend(members[rng.choice(members.size, k, replace=False, shuffle=False)].tolist())
    linked = np.sort(np.asarray(linked, dtype=np.int64))
    return iu[linked], ju[linked]


def ensemble_means_oracle(profile, grid, metrics, ensemble_size: int, seed: int) -> dict[str, np.ndarray]:
    """ensemble_stats' means as 0.8.0 folded them, on the production members and metrics.

    A dict of fields per member, and per block of 64 members one
    np.sum(np.stack(...), axis=0) per metric, added to that metric's sum.
    """
    def member_fields(k: int) -> dict[str, np.ndarray]:
        net = surrogate_member(profile, grid, stream(seed, SURROGATE_TAG, k))
        return {m: compute_metric(net, m).values for m in metrics}

    sums = {m: np.zeros(grid.n) for m in metrics}
    for start in range(0, ensemble_size, 64):
        fields = [member_fields(k) for k in range(start, min(start + 64, ensemble_size))]
        for m in metrics:
            sums[m] += np.sum(np.stack([f[m] for f in fields]), axis=0)
    return {m: sums[m] / ensemble_size for m in metrics}


def brandes_oracle(net) -> np.ndarray:
    """Normalized betweenness by textbook Brandes: one deque BFS per source, Python lists.

    Dependencies are summed in source order, 256 sources per block, then
    normalized by (n - 1)(n - 2).
    """
    n = net.n
    ptr = net.indptr.tolist()
    idx = net.indices.tolist()
    neighbors = [idx[ptr[v] : ptr[v + 1]] for v in range(n)]
    total = np.zeros(n)
    for start in range(0, n, 256):
        deps = [_brandes_source(neighbors, s, n) for s in range(start, min(start + 256, n))]
        total += np.sum(np.stack(deps), axis=0)
    return total / ((n - 1) * (n - 2))


def _brandes_source(neighbors: list[list[int]], s: int, n: int) -> np.ndarray:
    """Dependency of every node on shortest paths from source s."""
    dist = [-1] * n
    sigma = [0.0] * n
    dist[s] = 0
    sigma[s] = 1.0
    order: list[int] = []
    preds: list[list[int]] = [[] for _ in range(n)]
    q = deque([s])
    while q:
        v = q.popleft()
        order.append(v)
        dv1 = dist[v] + 1
        sv = sigma[v]
        for w in neighbors[v]:
            dw = dist[w]
            if dw < 0:
                dist[w] = dw = dv1
                q.append(w)
            if dw == dv1:
                sigma[w] += sv
                preds[w].append(v)
    delta = [0.0] * n
    for w in reversed(order):
        coeff = (1.0 + delta[w]) / sigma[w]
        for v in preds[w]:
            delta[v] += sigma[v] * coeff
    delta[s] = 0.0
    return np.asarray(delta)
