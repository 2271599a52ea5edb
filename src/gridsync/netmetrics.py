"""Node-level network metrics on spatially embedded undirected graphs.

Metrics: degree (DC), clustering coefficient (CC), mean geographic distance
to neighbors (MGD, km), and normalized betweenness (BC). Nodes where a metric
is undefined (degree < 2 for CC, isolated for MGD) carry the numeric value 0
plus an undefined flag.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .grid_io import GridSpec
from .seeding import ordered_map

EARTH_RADIUS_KM = 6371.0

METRIC_NAMES = ("DC", "CC", "MGD", "BC")


@dataclass(frozen=True)
class Network:
    """Undirected unweighted graph over grid nodes, as sorted neighbor lists."""

    grid: GridSpec
    neighbors: tuple

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def edge_count(self) -> int:
        return sum(a.size for a in self.neighbors) // 2

    @staticmethod
    def from_edges(grid: GridSpec, edges: np.ndarray) -> "Network":
        """Build from an (m, 2) array of i < j pairs; duplicates rejected."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        n = grid.n
        if n == 0:
            return Network(grid=grid, neighbors=())
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise ValueError("edge endpoint out of range")
            if (edges[:, 0] >= edges[:, 1]).any():
                raise ValueError("edges must satisfy i < j (no self-loops)")
            if np.unique(edges, axis=0).shape[0] != edges.shape[0]:
                raise ValueError("duplicate edges")
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        counts = np.bincount(src, minlength=n)
        splits = np.cumsum(counts)[:-1]
        nbrs = tuple(a.copy() for a in np.split(dst, splits))
        return Network(grid=grid, neighbors=nbrs)

    def edge_array(self) -> np.ndarray:
        """All edges as (m, 2) with i < j, lexicographically sorted."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), [a.size for a in self.neighbors])
        dst = np.concatenate(self.neighbors) if self.neighbors else src
        keep = src < dst
        return np.stack([src[keep], dst[keep]], axis=1)

    def has_edge(self, i: int, j: int) -> bool:
        a = self.neighbors[i]
        k = np.searchsorted(a, j)
        return k < a.size and a[k] == j


@dataclass(frozen=True)
class MetricField:
    """One scalar per node for one metric, with per-node undefined flags."""

    metric: str
    values: np.ndarray
    undefined: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        und = self.undefined
        und = np.zeros(values.size, dtype=bool) if und is None else np.asarray(und, dtype=bool)
        object.__setattr__(self, "undefined", und)
        if und.shape != values.shape:
            raise ValueError("undefined flags must match value vector length")

    @property
    def n(self) -> int:
        return int(self.values.size)


def haversine(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in km between (lat, lon) points in degrees."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    s1 = math.sin(0.5 * (lat2 - lat1))
    s2 = math.sin(0.5 * (lon2 - lon1))
    h = s1 * s1 + math.cos(lat1) * math.cos(lat2) * s2 * s2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def haversine_matrix(grid: GridSpec) -> np.ndarray:
    """Full n x n great-circle distance matrix in km."""
    lat = np.radians(grid.lat)
    lon = np.radians(grid.lon)
    s1 = np.sin(0.5 * (lat[:, None] - lat[None, :]))
    s2 = np.sin(0.5 * (lon[:, None] - lon[None, :]))
    h = s1 * s1 + np.cos(lat)[:, None] * np.cos(lat)[None, :] * s2 * s2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def pair_distances(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle pair index arrays (iu, ju) and their distances in km."""
    d = haversine_matrix(grid)
    iu, ju = np.triu_indices(grid.n, k=1)
    return iu, ju, d[iu, ju]


@dataclass(frozen=True)
class NeighborhoodStats:
    """Per-node count of links realized among the node's neighbors."""

    links_among_neighbors: np.ndarray


def degree(net: Network) -> MetricField:
    """Number of links per node."""
    vals = np.array([a.size for a in net.neighbors], dtype=float)
    return MetricField("DC", vals)


def _sorted_intersection_size(a: np.ndarray, b: np.ndarray) -> int:
    return int(np.intersect1d(a, b, assume_unique=True).size)


def neighborhood_links(net: Network) -> NeighborhoodStats:
    """Links among each node's neighbors (each unordered pair counted once)."""
    n = net.n
    if n <= 2048:
        # dense path: (A @ A) * A row sums give twice the count; exact integers
        a = np.zeros((n, n))
        for i, nbrs in enumerate(net.neighbors):
            a[i, nbrs] = 1.0
        twice_links = ((a @ a) * a).sum(axis=1)
    else:
        twice_links = np.zeros(n)
        for i, nbrs in enumerate(net.neighbors):
            if nbrs.size < 2:
                continue
            twice_links[i] = sum(
                _sorted_intersection_size(net.neighbors[int(u)], nbrs) for u in nbrs
            )
    return NeighborhoodStats(links_among_neighbors=(twice_links / 2).astype(np.int64))


def clustering(net: Network) -> MetricField:
    """Fraction of realized links among each node's neighbor pairs.

    Nodes with degree < 2 get value 0 and the undefined flag.
    """
    deg = np.array([a.size for a in net.neighbors], dtype=np.int64)
    undef = deg < 2
    vals = np.zeros(net.n)
    links = neighborhood_links(net).links_among_neighbors
    good = ~undef
    vals[good] = 2.0 * links[good] / (deg[good] * (deg[good] - 1))
    return MetricField("CC", vals, undef)


def mean_geo_distance(net: Network) -> MetricField:
    """Mean great-circle distance from each node to its neighbors (km).

    Isolated nodes get value 0 and the undefined flag.
    """
    n = net.n
    vals = np.zeros(n)
    undef = np.zeros(n, dtype=bool)
    lat, lon = net.grid.lat, net.grid.lon
    for i, nbrs in enumerate(net.neighbors):
        if nbrs.size == 0:
            undef[i] = True
            continue
        d = _haversine_one_to_many(lat[i], lon[i], lat[nbrs], lon[nbrs])
        vals[i] = float(d.mean())
    return MetricField("MGD", vals, undef)


def _haversine_one_to_many(lat0, lon0, lats, lons) -> np.ndarray:
    la0, lo0 = math.radians(lat0), math.radians(lon0)
    la = np.radians(lats)
    lo = np.radians(lons)
    s1 = np.sin(0.5 * (la - la0))
    s2 = np.sin(0.5 * (lo - lo0))
    h = s1 * s1 + math.cos(la0) * np.cos(la) * s2 * s2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))


@dataclass(frozen=True)
class ShortestPathCounts:
    """BFS shortest-path bookkeeping from one source."""

    source: int
    dist: np.ndarray  # -1 where unreachable
    sigma: np.ndarray  # number of shortest paths from the source
    dependency: np.ndarray  # accumulated pair dependency of each node


def single_source_paths(net: Network, s: int) -> ShortestPathCounts:
    """Distances, path counts, and dependencies from source s."""
    n = net.n
    nbr_lists = [a.tolist() for a in net.neighbors]
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
        for w in nbr_lists[v]:
            if dist[w] < 0:
                dist[w] = dv1
                q.append(w)
            if dist[w] == dv1:
                sigma[w] += sigma[v]
                preds[w].append(v)
    delta = [0.0] * n
    for w in reversed(order):
        coeff = (1.0 + delta[w]) / sigma[w]
        for v in preds[w]:
            delta[v] += sigma[v] * coeff
    delta[s] = 0.0
    return ShortestPathCounts(
        source=s,
        dist=np.asarray(dist, dtype=np.int64),
        sigma=np.asarray(sigma),
        dependency=np.asarray(delta),
    )


def _brandes_source(neighbors: list[list[int]], s: int, n: int) -> np.ndarray:
    """Dependency of every node on shortest paths from source s (BFS Brandes).

    neighbors must be plain int lists; python lists beat numpy scalars in
    this per-edge hot loop by a wide margin.
    """
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


def betweenness(net: Network, threads: int = 1) -> MetricField:
    """Normalized betweenness centrality over unweighted shortest paths.

    Accumulates per-source dependencies (Brandes) and normalizes by
    (n-1)(n-2), which maps the sum over unordered pairs onto [0, 1].
    Unreachable pairs contribute nothing; the denominator stays global.
    Source contributions are reduced in fixed index order, so results are
    independent of thread count.
    """
    n = net.n
    if n < 3:
        raise ValueError("betweenness requires at least 3 nodes")
    nbr_lists = [a.tolist() for a in net.neighbors]
    total = np.zeros(n)
    chunk = 256
    for start in range(0, n, chunk):
        sources = range(start, min(start + chunk, n))
        deps = ordered_map(lambda s: _brandes_source(nbr_lists, s, n), sources, threads)
        total += np.sum(np.stack(deps), axis=0)
    bc = total / ((n - 1) * (n - 2))
    return MetricField("BC", bc)


def log_bc(mf: MetricField) -> MetricField:
    """Display transform log(1 + BC); preserves ordering, maps 0 to 0."""
    if (np.asarray(mf.values) < 0).any():
        raise ValueError("log transform requires non-negative values")
    return MetricField("logBC", np.log1p(mf.values), mf.undefined.copy())


_METRIC_FUNCS = {
    "DC": degree,
    "CC": clustering,
    "MGD": mean_geo_distance,
    "BC": betweenness,
}


def compute_metric(net: Network, metric: str, threads: int = 1) -> MetricField:
    """Dispatch one of DC, CC, MGD, BC by name."""
    if metric not in _METRIC_FUNCS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRIC_NAMES}")
    if metric == "BC":
        return betweenness(net, threads=threads)
    return _METRIC_FUNCS[metric](net)
