"""Node-level network metrics on spatially embedded undirected graphs.

Metrics: degree (DC), clustering coefficient (CC), mean geographic distance
to neighbors (MGD, km), and normalized betweenness (BC). Nodes where a metric
is undefined (degree < 2 for CC, isolated for MGD) carry the numeric value 0
plus an undefined flag.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .grid_io import GridSpec

EARTH_RADIUS_KM = 6371.0

METRIC_NAMES = ("DC", "CC", "MGD", "BC")


@dataclass(frozen=True)
class Network:
    """Undirected unweighted graph over grid nodes in CSR form.

    Node i's neighbors are indices[indptr[i]:indptr[i + 1]], sorted ascending.
    """

    grid: GridSpec
    indptr: np.ndarray  # int64, length n + 1
    indices: np.ndarray  # int64, length 2 * edge_count

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    @staticmethod
    def from_edges(grid: GridSpec, edges: np.ndarray) -> "Network":
        """Build from an (m, 2) array of i < j pairs; duplicates rejected."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        i, j = edges[:, 0], edges[:, 1]
        if edges.size:
            bad = np.flatnonzero(((edges < 0) | (edges >= grid.n)).any(axis=1))
            if bad.size:
                k = bad[0]
                raise ValueError(f"edge ({i[k]},{j[k]}) has an endpoint out of range 0..{grid.n - 1}")
            if (i >= j).any():
                raise ValueError("edges must satisfy i < j (no self-loops)")
            if np.unique(i * grid.n + j).size != i.size:
                raise ValueError("duplicate edges")
        return Network._from_pairs(grid, i, j)

    @staticmethod
    def from_pair_mask(grid: GridSpec, linked: np.ndarray) -> "Network":
        """Build from one flag per unordered pair, in np.triu_indices(n, 1) order."""
        n = grid.n
        if np.shape(linked) != (n * (n - 1) // 2,):
            raise ValueError(f"expected {n * (n - 1) // 2} pair flags for {n} nodes")
        rank = np.flatnonzero(linked)
        row_start = np.arange(n, dtype=np.int64) * (2 * n - np.arange(n) - 1) // 2
        i = np.searchsorted(row_start, rank, side="right") - 1
        return Network._from_pairs(grid, i, rank - row_start[i] + i + 1)

    @staticmethod
    def _from_pairs(grid: GridSpec, i: np.ndarray, j: np.ndarray) -> "Network":
        """Symmetric CSR from valid, duplicate-free pairs i < j."""
        n = grid.n
        key = np.sort(np.concatenate([i * n + j, j * n + i]))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
        return Network(grid=grid, indptr=indptr, indices=key % n)

    def edge_array(self) -> np.ndarray:
        """All edges as (m, 2) with i < j, lexicographically sorted."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
        keep = src < self.indices
        return np.stack([src[keep], self.indices[keep]], axis=1)

    def adjacency(self) -> np.ndarray:
        """Dense n x n bool adjacency matrix."""
        a = np.zeros((self.n, self.n), dtype=bool)
        a[np.repeat(np.arange(self.n), self.degrees()), self.indices] = True
        return a


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


def _great_circle(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Haversine distance in km between points in radians (broadcasting)."""
    s1 = np.sin(0.5 * (lat1 - lat2))
    s2 = np.sin(0.5 * (lon1 - lon2))
    h = s1 * s1 + np.cos(lat1) * np.cos(lat2) * s2 * s2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def pair_distances(grid: GridSpec) -> np.ndarray:
    """Distances in km of all pairs i < j, in np.triu_indices(n, 1) order.

    Computed in row blocks, so no n x n matrix is built; each value is the
    one the full broadcast of _great_circle gives for that pair.
    """
    n = grid.n
    lat = np.radians(grid.lat)
    lon = np.radians(grid.lon)
    out = np.empty(n * (n - 1) // 2)
    rows = max(1, (1 << 20) // max(n, 1))
    pos = 0
    for r0 in range(0, n - 1, rows):
        r1 = min(r0 + rows, n - 1)
        # rows r0..r1-1 against columns r0+1..n-1; keep column > row
        block = _great_circle(lat[r0:r1, None], lon[r0:r1, None], lat[None, r0 + 1 :], lon[None, r0 + 1 :])
        upper = block[np.arange(r1 - r0)[:, None] <= np.arange(n - r0 - 1)[None, :]]
        out[pos : pos + upper.size] = upper
        pos += upper.size
    return out


def degree(net: Network) -> MetricField:
    """Number of links per node."""
    return MetricField("DC", net.degrees().astype(float))


# set bits of every byte value; np.bitwise_count needs numpy >= 2.0
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def clustering(net: Network) -> MetricField:
    """Fraction of realized links among each node's neighbor pairs.

    Each edge's common-neighbor count is the popcount of the AND of its two
    bit-packed adjacency rows; summed over a node's edges it counts every
    link among the node's neighbors twice. Nodes with degree < 2 get value 0
    and the undefined flag.
    """
    n = net.n
    deg = net.degrees()
    edges = net.edge_array()
    bits = np.packbits(net.adjacency(), axis=1)
    common = np.empty(edges.shape[0], dtype=np.int64)
    step = max(1, (1 << 22) // max(bits.shape[1], 1))
    for e0 in range(0, edges.shape[0], step):
        i, j = edges[e0 : e0 + step, 0], edges[e0 : e0 + step, 1]
        common[e0 : e0 + step] = _POPCOUNT[bits[i] & bits[j]].sum(axis=1)
    twice_links = np.bincount(edges.ravel(), np.repeat(common, 2), minlength=n)
    undef = deg < 2
    vals = np.zeros(n)
    good = ~undef
    vals[good] = twice_links[good] / (deg[good] * (deg[good] - 1))
    return MetricField("CC", vals, undef)


def mean_geo_distance(net: Network) -> MetricField:
    """Mean great-circle distance from each node to its neighbors (km).

    Isolated nodes get value 0 and the undefined flag.
    """
    deg = net.degrees()
    edges = net.edge_array()
    lat = np.radians(net.grid.lat)
    lon = np.radians(net.grid.lon)
    i, j = edges[:, 0], edges[:, 1]
    d = _great_circle(lat[i], lon[i], lat[j], lon[j])
    total = np.bincount(edges.ravel(), np.repeat(d, 2), minlength=net.n)
    undef = deg == 0
    vals = np.zeros(net.n)
    vals[~undef] = total[~undef] / deg[~undef]
    return MetricField("MGD", vals, undef)


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


def betweenness(net: Network) -> MetricField:
    """Normalized betweenness centrality over unweighted shortest paths.

    Accumulates per-source dependencies (Brandes) and normalizes by
    (n-1)(n-2), which maps the sum over unordered pairs onto [0, 1].
    Unreachable pairs contribute nothing; the denominator stays global.
    Source contributions are summed in source order, in blocks of 256.
    """
    n = net.n
    if n < 3:
        raise ValueError("betweenness requires at least 3 nodes")
    ptr = net.indptr.tolist()
    idx = net.indices.tolist()
    nbr_lists = [idx[ptr[v] : ptr[v + 1]] for v in range(n)]
    total = np.zeros(n)
    chunk = 256
    for start in range(0, n, chunk):
        deps = [_brandes_source(nbr_lists, s, n) for s in range(start, min(start + chunk, n))]
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


def compute_metric(net: Network, metric: str) -> MetricField:
    """Dispatch one of DC, CC, MGD, BC by name."""
    if metric not in _METRIC_FUNCS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRIC_NAMES}")
    return _METRIC_FUNCS[metric](net)
