"""Node-level network metrics on spatially embedded undirected graphs.

Metrics: degree (DC), clustering coefficient (CC), mean geographic distance
to neighbors (MGD, km), and normalized betweenness (BC). Nodes where a metric
is undefined (degree < 2 for CC, isolated for MGD) carry the value 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid_io import GridSpec

EARTH_RADIUS_KM = 6371.0

METRIC_NAMES = ("DC", "CC", "MGD", "BC")


def pair_rank(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Position of pair (i, j), i < j, within the np.triu_indices(n, 1) order."""
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


@dataclass(frozen=True, eq=False)
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
        rank = np.sort(pair_rank(i, j, grid.n))
        if (np.diff(rank) == 0).any():
            raise ValueError("duplicate edges")
        return Network.from_pair_ranks(grid, rank)

    @staticmethod
    def from_pair_ranks(grid: GridSpec, rank: np.ndarray) -> "Network":
        """Build from the strictly ascending int64 pair_rank of every linked pair i < j.

        Node v lists the i of its links (i, v), in a stable order by v, then
        the j of its links (v, j), in rank order; counts place both halves.
        """
        n, m = grid.n, rank.size
        rows = np.arange(n, dtype=np.int64)
        row_start = pair_rank(rows, rows + 1, n)
        hi = np.diff(np.searchsorted(rank, row_start), append=m)  # links (v, j) of each node v
        i = np.repeat(rows, hi)
        j = rank - np.repeat(row_start - rows - 1, hi)
        lo = np.bincount(j, minlength=n)  # links (i, v) of each node v
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lo + hi, out=indptr[1:])
        below = np.cumsum(lo)
        indices = np.empty(2 * m, dtype=np.int64)
        link = np.arange(m)
        indices[link + np.repeat(below, hi)] = j
        # a stable order by j in the smallest dtype that holds a node id (numpy's radix sort below 65,536 nodes)
        order = np.argsort(j.astype(np.min_scalar_type(n)), kind="stable")
        indices[link + np.repeat(indptr[:-1] - below + lo, lo)] = i[order]
        return Network(grid=grid, indptr=indptr, indices=indices)

    def edge_array(self) -> np.ndarray:
        """All edges as (m, 2) with i < j, lexicographically sorted."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
        keep = src < self.indices
        return np.stack([src[keep], self.indices[keep]], axis=1)


@dataclass(frozen=True, eq=False)
class MetricField:
    """One scalar per node for one metric."""

    metric: str
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    @property
    def n(self) -> int:
        return int(self.values.size)


def _sin_half_diff(a, b, out=None) -> np.ndarray:
    """sin((a - b) * 0.5) (broadcasting), computed in place in out (allocated when None)."""
    out = np.subtract(a, b, out=out)
    out *= 0.5
    return np.sin(out, out=out)


def _haversine(cos1, cos2, s_lon, s_lat2, out=None) -> np.ndarray:
    """Haversine distance in km (broadcasting) from its factors, computed in place in out.

    cos1 and cos2 are the latitude cosines, s_lon is sin(dlon / 2) and s_lat2
    is sin(dlat / 2) squared, each as _sin_half_diff gives it. Each element is
    the double of cos1*cos2*s_lon*s_lon + s_lat2 evaluated in that order, then
    sqrt, min 1, arcsin and times 2R, whatever the operands' shapes.
    """
    out = np.multiply(cos1, cos2, out=out)
    out *= s_lon
    out *= s_lon
    out += s_lat2
    np.sqrt(out, out=out)
    np.minimum(out, 1.0, out=out)
    np.arcsin(out, out=out)
    out *= 2.0 * EARTH_RADIUS_KM
    return out


# pairs per block of the all-pairs distance pass, so a block and its scratch stay in cache
_PAIR_BLOCK = 1 << 15


def _by_last_use(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x's distinct values ordered by the last position each takes in x, those positions, and each
    element's index into the values: positions c and later hold values[searchsorted(last, c):]."""
    values, first, code = np.unique(x[::-1], return_index=True, return_inverse=True)
    order = np.argsort(first)[::-1]
    index = np.empty_like(order)
    index[order] = np.arange(order.size)
    return values[order], x.size - 1 - first[order], index[code[::-1]]


def _pair_blocks(grid: GridSpec):
    """Yield (position of pair (i, i + 1), km from i to each j > i) for every row i in turn.

    Each row is a view into one buffer that _haversine fills in place, a block
    of max(1, _PAIR_BLOCK // n) rows at a time against the columns right of
    the block's first row: no n x n matrix and no copy of a block is built.
    The sines come from per-block tables of sin(dlat / 2)^2 and sin(dlon / 2)
    of each row against each distinct latitude and longitude among the
    block's columns (at most 57 each on a 57 x 57 lattice), gathered per pair;
    a table with one column per column is used as it stands. A table entry is
    the same double as the per-pair sine, so every distance keeps its bits.
    """
    n = grid.n
    lat = np.radians(grid.lat)
    lon = np.radians(grid.lon)
    cos = np.cos(lat)
    rows = max(1, min(_PAIR_BLOCK // max(n, 1), n - 1))
    r0s = range(0, n - 1, rows)
    buf, s_lat2, s_lon = np.empty((3, rows * max(n - 1, 0)))
    tables = []
    for x in (lat, lon):
        values, last, index = _by_last_use(x)
        # the columns of the block at r0, nodes r0 + 1 on, hold values[searchsorted(last, r0 + 1):]
        tables.append((x, values, index, np.searchsorted(last, np.add(r0s, 1)).tolist()))
    pos = 0
    for b, r0 in enumerate(r0s):
        r1 = min(r0 + rows, n - 1)
        m = n - r0 - 1
        block, *factors = (a[: (r1 - r0) * m].reshape(r1 - r0, m) for a in (buf, s_lat2, s_lon))
        for (x, values, index, firsts), factor in zip(tables, factors):
            first = firsts[b]
            width = values.size - first
            # buf is free until _haversine; a table of one column per column is the factor itself
            table = factor if width == m else buf[: (r1 - r0) * width].reshape(r1 - r0, width)
            _sin_half_diff(x[r0:r1, None], values[first:], out=table)
            if x is lat:
                table *= table
            if width < m:  # the indices are in range; mode "clip" writes to out without a buffer
                np.take(table, index[r0 + 1 :] - first, axis=1, out=factor, mode="clip")
        _haversine(cos[r0:r1, None], cos[None, r0 + 1 :], factors[1], factors[0], out=block)
        for k in range(r1 - r0):  # column k of the block is node r0 + k + 1, row r0 + k's first partner
            yield pos, block[k, k:]
            pos += m - k


def pair_distances(grid: GridSpec) -> np.ndarray:
    """Distances in km of all pairs i < j, in np.triu_indices(n, 1) order."""
    out = np.empty(grid.n * (grid.n - 1) // 2)
    for pos, d in _pair_blocks(grid):
        out[pos : pos + d.size] = d
    return out


def pair_bins(grid: GridSpec, bin_width_km: float) -> np.ndarray:
    """Distance bin floor(d / bin_width_km) of every pair i < j, in np.triu_indices(n, 1) order.

    Computed once per grid and width, read-only, in the smallest unsigned
    dtype that holds the bin of half the Earth's circumference. The distances
    come from _pair_blocks' per-block sine tables and are bitwise those of a
    haversine with each pair's own sines, so the bins are too.
    """
    key = ("pair_bins", float(bin_width_km))
    if key not in grid.derived:
        dtype = np.min_scalar_type(int(np.pi * EARTH_RADIUS_KM / bin_width_km) + 1)
        out = np.empty(grid.n * (grid.n - 1) // 2, dtype=dtype)
        for pos, d in _pair_blocks(grid):
            # the cast truncates, which is floor for d >= 0
            np.divide(d, bin_width_km, out=out[pos : pos + d.size], casting="unsafe")
        out.setflags(write=False)
        grid.derived[key] = out
    return grid.derived[key]


# pairs per chunk of the counting sort in pair_groups
_GROUP_CHUNK = 1 << 16


def pair_groups(grid: GridSpec, bin_width_km: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j grouped by distance bin, as (ranks, starts), computed once per grid and width.

    ranks[starts[b]:starts[b + 1]] are the np.triu_indices(n, 1) positions of
    pair_bins' bin b, ascending: a stable counting sort in which each chunk of
    _GROUP_CHUNK pairs, sorted by bin, adds one slice to each bin's ranks. A
    chunk is sorted as one array of keys bin << s | offset in the chunk (uint32
    where the bits fit): the keys are unique, so their order is the stable
    order by bin.
    """
    key = ("pair_groups", float(bin_width_km))
    if key not in grid.derived:
        bins = pair_bins(grid, bin_width_km)
        chunks = [bins[c0 : c0 + _GROUP_CHUNK] for c0 in range(0, bins.size, _GROUP_CHUNK)]
        nb = int(bins.max(initial=0)) + 1
        count = np.array([np.bincount(c, minlength=nb) for c in chunks], dtype=np.intp).reshape(-1, nb)
        starts = np.concatenate([[0], np.cumsum(count.sum(axis=0))])
        # where chunk c's pairs of bin b sit in the chunk sorted by bin, and where they go in ranks
        src = (np.cumsum(count, axis=1) - count).tolist()
        dst = (starts[:-1] + np.cumsum(count, axis=0) - count).tolist()
        ranks = np.empty(bins.size, dtype=np.int32 if bins.size < 2**31 else np.int64)
        size = min(_GROUP_CHUNK, bins.size)
        shift = max(size - 1, 0).bit_length()  # bits of an offset in a chunk
        packed_type = np.uint32 if (nb - 1).bit_length() + shift <= 32 else np.uint64
        offset = np.arange(size, dtype=packed_type)
        for c, chunk in enumerate(chunks):
            packed = chunk.astype(packed_type)
            packed <<= shift
            packed |= offset[: chunk.size]
            packed.sort()
            packed &= (1 << shift) - 1
            order = packed.astype(ranks.dtype)
            order += c * _GROUP_CHUNK
            for k, s, d in zip(count[c].tolist(), src[c], dst[c]):
                ranks[d : d + k] = order[s : s + k]
        grid.derived[key] = ranks, starts
        for a in grid.derived[key]:
            a.setflags(write=False)
    return grid.derived[key]


def degree(net: Network) -> MetricField:
    """Number of links per node."""
    return MetricField("DC", net.degrees().astype(float))


_CC_STEP_WORDS = 1 << 16  # adjacency words a side per step of clustering, so a step stays in cache


def clustering(net: Network) -> MetricField:
    """Fraction of realized links among each node's neighbor pairs.

    Each edge's common-neighbor count is the popcount of the AND of its two
    adjacency rows (neighbor c is bit c % 64 of 64-bit word c // 64), about
    _CC_STEP_WORDS words a side at a time; summed over a node's edges it
    counts every link among its neighbors twice. Degree < 2 gives value 0.
    """
    n = net.n
    deg = net.degrees()
    edges = net.edge_array()
    words = -(-n // 64)
    bits = np.zeros((n, words), dtype=np.uint64)
    col = net.indices
    np.bitwise_or.at(bits.ravel(), np.repeat(np.arange(n) * words, deg) + (col >> 6),
                     np.left_shift(np.uint64(1), (col & 63).astype(np.uint64)))
    common = np.empty(edges.shape[0], dtype=np.int64)
    step = max(1, _CC_STEP_WORDS // max(words, 1))
    for e0 in range(0, edges.shape[0], step):
        both = bits[edges[e0 : e0 + step, 0]]
        both &= bits[edges[e0 : e0 + step, 1]]
        common[e0 : e0 + step] = np.bitwise_count(both).sum(axis=1, dtype=np.int64)
    twice_links = np.bincount(edges.ravel(), np.repeat(common, 2), minlength=n)
    vals = np.zeros(n)
    good = deg >= 2
    vals[good] = twice_links[good] / (deg[good] * (deg[good] - 1))
    return MetricField("CC", vals)


def mean_geo_distance(net: Network) -> MetricField:
    """Mean great-circle distance from each node to its neighbors (km).

    Isolated nodes get value 0.
    """
    deg = net.degrees()
    edges = net.edge_array()
    lat = np.radians(net.grid.lat)
    lon = np.radians(net.grid.lon)
    cos = np.cos(lat)
    i, j = edges[:, 0], edges[:, 1]
    s_lat2 = _sin_half_diff(lat[i], lat[j])
    s_lat2 *= s_lat2
    d = _haversine(cos[i], cos[j], _sin_half_diff(lon[i], lon[j]), s_lat2)
    total = np.bincount(edges.ravel(), np.repeat(d, 2), minlength=net.n)
    vals = np.zeros(net.n)
    linked = deg > 0
    vals[linked] = total[linked] / deg[linked]
    return MetricField("MGD", vals)


# sources per batched BFS of betweenness; its state is a few arrays of _BC_BLOCK * n keys
_BC_BLOCK = 16


def _expand(net: Network, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every CSR edge out of the flat keys slot * n + node, as (key, neighbor key) arrays."""
    n = net.n
    node = keys % n
    cnt = net.indptr[node + 1] - net.indptr[node]
    first = np.cumsum(cnt) - cnt
    pos = np.arange(cnt.sum()) + np.repeat(net.indptr[node] - first, cnt)
    return np.repeat(keys, cnt), np.repeat(keys - node, cnt) + net.indices[pos]


def _brandes_block(net: Network, sources: np.ndarray) -> np.ndarray:
    """Dependencies delta_s(v) of every source s in `sources` on every node v, shape (b, n).

    Level-synchronous Brandes over all b sources at once. A BFS state is a
    flat key slot * n + node. Each level finds its shortest-path edges
    (parent on this level, child not yet reached) by expanding through CSR
    whichever side has fewer edges: the frontier (keep unreached children)
    or the unreached keys (keep frontier neighbours). Either way bincount
    meets every bin's terms in ascending key order, so both give the same
    bytes. sigma of the next level is one bincount over those edges, and
    the backward pass walks the stored levels in reverse, adding
    sigma_v * (1 + delta_w) / sigma_w with one bincount per level. sigma is
    a float64 integer, exact below 2^53.
    """
    n = net.n
    size = sources.size * n
    deg = net.degrees()
    sigma = np.zeros(size)
    level = np.full(size, -1, dtype=np.intp)
    front = np.arange(sources.size) * n + sources
    sigma[front] = 1.0
    level[front] = 0
    levels = []
    out = deg[sources].sum()  # edges out of the frontier
    todo = sources.size * net.indices.size - out  # edges out of unreached keys
    for d in range(n):
        if out <= todo:
            parent, child = _expand(net, front)
            keep = level[child] < 0
        else:
            child, parent = _expand(net, np.flatnonzero(level < 0))
            keep = level[parent] == d
        parent, child = parent[keep], child[keep]
        step = np.bincount(child, sigma[parent], minlength=size)
        sigma += step
        front = np.flatnonzero(step)
        if not front.size:
            break
        level[front] = d + 1
        out = deg[front % n].sum()
        todo -= out
        levels.append((parent, child))
    delta = np.zeros(size)
    # the first level's parents are the sources, whose own dependency stays 0
    for parent, child in reversed(levels[1:]):
        coeff = (1.0 + delta[child]) / sigma[child]
        delta += np.bincount(parent, sigma[parent] * coeff, minlength=size)
    return delta.reshape(sources.size, n)


def betweenness(net: Network) -> MetricField:
    """Normalized betweenness centrality over unweighted shortest paths.

    Accumulates per-source dependencies (Brandes) and normalizes by
    (n-1)(n-2), which maps the sum over unordered pairs onto [0, 1].
    Unreachable pairs contribute nothing; the denominator stays global.
    Sources run in blocks of _BC_BLOCK; each block's dependencies are summed
    in source order and the block sums are added in block order.
    """
    n = net.n
    if n < 3:
        raise ValueError("betweenness requires at least 3 nodes")
    total = np.zeros(n)
    for s0 in range(0, n, _BC_BLOCK):
        total += _brandes_block(net, np.arange(s0, min(s0 + _BC_BLOCK, n))).sum(axis=0)
    bc = total / ((n - 1) * (n - 2))
    return MetricField("BC", bc)


def log_bc(mf: MetricField) -> MetricField:
    """Display transform log(1 + BC); preserves ordering, maps 0 to 0."""
    if (np.asarray(mf.values) < 0).any():
        raise ValueError("log transform requires non-negative values")
    return MetricField("logBC", np.log1p(mf.values))


_METRIC_FUNCS = {"DC": degree, "CC": clustering, "MGD": mean_geo_distance, "BC": betweenness}


def compute_metric(net: Network, metric: str) -> MetricField:
    """Dispatch one of DC, CC, MGD, BC by name."""
    if metric not in _METRIC_FUNCS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRIC_NAMES}")
    return _METRIC_FUNCS[metric](net)
