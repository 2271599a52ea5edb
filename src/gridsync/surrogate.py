"""Distance-preserving surrogate networks and ensemble-mean metrics.

The surrogate null keeps node positions and the empirical distance-dependent
link probability while randomizing which particular pairs connect; comparing
a node's metric with its surrogate-ensemble mean isolates what spatial
embedding alone (including domain boundaries) would produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .grid_io import GridIOError, GridSpec, _flag, _node_order, _read_rows, _write_rows
from .netmetrics import Network, compute_metric, edge_distances, pair_groups
from .seeding import SURROGATE_TAG, stream

PROFILE_HEADER = "bin_lo_km,bin_hi_km,pairs,links,prob"
SURROGATE_STATS_HEADER = "node_id,metric,mean,zero_flag"
BLOCK = 64  # members per member_block sum; ensemble_stats' block edges are its multiples


@dataclass(frozen=True, eq=False)
class DistanceProfile:
    """Per-distance-bin link probability p = links / pairs."""

    bin_edges: np.ndarray  # length bin_prob.size + 1, ascending, starts at 0
    bin_prob: np.ndarray
    bin_pair_count: np.ndarray
    bin_link_count: np.ndarray

    @property
    def bin_width_km(self) -> float:
        return float(self.bin_edges[1] - self.bin_edges[0])


@dataclass(frozen=True, eq=False)
class SurrogateStats:
    """Arithmetic ensemble mean of one metric, per node."""

    metric: str
    mean: np.ndarray

    @property
    def n(self) -> int:
        return int(self.mean.size)

    @property
    def zero_mean_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.mean == 0.0)


def estimate_profile(net: Network, bin_width_km: float = 50.0) -> DistanceProfile:
    """Bin all unordered node pairs by distance; probability = edges / pairs.

    Bins are [k*w, (k+1)*w) and cover [0, max pairwise distance]; bins with
    no pairs get probability 0.
    """
    if bin_width_km <= 0:
        raise ValueError("bin width must be positive")
    if net.edge_count == 0:
        raise ValueError("cannot estimate a link-probability profile from an edgeless network")
    pair_count = np.diff(pair_groups(net.grid, bin_width_km)[1])
    # a link's own distance is bitwise its distance in the pair pass, so it takes its pair's pair_groups bin
    link_bins = (edge_distances(net.grid, net.edge_array()) / bin_width_km).astype(np.intp)
    link_count = np.bincount(link_bins, minlength=pair_count.size)
    return DistanceProfile(
        bin_edges=np.arange(pair_count.size + 1, dtype=float) * bin_width_km,
        bin_prob=link_count / np.maximum(pair_count, 1),  # 0 in a bin without pairs
        bin_pair_count=pair_count,
        bin_link_count=link_count,
    )


def surrogate_member(profile: DistanceProfile, grid: GridSpec, rng: np.random.Generator) -> Network:
    """One surrogate: every pair i < j linked independently at its distance bin's probability.

    Bin by bin (netmetrics.pair_groups), a bin of N pairs at p > 0 draws
    K = rng.binomial(N, p) links, then rng.choice(N, K, replace=False,
    shuffle=False) as their positions in the bin: the law of N Bernoulli(p)
    pairs, in O(links + bins). Pairs past the profile's last bin stay unlinked.
    """
    ranks, starts = pair_groups(grid, profile.bin_width_km)
    linked = [np.empty(0, dtype=np.int64)]
    for b in np.flatnonzero(profile.bin_prob[: starts.size - 1] > 0):
        size = int(starts[b + 1] - starts[b])
        k = rng.binomial(size, profile.bin_prob[b])
        linked.append(ranks[starts[b] + rng.choice(size, k, replace=False, shuffle=False)])
    return Network.from_pair_ranks(grid, np.sort(np.concatenate(linked)))


def member_block(profile: DistanceProfile, grid: GridSpec, metrics: tuple[str, ...], seed: int, k0: int,
                 k1: int) -> np.ndarray:
    """The float64 sum of members k0..k1-1's fields, one row per metric, added in member order.

    Member k is surrogate_member drawn from seeding.stream(seed, SURROGATE_TAG, k); an undefined-flag
    node adds its convention value (0). The arguments pickle, so a spawned worker can compute a block.
    """
    sums = np.zeros((len(metrics), grid.n))
    for k in range(k0, k1):
        net = surrogate_member(profile, grid, stream(seed, SURROGATE_TAG, k))
        for row, m in zip(sums, metrics):
            row += compute_metric(net, m).values
    return sums


def ensemble_stats(profile: DistanceProfile, grid: GridSpec, metrics: tuple[str, ...] = ("DC", "CC", "MGD", "BC"),
                   ensemble_size: int = 1000, seed: int = 0) -> dict[str, SurrogateStats]:
    """Per-node ensemble means of the requested metrics: member_block sums folded over k0 = 0, 64, 128, ..."""
    if ensemble_size < 1:
        raise ValueError("ensemble_size must be >= 1")
    sums = np.zeros((len(metrics), grid.n))
    for k0 in range(0, ensemble_size, BLOCK):
        sums += member_block(profile, grid, metrics, seed, k0, min(k0 + BLOCK, ensemble_size))
    return {m: SurrogateStats(m, s / ensemble_size) for m, s in zip(metrics, sums)}


# ---------------------------------------------------------------------------
# on-disk formats


def write_profile_csv(profile: DistanceProfile, path) -> None:
    with open(path, "w", newline="") as f:
        f.write(PROFILE_HEADER + "\n")
        _write_rows(f, profile.bin_edges[:-1], profile.bin_edges[1:], profile.bin_pair_count,
                    profile.bin_link_count, profile.bin_prob)


def read_profile_csv(path) -> DistanceProfile:
    lo, hi, pairs, links, prob = _read_rows(path, PROFILE_HEADER, float, float, int, int, float)
    if not lo.size:
        raise GridIOError("no profile rows", path)
    return DistanceProfile(
        bin_edges=np.concatenate((lo, hi[-1:])), bin_prob=prob, bin_pair_count=pairs, bin_link_count=links
    )


def write_surrogate_stats_csv(stats: dict[str, SurrogateStats], path) -> None:
    with open(path, "w", newline="") as f:
        f.write(SURROGATE_STATS_HEADER + "\n")
        for metric in sorted(stats):
            st = stats[metric]
            _write_rows(f, range(st.n), repeat(metric, st.n), st.mean, (st.mean == 0.0).astype(np.int8))


def read_surrogate_stats_csv(path) -> dict[str, SurrogateStats]:
    """The per-metric means; each row's zero_flag must say whether its mean is zero."""
    ids, metrics, mean, zero = _read_rows(path, SURROGATE_STATS_HEADER, int, str, float, _flag)
    bad = np.flatnonzero(zero != (mean == 0.0))
    if bad.size:
        k = bad[0]
        raise GridIOError(f"zero_flag {int(zero[k])} of node {ids[k]} ({metrics[k]}) disagrees with its "
                          f"mean {float(mean[k])!r}", path)
    out = {}
    for metric in dict.fromkeys(metrics.tolist()):
        rows = np.flatnonzero(metrics == metric)
        out[metric] = SurrogateStats(metric, mean[rows[_node_order(path, ids[rows])]])
    return out
