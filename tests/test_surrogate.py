import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat

import numpy as np
import pytest

from gridsync import netmetrics
from gridsync.grid_io import GridSpec
from gridsync.netmetrics import Network, degree, edge_distances, pair_bins, pair_distances, pair_groups, pair_rank
from gridsync.seeding import SURROGATE_TAG, mix64, stream
from gridsync.surrogate import (
    BLOCK,
    DistanceProfile,
    ensemble_stats,
    estimate_profile,
    member_block,
    read_profile_csv,
    read_surrogate_stats_csv,
    surrogate_member,
    write_profile_csv,
    write_surrogate_stats_csv,
)
from gridsync.synth import Exponential, HardCutoff, RectLattice, SynthNetSpec, gen_embedded_network, lattice_grid

from conftest import random_grid, random_network, shared_coordinate_grid
from oracles import (
    ensemble_means_oracle,
    has_edge,
    haversine_matrix,
    pair_link_probabilities,
    sample_surrogate,
    surrogate_member_oracle,
)


def complete_net(n, seed=0):
    grid = random_grid(n, seed)
    iu, ju = np.triu_indices(n, k=1)
    return Network.from_edges(grid, np.stack([iu, ju], axis=1))


# ---------------------------------------------------------------------------
# profile estimation


@pytest.mark.parametrize("chunk", [netmetrics._GROUP_CHUNK, 997, 1 << 30])
def test_profile_pair_count_equals_whole_bincount(monkeypatch, chunk):
    # 400 nodes have 79,800 pairs: 2 grouping chunks at the default, 81 chunks of 997 pairs, or one chunk
    monkeypatch.setattr(netmetrics, "_GROUP_CHUNK", chunk)
    net = random_network(400, 0.05, 9)
    prof = estimate_profile(net, bin_width_km=50.0)
    bins = pair_bins(net.grid, 50.0)
    whole = np.bincount(bins)
    assert prof.bin_pair_count.dtype == whole.dtype
    assert np.array_equal(prof.bin_pair_count, whole)
    ranks, starts = pair_groups(net.grid, 50.0)
    assert ranks.dtype == np.int32 and not (ranks.flags.writeable or starts.flags.writeable)
    assert np.array_equal(ranks, np.argsort(bins, kind="stable"))
    assert starts.tolist() == [0] + np.cumsum(whole).tolist()
    assert pair_groups(net.grid, 50.0)[0] is ranks


@pytest.mark.parametrize("chunk", [netmetrics._GROUP_CHUNK, 1 << 30])
def test_pair_groups_with_64_bit_keys(monkeypatch, chunk):
    # bins of 70 m take 17 bits, so a chunk's keys bin << 16 (or << 17) | offset need 64
    monkeypatch.setattr(netmetrics, "_GROUP_CHUNK", chunk)
    grid = random_grid(400, 9)
    bins = pair_bins(grid, 0.07)
    assert int(bins.max()).bit_length() + 16 > 32
    ranks, starts = pair_groups(grid, 0.07)
    assert np.array_equal(ranks, np.argsort(bins, kind="stable"))
    assert starts.tolist() == [0] + np.cumsum(np.bincount(bins)).tolist()


@pytest.mark.parametrize("width", [50.0, 100.0])
@pytest.mark.parametrize("name", ["lattice", "shuffled-lattice", "jittered-lattice", "random"])
def test_profile_link_counts_equal_the_pair_bins_of_the_links(name, width):
    # the profile bins each link by its own haversine; the definition is the pair pass's bin at the link's rank.
    # The lattice's spacing is the narrower width, so many of its pairs sit on a bin edge
    grid = random_grid(400, 23) if name == "random" else shared_coordinate_grid(name)
    n = grid.n
    d = haversine_matrix(grid)[np.triu_indices(n, 1)]
    on_edge = np.flatnonzero(np.abs(d / width - np.rint(d / width)) < 1e-9)
    rank = np.union1d(np.random.default_rng(5).choice(d.size, d.size // 20, replace=False), on_edge)
    net = Network.from_pair_ranks(grid, rank)
    if name in ("lattice", "shuffled-lattice"):
        assert on_edge.size > 200
    prof = estimate_profile(net, width)
    edges = net.edge_array()
    link_rank = pair_rank(edges[:, 0], edges[:, 1], n)
    assert edge_distances(grid, edges).tobytes() == pair_distances(grid)[link_rank].tobytes()
    expect = np.bincount(pair_bins(grid, width)[link_rank], minlength=prof.n_bins)
    assert prof.bin_link_count.tolist() == expect.tolist()
    assert prof.bin_prob.tobytes() == (expect / np.maximum(prof.bin_pair_count, 1)).tobytes()


def test_profile_complete_graph():
    prof = estimate_profile(complete_net(8), bin_width_km=100.0)
    nonempty = prof.bin_pair_count > 0
    assert np.all(prof.bin_prob[nonempty] == 1.0)
    assert np.all(prof.bin_prob[~nonempty] == 0.0)
    assert prof.bin_pair_count.sum() == 28
    assert prof.bin_link_count.sum() == 28


def test_profile_rejects_edgeless_and_bad_width():
    grid = random_grid(5, 1)
    empty = Network.from_edges(grid, np.empty((0, 2)))
    with pytest.raises(ValueError, match="edgeless"):
        estimate_profile(empty)
    with pytest.raises(ValueError, match="positive"):
        estimate_profile(complete_net(4), bin_width_km=0.0)


def test_profile_hard_cutoff_brute_force():
    layout = RectLattice(rows=6, cols=6, spacing_km=50.0)
    net = gen_embedded_network(SynthNetSpec(layout=layout, link_model=HardCutoff(80.0), seed=1))
    w = 25.0
    prof = estimate_profile(net, bin_width_km=w)
    # brute-force bin counts from the distance matrix
    d = haversine_matrix(net.grid)
    iu, ju = np.triu_indices(net.n, k=1)
    idx = np.minimum(np.floor(d[iu, ju] / w).astype(int), prof.n_bins - 1)
    assert np.array_equal(prof.bin_pair_count, np.bincount(idx, minlength=prof.n_bins))
    # probability is 1 below the cutoff bin boundary and 0 above it
    lo_bins = prof.bin_edges[1:] <= 80.0 - 1e-9
    nonempty = prof.bin_pair_count > 0
    assert np.all(prof.bin_prob[lo_bins & nonempty] == 1.0)
    hi_bins = prof.bin_edges[:-1] >= 80.0
    assert np.all(prof.bin_prob[hi_bins & nonempty] == 0.0)


def test_profile_covers_max_distance(rng):
    net = random_network(12, 0.4, 7)
    prof = estimate_profile(net, bin_width_km=75.0)
    d = haversine_matrix(net.grid)
    assert prof.bin_edges[-1] >= d.max()
    assert prof.bin_pair_count.sum() == 12 * 11 // 2


# ---------------------------------------------------------------------------
# sampling


def const_profile(p, max_km=40000.0, width=1000.0):
    n_bins = int(max_km / width)
    return DistanceProfile(
        bin_edges=np.arange(n_bins + 1) * width,
        bin_prob=np.full(n_bins, float(p)),
        bin_pair_count=np.ones(n_bins, dtype=int),
        bin_link_count=np.zeros(n_bins, dtype=int),
    )


def test_sample_p_zero_and_one():
    grid = random_grid(10, 3)
    assert sample_surrogate(const_profile(0.0), grid, 1).edge_count == 0
    full = sample_surrogate(const_profile(1.0), grid, 1)
    assert full.edge_count == 10 * 9 // 2


def test_sample_deterministic_per_seed():
    grid = random_grid(12, 5)
    prof = const_profile(0.3)
    a = sample_surrogate(prof, grid, 123).edge_array()
    b = sample_surrogate(prof, grid, 123).edge_array()
    c = sample_surrogate(prof, grid, 124).edge_array()
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()


def test_pair_link_probabilities_follow_bins():
    net = random_network(30, 0.3, 21)
    w = 150.0
    prof = estimate_profile(net, bin_width_km=w)
    p = pair_link_probabilities(prof, net.grid)
    d = haversine_matrix(net.grid)[np.triu_indices(net.n, k=1)]
    assert p.tolist() == [prof.bin_prob[math.floor(x / w)] for x in d]
    # pairs beyond the last bin of a narrower profile get 0
    short = DistanceProfile(prof.bin_edges[:3], prof.bin_prob[:2], prof.bin_pair_count[:2], prof.bin_link_count[:2])
    q = pair_link_probabilities(short, net.grid)
    assert np.all(q[d >= 2 * w] == 0.0)
    assert np.array_equal(q[d < 2 * w], p[d < 2 * w])
    # a profile with more bins than the grid's bin dtype can number
    assert np.all(pair_link_probabilities(const_profile(0.5, max_km=45000.0, width=w), net.grid) == 0.5)


def member_oracle(profile, grid, member_seed):
    """CSR of the brute-force per-bin member, built from a dense matrix, independent of Network."""
    i, j = surrogate_member_oracle(profile, grid, np.random.Generator(np.random.PCG64(member_seed)))
    n = grid.n
    a = np.zeros((n, n), dtype=bool)
    a[i, j] = True
    a |= a.T
    rows, cols = np.nonzero(a)
    return np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))]), cols, i, j


@pytest.mark.parametrize("profile", ["estimated", "zero", "one"])
def test_member_csr_equals_pairwise_draw(profile):
    net = random_network(40, 0.2, 31)
    prof = {
        "estimated": estimate_profile(net, bin_width_km=200.0),
        "zero": const_profile(0.0),
        "one": const_profile(1.0),
    }[profile]
    for member_seed in (0, 1, 77, mix64(5, SURROGATE_TAG, 3)):
        got = sample_surrogate(prof, net.grid, member_seed)
        indptr, indices, i, j = member_oracle(prof, net.grid, member_seed)
        assert got.indptr.tolist() == indptr.tolist()
        assert got.indices.tolist() == indices.tolist()
        assert got.indptr.dtype == got.indices.dtype == np.int64
        ref = Network.from_edges(net.grid, np.stack([i, j], axis=1))
        assert np.array_equal(got.indices, ref.indices) and np.array_equal(got.indptr, ref.indptr)
    if profile == "zero":
        assert got.edge_count == 0
    if profile == "one":
        assert got.edge_count == net.n * (net.n - 1) // 2


def test_member_draw_across_chunks_and_row_blocks():
    # 1,500 nodes: 1,124,250 pairs take 18 grouping chunks and 72 distance row blocks
    net = random_network(1500, 0.01, 37)
    prof = estimate_profile(net, bin_width_km=300.0)
    assert 17 * netmetrics._GROUP_CHUNK < net.n * (net.n - 1) // 2
    got = sample_surrogate(prof, net.grid, mix64(8, SURROGATE_TAG, 1))
    indptr, indices, i, j = member_oracle(prof, net.grid, mix64(8, SURROGATE_TAG, 1))
    assert np.array_equal(got.indptr, indptr) and np.array_equal(got.indices, indices)
    assert pair_rank(i, j, net.n).max() >= 17 * netmetrics._GROUP_CHUNK


def banded_profile(probs, width):
    """A profile of the given per-bin probabilities (pair and link counts unused by the draw)."""
    k = len(probs)
    return DistanceProfile(np.arange(k + 1) * width, np.asarray(probs, dtype=float),
                           np.ones(k, dtype=int), np.zeros(k, dtype=int))


# 400 nodes in 600 km bins: bins 1-4 hold more than 10,000 pairs each, and the
# ninth bin, past the profile's last, 109 pairs
WIDE_BINS = (1.0, 0.0, 0.004, 0.3, 0.05, 0.5, 0.0, 1.0)


def test_member_with_bins_of_over_10k_pairs_equals_oracle():
    # above 10,000 pairs numpy's choice takes Floyd's algorithm up to N/50 links
    # and a tail shuffle beyond: the p = 0.004 bin takes the first, the p = 0.05 and 0.3 bins the second
    grid = random_grid(400, 43)
    prof = banded_profile(WIDE_BINS, 600.0)
    sizes = np.diff(pair_groups(grid, 600.0)[1])
    assert (sizes[1:5] > 10_000).all() and sizes.size == len(WIDE_BINS) + 1
    for member_seed in (3, mix64(2, SURROGATE_TAG, 0)):
        got = sample_surrogate(prof, grid, member_seed).edge_array()
        i, j = surrogate_member_oracle(prof, grid, np.random.Generator(np.random.PCG64(member_seed)))
        assert np.array_equal(got, np.stack([i, j], axis=1))


def test_member_link_frequency_within_binomial_bounds():
    # each pair's link count over 2,000 members is Binomial(2000, p_b) if the
    # per-bin subsets are uniform; bins at p = 0 and p = 1 are exact
    from scipy.stats import binom

    grid = random_grid(400, 43)
    prof = banded_profile(WIDE_BINS, 600.0)
    p = pair_link_probabilities(prof, grid)
    members = 2000
    counts = np.zeros(p.size, dtype=np.int64)
    for k in range(members):
        e = surrogate_member(prof, grid, stream(11, SURROGATE_TAG, k)).edge_array()
        counts += np.bincount(pair_rank(e[:, 0], e[:, 1], grid.n), minlength=p.size)
    assert (counts[p == 0.0] == 0).all() and (counts[p == 1.0] == members).all()
    assert (p == 0.0).sum() > 10_000 and (p == 1.0).any()
    # each count inside its central binomial interval of mass 1 - 1e-7, so a
    # chance failure among the 79,800 pairs has probability below 1e-2
    mid = (p > 0) & (p < 1)
    lo, hi = binom.ppf(5e-8, members, p[mid]), binom.isf(5e-8, members, p[mid])
    assert ((counts[mid] >= lo) & (counts[mid] <= hi)).all()
    # and the bins' totals sit within 4 sigma of their expected link counts
    bins = pair_bins(grid, 600.0)
    prob = np.append(prof.bin_prob, 0.0)  # the bin past the profile's last
    expect = members * np.bincount(bins) * prob
    assert (np.abs(np.bincount(bins, counts) - expect) <= 4 * np.sqrt(expect * (1 - prob)) + 1e-9).all()


def test_profile_and_ensemble_share_one_distance_pass(monkeypatch):
    passes = []
    blocks = netmetrics._pair_blocks
    monkeypatch.setattr(netmetrics, "_pair_blocks", lambda grid: passes.append(grid) or blocks(grid))
    net = random_network(40, 0.2, 3)
    prof = estimate_profile(net, bin_width_km=100.0)
    ensemble_stats(prof, net.grid, metrics=("DC",), ensemble_size=3, seed=4)
    assert len(passes) == 1 and passes[0] is net.grid
    pair_link_probabilities(prof, net.grid)  # the test oracle makes its own pass
    assert len(passes) == 2


def test_sample_expected_edge_count(rng):
    net = random_network(25, 0.25, 11)
    prof = estimate_profile(net, bin_width_km=300.0)
    p = pair_link_probabilities(prof, net.grid)
    expect = p.sum()
    var = (p * (1 - p)).sum()
    counts = [sample_surrogate(prof, net.grid, int(s)).edge_count for s in range(200)]
    assert abs(np.mean(counts) - expect) <= 3 * np.sqrt(var / 200)


def test_profile_consistency_resampling(rng):
    # per-bin link counts of resampled members match the profile within 3 sigma
    net = random_network(20, 0.3, 13)
    w = 200.0
    prof = estimate_profile(net, bin_width_km=w)
    p = pair_link_probabilities(prof, net.grid)
    iu, ju = np.triu_indices(net.n, k=1)
    d = haversine_matrix(net.grid)[iu, ju]
    idx = np.minimum(np.floor(d / w).astype(int), prof.n_bins - 1)
    K = 200
    link_sums = np.zeros(prof.n_bins)
    for s in range(K):
        sur = sample_surrogate(prof, net.grid, mix64(99, s))
        linked = np.fromiter(
            (has_edge(sur, int(i), int(j)) for i, j in zip(iu, ju)), bool, count=iu.size
        )
        link_sums += np.bincount(idx[linked], minlength=prof.n_bins)
    mean_links = link_sums / K
    expect = prof.bin_pair_count * prof.bin_prob
    sigma = np.sqrt(np.maximum(prof.bin_pair_count * prof.bin_prob * (1 - prof.bin_prob), 1e-12) / K)
    assert np.all(np.abs(mean_links - expect) <= 3 * sigma + 1e-9)


# ---------------------------------------------------------------------------
# ensemble statistics


def test_ensemble_size_one_equals_member():
    grid = random_grid(10, 17)
    prof = const_profile(0.4)
    stats = ensemble_stats(prof, grid, metrics=("DC",), ensemble_size=1, seed=55)
    member = surrogate_member(prof, grid, stream(55, SURROGATE_TAG, 0))
    assert np.array_equal(stats["DC"].mean, degree(member).values)


@pytest.mark.parametrize("size", [1, 63, 64, 65, 130])
def test_ensemble_same_bytes_on_rerun(size):
    # 64 members sum per block, so 63, 64, 65 and 130 end inside, on and past a block edge;
    # a rerun on a fresh grid and 0.8.0's stacked sum per block give the same bytes
    net = random_network(30, 0.2, 47)
    prof = estimate_profile(net, bin_width_km=150.0)
    metrics = ("DC", "CC", "MGD", "BC")
    runs = [ensemble_stats(prof, GridSpec(lat=net.grid.lat, lon=net.grid.lon), metrics=metrics,
                           ensemble_size=size, seed=5) for _ in range(2)]
    oracle = ensemble_means_oracle(prof, net.grid, metrics, size, 5)
    for m in metrics:
        assert runs[0][m].mean.tobytes() == runs[1][m].mean.tobytes() == oracle[m].tobytes()


def test_blocks_from_a_spawned_process_fold_to_the_in_process_means():
    # the grid goes to the worker with its pair memo, which a pickle leaves behind
    net = random_network(30, 0.2, 47)
    prof = estimate_profile(net, bin_width_km=150.0)
    metrics, size = ("DC", "CC", "MGD", "BC"), 130
    k0s = list(range(0, size, BLOCK))
    k1s = [min(k0 + BLOCK, size) for k0 in k0s]
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        blocks = list(pool.map(member_block, repeat(prof), repeat(net.grid), repeat(metrics), repeat(5), k0s, k1s))
    assert len(blocks) == 3 and net.grid.derived
    sums = np.zeros((len(metrics), net.n))
    for block in blocks:
        sums += block
    stats = ensemble_stats(prof, net.grid, metrics=metrics, ensemble_size=size, seed=5)
    for m, s in zip(metrics, sums):
        assert (s / size).tobytes() == stats[m].mean.tobytes()


def test_ensemble_dc_mean_analytic(rng):
    net = random_network(22, 0.3, 19)
    prof = estimate_profile(net, bin_width_km=250.0)
    p = pair_link_probabilities(prof, net.grid)
    iu, ju = np.triu_indices(net.n, k=1)
    expect = np.zeros(net.n)
    var = np.zeros(net.n)
    for k in range(iu.size):
        expect[iu[k]] += p[k]
        expect[ju[k]] += p[k]
        var[iu[k]] += p[k] * (1 - p[k])
        var[ju[k]] += p[k] * (1 - p[k])
    K = 200
    stats = ensemble_stats(prof, net.grid, metrics=("DC",), ensemble_size=K, seed=7)
    sigma = np.sqrt(var / K)
    assert np.all(np.abs(stats["DC"].mean - expect) <= 3 * sigma + 1e-9)


def test_ensemble_zero_mean_nodes():
    # node 3 sits 5000+ers km away from a tight cluster; profile has no
    # positive-probability bin at that range, so its surrogate degree is 0
    grid_lat = np.array([0.0, 0.1, 0.2, 45.0])
    grid_lon = np.array([0.0, 0.1, 0.2, 90.0])
    grid = GridSpec(lat=grid_lat, lon=grid_lon)
    net = Network.from_edges(grid, np.array([[0, 1], [0, 2], [1, 2]]))
    prof = estimate_profile(net, bin_width_km=50.0)
    stats = ensemble_stats(prof, grid, metrics=("DC",), ensemble_size=50, seed=3)
    assert 3 in stats["DC"].zero_mean_nodes.tolist()
    assert stats["DC"].mean[3] == 0.0
    assert np.all(stats["DC"].mean[:3] > 0)


def test_boundary_signature_on_lattice():
    # homogeneous geometric model on a bounded rectangle: surrogate-mean DC
    # is depressed at the boundary relative to the interior
    from gridsync.synth import lattice_boundary_mask

    layout = RectLattice(rows=10, cols=10, spacing_km=50.0)
    grid = lattice_grid(layout)
    net = gen_embedded_network(
        SynthNetSpec(layout=layout, link_model=Exponential(p0=0.8, lambda_km=100.0), seed=2)
    )
    prof = estimate_profile(net, bin_width_km=50.0)
    stats = ensemble_stats(prof, grid, metrics=("DC",), ensemble_size=100, seed=9)
    boundary = lattice_boundary_mask(layout)
    assert stats["DC"].mean[boundary].mean() < stats["DC"].mean[~boundary].mean()


# ---------------------------------------------------------------------------
# file formats


def test_profile_csv_roundtrip(tmp_path):
    net = random_network(15, 0.3, 29)
    prof = estimate_profile(net, bin_width_km=150.0)
    p = tmp_path / "profile.csv"
    write_profile_csv(prof, p)
    back = read_profile_csv(p)
    assert np.array_equal(back.bin_edges, prof.bin_edges)
    assert np.array_equal(back.bin_prob, prof.bin_prob)
    assert np.array_equal(back.bin_pair_count, prof.bin_pair_count)
    assert np.array_equal(back.bin_link_count, prof.bin_link_count)


def test_surrogate_stats_csv_roundtrip(tmp_path):
    grid = random_grid(8, 31)
    prof = const_profile(0.5)
    stats = ensemble_stats(prof, grid, metrics=("DC", "MGD"), ensemble_size=10, seed=77)
    p = tmp_path / "stats.csv"
    write_surrogate_stats_csv(stats, p)
    back = read_surrogate_stats_csv(p)
    for m in ("DC", "MGD"):
        assert np.array_equal(back[m].mean, stats[m].mean)
        assert np.array_equal(back[m].zero_mean_nodes, stats[m].zero_mean_nodes)
