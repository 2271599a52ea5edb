import hashlib
import math
import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from gridsync import netmetrics
from gridsync.grid_io import GridSpec
from gridsync.netmetrics import (
    _BC_BLOCK,
    EARTH_RADIUS_KM,
    MetricField,
    Network,
    betweenness,
    clustering,
    degree,
    log_bc,
    mean_geo_distance,
    pair_distances,
    pair_groups,
)
from gridsync.synth import Exponential, RectLattice, SynthNetSpec, gen_embedded_network, lattice_grid

from conftest import SHARED_COORDINATE_GRIDS, dense_adjacency, random_grid, random_network, shared_coordinate_grid
from oracles import brandes_oracle, csr_by_sort, haversine, haversine_matrix, neighbors, pair_bins


# ---------------------------------------------------------------------------
# oracles


def bfs_counts(net, s):
    """Distances and shortest-path counts from s (plain BFS layering)."""
    n = net.n
    dist = [-1] * n
    sigma = [0.0] * n
    dist[s] = 0
    sigma[s] = 1.0
    q = deque([s])
    while q:
        v = q.popleft()
        for w in neighbors(net, v):
            w = int(w)
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                q.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] += sigma[v]
    return dist, sigma


def bc_oracle(net):
    """Exhaustive per-pair shortest-path enumeration, no Brandes accumulation."""
    n = net.n
    dist, sigma = zip(*(bfs_counts(net, s) for s in range(n)))
    bc = np.zeros(n)
    for s in range(n):
        for t in range(s + 1, n):
            if dist[s][t] < 0:
                continue
            for v in range(n):
                if v in (s, t) or dist[s][v] < 0 or dist[t][v] < 0:
                    continue
                if dist[s][v] + dist[t][v] == dist[s][t]:
                    bc[v] += sigma[s][v] * sigma[t][v] / sigma[s][t]
    return bc * 2.0 / ((n - 1) * (n - 2))


def cc_oracle(net):
    """O(n^3) triple enumeration."""
    a = dense_adjacency(net)
    n = net.n
    out = np.zeros(n)
    for i in range(n):
        nbrs = np.nonzero(a[i])[0]
        k = nbrs.size
        if k < 2:
            continue
        links = sum(
            a[u, v] for x, u in enumerate(nbrs) for v in nbrs[x + 1 :]
        )
        out[i] = 2.0 * links / (k * (k - 1))
    return out


def path_graph(n, seed=0):
    grid = random_grid(n, seed)
    edges = np.array([[i, i + 1] for i in range(n - 1)])
    return Network.from_edges(grid, edges)


def complete_graph(n, seed=0):
    grid = random_grid(n, seed)
    iu, ju = np.triu_indices(n, k=1)
    return Network.from_edges(grid, np.stack([iu, ju], axis=1))


# ---------------------------------------------------------------------------
# haversine


def test_haversine_zero_iff_same_point():
    assert haversine((10.0, 20.0), (10.0, 20.0)) == 0.0
    assert haversine((10.0, 20.0), (10.0, 20.5)) > 0.0


def test_haversine_quarter_circle():
    assert haversine((0.0, 0.0), (0.0, 90.0)) == pytest.approx(math.pi * EARTH_RADIUS_KM / 2)


def test_haversine_law_of_cosines_oracle():
    # independent spherical law of cosines formula
    a, b = (0.0, 0.0), (0.5, 0.0)
    la1, lo1, la2, lo2 = map(math.radians, (*a, *b))
    d_loc = EARTH_RADIUS_KM * math.acos(
        math.sin(la1) * math.sin(la2) + math.cos(la1) * math.cos(la2) * math.cos(lo2 - lo1)
    )
    assert haversine(a, b) == pytest.approx(d_loc, abs=1e-6)


def test_haversine_symmetry_and_matrix(rng):
    grid = random_grid(10, 1)
    m = haversine_matrix(grid)
    assert np.allclose(m, m.T)
    assert np.allclose(np.diag(m), 0.0)
    for _ in range(10):
        i, j = rng.integers(0, 10, 2)
        expect = haversine((grid.lat[i], grid.lon[i]), (grid.lat[j], grid.lon[j]))
        assert m[i, j] == pytest.approx(expect, abs=1e-9)


# ---------------------------------------------------------------------------
# degree / clustering / MGD


def test_degree_edgeless_and_complete():
    grid = random_grid(5, 2)
    assert degree(Network.from_edges(grid, np.empty((0, 2)))).values.tolist() == [0.0] * 5
    assert degree(complete_graph(5)).values.tolist() == [4.0] * 5


def test_degree_matches_row_sum_oracle(rng):
    for seed in range(25):
        net = random_network(int(rng.integers(5, 50)), rng.uniform(0.05, 0.5), seed)
        assert np.array_equal(degree(net).values, dense_adjacency(net).sum(axis=1))


def test_clustering_triangle_and_star():
    assert clustering(complete_graph(3)).values.tolist() == [1.0, 1.0, 1.0]
    grid = random_grid(5, 3)
    star = Network.from_edges(grid, np.array([[0, 1], [0, 2], [0, 3], [0, 4]]))
    cc = clustering(star)
    assert cc.values.tolist() == [0.0] * 5  # no leaf pair is linked, and CC is 0 below degree 2


def test_clustering_matches_enumeration_oracle(rng):
    for seed in range(25):
        net = random_network(int(rng.integers(5, 50)), rng.uniform(0.05, 0.5), seed + 100)
        assert np.array_equal(clustering(net).values, cc_oracle(net))


@pytest.mark.parametrize("words", [1, 100, 1 << 30])
def test_clustering_at_other_step_sizes(monkeypatch, words):
    # 130 nodes take 3 adjacency words: 1 word is one edge per step, 100 words are
    # 33 edges, which do not divide the edges evenly, and 2^30 holds every edge
    monkeypatch.setattr(netmetrics, "_CC_STEP_WORDS", words)
    net = random_network(130, 0.1, 77)
    assert net.edge_count % 33
    assert np.array_equal(clustering(net).values, cc_oracle(net))


def test_mgd_single_neighbor_and_isolated():
    grid = GridSpec(lat=np.array([0.0, 0.0, 5.0]), lon=np.array([0.0, 90.0, 5.0]))
    net = Network.from_edges(grid, np.array([[0, 1]]))
    mgd = mean_geo_distance(net)
    assert mgd.values[0] == pytest.approx(math.pi * EARTH_RADIUS_KM / 2)
    assert mgd.values[2] == 0.0  # isolated


def test_mgd_matches_direct_sum_oracle(rng):
    for seed in range(25):
        net = random_network(int(rng.integers(5, 40)), rng.uniform(0.1, 0.5), seed + 200)
        m = haversine_matrix(net.grid)
        a = dense_adjacency(net)
        got = mean_geo_distance(net).values
        dmax = m.max()
        for i in range(net.n):
            k = a[i].sum()
            if k == 0:
                assert got[i] == 0.0
                continue
            expect = (m[i] * a[i]).sum() / k
            assert got[i] == pytest.approx(expect, rel=1e-9)
            assert got[i] <= dmax + 1e-9


# ---------------------------------------------------------------------------
# betweenness


def test_bc_path_graph():
    bc = betweenness(path_graph(3))
    assert bc.values.tolist() == [0.0, 1.0, 0.0]


def test_bc_complete_graph():
    for n in (3, 5, 8):
        assert betweenness(complete_graph(n)).values.tolist() == [0.0] * n


def test_bc_rejects_tiny_graphs():
    with pytest.raises(ValueError):
        betweenness(path_graph(2))


def test_bc_matches_enumeration_oracle(rng):
    for seed in range(20):
        net = random_network(int(rng.integers(5, 40)), rng.uniform(0.05, 0.5), seed + 300)
        got = betweenness(net).values
        assert np.allclose(got, bc_oracle(net), atol=1e-9)


def test_bc_disconnected_graph():
    # two components: pairs across components contribute nothing
    grid = random_grid(6, 4)
    net = Network.from_edges(grid, np.array([[0, 1], [1, 2], [3, 4], [4, 5]]))
    got = betweenness(net).values
    assert np.allclose(got, bc_oracle(net), atol=1e-12)
    assert got[1] == pytest.approx(2.0 / 20)  # one intermediary pair, global norm


def lattice_graph(rows, cols, seed=0):
    """Four-neighbour rows x cols lattice; node r * cols + c."""
    node = np.arange(rows * cols).reshape(rows, cols)
    edges = np.concatenate([
        np.stack([node[:, :-1].ravel(), node[:, 1:].ravel()], axis=1),
        np.stack([node[:-1, :].ravel(), node[1:, :].ravel()], axis=1),
    ])
    return Network.from_edges(random_grid(rows * cols, seed), edges)


def with_isolated(net, isolated):
    """net with every edge at a node in `isolated` removed."""
    e = net.edge_array()
    return Network.from_edges(net.grid, e[~np.isin(e, isolated).any(axis=1)])


def two_components(n, seed):
    """Random graphs on nodes 0..n//2-1 and n//2..n-1, with no edge between them."""
    half = n // 2
    e = random_network(n, 0.15, seed).edge_array()
    return Network.from_edges(random_grid(n, seed), e[(e < half).all(axis=1) | (e >= half).all(axis=1)])


BLOCK_CASES = {
    "n-not-block-multiple": lambda: random_network(3 * _BC_BLOCK + 5, 0.12, 801),
    "isolated-nodes": lambda: with_isolated(random_network(4 * _BC_BLOCK, 0.1, 802), [0, 17, 4 * _BC_BLOCK - 1]),
    "two-components": lambda: two_components(5 * _BC_BLOCK - 3, 803),
    "path-300": lambda: path_graph(300),
    "lattice-30x30": lambda: lattice_graph(30, 30),
}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_bc_matches_brandes_oracle_across_source_blocks(case):
    net = BLOCK_CASES[case]()
    assert net.n >= 3 * _BC_BLOCK
    got = betweenness(net).values
    expect = brandes_oracle(net)
    assert np.array_equal(got == 0, expect == 0)
    assert np.allclose(got, expect, rtol=1e-12, atol=0)
    if case == "path-300":
        # eccentricity 299; interior node i lies on i * (n - 1 - i) of the pairs
        i = np.arange(300)
        assert np.allclose(got, 2.0 * i * (299 - i) / (299 * 298), rtol=1e-12, atol=0)
    if case == "lattice-30x30":
        assert math.comb(58, 29) > 2**53  # corner-to-corner shortest-path count


_BC_DIGEST = """
import hashlib
from gridsync.netmetrics import betweenness
from gridsync.synth import Exponential, RectLattice, SynthNetSpec, gen_embedded_network
net = gen_embedded_network(SynthNetSpec(RectLattice(22, 22, 50.0), Exponential(0.8, 150.0), seed=5))
print(hashlib.sha256(betweenness(net).values.tobytes()).hexdigest())
"""


def test_bc_bytes_do_not_depend_on_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = set()
    for threads in ("1", "2", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _BC_DIGEST], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    net = gen_embedded_network(SynthNetSpec(RectLattice(22, 22, 50.0), Exponential(0.8, 150.0), seed=5))
    assert net.n == 484 and net.edge_count > 2000
    for _ in range(2):
        digests.add(hashlib.sha256(betweenness(net).values.tobytes()).hexdigest())
    assert len(digests) == 1


def test_metrics_invariant_under_relabeling(rng):
    net = random_network(14, 0.3, 42)
    perm = rng.permutation(14)
    inv = np.argsort(perm)
    # rebuild with relabeled nodes: new id of old node i is perm[i]
    grid2 = GridSpec(lat=net.grid.lat[inv], lon=net.grid.lon[inv])
    edges = net.edge_array()
    remapped = np.sort(perm[edges], axis=1)
    net2 = Network.from_edges(grid2, remapped)
    for fn in (degree, clustering, mean_geo_distance, betweenness):
        v1 = fn(net).values
        v2 = fn(net2).values
        assert np.allclose(v1, v2[perm], atol=1e-12)


def test_handshake_lemma(rng):
    for seed in range(10):
        net = random_network(30, 0.2, seed + 400)
        assert degree(net).values.sum() == 2 * net.edge_count


def test_clustering_links_within_neighbor_pairs(rng):
    # CC * k(k-1)/2 is the whole number of links among a node's k neighbors
    for seed in range(10):
        net = random_network(25, 0.3, seed + 600)
        deg = degree(net).values
        links = clustering(net).values * deg * (deg - 1) / 2
        assert np.allclose(links, np.round(links), atol=1e-9)
        assert np.all(links >= 0)
        assert np.all(links <= deg * (deg - 1) / 2)


def to_networkx(net):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(net.n))
    g.add_edges_from(net.edge_array().tolist())
    return g


def test_bc_matches_networkx_oracle(rng):
    import networkx as nx

    grid = random_grid(9, 5)
    # two components, a pendant node (8) and two isolated nodes (6, 7)
    split = Network.from_edges(grid, np.array([[0, 1], [0, 2], [1, 2], [2, 3], [3, 8], [4, 5]]))
    nets = [split] + [random_network(int(rng.integers(5, 60)), rng.uniform(0.03, 0.3), s + 710) for s in range(8)]
    for net in nets:
        oracle = nx.betweenness_centrality(to_networkx(net), normalized=True)
        expect = np.array([oracle[v] for v in range(net.n)])
        assert np.allclose(betweenness(net).values, expect, rtol=1e-12, atol=1e-15)
    assert betweenness(split).values[[6, 7, 8]].tolist() == [0.0, 0.0, 0.0]


def large_network(seed):
    """A 46 x 46 lattice network (n = 2,116 > 2,048, not a multiple of 8) with
    isolated nodes 0 and 700, degree-1 nodes 5 and 1,000, and all other nodes
    embedded as in the CONUS workload."""
    layout = RectLattice(rows=46, cols=46, spacing_km=50.0)
    net = gen_embedded_network(SynthNetSpec(layout, Exponential(0.8, 100.0), seed=seed))
    e = net.edge_array()
    cut = np.isin(e, [0, 5, 700, 1000]).any(axis=1)
    keep = e[~cut].tolist() + [[5, 6], [999, 1000]]
    return Network.from_edges(net.grid, np.array(sorted(keep)))


def test_metrics_match_networkx_and_haversine_loop_above_2048_nodes():
    import networkx as nx

    net = large_network(3)
    assert net.n > 2048 and net.n % 8 != 0
    g = to_networkx(net)
    deg = np.array([g.degree(v) for v in range(net.n)])
    assert degree(net).values.tolist() == deg.tolist()
    assert deg[[0, 700]].tolist() == [0, 0] and deg[[5, 1000]].tolist() == [1, 1]

    cc = clustering(net)
    tri = nx.triangles(g)
    links = np.array([tri[v] for v in range(net.n)])
    good = deg >= 2
    # bit-exact: integer link counts over the same integer denominator
    assert np.array_equal(cc.values[good], 2.0 * links[good] / (deg[good] * (deg[good] - 1)))
    assert np.all(cc.values[~good] == 0.0)
    nx_cc = nx.clustering(g)
    assert np.allclose(cc.values, [nx_cc[v] for v in range(net.n)], rtol=1e-14, atol=0)

    mgd = mean_geo_distance(net)
    for i in range(net.n):
        nbrs = neighbors(net, i).tolist()
        if not nbrs:
            assert mgd.values[i] == 0.0
            continue
        pts = [(net.grid.lat[j], net.grid.lon[j]) for j in nbrs]
        expect = math.fsum(haversine((net.grid.lat[i], net.grid.lon[i]), q) for q in pts) / len(pts)
        assert mgd.values[i] == pytest.approx(expect, rel=1e-12)
    assert mgd.values[5] == pytest.approx(haversine((net.grid.lat[5], net.grid.lon[5]),
                                                    (net.grid.lat[6], net.grid.lon[6])), rel=1e-12)

    bc = betweenness(net).values
    expect = brandes_oracle(net)
    assert np.array_equal(bc == 0, expect == 0)
    assert bc[[0, 5, 700, 1000]].tolist() == [0.0] * 4
    assert np.allclose(bc, expect, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 1500])
def test_pair_distances_bitwise_equal_to_matrix_triangle(n):
    # at the default _PAIR_BLOCK, 1,500 nodes span 72 row blocks of 21 rows, the last one short
    grid = random_grid(n, 40 + n)
    got = pair_distances(grid)
    expect = haversine_matrix(grid)[np.triu_indices(n, 1)]
    assert got.dtype == np.float64 and got.shape == (n * (n - 1) // 2,)
    assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("width, dtype", [(50.0, np.uint16), (100.0, np.uint8)])
def test_pair_bins_equal_floor_of_matrix_distances(width, dtype):
    # at the default _PAIR_BLOCK, 33 x 33 = 1,089 nodes span 37 row blocks of 30
    # rows, the last one short; along the equator row and on many other lattice
    # pairs the distance falls on a multiple of 50 km
    grid = lattice_grid(RectLattice(rows=33, cols=33, spacing_km=50.0))
    d = haversine_matrix(grid)[np.triu_indices(grid.n, 1)]
    assert (np.abs(d / 50.0 - np.rint(d / 50.0)) < 1e-9).sum() > 1000
    bins = pair_bins(grid, width)
    assert bins.dtype == dtype and bins.shape == d.shape
    assert np.array_equal(bins, np.floor(d / width))
    assert not grid.derived  # pair_groups is the grid's one distance memo
    assert not (grid.lat.flags.writeable or grid.lon.flags.writeable)  # so the memo stays valid
    assert np.array_equal(pair_bins(grid, 3 * width), np.floor(d / (3 * width)))


@pytest.mark.parametrize("name", SHARED_COORDINATE_GRIDS)
def test_pair_pass_bitwise_equal_to_per_pair_oracle_on_shared_coordinates(name):
    # the oracle computes each pair's own sines; the pass takes them from its coordinate-class
    # tables on the first three grids and computes them per pair on the others
    grid = shared_coordinate_grid(name)
    got = pair_distances(grid)
    assert got.tobytes() == haversine_matrix(grid)[np.triu_indices(grid.n, 1)].tobytes()


@pytest.mark.parametrize("width", [50.0, 0.07])
@pytest.mark.parametrize("name", SHARED_COORDINATE_GRIDS)
def test_pair_groups_equal_stable_argsort_of_matrix_bins(name, width):
    # an oracle independent of the pass on both of its paths; at 0.07 km the keys of the
    # larger grids need uint64
    grid = shared_coordinate_grid(name)
    assert (netmetrics._pair_classes(grid) is not None) == (name in ("lattice", "shuffled-lattice", "ragged-latlon"))
    bins = np.floor(haversine_matrix(grid)[np.triu_indices(grid.n, 1)] / width).astype(np.int64)
    ranks, starts = pair_groups(grid, width)
    assert np.array_equal(ranks, np.argsort(bins, kind="stable"))
    assert np.array_equal(starts, np.concatenate([[0], np.cumsum(np.bincount(bins))]))


def test_pair_pass_per_pair_path_gives_the_class_path_bytes(monkeypatch):
    grid = shared_coordinate_grid("lattice")
    by_class = pair_distances(grid), pair_groups(grid, 50.0)
    monkeypatch.setattr(netmetrics, "_CLASS_SHARE", 0.0)
    assert netmetrics._pair_classes(grid) is None
    grid.derived.clear()
    per_pair = pair_distances(grid), pair_groups(grid, 50.0)
    assert b"".join(a.tobytes() for a in (by_class[0], *by_class[1])) == \
        b"".join(a.tobytes() for a in (per_pair[0], *per_pair[1]))


@pytest.mark.parametrize("block", [100, 7 * 1500, 1 << 30])
def test_pair_pass_at_other_block_sizes(monkeypatch, block):
    # 100 is below n, so every block is one row; 7 x 1,500 gives 7 rows per block
    # at 1,500 nodes and 9 at 1,089, neither dividing the rows evenly; 2^30 is
    # more than all pairs, so one block holds every row
    monkeypatch.setattr(netmetrics, "_PAIR_BLOCK", block)
    for n in (0, 1, 2, 3, 1500):
        test_pair_distances_bitwise_equal_to_matrix_triangle(n)
    test_pair_bins_equal_floor_of_matrix_distances(50.0, np.uint16)
    test_pair_bins_equal_floor_of_matrix_distances(100.0, np.uint8)
    for name in SHARED_COORDINATE_GRIDS:
        test_pair_pass_bitwise_equal_to_per_pair_oracle_on_shared_coordinates(name)
        test_pair_groups_equal_stable_argsort_of_matrix_bins(name, 50.0)


def test_network_structure_invariants(rng):
    net = random_network(25, 0.3, 500)
    assert net.indptr.dtype == net.indices.dtype == np.int64
    assert net.indptr[0] == 0 and net.indptr[-1] == net.indices.size
    for i in range(net.n):
        nbrs = neighbors(net, i)
        assert (np.diff(nbrs) > 0).all()  # sorted, duplicate-free
        assert i not in nbrs  # zero diagonal
        for j in nbrs:
            assert i in neighbors(net, int(j))  # symmetric
    a = dense_adjacency(net)
    assert np.array_equal(a, a.T)
    assert not a.diagonal().any()


@pytest.mark.parametrize("n, links", [(0, "none"), (1, "none"), (40, "none"), (40, "random"), (40, "complete"),
                                      (300, "random"), (300, "complete"), (70_000, "random")])
def test_from_pair_ranks_equals_sort_based_csr(n, links):
    # 40 nodes order their columns as uint8, 300 as uint16 and 70,000 as uint32
    pairs = n * (n - 1) // 2
    if links == "random":
        rank = np.unique(np.random.default_rng(n).integers(0, pairs, 5000))
    else:
        rank = np.arange(pairs if links == "complete" else 0)
    grid = random_grid(n, 23)
    net = Network.from_pair_ranks(grid, rank)
    indptr, indices = csr_by_sort(n, rank)
    assert net.indptr.dtype == net.indices.dtype == np.int64
    assert net.indptr.tobytes() == indptr.tobytes() and net.indices.tobytes() == indices.tobytes()


def test_network_rejects_bad_edges():
    grid = random_grid(4, 7)
    with pytest.raises(ValueError, match="i < j"):
        Network.from_edges(grid, np.array([[2, 2]]))
    with pytest.raises(ValueError, match="out of range"):
        Network.from_edges(grid, np.array([[0, 9]]))
    with pytest.raises(ValueError, match="duplicate"):
        Network.from_edges(grid, np.array([[0, 1], [0, 1]]))


def test_edge_array_roundtrip_with_isolated_nodes(rng):
    # nodes 0, 3 and 7 are isolated; shuffled input comes back sorted i < j
    grid = random_grid(8, 11)
    edges = np.array([[5, 6], [1, 2], [4, 6], [1, 5], [2, 6], [1, 4]])
    net = Network.from_edges(grid, edges[rng.permutation(len(edges))])
    out = net.edge_array()
    assert out.dtype == np.int64
    assert out.tolist() == sorted(edges.tolist())
    loop = [(i, int(j)) for i in range(net.n) for j in neighbors(net, i) if j > i]
    assert [tuple(e) for e in out.tolist()] == loop
    assert Network.from_edges(grid, out).edge_array().tolist() == out.tolist()
    assert Network.from_edges(grid, np.empty((0, 2))).edge_array().shape == (0, 2)


# ---------------------------------------------------------------------------
# log transform


def test_log_bc_values():
    mf = MetricField("BC", np.array([0.0, 1.0, 0.25]))
    out = log_bc(mf)
    assert out.values[0] == 0.0
    assert out.values[1] == pytest.approx(math.log(2.0))


def test_log_bc_preserves_order(rng):
    vals = rng.random(50)
    out = log_bc(MetricField("BC", vals))
    assert np.array_equal(np.argsort(out.values), np.argsort(vals))


def test_log_bc_rejects_negative():
    with pytest.raises(ValueError):
        log_bc(MetricField("BC", np.array([-0.1])))
