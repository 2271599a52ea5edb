import hashlib

import numpy as np
import pytest

from gridsync.stats import ks_two_sample, paired_t_test
from gridsync.synth import (
    Exponential,
    HardCutoff,
    RectLattice,
    SynthNetSpec,
    gen_embedded_network,
    gen_gridded_values,
    lattice_boundary_mask,
    lattice_grid,
)

from conftest import dense_adjacency
from oracles import event_sync, haversine_matrix, null_threshold_exact
from synthetic import SynthEventSpec, gen_divergence_fixture, gen_event_field


def test_lattice_spacing_near_planar():
    layout = RectLattice(rows=4, cols=4, spacing_km=50.0)
    grid = lattice_grid(layout)
    d = haversine_matrix(grid)
    # horizontal and vertical neighbor spacing within 1% of nominal
    assert d[0, 1] == pytest.approx(50.0, rel=0.01)
    assert d[0, 4] == pytest.approx(50.0, rel=0.01)


def test_hard_cutoff_edgeless_and_complete():
    layout = RectLattice(rows=3, cols=3, spacing_km=100.0)
    tiny = gen_embedded_network(SynthNetSpec(layout, HardCutoff(50.0), seed=1))
    assert tiny.edge_count == 0
    full = gen_embedded_network(SynthNetSpec(layout, HardCutoff(10000.0), seed=1))
    assert full.edge_count == 9 * 8 // 2


def test_hard_cutoff_matches_brute_force():
    layout = RectLattice(rows=5, cols=4, spacing_km=80.0)
    net = gen_embedded_network(SynthNetSpec(layout, HardCutoff(130.0), seed=7))
    d = haversine_matrix(net.grid)
    expect = (d <= 130.0) & ~np.eye(net.n, dtype=bool)
    assert np.array_equal(dense_adjacency(net), expect)


def test_generators_deterministic():
    spec = SynthNetSpec(RectLattice(6, 6, 50.0), Exponential(0.7, 120.0), seed=9)
    a = gen_embedded_network(spec).edge_array()
    b = gen_embedded_network(spec).edge_array()
    assert a.tolist() == b.tolist()


def test_embedded_network_bytes_pinned():
    # the boundary_conus benchmark input comes from this generator and link model;
    # the digest was taken at 0.7.0, before the surrogate draw left the pairwise draw
    spec = SynthNetSpec(RectLattice(rows=12, cols=12, spacing_km=50.0), Exponential(0.8, 100.0), seed=3)
    edges = gen_embedded_network(spec).edge_array()
    assert edges.dtype == np.int64 and edges.shape == (871, 2)
    assert hashlib.sha256(edges.tobytes()).hexdigest() == (
        "9e3c8b7ebae0fede88fd7bc5f3c4ac964f19bf9342c49348568018459513441e")


def test_rejects_degenerate_layout():
    with pytest.raises(ValueError, match="3 nodes"):
        gen_embedded_network(SynthNetSpec(RectLattice(1, 2, 50.0), HardCutoff(10.0), seed=0))


def test_interior_degree_exceeds_corners():
    layout = RectLattice(rows=30, cols=30, spacing_km=50.0)
    boundary = lattice_boundary_mask(layout)
    inner_means, corner_means = [], []
    corners = [0, 29, 30 * 29, 30 * 30 - 1]
    for seed in range(50):
        net = gen_embedded_network(SynthNetSpec(layout, Exponential(0.8, 100.0), seed=seed))
        dc = net.degrees().astype(float)
        inner_means.append(dc[~boundary].mean())
        corner_means.append(dc[corners].mean())
    assert np.mean(inner_means) > np.mean(corner_means)


# ---------------------------------------------------------------------------
# event fields


def test_cluster_rho_one_identical_series():
    from conftest import random_grid

    grid = random_grid(2, 1)
    spec = SynthEventSpec(grid=grid, T=200, base_rate=0.0, cluster_groups=(((0, 1), 1.0),), seed=3)
    events = gen_event_field(spec)
    assert np.array_equal(events[0], events[1])
    assert events[0].any()
    # dedup applied: no consecutive retained days
    assert np.all(np.diff(np.flatnonzero(events[0])) >= 2)


def test_no_rate_no_groups_empty():
    from conftest import random_grid

    events = gen_event_field(SynthEventSpec(grid=random_grid(3, 2), T=100, base_rate=0.0, seed=1))
    assert events.shape == (3, 100) and not events.any()


def test_event_rate_within_binomial_bounds():
    from conftest import random_grid

    T, rate = 2000, 0.05
    spec = SynthEventSpec(grid=random_grid(6, 4), T=T, base_rate=rate, seed=11)
    # pre-dedup counts are binomial; dedup only removes the run tails, so
    # check the raw firing process through a no-dedup reconstruction
    counts = gen_event_field(spec).sum(axis=1)
    sigma = np.sqrt(T * rate * (1 - rate))
    # post-dedup count is below the raw binomial count but above the
    # count with every consecutive pair collapsed; bracket generously
    assert (counts <= T * rate + 4 * sigma).all()
    assert (counts >= (T * rate - 4 * sigma) * (1 - rate)).all()


def test_within_group_sync_beats_null():
    from conftest import random_grid

    grid = random_grid(10, 8)
    group = tuple(range(5))
    T = 2760
    spec = SynthEventSpec(
        grid=grid, T=T, base_rate=0.02, cluster_groups=((group, 0.3),), seed=21
    )
    hits = misses = 0
    trials = 20
    for trial in range(trials):
        events = gen_event_field(
            SynthEventSpec(grid=grid, T=T, base_rate=0.02, cluster_groups=((group, 0.3),), seed=trial)
        )
        counts = events.sum(axis=1).tolist()
        q = 0.995
        es_in = event_sync(events[0], events[1])
        thr_in = null_threshold_exact(T, counts[0], counts[1], q)
        hits += es_in >= thr_in
        es_out = event_sync(events[0], events[7])
        thr_out = null_threshold_exact(T, counts[0], counts[7], q)
        misses += es_out < thr_out
    assert hits >= int(0.95 * trials)
    assert misses >= int(0.95 * trials)


# ---------------------------------------------------------------------------
# divergence fixtures


def test_divergence_fixture_rejects():
    x, y = gen_divergence_fixture(1000, seed=1)
    assert paired_t_test(x, y).p_value < 0.05
    assert ks_two_sample(x, y).p_value < 0.05


def test_divergence_fixture_trivial_case_identical():
    x, y = gen_divergence_fixture(100, seed=2, small_fraction=0.0, denominator_base=1.0)
    assert np.array_equal(x, y)
    assert paired_t_test(x, y).p_value >= 0.05
    assert ks_two_sample(x, y).p_value >= 0.05


def test_divergence_scaling_invariance():
    x, y = gen_divergence_fixture(400, seed=3)
    d0 = ks_two_sample(x, y)
    d2 = ks_two_sample(2.0 * x, 2.0 * y)
    assert d0.statistic == d2.statistic
    assert (d0.p_value < 0.05) == (d2.p_value < 0.05)


def test_divergence_needs_thirty():
    with pytest.raises(ValueError):
        gen_divergence_fixture(10, seed=1)


# ---------------------------------------------------------------------------
# gridded value generator


def test_gridded_values_seasonal_and_deterministic():
    from gridsync.grid_io import day_index_months

    layout = RectLattice(rows=3, cols=3, spacing_km=50.0)
    gs = gen_gridded_values(layout, n_years=2, seed=5, season="JJA")
    months = day_index_months(gs.days)
    assert set(months.tolist()) == {6, 7, 8}
    assert gs.n_days == 2 * 92
    gs2 = gen_gridded_values(layout, n_years=2, seed=5, season="JJA")
    assert np.array_equal(gs.values, gs2.values)
