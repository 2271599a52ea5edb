import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsync.seeding import NULL_MODEL_TAG, mix64, stream
from gridsync import sync
from gridsync.sync import SyncParams, _es_matrix, _threshold_table, build_network

from conftest import random_events, random_grid
from oracles import (
    event_sync,
    has_edge,
    hypergeom_pmf,
    null_threshold,
    null_threshold_exact,
    pair_sync,
    shared_days,
    shuffle_overlaps,
)


def mk(days, T=50):
    """One node's bool event row over T season days, with events on the given days."""
    events = np.zeros(T, dtype=bool)
    events[np.asarray(days, dtype=np.int64)] = True
    return events


# ---------------------------------------------------------------------------
# event synchronization


def test_es_identical_series():
    a, b = mk([10, 20, 30]), mk([10, 20, 30])
    assert event_sync(a, b) == 3


def test_es_disjoint():
    assert event_sync(mk([1, 5]), mk([2, 8])) == 0


def test_es_intersection_oracle(rng):
    for _ in range(200):
        a = random_events(2760, rng.uniform(0.01, 0.10), rng)
        b = random_events(2760, rng.uniform(0.01, 0.10), rng)
        assert event_sync(a, b) == shared_days(a, b)


def test_es_symmetry(rng):
    for _ in range(30):
        a = random_events(300, 0.08, rng)
        b = random_events(300, 0.08, rng)
        assert event_sync(a, b) == event_sync(b, a)


def test_es_monotone_in_shared_days(rng):
    # splicing one more shared day (with room on both sides) never lowers ES
    for trial in range(20):
        a = random_events(500, 0.05, rng)
        b = random_events(500, 0.05, rng)
        base = event_sync(a, b)
        taken = set(np.flatnonzero(a | b).tolist())
        candidates = [
            d
            for d in range(502, 998)
            if not taken & {d - 1, d, d + 1}
        ]
        d = candidates[0]
        a2 = mk(np.append(np.flatnonzero(a), d), T=1000)
        b2 = mk(np.append(np.flatnonzero(b), d), T=1000)
        assert event_sync(a2, b2) >= base


# ---------------------------------------------------------------------------
# null model


def test_null_threshold_empty_series():
    params = SyncParams()
    a = mk([], T=100)
    b = mk([5, 10], T=100)
    assert null_threshold(a, b, params, pair_seed=1) == 0.0
    r = pair_sync(a, b, params, pair_seed=1)
    assert not r.significant


def test_null_threshold_saturated_series():
    T = 40
    a = b = np.ones(T, dtype=bool)
    params = SyncParams(n_shuffles=100)
    assert null_threshold(a, b, params, pair_seed=3) == float(T)


def test_null_threshold_rejects_few_shuffles():
    with pytest.raises(ValueError, match="n_shuffles"):
        SyncParams(n_shuffles=50)


def test_null_threshold_matches_hypergeometric(rng):
    # unit-scale version of the oracle check (the full one runs in acceptance)
    T, N = 600, 30
    a = b = mk(range(N), T)
    params = SyncParams(n_shuffles=1000, link_quantile=0.995)
    exact = null_threshold_exact(T, N, N, 0.995)
    hits = sum(
        abs(null_threshold(a, b, params, pair_seed=mix64(7, t)) - exact) <= 1
        for t in range(20)
    )
    assert hits >= 18


def test_null_threshold_unequal_counts_match_hypergeometric():
    # the direct hypergeometric draw must respect which count is which
    T = 600
    params = SyncParams(n_shuffles=1000, link_quantile=0.995)
    exact = null_threshold_exact(T, 40, 300, 0.995)
    for n_i, n_j in ((40, 300), (300, 40)):
        a, b = mk(range(n_i), T), mk(range(n_j), T)
        hits = sum(
            abs(null_threshold(a, b, params, pair_seed=mix64(8, t)) - exact) <= 1
            for t in range(20)
        )
        assert hits >= 18


def test_explicit_shuffles_follow_hypergeometric():
    # re-drawing both event sets without replacement, as the shuffle null is
    # defined, gives overlaps whose threshold lands within 1 of the exact one
    T, q = 600, 0.995
    rng = np.random.default_rng(31)
    for n_i, n_j in ((30, 30), (40, 300)):
        exact = null_threshold_exact(T, n_i, n_j, q)
        hits = 0
        for _ in range(20):
            s = np.sort(shuffle_overlaps(T, n_i, n_j, 1000, rng))
            hits += abs(s[math.ceil(q * s.size) - 1] - exact) <= 1
        assert hits >= 18


def test_null_threshold_is_nearest_rank_of_the_draws():
    # nearest rank: the threshold is the ceil(q * n)-th smallest of the key
    # stream's n draws; q runs over every rank and rank boundary, so an
    # off-by-one rank shows at each step between tied draws
    T, n = 300, 100
    a, b = mk(range(20), T), mk(range(45), T)
    draws = np.sort(np.random.Generator(np.random.PCG64(5)).hypergeometric(20, T - 20, 45, n))
    assert np.unique(draws).size > 3
    for q in [(r - 0.5) / n for r in range(1, n + 1)] + [r / n for r in range(1, n)]:
        params = SyncParams(n_shuffles=n, link_quantile=q)
        assert null_threshold(a, b, params, pair_seed=5) == draws[math.ceil(q * n) - 1]


def test_null_threshold_exact_edge_cases():
    assert null_threshold_exact(10, 0, 5, 0.995) == 0
    assert null_threshold_exact(10, 5, 5, 1.0) == 5
    assert null_threshold_exact(12, 12, 7, 1.0) == 7
    # overlap support starts at n_i + n_j - T
    assert null_threshold_exact(10, 9, 9, 0.001) == 8


def test_null_threshold_exact_enumeration_oracle():
    from itertools import combinations

    T = 8
    for n_i, n_j, q in [(4, 4, 0.995), (3, 5, 0.9), (2, 6, 0.5), (4, 4, 0.25)]:
        counts = {}
        for a in combinations(range(T), n_i):
            sa = set(a)
            for b in combinations(range(T), n_j):
                k = len(sa.intersection(b))
                counts[k] = counts.get(k, 0) + 1
        total = sum(counts.values())
        cdf = 0.0
        expected = None
        for k in sorted(counts):
            cdf += counts[k] / total
            if expected is None and cdf >= q:
                expected = k
        assert null_threshold_exact(T, n_i, n_j, q) == expected


# ---------------------------------------------------------------------------
# network construction


def empty_series(n, T=100):
    return np.zeros((n, T), dtype=bool)


def test_build_network_all_empty():
    grid = random_grid(5, 2)
    net = build_network(empty_series(5), grid, SyncParams(n_shuffles=100))
    assert net.edge_count == 0


def test_build_network_two_heavy_series():
    T = 400
    series = empty_series(6, T)
    series[[1, 4], ::2] = True  # 200 events, deduped by construction
    grid = random_grid(6, 3)
    net = build_network(series, grid, SyncParams(n_shuffles=200), seed=5)
    assert net.edge_count == 1
    assert has_edge(net, 1, 4)
    # ES = 200 dominates any null quantile
    assert null_threshold_exact(T, 200, 200, 0.995) < 200


def test_build_network_rerun_deterministic(rng):
    n, T = 12, 400
    series = np.stack([random_events(T, 0.06, rng) for _ in range(n)])
    grid = random_grid(n, 4)
    params = SyncParams(n_shuffles=200)
    nets = [build_network(series, grid, params, seed=11) for _ in range(2)]
    assert nets[0].edge_array().tolist() == nets[1].edge_array().tolist()


def test_memoized_threshold_equals_fresh_compute(rng):
    # the cache key fixes the RNG stream, so a cached entry must equal a
    # fresh pairwise computation that uses the key-derived stream
    T = 300
    params = SyncParams(n_shuffles=200)
    for n_lo, n_hi in [(10, 15), (12, 12), (5, 30)]:
        a, b = mk(range(n_lo), T), mk(range(n_hi), T)
        seed = mix64(21, NULL_MODEL_TAG, T, n_lo, n_hi)
        direct = null_threshold(a, b, params, pair_seed=seed)
        # same key, different pair objects: same stream, same threshold
        a2, b2 = mk(range(100, 100 + n_lo), T), mk(range(50, 50 + n_hi), T)
        again = null_threshold(a2, b2, params, pair_seed=seed)
        assert direct == again


def key_seed(seed, series, i, j):
    """Seed of the null stream build_network(..., seed) uses for pair (i, j)."""
    lo, hi = sorted((int(series[i].sum()), int(series[j].sum())))
    return mix64(seed, NULL_MODEL_TAG, series.shape[1], lo, hi)


def assert_matches_pair_sync(series, grid, params, seed):
    net = build_network(series, grid, params, seed)
    n = len(series)
    linked = 0
    for i in range(n):
        for j in range(i + 1, n):
            r = pair_sync(series[i], series[j], params, key_seed(seed, series, i, j))
            assert has_edge(net, i, j) == r.significant, (i, j, r)
            linked += r.significant
    assert net.edge_count == linked
    return net


def test_build_network_matches_pair_sync_oracle(rng):
    # every edge decision equals the one-pair path seeded with the pair's key
    # stream; an empty node and mixed event rates give several keys
    n, T = 14, 300
    series = np.stack([random_events(T, rng.uniform(0.03, 0.12), rng) for _ in range(n)])
    series[3] = False
    grid = random_grid(n, 8)
    net = assert_matches_pair_sync(series, grid, SyncParams(n_shuffles=150), 9)
    assert net.degrees()[3] == 0


def test_build_network_heavy_pairs_match_pair_sync_oracle():
    # planted shared days make some pairs link, so the oracle is not vacuous
    T = 300
    base = np.arange(0, T, 6)
    series = np.stack([mk(np.union1d(base[i % 2::2], np.arange(i + 1, T, 37)), T) for i in range(8)])
    net = assert_matches_pair_sync(series, random_grid(8, 5), SyncParams(n_shuffles=200), 3)
    assert net.edge_count > 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sets(st.integers(0, 59), max_size=25), min_size=1, max_size=6))
def test_es_matrix_equals_pairwise_es(day_sets):
    # E @ E.T equals the set-intersection count of every pair, empty and
    # singleton series included
    series = np.stack([mk(sorted(d), T=60) for d in day_sets])
    (r0, es), = _es_matrix(series)
    assert r0 == 0
    for i, a in enumerate(series):
        for j, b in enumerate(series):
            assert es[i, j] == shared_days(a, b)


@pytest.mark.parametrize("block_rows", [sync._ES_ROWS, 7])
def test_build_network_row_blocks_equal_whole_matrix(rng, monkeypatch, block_rows):
    # 600 nodes span several ES row blocks, the last one partial; the edges
    # equal those of the whole integer ES matrix against the same thresholds
    n, T = 600, 300
    series = np.stack([random_events(T, rng.uniform(0.02, 0.1), rng) for _ in range(n)])
    series[[0, 255, 256, 599]] = False
    params = SyncParams(n_shuffles=150)
    monkeypatch.setattr(sync, "_ES_ROWS", block_rows)
    blocks = list(_es_matrix(series))
    assert [r0 for r0, _ in blocks] == list(range(0, n, block_rows))
    net = build_network(series, random_grid(n, 2), params, seed=4)
    counts = series.sum(axis=1)
    es = series.astype(np.int64) @ series.T.astype(np.int64)
    linked = es >= _threshold_table(counts, T, params, 4)[np.ix_(counts, counts)]
    i, j = np.nonzero(np.triu(linked, 1))
    assert net.edge_array().tolist() == np.stack([i, j], axis=1).tolist()
    assert net.edge_count > 0


def test_false_link_rate(rng):
    # independent random series: per-pair link probability is at most
    # 1 - link_quantile plus the discreteness slack of the integer-valued
    # null (quantified by the exact hypergeometric tail)
    n, T, N = 160, 2760, 138
    series = np.stack([mk(rng.choice(T, size=N, replace=False), T) for _ in range(n)])
    grid = random_grid(n, 6)
    params = SyncParams(n_shuffles=1000, link_quantile=0.995)
    net = build_network(series, grid, params, seed=13)
    n_pairs = n * (n - 1) // 2  # 12,720 pairs, one shared (T, N, N) key

    k_star = null_threshold_exact(T, N, N, params.link_quantile)
    # quantile guarantee: exceeding the exact threshold is rarer than 0.005
    tail = {k: sum(hypergeom_pmf(T, N, N, j) for j in range(k, N + 1)) for k in
            (k_star - 1, k_star + 1)}
    assert tail[k_star + 1] <= 1 - params.link_quantile
    # Monte-Carlo threshold sits within 1 of k*, so the worst-case rate is
    # the tail at k* - 1, plus binomial noise over the observed pairs
    bound = tail[k_star - 1]
    rate = net.edge_count / n_pairs
    assert rate <= bound + 3 * np.sqrt(bound * (1 - bound) / n_pairs)


def test_build_network_size_mismatch():
    grid = random_grid(4, 1)
    with pytest.raises(ValueError, match="event series"):
        build_network(empty_series(3), grid, SyncParams(n_shuffles=100))
