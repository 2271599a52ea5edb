import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsync.events import ThresholdSpec, extract_events
from gridsync.grid_io import GriddedSeries, GridSpec

from conftest import random_grid
from oracles import events_oracle


def extract(values, days=None, **spec):
    """extract_events on one season: per-node values over days (every other day by default)."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if days is None:
        days = 2 * np.arange(values.shape[1])
    gs = GriddedSeries(grid=random_grid(values.shape[0], 1), days=days, values=values)
    return extract_events(gs, ThresholdSpec(**spec))


def test_threshold_linear_interpolation():
    # the 95th percentile of 1..100 is 95.05, the 5th is 5.95
    vals = np.arange(1.0, 101.0)
    events, _ = extract(vals, percentile=95.0)
    assert vals[events[0]].tolist() == [96.0, 97.0, 98.0, 99.0, 100.0]
    events, _ = extract(vals, percentile=5.0, direction="below")
    assert vals[events[0]].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_threshold_constant_values_no_events():
    events, unusable = extract(np.full(50, 3.5), percentile=95.0)
    assert unusable == []
    assert not events.any()  # strict exceedance, ties are not events


def test_threshold_positive_support_only():
    vals = np.array([0.0, 0.0, 0.0, 5.0, 10.0])
    events, unusable = extract(vals, percentile=95.0, support="positive_only", min_support=2)
    assert unusable == [] and events[0].tolist() == [False, False, False, False, True]
    # every value counts toward the quantile with support="all"
    events, _ = extract(vals, percentile=50.0, min_support=2)
    assert events[0].tolist() == [False, False, False, True, True]
    # only the two wet values are support
    _, unusable = extract(vals, percentile=95.0, support="positive_only", min_support=3)
    assert unusable == [0]


def test_threshold_insufficient_support():
    events, unusable = extract([0.0] * 30 + [1.0] * 5, percentile=95.0, support="positive_only")
    assert unusable == [0]
    assert not events.any()


def test_threshold_ignores_nan():
    vals = np.array([1.0, np.nan, 2.0, np.nan, 3.0])
    # the median of the three finite values is 2
    events, _ = extract(vals, percentile=50.0, min_support=3)
    assert events[0].tolist() == [False, False, False, False, True]
    events, _ = extract(vals, percentile=50.0, direction="below", min_support=3)
    assert events[0].tolist() == [True, False, False, False, False]


def test_events_above():
    events, _ = extract(np.array([1.0, 9.0, 2.0, 9.0, 1.0]), days=np.arange(1, 6), percentile=50.0, min_support=1)
    assert (np.arange(1, 6)[events[0]]).tolist() == [2, 4]


def test_events_below():
    # the median of the four values is -7
    events, _ = extract(np.array([-12.0, -2.0, -15.0, 0.0]), days=np.arange(4), percentile=50.0,
                        direction="below", min_support=1)
    assert np.flatnonzero(events[0]).tolist() == [0, 2]


def test_events_empty():
    # a season without days: every node is unusable and the matrix has no columns
    events, unusable = extract(np.empty((3, 0)), days=np.empty(0, dtype=np.int64), percentile=95.0)
    assert events.shape == (3, 0) and events.dtype == bool
    assert unusable == [0, 1, 2]


def test_nan_never_an_event():
    events, _ = extract(np.array([np.nan, 9.0, 1.0]), percentile=50.0, min_support=2)
    assert events[0].tolist() == [False, True, False]
    events, _ = extract(np.array([np.nan, 9.0, 1.0]), percentile=50.0, direction="below", min_support=2)
    assert events[0].tolist() == [False, False, True]


# ---------------------------------------------------------------------------
# dedup


def dedup(event_days, season_days=None):
    """The event days extract_events keeps from raw events on event_days.

    A raw event day is dry (0, no positive support) and every other season
    day is wet (1), so the below-direction threshold is 1 and exactly the dry
    days fall below it.
    """
    event_days = np.asarray(event_days, dtype=np.int64)
    if season_days is None:
        season_days = np.arange(0, (event_days.max() + 10) if event_days.size else 10)
    values = np.where(np.isin(season_days, event_days), 0.0, 1.0)
    events, _ = extract(values, days=season_days, percentile=50.0, direction="below",
                        support="positive_only", min_support=1)
    return season_days[events[0]].tolist()


def test_dedup_collapses_run():
    assert dedup([10, 11, 12, 20]) == [10, 20]


def test_dedup_keeps_nonconsecutive():
    assert dedup([10, 12, 14]) == [10, 12, 14]


def test_dedup_season_gap_not_consecutive():
    # Aug 31 -> next Jun 1 style gap: calendar days far apart stay separate,
    # even though they are adjacent columns of the season
    universe = np.concatenate([np.arange(200, 244), np.arange(500, 544)])
    assert dedup([243, 500], universe) == [243, 500]


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(0, 400), min_size=0, max_size=80))
def test_dedup_properties(dayset):
    universe = np.arange(0, 401)
    raw = sorted(dayset)
    days = dedup(raw, universe)
    # no two retained events on consecutive days (independent re-scan)
    assert all(b - a >= 2 for a, b in zip(days, days[1:]))
    # idempotent, first event retained, count can only shrink
    assert dedup(days, universe) == days
    if raw:
        assert days[0] == raw[0]
    assert len(days) <= len(raw)
    # a retained event is exactly an event whose predecessor day is not one
    expected = [d for d in raw if d - 1 not in dayset]
    assert days == expected


def test_dedup_long_season_brute_force(rng):
    T = 2760
    raw = np.nonzero(rng.random(T) < 0.05)[0]
    raw_set = set(raw.tolist())
    scan = [d for d in raw.tolist() if d - 1 not in raw_set]
    assert dedup(raw, np.arange(T)) == scan


def test_event_rate_near_five_percent(rng):
    # continuous values, no ties, days two apart so no event is deduplicated:
    # every node's rate within 3 sigma of 5%
    T = 2760
    events, _ = extract(rng.normal(size=(5, T)), percentile=95.0)
    expected = 0.05 * T
    sigma = np.sqrt(T * 0.05 * 0.95)
    assert (np.abs(events.sum(axis=1) - expected) <= 3 * sigma).all()


def test_extract_events_flags_unusable(rng):
    grid = random_grid(3, 1)
    days = np.arange(100, dtype=np.int64)
    values = rng.random((3, 100)) + 1.0
    values[1, :] = 0.0  # no positive support at node 1
    gs = GriddedSeries(grid=grid, days=days, values=values)
    spec = ThresholdSpec(percentile=95.0, support="positive_only")
    events, unusable = extract_events(gs, spec)
    assert unusable == [1]
    assert events.shape == (3, 100)
    assert not events[1].any()
    assert events[0].any()


# ---------------------------------------------------------------------------
# the matrix path against the per-node oracle

# few distinct values, so ties at the threshold are common
CELL = st.sampled_from([np.nan, -1.0, 0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.5])


@st.composite
def seasons(draw):
    n = draw(st.integers(1, 6))
    T = draw(st.integers(1, 30))
    steps = draw(st.lists(st.sampled_from([1, 1, 1, 2, 90]), min_size=T - 1, max_size=T - 1))
    days = 11_000 + np.concatenate([[0], np.cumsum(steps, dtype=np.int64)])
    values = np.array(draw(st.lists(CELL, min_size=n * T, max_size=n * T))).reshape(n, T)
    for i in range(n):
        kind = draw(st.sampled_from(["mixed", "mixed", "all_nan", "all_dry"]))
        if kind == "all_nan":
            values[i] = np.nan
        elif kind == "all_dry":
            values[i] = 0.0
    support = draw(st.sampled_from(["all", "positive_only"]))
    floor = draw(st.sampled_from([0.0, 0.5, -0.5]))
    # min_support at a node's support count (usable) and one above it (unusable)
    kept = np.isfinite(values) & ((values > floor) if support == "positive_only" else True)
    counts = kept.sum(axis=1)
    min_support = draw(st.sampled_from(sorted({int(c) + d for c in counts for d in (0, 1)} - {0})))
    spec = ThresholdSpec(
        percentile=draw(st.sampled_from([5.0, 50.0, 95.0]) | st.floats(0.5, 99.5)),
        direction=draw(st.sampled_from(["above", "below"])),
        support=support,
        positive_floor=floor,
        min_support=min_support,
    )
    return values, days, spec


@settings(max_examples=300, deadline=None)
@given(seasons())
def test_extract_events_equals_per_node_oracle(case):
    values, days, spec = case
    gs = GriddedSeries(grid=GridSpec(lat=np.arange(values.shape[0]), lon=np.zeros(values.shape[0])),
                       days=days, values=values)
    events, unusable = extract_events(gs, spec)
    want, want_unusable = events_oracle(values, days, spec)
    assert events.dtype == bool
    assert np.array_equal(events, want)
    assert unusable == want_unusable


def test_extract_events_row_blocks_equal_per_node_oracle(rng):
    # more rows than one quantile block, with NaN cells and an all-NaN node
    values = rng.gamma(0.8, 3.0, size=(600, 120)) * (rng.random((600, 120)) < 0.6)
    values[rng.random(values.shape) < 0.05] = np.nan
    values[300] = np.nan
    days = np.arange(120) + np.repeat([0, 300], 60)
    for spec in (ThresholdSpec(95.0, support="positive_only"), ThresholdSpec(60.0, direction="below")):
        events, unusable = extract(values, days=days, **vars(spec))
        want, want_unusable = events_oracle(values, days, spec)
        assert np.array_equal(events, want) and unusable == want_unusable
        assert 300 in unusable and events.sum() > 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_quantiles_equal_nanquantile(data):
    # the block thresholds are np.nanquantile's, bit for bit, from one support
    # value per row (k = 1) and k = min_support up to rows without NaN
    from gridsync.events import _quantiles

    min_support = data.draw(st.integers(1, 30))
    T = data.draw(st.integers(min_support, 400))
    seed = data.draw(st.integers(0, 2**32 - 1))
    q = data.draw(st.sampled_from([0.01, 0.05, 0.5, 0.9, 0.95, 0.999]) | st.floats(0.01, 0.999))
    rng = np.random.default_rng(seed)
    x = np.round(rng.gamma(0.8, 3.0, size=(40, T)), int(rng.integers(0, 4)))  # ties at every rounding
    k = np.concatenate(([1, min_support, T], rng.integers(min_support, T + 1, size=37)))
    for row, keep in zip(x, k):
        row[rng.permutation(T)[keep:]] = np.nan
    want = np.nanquantile(x, q, axis=1)
    got = _quantiles(x.copy(), k, q)
    assert got.tobytes() == want.tobytes()
