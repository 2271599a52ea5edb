import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsync.correction import (
    DegenerateFieldError,
    correct_divide,
    correct_subtract,
    paired_fields,
    read_corrected_csv,
    write_corrected_csv,
)
from gridsync.netmetrics import MetricField
from gridsync.surrogate import SurrogateStats

from conftest import random_grid


def sur(mean, metric="DC"):
    return SurrogateStats(metric=metric, mean=np.asarray(mean, dtype=float))


def test_subtract_single_spike():
    raw = MetricField("DC", np.array([2.0, 5.0, 7.0, 3.0]))
    s = sur(np.array([2.0, 5.0, 6.0, 3.0]))
    cf = correct_subtract(raw, s)
    assert cf.normalized.tolist() == [0.0, 0.0, 1.0, 0.0]
    assert cf.undefined.sum() == 0


def test_subtract_zero_surrogate_mean_is_identity():
    raw = MetricField("DC", np.array([1.0, 4.0, 2.5]))
    cf = correct_subtract(raw, sur(np.zeros(3)))
    expect = (raw.values - raw.values.min()) / (raw.values.max() - raw.values.min())
    assert np.array_equal(cf.corrected, raw.values)
    assert np.array_equal(cf.normalized, expect)


def test_subtract_constant_field_errors():
    raw = MetricField("DC", np.array([3.0, 3.0, 3.0]))
    with pytest.raises(DegenerateFieldError, match="constant"):
        correct_subtract(raw, sur(np.zeros(3)))


def test_subtract_two_pass_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(5, 60))
        raw = MetricField("CC", rng.random(n))
        s = sur(rng.random(n), metric="CC")
        cf = correct_subtract(raw, s)
        corrected = np.array([raw.values[i] - s.mean[i] for i in range(n)])
        lo = min(corrected)
        hi = max(corrected)
        expect = np.array([(c - lo) / (hi - lo) for c in corrected])
        assert np.all(np.abs(cf.normalized - expect) <= 1e-12)
        assert (cf.corrected.min(), cf.corrected.max()) == (lo, hi)
        assert cf.normalized.min() == 0.0 and cf.normalized.max() == 1.0


def test_divide_constant_ratio_errors():
    raw = MetricField("DC", np.array([2.0, 4.0, 8.0]))
    with pytest.raises(DegenerateFieldError):
        correct_divide(raw, sur(raw.values.copy()))


def test_divide_zero_mean_node_excluded():
    raw = MetricField("DC", np.array([5.0, 3.0, 4.0]))
    s = sur(np.array([1.0, 0.0, 2.0]))
    cf = correct_divide(raw, s)
    assert cf.undefined.tolist() == [False, True, False]
    assert np.isnan(cf.corrected[1]) and np.isnan(cf.normalized[1])
    assert cf.normalized[0] == 1.0 and cf.normalized[2] == 0.0


def test_divide_small_denominator_compresses():
    raw = MetricField("DC", np.ones(4))
    s = sur(np.array([0.001, 1.0, 1.0, 2.0]))
    cf = correct_divide(raw, s)
    assert cf.corrected[0] == pytest.approx(1000.0)
    # everyone else is squeezed toward zero by the huge maximum
    assert np.nanmax(cf.normalized[1:]) < 0.001


def test_divide_all_zero_means_errors():
    raw = MetricField("DC", np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="undefined everywhere"):
        correct_divide(raw, sur(np.zeros(2)))


def test_divide_unit_means_match_subtraction():
    # with surrogate mean 1 everywhere and integer raw values the two
    # corrections produce identical normalized fields
    raw = MetricField("DC", np.array([3.0, 7.0, 1.0, 4.0]))
    ones = sur(np.ones(4))
    a = correct_subtract(raw, ones)
    b = correct_divide(raw, ones)
    assert np.array_equal(a.normalized, b.normalized)


def test_relabeling_invariance(rng):
    n = 20
    raw_vals = rng.integers(0, 15, n).astype(float)
    mean = rng.random(n) + 0.2
    perm = rng.permutation(n)
    for fn in (correct_subtract, correct_divide):
        a = fn(MetricField("DC", raw_vals), sur(mean))
        b = fn(MetricField("DC", raw_vals[perm]), sur(mean[perm]))
        assert np.allclose(a.normalized[perm], b.normalized, atol=1e-15, equal_nan=True)


def test_rank_preserved_under_constant_surrogate(rng):
    raw_vals = rng.random(30)
    raw = MetricField("MGD", raw_vals)
    cf = correct_subtract(raw, sur(np.full(30, 0.7), metric="MGD"))
    assert np.array_equal(np.argsort(cf.normalized), np.argsort(raw_vals))


def test_paired_fields_alignment():
    raw = MetricField("DC", np.array([5.0, 3.0, 4.0, 2.0]))
    s = sur(np.array([1.0, 0.0, 2.0, 1.0]))
    sub = correct_subtract(raw, s)
    div = correct_divide(raw, s)
    x, y = paired_fields(sub, div)
    assert x.size == y.size == 3  # node 1 excluded
    assert not np.isnan(x).any() and not np.isnan(y).any()


def test_paired_fields_permutation_leaves_tests_unchanged(rng):
    from gridsync.stats import ks_two_sample, paired_t_test

    n = 40
    raw = MetricField("DC", rng.integers(1, 30, n).astype(float))
    s = sur(np.concatenate([np.full(n - 4, 1.0), np.full(4, 0.05)]))
    sub = correct_subtract(raw, s)
    div = correct_divide(raw, s)
    x, y = paired_fields(sub, div)
    perm = rng.permutation(x.size)
    t1, t2 = paired_t_test(x, y), paired_t_test(x[perm], y[perm])
    assert t1.statistic == pytest.approx(t2.statistic, rel=1e-12)
    k1, k2 = ks_two_sample(x, y), ks_two_sample(x[perm], y[perm])
    assert k1.statistic == k2.statistic


def test_metric_mismatch_rejected():
    raw = MetricField("DC", np.ones(3))
    with pytest.raises(ValueError, match="metric mismatch"):
        correct_subtract(raw, sur(np.zeros(3), metric="CC"))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_normalized_attains_bounds(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 50))
    raw = MetricField("DC", rng.integers(0, 20, n).astype(float))
    mean = rng.random(n) + 0.1
    try:
        cf = correct_subtract(raw, sur(mean))
    except DegenerateFieldError:
        return
    assert cf.normalized.min() == 0.0
    assert cf.normalized.max() == 1.0
    assert np.all((cf.normalized >= 0) & (cf.normalized <= 1))


def test_corrected_csv_roundtrip(tmp_path):
    grid = random_grid(5, 3)
    raw = MetricField("DC", np.array([5.0, 3.0, 4.0, 2.0, 9.0]))
    s = sur(np.array([1.0, 0.0, 2.0, 1.0, 3.0]))
    cf = correct_divide(raw, s)
    p = tmp_path / "corrected_DC_divide.csv"
    write_corrected_csv(cf, grid, p)
    back, back_grid = read_corrected_csv(p)
    assert np.array_equal(back_grid.lat, grid.lat) and np.array_equal(back_grid.lon, grid.lon)
    assert np.array_equal(back.raw, cf.raw)
    assert np.array_equal(back.surrogate_mean, cf.surrogate_mean)
    assert np.array_equal(back.corrected, cf.corrected, equal_nan=True)
    assert np.array_equal(back.normalized, cf.normalized, equal_nan=True)
    assert np.array_equal(back.undefined, cf.undefined)
    defined = ~cf.undefined
    assert back.corrected[defined].min() == cf.corrected[defined].min()
    assert back.corrected[defined].max() == cf.corrected[defined].max()
