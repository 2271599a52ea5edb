import math
from itertools import combinations

import numpy as np
import pytest

from gridsync.stats import (
    ComparisonCell,
    ComparisonReport,
    TestResult,
    betainc_reg,
    compare_methods,
    format_p,
    kolmogorov_sf,
    ks_statistic,
    ks_two_sample,
    paired_t_test,
)


# ---------------------------------------------------------------------------
# oracles


def t_density(u, df):
    c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
    return c * (1.0 + u * u / df) ** (-(df + 1) / 2)


def t_p_quadrature(t, df):
    """Two-sided p by numerical integration of the t density."""
    from scipy.integrate import quad

    tail, _ = quad(t_density, abs(t), np.inf, args=(df,), epsabs=1e-13, epsrel=1e-13)
    return 2.0 * tail


def ks_p_permutation(x, y):
    """Exact permutation distribution of D over all pooled-sample splits."""
    pooled = np.concatenate([x, y])
    nx = len(x)
    d_obs = ks_statistic(x, y)
    count = total = 0
    for c in combinations(range(len(pooled)), nx):
        mask = np.zeros(len(pooled), dtype=bool)
        mask[list(c)] = True
        d = ks_statistic(pooled[mask], pooled[~mask])
        count += d >= d_obs - 1e-12
        total += 1
    return count / total


# ---------------------------------------------------------------------------
# paired t-test


def test_t_identical_samples_degenerate():
    x = np.arange(10.0)
    r = paired_t_test(x, x)
    assert r.statistic == 0.0
    assert r.p_value == 1.0


def test_t_alternating_differences():
    x = np.zeros(10)
    y = np.array([1.0, -1.0] * 5)
    r = paired_t_test(x, y)
    assert r.statistic == 0.0
    assert r.p_value == 1.0


def test_t_constant_nonzero_differences():
    x = np.arange(6.0)
    r = paired_t_test(x + 0.5, x)
    assert r.p_value == 1.0
    assert math.isinf(r.statistic) and r.statistic > 0


def test_t_rejects_tiny_samples():
    with pytest.raises(ValueError):
        paired_t_test([1.0], [2.0])


def test_t_p_matches_quadrature_oracle():
    rng = np.random.default_rng(314)
    for _ in range(20):
        n = 20
        x = rng.normal(0.0, 1.0, n)
        y = x + rng.normal(0.2, 0.7, n)
        r = paired_t_test(x, y)
        assert r.p_value == pytest.approx(t_p_quadrature(r.statistic, n - 1), abs=1e-9)


def test_t_antisymmetry(rng):
    for _ in range(20):
        n = int(rng.integers(3, 40))
        x, y = rng.normal(size=n), rng.normal(size=n)
        a, b = paired_t_test(x, y), paired_t_test(y, x)
        assert a.statistic == pytest.approx(-b.statistic, rel=1e-13)
        assert a.p_value == pytest.approx(b.p_value, rel=1e-13)


def test_t_p_monotone_in_statistic():
    df = 12
    from gridsync.stats import t_sf_two_sided

    ps = [t_sf_two_sided(t, df) for t in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(ps, ps[1:]))
    assert all(0.0 <= p <= 1.0 for p in ps)


def test_betainc_reg_bounds():
    assert betainc_reg(2.0, 3.0, 0.0) == 0.0
    assert betainc_reg(2.0, 3.0, 1.0) == 1.0
    # analytic case: I_x(1, 1) = x
    for x in (0.1, 0.5, 0.9):
        assert betainc_reg(1.0, 1.0, x) == pytest.approx(x, abs=1e-14)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov


def test_ks_identical_samples():
    x = np.array([0.3, 0.7, 0.1])
    r = ks_two_sample(x, x)
    assert r.statistic == 0.0
    assert r.p_value == 1.0


def test_ks_disjoint_supports():
    r = ks_two_sample(np.array([0.1, 0.5, 0.9]), np.array([2.1, 2.5, 2.9]))
    assert r.statistic == 1.0


def test_ks_d_enumeration_oracle(rng):
    # D equals the maximum ECDF gap evaluated at every pooled point
    for _ in range(50):
        x = rng.normal(size=int(rng.integers(2, 15)))
        y = rng.normal(0.4, 1.1, size=int(rng.integers(2, 15)))
        pooled = np.concatenate([x, y])
        gaps = [
            abs((x <= v).mean() - (y <= v).mean())
            for v in pooled
        ]
        assert ks_statistic(x, y) == pytest.approx(max(gaps), abs=1e-15)


def test_ks_handles_ties():
    x = np.array([1.0, 1.0, 2.0])
    y = np.array([1.0, 2.0, 2.0])
    # F_x(1) = 2/3, F_y(1) = 1/3 -> D = 1/3
    assert ks_statistic(x, y) == pytest.approx(1.0 / 3.0)


def test_ks_small_sample_tail_matches_permutation():
    # strongly separated fixtures (the regime where rejection decisions
    # live): corrected-asymptotic p within 0.02 of the exact permutation p
    rng = np.random.default_rng(2718)
    for n in (5, 6, 7, 8):
        x = rng.normal(0.0, 1.0, n)
        y = rng.normal(4.0, 1.0, n)
        r = ks_two_sample(x, y)
        assert abs(r.p_value - ks_p_permutation(x, y)) <= 0.02


def test_ks_symmetry(rng):
    for _ in range(20):
        x = rng.normal(size=int(rng.integers(2, 30)))
        y = rng.normal(size=int(rng.integers(2, 30)))
        a, b = ks_two_sample(x, y), ks_two_sample(y, x)
        assert a.statistic == b.statistic
        assert a.p_value == b.p_value


def test_ks_monotone_transform_invariance(rng):
    for _ in range(20):
        x = rng.normal(size=12)
        y = rng.normal(0.5, 1.0, size=9)
        d0 = ks_statistic(x, y)
        for f in (lambda v: 2 * v, lambda v: v**3, np.exp):
            assert ks_statistic(f(x), f(y)) == pytest.approx(d0, abs=1e-15)


def test_ks_empty_sample_rejected():
    with pytest.raises(ValueError):
        ks_two_sample(np.array([]), np.array([1.0]))


def test_kolmogorov_sf_limits():
    assert kolmogorov_sf(0.0) == 1.0
    assert kolmogorov_sf(1e-12) == 1.0
    assert kolmogorov_sf(5.0) < 1e-20
    lams = np.linspace(0.3, 3.0, 20)
    vals = [kolmogorov_sf(l) for l in lams]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# comparison report


def fake_corrected(values, undefined=None):
    from gridsync.correction import CorrectedField

    values = np.asarray(values, dtype=float)
    n = values.size
    undefined = np.zeros(n, dtype=bool) if undefined is None else np.asarray(undefined)
    return CorrectedField(
        raw=values.copy(),
        surrogate_mean=np.ones(n),
        corrected=values.copy(),
        normalized=values.copy(),
        undefined=undefined,
    )


def test_compare_identical_fields_never_reject(rng):
    vals = rng.random(50)
    cf = fake_corrected(vals)
    report = compare_methods({("EPE", "JJA", "DC"): (cf, cf)})
    cell = report.cells[("EPE", "JJA", "DC")]
    assert cell.paired_t.p_value == 1.0
    assert cell.ks.p_value == 1.0
    assert not any(t["reject"] for t in report.to_json_dict()["EPE"]["JJA"]["DC"].values())


def test_compare_divergent_fixture_rejects():
    from synthetic import gen_divergence_fixture

    x, y = gen_divergence_fixture(1000, seed=5)
    report = compare_methods({("EPE", "JJA", "DC"): (fake_corrected(x), fake_corrected(y))})
    tests = report.to_json_dict()["EPE"]["JJA"]["DC"]
    assert tests["paired_t"]["reject"]
    assert tests["ks"]["reject"]


def test_report_rejects_below_its_alpha():
    # the report holds alpha once: a test rejects when its p lies below it
    cell = ComparisonCell(paired_t=TestResult(statistic=1.0, p_value=0.04), ks=TestResult(statistic=0.1, p_value=0.01))
    for alpha, paired_t, ks in [(0.05, True, True), (0.04, False, True), (0.01, False, False)]:
        doc = ComparisonReport(cells={("EPE", "JJA", "DC"): cell}, alpha=alpha).to_json_dict()["EPE"]["JJA"]["DC"]
        assert (doc["paired_t"]["reject"], doc["ks"]["reject"]) == (paired_t, ks)


def test_compare_missing_cell_reported():
    ok = fake_corrected(np.arange(5.0))
    broken_sub = fake_corrected(np.arange(5.0), undefined=np.ones(5, dtype=bool))
    report = compare_methods(
        {
            ("EPE", "JJA", "DC"): (ok, ok),
            ("EPE", "JJA", "CC"): (broken_sub, ok),
        }
    )
    assert ("EPE", "JJA", "DC") in report.cells
    assert ("EPE", "JJA", "CC") in report.missing
    table = report.to_text_table()
    assert "missing" in table


def test_report_json_shape():
    ok = fake_corrected(np.arange(6.0))
    report = compare_methods({("ETE", "DJF", "MGD"): (ok, ok)})
    doc = report.to_json_dict()
    cell = doc["ETE"]["DJF"]["MGD"]
    assert set(cell) == {"paired_t", "ks"}
    assert set(cell["paired_t"]) == {"stat", "p", "reject"}


def test_report_table_mixed_outcome():
    # a cell can reject under one test and not the other; both must render
    cells = {
        ("ETE", "DJF", "CC"): ComparisonCell(
            paired_t=TestResult(statistic=0.01, p_value=9.95e-1),
            ks=TestResult(statistic=0.3, p_value=8.23e-3),
        )
    }
    report = ComparisonReport(cells=cells)
    table = report.to_text_table()
    assert "9.95e-01" in table
    assert "8.23e-03" in table
    assert "ETE network-Winter (DJF)" in table
    tests = report.to_json_dict()["ETE"]["DJF"]["CC"]
    assert tests["ks"]["reject"]
    assert not tests["paired_t"]["reject"]


def test_report_table_orders_every_label_and_drops_no_season():
    # the paper's networks, seasons and metrics first, then the others sorted; a season
    # outside JJA/DJF, like perfbench/conus.py's ("SYN", "ALL"), is labelled by its name
    cell = ComparisonCell(paired_t=TestResult(statistic=1.0, p_value=0.5), ks=TestResult(statistic=0.1, p_value=0.25))
    keys = [("SYN", "ALL", m) for m in ("MGD", "DC", "CC")]
    keys += [("EPE", "MAM", "BC"), ("EPE", "DJF", "XYZ"), ("EPE", "JJA", "DC"), ("ETE", "ALL", "DC")]
    lines = ComparisonReport(cells=dict.fromkeys(keys, cell)).to_text_table().splitlines()
    assert lines[0].split() == ["Statistical", "test", "DC", "CC", "MGD", "BC", "XYZ"]
    sections = [line for line in lines if "network-" in line]
    assert sections == ["EPE network-Summer (JJA)", "EPE network-Winter (DJF)", "EPE network-MAM",
                        "ETE network-ALL", "SYN network-ALL"]
    assert len(lines) == 1 + 3 * len(sections)
    syn = lines.index("SYN network-ALL")
    assert lines[syn + 1].split() == ["Paired", "t-test", "5.00e-01", "5.00e-01", "5.00e-01", "-", "-"]
    assert lines[syn + 2].split() == ["KS", "test", "2.50e-01", "2.50e-01", "2.50e-01", "-", "-"]


def test_format_p_tiny_renders_zero():
    assert format_p(1e-310) == "0.00"
    assert format_p(0.0) == "0.00"
    assert format_p(5.86e-83) == "5.86e-83"
    assert format_p(0.995) == "9.95e-01"
