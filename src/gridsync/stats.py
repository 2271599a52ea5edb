"""Paired t-test, two-sample Kolmogorov-Smirnov test, and the method report.

Used to decide whether the subtraction- and division-corrected fields differ
in central tendency (paired t) and in distribution (K-S) at a given
significance level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .correction import paired_fields
from .grid_io import SEASON_MONTHS
from .netmetrics import METRIC_NAMES

_P_FLOOR_DISPLAY = 1e-300  # below this the report prints "0.00"

NETWORK_ORDER = ("EPE", "ETE")
_SEASON_LABEL = {"JJA": "Summer (JJA)", "DJF": "Winter (DJF)"}


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # keep pytest from collecting this as a test class

    statistic: float
    p_value: float


# ---------------------------------------------------------------------------
# regularized incomplete beta (continued fraction), for the t-distribution CDF


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    max_iter = 300
    eps = 3.0e-16
    fpmin = 1.0e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        de = d * c
        h *= de
        if abs(de - 1.0) < eps:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b), accurate to ~1e-14."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_bt = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def t_sf_two_sided(t: float, df: float) -> float:
    """Two-sided p-value P(|T_df| >= |t|) via the incomplete beta."""
    if df <= 0:
        raise ValueError("df must be positive")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return betainc_reg(0.5 * df, 0.5, x)


def paired_t_test(x, y) -> TestResult:
    """Two-sided paired t-test on the per-node differences x - y.

    Zero-variance differences get p = 1 rather than an error (constant
    corrected fields legitimately arise on tiny synthetic inputs).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    n = x.size
    if n < 2:
        raise ValueError("paired t-test needs at least 2 pairs")
    d = x - y
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        stat = 0.0 if mean == 0.0 else math.copysign(math.inf, mean)
        return TestResult(statistic=stat, p_value=1.0)
    t = mean / (sd / math.sqrt(n))
    return TestResult(statistic=t, p_value=t_sf_two_sided(t, n - 1))


# ---------------------------------------------------------------------------
# two-sample Kolmogorov-Smirnov


def ks_statistic(x, y) -> float:
    """sup |F_x - F_y| over the pooled sample points (right-continuous ECDFs)."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    if x.size == 0 or y.size == 0:
        raise ValueError("samples must be non-empty")
    pooled = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, pooled, side="right") / x.size
    cdf_y = np.searchsorted(y, pooled, side="right") / y.size
    return float(np.abs(cdf_x - cdf_y).max())


def kolmogorov_sf(lam: float) -> float:
    """Asymptotic K-S survival function 2 sum_k (-1)^(k-1) exp(-2 k^2 lam^2)."""
    if lam <= 0.0:
        return 1.0
    total = 0.0
    for k in range(1, 200):
        term = math.exp(-2.0 * k * k * lam * lam)
        total += term if k % 2 == 1 else -term
        if term < 1e-16:
            break
    else:
        return 1.0  # lam too small for the series to converge usefully
    return min(1.0, max(0.0, 2.0 * total))


def ks_two_sample(x, y) -> TestResult:
    """Two-sample K-S test with the small-sample-corrected asymptotic p-value.

    p uses lambda = (sqrt(n_e) + 0.12 + 0.11 / sqrt(n_e)) * D with effective
    size n_e = n_x n_y / (n_x + n_y).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = ks_statistic(x, y)
    n_e = x.size * y.size / (x.size + y.size)
    lam = (math.sqrt(n_e) + 0.12 + 0.11 / math.sqrt(n_e)) * d
    return TestResult(statistic=d, p_value=kolmogorov_sf(lam))


# ---------------------------------------------------------------------------
# comparison report


@dataclass(frozen=True)
class ComparisonCell:
    paired_t: TestResult
    ks: TestResult


# each ComparisonCell field with its report.txt row label, in report order
_TESTS = (("paired_t", "Paired t-test"), ("ks", "KS test"))


@dataclass(frozen=True)
class ComparisonReport:
    """Per (network, season, metric) test results for subtract vs divide; a test rejects when p < alpha."""

    cells: dict
    missing: dict = field(default_factory=dict)
    alpha: float = 0.05

    def to_json_dict(self) -> dict:
        out: dict = {}
        for (network, season, metric), cell in self.cells.items():
            block = out.setdefault(network, {}).setdefault(season, {})
            tests = block[metric] = {}
            for test, _ in _TESTS:
                r = getattr(cell, test)
                tests[test] = {"stat": r.statistic, "p": r.p_value, "reject": r.p_value < self.alpha}
        if self.missing:
            out["missing"] = {
                "/".join(key): reason for key, reason in sorted(self.missing.items())
            }
        return out

    def to_text_table(self) -> str:
        networks = _in_order(NETWORK_ORDER, {k[0] for k in self.cells})
        seasons = _in_order(SEASON_MONTHS, {k[1] for k in self.cells})
        metrics = _in_order(METRIC_NAMES, {k[2] for k in self.cells})
        lines = []
        header = ["Statistical test"] + metrics
        widths = [22] + [14] * len(metrics)
        lines.append(_row(header, widths))
        for nw in networks:
            for season in seasons:
                keys = [(nw, season, m) for m in metrics]
                if not any(k in self.cells for k in keys):
                    continue
                lines.append(f"{nw} network-{_SEASON_LABEL.get(season, season)}")
                for test, label in _TESTS:
                    cells = [format_p(getattr(self.cells[k], test).p_value) if k in self.cells else "-"
                             for k in keys]
                    lines.append(_row([label] + cells, widths))
        for key, reason in sorted(self.missing.items()):
            lines.append(f"missing {'/'.join(key)}: {reason}")
        return "\n".join(lines) + "\n"


def _in_order(paper_order, present: set) -> list:
    """The present labels in the paper's order, then the others sorted."""
    return [x for x in paper_order if x in present] + sorted(present.difference(paper_order))


def _row(cells, widths) -> str:
    return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths)).rstrip()


def format_p(p: float) -> str:
    """Three significant figures in scientific form; tiny values print as 0.00."""
    if p < _P_FLOOR_DISPLAY:
        return "0.00"
    return f"{p:.2e}"


def compare_methods(runs: dict, alpha: float = 0.05) -> ComparisonReport:
    """Build the full report from {(network, season, metric): (sub, div)} cells.

    Cells whose pairing fails (for example, no node defined under both
    corrections) are reported under missing; the rest of the report is still
    emitted.
    """
    cells = {}
    missing = {}
    for key, (sub, div) in runs.items():
        try:
            x, y = paired_fields(sub, div)
            cells[key] = ComparisonCell(
                paired_t=paired_t_test(x, y),
                ks=ks_two_sample(x, y),
            )
        except ValueError as e:
            missing[key] = str(e)
    return ComparisonReport(cells=cells, missing=missing, alpha=alpha)
