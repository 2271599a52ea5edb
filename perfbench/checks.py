"""Output checks for benchmark runs, independent of gridsync's own code.

Every artifact is parsed here, and every expected value is re-derived with
NumPy, SciPy or networkx (which the benchmark may use and the program never
does), so a defect in a gridsync reader, writer or kernel cannot hide itself.
A check returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

EARTH_RADIUS_KM = 6371.0
METRIC_TOL = 1e-9  # DC/CC/BC against networkx, MGD against our own great-circle distance
ALGEBRA_TOL = 1e-12  # corrections: same float operations, so agreement is near exact
T_TEST_TOL = 1e-9  # paired-t statistic and p against SciPy, as in acceptance criterion 4
KS_P_TOL = 0.02  # K-S p against SciPy, as in acceptance criterion 4
MC_KEY_SHARE = 0.95  # criterion 2: >= 95% of Monte-Carlo thresholds within +-1 of the exact one
SURROGATE_DELTA = 1e-6  # per-node false-alarm probability of the surrogate DC bound
SEASON_MONTHS = {"JJA": (6, 7, 8), "DJF": (12, 1, 2)}
ROW_BLOCK = 256  # rows of the pair-distance matrix held at once


# ---------------------------------------------------------------------------
# parsing


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digests(out_dir: Path) -> dict[str, str]:
    return {p.name: sha256(p) for p in sorted(out_dir.iterdir()) if p.is_file()}


def read_rows(path, header: str) -> list[list[str]]:
    """Rows of a CSV artifact as string fields, after checking its header."""
    with open(path) as f:
        got = f.readline().strip()
        if got != header:
            raise ValueError(f"{Path(path).name}: header {got!r}, expected {header!r}")
        rows = [line.strip().split(",") for line in f if line.strip()]
    width = header.count(",") + 1
    if any(len(r) != width for r in rows):
        raise ValueError(f"{Path(path).name}: a row does not have {width} fields")
    return rows


def read_numeric(path, header: str) -> np.ndarray:
    rows = read_rows(path, header)
    return np.array(rows, dtype=float).reshape(len(rows), header.count(",") + 1)


def read_cng1(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lat/lon as (n, 2), day indices, values as (n, T) float64) of a CNG1 file."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"CNG1":
        raise ValueError("not a CNG1 file")
    n, t = (int(v) for v in np.frombuffer(raw, "<u4", 2, 4))
    coords = np.frombuffer(raw, "<f8", 2 * n, 12).reshape(n, 2)
    days = np.frombuffer(raw, "<i4", t, 12 + 16 * n).astype(np.int64)
    values = np.frombuffer(raw, "<f4", n * t, 12 + 16 * n + 4 * t).astype(np.float64)
    return coords, days, values.reshape(n, t)


def read_events(out_dir: Path) -> tuple[list[np.ndarray], dict]:
    sidecar = json.loads((out_dir / "events.csv.json").read_text())
    rows = read_numeric(out_dir / "events.csv", "node_id,day_index").astype(np.int64)
    per_node = [rows[rows[:, 0] == i, 1] for i in range(int(sidecar["n_nodes"]))]
    return per_node, sidecar


def read_edges(path) -> np.ndarray:
    return read_numeric(path, "i,j").astype(np.int64)


def read_grid(path) -> np.ndarray:
    return read_numeric(path, "node_id,lat,lon")[:, 1:]


def read_metric(out_dir: Path, metric: str) -> np.ndarray:
    return read_numeric(out_dir / f"metric_{metric}.csv", "node_id,lat,lon,value")


def read_surrogate_means(out_dir: Path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """{metric: (mean per node, zero flag per node)}."""
    out: dict[str, list] = {}
    for node, metric, mean, flag in read_rows(out_dir / "surrogate_stats.csv",
                                              "node_id,metric,mean,zero_flag"):
        out.setdefault(metric, []).append((int(node), float(mean), int(flag)))
    res = {}
    for metric, rows in out.items():
        rows.sort()
        if [r[0] for r in rows] != list(range(len(rows))):
            raise ValueError(f"surrogate_stats.csv: node ids of {metric} are not 0..n-1")
        res[metric] = (np.array([r[1] for r in rows]), np.array([r[2] for r in rows], dtype=bool))
    return res


CORRECTED_HEADER = "node_id,lat,lon,raw,surrogate_mean,corrected,normalized,defined"


def read_corrected(out_dir: Path, metric: str, method: str) -> np.ndarray:
    return read_numeric(out_dir / f"corrected_{metric}_{method}.csv", CORRECTED_HEADER)


# ---------------------------------------------------------------------------
# independent references


def great_circle_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Vincenty's spherical formula; gridsync uses haversine, so the two are independent."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dl = np.radians(lon2) - np.radians(lon1)
    num = np.hypot(np.cos(p2) * np.sin(dl),
                   np.cos(p1) * np.sin(p2) - np.sin(p1) * np.cos(p2) * np.cos(dl))
    den = np.sin(p1) * np.sin(p2) + np.cos(p1) * np.cos(p2) * np.cos(dl)
    return EARTH_RADIUS_KM * np.arctan2(num, den)


def expected_events(coords_days_values, params: dict) -> tuple[list[np.ndarray], list[int], np.ndarray]:
    """Per-node deduplicated event days, unusable nodes and season days."""
    _, days, values = coords_days_values
    months = days.astype("datetime64[D]").astype("datetime64[M]").astype(np.int64) % 12 + 1
    keep = np.isin(months, SEASON_MONTHS[params["season"]])
    days, values = days[keep], values[:, keep]
    th = params["threshold"]
    events, unusable = [], []
    for i, v in enumerate(values):
        support = v[np.isfinite(v)]
        if th["support"] == "positive_only":
            support = support[support > th["positive_floor"]]
        if support.size < th["min_support"]:
            unusable.append(i)
            events.append(np.empty(0, dtype=np.int64))
            continue
        thr = np.quantile(support, th["percentile"] / 100.0)
        with np.errstate(invalid="ignore"):
            hit = (v > thr) if th["direction"] == "above" else (v < thr)
        ev = days[hit & np.isfinite(v)]
        events.append(ev[np.r_[True, np.diff(ev) > 1]] if ev.size else ev)
    return events, unusable, days


# ---------------------------------------------------------------------------
# checks


def check_manifests(out_dir: Path, gridded: Path) -> list[str]:
    problems = []
    named = {"gridded": gridded, "events": out_dir / "events.csv", "grid": out_dir / "grid.csv",
             "edges": out_dir / "edges.csv", "surrogate_stats": out_dir / "surrogate_stats.csv"}
    manifests = sorted(out_dir.glob("*_manifest.json"))
    if len(manifests) != 6:
        problems.append(f"expected 6 stage manifests, found {len(manifests)}")
    for mf in manifests:
        doc = json.loads(mf.read_text())
        files = [(n, out_dir / n, h) for n, h in doc["outputs"].items()]
        files += [(n, named.get(n, out_dir / f"{n}.csv"), h) for n, h in doc["inputs"].items()]
        for name, path, h in files:
            if not path.is_file() or sha256(path) != h:
                problems.append(f"{mf.name}: hash of {name} does not match {path.name}")
    return problems


def check_events(out_dir: Path, gridded: Path, params: dict) -> list[str]:
    cng = read_cng1(gridded)
    want, unusable, season_days = expected_events(cng, params)
    got, sidecar = read_events(out_dir)
    problems = []
    if sidecar["unusable_nodes"] != unusable:
        problems.append(f"unusable nodes {sidecar['unusable_nodes']} != re-derived {unusable}")
    if sidecar["season_days"] != season_days.tolist():
        problems.append("season days differ from the re-derived JJA days")
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if not np.array_equal(a, b)]
    if len(got) != len(want) or bad:
        problems.append(f"event days differ from the NumPy re-derivation at nodes {bad[:10]}")
    if not np.array_equal(read_grid(out_dir / "grid.csv"), cng[0]):
        problems.append("grid.csv coordinates differ from the input file")
    return problems


def check_links(out_dir: Path, params: dict) -> list[str]:
    """Zero-lag ES is |A and B|; links follow one threshold per null key near the exact quantile."""
    from scipy.stats import hypergeom

    events, sidecar = read_events(out_dir)
    season_days = np.asarray(sidecar["season_days"])
    n, t = len(events), season_days.size
    e = np.zeros((n, t), dtype=np.float32)
    for i, ev in enumerate(events):
        e[i, np.searchsorted(season_days, ev)] = 1.0
    es = np.rint(e @ e.T).astype(np.int64)  # exact: counts are far below 2**24
    edges = read_edges(out_dir / "edges.csv")
    counts = np.array([ev.size for ev in events])
    problems = []
    if edges.size and ((counts[edges] == 0).any() or (edges[:, 0] >= edges[:, 1]).any()):
        return ["edges.csv has a self-loop, an unordered row or a node without events"]
    linked = np.zeros((n, n), dtype=bool)
    linked[edges[:, 0], edges[:, 1]] = True
    iu, ju = np.triu_indices(n, 1)
    tested = (counts[iu] > 0) & (counts[ju] > 0)
    iu, ju = iu[tested], ju[tested]
    lo, hi = np.minimum(counts[iu], counts[ju]), np.maximum(counts[iu], counts[ju])
    pair_es, pair_linked = es[iu, ju], linked[iu, ju]
    keys = np.unique(np.stack([lo, hi], axis=1), axis=0)
    q = params["sync"]["link_quantile"]
    near = 0
    for n_lo, n_hi in keys:
        sel = (lo == n_lo) & (hi == n_hi)
        on, off = pair_es[sel & pair_linked], pair_es[sel & ~pair_linked]
        lowest = off.max() + 1 if off.size else -math.inf  # feasible thresholds: [lowest, highest]
        highest = on.min() if on.size else math.inf
        if lowest > highest:
            problems.append(f"key ({n_lo}, {n_hi}): a linked pair has lower ES than an unlinked one")
        exact = hypergeom(t, int(n_lo), int(n_hi)).ppf(q)
        near += lowest <= exact + 1 and highest >= exact - 1
    if near < MC_KEY_SHARE * len(keys):
        problems.append(f"only {near}/{len(keys)} null keys have a threshold within 1 of the exact quantile")
    return problems


def check_metrics(out_dir: Path, coords: np.ndarray, edges: np.ndarray, metrics) -> list[str]:
    import networkx as nx

    n = coords.shape[0]
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges.tolist())
    expect = {"DC": np.array([g.degree(i) for i in range(n)], dtype=float)}
    if "CC" in metrics:
        cc = nx.clustering(g)
        expect["CC"] = np.array([cc[i] for i in range(n)])
    if "MGD" in metrics:
        d = great_circle_km(coords[edges[:, 0], 0], coords[edges[:, 0], 1],
                            coords[edges[:, 1], 0], coords[edges[:, 1], 1])
        total = np.bincount(edges.ravel(), weights=np.repeat(d, 2), minlength=n)
        expect["MGD"] = np.divide(total, expect["DC"], out=np.zeros(n), where=expect["DC"] > 0)
    if "BC" in metrics:
        bc = nx.betweenness_centrality(g)
        expect["BC"] = np.array([bc[i] for i in range(n)])
        expect["logBC"] = np.log1p(expect["BC"])
    problems = []
    for m, want in expect.items():
        got = read_metric(out_dir, m)
        if not np.array_equal(got[:, 1:3], coords):
            problems.append(f"metric_{m}.csv: coordinates differ from the grid")
        if not np.allclose(got[:, 3], want, rtol=METRIC_TOL, atol=METRIC_TOL):
            worst = np.abs(got[:, 3] - want).max()
            problems.append(f"metric_{m}.csv differs from the reference by up to {worst:.3g}")
    return problems


def check_surrogate(out_dir: Path, coords: np.ndarray, members: int) -> list[str]:
    """Ensemble-mean DC within a Bernstein bound of sum_j p_ij, p from the written profile."""
    prof = read_numeric(out_dir / "profile.csv", "bin_lo_km,bin_hi_km,pairs,links,prob")
    problems = []
    pairs, links, prob = prof[:, 2], prof[:, 3], prof[:, 4]
    if not np.allclose(prob, np.divide(links, pairs, out=np.zeros_like(prob), where=pairs > 0),
                       rtol=ALGEBRA_TOL, atol=0):
        problems.append("profile.csv: prob is not links / pairs")
    width = prof[0, 1] - prof[0, 0]
    table = np.append(prob, 0.0)  # pairs beyond the last bin link with p = 0

    def p_of(bins):
        return table[np.minimum(bins, prob.size)]

    n = coords.shape[0]
    mu_lo, mu_hi, var = np.zeros(n), np.zeros(n), np.zeros(n)
    for start in range(0, n, ROW_BLOCK):
        rows = slice(start, min(start + ROW_BLOCK, n))
        x = great_circle_km(coords[rows, 0][:, None], coords[rows, 1][:, None],
                            coords[None, :, 0], coords[None, :, 1]) / width
        # a distance within rounding of a bin edge may fall on either side of it
        upper = np.floor(x).astype(np.int64)
        edge = np.abs(x - np.rint(x)) <= 1e-9 * np.maximum(1.0, x)
        lower = np.where(edge, np.rint(x).astype(np.int64) - 1, upper)
        upper = np.where(edge, np.rint(x).astype(np.int64), upper)
        pa, pb = p_of(np.maximum(lower, 0)), p_of(upper)
        self_pair = np.arange(rows.start, rows.stop)[:, None] == np.arange(n)[None, :]
        pa[self_pair] = pb[self_pair] = 0.0
        mu_lo[rows] = np.minimum(pa, pb).sum(axis=1)
        mu_hi[rows] = np.maximum(pa, pb).sum(axis=1)
        var[rows] = np.maximum(pa * (1 - pa), pb * (1 - pb)).sum(axis=1)
    mean, zero = read_surrogate_means(out_dir)["DC"]
    # Bernstein: P(|S - ES| >= t) <= 2 exp(-t^2 / (2 (v + t / 3))) for S = members * mean
    log_term = math.log(2.0 / SURROGATE_DELTA)
    slack = log_term / 3 + np.sqrt((log_term / 3) ** 2 + 2 * members * var * log_term) + 1e-6
    total = members * mean
    outside = (total < members * mu_lo - slack) | (total > members * mu_hi + slack)
    if outside.any():
        problems.append(f"surrogate mean DC outside the binomial bound at nodes {np.nonzero(outside)[0][:10]}")
    if not np.array_equal(zero, mean == 0.0):
        problems.append("surrogate_stats.csv: zero flags do not match zero means")
    return problems


def check_corrections(out_dir: Path, metrics) -> list[str]:
    problems = []
    means = read_surrogate_means(out_dir)
    for m in metrics:
        raw = read_metric(out_dir, m)[:, 3]
        mean = means[m][0]
        for method in ("subtract", "divide"):
            rows = read_corrected(out_dir, m, method)
            name = f"corrected_{m}_{method}.csv"
            if not (np.array_equal(rows[:, 3], raw) and np.array_equal(rows[:, 4], mean)):
                problems.append(f"{name}: raw or surrogate_mean column differs from its source")
            defined = np.ones(raw.size, bool) if method == "subtract" else mean > 0
            with np.errstate(divide="ignore", invalid="ignore"):
                want = np.where(defined, raw - mean if method == "subtract" else raw / mean, np.nan)
            lo, hi = want[defined].min(), want[defined].max()
            norm = (want - lo) / (hi - lo)
            ok = np.array_equal(rows[:, 7].astype(bool), defined)
            ok &= np.allclose(rows[:, 5], want, rtol=ALGEBRA_TOL, atol=0, equal_nan=True)
            ok &= np.allclose(rows[:, 6], norm, rtol=0, atol=ALGEBRA_TOL, equal_nan=True)
            if not ok:
                problems.append(f"{name}: correction algebra or undefined flags do not hold")
    return problems


def check_report(out_dir: Path, label: tuple[str, str], metrics) -> list[str]:
    from scipy import stats

    doc = json.loads((out_dir / "report.json").read_text())
    problems = []
    for m in metrics:
        sub, div = read_corrected(out_dir, m, "subtract"), read_corrected(out_dir, m, "divide")
        both = (sub[:, 7] > 0) & (div[:, 7] > 0)
        x, y = sub[both, 6], div[both, 6]
        cell = doc[label[0]][label[1]][m]
        t = stats.ttest_rel(x, y)
        ks = stats.ks_2samp(x, y, method="asymp")
        if not (abs(cell["paired_t"]["stat"] - t.statistic) <= T_TEST_TOL * max(1.0, abs(t.statistic))
                and abs(cell["paired_t"]["p"] - t.pvalue) <= T_TEST_TOL):
            problems.append(f"report.json {m}: paired t differs from SciPy")
        if not (abs(cell["ks"]["stat"] - ks.statistic) <= ALGEBRA_TOL
                and abs(cell["ks"]["p"] - ks.pvalue) <= KS_P_TOL):
            problems.append(f"report.json {m}: K-S differs from SciPy")
    return problems


def check_outputs(kind: str, out_dir: Path, inputs: dict, members: int) -> list[str]:
    """Run every check that applies to a workload kind; a check that crashes is a problem too."""
    try:
        steps = _steps(kind, out_dir, inputs, members)
    except Exception as e:  # e.g. a missing manifest: the output fails, the benchmark goes on
        return [f"artifacts: {type(e).__name__}: {e}"]
    problems = []
    for name, step in steps:
        try:
            problems += [f"{name}: {p}" for p in step()]
        except Exception as e:  # a malformed artifact fails its check, not the benchmark
            problems.append(f"{name}: {type(e).__name__}: {e}")
    return problems


def _steps(kind: str, out_dir: Path, inputs: dict, members: int) -> list:
    if kind == "cli":
        params = json.loads((out_dir / "compare_manifest.json").read_text())["parameters"]
        metrics = params["metrics"]
        coords = read_cng1(inputs["gridded"])[0]
        edges = out_dir / "edges.csv"
        label = ("EPE" if params["variable"] == "precip" else "ETE", params["season"])
        steps = [
            ("manifests", lambda: check_manifests(out_dir, inputs["gridded"])),
            ("events", lambda: check_events(out_dir, inputs["gridded"], params)),
            ("links", lambda: check_links(out_dir, params)),
        ]
    else:
        from conus import METRICS as metrics, REPORT_KEY as label

        coords = read_grid(inputs["grid"])
        edges = inputs["edges"]
        steps = []
    return steps + [
        ("metrics", lambda: check_metrics(out_dir, coords, read_edges(edges), metrics)),
        ("surrogate", lambda: check_surrogate(out_dir, coords, members)),
        ("corrections", lambda: check_corrections(out_dir, metrics)),
        ("report", lambda: check_report(out_dir, label, metrics)),
    ]
