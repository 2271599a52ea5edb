"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts both the criterion and its runtime budget.
"""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from itertools import combinations

import numpy as np
import pytest

from gridsync.correction import correct_divide, correct_subtract, paired_fields
from gridsync.grid_io import GridSpec
from gridsync.netmetrics import (
    Network,
    betweenness,
    clustering,
    degree,
    mean_geo_distance,
)
from gridsync.seeding import mix64
from gridsync.stats import compare_methods, ks_statistic, ks_two_sample, paired_t_test
from gridsync.surrogate import SurrogateStats, ensemble_stats, estimate_profile
from gridsync.sync import SyncParams
from gridsync.synth import (
    Exponential,
    KM_PER_DEG,
    RectLattice,
    SynthNetSpec,
    gen_embedded_network,
    lattice_boundary_mask,
    lattice_grid,
)

from conftest import dense_adjacency, random_events, random_network
from oracles import event_sync, haversine_matrix, null_threshold, null_threshold_exact
from test_netmetrics import bc_oracle, cc_oracle
from test_stats import ks_p_permutation, t_p_quadrature


def report(num, name, ok, elapsed, limit, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} ({name}): {status} [{elapsed:.1f}s / limit {limit:.0f}s] {detail}"
    print(line)
    assert ok, line
    assert elapsed < limit, f"criterion {num} runtime {elapsed:.1f}s exceeds {limit:.0f}s"


def test_criterion_1_es_intersection_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    T = 2760
    failures = 0
    for _ in range(1000):
        a = random_events(T, rng.uniform(0.01, 0.10), rng)
        b = random_events(T, rng.uniform(0.01, 0.10), rng)
        expect = np.intersect1d(np.flatnonzero(a), np.flatnonzero(b), assume_unique=True).size
        if event_sync(a, b) != expect:
            failures += 1
    elapsed = time.perf_counter() - t0
    report(1, "ES equals set intersection", failures == 0, elapsed, 5.0,
           f"{failures} mismatches over 1000 pairs")


def test_criterion_2_null_model_oracle():
    t0 = time.perf_counter()
    T, N = 2760, 138
    a = b = np.arange(T) < N
    params = SyncParams(n_shuffles=1000, link_quantile=0.995)
    exact = null_threshold_exact(T, N, N, 0.995)
    hits = sum(
        abs(null_threshold(a, b, params, pair_seed=mix64(2002, t)) - exact) <= 1
        for t in range(100)
    )

    # exact-arithmetic route against exhaustive enumeration, T <= 12
    enum_ok = True
    for T2, n_i, n_j, qs in (
        (12, 4, 4, (0.9, 0.995)),
        (12, 6, 3, (0.5, 0.995)),
        (11, 5, 5, (0.995,)),
        (10, 5, 5, (0.9,)),
    ):
        counts = {}
        for sa in combinations(range(T2), n_i):
            sa = set(sa)
            for sb in combinations(range(T2), n_j):
                k = len(sa.intersection(sb))
                counts[k] = counts.get(k, 0) + 1
        total = sum(counts.values())
        for q in qs:
            cdf, expected = 0.0, None
            for k in sorted(counts):
                cdf += counts[k] / total
                if expected is None and cdf >= q:
                    expected = k
            enum_ok &= null_threshold_exact(T2, n_i, n_j, q) == expected
    elapsed = time.perf_counter() - t0
    report(2, "null model vs hypergeometric", hits >= 95 and enum_ok, elapsed, 60.0,
           f"{hits}/100 trials within +-1 of {exact}; enumeration {'ok' if enum_ok else 'MISMATCH'}")


def test_criterion_3_graph_metric_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3003)
    ok = True
    worst_bc = worst_mgd = 0.0
    for g in range(100):
        n = int(rng.integers(5, 41))
        net = random_network(n, rng.uniform(0.05, 0.5), 30_000 + g)
        a = dense_adjacency(net)
        ok &= np.array_equal(degree(net).values, a.sum(axis=1))
        ok &= np.array_equal(clustering(net).values, cc_oracle(net))
        bc_err = np.abs(betweenness(net).values - bc_oracle(net)).max()
        worst_bc = max(worst_bc, bc_err)
        m = haversine_matrix(net.grid)
        got = mean_geo_distance(net).values
        for i in range(n):
            k = a[i].sum()
            expect = (m[i] * a[i]).sum() / k if k else 0.0
            if expect:
                worst_mgd = max(worst_mgd, abs(got[i] - expect) / expect)
            else:
                ok &= got[i] == 0.0
    ok &= worst_bc <= 1e-9 and worst_mgd <= 1e-9
    elapsed = time.perf_counter() - t0
    report(3, "graph metrics vs brute force", ok, elapsed, 120.0,
           f"100 graphs; max BC err {worst_bc:.2e}, max MGD rel err {worst_mgd:.2e}")


def test_criterion_4_statistics_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4004)
    ok = True

    # paired-t vs quadrature on 20 fixtures
    worst_t = 0.0
    for _ in range(20):
        n = 20
        x = rng.normal(0.0, 1.0, n)
        y = x + rng.normal(0.2, 0.7, n)
        r = paired_t_test(x, y)
        worst_t = max(worst_t, abs(r.p_value - t_p_quadrature(r.statistic, n - 1)))
    ok &= worst_t <= 1e-9

    # K-S D equals the pooled-point ECDF enumeration, all fixtures
    for _ in range(100):
        x = rng.normal(size=int(rng.integers(2, 25)))
        y = rng.normal(0.3, 1.2, size=int(rng.integers(2, 25)))
        pooled = np.concatenate([x, y])
        d_enum = max(abs((x <= v).mean() - (y <= v).mean()) for v in pooled)
        ok &= abs(ks_statistic(x, y) - d_enum) < 1e-15

    # K-S p within 0.02 of the exact permutation null for n_x = n_y <= 8,
    # on clearly separated fixtures (the regime the report's decisions use)
    worst_ks = 0.0
    for n in (5, 6, 7, 8):
        for trial in range(3):
            r2 = np.random.default_rng(mix64(4040, n, trial))
            x = r2.normal(0.0, 1.0, n)
            y = r2.normal(4.0, 1.0, n)
            diff = abs(ks_two_sample(x, y).p_value - ks_p_permutation(x, y))
            worst_ks = max(worst_ks, diff)
    ok &= worst_ks <= 0.02

    # invariances on 100 random fixtures
    for _ in range(100):
        n = int(rng.integers(3, 30))
        x, y = rng.normal(size=n), rng.normal(0.2, 1.1, size=n)
        a, b = paired_t_test(x, y), paired_t_test(y, x)
        ok &= abs(a.statistic + b.statistic) <= 1e-10 * max(1.0, abs(a.statistic))
        ok &= abs(a.p_value - b.p_value) <= 1e-12
        k1, k2 = ks_two_sample(x, y), ks_two_sample(y, x)
        ok &= k1.statistic == k2.statistic and k1.p_value == k2.p_value
        perm = rng.permutation(n)
        ok &= abs(paired_t_test(x[perm], y[perm]).statistic - a.statistic) <= 1e-10
        ok &= ks_statistic(np.exp(x), np.exp(y)) == pytest.approx(k1.statistic, abs=1e-15)
        ok &= 0.0 <= a.p_value <= 1.0 and 0.0 <= k1.p_value <= 1.0
    elapsed = time.perf_counter() - t0
    report(4, "statistics vs quadrature/permutation", ok, elapsed, 60.0,
           f"t max err {worst_t:.1e}; KS small-sample max err {worst_ks:.3f}")


def test_criterion_5_boundary_bias_reduction():
    t0 = time.perf_counter()
    layout = RectLattice(rows=30, cols=30, spacing_km=50.0)
    boundary = lattice_boundary_mask(layout)
    model = Exponential(p0=0.8, lambda_km=100.0)
    bias_ok = 0
    shrink_ok = 0
    for seed in range(50):
        net = gen_embedded_network(SynthNetSpec(layout, model, seed=seed))
        dc = degree(net)
        ratio = dc.values[boundary].mean() / dc.values[~boundary].mean()
        bias_ok += ratio < 0.9
        profile = estimate_profile(net, bin_width_km=50.0)
        stats = ensemble_stats(profile, net.grid, metrics=("DC",), ensemble_size=200, seed=seed)
        cf = correct_subtract(dc, stats["DC"])
        raw_norm = (dc.values - dc.values.min()) / (dc.values.max() - dc.values.min())
        gap_raw = abs(raw_norm[boundary].mean() - raw_norm[~boundary].mean())
        gap_cor = abs(cf.normalized[boundary].mean() - cf.normalized[~boundary].mean())
        shrink_ok += gap_cor <= 0.5 * gap_raw
    elapsed = time.perf_counter() - t0
    report(5, "boundary bias reduced by subtraction", bias_ok == 50 and shrink_ok >= 45,
           elapsed, 300.0, f"bias present {bias_ok}/50; gap halved {shrink_ok}/50")


def _divergence_network():
    """Cluster + teleconnected satellite ring + isolated far vertices."""
    layout = RectLattice(rows=15, cols=15, spacing_km=50.0)
    cluster = lattice_grid(layout)
    ring_r_deg = 450.0 / KM_PER_DEG
    ang = 2 * np.pi * np.arange(7) / 7
    grid = GridSpec(
        lat=np.concatenate([cluster.lat, ring_r_deg * np.sin(ang),
                            [40.0, -40.0, 55.0, -55.0, 65.0]]),
        lon=np.concatenate([cluster.lon, 60.0 + ring_r_deg * np.cos(ang),
                            [-150.0, -150.0, 120.0, 120.0, -60.0]]),
    )
    base = gen_embedded_network(SynthNetSpec(grid, Exponential(p0=0.7, lambda_km=120.0), seed=42))
    edges = {tuple(e) for e in base.edge_array().tolist()}
    sat = range(cluster.n, cluster.n + 7)
    edges |= {(a, b) for a in sat for b in sat if a < b}
    return Network.from_edges(grid, np.array(sorted(edges))), cluster.n


def test_criterion_6_method_divergence():
    t0 = time.perf_counter()
    net, n_cluster = _divergence_network()
    raw = degree(net)
    profile = estimate_profile(net, bin_width_km=50.0)
    stats = ensemble_stats(profile, net.grid, metrics=("DC",), ensemble_size=300, seed=7)["DC"]
    zero_ok = stats.zero_mean_nodes.size >= 1
    sub = correct_subtract(raw, stats)
    div = correct_divide(raw, stats)
    x, _ = paired_fields(sub, div)
    excl_ok = x.size == net.n - stats.zero_mean_nodes.size
    cell = compare_methods({("EPE", "JJA", "DC"): (sub, div)}).cells[("EPE", "JJA", "DC")]
    diverge_ok = cell.paired_t.p_value < 0.05 and cell.ks.p_value < 0.05

    # control: constant positive surrogate means on an integer-valued field
    ctrl = gen_embedded_network(
        SynthNetSpec(RectLattice(10, 10, 50.0), Exponential(0.6, 100.0), seed=3)
    )
    craw = degree(ctrl)
    const = SurrogateStats(metric="DC", mean=np.ones(ctrl.n))
    csub = correct_subtract(craw, const)
    cdiv = correct_divide(craw, const)
    coincide = np.abs(csub.normalized - cdiv.normalized).max() <= 1e-12
    ccell = compare_methods({("EPE", "JJA", "DC"): (csub, cdiv)}).cells[("EPE", "JJA", "DC")]
    control_ok = coincide and ccell.paired_t.p_value >= 0.05 and ccell.ks.p_value >= 0.05
    elapsed = time.perf_counter() - t0
    report(6, "subtract vs divide divergence", zero_ok and excl_ok and diverge_ok and control_ok,
           elapsed, 300.0,
           f"t p={cell.paired_t.p_value:.1e}, KS p={cell.ks.p_value:.1e}, "
           f"{stats.zero_mean_nodes.size} zero-mean nodes; control max diff "
           f"{np.abs(csub.normalized - cdiv.normalized).max():.1e}")


def _hash_dir(out_dir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def _run_pipeline(config, out_dir, blas_threads):
    """The CLI in a fresh process; blas_threads None leaves OPENBLAS_NUM_THREADS unset."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gridsync.cli", "pipeline", "--config", str(config), "--out", str(out_dir)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return _hash_dir(out_dir)


def test_criterion_7_pipeline_determinism(tmp_path):
    from gridsync.cli import main

    t0 = time.perf_counter()
    # the demo's own input and config, written beside the runs as scripts/run_demo.py writes them
    spec = importlib.util.spec_from_file_location(
        "run_demo", os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "run_demo.py"))
    run_demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_demo)
    config = str(run_demo.write_demo_config(tmp_path / "demo"))
    max_threads = os.cpu_count() or 1
    runs = {
        "blas1": _run_pipeline(config, tmp_path / "blas1", 1),
        "blas_unset": _run_pipeline(config, tmp_path / "blas_unset", None),
        "blas_max": _run_pipeline(config, tmp_path / "blas_max", max_threads),
    }
    assert main(["pipeline", "--config", config, "--out", str(tmp_path / "in_process")]) == 0
    runs["in_process"] = _hash_dir(tmp_path / "in_process")
    runs["rerun"] = _run_pipeline(config, tmp_path / "blas1", None)
    first = runs["blas1"]
    same = all(h == first for h in runs.values())
    elapsed = time.perf_counter() - t0
    report(7, "pipeline byte-identical", same and len(first) > 10, elapsed, 180.0,
           f"{len(first)} artifacts identical across BLAS threads (1, unset, {max_threads}), "
           f"in-process and rerun")


def test_criterion_8_optional_cpc_integration(tmp_path):
    """Optional, not gating: needs a user-supplied CPC extraction."""
    path = os.environ.get("GRIDSYNC_CPC")
    if not path:
        print("ACCEPTANCE 8 (CPC integration): SKIP (optional; set GRIDSYNC_CPC "
              "to a CNG1 precipitation file to enable)")
        pytest.skip("optional integration: GRIDSYNC_CPC not set")
    t0 = time.perf_counter()
    from gridsync.cli import main

    config = tmp_path / "cpc.json"
    config.write_text(json.dumps({
        "input": path,
        "format": "binary",
        "variable": "precip",
        "season": "JJA",
        "seed": 1,
        "out": str(tmp_path / "cpc_out"),
    }))
    code = main(["pipeline", "--config", str(config)])
    doc = json.loads((tmp_path / "cpc_out" / "report.json").read_text())
    rejects = [doc["EPE"]["JJA"][m]["paired_t"]["reject"] and doc["EPE"]["JJA"][m]["ks"]["reject"]
               for m in ("DC", "CC", "MGD", "BC")]
    elapsed = time.perf_counter() - t0
    report(8, "CPC integration", code == 0 and all(rejects), elapsed, math.inf,
           f"all four metrics reject :: {rejects}")
