"""Per-layer metrics: span totals from a traced run, counts from inputs and artifacts.

A metric whose layer a workload does not run (sync on boundary_conus, for
example) reads 0; the result file lists those layers as absent.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
from tracer import STAGES
METRIC_NAMES = ("DC", "CC", "MGD", "BC")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "grid_io.load_s": "s", "grid_io.season_s": "s", "grid_io.write_s": "s", "grid_io.read_s": "s",
    "grid_io.bytes_written": "bytes",
    "events.extract_s": "s", "events.unusable_nodes": "count", "events.count_min": "count",
    "events.count_p50": "count", "events.count_max": "count",
    "sync.build_network_s": "s", "sync.pairs_tested": "count", "sync.null_keys": "count",
    "sync.null_draws": "count", "sync.pairs_per_key": "ratio", "sync.edges": "count",
    "sync.link_yield": "ratio",
    "netmetrics.from_edges_s": "s",
    **{f"netmetrics.{m}_s": "s" for m in METRIC_NAMES},
    "netmetrics.bc_edge_visits": "count",
    "surrogate.profile_s": "s", "surrogate.ensemble_s": "s", "surrogate.member_s": "s",
    **{f"surrogate.member.{m}_s": "s" for m in METRIC_NAMES},
    "surrogate.member.other_s": "s", "surrogate.members": "count", "surrogate.pair_draws": "count",
    "surrogate.zero_mean_nodes": "count",
    "correction.correct_s": "s", "correction.undefined_nodes": "count",
    "stats.compare_s": "s",
    **{f"cli.stage.{s}_s": "s" for s in STAGES},
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
LAYERS = {"grid_io", "events", "sync", "netmetrics", "surrogate", "correction", "stats", "cli"}


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, -np.inf
    for s, e in sorted(intervals):
        if e > end:
            total += e - max(s, end)
            end = e
    return total


def span_metrics(spans: list, members: int) -> dict[str, float]:
    """Span totals, per-member ensemble times and CLI self time from one traced run."""
    dur = [e - s for _, s, e, _, _ in spans]
    kids = defaultdict(list)
    for k, sp in enumerate(spans):
        if sp[3] is not None:
            kids[sp[3]].append(k)
    totals = defaultdict(float)
    for sp, d in zip(spans, dur):
        totals[sp[0]] += d

    def under_ensemble(k):
        while k is not None:
            if spans[k][0] == "surrogate.ensemble":
                return True
            k = spans[k][3]
        return False

    def self_time(k, child_prefix=""):
        return dur[k] - covered((spans[c][1], spans[c][2]) for c in kids[k]
                                if spans[c][0].startswith(child_prefix))

    ensembles = [k for k, sp in enumerate(spans) if sp[0] == "surrogate.ensemble"]
    per_member = 1.0 / max(members, 1)
    out = {
        "grid_io.load_s": totals["grid_io.load"],
        "grid_io.season_s": totals["grid_io.season"],
        "grid_io.write_s": totals["grid_io.write"],
        "grid_io.read_s": totals["grid_io.read"],
        "events.extract_s": totals["events.extract"],
        "sync.build_network_s": totals["sync.build_network"],
        "netmetrics.from_edges_s": sum(d for k, d in enumerate(dur)
                                       if spans[k][0] == "netmetrics.from_edges" and not under_ensemble(k)),
        **{f"netmetrics.{m}_s": totals[f"netmetrics.{m}"] for m in METRIC_NAMES},
        "surrogate.profile_s": totals["surrogate.profile"],
        "surrogate.ensemble_s": totals["surrogate.ensemble"],
        "surrogate.member_s": totals["surrogate.ensemble"] * per_member,
        **{f"surrogate.member.{m}_s": totals[f"surrogate.member.{m}"] for m in METRIC_NAMES},
        "surrogate.member.other_s": per_member * sum(self_time(k, "surrogate.member.") for k in ensembles),
        "correction.correct_s": totals["correction.correct"],
        "stats.compare_s": totals["stats.compare"],
        **{f"cli.stage.{s}_s": totals[f"cli.stage.{s}"] for s in STAGES},
        "cli.self_s": sum(self_time(k) for k, sp in enumerate(spans) if sp[0].startswith("cli.stage.")),
    }
    return out


def count_metrics(kind: str, out_dir: Path, members: int, n_shuffles: int) -> dict[str, float]:
    """Counts that drive cost and results, computed by the benchmark from the artifacts."""
    out = {"grid_io.bytes_written": sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())}
    if kind == "cli":
        events, sidecar = checks.read_events(out_dir)
        counts = np.array([ev.size for ev in events])
        usable = np.delete(counts, sidecar["unusable_nodes"])
        active = counts[counts > 0]
        lo, hi = np.minimum.outer(active, active), np.maximum.outer(active, active)
        iu = np.triu_indices(active.size, 1)
        pairs = iu[0].size
        keys = len(set(zip(lo[iu].tolist(), hi[iu].tolist())))
        edges = checks.read_edges(out_dir / "edges.csv").shape[0]
        out.update({
            "events.unusable_nodes": len(sidecar["unusable_nodes"]),
            "events.count_min": int(usable.min()),
            "events.count_p50": float(np.median(usable)),
            "events.count_max": int(usable.max()),
            "sync.pairs_tested": pairs,
            "sync.null_keys": keys,
            "sync.null_draws": keys * n_shuffles,
            "sync.pairs_per_key": pairs / keys,
            "sync.edges": edges,
            "sync.link_yield": edges / pairs,
            "netmetrics.bc_edge_visits": counts.size * 2 * edges,
        })
        n = counts.size
    else:
        n = checks.read_metric(out_dir, "DC").shape[0]
    means = checks.read_surrogate_means(out_dir)
    undefined = sum(int((checks.read_corrected(out_dir, m, "divide")[:, 7] == 0).sum()) for m in means)
    out.update({
        "surrogate.members": members,
        "surrogate.pair_draws": members * n * (n - 1) // 2,
        "surrogate.zero_mean_nodes": int(means["DC"][1].sum()),
        "correction.undefined_nodes": undefined,
    })
    return out


def per_layer(traced_spans: list, members: int, counts: dict,
              overhead_s: float) -> tuple[dict[str, float], list[str]]:
    """Every PER_LAYER metric (span totals as medians over traced runs) and the absent layers."""
    runs = [span_metrics(spans, members) for spans in traced_spans]
    values = {name: statistics.median(r[name] for r in runs) for name in runs[0]}
    values.update(counts)
    values["trace.overhead_s"] = overhead_s
    seen = {sp[0].split(".")[0] for spans in traced_spans for sp in spans}
    absent = sorted(LAYERS - seen)
    return {name: values.get(name, 0) for name in PER_LAYER}, absent
