"""Smoke tests of the benchmark itself, at tiny sizes (about 20 s in all).

    python3 -m pytest -q perfbench/smoke.py

Kept out of the repository's default test collection (the file name does not
match test_*.py), so the tier-1 suite does not pay for benchmark runs.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "network_30y": dict(rows=6, seasons=3),
    "boundary_conus": dict(rows=12, members=2),
}


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks(name):
    cpus = os.sched_getaffinity(0)
    line, record = run.run(tiny(name), seed=3, seconds=0.1, trace=True)
    assert os.sched_getaffinity(0) == cpus  # a pinned workload unpins this process on return
    assert len(record["cpus"]) == (1 if workloads.WORKLOADS[name].pinned else len(cpus))
    assert all(s["probe_s"] > 0 for s in record["samples"])
    assert line["correct"] and line["failed"] == 0, record["samples"]
    assert line["attempted"] == 2  # one untraced run, one traced run
    assert set(line["metrics"]) == set(layers.PER_LAYER)
    assert record["missing_spans"] == []
    if name == "boundary_conus":
        assert {"cli", "events", "sync"} <= set(record["absent_layers"])
        assert line["metrics"]["sync.build_network_s"]["value"] == 0
    else:
        assert record["absent_layers"] == []
        assert line["metrics"]["cli.stage.network_s"]["value"] > 0


def test_flipped_edge_is_caught(tmp_path):
    w = tiny("network_30y")
    args, inputs = workloads.prepare(w, 5, tmp_path)
    out = tmp_path / "out"
    sample = run.spawn(workloads.launcher(w.kind) + args + ["--out", str(out)], tmp_path / "log")
    assert sample["returncode"] == 0
    assert checks.check_outputs(w.kind, out, inputs, w.members) == []

    edges = out / "edges.csv"
    rows = edges.read_text().splitlines()
    del rows[1]  # flip the first linked pair to unlinked
    edges.write_text("\n".join(rows) + "\n")
    problems = checks.check_outputs(w.kind, out, inputs, w.members)
    assert any(p.startswith("manifests:") for p in problems)
    assert any(p.startswith("metrics:") for p in problems)


def test_span_self_time_subtracts_covered_children():
    spans = [
        ["cli.stage.surrogate", 0.0, 10.0, None, 1],
        ["surrogate.ensemble", 1.0, 9.0, 0, 1],
        ["surrogate.member.BC", 2.0, 5.0, 1, 2],  # worker threads overlap
        ["surrogate.member.BC", 4.0, 6.0, 1, 3],
        ["netmetrics.from_edges", 6.5, 7.0, 1, 2],
    ]
    got = layers.span_metrics(spans, members=2)
    assert got["cli.self_s"] == pytest.approx(2.0)
    assert got["surrogate.member.BC_s"] == pytest.approx(5.0)
    assert got["surrogate.member.other_s"] == pytest.approx((8.0 - 4.0) / 2)
    assert got["netmetrics.from_edges_s"] == 0.0  # a member's graph build, not the observed network


def test_fails_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "network_30y", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
