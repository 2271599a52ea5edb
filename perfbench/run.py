"""gridsync benchmark: one workload, timed in fresh processes, outputs checked.

    python3 perfbench/run.py --workload network_30y --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from ./src.
Set-up makes the workload's inputs from the seed (untimed) and times
``python -m gridsync.cli --version`` several times (setup_s). The run then
starts the workload in a fresh process, one at a time, until --seconds have
passed, and reports medians. Every time is scaled by the host-speed probe
timed around it (probe.py); the raw times are kept in the record. Outputs are
checked once per distinct artifact digest, after the timed region. With
--trace 1 the second half of the window runs the workload under tracer.py and
the per-layer metrics are reported.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A full record (environment, samples, digests, checks) is written
under .perfbench/results/. Exit code: 0 if every run passed, 1 if any run
failed a check, 2 if the checkout has no gridsync source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import layers
import probe
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 9  # setup_s is the median of this many --version spawns
MIN_RUNS = 2  # fewest untraced runs with --trace 0, so a median has two samples
RUN_TIMEOUT_S = 120  # a workload process still running after this is killed and counts as failed
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], log: Path) -> dict:
    """Run argv to exit; spawn-to-exit wall time plus CPU and peak RSS from wait4."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        killer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "returncode": proc.returncode,
    }


def high_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if there is one."""
    if len(values) < 11:
        return "no percentile has 10 samples beyond it"
    k = len(values) - 10
    return f"p{100 * k / len(values):.0f} {sorted(values)[k - 1]:.4f}"


def environment(seed: int) -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = None  # a source checkout without git metadata
    src = hashlib.sha256()
    for p in sorted((SRC / "gridsync").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "git_revision": rev,
        "source_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts").get("Build Dependencies", {}),
        "seed": seed,
    }


def input_sizes(w: workloads.Workload, inputs: dict, counts: dict, passed: dict | None) -> dict:
    sizes = {"nodes": w.rows * w.rows, "seasons": w.seasons, "members": w.members}
    if w.kind == "library":
        sizes["edges"] = len(checks.read_edges(inputs["edges"]))
    elif passed:
        sidecar = json.loads((passed["out"] / "events.csv.json").read_text())
        sizes.update(T=len(sidecar["season_days"]), pairs=counts["sync.pairs_tested"],
                     null_keys=counts["sync.null_keys"], edges=counts["sync.edges"])
    return sizes


def run(w: workloads.Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result line, full record)."""
    saved = os.sched_getaffinity(0)
    if w.pinned:  # this process, the probe and every run on one CPU
        os.sched_setaffinity(0, {min(saved)})
    try:
        return measure_and_check(w, seed, seconds, trace)
    finally:
        os.sched_setaffinity(0, saved)


def measure_and_check(w: workloads.Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    work = ROOT / ".perfbench" / f"{w.name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cpus = sorted(os.sched_getaffinity(0))
    probe.seconds(cpus)  # warm-up

    before = probe.seconds(cpus)
    setup = [spawn([sys.executable, "-m", "gridsync.cli", "--version"], work / "version.log")
             for _ in range(SETUP_SPAWNS)]
    setup_probe_s = (before + probe.seconds(cpus)) / 2
    args, inputs = workloads.prepare(w, seed, work)

    samples = []
    start = time.perf_counter()
    last_probe_s = probe.seconds(cpus)

    def measure(traced: bool, floor: int, until: float) -> None:
        """Run until `floor` runs are done and the next one would end after `until`."""
        nonlocal last_probe_s
        runs = 0
        while runs < floor or time.perf_counter() - start + samples[-1]["span_s"] <= until:
            k = len(samples)
            out, spans = work / f"run{k}", work / f"spans{k}.json"
            cmd = workloads.launcher(w.kind)
            if traced:
                cmd = [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans), w.kind]
            begin = time.perf_counter()
            sample = spawn(cmd + args + ["--out", str(out)], work / f"run{k}.log")
            after = probe.seconds(cpus)
            sample.update(traced=traced, out=out, spans=spans, probe_s=(last_probe_s + after) / 2,
                          span_s=time.perf_counter() - begin)
            last_probe_s = after
            samples.append(sample)
            runs += 1

    if trace:  # first half untraced (for trace.overhead_s), second half traced
        measure(False, 1, seconds / 2)
        measure(True, 1, seconds)
    else:
        measure(False, MIN_RUNS, seconds)

    # outside the timed region: digests, determinism against the first run, output checks
    checked: dict[tuple, list[str]] = {}
    for s in samples:
        s["digests"] = checks.digests(s["out"]) if s["out"].is_dir() else {}
        key = tuple(sorted(s["digests"].items()))
        if s["returncode"] == 0 and key not in checked:
            checked[key] = checks.check_outputs(w.kind, s["out"], inputs, w.members)
        problems = [] if s["returncode"] == 0 else [f"exit code {s['returncode']}"]
        problems += checked.get(key, [])
        if s["digests"] != samples[0]["digests"]:
            problems.append("artifact digests differ from the first run of this workload and seed")
        s["problems"] = problems

    untraced = [s for s in samples if not s["traced"]]
    failed = sum(bool(s["problems"]) for s in samples)
    raw = {m: statistics.median(s[m] for s in untraced) for m in ("wall_s", "cpu_s", "peak_rss_mb")}
    raw["setup_s"] = statistics.median(s["wall_s"] for s in setup)
    e2e = {m: statistics.median(probe.normalised(s[m], s["probe_s"]) for s in untraced)
           for m in ("wall_s", "cpu_s")}
    e2e["peak_rss_mb"] = raw["peak_rss_mb"]
    e2e["setup_s"] = probe.normalised(raw["setup_s"], setup_probe_s)
    passed = next((s for s in samples if not s["problems"]), None)
    n_shuffles = 0
    if passed and w.kind == "cli":
        manifest = json.loads((passed["out"] / "network_manifest.json").read_text())
        n_shuffles = manifest["parameters"]["sync"]["n_shuffles"]
    counts = layers.count_metrics(w.kind, passed["out"], w.members, n_shuffles) if passed else {}

    traced_runs = [json.loads(s["spans"].read_text()) for s in samples
                   if s["traced"] and not s["problems"]]
    absent, missing = [], sorted({m for t in traced_runs for m in t["missing"]})
    if not trace:
        metrics, units = e2e, END_TO_END
    else:
        units = layers.PER_LAYER
        metrics = dict.fromkeys(units, 0)
        if traced_runs:
            overhead = statistics.median(s["wall_s"] for s in samples if s["traced"]) - raw["wall_s"]
            metrics, absent = layers.per_layer([t["spans"] for t in traced_runs], w.members, counts, overhead)

    line = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    record = {
        "workload": w.name,
        "why": w.why,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(seed),
        "cpus": cpus,
        "probe_ref_s": probe.REF_S,
        "input_sizes": input_sizes(w, inputs, counts, passed),
        "setup_samples_s": [s["wall_s"] for s in setup],
        "setup_probe_s": setup_probe_s,
        "samples": [{k: (str(v) if isinstance(v, Path) else v) for k, v in s.items()} for s in samples],
        "end_to_end": e2e,
        "raw_end_to_end": raw,
        "fail_ratio": failed / len(samples),
        "percentiles": {m: high_percentile([probe.normalised(s[m], s["probe_s"]) for s in untraced])
                        for m in ("wall_s", "cpu_s")},
        "absent_layers": absent,
        "missing_spans": missing,
        "result": line,
    }
    shutil.rmtree(work, ignore_errors=True)
    return line, record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one gridsync benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gridsync" / "__init__.py").is_file():
        print(f"error: no gridsync source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    line, record = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, default=str) + "\n")

    print(f"{args.workload} seed {args.seed}: {line['attempted']} runs, {line['failed']} failed "
          f"(fail_ratio {record['fail_ratio']:.3g}); record in {path.relative_to(ROOT)}")
    for name, m in line["metrics"].items():
        print(f"  {name:28s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        for name, text in record["percentiles"].items():
            print(f"  {name}: median of {len(record['samples'])} runs; {text}")
        print("  unscaled medians: " + ", ".join(f"{k} {v:.6g}" for k, v in record["raw_end_to_end"].items()))
    if record["absent_layers"]:
        print(f"  absent layers (reported as 0): {', '.join(record['absent_layers'])}")
    if record["missing_spans"]:
        print(f"  missing spans: {', '.join(record['missing_spans'])}")
    for s in record["samples"]:
        for p in s["problems"]:
            print(f"  FAIL {Path(s['out']).name}: {p}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
