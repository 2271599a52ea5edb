"""The all-pairs distance pass at the CONUS size: wall time, RSS above its input and a block sweep.

    python3 scripts/pair_pass.py --src change=src --src parent=../parent/src --repeats 12 --out pair_pass.json

Every measurement runs in a fresh process pinned to one CPU that imports
gridsync from one labelled --src directory; the labels alternate within each
repeat. The input is the 57 x 57 lattice at 50 km spacing (3,249 nodes,
5,276,376 pairs) and a random network on it with 1% of the pairs drawn
(with repeats) as links.

- pass: netmetrics.pair_bins at 50 km. cold_s is the first call in the
  process, warm_s the median of five more on fresh copies of the grid (the
  bins are memoized per GridSpec). above_input_mb is the peak RSS the first
  call adds to the process, which already holds the grid and the network.
  profile_s is the median of five surrogate.estimate_profile calls with the
  bins memoized, so it times the pair and link counts. A digest of the bins
  lets the labels be checked to give the same bytes.
- sweep: after those, where netmetrics has _PAIR_BLOCK, the warm pass
  (median of five) with it set to each power of two in SWEEP; the output
  gives the median, lowest and highest over the repeats.

This process never imports numpy: a child's ru_maxrss starts from its
parent's RSS at spawn. Prints one JSON object with every run and the medians,
and writes it to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROWS, BIN_WIDTH_KM, DENSITY = 57, 50.0, 0.01
SWEEP = (12, 13, 14, 15, 16, 17, 20)  # log2 of _PAIR_BLOCK


def measure(src: str, seed: int) -> None:
    sys.path.insert(0, src)
    import hashlib

    import numpy as np

    from gridsync import netmetrics
    from gridsync.grid_io import GridSpec
    from gridsync.surrogate import estimate_profile
    from gridsync.synth import RectLattice, lattice_grid

    grid = lattice_grid(RectLattice(rows=ROWS, cols=ROWS, spacing_km=50.0))
    pairs = grid.n * (grid.n - 1) // 2
    # no per-pair draw, so the peak RSS before the pass is the grid and the network
    rank = np.unique(np.random.default_rng(seed).integers(0, pairs, int(pairs * DENSITY)))
    net = netmetrics.Network.from_pair_ranks(grid, rank)

    def warm() -> float:
        times = []
        for _ in range(5):
            fresh = GridSpec(lat=grid.lat, lon=grid.lon)
            t = time.perf_counter()
            netmetrics.pair_bins(fresh, BIN_WIDTH_KM)
            times.append(time.perf_counter() - t)
        return round(statistics.median(times), 4)

    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t = time.perf_counter()
    bins = netmetrics.pair_bins(grid, BIN_WIDTH_KM)
    cold = time.perf_counter() - t
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    profile = []
    for _ in range(5):
        t = time.perf_counter()
        estimate_profile(net, BIN_WIDTH_KM)
        profile.append(time.perf_counter() - t)
    out = {"cold_s": round(cold, 4), "warm_s": warm(), "above_input_mb": round(peak - before, 1),
           "profile_s": round(statistics.median(profile), 4),
           "bins_sha256": hashlib.sha256(bins.tobytes()).hexdigest()[:16]}
    if hasattr(netmetrics, "_PAIR_BLOCK"):
        out["sweep_warm_s"] = {}
        for e in SWEEP:
            netmetrics._PAIR_BLOCK = 1 << e
            out["sweep_warm_s"][f"2^{e}"] = warm()
    print(json.dumps(out))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True, metavar="LABEL=DIR",
                    help="a gridsync source directory and its label (repeatable)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out")
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    srcs = {label: str(Path(d).resolve()) for label, d in (item.split("=", 1) for item in args.src)}
    if args.measure:
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        measure(next(iter(srcs.values())), args.seed)
        return 0
    if not args.out:
        ap.error("--out is required")

    env = {**{k: v for k, v in os.environ.items() if k != "PYTHONPATH"}, "OPENBLAS_NUM_THREADS": "1"}

    def spawn(label: str) -> dict:
        cmd = [sys.executable, __file__, "--seed", str(args.seed), "--src", f"{label}={srcs[label]}", "--measure"]
        out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout
        return json.loads(out.splitlines()[-1])

    runs: dict[str, list] = {label: [] for label in srcs}
    for r in range(args.repeats):
        for label in (list(srcs) if r % 2 == 0 else list(srcs)[::-1]):
            runs[label].append(spawn(label))
    sweeps = {}
    for label, rs in runs.items():
        if "sweep_warm_s" in rs[0]:
            sweeps[label] = {b: {"median": round(statistics.median(x["sweep_warm_s"][b] for x in rs), 4),
                                 "min": min(x["sweep_warm_s"][b] for x in rs),
                                 "max": max(x["sweep_warm_s"][b] for x in rs)}
                             for b in rs[0]["sweep_warm_s"]}
    keys = ("cold_s", "warm_s", "above_input_mb", "profile_s")
    result = {
        "input": {"nodes": ROWS * ROWS, "pairs": ROWS * ROWS * (ROWS * ROWS - 1) // 2,
                  "bin_width_km": BIN_WIDTH_KM, "links_drawn": DENSITY},
        "seed": args.seed, "repeats": args.repeats, "pinned_cpus": 1,
        "medians": {label: {k: round(statistics.median(x[k] for x in rs), 4) for k in keys}
                    for label, rs in runs.items()},
        "bins_sha256": {label: sorted({x["bins_sha256"] for x in rs}) for label, rs in runs.items()},
        "sweep_warm_s": sweeps,
        "runs": runs,
    }
    text = json.dumps(result, indent=2)
    print(text)
    Path(args.out).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
