"""The ES stage through the library API: import time, and build_network's wall time and peak RSS.

    python3 scripts/es_kernel.py --src change=src --src parent=../parent/src --repeats 5 --out es_kernel.json

Two measurements, each in fresh processes that import gridsync from one
labelled --src directory, with the labels alternating within each repeat:

- import: the wall time of ``import gridsync`` (which imports numpy and so
  starts OpenBLAS) with OPENBLAS_NUM_THREADS unset, and the process's thread
  count after it (Linux only);
- build_network: one season of independent events (each day an event with
  probability 0.029, T = 2,760 days, the rate and length of a 95th-percentile
  JJA record over 30 years) on 144 nodes, the network_30y size, and on 3,249
  nodes, the CONUS size, with OPENBLAS_NUM_THREADS set to 1 and to 2. A
  child process makes each input once and saves it; each call then loads it,
  so its peak RSS above the input is what build_network adds. After that
  first call, the ES kernel sync._es_matrix alone is timed three times
  (kernel_s is their median).

This process never imports numpy: a child's ru_maxrss starts from its
parent's RSS at spawn. Each build_network call reports a digest of its
edges, so the labels can be checked to build the same network. Prints one
JSON object with every run and the medians, and writes it to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIZES = {"nodes_144": 12, "nodes_3249": 57}  # square lattice rows
T, EVENT_RATE, N_SHUFFLES = 2760, 0.029, 1000
THREADS = ("1", "2")


def make(src: str, rows: int, path: str, seed: int) -> None:
    sys.path.insert(0, src)
    import numpy as np

    from gridsync.synth import RectLattice, lattice_grid

    grid = lattice_grid(RectLattice(rows=rows, cols=rows, spacing_km=50.0))
    events = np.random.default_rng(seed).random((grid.n, T)) < EVENT_RATE
    np.savez(path, lat=grid.lat, lon=grid.lon, events=events)


def measure(src: str, path: str, seed: int) -> None:
    sys.path.insert(0, src)
    import hashlib

    import numpy as np

    from gridsync.grid_io import GridSpec
    from gridsync.sync import SyncParams, _es_matrix, build_network

    a = np.load(path)
    grid, events = GridSpec(lat=a["lat"], lon=a["lon"]), a["events"]
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t = time.perf_counter()
    net = build_network(events, grid, SyncParams(n_shuffles=N_SHUFFLES, seed=seed))
    wall = time.perf_counter() - t
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    kernel = []
    for _ in range(3):
        t = time.perf_counter()
        es = _es_matrix(events)
        if not isinstance(es, np.ndarray):  # a row-block kernel yields its blocks
            for _ in es:
                pass
        kernel.append(time.perf_counter() - t)
    print(json.dumps({"build_network_s": round(wall, 4), "kernel_s": round(statistics.median(kernel), 4),
                      "peak_rss_mb": round(peak, 1),
                      "above_input_mb": round(peak - before, 1), "edges": net.edge_count,
                      "edges_sha256": hashlib.sha256(net.edge_array().tobytes()).hexdigest()[:16]}))


def measure_import(src: str) -> None:
    sys.path.insert(0, src)
    t = time.perf_counter()
    import gridsync  # noqa: F401

    wall = time.perf_counter() - t
    tasks = len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None
    print(json.dumps({"import_s": round(wall, 4), "threads": tasks}))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True, metavar="LABEL=DIR",
                    help="a gridsync source directory and its label (repeatable)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out")
    ap.add_argument("--make", nargs=2, metavar=("ROWS", "PATH"), help=argparse.SUPPRESS)
    ap.add_argument("--measure", metavar="PATH", help=argparse.SUPPRESS)
    ap.add_argument("--import", dest="import_", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    srcs = {label: str(Path(d).resolve()) for label, d in (item.split("=", 1) for item in args.src)}
    src = next(iter(srcs.values()))
    if args.make:
        make(src, int(args.make[0]), args.make[1], args.seed)
        return 0
    if args.measure:
        measure(src, args.measure, args.seed)
        return 0
    if args.import_:
        measure_import(src)
        return 0

    if not args.out:
        ap.error("--out is required")
    base = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "OPENBLAS_NUM_THREADS")}

    def spawn(*extra: str, threads: str | None = None) -> dict:
        env = base if threads is None else {**base, "OPENBLAS_NUM_THREADS": threads}
        cmd = [sys.executable, __file__, "--seed", str(args.seed), *extra]
        out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout
        return json.loads(out.splitlines()[-1])

    def alternating(*extra: str, threads: str | None = None) -> dict[str, list]:
        runs: dict[str, list] = {label: [] for label in srcs}
        for r in range(args.repeats):
            for label in (list(srcs) if r % 2 == 0 else list(srcs)[::-1]):
                runs[label].append(spawn("--src", f"{label}={srcs[label]}", *extra, threads=threads))
        return runs

    def medians(runs: dict[str, list], key: str) -> dict[str, float]:
        return {label: round(statistics.median(r[key] for r in rs), 4) for label, rs in runs.items()}

    runs = alternating("--import")
    result = {"seed": args.seed, "repeats": args.repeats,
              "import": {"openblas_num_threads": "unset", "import_s_median": medians(runs, "import_s"),
                         "threads": {label: sorted({r["threads"] for r in rs}) for label, rs in runs.items()},
                         "runs": runs},
              "build_network": {"T": T, "event_rate": EVENT_RATE, "n_shuffles": N_SHUFFLES}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, rows in SIZES.items():
            path = str(Path(tmp) / f"{name}.npz")
            spawn_make = [sys.executable, __file__, "--seed", str(args.seed), "--src", args.src[0],
                          "--make", str(rows), path]
            subprocess.run(spawn_make, env=base, check=True)
            for threads in THREADS:
                runs = alternating("--measure", path, threads=threads)
                result["build_network"][f"{name}_threads_{threads}"] = {
                    "build_network_s_median": medians(runs, "build_network_s"),
                    "kernel_s_median": medians(runs, "kernel_s"),
                    "above_input_mb_max": {label: max(r["above_input_mb"] for r in rs) for label, rs in runs.items()},
                    "edges": sorted({(r["edges"], r["edges_sha256"]) for rs in runs.values() for r in rs}),
                    "runs": runs}
    text = json.dumps(result, indent=2)
    Path(args.out).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
