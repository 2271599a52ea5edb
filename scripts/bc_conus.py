"""BC at CONUS size through the library API: wall time and peak RSS of one betweenness call.

    python3 scripts/bc_conus.py --src change=src --src parent=../parent/src --repeats 1 --out bc_conus.json

Builds two 3,249-node networks on a 57 x 57 lattice at 50 km spacing with
gridsync's own generator: the boundary_conus benchmark input for the same
seed (Exponential(0.8, 100), about 28.5k edges) and a denser one
(Exponential(0.3, 400), about 133k edges, near the chance-link density of a
99.5%-quantile ES network). Each graph is made in a child process and
saved as CSR arrays. Each call runs in a fresh process that imports gridsync
from one labelled --src directory and loads those arrays, so its peak RSS is the
import, the graph and the BC working set. This process never imports numpy:
a child's ru_maxrss starts from its parent's RSS at spawn. The --src
directories alternate within each repeat. Prints one JSON object, with each
label's runs and median BC time, and writes it to --out.
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

GRAPHS = {"edges_28k": (0.8, 100.0), "edges_133k": (0.3, 400.0)}  # Exponential(p0, lambda_km)
ROWS, SPACING_KM = 57, 50.0


def make(src: str, name: str, path: str, seed: int) -> None:
    sys.path.insert(0, src)
    import numpy as np

    from gridsync.synth import Exponential, RectLattice, SynthNetSpec, gen_embedded_network

    layout = RectLattice(rows=ROWS, cols=ROWS, spacing_km=SPACING_KM)
    net = gen_embedded_network(SynthNetSpec(layout, Exponential(*GRAPHS[name]), seed=seed))
    np.savez(path, lat=net.grid.lat, lon=net.grid.lon, indptr=net.indptr, indices=net.indices)
    print(net.edge_count)


def measure(src: str, path: str) -> None:
    sys.path.insert(0, src)
    import numpy as np

    from gridsync.grid_io import GridSpec
    from gridsync.netmetrics import Network, betweenness

    a = np.load(path)
    net = Network(GridSpec(lat=a["lat"], lon=a["lon"]), a["indptr"], a["indices"])
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t = time.perf_counter()
    betweenness(net)
    wall = time.perf_counter() - t
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"bc_s": round(wall, 3), "peak_rss_mb": round(peak, 1), "rss_before_bc_mb": round(before, 1)}))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True, metavar="LABEL=DIR",
                    help="a gridsync source directory and its label (repeatable)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--make", nargs=2, metavar=("NAME", "PATH"), help=argparse.SUPPRESS)
    ap.add_argument("--measure", metavar="PATH", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    srcs = {label: str(Path(d).resolve()) for label, d in (item.split("=", 1) for item in args.src)}
    if args.make:
        make(next(iter(srcs.values())), *args.make, args.seed)
        return 0
    if args.measure:
        measure(next(iter(srcs.values())), args.measure)
        return 0

    if not args.out:
        ap.error("--out is required")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    def spawn(*extra: str) -> str:
        cmd = [sys.executable, __file__, "--seed", str(args.seed), *extra]
        return subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout.splitlines()[-1]

    result = {"nodes": ROWS * ROWS, "seed": args.seed, "graphs": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, model in GRAPHS.items():
            path = str(Path(tmp) / f"{name}.npz")
            edges = int(spawn("--src", args.src[0], "--make", name, path))
            runs: dict[str, list] = {label: [] for label in srcs}
            for r in range(args.repeats):
                for label in (list(srcs) if r % 2 == 0 else list(srcs)[::-1]):
                    runs[label].append(json.loads(spawn("--src", f"{label}={srcs[label]}", "--measure", path)))
            result["graphs"][name] = {
                "link_model": f"Exponential{model}", "edges": edges,
                "bc_s_median": {label: round(statistics.median(r["bc_s"] for r in rs), 3) for label, rs in runs.items()},
                "peak_rss_mb_max": {label: max(r["peak_rss_mb"] for r in rs) for label, rs in runs.items()},
                "runs": runs}
    text = json.dumps(result, indent=2)
    Path(args.out).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
