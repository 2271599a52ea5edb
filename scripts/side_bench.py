"""Side measurements of one library layer at CONUS size, one labelled gridsync source against another.

    python3 scripts/side_bench.py KERNEL --src change=src --src parent=../parent/src --seed 1 --repeats 5 --out FILE

Each call runs in a fresh process that imports gridsync from one labelled
--src directory (PYTHONPATH removed), is pinned to one CPU before it imports
gridsync or numpy, runs on one BLAS thread (OPENBLAS_NUM_THREADS=1) and
reports its result as its last line of output, in JSON. The labels alternate
within each repeat (a, b / b, a / a, b ...). Inputs are made once, by a
child on the first --src, and saved. This process never imports numpy: a
child's ru_maxrss starts from its parent's RSS at spawn, so each call's peak
RSS is its own. The result, every run and the medians, is printed and
written to --out, which scripts/distill_bench.py embeds with --side
KERNEL=FILE. Digests of the results show whether the labels give the same
bytes. KERNEL is:

- bc_conus: netmetrics.betweenness, and a digest of its values, on three
  networks on a 57 x 57 lattice at 50 km spacing (3,249 nodes). Two come
  from gridsync's own generator: the boundary_conus input for the same seed
  (Exponential(0.8, 100), about 28.5k edges) and a denser one
  (Exponential(0.3, 400), about 133k edges, near the chance-link density of
  a 99.5%-quantile ES network). The third is local, with many BFS levels:
  surrogate member 0 of the seed drawn in PAIR_BIN_KM bins from the profile
  of a HardCutoff(BC_LOCAL_KM) network. Each run records the CPUs it ran
  on. Its numbers compare with ROADMAP's pinned (0.10.0 re-anchor) row, not
  with the unpinned medians in BENCH_0.6.0.json or BENCH_0.8.0-pair-keys.json.
- pair_pass: netmetrics.pair_groups at 50 km on three grids, each next to a
  network on 1% of its pairs: that lattice (5,276,376 pairs); the lattice
  with every node moved by up to PAIR_JITTER_DEG in latitude and longitude
  (every coordinate distinct, so the pass computes each pair's own sines);
  and the CPC grid's shape, the 0.5-degree cells of the 24-50 N, 125-66 W
  box that a seeded mask keeps with PAIR_RAGGED_KEEP (about 3,270 nodes,
  rows of differing length). For each: the first grouping, its pass
  included (cold_s, and the RSS it adds), the median of five more
  (groups_s), of five netmetrics.pair_distances calls, the pass alone
  (warm_s), and of five estimate_profile calls (profile_s), and digests of
  the distances and the groups. pair_groups is the grid's one distance
  memo, so grid.derived is cleared before each timed grouping.
- surrogate_members: the surrogate ensemble's one-off set-up and its members
  on the two generated bc_conus networks: the distance pass
  (pair_distances, pass_s), the one-off that the member draw needs
  (one_off_s: the grouping netmetrics.pair_groups from an empty
  grid.derived, its pass included), estimate_profile on it (profile_s),
  then MEMBERS members of stream(seed, SURROGATE_TAG, k): the median time of
  the draw and of each metric in MEMBER_METRICS, and the process's peak RSS.
- member_block: one surrogate.member_block of BLOCK_MEMBERS members (DC,
  CC and MGD) on the boundary_conus network of bc_conus, after
  estimate_profile has made the pair memo: the block's wall time, the RSS
  it adds and the process's peak RSS, and a digest of the summed fields.
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

ROWS, SPACING_KM = 57, 50.0  # the CONUS-size square lattice: 3,249 nodes
# a child process, given this file's directory and a step: import this file and run the step
CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import side_bench; side_bench.child(sys.argv[2])"


def child(spec: str) -> None:
    if hasattr(os, "sched_setaffinity"):  # before numpy starts any thread
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    step, src, seed, *args = json.loads(spec)
    sys.path.insert(0, src)
    print(json.dumps(globals()[step](seed, *args)))


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Harness:
    """Runs the child steps of one kernel on labelled sources, each in a fresh process."""

    def __init__(self, srcs: dict[str, str], seed: int, repeats: int, tmp: str = ""):
        self.srcs, self.seed, self.repeats, self.tmp = srcs, seed, repeats, Path(tmp)
        self.first = next(iter(srcs))  # the label whose source makes the inputs

    def spawn(self, step: str, label: str, *args):
        """step(seed, *args) on label's source, on one BLAS thread and with no PYTHONPATH."""
        environ = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        environ["OPENBLAS_NUM_THREADS"] = "1"
        spec = json.dumps([step, self.srcs[label], self.seed, *args])
        cmd = [sys.executable, "-c", CHILD, str(Path(__file__).resolve().parent), spec]
        out = subprocess.run(cmd, env=environ, stdout=subprocess.PIPE, text=True, check=True).stdout
        return json.loads(out.splitlines()[-1])

    def alternate(self, step: str, *args) -> dict[str, list]:
        """Every label's runs of step, the label order reversed on every other repeat."""
        runs: dict[str, list] = {label: [] for label in self.srcs}
        for r in range(self.repeats):
            for label in list(self.srcs)[:: -1 if r % 2 else 1]:
                runs[label].append(self.spawn(step, label, *args))
        return runs


def medians(runs: dict[str, list], key: str, digits: int = 4) -> dict[str, float]:
    return {label: round(statistics.median(r[key] for r in rs), digits) for label, rs in runs.items()}


def median_table(runs: dict[str, list], keys: tuple, digits: int) -> dict[str, dict]:
    return {label: {k: round(statistics.median(r[k] for r in rs), digits) for k in keys} for label, rs in runs.items()}


def maxima(runs: dict[str, list], key: str) -> dict[str, float]:
    return {label: max(r[key] for r in rs) for label, rs in runs.items()}


def digests(runs: dict[str, list], key: str) -> dict[str, list]:
    return {label: sorted({r[key] for r in rs}) for label, rs in runs.items()}


# bc_conus
BC_GRAPHS = {"edges_28k": (0.8, 100.0), "edges_133k": (0.3, 400.0)}  # Exponential(p0, lambda_km)
BC_LOCAL, BC_LOCAL_KM = "member_120km", 120.0  # a surrogate member of a hard-cutoff network's profile


def bc_make(seed: int, name: str, path: str) -> int:
    import numpy as np

    from gridsync.seeding import SURROGATE_TAG, stream
    from gridsync.surrogate import estimate_profile, surrogate_member
    from gridsync.synth import Exponential, HardCutoff, RectLattice, SynthNetSpec, gen_embedded_network

    layout = RectLattice(rows=ROWS, cols=ROWS, spacing_km=SPACING_KM)
    if name == BC_LOCAL:
        cutoff = gen_embedded_network(SynthNetSpec(layout, HardCutoff(BC_LOCAL_KM), seed=seed))
        net = surrogate_member(estimate_profile(cutoff, PAIR_BIN_KM), cutoff.grid, stream(seed, SURROGATE_TAG, 0))
    else:
        net = gen_embedded_network(SynthNetSpec(layout, Exponential(*BC_GRAPHS[name]), seed=seed))
    np.savez(path, lat=net.grid.lat, lon=net.grid.lon, indptr=net.indptr, indices=net.indices)
    return net.edge_count


def bc_measure(seed: int, path: str) -> dict:
    import hashlib

    import numpy as np

    from gridsync.grid_io import GridSpec
    from gridsync.netmetrics import Network, betweenness

    a = np.load(path)
    net = Network(GridSpec(lat=a["lat"], lon=a["lon"]), a["indptr"], a["indices"])
    before = rss_mb()
    t = time.perf_counter()
    bc = betweenness(net)
    wall = time.perf_counter() - t
    return {"bc_s": round(wall, 3), "peak_rss_mb": round(rss_mb(), 1), "rss_before_bc_mb": round(before, 1),
            "bc_sha256": hashlib.sha256(bc.values.tobytes()).hexdigest()[:16],
            "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None}


def bc_conus(h: Harness) -> dict:
    result = {"nodes": ROWS * ROWS, "seed": h.seed, "graphs": {}}
    models = {**{name: f"Exponential{model}" for name, model in BC_GRAPHS.items()},
              BC_LOCAL: f"surrogate member 0 of HardCutoff({BC_LOCAL_KM})'s profile in {PAIR_BIN_KM} km bins"}
    for name, model in models.items():
        path = str(h.tmp / f"{name}.npz")
        edges = h.spawn("bc_make", h.first, name, path)
        runs = h.alternate("bc_measure", path)
        result["graphs"][name] = {"link_model": model, "edges": edges, "bc_s_median": medians(runs, "bc_s", 3),
                                  "bc_sha256": digests(runs, "bc_sha256"),
                                  "peak_rss_mb_max": maxima(runs, "peak_rss_mb"), "runs": runs}
    return result


# pair_pass
PAIR_BIN_KM, PAIR_DENSITY = 50.0, 0.01
# the lattice has 57 distinct latitudes and longitudes; jittered by up to 0.1 degrees
# (a quarter of the lattice spacing), every coordinate is distinct; the ragged grid keeps
# 0.533 of the box's 52 x 118 half-degree cells, near CPC's 3,276 CONUS nodes
PAIR_GRIDS, PAIR_JITTER_DEG, PAIR_RAGGED_KEEP = ("lattice", "jittered", "ragged"), 0.1, 0.533


def pair_grid(seed: int, name: str):
    import numpy as np

    from gridsync.grid_io import GridSpec
    from gridsync.synth import RectLattice, lattice_grid

    if name == "ragged":
        lat, lon = np.meshgrid(np.arange(24.25, 50.0, 0.5), np.arange(-124.75, -66.0, 0.5), indexing="ij")
        keep = np.random.default_rng(seed).random(lat.shape) < PAIR_RAGGED_KEEP
        return GridSpec(lat=lat[keep], lon=lon[keep])
    grid = lattice_grid(RectLattice(rows=ROWS, cols=ROWS, spacing_km=SPACING_KM))
    if name == "lattice":
        return grid
    jitter = np.random.default_rng(seed).uniform(-PAIR_JITTER_DEG, PAIR_JITTER_DEG, (2, grid.n))
    return GridSpec(lat=grid.lat + jitter[0], lon=grid.lon + jitter[1])


def pair_measure(seed: int, name: str) -> dict:
    import hashlib

    import numpy as np

    from gridsync import netmetrics
    from gridsync.surrogate import estimate_profile

    grid = pair_grid(seed, name)
    pairs = grid.n * (grid.n - 1) // 2
    # no per-pair draw, so the peak RSS before the pass is the grid and the network
    rank = np.unique(np.random.default_rng(seed).integers(0, pairs, int(pairs * PAIR_DENSITY)))
    net = netmetrics.Network.from_pair_ranks(grid, rank)

    def median_s(call, reps: int = 5) -> float:
        times = []
        for _ in range(reps):
            t = time.perf_counter()
            call()
            times.append(time.perf_counter() - t)
        return round(statistics.median(times), 4)

    def group() -> tuple:
        grid.derived.clear()
        return netmetrics.pair_groups(grid, PAIR_BIN_KM)

    before = rss_mb()
    t = time.perf_counter()
    groups = group()
    cold = time.perf_counter() - t
    peak = rss_mb()
    return {"nodes": grid.n, "cold_s": round(cold, 4), "above_input_mb": round(peak - before, 1),
            "groups_s": median_s(group),
            "warm_s": median_s(lambda: netmetrics.pair_distances(grid)),
            "profile_s": median_s(lambda: estimate_profile(net, PAIR_BIN_KM)),
            "distances_sha256": hashlib.sha256(netmetrics.pair_distances(grid).tobytes()).hexdigest()[:16],
            "groups_sha256": hashlib.sha256(b"".join(a.tobytes() for a in groups)).hexdigest()[:16]}


def pair_pass(h: Harness) -> dict:
    keys = ("cold_s", "warm_s", "above_input_mb", "groups_s", "profile_s")
    result = {"input": {"bin_width_km": PAIR_BIN_KM, "links_drawn": PAIR_DENSITY, "jitter_deg": PAIR_JITTER_DEG,
                        "ragged_keep": PAIR_RAGGED_KEEP},
              "seed": h.seed, "repeats": h.repeats, "pinned_cpus": 1, "grids": {}}
    for name in PAIR_GRIDS:
        runs = h.alternate("pair_measure", name)
        nodes = runs[h.first][0]["nodes"]
        result["grids"][name] = {"nodes": nodes, "pairs": nodes * (nodes - 1) // 2,
                                 "medians": median_table(runs, keys, 4),
                                 **{f"{d}_sha256": digests(runs, f"{d}_sha256") for d in ("distances", "groups")},
                                 "runs": runs}
    return result


# surrogate_members
MEMBERS, MEMBER_METRICS = 8, ("DC", "CC", "MGD")


def members_measure(seed: int, path: str) -> dict:
    import hashlib

    import numpy as np

    from gridsync import netmetrics, surrogate
    from gridsync.grid_io import GridSpec
    from gridsync.seeding import SURROGATE_TAG, stream

    a = np.load(path)
    grid = GridSpec(lat=a["lat"], lon=a["lon"])
    net = netmetrics.Network(grid, a["indptr"], a["indices"])
    before = rss_mb()
    t0 = time.perf_counter()
    netmetrics.pair_distances(grid)
    t1 = time.perf_counter()
    netmetrics.pair_groups(grid, PAIR_BIN_KM)
    t2 = time.perf_counter()
    profile = surrogate.estimate_profile(net, PAIR_BIN_KM)
    t3 = time.perf_counter()
    times: dict[str, list] = {"draw_s": [], **{f"{m}_s": [] for m in MEMBER_METRICS}}
    edges, first = [], ""
    for k in range(MEMBERS):
        t = time.perf_counter()
        member = surrogate.surrogate_member(profile, grid, stream(seed, SURROGATE_TAG, k))
        times["draw_s"].append(time.perf_counter() - t)
        for m in MEMBER_METRICS:
            t = time.perf_counter()
            netmetrics.compute_metric(member, m)
            times[f"{m}_s"].append(time.perf_counter() - t)
        edges.append(member.edge_count)
        first = first or hashlib.sha256(member.edge_array().tobytes()).hexdigest()[:16]
    return {"pass_s": round(t1 - t0, 4), "one_off_s": round(t2 - t1, 4), "profile_s": round(t3 - t2, 4),
            **{k: round(statistics.median(v), 5) for k, v in times.items()},
            "member_edges_mean": round(statistics.mean(edges), 1), "member_0_sha256": first,
            "peak_rss_mb": round(rss_mb(), 1), "above_input_mb": round(rss_mb() - before, 1)}


def surrogate_members(h: Harness) -> dict:
    keys = ("pass_s", "one_off_s", "profile_s", "draw_s", *(f"{m}_s" for m in MEMBER_METRICS), "peak_rss_mb")
    result = {"nodes": ROWS * ROWS, "bin_width_km": PAIR_BIN_KM, "members": MEMBERS, "seed": h.seed,
              "repeats": h.repeats, "pinned_cpus": 1, "graphs": {}}
    for name, model in BC_GRAPHS.items():
        path = str(h.tmp / f"{name}.npz")
        edges = h.spawn("bc_make", h.first, name, path)
        runs = h.alternate("members_measure", path)
        result["graphs"][name] = {"link_model": f"Exponential{model}", "edges": edges,
                                  "medians": median_table(runs, keys, 5),
                                  "peak_rss_mb_max": maxima(runs, "peak_rss_mb"),
                                  "member_0_sha256": digests(runs, "member_0_sha256"), "runs": runs}
    return result


# member_block
BLOCK_MEMBERS, BLOCK_GRAPH = 64, "edges_28k"  # one ensemble block on the boundary_conus network


def block_measure(seed: int, path: str) -> dict:
    import hashlib

    import numpy as np

    from gridsync import netmetrics, surrogate
    from gridsync.grid_io import GridSpec

    a = np.load(path)
    grid = GridSpec(lat=a["lat"], lon=a["lon"])
    profile = surrogate.estimate_profile(netmetrics.Network(grid, a["indptr"], a["indices"]), PAIR_BIN_KM)
    before = rss_mb()
    t = time.perf_counter()
    sums = surrogate.member_block(profile, grid, MEMBER_METRICS, seed, 0, BLOCK_MEMBERS)
    wall = time.perf_counter() - t
    return {"block_s": round(wall, 4), "peak_rss_mb": round(rss_mb(), 1),
            "above_input_mb": round(rss_mb() - before, 1),
            "sums_sha256": hashlib.sha256(sums.tobytes()).hexdigest()[:16]}


def member_block(h: Harness) -> dict:
    path = str(h.tmp / f"{BLOCK_GRAPH}.npz")
    edges = h.spawn("bc_make", h.first, BLOCK_GRAPH, path)
    runs = h.alternate("block_measure", path)
    return {"nodes": ROWS * ROWS, "link_model": f"Exponential{BC_GRAPHS[BLOCK_GRAPH]}", "edges": edges,
            "bin_width_km": PAIR_BIN_KM, "members": BLOCK_MEMBERS, "metrics": list(MEMBER_METRICS),
            "seed": h.seed, "repeats": h.repeats, "pinned_cpus": 1,
            "block_s_median": medians(runs, "block_s"), "above_input_mb_median": medians(runs, "above_input_mb", 1),
            "peak_rss_mb_max": maxima(runs, "peak_rss_mb"), "sums_sha256": digests(runs, "sums_sha256"),
            "runs": runs}


KERNELS = {"bc_conus": bc_conus, "pair_pass": pair_pass, "surrogate_members": surrogate_members,
           "member_block": member_block}


def src_dir(item: str) -> tuple[str, str]:
    """A --src value LABEL=DIR as (LABEL, DIR); the label must not be empty."""
    label, eq, path = item.partition("=")
    if not eq or not label:
        raise argparse.ArgumentTypeError(f"{item!r} is not LABEL=DIR with a non-empty LABEL")
    return label, path


def parse(argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("kernel", choices=KERNELS)
    ap.add_argument("--src", action="append", required=True, type=src_dir, metavar="LABEL=DIR",
                    help="a gridsync source directory and its label (repeatable, one label each)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", required=True, help="JSON file the result is written to")
    args = ap.parse_args(argv)
    labels = [label for label, _ in args.src]
    if len(set(labels)) < len(labels):
        ap.error(f"argument --src: each label names one source, got {', '.join(labels)}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    srcs = {label: str(Path(d).resolve()) for label, d in args.src}
    with tempfile.TemporaryDirectory() as tmp:
        result = KERNELS[args.kernel](Harness(srcs, args.seed, args.repeats, tmp))
    text = json.dumps(result, indent=2)
    Path(args.out).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
