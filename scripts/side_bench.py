"""Side measurements of one library layer at CONUS size, one labelled gridsync source against another.

    python3 scripts/side_bench.py KERNEL --src change=src --src parent=../parent/src --seed 1 --repeats 5 --out FILE

Each call runs in a fresh process that imports gridsync from one labelled
--src directory (PYTHONPATH removed) and reports its result as its last line
of output, in JSON. The labels alternate within each repeat (a, b / b, a /
a, b ...). Inputs are made once, by a child on the first --src, and saved.
This process never imports numpy: a child's ru_maxrss starts from its
parent's RSS at spawn, so each call's peak RSS is its own. The result, every
run and the medians, is printed and written to --out, which
scripts/distill_bench.py embeds with --side KERNEL=FILE. Digests of the
results show whether the labels give the same bytes. KERNEL is:

- bc_conus: netmetrics.betweenness, and a digest of its values, on three
  networks on a 57 x 57 lattice at 50 km spacing (3,249 nodes). Two come
  from gridsync's own generator: the boundary_conus input for the same seed
  (Exponential(0.8, 100), about 28.5k edges) and a denser one
  (Exponential(0.3, 400), about 133k edges, near the chance-link density of
  a 99.5%-quantile ES network). The third is local, with many BFS levels:
  surrogate member 0 of the seed drawn in PAIR_BIN_KM bins from the profile
  of a HardCutoff(BC_LOCAL_KM) network.
- es_kernel: ``import gridsync.sync`` with OPENBLAS_NUM_THREADS unset (wall time,
  and the thread count after it on Linux); then sync.build_network on one
  season of independent events (probability 0.029 a day over T = 2,760
  days, a 95th-percentile JJA record of 30 years) on 144 nodes (the
  network_30y size) and 3,249, with OPENBLAS_NUM_THREADS 1 and 2: the RSS
  the call adds to its loaded input, and then sync._es_matrix alone. It
  calls build_network(events, grid, params, seed), with no seed in
  SyncParams, so every --src must take the seed there.
- pair_pass: netmetrics.pair_groups at 50 km on that lattice (5,276,376
  pairs) and on the lattice with every node moved by up to PAIR_JITTER_DEG
  in latitude and longitude (every coordinate distinct), pinned to one CPU
  with OPENBLAS_NUM_THREADS=1, next to a network on 1% of the pairs: the
  first grouping, its pass included (cold_s, and the RSS it adds), the
  median of five more (groups_s), of five netmetrics.pair_distances calls,
  the pass alone (warm_s), and of five estimate_profile calls (profile_s),
  then warm_s at each netmetrics._PAIR_BLOCK in PAIR_SWEEP, and digests of
  the distances and the groups. pair_groups is the grid's one distance
  memo, so grid.derived is cleared before each timed grouping.
- surrogate_members: the surrogate ensemble's one-off set-up and its members
  on the two generated bc_conus networks, pinned to one CPU with
  OPENBLAS_NUM_THREADS=1: the distance pass (pair_distances, pass_s),
  the one-off that the member draw needs (one_off_s: the grouping
  netmetrics.pair_groups from an empty grid.derived, its pass included),
  estimate_profile on it (profile_s), then
  MEMBERS members of stream(seed, SURROGATE_TAG, k): the median time of the
  draw and of each metric in MEMBER_METRICS, and the process's peak RSS.
- member_block: one surrogate.member_block of BLOCK_MEMBERS members (DC,
  CC and MGD) on the boundary_conus network of bc_conus, pinned to one CPU
  with OPENBLAS_NUM_THREADS=1, after estimate_profile has made the pair
  memo: the block's wall time, the RSS it adds and the process's peak RSS,
  and a digest of the summed fields.
- events_stage: ``gridsync events`` (gridsync.cli.main) for JJA and for DJF
  on one CNG1 file of every calendar day of EVENT_YEARS (10,957 days) on
  the 57 x 57 lattice, made once with grid_io.write_gridded: the stage's
  wall time, the process's peak RSS and the digests of EVENT_FILES.
- csv_io: the CSV artifacts a stage process writes and the next one reads
  back, at CONUS size on the 57 x 57 lattice: events.csv of one season of
  independent events (probability CSV_EVENT_RATE a day over CSV_DAYS days,
  about 260k rows), edges.csv of the denser bc_conus network (about 133k
  rows) and the eight corrected_<M>_<method>.csv of CSV_METRICS, from
  random raw fields and surrogate means (a tenth of the means zero). The
  inputs are made once and saved with numpy; each run writes every file
  (write_s), reads it back with the stage readers (read_s), and reports the
  digests of the files and the process's peak RSS. It calls
  write_event_series as 0.10.0 defines it (the unusable nodes in place of
  a sidecar dict), so every --src must be 0.10.0 or later.
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

    def spawn(self, step: str, label: str, *args, env: dict | None = None):
        """step(seed, *args) on label's source. env sets variables, and None removes one."""
        environ = {k: v for k, v in {**os.environ, **(env or {})}.items() if k != "PYTHONPATH" and v is not None}
        spec = json.dumps([step, self.srcs[label], self.seed, *args])
        cmd = [sys.executable, "-c", CHILD, str(Path(__file__).resolve().parent), spec]
        out = subprocess.run(cmd, env=environ, stdout=subprocess.PIPE, text=True, check=True).stdout
        return json.loads(out.splitlines()[-1])

    def alternate(self, step: str, *args, env: dict | None = None) -> dict[str, list]:
        """Every label's runs of step, the label order reversed on every other repeat."""
        runs: dict[str, list] = {label: [] for label in self.srcs}
        for r in range(self.repeats):
            for label in list(self.srcs)[:: -1 if r % 2 else 1]:
                runs[label].append(self.spawn(step, label, *args, env=env))
        return runs


def medians(runs: dict[str, list], key: str, digits: int = 4) -> dict[str, float]:
    return {label: round(statistics.median(r[key] for r in rs), digits) for label, rs in runs.items()}


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
            "bc_sha256": hashlib.sha256(bc.values.tobytes()).hexdigest()[:16]}


def bc_conus(h: Harness) -> dict:
    result = {"nodes": ROWS * ROWS, "seed": h.seed, "graphs": {}}
    models = {**{name: f"Exponential{model}" for name, model in BC_GRAPHS.items()},
              BC_LOCAL: f"surrogate member 0 of HardCutoff({BC_LOCAL_KM})'s profile in {PAIR_BIN_KM} km bins"}
    for name, model in models.items():
        path = str(h.tmp / f"{name}.npz")
        edges = h.spawn("bc_make", h.first, name, path)
        runs = h.alternate("bc_measure", path)
        result["graphs"][name] = {"link_model": model, "edges": edges,
                                  "bc_s_median": medians(runs, "bc_s", 3),
                                  "bc_sha256": {label: sorted({r["bc_sha256"] for r in rs})
                                                for label, rs in runs.items()},
                                  "peak_rss_mb_max": {label: max(r["peak_rss_mb"] for r in rs)
                                                      for label, rs in runs.items()}, "runs": runs}
    return result


# es_kernel
ES_SIZES = {"nodes_144": 12, "nodes_3249": ROWS}  # square lattice rows
ES_T, ES_RATE, ES_SHUFFLES = 2760, 0.029, 1000


def es_import(seed: int) -> dict:
    t = time.perf_counter()
    import gridsync.sync  # noqa: F401

    wall = time.perf_counter() - t
    tasks = len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None
    return {"import_s": round(wall, 4), "threads": tasks}


def es_make(seed: int, rows: int, path: str) -> None:
    import numpy as np

    from gridsync.synth import RectLattice, lattice_grid

    grid = lattice_grid(RectLattice(rows=rows, cols=rows, spacing_km=SPACING_KM))
    events = np.random.default_rng(seed).random((grid.n, ES_T)) < ES_RATE
    np.savez(path, lat=grid.lat, lon=grid.lon, events=events)


def es_measure(seed: int, path: str) -> dict:
    import hashlib

    import numpy as np

    from gridsync.grid_io import GridSpec
    from gridsync.sync import SyncParams, _es_matrix, build_network

    a = np.load(path)
    grid, events = GridSpec(lat=a["lat"], lon=a["lon"]), a["events"]
    before = rss_mb()
    t = time.perf_counter()
    net = build_network(events, grid, SyncParams(n_shuffles=ES_SHUFFLES), seed)
    wall = time.perf_counter() - t
    peak = rss_mb()
    kernel = []
    for _ in range(3):
        t = time.perf_counter()
        for _ in _es_matrix(events):
            pass
        kernel.append(time.perf_counter() - t)
    return {"build_network_s": round(wall, 4), "kernel_s": round(statistics.median(kernel), 4),
            "peak_rss_mb": round(peak, 1), "above_input_mb": round(peak - before, 1), "edges": net.edge_count,
            "edges_sha256": hashlib.sha256(net.edge_array().tobytes()).hexdigest()[:16]}


def es_kernel(h: Harness) -> dict:
    unset = {"OPENBLAS_NUM_THREADS": None}
    runs = h.alternate("es_import", env=unset)
    result = {"seed": h.seed, "repeats": h.repeats,
              "import": {"openblas_num_threads": "unset", "import_s_median": medians(runs, "import_s"),
                         "threads": {label: sorted({r["threads"] for r in rs}) for label, rs in runs.items()},
                         "runs": runs},
              "build_network": {"T": ES_T, "event_rate": ES_RATE, "n_shuffles": ES_SHUFFLES}}
    for name, rows in ES_SIZES.items():
        path = str(h.tmp / f"{name}.npz")
        h.spawn("es_make", h.first, rows, path, env=unset)
        for threads in ("1", "2"):
            runs = h.alternate("es_measure", path, env={"OPENBLAS_NUM_THREADS": threads})
            result["build_network"][f"{name}_threads_{threads}"] = {
                "build_network_s_median": medians(runs, "build_network_s"),
                "kernel_s_median": medians(runs, "kernel_s"),
                "above_input_mb_max": {label: max(r["above_input_mb"] for r in rs) for label, rs in runs.items()},
                "edges": sorted({(r["edges"], r["edges_sha256"]) for rs in runs.values() for r in rs}),
                "runs": runs}
    return result


# pair_pass
PAIR_BIN_KM, PAIR_DENSITY = 50.0, 0.01
PAIR_SWEEP = (12, 13, 14, 15, 16, 17, 20)  # log2 of netmetrics._PAIR_BLOCK
# the lattice has 57 distinct latitudes and longitudes; jittered by up to 0.1 degrees
# (a quarter of the lattice spacing), every coordinate is distinct
PAIR_GRIDS, PAIR_JITTER_DEG = ("lattice", "jittered"), 0.1


def pair_grid(seed: int, name: str):
    import numpy as np

    from gridsync.grid_io import GridSpec
    from gridsync.synth import RectLattice, lattice_grid

    grid = lattice_grid(RectLattice(rows=ROWS, cols=ROWS, spacing_km=SPACING_KM))
    if name == "lattice":
        return grid
    jitter = np.random.default_rng(seed).uniform(-PAIR_JITTER_DEG, PAIR_JITTER_DEG, (2, grid.n))
    return GridSpec(lat=grid.lat + jitter[0], lon=grid.lon + jitter[1])


def pair_measure(seed: int, name: str) -> dict:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
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

    def warm() -> float:
        return median_s(lambda: netmetrics.pair_distances(grid))

    def group() -> tuple:
        grid.derived.clear()
        return netmetrics.pair_groups(grid, PAIR_BIN_KM)

    before = rss_mb()
    t = time.perf_counter()
    groups = group()
    cold = time.perf_counter() - t
    peak = rss_mb()
    out = {"cold_s": round(cold, 4), "above_input_mb": round(peak - before, 1), "groups_s": median_s(group),
           "warm_s": warm(), "profile_s": median_s(lambda: estimate_profile(net, PAIR_BIN_KM)),
           "distances_sha256": hashlib.sha256(netmetrics.pair_distances(grid).tobytes()).hexdigest()[:16],
           "groups_sha256": hashlib.sha256(b"".join(a.tobytes() for a in groups)).hexdigest()[:16],
           "sweep_warm_s": {}}
    for e in PAIR_SWEEP:
        netmetrics._PAIR_BLOCK = 1 << e
        out["sweep_warm_s"][f"2^{e}"] = warm()
    return out


def pair_pass(h: Harness) -> dict:
    keys = ("cold_s", "warm_s", "above_input_mb", "groups_s", "profile_s")
    result = {"input": {"nodes": ROWS * ROWS, "pairs": ROWS * ROWS * (ROWS * ROWS - 1) // 2,
                        "bin_width_km": PAIR_BIN_KM, "links_drawn": PAIR_DENSITY, "jitter_deg": PAIR_JITTER_DEG},
              "seed": h.seed, "repeats": h.repeats, "pinned_cpus": 1, "grids": {}}
    for name in PAIR_GRIDS:
        runs = h.alternate("pair_measure", name, env={"OPENBLAS_NUM_THREADS": "1"})
        sweeps = {label: {b: [x["sweep_warm_s"][b] for x in rs] for b in rs[0]["sweep_warm_s"]}
                  for label, rs in runs.items()}
        result["grids"][name] = {
            "medians": {label: {k: round(statistics.median(x[k] for x in rs), 4) for k in keys}
                        for label, rs in runs.items()},
            **{f"{d}_sha256": {label: sorted({x[f"{d}_sha256"] for x in rs}) for label, rs in runs.items()}
               for d in ("distances", "groups")},
            "sweep_warm_s": {label: {b: {"median": round(statistics.median(v), 4), "min": min(v), "max": max(v)}
                                     for b, v in sweep.items()} for label, sweep in sweeps.items()},
            "runs": runs}
    return result


# surrogate_members
MEMBERS, MEMBER_METRICS = 8, ("DC", "CC", "MGD")


def members_measure(seed: int, path: str) -> dict:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
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
        runs = h.alternate("members_measure", path, env={"OPENBLAS_NUM_THREADS": "1"})
        result["graphs"][name] = {
            "link_model": f"Exponential{model}", "edges": edges,
            "medians": {label: {k: round(statistics.median(r[k] for r in rs), 5) for k in keys}
                        for label, rs in runs.items()},
            "peak_rss_mb_max": {label: max(r["peak_rss_mb"] for r in rs) for label, rs in runs.items()},
            "member_0_sha256": {label: sorted({r["member_0_sha256"] for r in rs}) for label, rs in runs.items()},
            "runs": runs}
    return result


# member_block
BLOCK_MEMBERS, BLOCK_GRAPH = 64, "edges_28k"  # one ensemble block on the boundary_conus network


def block_measure(seed: int, path: str) -> dict:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
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
    runs = h.alternate("block_measure", path, env={"OPENBLAS_NUM_THREADS": "1"})
    return {"nodes": ROWS * ROWS, "link_model": f"Exponential{BC_GRAPHS[BLOCK_GRAPH]}", "edges": edges,
            "bin_width_km": PAIR_BIN_KM, "members": BLOCK_MEMBERS, "metrics": list(MEMBER_METRICS),
            "seed": h.seed, "repeats": h.repeats, "pinned_cpus": 1,
            "block_s_median": medians(runs, "block_s"), "above_input_mb_median": medians(runs, "above_input_mb", 1),
            "peak_rss_mb_max": {label: max(r["peak_rss_mb"] for r in rs) for label, rs in runs.items()},
            "sums_sha256": {label: sorted({r["sums_sha256"] for r in rs}) for label, rs in runs.items()},
            "runs": runs}


# events_stage
EVENT_YEARS, EVENT_SEASONS = (1981, 2010), ("JJA", "DJF")
EVENT_WET = 0.55  # share of days with precipitation in the input file
EVENT_FILES = ("events.csv", "events.csv.json", "grid.csv")


def events_make(seed: int, path: str) -> int:
    import numpy as np

    from gridsync.grid_io import GriddedSeries, write_gridded
    from gridsync.synth import RectLattice, lattice_grid

    grid = lattice_grid(RectLattice(rows=ROWS, cols=ROWS, spacing_km=SPACING_KM))
    first, last = (np.datetime64(f"{y}-01-01") for y in (EVENT_YEARS[0], EVENT_YEARS[1] + 1))
    days = np.arange(first, last).astype(np.int64)
    rng = np.random.default_rng(seed)
    values = np.empty((grid.n, days.size))
    for i in range(0, grid.n, 256):  # in blocks, so the draws add little to the 285 MB of values
        block = rng.exponential(size=values[i : i + 256].shape)
        block[rng.random(block.shape) >= EVENT_WET] = 0.0
        values[i : i + 256] = block
    write_gridded(GriddedSeries(grid, days, values), path)
    return int(days.size)


def events_measure(seed: int, path: str, season: str) -> dict:
    import hashlib

    from gridsync import cli

    with tempfile.TemporaryDirectory(dir=Path(path).parent) as out:
        config = Path(out) / "run.json"
        config.write_text(json.dumps({"input": path, "format": "binary", "variable": "precip", "season": season,
                                      "seed": seed, "out": out}))
        t = time.perf_counter()
        code = cli.main(["events", "--config", str(config)])
        wall = time.perf_counter() - t
        if code:
            raise SystemExit(f"gridsync events exited {code}")
        digests = {name: hashlib.sha256((Path(out) / name).read_bytes()).hexdigest()[:16] for name in EVENT_FILES}
    return {"events_s": round(wall, 4), "peak_rss_mb": round(rss_mb(), 1), "sha256": digests}


def events_stage(h: Harness) -> dict:
    path = h.tmp / "full.cng1"
    days = h.spawn("events_make", h.first, str(path))
    result = {"input": {"nodes": ROWS * ROWS, "days": days, "years": list(EVENT_YEARS), "wet_share": EVENT_WET,
                        "file_mb": round(path.stat().st_size / 2**20, 1)},
              "seed": h.seed, "repeats": h.repeats, "seasons": {}}
    for season in EVENT_SEASONS:
        runs = h.alternate("events_measure", str(path), season)
        result["seasons"][season] = {
            "events_s_median": medians(runs, "events_s"),
            "peak_rss_mb_median": medians(runs, "peak_rss_mb", 1),
            "peak_rss_mb_max": {label: max(r["peak_rss_mb"] for r in rs) for label, rs in runs.items()},
            "sha256": {label: {name: sorted({r["sha256"][name] for r in rs}) for name in EVENT_FILES}
                       for label, rs in runs.items()},
            "runs": runs}
    return result


# csv_io
CSV_EVENT_RATE, CSV_DAYS = 0.029, 2760  # a 95th-percentile JJA record of 30 years
CSV_METRICS = ("DC", "CC", "MGD", "BC")
CSV_GROUPS = ("events", "edges", "corrected")


def csv_make(seed: int, path: str) -> dict:
    import numpy as np

    from gridsync.synth import Exponential, RectLattice, SynthNetSpec, gen_embedded_network

    net = gen_embedded_network(SynthNetSpec(RectLattice(ROWS, ROWS, SPACING_KM), Exponential(*BC_GRAPHS["edges_133k"]),
                                            seed=seed))
    rng = np.random.default_rng(seed)
    n = net.grid.n
    raw = rng.gamma(2.0, 1.0, size=(len(CSV_METRICS), n)) * rng.choice([1.0, 50.0, 1e-3], size=(len(CSV_METRICS), 1))
    mean = raw * rng.uniform(0.5, 1.5, size=raw.shape) * (rng.random(raw.shape) >= 0.1)
    events = rng.random((n, CSV_DAYS)) < CSV_EVENT_RATE
    np.savez(path, lat=net.grid.lat, lon=net.grid.lon, edges=net.edge_array(), events=events,
             days=np.arange(CSV_DAYS) * 3, raw=raw, mean=mean)
    return {"nodes": n, "edges": int(net.edge_array().shape[0]), "events": int(events.sum())}


def csv_measure(seed: int, path: str) -> dict:
    import hashlib

    import numpy as np

    from gridsync.correction import correct_divide, correct_subtract, read_corrected_csv, write_corrected_csv
    from gridsync.grid_io import GridSpec, read_edge_list, read_event_series, write_edge_list, write_event_series
    from gridsync.netmetrics import MetricField
    from gridsync.surrogate import SurrogateStats

    d = np.load(path)
    grid, days = GridSpec(lat=d["lat"], lon=d["lon"]), d["days"]
    fields = {}
    for m, raw, mean in zip(CSV_METRICS, d["raw"], d["mean"]):
        stats = SurrogateStats(m, mean)
        fields[f"corrected_{m}_subtract.csv"] = correct_subtract(MetricField(m, raw), stats)
        fields[f"corrected_{m}_divide.csv"] = correct_divide(MetricField(m, raw), stats)
    write = {"events": lambda out: write_event_series(d["events"], days, out / "events.csv", []),
             "edges": lambda out: write_edge_list(d["edges"], out / "edges.csv"),
             "corrected": lambda out: [write_corrected_csv(cf, grid, out / name) for name, cf in fields.items()]}
    read = {"events": lambda out: read_event_series(out / "events.csv", grid.n),
            "edges": lambda out: read_edge_list(out / "edges.csv"),
            "corrected": lambda out: [read_corrected_csv(out / name) for name in fields]}
    result = {"write_s": {}, "read_s": {}}
    with tempfile.TemporaryDirectory(dir=Path(path).parent) as tmp:
        out = Path(tmp)
        for key, steps in (("write_s", write), ("read_s", read)):
            for group in CSV_GROUPS:
                t = time.perf_counter()
                steps[group](out)
                result[key][group] = round(time.perf_counter() - t, 4)
        result["sha256"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in sorted(out.iterdir())}
    result["peak_rss_mb"] = round(rss_mb(), 1)
    return result


def csv_io(h: Harness) -> dict:
    path = h.tmp / "csv_io.npz"
    result = {"input": h.spawn("csv_make", h.first, str(path)), "seed": h.seed, "repeats": h.repeats}
    runs = h.alternate("csv_measure", str(path))
    digests = {label: {name: sorted({r["sha256"][name] for r in rs}) for name in rs[0]["sha256"]}
               for label, rs in runs.items()}
    result.update({
        key: {group: {label: round(statistics.median(r[key][group] for r in rs), 4) for label, rs in runs.items()}
              for group in CSV_GROUPS}
        for key in ("write_s", "read_s")})
    result["peak_rss_mb_median"] = medians(runs, "peak_rss_mb", 1)
    result["same_bytes"] = len({json.dumps(v, sort_keys=True) for v in digests.values()}) == 1
    result["sha256"] = digests
    result["runs"] = runs
    return result


KERNELS = {"bc_conus": bc_conus, "es_kernel": es_kernel, "pair_pass": pair_pass,
           "surrogate_members": surrogate_members, "member_block": member_block, "events_stage": events_stage,
           "csv_io": csv_io}


def parse(argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("kernel", choices=KERNELS)
    ap.add_argument("--src", action="append", required=True, metavar="LABEL=DIR",
                    help="a gridsync source directory and its label (repeatable)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", required=True, help="JSON file the result is written to")
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    srcs = {label: str(Path(d).resolve()) for label, d in (item.split("=", 1) for item in args.src)}
    with tempfile.TemporaryDirectory() as tmp:
        result = KERNELS[args.kernel](Harness(srcs, args.seed, args.repeats, tmp))
    text = json.dumps(result, indent=2)
    Path(args.out).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
