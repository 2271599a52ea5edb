import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import gridsync

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "side_bench.py"
spec = importlib.util.spec_from_file_location("side_bench", SCRIPT)
side_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(side_bench)

_PARENT_PROBE = f"""
import importlib.util, sys
spec = importlib.util.spec_from_file_location("side_bench", {str(SCRIPT)!r})
side_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(side_bench)
for kernel in side_bench.KERNELS:
    side_bench.parse([kernel, "--src", "a=src", "--src", "b=src", "--out", "x.json"])
print("numpy" in sys.modules)
"""


def test_parent_never_imports_numpy():
    # a child's ru_maxrss starts from its parent's RSS at spawn
    out = subprocess.run([sys.executable, "-c", _PARENT_PROBE], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]


def test_labels_alternate_within_each_repeat():
    h = side_bench.Harness({"a": "A", "b": "B"}, seed=1, repeats=3)
    calls = []
    h.spawn = lambda step, label, *args, env=None: calls.append((step, label, args, env)) or len(calls)
    runs = h.alternate("bc_measure", "graph.npz", env={"OPENBLAS_NUM_THREADS": "1"})
    assert [label for _, label, _, _ in calls] == ["a", "b", "b", "a", "a", "b"]
    assert all(c[::2] == ("bc_measure", ("graph.npz",)) and c[3] == {"OPENBLAS_NUM_THREADS": "1"} for c in calls)
    assert runs == {"a": [1, 4, 5], "b": [2, 3, 6]}


def test_parse_takes_only_the_harness_options():
    args = side_bench.parse(["pair_pass", "--src", "a=src", "--out", "x.json"])
    assert vars(args) == {"kernel": "pair_pass", "src": ["a=src"], "seed": 1, "repeats": 5, "out": "x.json"}
    for bad in (["nosuch", "--src", "a=src", "--out", "x"], ["bc_conus", "--src", "a=src"],
                ["bc_conus", "--src", "a=src", "--out", "x", "--measure", "p"]):
        with pytest.raises(SystemExit):
            side_bench.parse(bad)


def test_child_runs_one_step_on_its_labelled_source(monkeypatch):
    # the child finds gridsync only through its --src directory, and reports its last line of JSON
    monkeypatch.setenv("PYTHONPATH", "/nonexistent")
    src = str(Path(gridsync.__file__).resolve().parents[1])
    h = side_bench.Harness({"a": src}, seed=1, repeats=1)
    run = h.spawn("es_import", "a", env={"OPENBLAS_NUM_THREADS": None})
    assert set(run) == {"import_s", "threads"}
    if sys.platform == "linux":
        assert run["threads"] == 1  # gridsync's own one-BLAS-thread default


def test_bc_measure_step_digests_the_production_bc(tmp_path):
    # a fresh child on this source reports the time and the digest of betweenness on the saved network
    import hashlib

    import numpy as np

    from gridsync.netmetrics import betweenness
    from gridsync.synth import Exponential, RectLattice, SynthNetSpec, gen_embedded_network

    net = gen_embedded_network(SynthNetSpec(RectLattice(10, 10, 50.0), Exponential(0.8, 100.0), seed=2))
    path = tmp_path / "net.npz"
    np.savez(path, lat=net.grid.lat, lon=net.grid.lon, indptr=net.indptr, indices=net.indices)
    src = str(Path(gridsync.__file__).resolve().parents[1])
    run = side_bench.Harness({"a": src}, seed=4, repeats=1).spawn("bc_measure", "a", str(path))
    assert set(run) == {"bc_s", "peak_rss_mb", "rss_before_bc_mb", "bc_sha256"}
    assert run["bc_sha256"] == hashlib.sha256(betweenness(net).values.tobytes()).hexdigest()[:16]


def test_bc_conus_summary_per_graph_and_label():
    # the two generated networks and the local surrogate member, each made once by the first label
    h = side_bench.Harness({"change": "C", "parent": "P"}, seed=1, repeats=2, tmp="work")
    calls = []

    def spawn(step, label, *args, env=None):
        calls.append((step, label, args))
        if step == "bc_make":
            return 7
        return {"bc_s": 1.0 if label == "change" else 1.5, "peak_rss_mb": 90.0, "rss_before_bc_mb": 80.0,
                "bc_sha256": args[0]}

    h.spawn = spawn
    out = side_bench.bc_conus(h)
    assert list(out["graphs"]) == [*side_bench.BC_GRAPHS, side_bench.BC_LOCAL]
    assert [c[:3] for c in calls if c[0] == "bc_make"] == [
        ("bc_make", "change", (name, f"work/{name}.npz")) for name in out["graphs"]]
    local = out["graphs"][side_bench.BC_LOCAL]
    assert "HardCutoff(120.0)" in local["link_model"] and local["edges"] == 7
    assert local["bc_s_median"] == {"change": 1.0, "parent": 1.5}
    assert local["bc_sha256"] == {label: [f"work/{side_bench.BC_LOCAL}.npz"] for label in ("change", "parent")}


def test_surrogate_members_step_draws_the_production_members(tmp_path):
    # a fresh child on this source reports every key the summary reads, and its
    # member 0 is the ensemble's member 0
    import hashlib

    import numpy as np

    from gridsync.seeding import SURROGATE_TAG, stream
    from gridsync.surrogate import estimate_profile, surrogate_member
    from gridsync.synth import Exponential, RectLattice, SynthNetSpec, gen_embedded_network

    net = gen_embedded_network(SynthNetSpec(RectLattice(10, 10, 50.0), Exponential(0.8, 100.0), seed=2))
    path = tmp_path / "net.npz"
    np.savez(path, lat=net.grid.lat, lon=net.grid.lon, indptr=net.indptr, indices=net.indices)
    src = str(Path(gridsync.__file__).resolve().parents[1])
    run = side_bench.Harness({"a": src}, seed=4, repeats=1).spawn("members_measure", "a", str(path))
    assert set(run) == {"pass_s", "one_off_s", "profile_s", "draw_s", "DC_s", "CC_s", "MGD_s",
                        "member_edges_mean", "member_0_sha256", "peak_rss_mb", "above_input_mb"}
    member = surrogate_member(estimate_profile(net, side_bench.PAIR_BIN_KM), net.grid, stream(4, SURROGATE_TAG, 0))
    assert run["member_0_sha256"] == hashlib.sha256(member.edge_array().tobytes()).hexdigest()[:16]


def test_surrogate_members_summary_per_graph_and_label():
    h = side_bench.Harness({"change": "C", "parent": "P"}, seed=1, repeats=2, tmp="work")
    calls = []

    def spawn(step, label, *args, env=None):
        calls.append((step, label, args, env))
        if step == "bc_make":
            return 7
        return {"pass_s": 0.1, "one_off_s": 0.2, "profile_s": 0.3, "draw_s": 0.4, "DC_s": 0.5, "CC_s": 0.6,
                "MGD_s": 0.7, "peak_rss_mb": 90.0 if label == "change" else 110.0, "member_0_sha256": label}

    h.spawn = spawn
    out = side_bench.surrogate_members(h)
    assert set(out["graphs"]) == set(side_bench.BC_GRAPHS)
    g = out["graphs"]["edges_28k"]
    assert g["edges"] == 7 and len(g["runs"]["change"]) == len(g["runs"]["parent"]) == 2
    assert g["peak_rss_mb_max"] == {"change": 90.0, "parent": 110.0}
    assert g["medians"]["parent"]["CC_s"] == 0.6 and g["member_0_sha256"] == {"change": ["change"], "parent": ["parent"]}
    measured = [c for c in calls if c[0] == "members_measure"]
    assert all(c[3] == {"OPENBLAS_NUM_THREADS": "1"} for c in measured) and len(measured) == 8


def test_member_block_step_sums_the_production_block(tmp_path):
    # a fresh child on this source reports every key the summary reads, and its digest is member_block's
    import hashlib

    import numpy as np

    from gridsync.surrogate import estimate_profile, member_block
    from gridsync.synth import Exponential, RectLattice, SynthNetSpec, gen_embedded_network

    net = gen_embedded_network(SynthNetSpec(RectLattice(10, 10, 50.0), Exponential(0.8, 100.0), seed=2))
    path = tmp_path / "net.npz"
    np.savez(path, lat=net.grid.lat, lon=net.grid.lon, indptr=net.indptr, indices=net.indices)
    src = str(Path(gridsync.__file__).resolve().parents[1])
    run = side_bench.Harness({"a": src}, seed=4, repeats=1).spawn("block_measure", "a", str(path))
    assert set(run) == {"block_s", "peak_rss_mb", "above_input_mb", "sums_sha256"}
    sums = member_block(estimate_profile(net, side_bench.PAIR_BIN_KM), net.grid, side_bench.MEMBER_METRICS, 4, 0,
                        side_bench.BLOCK_MEMBERS)
    assert run["sums_sha256"] == hashlib.sha256(sums.tobytes()).hexdigest()[:16]


def test_member_block_summary_per_label():
    h = side_bench.Harness({"change": "C", "parent": "P"}, seed=1, repeats=3, tmp="work")
    calls = []

    def spawn(step, label, *args, env=None):
        calls.append((step, label, args, env))
        if step == "bc_make":
            return 7
        return {"block_s": 1.0 if label == "change" else 1.2, "above_input_mb": 2.0 if label == "change" else 8.0,
                "peak_rss_mb": 90.0 if label == "change" else 96.0, "sums_sha256": "s"}

    h.spawn = spawn
    out = side_bench.member_block(h)
    assert calls[0][:3] == ("bc_make", "change", (side_bench.BLOCK_GRAPH, "work/edges_28k.npz"))
    assert out["edges"] == 7 and out["members"] == 64 and len(out["runs"]["parent"]) == 3
    assert out["block_s_median"] == {"change": 1.0, "parent": 1.2}
    assert out["above_input_mb_median"] == {"change": 2.0, "parent": 8.0}
    assert out["peak_rss_mb_max"] == {"change": 90.0, "parent": 96.0}
    assert out["sums_sha256"] == {"change": ["s"], "parent": ["s"]}
    measured = [c for c in calls if c[0] == "block_measure"]
    assert all(c[3] == {"OPENBLAS_NUM_THREADS": "1"} for c in measured) and len(measured) == 6


def test_pair_pass_summary_per_grid_and_label():
    h = side_bench.Harness({"change": "C", "parent": "P"}, seed=1, repeats=2)
    calls = []

    def spawn(step, label, *args, env=None):
        calls.append((step, label, args, env))
        return {"cold_s": 0.2, "warm_s": 0.1 if label == "change" else 0.15, "above_input_mb": 9.7,
                "groups_s": 0.05, "profile_s": 0.01, "distances_sha256": args[0], "groups_sha256": "g",
                "sweep_warm_s": {"2^15": 0.1, "2^16": 0.12}}

    h.spawn = spawn
    out = side_bench.pair_pass(h)
    assert set(out["grids"]) == set(side_bench.PAIR_GRIDS) == {"lattice", "jittered"}
    g = out["grids"]["jittered"]
    assert g["medians"]["parent"]["warm_s"] == 0.15 and g["medians"]["change"]["groups_s"] == 0.05
    assert g["distances_sha256"] == {"change": ["jittered"], "parent": ["jittered"]}
    assert g["groups_sha256"] == {"change": ["g"], "parent": ["g"]}
    assert g["sweep_warm_s"]["change"]["2^16"] == {"median": 0.12, "min": 0.12, "max": 0.12}
    assert [c[2] for c in calls] == [("lattice",)] * 4 + [("jittered",)] * 4
    assert all(c[3] == {"OPENBLAS_NUM_THREADS": "1"} for c in calls)


def test_jittered_pair_grid_has_distinct_coordinates():
    lattice, jittered = (side_bench.pair_grid(3, name) for name in ("lattice", "jittered"))
    assert len(set(lattice.lat.tolist())) == len(set(lattice.lon.tolist())) == side_bench.ROWS
    assert len(set(jittered.lat.tolist())) == len(set(jittered.lon.tolist())) == jittered.n == lattice.n
    assert abs(jittered.lat - lattice.lat).max() <= side_bench.PAIR_JITTER_DEG


def test_events_stage_step_runs_the_events_stage(tmp_path):
    # a fresh child on this source runs `gridsync events` on a full-calendar file, reports the
    # digests of the stage's artifacts as run in this process, and leaves no output behind
    import hashlib
    import json

    import numpy as np

    from gridsync.cli import main
    from gridsync.grid_io import GriddedSeries, write_gridded
    from gridsync.synth import RectLattice, lattice_grid

    grid = lattice_grid(RectLattice(3, 3, 50.0))
    days = np.arange(np.datetime64("1998-01-01"), np.datetime64("2001-01-01")).astype(np.int64)
    path = tmp_path / "full.cng1"
    write_gridded(GriddedSeries(grid, days, np.random.default_rng(0).exponential(size=(grid.n, days.size))), path)
    src = str(Path(gridsync.__file__).resolve().parents[1])
    run = side_bench.Harness({"a": src}, seed=4, repeats=1).spawn("events_measure", "a", str(path), "DJF")
    assert set(run) == {"events_s", "peak_rss_mb", "sha256"}
    assert [p.name for p in tmp_path.iterdir()] == ["full.cng1"]
    out, config = tmp_path / "out", tmp_path / "run.json"
    config.write_text(json.dumps({"input": str(path), "format": "binary", "variable": "precip", "season": "DJF",
                                  "seed": 4, "out": str(out)}))
    assert main(["events", "--config", str(config)]) == 0
    assert run["sha256"] == {name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
                             for name in ("events.csv", "events.csv.json", "grid.csv")}


def test_events_stage_summary_per_season_and_label(tmp_path):
    h = side_bench.Harness({"change": "C", "parent": "P"}, seed=1, repeats=2, tmp=str(tmp_path))
    calls = []

    def spawn(step, label, *args, env=None):
        calls.append((step, label, args))
        if step == "events_make":
            Path(args[0]).write_bytes(b"\0" * 2**20)
            return 10957
        return {"events_s": 0.5, "peak_rss_mb": 110.0 if label == "change" else 438.0,
                "sha256": {name: args[1] for name in side_bench.EVENT_FILES}}

    h.spawn = spawn
    out = side_bench.events_stage(h)
    assert out["input"]["days"] == 10957 and out["input"]["file_mb"] == 1.0
    assert calls[0] == ("events_make", "change", (str(tmp_path / "full.cng1"),))
    djf = out["seasons"]["DJF"]
    assert djf["peak_rss_mb_max"] == {"change": 110.0, "parent": 438.0}
    assert djf["sha256"]["parent"]["grid.csv"] == ["DJF"] and len(djf["runs"]["change"]) == 2
    assert [c[2][1] for c in calls[1:]] == ["JJA"] * 4 + ["DJF"] * 4


def test_csv_io_step_writes_and_reads_the_artifacts(tmp_path):
    # a fresh child on this source writes every file with the library writers
    # and reads it back; its digests are those of the same files written here
    import hashlib

    import numpy as np

    from gridsync.correction import correct_divide, write_corrected_csv
    from gridsync.grid_io import GridSpec, write_event_series
    from gridsync.netmetrics import MetricField
    from gridsync.surrogate import SurrogateStats

    rng = np.random.default_rng(0)
    n, metrics = 9, len(side_bench.CSV_METRICS)
    raw, mean = rng.random((metrics, n)), rng.random((metrics, n)) * (rng.random((metrics, n)) > 0.3)
    path = tmp_path / "csv_io.npz"
    np.savez(path, lat=np.repeat([40.0, 41.0, 42.0], 3), lon=np.tile([-100.0, -99.0, -98.0], 3),
             edges=np.array([[0, 1], [1, 5], [3, 8]]), events=rng.random((n, 6)) < 0.3, days=np.arange(6) * 3,
             raw=raw, mean=mean)
    src = str(Path(gridsync.__file__).resolve().parents[1])
    run = side_bench.Harness({"a": src}, seed=4, repeats=1).spawn("csv_measure", "a", str(path))
    assert set(run) == {"write_s", "read_s", "sha256", "peak_rss_mb"}
    assert set(run["write_s"]) == set(run["read_s"]) == set(side_bench.CSV_GROUPS)
    assert len(run["sha256"]) == 3 + 2 * metrics  # events.csv, its sidecar, edges.csv and the corrected files
    assert [p.name for p in tmp_path.iterdir()] == ["csv_io.npz"]
    d = np.load(path)
    cf = correct_divide(MetricField("CC", raw[1]), SurrogateStats("CC", mean[1]))
    write_corrected_csv(cf, GridSpec(lat=d["lat"], lon=d["lon"]), tmp_path / "c.csv")
    assert run["sha256"]["corrected_CC_divide.csv"] == hashlib.sha256((tmp_path / "c.csv").read_bytes()).hexdigest()[:16]
    write_event_series(d["events"], d["days"], tmp_path / "events.csv", [])
    for name in ("events.csv", "events.csv.json"):
        assert run["sha256"][name] == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16], name


def test_csv_io_summary_per_group_and_label(tmp_path):
    h = side_bench.Harness({"change": "C", "parent": "P"}, seed=1, repeats=2, tmp=str(tmp_path))
    calls = []

    def spawn(step, label, *args, env=None):
        calls.append((step, label, args))
        if step == "csv_make":
            return {"nodes": 3249, "edges": 133000, "events": 260000}
        groups = dict.fromkeys(side_bench.CSV_GROUPS, 0.1 if label == "change" else 0.3)
        return {"write_s": groups, "read_s": groups, "peak_rss_mb": 80.0, "sha256": {"edges.csv": "e"}}

    h.spawn = spawn
    out = side_bench.csv_io(h)
    assert out["input"]["events"] == 260000 and calls[0] == ("csv_make", "change", (str(tmp_path / "csv_io.npz"),))
    assert out["read_s"]["events"] == {"change": 0.1, "parent": 0.3}
    assert out["same_bytes"] and out["sha256"]["parent"] == {"edges.csv": ["e"]}
    assert [c[1] for c in calls[1:]] == ["change", "parent", "parent", "change"]
