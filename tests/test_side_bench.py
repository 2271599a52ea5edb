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
    h.spawn = lambda step, label, *args: calls.append((step, label, args)) or len(calls)
    runs = h.alternate("bc_measure", "graph.npz")
    assert [label for _, label, _ in calls] == ["a", "b", "b", "a", "a", "b"]
    assert all(c[::2] == ("bc_measure", ("graph.npz",)) for c in calls)
    assert runs == {"a": [1, 4, 5], "b": [2, 3, 6]}


def test_parse_takes_only_the_harness_options():
    args = side_bench.parse(["pair_pass", "--src", "a=src", "--out", "x.json"])
    assert vars(args) == {"kernel": "pair_pass", "src": [("a", "src")], "seed": 1, "repeats": 5, "out": "x.json"}
    assert side_bench.parse(["bc_conus", "--src", "a=x=y", "--out", "x"]).src == [("a", "x=y")]
    for bad in (["nosuch", "--src", "a=src", "--out", "x"], ["bc_conus", "--src", "a=src"],
                ["bc_conus", "--src", "a=src", "--out", "x", "--measure", "p"],
                # a label is LABEL=DIR, not empty, and names one source
                ["bc_conus", "--src", "src", "--out", "x"], ["bc_conus", "--src", "=src", "--out", "x"],
                ["bc_conus", "--src", "a=x", "--src", "a=y", "--out", "x"]):
        with pytest.raises(SystemExit):
            side_bench.parse(bad)


def _saved_network(tmp_path, rows: int):
    import numpy as np

    from gridsync.synth import Exponential, RectLattice, SynthNetSpec, gen_embedded_network

    net = gen_embedded_network(SynthNetSpec(RectLattice(rows, rows, 50.0), Exponential(0.8, 100.0), seed=2))
    path = tmp_path / "net.npz"
    np.savez(path, lat=net.grid.lat, lon=net.grid.lon, indptr=net.indptr, indices=net.indices)
    return net, path


def test_child_runs_one_step_on_its_labelled_source(tmp_path, monkeypatch):
    # the child finds gridsync only through its --src directory, runs on one BLAS thread
    # and one CPU, and reports its last line of JSON
    _, path = _saved_network(tmp_path, 4)
    monkeypatch.setenv("PYTHONPATH", "/nonexistent")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    envs, run_process = [], subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda cmd, env, **kw: envs.append(env) or run_process(cmd, env=env, **kw))
    src = str(Path(gridsync.__file__).resolve().parents[1])
    run = side_bench.Harness({"a": src}, seed=1, repeats=1).spawn("bc_measure", "a", str(path))
    assert [(e.get("PYTHONPATH"), e["OPENBLAS_NUM_THREADS"]) for e in envs] == [(None, "1")]
    assert set(run) == {"bc_s", "peak_rss_mb", "rss_before_bc_mb", "bc_sha256", "cpus"}
    if sys.platform == "linux":
        assert run["cpus"] == 1


def test_bc_measure_step_digests_the_production_bc(tmp_path):
    # a fresh child on this source reports the time and the digest of betweenness on the saved network
    import hashlib

    from gridsync.netmetrics import betweenness

    net, path = _saved_network(tmp_path, 10)
    src = str(Path(gridsync.__file__).resolve().parents[1])
    run = side_bench.Harness({"a": src}, seed=4, repeats=1).spawn("bc_measure", "a", str(path))
    assert set(run) == {"bc_s", "peak_rss_mb", "rss_before_bc_mb", "bc_sha256", "cpus"}
    assert run["bc_sha256"] == hashlib.sha256(betweenness(net).values.tobytes()).hexdigest()[:16]


def test_bc_conus_summary_per_graph_and_label():
    # the two generated networks and the local surrogate member, each made once by the first label
    h = side_bench.Harness({"change": "C", "parent": "P"}, seed=1, repeats=2, tmp="work")
    calls = []

    def spawn(step, label, *args):
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

    def spawn(step, label, *args):
        calls.append((step, label, args))
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
    assert len([c for c in calls if c[0] == "members_measure"]) == 8


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

    def spawn(step, label, *args):
        calls.append((step, label, args))
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
    assert len([c for c in calls if c[0] == "block_measure"]) == 6


def test_pair_pass_summary_per_grid_and_label():
    h = side_bench.Harness({"change": "C", "parent": "P"}, seed=1, repeats=2)
    calls = []

    def spawn(step, label, *args):
        calls.append((step, label, args))
        return {"nodes": 4, "cold_s": 0.2, "warm_s": 0.1 if label == "change" else 0.15, "above_input_mb": 9.7,
                "groups_s": 0.05, "profile_s": 0.01, "distances_sha256": args[0], "groups_sha256": "g"}

    h.spawn = spawn
    out = side_bench.pair_pass(h)
    assert set(out["grids"]) == set(side_bench.PAIR_GRIDS) == {"lattice", "jittered", "ragged"}
    g = out["grids"]["jittered"]
    assert g["nodes"] == 4 and g["pairs"] == 6
    assert g["medians"]["parent"]["warm_s"] == 0.15 and g["medians"]["change"]["groups_s"] == 0.05
    assert g["distances_sha256"] == {"change": ["jittered"], "parent": ["jittered"]}
    assert g["groups_sha256"] == {"change": ["g"], "parent": ["g"]}
    assert [c[2] for c in calls] == [("lattice",)] * 4 + [("jittered",)] * 4 + [("ragged",)] * 4


def test_jittered_pair_grid_has_distinct_coordinates():
    lattice, jittered = (side_bench.pair_grid(3, name) for name in ("lattice", "jittered"))
    assert len(set(lattice.lat.tolist())) == len(set(lattice.lon.tolist())) == side_bench.ROWS
    assert len(set(jittered.lat.tolist())) == len(set(jittered.lon.tolist())) == jittered.n == lattice.n
    assert abs(jittered.lat - lattice.lat).max() <= side_bench.PAIR_JITTER_DEG


def test_ragged_pair_grid_has_the_cpc_grid_shape():
    # the 0.5-degree cells of the CONUS box: 52 latitudes, 118 longitudes, rows of differing length
    grid = side_bench.pair_grid(3, "ragged")
    lat = grid.lat.tolist()
    assert len(set(lat)) == 52 and len(set(grid.lon.tolist())) == 118 and 3150 < grid.n < 3400
    assert len({lat.count(v) for v in set(lat)}) > 1
