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
