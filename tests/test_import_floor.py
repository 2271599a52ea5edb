"""What a stage process imports, it pays for in every run: neither the
library chain of perfbench/conus.py, the CLI pipeline nor `gridsync render` may
import numpy.ma (np.unique without indices, and so np.unique(axis=0) and
np.nanquantile, do; so does np.median). A library caller or a spawned worker
loads only the gridsync modules that its names come from, and the CLI, which
reads a CNG1 file, never loads the synthetic generators."""

import importlib.util
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

from gridsync.grid_io import write_gridded, write_metric_csv
from gridsync.synth import RectLattice, gen_gridded_values, lattice_grid

ROOT = Path(__file__).resolve().parents[1]

_CONUS_CHAIN = """
import importlib.util, sys
from gridsync.grid_io import write_edge_list, write_grid_csv
from gridsync.synth import Exponential, RectLattice, SynthNetSpec, gen_embedded_network
net = gen_embedded_network(SynthNetSpec(RectLattice(12, 12, 50.0), Exponential(0.8, 100.0), seed=3))
write_grid_csv(net.grid, "grid.csv")
write_edge_list(net.edge_array(), "edges.csv")
spec = importlib.util.spec_from_file_location("conus", sys.argv[1])
conus = importlib.util.module_from_spec(spec)
spec.loader.exec_module(conus)
assert conus.main(["--grid", "grid.csv", "--edges", "edges.csv", "--members", "2", "--seed", "3", "--out", "out"]) == 0
print("numpy.ma" in sys.modules)
"""

_PIPELINE = """
import sys
from gridsync.cli import main
assert main(["pipeline", "--config", "run.json"]) == 0
print("numpy.ma" in sys.modules)
"""

_RENDER = """
import sys
from gridsync.cli import main
assert main(["render", "metric_DC.csv", "metric_DC.ppm"]) == 0
print("numpy.ma" in sys.modules)
"""

_LOADED = """
import sys
print(*sorted(m for m in sys.modules if m == "numpy" or m.split(".")[0] == "gridsync"))
"""

_CONUS_IMPORTS = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("conus", sys.argv[1])
spec.loader.exec_module(importlib.util.module_from_spec(spec))
"""

_UNPICKLE_AND_CALL = """
import pickle, sys
with open(sys.argv[1], "rb") as f:
    fn, *args = pickle.load(f)
assert fn(*args).shape == (3, 144)
"""


def _last_line(code: str, cwd: Path, *args: str) -> str:
    """The last line that code prints in a fresh interpreter that imports gridsync from src."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1]


def _numpy_ma_imported(code: str, cwd: Path, *args: str) -> bool:
    """Whether numpy.ma is in sys.modules after code runs in a fresh interpreter."""
    return _last_line(code, cwd, *args) == "True"


def _gridsync_modules(code: str, cwd: Path, *args: str) -> list[str]:
    """The gridsync modules in sys.modules after code runs in a fresh interpreter, and "numpy" if it loaded."""
    return _last_line(code + _LOADED, cwd, *args).split()


def test_package_import_loads_no_module_and_no_numpy(tmp_path):
    assert _gridsync_modules("import gridsync", tmp_path) == ["gridsync"]


def test_cli_import_loads_no_synth(tmp_path):
    chain = ["cli", "correction", "events", "grid_io", "netmetrics", "render", "seeding", "stats", "surrogate", "sync"]
    loaded = _gridsync_modules("import gridsync.cli", tmp_path)
    assert loaded == ["gridsync"] + [f"gridsync.{m}" for m in chain] + ["numpy"]


def test_tracer_call_sites_exist():
    # perfbench/tracer.py wraps these names where the pipeline looks them up; a name that is
    # gone (say, an import that only the tracer uses) would show up only as a missing span
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    import gridsync.cli
    import gridsync.surrogate
    from gridsync.netmetrics import Network

    names = [*tracer.LIBRARY_SPANS, *(f"stage_{s}" for s in tracer.STAGES)]
    assert [n for n in names if not callable(getattr(gridsync.cli, n, None))] == []
    assert callable(gridsync.surrogate.compute_metric) and callable(Network.from_edges)


def test_conus_imports_load_only_its_chain(tmp_path):
    chain = ["correction", "grid_io", "netmetrics", "seeding", "stats", "surrogate"]
    loaded = _gridsync_modules(_CONUS_IMPORTS, tmp_path, str(ROOT / "perfbench" / "conus.py"))
    assert loaded == ["gridsync"] + [f"gridsync.{m}" for m in chain] + ["numpy"]


def test_member_block_worker_loads_only_the_surrogate_chain(tmp_path):
    # what a spawned member_block worker does: unpickle the call, then run it
    from gridsync.surrogate import estimate_profile, member_block
    from gridsync.synth import Exponential, SynthNetSpec, gen_embedded_network

    net = gen_embedded_network(SynthNetSpec(RectLattice(12, 12, 50.0), Exponential(0.8, 100.0), seed=3))
    call = (member_block, estimate_profile(net, 50.0), net.grid, ("DC", "CC", "MGD"), 3, 0, 2)
    (tmp_path / "call.pkl").write_bytes(pickle.dumps(call))
    chain = ["grid_io", "netmetrics", "seeding", "surrogate"]
    loaded = _gridsync_modules(_UNPICKLE_AND_CALL, tmp_path, str(tmp_path / "call.pkl"))
    assert loaded == ["gridsync"] + [f"gridsync.{m}" for m in chain] + ["numpy"]


def test_conus_chain_never_imports_numpy_ma(tmp_path):
    assert not _numpy_ma_imported(_CONUS_CHAIN, tmp_path, str(ROOT / "perfbench" / "conus.py"))
    assert len(list((tmp_path / "out").glob("corrected_*.csv"))) == 6


def test_pipeline_never_imports_numpy_ma(tmp_path):
    write_gridded(gen_gridded_values(RectLattice(5, 5, 50.0), n_years=2, seed=5), tmp_path / "input.cng1")
    (tmp_path / "run.json").write_text(json.dumps({
        "input": str(tmp_path / "input.cng1"), "variable": "precip", "season": "JJA", "seed": 5,
        "out": str(tmp_path / "out"), "sync": {"n_shuffles": 100}, "surrogate": {"ensemble_size": 2},
    }))
    assert not _numpy_ma_imported(_PIPELINE, tmp_path)
    assert (tmp_path / "out" / "report.json").exists()


def test_render_never_imports_numpy_ma(tmp_path):
    grid = lattice_grid(RectLattice(6, 5, 50.0))
    write_metric_csv(np.arange(grid.n, dtype=float), grid, tmp_path / "metric_DC.csv")
    assert not _numpy_ma_imported(_RENDER, tmp_path)
    assert (tmp_path / "metric_DC.ppm").read_bytes().startswith(b"P6\n5 6\n255\n")
