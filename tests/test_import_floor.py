"""What a stage process imports, it pays for in every run: neither the
library chain of perfbench/conus.py, the CLI pipeline nor `gridsync render` may
import numpy.ma (np.unique without indices, and so np.unique(axis=0) and
np.nanquantile, do; so does np.median)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from gridsync.grid_io import write_metric_csv
from gridsync.synth import RectLattice, lattice_grid

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
assert main(["render", "--config", "run.json", "--field", "metric_DC.csv"]) == 0
print("numpy.ma" in sys.modules)
"""

def _numpy_ma_imported(code: str, cwd: Path, *args: str) -> bool:
    """Whether numpy.ma is in sys.modules after code runs in a fresh interpreter that imports gridsync from src."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()[-1] == "True"


def test_conus_chain_never_imports_numpy_ma(tmp_path):
    assert not _numpy_ma_imported(_CONUS_CHAIN, tmp_path, str(ROOT / "perfbench" / "conus.py"))
    assert len(list((tmp_path / "out").glob("corrected_*.csv"))) == 6


def test_pipeline_never_imports_numpy_ma(tmp_path):
    (tmp_path / "run.json").write_text(json.dumps({
        "variable": "precip", "season": "JJA", "seed": 5, "out": str(tmp_path / "out"),
        "sync": {"n_shuffles": 100}, "surrogate": {"ensemble_size": 2},
        "synth": {"rows": 5, "cols": 5, "n_years": 2, "spacing_km": 50.0},
    }))
    assert not _numpy_ma_imported(_PIPELINE, tmp_path)
    assert (tmp_path / "out" / "report.json").exists()


def test_render_never_imports_numpy_ma(tmp_path):
    grid = lattice_grid(RectLattice(6, 5, 50.0))
    write_metric_csv(np.arange(grid.n, dtype=float), grid, tmp_path / "metric_DC.csv")
    (tmp_path / "run.json").write_text(json.dumps({"seed": 1, "out": str(tmp_path)}))
    assert not _numpy_ma_imported(_RENDER, tmp_path)
    assert (tmp_path / "metric_DC.csv.ppm").read_bytes().startswith(b"P6\n5 6\n255\n")
