#!/usr/bin/env python3
"""Run the bundled 8x8 demo pipeline and render its main fields.

Writes the demo's synthetic input, OUT.cng1, and the config that reads it,
OUT.json, beside the output directory OUT. Then produces the full artifact
set (events, edge list, metrics, surrogate stats, corrections, comparison
report) in OUT, and a PPM map of each of MAP_FIELDS in OUT.maps, also beside
it: every file in OUT is some manifest's output.
"""

import argparse
import json
import sys
from pathlib import Path

from gridsync.cli import main as cli_main
from gridsync.grid_io import write_gridded
from gridsync.synth import RectLattice, gen_gridded_values

DEMO_CONFIG = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "demo8x8.json"
# the demo field: 8 x 8 nodes 50 km apart over five seasons, with gen_gridded_values' storm defaults
DEMO_LATTICE = RectLattice(rows=8, cols=8, spacing_km=50.0)
DEMO_YEARS = 5
# the fields mapped, each to OUT.maps/<field>.ppm with its legend beside it
MAP_FIELDS = (
    "metric_DC.csv",
    "metric_CC.csv",
    "metric_MGD.csv",
    "metric_logBC.csv",
    "corrected_DC_subtract.csv",
    "corrected_DC_divide.csv",
)


def write_demo_config(out, seed: int | None = None) -> Path:
    """Write the demo input and a config that reads it beside the run directory out; return the config.

    The field is drawn with the run's seed, the demo's own unless seed is given,
    so a seed moves both the input and the run.
    """
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = json.loads(DEMO_CONFIG.read_text())
    if seed is not None:
        doc["seed"] = seed
    gridded, config = out.with_name(out.name + ".cng1"), out.with_name(out.name + ".json")
    write_gridded(gen_gridded_values(DEMO_LATTICE, DEMO_YEARS, doc["seed"], doc["season"]), gridded)
    config.write_text(json.dumps({**doc, "input": str(gridded), "out": str(out)}, indent=2) + "\n")
    return config


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/demo", help="output directory")
    ap.add_argument("--seed", type=int, default=None, help="override the demo seed")
    args = ap.parse_args()

    code = cli_main(["pipeline", "--config", str(write_demo_config(args.out, args.seed))])
    if code != 0:
        return code
    out = Path(args.out)
    maps = out.with_name(out.name + ".maps")
    maps.mkdir(exist_ok=True)
    for field in MAP_FIELDS:
        code = cli_main(["render", str(out / field), str(maps / f"{field}.ppm")])
        if code != 0:
            return code
    print((out / "report.txt").read_text())
    print(f"artifacts in {out}, maps in {maps}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
