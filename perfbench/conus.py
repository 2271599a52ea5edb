"""The boundary_conus workload: the paper's boundary-bias chain through gridsync's library API.

Loads a grid and an edge list, computes DC/CC/MGD on the observed network,
estimates the distance profile, averages a surrogate ensemble, applies both
corrections and compares them. Every result is written under --out so the
benchmark can digest and check it.

    python perfbench/conus.py --grid grid.csv --edges edges.csv --members 8 --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from gridsync.correction import correct_divide, correct_subtract, write_corrected_csv
from gridsync.grid_io import read_edge_list, read_grid_csv, write_metric_csv
from gridsync.netmetrics import Network, compute_metric
from gridsync.stats import compare_methods
from gridsync.surrogate import ensemble_stats, estimate_profile, write_profile_csv, write_surrogate_stats_csv

METRICS = ("DC", "CC", "MGD")
BIN_WIDTH_KM = 50.0
REPORT_KEY = ("SYN", "ALL")  # (network, season) labels of the report cells


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", required=True)
    ap.add_argument("--edges", required=True)
    ap.add_argument("--members", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    grid = read_grid_csv(args.grid)
    net = Network.from_edges(grid, read_edge_list(args.edges))
    raw = {m: compute_metric(net, m) for m in METRICS}
    for m in METRICS:
        write_metric_csv(raw[m].values, grid, out / f"metric_{m}.csv")

    profile = estimate_profile(net, bin_width_km=BIN_WIDTH_KM)
    stats = ensemble_stats(profile, grid, metrics=METRICS, ensemble_size=args.members, seed=args.seed)
    write_profile_csv(profile, out / "profile.csv")
    write_surrogate_stats_csv(stats, out / "surrogate_stats.csv")

    runs = {}
    for m in METRICS:
        sub = correct_subtract(raw[m], stats[m])
        div = correct_divide(raw[m], stats[m])
        write_corrected_csv(sub, grid, out / f"corrected_{m}_subtract.csv")
        write_corrected_csv(div, grid, out / f"corrected_{m}_divide.csv")
        runs[REPORT_KEY + (m,)] = (sub, div)
    report = compare_methods(runs)
    with open(out / "report.json", "w") as f:
        json.dump(report.to_json_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
