#!/usr/bin/env python3
"""Run the bundled 8x8 demo pipeline and render every output field.

Produces the full artifact set (events, edge list, metrics, surrogate stats,
corrections, comparison report) plus PPM maps under the output directory.
"""

import argparse
import sys
from pathlib import Path

from gridsync.cli import main as cli_main

DEMO_CONFIG = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "demo8x8.json"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/demo", help="output directory")
    ap.add_argument("--seed", type=int, default=None, help="override the demo seed")
    args = ap.parse_args()

    base = ["--config", str(DEMO_CONFIG), "--out", args.out]
    if args.seed is not None:
        base += ["--seed", str(args.seed)]

    code = cli_main(["pipeline", *base])
    if code != 0:
        return code
    for field in (
        "metric_DC.csv",
        "metric_CC.csv",
        "metric_MGD.csv",
        "metric_logBC.csv",
        "corrected_DC_subtract.csv",
        "corrected_DC_divide.csv",
    ):
        code = cli_main(["render", *base, "--field", field])
        if code != 0:
            return code
    report = Path(args.out) / "report.txt"
    print(report.read_text())
    print(f"artifacts in {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
