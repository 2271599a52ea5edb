"""Distill perfbench records of a parent and a change into one BENCH_<version>.json.

    python3 scripts/distill_bench.py --parent ../parent/.perfbench/results \
        --change .perfbench/results --version 0.6.0 --previous BENCH_0.5.0.json \
        --claim network_30y:wall_s --summary "what the change does" \
        --side bc_conus=bc_conus.json --out BENCH_0.6.0.json

perfbench/run.py writes one record per (workload, seed, trace) under
.perfbench/results/ of the checkout it runs in; run it in a checkout of the
parent and of the change with the same settings. Untraced records that share
a workload and seed form a pair. For each end-to-end metric the output has
both sides' runs, median and quartiles (numpy's linear percentile), the
change's wins over the parent, the parent's interquartile range and whether
the change's median is within the bound that BENCHMARK.json sets. The claim
is met when the change wins at least nine of every ten pairs of at least ten
and the medians differ by more than the parent's interquartile range. Traced
records (the highest seed of each side) give the per-layer spans. --side
embeds a JSON file of a measurement that is not a benchmark workload.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
NOTE = ("Times are scaled by the perfbench host-speed probe. Each untraced run is one perfbench "
        "invocation; its value is the median over the invocation's window. Pairs share a seed and "
        "alternate which side runs first.")
RULE = ("change wins >= 9 of >= 10 alternating pairs and the medians differ by more than the "
        "parent's interquartile range")


def load(results: Path) -> dict[tuple[str, int, bool], dict]:
    records = {}
    for p in sorted(results.glob("*.json")):
        r = json.loads(p.read_text())
        records[(r["workload"], r["environment"]["seed"], r["trace"])] = r
    if not records:
        raise SystemExit(f"error: no perfbench records in {results}")
    return records


def spread(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(med), 4), "q1": round(float(q1), 4), "q3": round(float(q3), 4),
            "runs": [round(v, 4) for v in values]}


def side(runs: list[dict], metrics: list[str]) -> dict:
    out = {m: spread([r["end_to_end"][m] for r in runs]) for m in metrics}
    out["correct"] = all(r["result"]["correct"] for r in runs)
    out["failed_of_attempted"] = [sum(r["result"]["failed"] for r in runs),
                                  sum(r["result"]["attempted"] for r in runs)]
    return out


def compare(parent: list[dict], change: list[dict], spec: dict) -> dict:
    m = spec["name"]
    p = np.array([r["end_to_end"][m] for r in parent])
    c = np.array([r["end_to_end"][m] for r in change])
    better = c < p if spec["better"] == "lower" else c > p
    pm, cm = float(np.median(p)), float(np.median(c))
    q1, q3 = np.percentile(p, [25, 75])
    worse = cm - pm if spec["better"] == "lower" else pm - cm
    return {"change_wins": int(better.sum()), "ties": int((c == p).sum()), "pairs": int(p.size),
            "median_ratio": round(cm / pm, 4), "median_diff": round(cm - pm, 4),
            "parent_iqr": round(float(q3 - q1), 4), "bound": spec["bound"],
            "within_bound": bool(worse <= spec["bound"] * pm)}


def traced(record: dict) -> dict:
    return {"seed": record["environment"]["seed"], "end_to_end": record["end_to_end"],
            "missing_spans": record["missing_spans"], "absent_layers": record["absent_layers"],
            "layers": {k: v["value"] for k, v in record["result"]["metrics"].items()}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="the parent checkout's .perfbench/results")
    ap.add_argument("--change", type=Path, required=True, help="the change checkout's .perfbench/results")
    ap.add_argument("--version", required=True)
    ap.add_argument("--summary", required=True)
    ap.add_argument("--previous", help="the previous BENCH file, by name")
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    ap.add_argument("--side", action="append", default=[], metavar="NAME=FILE")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {e["name"]: e for e in bench["end_to_end"]}
    parent, change = load(args.parent), load(args.change)
    first_p, first_c = next(iter(parent.values())), next(iter(change.values()))
    out = {"version": args.version, "change_summary": args.summary, "previous_bench": args.previous,
           "claim": None, "command": "python3 perfbench/run.py --workload W --seed S --seconds "
           f"{first_c['seconds']:g} --trace 0|1", "note": NOTE,
           "parent": {k: first_p["environment"][k] for k in ("git_revision", "source_sha256")},
           "change": {k: first_c["environment"][k] for k in ("git_revision", "source_sha256")},
           "workloads": {}}
    for w in (w["name"] for w in bench["workloads"]):
        seeds = sorted(s for (name, s, t) in parent if name == w and not t and (name, s, t) in change)
        if not seeds:
            continue
        p = [parent[w, s, False] for s in seeds]
        c = [change[w, s, False] for s in seeds]
        entry = {"why": c[0]["why"], "input_sizes": c[0]["input_sizes"], "untraced": {
            "seeds": seeds, "parent": side(p, list(specs)), "change": side(c, list(specs)),
            "comparison": {m: compare(p, c, spec) for m, spec in specs.items()}}}
        tp = [r for (name, s, t), r in sorted(parent.items()) if name == w and t]
        tc = [r for (name, s, t), r in sorted(change.items()) if name == w and t]
        if tp and tc:
            entry["traced"] = {"parent": traced(tp[-1]), "change": traced(tc[-1])}
        out["workloads"][w] = entry
    if args.claim:
        w, m = args.claim.split(":")
        cmp, u = out["workloads"][w]["untraced"]["comparison"][m], out["workloads"][w]["untraced"]
        gain = abs(u["parent"][m]["median"] - u["change"][m]["median"])
        improved = cmp["median_diff"] < 0 if specs[m]["better"] == "lower" else cmp["median_diff"] > 0
        out["claim"] = {"workload": w, "metric": m, "rule": RULE,
                        "met": cmp["pairs"] >= 10 and cmp["change_wins"] >= 0.9 * cmp["pairs"]
                        and improved and gain > cmp["parent_iqr"]}
    if args.previous:
        prev = json.loads((ROOT / args.previous).read_text())
        out["previous"] = {
            w: {m: {"previous_change": pw["untraced"]["change"][m]["median"],
                    "parent": out["workloads"][w]["untraced"]["parent"][m]["median"],
                    "change": out["workloads"][w]["untraced"]["change"][m]["median"]} for m in specs}
            for w, pw in prev["workloads"].items() if w in out["workloads"]}
    for item in args.side:
        name, path = item.split("=", 1)
        out.setdefault("side_measurements", {})[name] = json.loads(Path(path).read_text())
    out["host"] = {"cpu_count": first_c["environment"]["cpu_count"],
                   "python": first_c["environment"]["python"], "numpy": first_c["environment"]["numpy"]}
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    print(json.dumps(out.get("claim")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
