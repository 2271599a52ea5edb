import importlib.util
import json
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "distill_bench.py"
spec = importlib.util.spec_from_file_location("distill_bench", SCRIPT)
distill_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(distill_bench)


def write_record(results, workload, seed, wall, trace=False, failed=0):
    e2e = {"wall_s": wall, "cpu_s": wall, "peak_rss_mb": 85.0, "setup_s": 0.4}
    metrics = {"netmetrics.BC_s": {"value": wall / 10, "unit": "s"}} if trace else {}
    record = {
        "workload": workload, "why": "why", "trace": trace, "seconds": 55,
        "environment": {"seed": seed, "git_revision": "abc", "source_sha256": "def",
                        "cpu_count": 2, "python": "3.11", "numpy": "2.4"},
        "input_sizes": {"nodes": 144}, "end_to_end": e2e, "missing_spans": [], "absent_layers": [],
        "result": {"correct": failed == 0, "attempted": 40, "failed": failed, "metrics": metrics},
    }
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))


def test_pairs_quartiles_wins_and_claim(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    p = 1.0 + 0.01 * np.arange(10)
    c = 0.8 + 0.01 * np.arange(10)
    c[3] = 2.0  # one pair lost: 9 of 10 still meets the rule
    for k in range(10):
        write_record(parent, "network_30y", 41 + k, float(p[k]))
        write_record(change, "network_30y", 41 + k, float(c[k]))
    write_record(parent, "network_30y", 71, 1.0, trace=True)
    write_record(change, "network_30y", 71, 0.8, trace=True)
    write_record(change, "boundary_conus", 41, 1.3)  # no parent record: no pair, no entry
    out = tmp_path / "BENCH.json"
    distill_bench.main(["--parent", str(parent), "--change", str(change), "--version", "9.9.9",
                        "--summary", "s", "--claim", "network_30y:wall_s", "--out", str(out)])
    bench = json.loads(out.read_text())
    assert list(bench["workloads"]) == ["network_30y"]
    w = bench["workloads"]["network_30y"]
    assert w["untraced"]["seeds"] == list(range(41, 51))
    wall = w["untraced"]["parent"]["wall_s"]
    assert (wall["q1"], wall["median"], wall["q3"]) == (1.0225, 1.045, 1.0675)
    cmp = w["untraced"]["comparison"]["wall_s"]
    assert (cmp["change_wins"], cmp["ties"], cmp["pairs"], cmp["parent_iqr"]) == (9, 0, 10, 0.045)
    assert cmp["within_bound"]
    assert w["untraced"]["comparison"]["peak_rss_mb"]["ties"] == 10
    assert w["untraced"]["change"]["failed_of_attempted"] == [0, 400]
    assert w["traced"]["change"]["layers"] == {"netmetrics.BC_s": 0.08}
    assert bench["claim"]["met"]

    c[:2] = 2.0  # three pairs lost: 7 of 10
    for k in range(10):
        write_record(change, "network_30y", 41 + k, float(c[k]))
    distill_bench.main(["--parent", str(parent), "--change", str(change), "--version", "9.9.9",
                        "--summary", "s", "--claim", "network_30y:wall_s", "--out", str(out)])
    assert not json.loads(out.read_text())["claim"]["met"]
