import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridsync
from gridsync.cli import CONFIG_KEYS, STAGES, ConfigError, _keys, load_config, main, validate_config
from gridsync.grid_io import write_gridded
from gridsync.netmetrics import EARTH_RADIUS_KM, pair_groups
from gridsync.synth import RectLattice, gen_gridded_values, lattice_grid

ROOT = Path(__file__).resolve().parent.parent


# the SHA-256 of the test pipeline's input, 6 x 6 nodes over three JJA seasons
INPUT_DIGEST = "de490d1d17a9fb8c66a2011b306c29ef4188fd97b8a5f3b3c7d8247945688261"


def base_config(tmp_path, **over):
    """A run config in tmp_path, and beside it the input that it reads, made through the library."""
    gridded = tmp_path / "input.cng1"
    if not gridded.exists():
        write_gridded(gen_gridded_values(RectLattice(6, 6, 50.0), n_years=3, seed=77), gridded)
    doc = {
        "input": str(gridded),
        "variable": "precip",
        "season": "JJA",
        "format": "binary",
        "seed": 77,
        "out": str(tmp_path / "out"),
        "sync": {"n_shuffles": 200},
        "surrogate": {"ensemble_size": 30, "bin_width_km": 50.0},
    }
    doc.update(over)
    p = tmp_path / "run.json"
    p.write_text(json.dumps(doc))
    return p


def hash_artifacts(out_dir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# config validation


def test_config_requires_seed(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"variable": "precip"}))
    with pytest.raises(ConfigError, match="seed is mandatory"):
        load_config(p)


def test_config_collects_all_problems():
    with pytest.raises(ConfigError) as err:
        validate_config(
            {
                "variable": "humidity",
                "season": "MAM",
                "alpha": 2.0,
                "metrics": ["multiply"],
            }
        )
    msg = str(err.value)
    for frag in ("variable", "season", "alpha", "multiply", "seed"):
        assert frag in msg


def test_config_defaults_follow_variable():
    cfg = validate_config({"input": "in.cng1", "variable": "tmin", "season": "DJF", "seed": 1})
    assert cfg.threshold.percentile == 5.0
    assert cfg.threshold.direction == "below"
    assert cfg.threshold.support == "all"
    assert cfg.network_label == "ETE"
    cfg = validate_config({"input": "in.cng1", "variable": "precip", "seed": 1})
    assert cfg.threshold.percentile == 95.0
    assert cfg.threshold.support == "positive_only"
    assert cfg.network_label == "EPE"
    # standard analysis defaults
    assert cfg.sync.n_shuffles == 1000
    assert cfg.sync.link_quantile == 0.995
    assert cfg.ensemble_size == 1000
    assert cfg.alpha == 0.05


def test_config_overrides(tmp_path):
    p = base_config(tmp_path)
    cfg = load_config(p, overrides={"seed": 123, "out": str(tmp_path / "other")})
    assert cfg.seed == 123
    assert cfg.sync.seed == 123
    assert cfg.out.endswith("other")


def test_config_rejects_unknown_sync_key(tmp_path):
    # the per-pair null switch is gone; asking for it must fail, not be ignored
    with pytest.raises(ConfigError, match="sync.memoize"):
        validate_config({"input": "in.cng1", "seed": 1, "sync": {"memoize": False}})
    with pytest.raises(ConfigError, match="sync must be an object"):
        validate_config({"input": "in.cng1", "seed": 1, "sync": 5})
    cfg = base_config(tmp_path, sync={"n_shuffles": 200, "memoize": False})
    assert main(["network", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("doc, message", [
    ({"alhpa": 0.01}, "unknown key alhpa"),
    ({"threshold": {"pct": 90}}, "unknown key threshold.pct"),
    ({"surrogate": {"members": 10}}, "unknown key surrogate.members"),
    ({"threshold": 95}, "threshold must be an object"),
    ({"surrogate": [1000]}, "surrogate must be an object"),
    ({"surrogate": {"ensemble_size": "abc"}}, "surrogate.ensemble_size must be an integer"),
    ({"surrogate": {"bin_width_km": "abc"}}, "surrogate.bin_width_km must be a number"),
    ({"alpha": "abc"}, "alpha must be a number"),
    ({"threads": 2}, "unknown key threads"),
    ({"use_normalized": True}, "unknown key use_normalized"),
    ({"seed": 1.7}, "seed must be an integer"),
    ({"seed": True}, "seed must be an integer"),
    ({"surrogate": {"ensemble_size": 10.7}}, "surrogate.ensemble_size must be an integer"),
    ({"sync": {"n_shuffles": 200.9}}, "sync.n_shuffles must be an integer"),
    ({"threshold": {"min_support": 19.9}}, "threshold.min_support must be an integer"),
    ({"sync": {"tau_max": True}}, "sync.tau_max must be an integer"),
    ({"surrogate": {"bin_width_km": True}}, "surrogate.bin_width_km must be a number"),
    ({"threshold": {"percentile": "95"}}, "threshold.percentile must be a number"),
    ({"sync": {"link_quantile": False}}, "sync.link_quantile must be a number"),
    # a synth block is an unknown key: synthetic inputs are written through the library
    ({"synth": {"rows": 6, "cols": 6}}, "unknown key synth; expected from"),
    ({"input": None}, "input is mandatory"),
    ({"surrogate": {"ensemble_size": 0}}, "surrogate.ensemble_size must be >= 1"),
    ({"alpha": 1.0}, "alpha must lie in (0, 1)"),
    ({"sync": {"tau_max": 1}}, "sync.tau_max must be 0"),
    ({"sync": {"simultaneous_weight": 0.5}}, "unknown key sync.simultaneous_weight"),
    ({"sync": {"simultaneous_weight": 0}}, "unknown key sync.simultaneous_weight"),
    ({"corrections": ["subtract", "divide"]}, "unknown key corrections"),
    ({"metrics": 5}, "metrics must be a non-empty list"),
    ({"metrics": []}, "metrics must be a non-empty list"),
    ({"metrics": ["DC", "DC"]}, "metric 'DC' is listed twice"),
    ({"season": {}}, "season must be one of"),
    ({"input": 5}, "input must be a path"),
    ({"out": [1]}, "out must be a path"),
    ({"threshold": {"min_support": 0}}, "threshold: min_support must be >= 1"),
    ({"surrogate": {"bin_width_km": float("inf")}}, "surrogate.bin_width_km must be a finite number"),
    ({"threshold": {"positive_floor": float("nan")}}, "threshold.positive_floor must be a finite number"),
    ({"synth": None}, "unknown key synth; expected from"),
    ({"alpha": 0}, "alpha must lie in (0, 1)"),
    ({"sync": {"n_shuffles": 99}}, "sync: n_shuffles must be >= 100"),
    ({"sync": {"link_quantile": 1.0}}, "sync: link_quantile must lie in (0, 1)"),
    ({"threshold": {"percentile": 100}}, "threshold: percentile must lie in (0, 100)"),
    ({"threshold": {"percentile": 0}}, "threshold: percentile must lie in (0, 100)"),
    ({"sync": {"link_quantile": 0}}, "sync: link_quantile must lie in (0, 1)"),
    ({"seed": None}, "seed is mandatory"),
    ({"metrics": [["DC"]]}, "unknown metric ['DC']"),
    ({"format": "csv"}, "format must be one of ('binary',)"),
    # netmetrics.pair_groups' key bin << s | rank must fit in uint64 on a grid of up to 2^48 pairs
    ({"surrogate": {"bin_width_km": 1e-300}}, "surrogate.bin_width_km must be >= 0.3054"),
    ({"surrogate": {"bin_width_km": 1e-12}}, "surrogate.bin_width_km must be >= 0.3054"),
    ({"surrogate": {"bin_width_km": 0.3}}, "surrogate.bin_width_km must be >= 0.3054"),
    ({"surrogate": {"bin_width_km": 0}}, "surrogate.bin_width_km must be >= 0.3054"),
    # seeding.mix64 keeps 64 bits: 2**64 and -1 would alias seeds 0 and 2**64 - 1
    ({"seed": 2**64}, "seed must lie in [0, 2**64)"),
    ({"seed": -1}, "seed must lie in [0, 2**64)"),
    # an integer past float range, where math.isfinite would overflow
    ({"alpha": 10**400}, "alpha must be a finite number"),
])
def test_config_rejects_bad_document(tmp_path, capsys, doc, message):
    # each mistake is a config error (exit 1), never a silent default or a crash (exit 2)
    with pytest.raises(ConfigError, match=re.escape(message)):
        validate_config({"input": "in.cng1", "seed": 1, **doc})
    load_config(base_config(tmp_path))
    assert main(["pipeline", "--config", str(base_config(tmp_path, **doc))]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--config", "{cfg}", "--threads", "4"], "unrecognized arguments: --threads 4"),
    (["--config", "{cfg}", "--bogus"], "unrecognized arguments: --bogus"),
    (["--config", "{cfg}", "--seed", "abc"], "--seed: invalid int value: 'abc'"),
    (["--seed", "1"], "the following arguments are required: --config"),
])
def test_cli_usage_error_exits_1(tmp_path, capsys, args, message):
    # a malformed command line is a usage error (exit 1); exit 2 means a runtime failure
    cfg = base_config(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["pipeline", *(a.format(cfg=cfg) for a in args)])
    assert err.value.code == 1
    text = capsys.readouterr().err
    assert text.startswith("usage: gridsync") and message in text


def test_out_of_range_seed_override_and_huge_number_exit_1(tmp_path, capsys):
    # a --seed override meets the config's range rule, and an integer past float range
    # for a number key is a config error (exit 1), not an OverflowError (exit 2)
    cfg = base_config(tmp_path)
    assert main(["pipeline", "--config", str(cfg), "--seed", str(2**64)]) == 1
    assert "seed must lie in [0, 2**64)" in capsys.readouterr().err
    cfg.write_text(cfg.read_text()[:-1] + ', "alpha": 1' + "0" * 400 + "}")
    assert main(["pipeline", "--config", str(cfg)]) == 1
    assert "alpha must be a finite number" in capsys.readouterr().err


def test_config_rejects_non_object_document(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(p)
    assert main(["network", "--config", str(p)]) == 1


def test_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/run.json")


# values that no key of each JSON kind accepts
BAD_VALUES = {
    "integer": [10.7, 10.0, True, "1"],
    "number": [True, "x", float("nan"), float("inf")],
    "choice": ["bogus"],
    "path": [5],
    "list": [5, []],
}


@pytest.mark.parametrize("name, value", [(name, v) for name, kind, *_ in CONFIG_KEYS for v in BAD_VALUES[kind]])
def test_config_rejects_bad_value_of_every_key(tmp_path, capsys, name, value):
    # every key of the table checks its JSON kind, and the message names the key
    block, _, key = name.rpartition(".")
    cfg = base_config(tmp_path, **({block: {key: value}} if block else {key: value}))
    assert main(["pipeline", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    # direction and support are ThresholdSpec's to check: "threshold: unknown direction 'bogus'"
    assert name in err or (f"{block}: " in err and key in err), err


def test_config_bin_width_floor_keeps_pair_bins_small():
    # at the floor the bin of half the Earth's circumference is below 2^16, so the pair keys
    # bin << s | rank of up to 2^48 pairs (s <= 48 bits of rank) stay within uint64
    cfg = validate_config({"input": "in.cng1", "seed": 1, "surrogate": {"bin_width_km": 0.3055}})
    assert (int(math.pi * EARTH_RADIUS_KM / cfg.bin_width_km) + 1) * 2**48 <= 2**64
    grid = lattice_grid(RectLattice(3, 3, 50.0))
    ranks, starts = pair_groups(grid, cfg.bin_width_km)
    assert sorted(ranks.tolist()) == list(range(36)) and starts[-1] == 36


def test_result_parameters_pinned():
    # recorded from the hand-written result_parameters of 0.8.0, less the synth block it echoed
    # until 0.9.0; a config with a synth block is now an unknown-key case
    for case in json.loads((ROOT / "tests" / "fixtures" / "result_parameters.json").read_text()):
        if "problems" in case:
            with pytest.raises(ConfigError) as err:
                validate_config(case["config"])
            assert err.value.problems == case["problems"]
            continue
        got = validate_config(case["config"]).result_parameters()
        assert json.dumps(got, indent=2, sort_keys=True) == json.dumps(case["parameters"], indent=2, sort_keys=True)


def test_readme_names_the_config_keys():
    # the README's key paragraph lists exactly the table's keys, block by block, and its integer keys
    text = (ROOT / "README.md").read_text()
    para = text[text.index("`variable` picks the threshold defaults"):text.index("## Artifacts")]
    lists = re.findall(r"(?:The top level|[Tt]he `(\w+)` block)\s+accepts\s+((?:`\w+`(?:,\s+|\s+and\s+)?)+)", para)
    assert {block: set(re.findall(r"`(\w+)`", keys)) for block, keys in lists} == {
        block: set(_keys(block)) for block in {name.rpartition(".")[0] for name, *_ in CONFIG_KEYS}
    }
    integers = re.search(r"Integer keys \(([^)]*)\)", para).group(1)
    assert set(re.findall(r"`([\w.]+)`", integers)) == {name for name, kind, *_ in CONFIG_KEYS if kind == "integer"}


def test_readme_config_example_validates():
    # the config the README documents must pass the schema it documents
    readme = ROOT / "README.md"
    blocks = re.findall(r"```json\n(.*?)```", readme.read_text(), flags=re.S)
    assert len(blocks) == 1
    doc = json.loads(re.sub(r"\s*//[^\n]*", "", blocks[0]))
    cfg = validate_config(doc)
    assert cfg.input == doc["input"] and cfg.metrics == tuple(doc["metrics"])


# ---------------------------------------------------------------------------
# pipeline


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipe")
    cfg_path = base_config(tmp)
    code = main(["pipeline", "--config", str(cfg_path)])
    assert code == 0
    return tmp, cfg_path


EXPECTED_ARTIFACTS = [
    "grid.csv",
    "events.csv",
    "events.csv.json",
    "edges.csv",
    "metric_DC.csv",
    "metric_CC.csv",
    "metric_MGD.csv",
    "metric_BC.csv",
    "metric_logBC.csv",
    "profile.csv",
    "surrogate_stats.csv",
    "corrected_DC_subtract.csv",
    "corrected_DC_divide.csv",
    "report.json",
    "report.txt",
]


# each stage's inputs but the events stage's configured one, as file names, with the stage that writes each
METRICS = ("DC", "CC", "MGD", "BC")
STAGE_INPUTS = {
    "network": {"events.csv": "events", "grid.csv": "events"},
    "metrics": {"edges.csv": "network", "grid.csv": "events"},
    "surrogate": {"edges.csv": "network", "grid.csv": "events"},
    "correct": {"surrogate_stats.csv": "surrogate", **{f"metric_{m}.csv": "metrics" for m in METRICS}},
    "compare": {f"corrected_{m}_{method}.csv": "correct" for m in METRICS for method in ("subtract", "divide")},
}


def input_file(name):
    """The run-directory file a manifest input names: input "x" is x.csv."""
    return f"{name}.csv"


def read_manifests(out_dir):
    return {p.name.removesuffix("_manifest.json"): json.loads(p.read_text()) for p in out_dir.glob("*_manifest.json")}


def test_pipeline_produces_artifacts(pipeline_run):
    tmp, _ = pipeline_run
    out = tmp / "out"
    for name in EXPECTED_ARTIFACTS:
        assert (out / name).exists(), name
    for stage in STAGES:
        assert (out / f"{stage}_manifest.json").exists()


def test_pipeline_report_complete(pipeline_run):
    tmp, _ = pipeline_run
    doc = json.loads((tmp / "out" / "report.json").read_text())
    for metric in ("DC", "CC", "MGD", "BC"):
        cell = doc["EPE"]["JJA"][metric]
        assert 0.0 <= cell["paired_t"]["p"] <= 1.0
        assert 0.0 <= cell["ks"]["p"] <= 1.0
    table = (tmp / "out" / "report.txt").read_text()
    assert "EPE network-Summer (JJA)" in table
    assert "Paired t-test" in table and "KS test" in table


def test_pipeline_network_nontrivial(pipeline_run):
    tmp, _ = pipeline_run
    edges = (tmp / "out" / "edges.csv").read_text().strip().split("\n")
    assert len(edges) > 5  # storm groups synchronize within-group nodes


def test_pipeline_manifest_contents(pipeline_run):
    tmp, _ = pipeline_run
    for doc in read_manifests(tmp / "out").values():
        # artifact bytes depend on numpy's Generator distributions, which may change between releases
        assert doc["version"] == gridsync.__version__ and doc["numpy"] == np.__version__
    doc = json.loads((tmp / "out" / "network_manifest.json").read_text())
    assert doc["seed"] == 77
    assert len(doc["event_counts"]) == 36
    assert "unusable_count" in doc
    assert "inputs" in doc and "outputs" in doc
    # nothing location- or schedule-dependent may leak into manifests
    text = (tmp / "out" / "network_manifest.json").read_text()
    assert "threads" not in text
    assert str(tmp) not in text


def test_pipeline_rerun_byte_identical(pipeline_run, tmp_path):
    tmp, cfg_path = pipeline_run
    first = hash_artifacts(tmp / "out")
    out2 = tmp_path / "again"
    code = main(["pipeline", "--config", str(cfg_path), "--out", str(out2)])
    assert code == 0
    assert hash_artifacts(out2) == first


def test_pipeline_bytes_pinned(pipeline_run):
    # the SHA-256 of every file the run writes, manifests included; a change meant to
    # move artifact bytes updates tests/fixtures/pipeline_digests.json and says so
    pinned = json.loads((ROOT / "tests" / "fixtures" / "pipeline_digests.json").read_text())
    assert hash_artifacts(pipeline_run[0] / "out") == pinned
    assert hashlib.sha256((pipeline_run[0] / "input.cng1").read_bytes()).hexdigest() == INPUT_DIGEST


def test_manifest_chain_consistent(pipeline_run):
    # every file is the output of exactly one manifest, and every manifest input
    # carries the hash that its producer's manifest lists for that file
    out = pipeline_run[0] / "out"
    manifests = read_manifests(out)
    assert set(manifests) == set(STAGES)
    assert manifests["events"]["inputs"] == {"gridded": INPUT_DIGEST}
    # the network stage reads the events sidecar with events.csv and hashes it apart
    assert manifests["network"]["input_sidecars"] == {
        "events.csv.json": manifests["events"]["outputs"]["events.csv.json"]}
    producer = {}
    for stage, doc in manifests.items():
        for name in doc["outputs"]:
            assert name not in producer, f"{name} is an output of {producer.get(name)} and {stage}"
            producer[name] = stage
    assert set(producer) == {p.name for p in out.iterdir() if not p.name.endswith("_manifest.json")}
    for stage, inputs in STAGE_INPUTS.items():
        hashes = {input_file(name): digest for name, digest in manifests[stage]["inputs"].items()}
        assert hashes.keys() == inputs.keys(), stage
        for name, digest in hashes.items():
            assert producer[name] == inputs[name]
            assert digest == manifests[producer[name]]["outputs"][name], (stage, name)


@pytest.mark.parametrize("stage", STAGES)
def test_stage_reads_only_what_its_manifest_hashes(pipeline_run, tmp_path, stage):
    # a stage run in a directory that holds only its manifest's inputs reproduces
    # its chained outputs and manifest exactly, and writes nothing else
    tmp, cfg_path = pipeline_run
    chained = tmp / "out"
    manifest = read_manifests(chained)[stage]
    # the events stage reads the configured input where it lies
    names = [input_file(name) for name in manifest["inputs"] if name != "gridded"]
    names += list(manifest.get("input_sidecars", {}))
    for name in names:
        shutil.copy(chained / name, tmp_path / name)
    assert main([stage, "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    written = [*manifest["outputs"], f"{stage}_manifest.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({*names, *written})
    for name in written:
        assert (tmp_path / name).read_bytes() == (chained / name).read_bytes(), name


def test_stage_rerun_from_disk_identical(pipeline_run):
    # stage isolation: re-running any stage from on-disk artifacts
    # reproduces the chained result exactly
    tmp, cfg_path = pipeline_run
    before = hash_artifacts(tmp / "out")
    for stage in ("network", "metrics", "surrogate", "correct", "compare"):
        assert main([stage, "--config", str(cfg_path)]) == 0
    assert hash_artifacts(tmp / "out") == before


# ---------------------------------------------------------------------------
# other commands and exit codes


def test_synth_command_is_gone(tmp_path, capsys):
    # synthetic inputs are made through the library (synth.gen_gridded_values, grid_io.write_gridded)
    with pytest.raises(SystemExit) as err:
        main(["synth", "--config", str(base_config(tmp_path))])
    assert err.value.code == 1
    assert "invalid choice: 'synth'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_render_metric_and_corrected(pipeline_run, tmp_path):
    # maps go next to their fields, so render works on a copy of the shared run
    tmp, cfg_path = pipeline_run
    out = tmp_path / "out"
    shutil.copytree(tmp / "out", out)
    (out / "grid.csv").unlink()  # both field CSVs hold their node coordinates
    render = ["render", "--config", str(cfg_path), "--out", str(out), "--field"]
    assert main([*render, "metric_DC.csv"]) == 0
    ppm = out / "metric_DC.csv.ppm"
    assert ppm.exists()
    header = ppm.read_bytes()[:20].split(b"\n")
    assert header[0] == b"P6"
    w, h = map(int, header[1].split())
    assert (w, h) == (6, 6)  # one raster cell per lattice node
    assert (out / "metric_DC.csv.ppm.legend.txt").exists()
    assert main([*render, "corrected_DC_divide.csv"]) == 0
    assert (out / "corrected_DC_divide.csv.ppm").exists()


def test_exit_code_validation_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"variable": "nope"}))
    assert main(["pipeline", "--config", str(p)]) == 1


@pytest.mark.parametrize("stage, name, writer", [
    pytest.param(stage, name, writer, id=f"{stage}-{name}")
    for stage, inputs in STAGE_INPUTS.items() for name, writer in inputs.items()
])
def test_exit_code_missing_upstream(pipeline_run, tmp_path, capsys, stage, name, writer):
    # a missing input stops its stage before it writes anything (exit 1),
    # with a message that names the file and the stage that writes it
    tmp, cfg_path = pipeline_run
    out = tmp_path / "out"
    shutil.copytree(tmp / "out", out)
    (out / name).unlink()
    before = hash_artifacts(out)
    assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"{stage} stage: {out / name} not found (the {writer} stage writes it" in capsys.readouterr().err
    assert hash_artifacts(out) == before


def test_exit_code_missing_configured_input(tmp_path, capsys):
    cfg = base_config(tmp_path, input=str(tmp_path / "absent.cng1"))
    assert main(["pipeline", "--config", str(cfg)]) == 1
    assert f"events stage: {tmp_path / 'absent.cng1'} not found (the configured input)" in capsys.readouterr().err


def test_exit_code_runtime_failure(tmp_path):
    cfg = base_config(tmp_path, input=str(tmp_path / "corrupt.cng1"))
    (tmp_path / "corrupt.cng1").write_bytes(b"CNG1" + b"\xff" * 40)
    assert main(["events", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("stage, name, edit, detail", [
    pytest.param("metrics", "edges.csv", lambda text: text + "5,\n", "(line {n_lines})", id="truncated-edges"),
    pytest.param("network", "events.csv", lambda text: text + "-1," + text.split()[1].split(",")[1] + "\n",
                 "node id -1 out of range", id="event-node-minus-1"),
    pytest.param("metrics", "edges.csv", lambda text: text + "5,999\n", "edge (5,999)", id="edge-outside-grid"),
    pytest.param("network", "events.csv.json", lambda text: text.replace('"season_days"', '"days"'),
                 "season_days and n_nodes", id="sidecar-without-season-days"),
    pytest.param("network", "events.csv.json", lambda text: text[: text.index('"season_days"')],
                 "Expecting property name", id="truncated-sidecar"),
    pytest.param("network", "events.csv.json", lambda text: re.sub(r'"n_nodes": \d+', '"n_nodes": 70', text),
                 "70 event series for 36 grid nodes", id="sidecar-n-nodes"),
    pytest.param("network", "events.csv.json",
                 lambda text: re.sub(r'"n_nodes": \d+', '"n_nodes": 1000000000000', text),
                 "1000000000000 event series for 36 grid nodes", id="sidecar-n-nodes-huge"),
    pytest.param("network", "events.csv.json", lambda text: re.sub(r'"n_nodes": \d+', '"n_nodes": null', text),
                 "n_nodes must be an integer >= 0, got null", id="sidecar-n-nodes-null"),
    pytest.param("network", "events.csv.json", lambda text: re.sub(r'"n_nodes": \d+', '"n_nodes": 36.7', text),
                 "n_nodes must be an integer >= 0, got 36.7", id="sidecar-n-nodes-float"),
    pytest.param("network", "events.csv.json",
                 lambda text: re.sub(r'("season_days": \[\s*\d+)', r'\1.0', text),
                 "season_days must be a list of integers", id="sidecar-season-day-float"),
    pytest.param("network", "events.csv.json",
                 lambda text: re.sub(r'("season_days": \[\s*)\d+', r'\g<1>100000000000000000000', text),
                 "too large", id="sidecar-season-day-overflow"),
])
def test_exit_code_corrupt_artifact(pipeline_run, tmp_path, capsys, stage, name, edit, detail):
    # an artifact damaged between stages stops the next stage (exit 2) with the file named
    tmp, cfg_path = pipeline_run
    out = tmp_path / "out"
    shutil.copytree(tmp / "out", out)
    path = out / name
    path.write_text(edit(path.read_text()))
    assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: GridIOError: {path}: " in err
    assert detail.format(n_lines=len(path.read_text().splitlines())) in err


def test_surrogate_rejects_edgeless_network(pipeline_run, tmp_path, capsys):
    # a header-only edges.csv is a runtime failure (exit 2) that names the file
    tmp, cfg_path = pipeline_run
    out = tmp_path / "out"
    shutil.copytree(tmp / "out", out)
    (out / "edges.csv").write_text("i,j\n")
    assert main(["surrogate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"error: GridIOError: {out / 'edges.csv'}: the network has no links" in capsys.readouterr().err


def child_env():
    """The environment of a fresh Python process that imports gridsync from where this one did."""
    src = str(Path(gridsync.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


_THREAD_PROBE = """
import os, sys, gridsync.sync
tasks = len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None
print(os.environ["OPENBLAS_NUM_THREADS"], tasks)
"""


@pytest.mark.parametrize("preset, value", [(None, "1"), ("2", "2")])
def test_import_sets_one_blas_thread_unless_preset(preset, value):
    # importing gridsync.sync, the module with the one BLAS call, loads numpy after the
    # package's one-BLAS-thread default, so the process has no thread besides the main
    # one; a caller's own OPENBLAS_NUM_THREADS wins
    env = {k: v for k, v in child_env().items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run([sys.executable, "-c", _THREAD_PROBE], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    got, tasks = out.stdout.split()
    assert got == value
    if preset is None and sys.platform == "linux":
        assert tasks == "1"


def test_console_entry_point():
    # the child process finds the package where this process imported it from
    out = subprocess.run(
        [sys.executable, "-m", "gridsync.cli", "--version"], capture_output=True, text=True, env=child_env()
    )
    assert out.returncode == 0
    assert out.stdout.split() == ["gridsync", gridsync.__version__]

