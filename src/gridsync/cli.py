"""Subcommand CLI driving the full pipeline with a JSON run config.

Every stage reads its inputs from disk, writes its artifact plus a JSON
manifest (content hashes of inputs and outputs, result-affecting parameters,
seed, version), and reports progress and timing to stderr. Reruns with the
same config are byte-identical; the output location never influences artifact
bytes, so it is not recorded in manifests. Stages run serially on one BLAS
thread (importing gridsync sets OPENBLAS_NUM_THREADS=1 unless it is already
set), and no artifact byte depends on the BLAS thread count.

Exit codes: 0 success, 1 usage or validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy

from . import __version__
# read_profile_csv and write_gridded (never called here) and extract_season (a no-op after the
# season-only read) stay imported: perfbench/tracer.py times the grid_io.read, grid_io.write and
# grid_io.season spans on these names
from .correction import (
    CORRECTED_HEADER,
    correct_divide,
    correct_subtract,
    read_corrected_csv,
    write_corrected_csv,
)
from .events import ThresholdSpec, extract_events
from .grid_io import (
    METRIC_HEADER,
    SEASON_MONTHS,
    GridIOError,
    _artifact,
    extract_season,
    load_gridded,
    read_edge_list,
    read_event_series,
    read_grid_csv,
    read_metric_csv,
    write_edge_list,
    write_event_series,
    write_grid_csv,
    write_gridded,
    write_metric_csv,
)
from .netmetrics import EARTH_RADIUS_KM, METRIC_NAMES, MetricField, Network, compute_metric, log_bc
from .render import PALETTES, render_map
from .stats import compare_methods
from .surrogate import (
    ensemble_stats,
    estimate_profile,
    read_profile_csv,
    read_surrogate_stats_csv,
    write_profile_csv,
    write_surrogate_stats_csv,
)
from .sync import SyncParams, build_network

VARIABLES = ("precip", "tmax", "tmin")

# rules: (test, what a value that fails it must be)
_AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")
# the bin of half the Earth's circumference is then below 2^16, so netmetrics.pair_groups' keys
# bin << s | rank fit in uint64 on any grid of up to 2^48 pairs
_MIN_BIN_WIDTH_KM = math.pi * EARTH_RADIUS_KM / 65535
_BIN_WIDTH = (lambda v: v >= _MIN_BIN_WIDTH_KM, f"must be >= {_MIN_BIN_WIDTH_KM!r} (pi x Earth radius / 65535)")

# Every config key, in the order that "expected from" lists them: (name, JSON kind, default,
# rule, recorded). "block.key" is a key of the block object. A dict default is per variable.
# The rule is a choice or list key's choices or a number's (test, what it must be); None
# leaves the range to ThresholdSpec or SyncParams, or there is none. The recorded keys are
# every manifest's parameters.
CONFIG_KEYS = (
    ("input", "path", None, None, False),
    # the one gridded format: the key stays so configs that name it still run
    ("format", "choice", "binary", ("binary",), False),
    ("variable", "choice", "precip", VARIABLES, True),
    ("season", "choice", "JJA", tuple(SEASON_MONTHS), True),
    ("threshold.percentile", "number", {"precip": 95.0, "tmax": 95.0, "tmin": 5.0}, None, True),
    ("threshold.direction", "choice", {"precip": "above", "tmax": "above", "tmin": "below"}, None, True),
    ("threshold.support", "choice", {"precip": "positive_only", "tmax": "all", "tmin": "all"}, None, True),
    ("threshold.positive_floor", "number", 0.0, None, True),
    ("threshold.min_support", "integer", 20, None, True),
    # seeding.mix64 keeps a seed's low 64 bits, so any other integer would alias one of these
    ("seed", "integer", None, (lambda v: 0 <= v < 2**64, "must lie in [0, 2**64)"), False),
    # the key stays so configs that spell out the paper's setting still run
    ("sync.tau_max", "integer", 0, (lambda v: v == 0, "must be 0 (the paper's zero-lag event synchronization)"), False),
    ("sync.n_shuffles", "integer", 1000, None, True),
    ("sync.link_quantile", "number", 0.995, None, True),
    ("surrogate.ensemble_size", "integer", 1000, _AT_LEAST_1, True),
    ("surrogate.bin_width_km", "number", 50.0, _BIN_WIDTH, True),
    ("metrics", "list", METRIC_NAMES, METRIC_NAMES, True),
    ("alpha", "number", 0.05, (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"), True),
    ("out", "path", "out", None, False),
)

# the stages a pipeline runs, in order; stage "x" is the module function stage_x
STAGES = ("events", "network", "metrics", "surrogate", "correct", "compare")
# every run writes both corrections, in this order
CORRECTIONS = ("subtract", "divide")


class ConfigError(ValueError):
    """Invalid run configuration; carries every problem found."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid configuration:\n  " + "\n  ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class RunConfig:
    input: str
    variable: str
    season: str
    threshold: ThresholdSpec
    sync: SyncParams
    ensemble_size: int
    bin_width_km: float
    metrics: tuple[str, ...]
    alpha: float
    out: str
    seed: int

    @property
    def network_label(self) -> str:
        return "EPE" if self.variable == "precip" else "ETE"

    def result_parameters(self) -> dict:
        """Parameters that influence artifact bytes: the recorded keys."""
        params = {}
        for name, *_, recorded in CONFIG_KEYS:
            if recorded:
                block, _, key = name.rpartition(".")
                owner = {"threshold": self.threshold, "sync": self.sync}.get(block, self)
                (params.setdefault(block, {}) if block else params)[key] = getattr(owner, key)
        return params


def _keys(block: str) -> tuple[str, ...]:
    """The keys of a block, or of the top level for "", in table order."""
    if not block:
        return tuple(dict.fromkeys(name.partition(".")[0] for name, *_ in CONFIG_KEYS))
    return tuple(name.partition(".")[2] for name, *_ in CONFIG_KEYS if name.startswith(block + "."))


def _value(name: str, kind: str, default, rule, v, problems: list[str]):
    """The checked value of a key given as v: default when v is null, and in place of a bad v.

    An integer takes JSON integers only; a number takes any JSON number in
    float range (no NaN or infinity) and comes back as a float. Booleans are neither.
    """
    if v is None:
        return default
    if kind == "path":
        must = None if isinstance(v, str) else "must be a path"
    elif kind == "choice":
        must = None if rule is None or (isinstance(v, str) and v in rule) else f"must be one of {rule}"
    elif kind == "list":
        must = None if isinstance(v, list) and v else "must be a non-empty list"
    elif isinstance(v, bool) or not isinstance(v, int if kind == "integer" else (int, float)):
        must = f"must be {'an integer' if kind == 'integer' else 'a number'}"
    elif kind == "number" and not abs(v) <= sys.float_info.max:  # also ints past float range, where isfinite overflows
        must = "must be a finite number"
    else:
        v = v if kind == "integer" else float(v)
        must = None if rule is None or rule[0](v) else rule[1]
    if must:
        problems.append(f"{name} {must}, got {v!r}")
        return default
    if kind == "list":
        for i, item in enumerate(v):
            if item not in rule:
                problems.append(f"unknown metric {item!r}; expected from {rule}")
            elif item in v[:i]:
                problems.append(f"metric {item!r} is listed twice")
        return tuple(v)
    return v


def _checked(problems: list[str], label: str, make, *args, **kw):
    """make(*args, **kw), or None with its ValueError added to problems under label."""
    try:
        return make(*args, **kw)
    except ValueError as e:
        problems.append(f"{label}: {e}")


def validate_config(doc: dict, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from a JSON document by walking CONFIG_KEYS, collecting every problem."""
    if not isinstance(doc, dict):
        raise ConfigError(["config must be a JSON object"])
    doc = {**doc, **{k: v for k, v in (overrides or {}).items() if v is not None}}
    problems = [f"unknown key {key}; expected from {_keys('')}" for key in sorted(set(doc) - set(_keys("")))]
    if doc.get("input") is None:
        problems.append("input is mandatory (a CNG1 gridded file)")
    if doc.get("seed") is None:
        problems.append("seed is mandatory (wall-clock seeding is not allowed)")
    given, values = {"": doc}, {"": {}}
    for name, kind, default, rule, _ in CONFIG_KEYS:
        block, _, key = name.rpartition(".")
        if block not in given:
            obj = doc.get(block)
            if obj is not None and not isinstance(obj, dict):
                problems.append(f"{block} must be an object")
            given[block], values[block] = obj if isinstance(obj, dict) else {}, {}
            problems += [f"unknown key {block}.{k}; expected from {_keys(block)}"
                         for k in sorted(set(given[block]) - set(_keys(block)))]
        if isinstance(default, dict):
            default = default[values[""]["variable"]]
        values[block][key] = _value(name, kind, default, rule, given[block].get(key), problems)

    top, s = values[""], values["sync"]
    threshold = _checked(problems, "threshold", ThresholdSpec, **values["threshold"])
    sync = _checked(problems, "sync", SyncParams, s["n_shuffles"], s["link_quantile"], top["seed"])
    if problems:
        raise ConfigError(problems)
    del top["format"]
    return RunConfig(**top, threshold=threshold, sync=sync, **values["surrogate"])


def load_config(path, overrides: dict | None = None) -> RunConfig:
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"])
    except json.JSONDecodeError as e:
        raise ConfigError([f"config is not valid JSON: {e}"])
    return validate_config(doc, overrides)


# ---------------------------------------------------------------------------
# the artifacts of each stage, manifests and progress


def _files(stage: str, cfg: RunConfig, out_dir: Path) -> tuple[dict[str, Path], dict[str, Path]]:
    """What a stage reads, as {manifest input name: path}, and writes, as {file name: path}.

    This is the one place that names a stage's artifacts: the stage bodies take
    their paths from it, and _run_stage checks the reads and hashes both into
    the manifest. Input "x" is the file x.csv, except the events stage's
    gridded input, the configured input.
    """
    metrics = (*cfg.metrics, "logBC") if "BC" in cfg.metrics else cfg.metrics
    corrected = [f"corrected_{m}_{method}" for m in cfg.metrics for method in CORRECTIONS]
    reads, writes = {
        "events": ((), ("events.csv", "events.csv.json", "grid.csv")),
        "network": (("events", "grid"), ("edges.csv",)),
        "metrics": (("edges", "grid"), [f"metric_{m}.csv" for m in metrics]),
        "surrogate": (("edges", "grid"), ("profile.csv", "surrogate_stats.csv")),
        "correct": (("surrogate_stats", *[f"metric_{m}" for m in cfg.metrics]), [f"{c}.csv" for c in corrected]),
        "compare": (corrected, ("report.json", "report.txt")),
    }[stage]
    reads = {key: out_dir / f"{key}.csv" for key in reads}
    if stage == "events":
        reads["gridded"] = Path(cfg.input)
    return reads, {name: out_dir / name for name in writes}


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, stage: str, cfg: RunConfig, inputs: dict, outputs,
                    extra: dict | None = None) -> None:
    doc = {
        "stage": stage,
        "version": __version__,
        "numpy": numpy.__version__,
        "seed": cfg.seed,
        "parameters": cfg.result_parameters(),
        "inputs": {name: _sha256(p) for name, p in inputs.items()},
        "outputs": {Path(p).name: _sha256(p) for p in outputs},
    }
    if extra:
        doc.update(extra)
    with open(out_dir / f"{stage}_manifest.json", "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


class _Progress:
    def __init__(self, stage: str):
        self.stage = stage

    def __enter__(self):
        self.t0 = time.perf_counter()
        print(f"[{self.stage}] start", file=sys.stderr)
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "done" if exc_type is None else "FAILED"
        print(f"[{self.stage}] {status} in {dt:.2f}s", file=sys.stderr)
        return False


def _stage(name: str):
    """The stage function, looked up when called so a replaced module attribute takes effect."""
    return globals()[f"stage_{name}"]


def _run_stage(name: str, cfg: RunConfig, out_dir: Path) -> None:
    """Check that a stage's inputs exist, run the stage, and write its manifest, all from _files.

    A stage function takes (cfg, reads, writes) and may return extra manifest fields.
    """
    reads, writes = _files(name, cfg, out_dir)
    with _Progress(name):
        for path in reads.values():
            if not path.exists():
                writers = [s for s in STAGES if path in _files(s, cfg, out_dir)[1].values()]
                why = f"the {writers[0]} stage writes it; run that first" if writers else "the configured input"
                raise ConfigError([f"{name} stage: {path} not found ({why})"])
        extra = _stage(name)(cfg, reads, writes)
        _write_manifest(out_dir, name, cfg, reads, writes.values(), extra)


# ---------------------------------------------------------------------------
# stages


def stage_events(cfg: RunConfig, reads: dict, writes: dict) -> None:
    # the reader keeps only the season's days, so extract_season returns its series as is
    seasonal = extract_season(load_gridded(reads["gridded"], cfg.season), cfg.season)
    events, unusable = extract_events(seasonal, cfg.threshold)
    if unusable:
        print(
            f"[events] {len(unusable)} unusable node(s) excluded: {unusable[:20]}"
            + ("..." if len(unusable) > 20 else ""),
            file=sys.stderr,
        )
    sidecar = {
        "n_nodes": seasonal.n_nodes,
        "T": seasonal.n_days,
        "season": cfg.season,
        **asdict(cfg.threshold),
        "dedup": True,
        "season_days": [int(d) for d in seasonal.days],
        "unusable_nodes": unusable,
    }
    # write_event_series also writes the sidecar, events.csv.json
    write_event_series(events, seasonal.days, writes["events.csv"], sidecar)
    write_grid_csv(seasonal.grid, writes["grid.csv"])


def stage_network(cfg: RunConfig, reads: dict, writes: dict) -> dict:
    grid = read_grid_csv(reads["grid"])
    # a sidecar n_nodes that disagrees with the grid is rejected before its event matrix is allocated
    events, sidecar = read_event_series(reads["events"], grid.n)
    net = build_network(events, grid, cfg.sync)
    write_edge_list(net.edge_array(), writes["edges.csv"])
    # the sidecar is read with events.csv; it is hashed apart from "inputs", whose names are .csv stems
    sidecar_path = Path(f"{reads['events']}.json")
    return {
        "event_counts": events.sum(axis=1).tolist(),
        "unusable_count": len(sidecar.get("unusable_nodes", [])),
        "edge_count": net.edge_count,
        "input_sidecars": {sidecar_path.name: _sha256(sidecar_path)},
    }


def _load_network(reads: dict) -> Network:
    grid, edges = read_grid_csv(reads["grid"]), read_edge_list(reads["edges"])
    with _artifact(reads["edges"]):
        return Network.from_edges(grid, edges)


def stage_metrics(cfg: RunConfig, reads: dict, writes: dict) -> None:
    net = _load_network(reads)
    for m in cfg.metrics:
        mf = compute_metric(net, m)
        write_metric_csv(mf.values, net.grid, writes[f"metric_{m}.csv"])
        if m == "BC":
            write_metric_csv(log_bc(mf).values, net.grid, writes["metric_logBC.csv"])


def stage_surrogate(cfg: RunConfig, reads: dict, writes: dict) -> dict:
    net = _load_network(reads)
    if net.edge_count == 0:
        raise GridIOError("the network has no links, so there is no link-probability profile to "
                          "draw surrogates from", reads["edges"])
    profile = estimate_profile(net, bin_width_km=cfg.bin_width_km)
    stats = ensemble_stats(profile, net.grid, metrics=cfg.metrics, ensemble_size=cfg.ensemble_size, seed=cfg.seed)
    write_profile_csv(profile, writes["profile.csv"])
    write_surrogate_stats_csv(stats, writes["surrogate_stats.csv"])
    return {"zero_mean_counts": {m: int(st.zero_mean_nodes.size) for m, st in stats.items()}}


def stage_correct(cfg: RunConfig, reads: dict, writes: dict) -> None:
    # node coordinates come from each metric CSV, which holds them as written from grid.csv
    stats = read_surrogate_stats_csv(reads["surrogate_stats"])
    for m in cfg.metrics:
        values, grid = read_metric_csv(reads[f"metric_{m}"])
        raw = MetricField(m, values)
        # the functions are looked up when called, so a replaced module attribute takes effect
        for method, correct in zip(CORRECTIONS, (correct_subtract, correct_divide)):
            write_corrected_csv(correct(raw, stats[m]), grid, writes[f"corrected_{m}_{method}.csv"])


def stage_compare(cfg: RunConfig, reads: dict, writes: dict) -> None:
    runs = {
        (cfg.network_label, cfg.season, m): tuple(
            read_corrected_csv(reads[f"corrected_{m}_{method}"])[0] for method in CORRECTIONS
        )
        for m in cfg.metrics
    }
    report = compare_methods(runs, alpha=cfg.alpha)
    with open(writes["report.json"], "w") as f:
        json.dump(report.to_json_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    with open(writes["report.txt"], "w") as f:
        f.write(report.to_text_table())


def stage_render(path: Path, palette: str, vmin: float | None, vmax: float | None) -> None:
    """Rasterize a metric or corrected field CSV to path.ppm, with node coordinates from the CSV."""
    if not path.exists():
        raise ConfigError([f"field CSV not found: {path}"])
    with open(path) as f:
        header = f.readline().strip()
    if header == METRIC_HEADER:
        values, grid = read_metric_csv(path)
        defined = None
    elif header == CORRECTED_HEADER:
        cf, grid = read_corrected_csv(path)
        values = cf.normalized
        defined = ~cf.undefined
        if vmin is None and vmax is None:
            vmin, vmax = 0.0, 1.0
    else:
        raise ConfigError([f"unrecognized field header in {path}"])
    out_path = Path(str(path) + ".ppm")
    h, w = render_map(values, grid, out_path, defined=defined, vmin=vmin, vmax=vmax, palette=palette)
    print(f"[render] wrote {out_path} ({w} x {h})", file=sys.stderr)


def run_pipeline(cfg: RunConfig, out_dir: Path) -> None:
    """All stages in order, each re-reading its inputs from disk."""
    for name in STAGES:
        _run_stage(name, cfg, out_dir)


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """Usage errors are validation errors: usage message, then exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gridsync",
        description="Climate networks from gridded extreme-event series.",
    )
    parser.add_argument("--version", action="version", version=f"gridsync {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGES + ("pipeline", "render"):
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
        if name == "render":
            p.add_argument("--field", required=True, help="field CSV to rasterize")
            p.add_argument("--palette", default="heat", choices=PALETTES)
            p.add_argument("--vmin", type=float, default=None)
            p.add_argument("--vmax", type=float, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(
            args.config,
            overrides={"seed": args.seed, "out": args.out},
        )
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "pipeline":
            run_pipeline(cfg, out_dir)
        elif args.command == "render":
            stage_render(out_dir / args.field, args.palette, args.vmin, args.vmax)
        else:
            _run_stage(args.command, cfg, out_dir)
        return 0
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure; prior artifacts stay intact
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
