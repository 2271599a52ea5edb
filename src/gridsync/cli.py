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

from . import __version__
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
from .netmetrics import METRIC_NAMES, MetricField, Network, compute_metric, log_bc
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
from .synth import RectLattice, gen_gridded_values, lattice_grid

VARIABLES = ("precip", "tmax", "tmin")

# per-variable threshold defaults: (percentile, direction, support)
_THRESHOLD_DEFAULTS = {
    "precip": (95.0, "above", "positive_only"),
    "tmax": (95.0, "above", "all"),
    "tmin": (5.0, "below", "all"),
}

_TOP_KEYS = (
    "input", "format", "variable", "season", "threshold", "seed", "sync", "surrogate",
    "metrics", "alpha", "out", "synth",
)
# synth key -> default; an int default marks an integer key
_SYNTH_DEFAULTS = {
    "rows": 8, "cols": 8, "spacing_km": 50.0, "lat0": 0.0, "lon0": 0.0,
    "n_years": 5, "storm_groups": 4, "storm_rate": 0.08, "wet_prob": 0.55,
}
_BLOCK_KEYS = {
    "threshold": ("percentile", "direction", "support", "positive_floor", "min_support"),
    "sync": ("tau_max", "n_shuffles", "link_quantile"),
    "surrogate": ("ensemble_size", "bin_width_km"),
    "synth": tuple(_SYNTH_DEFAULTS),
}

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
    input: str | None
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
    synth: dict | None

    @property
    def network_label(self) -> str:
        return "EPE" if self.variable == "precip" else "ETE"

    def result_parameters(self) -> dict:
        """Parameters that influence artifact bytes (paths excluded)."""
        return {
            "variable": self.variable,
            "season": self.season,
            "threshold": asdict(self.threshold),
            "sync": {"n_shuffles": self.sync.n_shuffles, "link_quantile": self.sync.link_quantile},
            "surrogate": {"ensemble_size": self.ensemble_size, "bin_width_km": self.bin_width_km},
            "metrics": list(self.metrics),
            "alpha": self.alpha,
            "synth": self.synth,
        }


def _get(d: dict, key: str, default):
    v = d.get(key, default)
    return default if v is None else v


def _block(doc: dict, name: str, problems: list[str]) -> dict:
    """The object doc[name] ({} when absent); a non-object or unknown keys are problems."""
    block = _get(doc, name, {})
    if not isinstance(block, dict):
        problems.append(f"{name} must be an object")
        return {}
    for key in sorted(set(block) - set(_BLOCK_KEYS[name])):
        problems.append(f"unknown key {name}.{key}; expected from {_BLOCK_KEYS[name]}")
    return block


def _number(d: dict, key: str, default, problems: list[str], prefix: str = ""):
    """d[key], or default when absent; an int default admits JSON integers only.

    A float default admits any finite JSON number, returned as a float.
    Anything else, booleans, Infinity and NaN included, is a problem, and the
    default stands in for it.
    """
    v = _get(d, key, default)
    integer = isinstance(default, int)
    if isinstance(v, bool) or not isinstance(v, int if integer else (int, float)):
        problems.append(f"{prefix}{key} must be {'an integer' if integer else 'a number'}, got {v!r}")
        return default
    if not math.isfinite(v):
        problems.append(f"{prefix}{key} must be a finite number, got {v!r}")
        return default
    return v if integer else float(v)


def _choice(d: dict, key: str, choices: tuple, problems: list[str]) -> str:
    """d[key], or choices[0] when absent; any other value is a problem, and choices[0] stands in."""
    v = _get(d, key, choices[0])
    if not isinstance(v, str) or v not in choices:
        problems.append(f"{key} must be one of {choices}, got {v!r}")
        return choices[0]
    return v


def validate_config(doc: dict, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from a JSON document, collecting every problem."""
    if not isinstance(doc, dict):
        raise ConfigError(["config must be a JSON object"])
    problems: list[str] = []
    overrides = overrides or {}
    doc = dict(doc)
    for key in sorted(set(doc) - set(_TOP_KEYS)):
        problems.append(f"unknown key {key}; expected from {_TOP_KEYS}")
    for k in ("seed", "out"):
        if overrides.get(k) is not None:
            doc[k] = overrides[k]
    for k in ("input", "out"):
        if not isinstance(_get(doc, k, ""), str):
            problems.append(f"{k} must be a path, got {doc[k]!r}")

    variable = _choice(doc, "variable", VARIABLES, problems)
    season = _choice(doc, "season", tuple(SEASON_MONTHS), problems)

    p_def, dir_def, sup_def = _THRESHOLD_DEFAULTS[variable]
    tdoc = _block(doc, "threshold", problems)
    try:
        threshold = ThresholdSpec(
            percentile=_number(tdoc, "percentile", p_def, problems, "threshold."),
            direction=_get(tdoc, "direction", dir_def),
            support=_get(tdoc, "support", sup_def),
            positive_floor=_number(tdoc, "positive_floor", 0.0, problems, "threshold."),
            min_support=_number(tdoc, "min_support", 20, problems, "threshold."),
        )
    except ValueError as e:
        problems.append(f"threshold: {e}")

    if doc.get("seed") is None:
        problems.append("seed is mandatory (wall-clock seeding is not allowed)")
    seed = _number(doc, "seed", 0, problems)

    sdoc = _block(doc, "sync", problems)
    # the key stays so configs that spell out the paper's setting still run
    tau_max = _number(sdoc, "tau_max", 0, problems, "sync.")
    if tau_max != 0:
        problems.append(f"sync.tau_max must be 0 (the paper's zero-lag event synchronization), got {tau_max}")
    try:
        sync = SyncParams(
            n_shuffles=_number(sdoc, "n_shuffles", 1000, problems, "sync."),
            link_quantile=_number(sdoc, "link_quantile", 0.995, problems, "sync."),
            seed=seed,
        )
    except ValueError as e:
        problems.append(f"sync: {e}")

    gdoc = _block(doc, "surrogate", problems)
    ensemble_size = _number(gdoc, "ensemble_size", 1000, problems, "surrogate.")
    if ensemble_size < 1:
        problems.append(f"surrogate.ensemble_size must be >= 1, got {ensemble_size}")
    bin_width_km = _number(gdoc, "bin_width_km", 50.0, problems, "surrogate.")
    if bin_width_km <= 0:
        problems.append(f"surrogate.bin_width_km must be positive, got {bin_width_km}")

    metrics = _get(doc, "metrics", list(METRIC_NAMES))
    if not isinstance(metrics, list) or not metrics:
        problems.append(f"metrics must be a non-empty list, got {metrics!r}")
        metrics = list(METRIC_NAMES)
    for i, m in enumerate(metrics):
        if m not in METRIC_NAMES:
            problems.append(f"unknown metric {m!r}; expected from {METRIC_NAMES}")
        elif m in metrics[:i]:
            problems.append(f"metric {m!r} is listed twice")

    alpha = _number(doc, "alpha", 0.05, problems)
    if not 0.0 < alpha < 1.0:
        problems.append(f"alpha must lie in (0, 1), got {alpha}")

    # the key stays so configs that name the one gridded format still run
    _choice(doc, "format", ("binary",), problems)

    ydoc = _block(doc, "synth", problems)
    y = {key: _number(ydoc, key, default, problems, "synth.") for key, default in _SYNTH_DEFAULTS.items()}
    n_problems = len(problems)
    for key in ("rows", "cols", "n_years", "storm_groups"):
        if y[key] < 1:
            problems.append(f"synth.{key} must be >= 1, got {y[key]}")
    if y["rows"] * y["cols"] < 3:
        problems.append(f"synth.rows x synth.cols must be >= 3 nodes, got {y['rows']} x {y['cols']}")
    if y["spacing_km"] <= 0:
        problems.append(f"synth.spacing_km must be positive, got {y['spacing_km']}")
    for key in ("storm_rate", "wet_prob"):
        if not 0.0 <= y[key] <= 1.0:
            problems.append(f"synth.{key} must lie in [0, 1], got {y[key]}")
    if len(problems) == n_problems:
        try:
            lattice_grid(RectLattice(**{k: y[k] for k in ("rows", "cols", "spacing_km", "lat0", "lon0")}))
        except ValueError as e:
            problems.append(f"synth: {e}")
    if problems:
        raise ConfigError(problems)
    return RunConfig(
        input=doc.get("input"),
        variable=variable,
        season=season,
        threshold=threshold,
        sync=sync,
        ensemble_size=ensemble_size,
        bin_width_km=bin_width_km,
        metrics=tuple(metrics),
        alpha=alpha,
        out=_get(doc, "out", "out"),
        seed=seed,
        synth=doc.get("synth"),
    )


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
    gridded input: the configured input, or else the synth stage's output.
    """
    metrics = (*cfg.metrics, "logBC") if "BC" in cfg.metrics else cfg.metrics
    corrected = [f"corrected_{m}_{method}" for m in cfg.metrics for method in CORRECTIONS]
    reads, writes = {
        "synth": ((), ("synthetic.cng1",)),
        "events": ((), ("events.csv", "events.csv.json", "grid.csv")),
        "network": (("events", "grid"), ("edges.csv",)),
        "metrics": (("edges", "grid"), [f"metric_{m}.csv" for m in metrics]),
        "surrogate": (("edges", "grid"), ("profile.csv", "surrogate_stats.csv")),
        "correct": (("surrogate_stats", *[f"metric_{m}" for m in cfg.metrics]), [f"{c}.csv" for c in corrected]),
        "compare": (corrected, ("report.json", "report.txt")),
    }[stage]
    reads = {key: out_dir / f"{key}.csv" for key in reads}
    if stage == "events":
        reads["gridded"] = Path(cfg.input) if cfg.input is not None else out_dir / "synthetic.cng1"
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
                writers = [s for s in ("synth", *STAGES) if path in _files(s, cfg, out_dir)[1].values()]
                why = f"the {writers[0]} stage writes it; run that first" if writers else "the configured input"
                raise ConfigError([f"{name} stage: {path} not found ({why})"])
        extra = _stage(name)(cfg, reads, writes)
        _write_manifest(out_dir, name, cfg, reads, writes.values(), extra)


# ---------------------------------------------------------------------------
# stages


def stage_synth(cfg: RunConfig, reads: dict, writes: dict) -> None:
    """Generate a synthetic gridded input file from cfg.synth."""
    kw = {key: type(default)(_get(cfg.synth or {}, key, default)) for key, default in _SYNTH_DEFAULTS.items()}
    layout = RectLattice(**{key: kw.pop(key) for key in ("rows", "cols", "spacing_km", "lat0", "lon0")})
    gs = gen_gridded_values(layout, seed=cfg.seed, season=cfg.season, **kw)
    (path,) = writes.values()
    write_gridded(gs, path)


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
    return {
        "event_counts": events.sum(axis=1).tolist(),
        "unusable_count": len(sidecar.get("unusable_nodes", [])),
        "edge_count": net.edge_count,
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
    """All stages in order, each re-reading its inputs from disk; synth first when no input is configured."""
    for name in ("synth",) * (cfg.synth is not None and cfg.input is None) + STAGES:
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
    for name in STAGES + ("synth", "pipeline", "render"):
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
