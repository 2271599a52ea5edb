"""Gridded daily data and derived artifacts: portable on-disk formats.

Formats (all little-endian, '.' decimal separator):

* Binary gridded "CNG1": magic ``CNG1``; u32 n_nodes; u32 n_days; then
  n_nodes x (f64 lat, f64 lon); then n_days x i32 day-index; then values as
  f32, node-major (node 0's n_days values, then node 1's, ...). NaN = missing.
* CSV gridded: header ``node_id,lat,lon,day_index,value``, one row per
  (node, day), node-major.
* Grid CSV: header ``node_id,lat,lon``, one row per node.
* Metric CSV: header ``node_id,lat,lon,value``, one row per node, NaN
  written as ``nan``.
* Edge list CSV: header ``i,j`` with i < j, one undirected edge per row.
* Event CSV: header ``node_id,day_index``, one row per event, plus a JSON
  sidecar with the season metadata.

Day indices are integer days since 1970-01-01 (proleptic Gregorian).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

_MAGIC = b"CNG1"


class GridIOError(ValueError):
    """Malformed file contents; message carries the file line/offset."""

    def __init__(self, msg: str, path=None, line: int | None = None, offset: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line})"
        elif offset is not None:
            loc = f" (byte offset {offset})"
        src = f"{path}: " if path is not None else ""
        super().__init__(f"{src}{msg}{loc}")
        self.path = path
        self.line = line
        self.offset = offset


@dataclass(frozen=True)
class GridSpec:
    """Node locations; node ids are implicit array positions 0..n-1."""

    lat: np.ndarray
    lon: np.ndarray

    def __post_init__(self):
        lat = np.asarray(self.lat, dtype=float)
        lon = np.asarray(self.lon, dtype=float)
        object.__setattr__(self, "lat", lat)
        object.__setattr__(self, "lon", lon)
        if lat.ndim != 1 or lat.shape != lon.shape:
            raise ValueError("lat and lon must be 1-d arrays of equal length")
        if lat.size and (np.nanmin(lat) < -90.0 or np.nanmax(lat) > 90.0):
            raise ValueError("latitude out of range [-90, 90]")
        if lat.size and (np.nanmin(lon) < -180.0 or np.nanmax(lon) > 180.0):
            raise ValueError("longitude out of range [-180, 180]")
        if not (np.isfinite(lat).all() and np.isfinite(lon).all()):
            raise ValueError("non-finite coordinates")
        coords = np.stack([lat, lon], axis=1)
        if np.unique(coords, axis=0).shape[0] != lat.size:
            raise ValueError("duplicate (lat, lon) pairs in grid")

    @property
    def n(self) -> int:
        return int(self.lat.size)


@dataclass(frozen=True)
class GriddedSeries:
    """Daily values for every grid node over a shared day-index timeline."""

    grid: GridSpec
    days: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        days = np.asarray(self.days, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "days", days)
        object.__setattr__(self, "values", values)
        if days.ndim != 1:
            raise ValueError("days must be a 1-d array")
        if days.size > 1 and not (np.diff(days) > 0).all():
            raise ValueError("day indices must be strictly increasing")
        if values.shape != (self.grid.n, days.size):
            raise ValueError(
                f"values shape {values.shape} does not match "
                f"(n_nodes={self.grid.n}, n_days={days.size})"
            )

    @property
    def n_nodes(self) -> int:
        return self.grid.n

    @property
    def n_days(self) -> int:
        return int(self.days.size)


# season name -> calendar months
SEASON_MONTHS = {"JJA": (6, 7, 8), "DJF": (12, 1, 2)}


def day_index_months(days: np.ndarray) -> np.ndarray:
    """Calendar month (1..12) of each day index (days since 1970-01-01)."""
    d = np.asarray(days, dtype="int64").astype("datetime64[D]")
    return (d.astype("datetime64[M]") - d.astype("datetime64[Y]")).astype(int) + 1


def extract_season(gs: GriddedSeries, season: str) -> GriddedSeries:
    """Sub-series containing exactly the days whose month lies in the season.

    Day indices are preserved verbatim, so December of year y stays adjacent
    to January of year y+1 in a DJF block (with the true calendar gap to the
    next block).
    """
    if season not in SEASON_MONTHS:
        raise ValueError(f"unknown season {season!r}; expected one of {sorted(SEASON_MONTHS)}")
    if gs.n_days == 0:
        raise ValueError("empty series")
    months = day_index_months(gs.days)
    keep = np.isin(months, SEASON_MONTHS[season])
    if not keep.any():
        raise ValueError(f"no days fall in season {season}")
    return GriddedSeries(grid=gs.grid, days=gs.days[keep], values=gs.values[:, keep])


# ---------------------------------------------------------------------------
# binary gridded format


def write_gridded_binary(gs: GriddedSeries, path) -> None:
    path = Path(path)
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", gs.n_nodes, gs.n_days))
        coords = np.empty((gs.n_nodes, 2), dtype="<f8")
        coords[:, 0] = gs.grid.lat
        coords[:, 1] = gs.grid.lon
        f.write(coords.tobytes())
        f.write(gs.days.astype("<i4").tobytes())
        f.write(gs.values.astype("<f4").tobytes())


def read_gridded_binary(path) -> GriddedSeries:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 12:
        raise GridIOError("truncated header", path, offset=len(raw))
    if raw[:4] != _MAGIC:
        raise GridIOError(f"bad magic {raw[:4]!r}, expected {_MAGIC!r}", path, offset=0)
    n_nodes, n_days = struct.unpack_from("<II", raw, 4)
    off = 12
    coord_bytes = 16 * n_nodes
    if len(raw) < off + coord_bytes:
        raise GridIOError("node-count mismatch: coordinate block truncated", path, offset=len(raw))
    coords = np.frombuffer(raw, dtype="<f8", count=2 * n_nodes, offset=off).reshape(n_nodes, 2)
    off += coord_bytes
    day_bytes = 4 * n_days
    if len(raw) < off + day_bytes:
        raise GridIOError("day-count mismatch: day block truncated", path, offset=len(raw))
    days = np.frombuffer(raw, dtype="<i4", count=n_days, offset=off).astype(np.int64)
    off += day_bytes
    val_bytes = 4 * n_nodes * n_days
    if len(raw) < off + val_bytes:
        raise GridIOError("value-count mismatch: value block truncated", path, offset=len(raw))
    if len(raw) > off + val_bytes:
        raise GridIOError("trailing bytes after value block", path, offset=off + val_bytes)
    values = np.frombuffer(raw, dtype="<f4", count=n_nodes * n_days, offset=off)
    values = values.astype(np.float64).reshape(n_nodes, n_days)
    try:
        grid = GridSpec(lat=coords[:, 0].copy(), lon=coords[:, 1].copy())
        return GriddedSeries(grid=grid, days=days, values=values)
    except ValueError as e:
        raise GridIOError(str(e), path) from e


# ---------------------------------------------------------------------------
# CSV gridded format


def _write_rows(f, *columns) -> None:
    """Write one comma-joined line per row of the columns.

    Array columns go through tolist(), so a float prints as its shortest
    round-trip repr ('nan', 'inf' and '-0.0' included) and an integer as an
    integer; items of any other iterable print with str. Pass bool arrays as
    integers.
    """
    cols = (map(str, c.tolist() if isinstance(c, np.ndarray) else c) for c in columns)
    f.writelines(",".join(row) + "\n" for row in zip(*cols))


def write_gridded_csv(gs: GriddedSeries, path) -> None:
    lat, lon, days = gs.grid.lat.tolist(), gs.grid.lon.tolist(), gs.days.tolist()
    with open(path, "w", newline="") as f:
        f.write("node_id,lat,lon,day_index,value\n")
        for i in range(gs.n_nodes):
            _write_rows(f, repeat(f"{i},{lat[i]},{lon[i]}", gs.n_days), days, gs.values[i])


def read_gridded_csv(path) -> GriddedSeries:
    path = Path(path)
    with open(path, "r", newline="") as f:
        header = f.readline().strip()
        if header != "node_id,lat,lon,day_index,value":
            raise GridIOError(f"malformed header {header!r}", path, line=1)
        node_ids, lats, lons, days, vals = [], [], [], [], []
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise GridIOError(f"expected 5 fields, got {len(parts)}", path, line=lineno)
            try:
                node_ids.append(int(parts[0]))
                lats.append(float(parts[1]))
                lons.append(float(parts[2]))
                days.append(int(parts[3]))
                vals.append(float(parts[4]))
            except ValueError as e:
                raise GridIOError(f"unparsable row: {e}", path, line=lineno) from e
    if not node_ids:
        raise GridIOError("no data rows", path, line=2)
    ids = np.asarray(node_ids)
    n = int(ids.max()) + 1
    uniq_days = np.unique(days)
    if n * uniq_days.size != len(node_ids):
        raise GridIOError(
            f"row-count mismatch: {len(node_ids)} rows for {n} nodes x {uniq_days.size} days",
            path,
        )
    day_pos = {int(d): k for k, d in enumerate(uniq_days)}
    lat = np.full(n, np.nan)
    lon = np.full(n, np.nan)
    values = np.full((n, uniq_days.size), np.nan)
    seen = np.zeros((n, uniq_days.size), dtype=bool)
    for row, (i, d) in enumerate(zip(node_ids, days)):
        k = day_pos[d]
        if seen[i, k]:
            raise GridIOError(f"duplicate (node {i}, day {d}) row", path, line=row + 2)
        seen[i, k] = True
        lat[i], lon[i] = lats[row], lons[row]
        values[i, k] = vals[row]
    if not seen.all():
        raise GridIOError("row-count mismatch: missing (node, day) rows", path)
    try:
        grid = GridSpec(lat=lat, lon=lon)
        return GriddedSeries(grid=grid, days=uniq_days.astype(np.int64), values=values)
    except ValueError as e:
        raise GridIOError(str(e), path) from e


def load_gridded(path, format: str = "binary") -> GriddedSeries:
    """Load a gridded series; format is ``binary`` (CNG1) or ``csv``."""
    if format == "binary":
        return read_gridded_binary(path)
    if format == "csv":
        return read_gridded_csv(path)
    raise ValueError(f"unknown gridded format {format!r}")


def write_gridded(gs: GriddedSeries, path, format: str = "binary") -> None:
    if format == "binary":
        write_gridded_binary(gs, path)
    elif format == "csv":
        write_gridded_csv(gs, path)
    else:
        raise ValueError(f"unknown gridded format {format!r}")


# ---------------------------------------------------------------------------
# grid / metric / edge-list CSVs


def write_grid_csv(grid: GridSpec, path) -> None:
    with open(path, "w", newline="") as f:
        f.write("node_id,lat,lon\n")
        _write_rows(f, range(grid.n), grid.lat, grid.lon)


def read_grid_csv(path) -> GridSpec:
    path = Path(path)
    with open(path, "r", newline="") as f:
        header = f.readline().strip()
        if header != "node_id,lat,lon":
            raise GridIOError(f"malformed header {header!r}", path, line=1)
        rows = []
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise GridIOError(f"expected 3 fields, got {len(parts)}", path, line=lineno)
            rows.append((int(parts[0]), float(parts[1]), float(parts[2])))
    rows.sort()
    ids = [r[0] for r in rows]
    if ids != list(range(len(rows))):
        raise GridIOError("node ids are not 0..n-1 without gaps", path)
    return GridSpec(lat=np.array([r[1] for r in rows]), lon=np.array([r[2] for r in rows]))


def write_metric_csv(values: np.ndarray, grid: GridSpec, path) -> None:
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n,):
        raise ValueError("value vector does not match grid size")
    with open(path, "w", newline="") as f:
        f.write("node_id,lat,lon,value\n")
        _write_rows(f, range(grid.n), grid.lat, grid.lon, values)


def read_metric_csv(path) -> tuple[np.ndarray, GridSpec]:
    path = Path(path)
    with open(path, "r", newline="") as f:
        header = f.readline().strip()
        if header != "node_id,lat,lon,value":
            raise GridIOError(f"malformed header {header!r}", path, line=1)
        rows = []
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise GridIOError(f"expected 4 fields, got {len(parts)}", path, line=lineno)
            try:
                rows.append((int(parts[0]), float(parts[1]), float(parts[2]), float(parts[3])))
            except ValueError as e:
                raise GridIOError(f"unparsable row: {e}", path, line=lineno) from e
    rows.sort()
    ids = [r[0] for r in rows]
    if ids != list(range(len(rows))):
        raise GridIOError("node ids are not 0..n-1 without gaps", path)
    grid = GridSpec(lat=np.array([r[1] for r in rows]), lon=np.array([r[2] for r in rows]))
    return np.array([r[3] for r in rows]), grid


def write_metric_field(mf, grid: GridSpec, path) -> None:
    """Write a MetricField's values (undefined nodes keep their convention value)."""
    write_metric_csv(mf.values, grid, path)


def read_metric_field(path, metric: str):
    """Read a metric CSV back into a MetricField; NaN cells become undefined."""
    from .netmetrics import MetricField  # local import to avoid a cycle

    values, grid = read_metric_csv(path)
    return MetricField(metric, values, np.isnan(values)), grid


def write_edge_list(edges: np.ndarray, path) -> None:
    """Edges as an (m, 2) int array with i < j per row; rows sorted."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and not (edges[:, 0] < edges[:, 1]).all():
        raise ValueError("edge rows must satisfy i < j")
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    with open(path, "w", newline="") as f:
        f.write("i,j\n")
        _write_rows(f, edges[:, 0], edges[:, 1])


def read_edge_list(path) -> np.ndarray:
    path = Path(path)
    with open(path, "r", newline="") as f:
        header = f.readline().strip()
        if header != "i,j":
            raise GridIOError(f"malformed header {header!r}", path, line=1)
        out = []
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise GridIOError(f"expected 2 fields, got {len(parts)}", path, line=lineno)
            i, j = int(parts[0]), int(parts[1])
            if not i < j:
                raise GridIOError(f"edge ({i},{j}) violates i < j", path, line=lineno)
            out.append((i, j))
    return np.asarray(out, dtype=np.int64).reshape(-1, 2)


# ---------------------------------------------------------------------------
# event series files (CSV + JSON sidecar)


def write_event_series(all_series, path, sidecar: dict) -> None:
    """Write per-node event rows plus a JSON sidecar (same path + '.json').

    The sidecar records the season day universe so downstream stages can be
    re-run from disk alone.
    """
    path = Path(path)
    with open(path, "w", newline="") as f:
        f.write("node_id,day_index\n")
        for es in all_series:
            _write_rows(f, repeat(es.node_id, es.n_events), es.event_days)
    with open(path.with_suffix(path.suffix + ".json"), "w") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")


def read_event_series(path):
    """Read events + sidecar back into a list of EventSeries (one per node)."""
    from .events import EventSeries  # local import to avoid a cycle

    path = Path(path)
    with open(path.with_suffix(path.suffix + ".json")) as f:
        sidecar = json.load(f)
    season_days = np.asarray(sidecar["season_days"], dtype=np.int64)
    n_nodes = int(sidecar["n_nodes"])
    per_node: list[list[int]] = [[] for _ in range(n_nodes)]
    with open(path, "r", newline="") as f:
        header = f.readline().strip()
        if header != "node_id,day_index":
            raise GridIOError(f"malformed header {header!r}", path, line=1)
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise GridIOError(f"expected 2 fields, got {len(parts)}", path, line=lineno)
            i = int(parts[0])
            if i >= n_nodes:
                raise GridIOError(f"node id {i} out of range", path, line=lineno)
            per_node[i].append(int(parts[1]))
    series = [
        EventSeries(
            node_id=i,
            event_days=np.asarray(sorted(devs), dtype=np.int64),
            season_days=season_days,
        )
        for i, devs in enumerate(per_node)
    ]
    return series, sidecar
