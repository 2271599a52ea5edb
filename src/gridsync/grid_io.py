"""Gridded daily data and derived artifacts: portable on-disk formats.

Formats (all little-endian, '.' decimal separator):

* Gridded "CNG1", the one gridded input format: magic ``CNG1``; u32
  n_nodes; u32 n_days; then n_nodes x (f64 lat, f64 lon); then n_days x i32
  day-index; then values as f32, node-major (node 0's n_days values, then
  node 1's, ...). NaN = missing.
* Grid CSV: header ``node_id,lat,lon``, one row per node.
* Metric CSV: header ``node_id,lat,lon,value``, one row per node, NaN
  written as ``nan``.
* Edge list CSV: header ``i,j`` with i < j, one undirected edge per row.
* Event CSV: header ``node_id,day_index``, one row per true cell of a
  season's (n_nodes, n_days) bool event matrix, node-major, plus a JSON
  sidecar with the season metadata; its ``season_days`` are the day indices
  of the matrix columns.

Day indices are integer days since 1970-01-01 (proleptic Gregorian).
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_MAGIC = b"CNG1"

# CSV headers, shared by each format's writer and reader
GRID_HEADER = "node_id,lat,lon"
METRIC_HEADER = "node_id,lat,lon,value"
EDGE_HEADER = "i,j"
EVENT_HEADER = "node_id,day_index"


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


# eq=False here and on every frozen type that holds arrays: equality and hash by identity,
# since a generated __eq__ would ask an array comparison for its truth value
@dataclass(frozen=True, eq=False)
class GridSpec:
    """Node locations; node ids are implicit array positions 0..n-1."""

    lat: np.ndarray
    lon: np.ndarray
    # values computed once per grid (netmetrics.pair_groups per bin width, _node_cells);
    # they stay valid because the coordinates are read-only copies
    derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        lat = np.array(self.lat, dtype=float)
        lon = np.array(self.lon, dtype=float)
        lat.setflags(write=False)
        lon.setflags(write=False)
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
        # neighbours in (lat, lon) order; np.unique(axis=0) would import numpy.ma
        order = np.lexsort((lon, lat))
        lat_o, lon_o = lat[order], lon[order]
        if ((lat_o[1:] == lat_o[:-1]) & (lon_o[1:] == lon_o[:-1])).any():
            raise ValueError("duplicate (lat, lon) pairs in grid")

    @property
    def n(self) -> int:
        return int(self.lat.size)

    def __reduce__(self):  # a pickle carries the coordinates, not the memo (21 MB of pair groups at CONUS size)
        return GridSpec, (self.lat, self.lon)


@dataclass(frozen=True, eq=False)
class GriddedSeries:
    """Daily values for every grid node over a shared day-index timeline."""

    grid: GridSpec
    days: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        days = _day_indices(self.days)
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "days", days)
        object.__setattr__(self, "values", values)
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


def _day_indices(days) -> np.ndarray:
    """days as a 1-d, strictly increasing int64 array."""
    days = np.asarray(days, dtype=np.int64)
    if days.ndim != 1:
        raise ValueError("days must be a 1-d array")
    if days.size > 1 and not (np.diff(days) > 0).all():
        raise ValueError("day indices must be strictly increasing")
    return days


# season name -> calendar months
SEASON_MONTHS = {"JJA": (6, 7, 8), "DJF": (12, 1, 2)}


def day_index_months(days: np.ndarray) -> np.ndarray:
    """Calendar month (1..12) of each day index (days since 1970-01-01)."""
    d = np.asarray(days, dtype="int64").astype("datetime64[D]")
    return (d.astype("datetime64[M]") - d.astype("datetime64[Y]")).astype(int) + 1


def _season_mask(days: np.ndarray, season: str) -> np.ndarray:
    """The bool mask of the days whose month lies in the season; some day must."""
    if season not in SEASON_MONTHS:
        raise ValueError(f"unknown season {season!r}; expected one of {sorted(SEASON_MONTHS)}")
    if days.size == 0:
        raise ValueError("empty series")
    keep = np.isin(day_index_months(days), SEASON_MONTHS[season])
    if not keep.any():
        raise ValueError(f"no days fall in season {season}")
    return keep


def extract_season(gs: GriddedSeries, season: str) -> GriddedSeries:
    """Sub-series containing exactly the days whose month lies in the season.

    Day indices are preserved verbatim, so December of year y stays adjacent
    to January of year y+1 in a DJF block (with the true calendar gap to the
    next block). A series that holds only the season's days is returned as
    is, not copied.
    """
    keep = _season_mask(gs.days, season)
    if keep.all():
        return gs
    return GriddedSeries(grid=gs.grid, days=gs.days[keep], values=gs.values[:, keep])


# ---------------------------------------------------------------------------
# CNG1 gridded format

# nodes per block of the value read and write; a block's float32 values
# (block x n_days) are the only whole-file values either holds at a time
_NODE_BLOCK = 256


def write_gridded(gs: GriddedSeries, path) -> None:
    path = Path(path)
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", gs.n_nodes, gs.n_days))
        coords = np.empty((gs.n_nodes, 2), dtype="<f8")
        coords[:, 0] = gs.grid.lat
        coords[:, 1] = gs.grid.lon
        f.write(coords.tobytes())
        f.write(gs.days.astype("<i4").tobytes())
        for i in range(0, gs.n_nodes, _NODE_BLOCK):
            f.write(gs.values[i : i + _NODE_BLOCK].astype("<f4"))


def load_gridded(path, season: str | None = None) -> GriddedSeries:
    """Read a CNG1 file, keeping only the days of season (every day when None).

    The file's size is checked against its header before any value is read.
    Values are read _NODE_BLOCK nodes at a time, and only the kept days'
    columns are copied into the float64 result.
    """
    path = Path(path)
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(12)
        if len(head) < 12:
            raise GridIOError("truncated header", path, offset=size)
        if head[:4] != _MAGIC:
            raise GridIOError(f"bad magic {head[:4]!r}, expected {_MAGIC!r}", path, offset=0)
        n_nodes, n_days = struct.unpack_from("<II", head, 4)
        days_at = 12 + 16 * n_nodes
        values_at = days_at + 4 * n_days
        end = values_at + 4 * n_nodes * n_days
        if size < days_at:
            raise GridIOError("node-count mismatch: coordinate block truncated", path, offset=size)
        if size < values_at:
            raise GridIOError("day-count mismatch: day block truncated", path, offset=size)
        if size < end:
            raise GridIOError("value-count mismatch: value block truncated", path, offset=size)
        if size > end:
            raise GridIOError("trailing bytes after value block", path, offset=end)
        coords = np.frombuffer(f.read(days_at - 12), dtype="<f8").reshape(n_nodes, 2)
        with _artifact(path):
            grid = GridSpec(lat=coords[:, 0], lon=coords[:, 1])
            # every day of the file is checked, not only the season's
            days = _day_indices(np.frombuffer(f.read(values_at - days_at), dtype="<i4"))
        keep = np.ones(n_days, dtype=bool) if season is None else _season_mask(days, season)
        values = np.empty((n_nodes, int(keep.sum())))
        block = np.empty((min(_NODE_BLOCK, n_nodes), n_days), dtype="<f4")
        for i in range(0, n_nodes, _NODE_BLOCK):
            rows = block[: n_nodes - i]
            if f.readinto(rows) != rows.nbytes:
                raise GridIOError("value-count mismatch: value block truncated", path, offset=f.tell())
            values[i : i + len(rows)] = rows[:, keep]
    return GriddedSeries(grid=grid, days=days[keep], values=values)


# ---------------------------------------------------------------------------
# CSV row writer and reader, shared by every CSV artifact


# float64 columns whose cells _write_rows keeps, most recently used last: a column
# written to several artifacts (a raw metric, a surrogate mean) is formatted once
_FLOAT_MEMO = 32
_float_cells: dict[tuple, tuple[str, ...]] = {}


def _cells(column):
    """A column's cells as _write_rows prints them."""
    if not isinstance(column, np.ndarray):
        return map(str, column)
    if column.dtype != np.float64:
        return map(str, column.tolist())
    key = (column.dtype.str, column.shape, column.tobytes())
    cells = _float_cells.pop(key, None)
    if cells is None:
        cells = tuple(map(str, column.tolist()))
    _float_cells[key] = cells
    if len(_float_cells) > _FLOAT_MEMO:
        del _float_cells[next(iter(_float_cells))]
    return cells


def _write_rows(f, *columns) -> None:
    """Write one comma-joined line per row of the columns.

    Array columns go through tolist(), so a float prints as its shortest
    round-trip repr ('nan', 'inf' and '-0.0' included) and an integer as an
    integer; items of any other iterable print with str. Pass bool arrays as
    integers. A float64 column's cells come from the last _FLOAT_MEMO such
    columns when one has the same bytes.
    """
    f.writelines(",".join(row) + "\n" for row in zip(*map(_cells, columns)))


def _flag(cell: str) -> bool:
    """A 0/1 flag cell."""
    if cell not in ("0", "1"):
        raise ValueError(f"flag must be 0 or 1, got {cell!r}")
    return cell == "1"


# the dtype of each cast's column
_DTYPES = {int: np.int64, float: np.float64, str: str, _flag: bool}


def _read_rows(path, header: str, *casts) -> list[np.ndarray]:
    """The columns of a CSV artifact, one array per cast; the inverse of _write_rows.

    The first line must equal header, blank lines are skipped, every other
    line must hold one field per cast, and a cell its cast rejects (with
    ValueError) is reported with the file and line. numpy's parser reads the
    rows in one call: int and float cells natively, any other cell through
    its cast applied to the raw field. Unlike the line loop below, the parser
    reads non-ASCII digits, strips the separators \\x1c-\\x1f (which int()
    and float() reject) and keeps the outer whitespace of a line's first and
    last cells, so a file holding any of those characters and a format with a
    text column at either end skip it. The loop reads those and every file
    the parser rejects: it strips and splits each line and casts its cells,
    so a bad file gets the loop's message and line.
    """
    k = len(casts)
    with open(path, "r", newline="") as f:
        first = f.readline().strip()
        if first != header:
            raise GridIOError(f"malformed header {first!r}, expected {header!r}", path, line=1)
        start, rest = f.tell(), f.read()
        if (rest.isascii() and not any(c in rest for c in "\x1c\x1d\x1e\x1f")
                and str not in (casts[0], casts[-1])):
            dtype = [(f"f{c}", _DTYPES[cast] if cast in (int, float) else object) for c, cast in enumerate(casts)]
            converters = {c: cast for c, cast in enumerate(casts) if cast not in (int, float)}
            try:
                rows = (np.loadtxt(path, dtype, delimiter=",", comments=None, skiprows=1, ndmin=1,
                                   converters=converters) if rest.strip() else np.empty(0, dtype))
                return [rows[f"f{c}"].astype(_DTYPES[cast], copy=False) for c, cast in enumerate(casts)]
            except (ValueError, OverflowError):
                pass
        f.seek(start)
        columns = [[] for _ in casts]
        for n, line in enumerate(f, start=2):
            if not (line := line.strip()):
                continue
            cells = line.split(",")
            if len(cells) != k:
                raise GridIOError(f"expected {k} fields, got {len(cells)}", path, line=n)
            try:
                for col, cast, cell in zip(columns, casts, cells):
                    col.append(cast(cell))
            except ValueError as e:
                raise GridIOError(str(e), path, line=n) from e
    with _artifact(path):  # an int beyond int64
        return [np.array(col, dtype=_DTYPES[cast]) for col, cast in zip(columns, casts)]


def _node_cells(grid: GridSpec) -> tuple[str, ...]:
    """The "node_id,lat,lon" cells of every node, as _write_rows prints them; built once per grid."""
    if "node_cells" not in grid.derived:
        cols = map(str, range(grid.n)), map(str, grid.lat.tolist()), map(str, grid.lon.tolist())
        grid.derived["node_cells"] = tuple(map(",".join, zip(*cols)))
    return grid.derived["node_cells"]


def _node_order(path, ids) -> np.ndarray:
    """The row order that sorts rows by node id; the ids must be 0..n-1, each exactly once."""
    ids = np.asarray(ids, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    if not np.array_equal(ids[order], np.arange(ids.size)):
        raise GridIOError("node ids are not 0..n-1, each exactly once", path)
    return order


@contextmanager
def _artifact(path):
    """Report a ValueError (or an OverflowError, from an integer too large for
    int64) raised while building objects from a file as a GridIOError naming it."""
    try:
        yield
    except GridIOError:
        raise
    except (ValueError, OverflowError) as e:
        raise GridIOError(str(e), path) from e


def _json_int(v) -> bool:
    """Whether a parsed JSON value is an integer (json gives true/false as bool, a subclass of int)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _read_nodes(path, header: str, *casts) -> tuple[GridSpec, list[np.ndarray]]:
    """A per-node CSV (node_id,lat,lon,...) in node order: its grid and its other columns."""
    ids, lat, lon, *columns = _read_rows(path, header, int, float, float, *casts)
    order = _node_order(path, ids)
    with _artifact(path):
        grid = GridSpec(lat=lat[order], lon=lon[order])
    return grid, [c[order] for c in columns]


# ---------------------------------------------------------------------------
# grid / metric / edge-list CSVs


def write_grid_csv(grid: GridSpec, path) -> None:
    with open(path, "w", newline="") as f:
        f.write(GRID_HEADER + "\n")
        _write_rows(f, _node_cells(grid))


def read_grid_csv(path) -> GridSpec:
    return _read_nodes(Path(path), GRID_HEADER)[0]


def write_metric_csv(values: np.ndarray, grid: GridSpec, path) -> None:
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n,):
        raise ValueError("value vector does not match grid size")
    with open(path, "w", newline="") as f:
        f.write(METRIC_HEADER + "\n")
        _write_rows(f, _node_cells(grid), values)


def read_metric_csv(path) -> tuple[np.ndarray, GridSpec]:
    grid, (values,) = _read_nodes(Path(path), METRIC_HEADER, float)
    return values, grid


def write_edge_list(edges: np.ndarray, path) -> None:
    """Edges as an (m, 2) int array with i < j per row; rows sorted."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and not (edges[:, 0] < edges[:, 1]).all():
        raise ValueError("edge rows must satisfy i < j")
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    with open(path, "w", newline="") as f:
        f.write(EDGE_HEADER + "\n")
        _write_rows(f, edges[:, 0], edges[:, 1])


def read_edge_list(path) -> np.ndarray:
    path = Path(path)
    edges = np.column_stack(_read_rows(path, EDGE_HEADER, int, int))
    bad = np.flatnonzero(edges[:, 0] >= edges[:, 1])
    if bad.size:
        i, j = edges[bad[0]]
        raise GridIOError(f"edge ({i},{j}) violates i < j", path)
    return edges


# ---------------------------------------------------------------------------
# event series files (CSV + JSON sidecar)


def write_event_series(events: np.ndarray, days: np.ndarray, path, sidecar: dict) -> None:
    """Write one row per event of the (n_nodes, n_days) bool matrix, node-major, plus a
    JSON sidecar (same path + '.json').

    The sidecar records the season day universe so downstream stages can be
    re-run from disk alone.
    """
    path = Path(path)
    nodes, cols = np.nonzero(events)
    with open(path, "w", newline="") as f:
        f.write(EVENT_HEADER + "\n")
        _write_rows(f, nodes, days[cols])
    with open(path.with_suffix(path.suffix + ".json"), "w") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")


def read_event_series(path, grid_n: int | None = None) -> tuple[np.ndarray, dict]:
    """Read events + sidecar back into the (n_nodes, n_days) bool event matrix and the sidecar.

    With grid_n, a sidecar n_nodes other than grid_n is rejected before the
    matrix is allocated.
    """
    path = Path(path)
    sidecar_path = path.with_suffix(path.suffix + ".json")
    with open(sidecar_path) as f, _artifact(sidecar_path):
        sidecar = json.load(f)
        if not isinstance(sidecar, dict) or not {"season_days", "n_nodes"} <= sidecar.keys():
            raise ValueError("sidecar must be a JSON object with season_days and n_nodes")
        n_nodes, season_days = sidecar["n_nodes"], sidecar["season_days"]
        if not _json_int(n_nodes) or n_nodes < 0:
            raise ValueError(f"n_nodes must be an integer >= 0, got {json.dumps(n_nodes)}")
        if grid_n is not None and n_nodes != grid_n:
            raise ValueError(f"{n_nodes} event series for {grid_n} grid nodes")
        if not isinstance(season_days, list) or not all(map(_json_int, season_days)):
            raise ValueError("season_days must be a list of integers")
        season_days = np.array(season_days, dtype=np.int64)
        if (np.diff(season_days) <= 0).any():
            raise ValueError("season_days must be strictly increasing")
        events = np.zeros((n_nodes, season_days.size), dtype=bool)
    n_nodes, T = events.shape
    ids, days = _read_rows(path, EVENT_HEADER, int, int)
    bad = np.flatnonzero((ids < 0) | (ids >= n_nodes))
    if bad.size:
        raise GridIOError(f"node id {ids[bad[0]]} out of range 0..{n_nodes - 1}", path)
    bad = np.flatnonzero(~np.isin(days, season_days))
    if bad.size:
        raise GridIOError(f"event day {days[bad[0]]} of node {ids[bad[0]]} is not a season day", path)
    cols = np.searchsorted(season_days, days)
    cells = np.sort(ids * T + cols)
    dup = np.flatnonzero(np.diff(cells) == 0)
    if dup.size:
        i, k = divmod(int(cells[dup[0]]), T)
        raise GridIOError(f"duplicate (node {i}, day {season_days[k]}) row", path)
    events[ids, cols] = True
    return events, sidecar
