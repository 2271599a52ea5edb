import datetime
import functools
import io
import json
import pickle
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridsync import grid_io
from gridsync.grid_io import (
    GriddedSeries,
    GridIOError,
    GridSpec,
    extract_season,
    load_gridded,
    read_edge_list,
    read_grid_csv,
    read_metric_csv,
    write_edge_list,
    write_grid_csv,
    write_gridded,
    write_metric_csv,
)
from gridsync.netmetrics import pair_groups

from conftest import random_grid


def small_series():
    grid = GridSpec(lat=np.array([10.0, 11.0]), lon=np.array([20.0, 20.5]))
    days = np.array([100, 101, 105])
    values = np.array([[1.0, 2.5, np.nan], [0.0, -3.25, 7.125]])
    return GriddedSeries(grid=grid, days=days, values=values)


def day_index(y, m, d):
    return (datetime.date(y, m, d) - datetime.date(1970, 1, 1)).days


# ---------------------------------------------------------------------------
# round trips


def test_binary_roundtrip_bitwise(tmp_path):
    gs = small_series()
    p1 = tmp_path / "a.cng1"
    p2 = tmp_path / "b.cng1"
    write_gridded(gs, p1)
    back = load_gridded(p1)
    write_gridded(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(back.days, gs.days)
    assert np.array_equal(back.grid.lat, gs.grid.lat)
    # values pass through f32; the fixture values are all f32-exact
    assert np.array_equal(back.values, gs.values, equal_nan=True)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_roundtrip_property(tmp_path_factory, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(1, 6))
    d = data.draw(st.integers(1, 8))
    grid = random_grid(n, int(rng.integers(1 << 30)))
    days = np.sort(rng.choice(5000, size=d, replace=False)).astype(np.int64)
    values = rng.normal(size=(n, d)).astype(np.float32).astype(np.float64)
    values[rng.random((n, d)) < 0.2] = np.nan
    gs = GriddedSeries(grid=grid, days=days, values=values)
    p = tmp_path_factory.mktemp("rt") / "x.cng1"
    write_gridded(gs, p)
    back = load_gridded(p)
    assert np.array_equal(back.values, gs.values, equal_nan=True)
    assert np.array_equal(back.days, gs.days)


def test_cpc_shaped_file(tmp_path):
    # 0.5 degree grid with 3,276 nodes (63 x 52 box), 2 days
    lats = 25.25 + 0.5 * np.arange(52)
    lons = -124.75 + 0.5 * np.arange(63)
    latg, long_ = np.meshgrid(lats, lons, indexing="ij")
    grid = GridSpec(lat=latg.ravel(), lon=long_.ravel())
    assert grid.n == 3276
    rng = np.random.default_rng(0)
    gs = GriddedSeries(grid=grid, days=np.array([0, 1]), values=rng.random((3276, 2)))
    p = tmp_path / "cpc.cng1"
    write_gridded(gs, p)
    back = load_gridded(p)
    assert back.n_nodes == 3276


# ---------------------------------------------------------------------------
# malformed files


def test_binary_day_count_mismatch(tmp_path):
    # header says 5 days but the file ends after 4 day records
    p = tmp_path / "bad.cng1"
    with open(p, "wb") as f:
        f.write(b"CNG1")
        f.write(struct.pack("<II", 1, 5))
        f.write(struct.pack("<dd", 10.0, 20.0))
        f.write(np.arange(4, dtype="<i4").tobytes())
    with pytest.raises(GridIOError, match="day-count mismatch"):
        load_gridded(p)


def test_binary_bad_magic(tmp_path):
    p = tmp_path / "bad.cng1"
    p.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(GridIOError, match="magic"):
        load_gridded(p)


def test_binary_value_truncation(tmp_path):
    gs = small_series()
    p = tmp_path / "trunc.cng1"
    write_gridded(gs, p)
    raw = p.read_bytes()
    p.write_bytes(raw[:-4])
    with pytest.raises(GridIOError, match="value-count mismatch"):
        load_gridded(p)


def test_binary_non_monotone_days(tmp_path):
    gs = small_series()
    p = tmp_path / "days.cng1"
    write_gridded(gs, p)
    raw = bytearray(p.read_bytes())
    off = 12 + 16 * 2  # header + coords
    raw[off : off + 12] = np.array([105, 101, 100], dtype="<i4").tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(GridIOError, match="strictly increasing"):
        load_gridded(p)


def test_out_of_range_coordinates(tmp_path):
    p = tmp_path / "bad.cng1"
    with open(p, "wb") as f:
        f.write(b"CNG1")
        f.write(struct.pack("<II", 1, 1))
        f.write(struct.pack("<dd", 95.0, 20.0))
        f.write(struct.pack("<if", 5, 1.0))
    with pytest.raises(GridIOError) as err:
        load_gridded(p)
    assert str(err.value) == f"{p}: latitude out of range [-90, 90]"


def test_grid_pickles_without_its_memo():
    # a grid sent to a worker process carries its coordinates, not pair_groups
    grid = random_grid(300, 5)
    ranks, starts = pair_groups(grid, 50.0)
    assert ranks.nbytes + starts.nbytes > 150_000 and len(grid.derived) == 1
    blob = pickle.dumps(grid)
    back = pickle.loads(blob)
    assert back.lat.tobytes() == grid.lat.tobytes() and back.lon.tobytes() == grid.lon.tobytes()
    assert back.derived == {}
    assert not back.lat.flags.writeable and not back.lon.flags.writeable
    assert grid.lat.nbytes + grid.lon.nbytes < len(blob) < grid.lat.nbytes + grid.lon.nbytes + 1024


def test_array_holding_types_compare_by_identity():
    # an unpickled copy has equal arrays of its own; == is False rather than an array's ambiguous truth value
    from gridsync.correction import CorrectedField
    from gridsync.netmetrics import MetricField, Network
    from gridsync.surrogate import DistanceProfile, SurrogateStats

    gs = small_series()
    x = np.array([0.0, 1.5])
    objs = [gs.grid, gs, Network.from_edges(gs.grid, [[0, 1]]), MetricField("DC", x), DistanceProfile(x, x, x, x),
            SurrogateStats("DC", x), CorrectedField(x, x, x, x, x > 0)]
    for obj in objs:
        back = pickle.loads(pickle.dumps(obj))
        assert (obj == back) is False and obj == obj and len({obj, back}) == 2


# ---------------------------------------------------------------------------
# seasonal extraction


def make_daily(start: datetime.date, end: datetime.date, n_nodes=2, seed=0):
    d0 = day_index(start.year, start.month, start.day)
    d1 = day_index(end.year, end.month, end.day)
    days = np.arange(d0, d1 + 1, dtype=np.int64)
    rng = np.random.default_rng(seed)
    grid = random_grid(n_nodes, seed + 5)
    return GriddedSeries(grid=grid, days=days, values=rng.random((n_nodes, days.size)))


def test_extract_jja_identity():
    gs = make_daily(datetime.date(1991, 6, 1), datetime.date(1991, 8, 31))
    out = extract_season(gs, "JJA")
    assert np.array_equal(out.days, gs.days)
    assert np.array_equal(out.values, gs.values)


def test_extract_djf_calendar_count():
    gs = make_daily(datetime.date(2000, 1, 1), datetime.date(2000, 12, 31))
    out = extract_season(gs, "DJF")
    # independent calendar oracle
    expected = [
        d
        for d in gs.days
        if (datetime.date(1970, 1, 1) + datetime.timedelta(days=int(d))).month in (12, 1, 2)
    ]
    assert out.days.tolist() == expected
    assert out.n_days == 91  # Jan 31 + Feb 29 (2000 is a leap year) + Dec 31


def test_extract_thirty_summers():
    gs = make_daily(datetime.date(1991, 1, 1), datetime.date(2020, 12, 31), n_nodes=1)
    out = extract_season(gs, "JJA")
    assert out.n_days == 30 * 92


def test_extract_idempotent_and_verbatim():
    gs = make_daily(datetime.date(1995, 1, 1), datetime.date(1996, 12, 31))
    once = extract_season(gs, "DJF")
    twice = extract_season(once, "DJF")
    assert np.array_equal(once.days, twice.days)
    assert np.array_equal(once.values, twice.values)
    assert np.isin(once.days, gs.days).all()


def test_extract_empty_result_errors():
    gs = make_daily(datetime.date(1995, 6, 1), datetime.date(1995, 6, 30))
    with pytest.raises(ValueError, match="no days"):
        extract_season(gs, "DJF")


# ---------------------------------------------------------------------------
# reading one season of a CNG1 file


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("season", ["JJA", "DJF"])
def test_season_read_equals_extract_season(monkeypatch, tmp_path, season, block):
    # 7 nodes over three full calendar years: blocks of 2 and 3 nodes leave a short last block
    gs = make_daily(datetime.date(1999, 1, 1), datetime.date(2001, 12, 31), n_nodes=7, seed=3)
    values = gs.values.astype(np.float32).astype(np.float64)
    values[np.random.default_rng(4).random(values.shape) < 0.1] = np.nan
    p = tmp_path / "full.cng1"
    write_gridded(GriddedSeries(gs.grid, gs.days, values), p)
    monkeypatch.setattr(grid_io, "_NODE_BLOCK", block)
    whole = load_gridded(p)
    cut = load_gridded(p, season)
    ref = extract_season(whole, season)
    assert np.array_equal(whole.values, values, equal_nan=True) and ref.n_days < whole.n_days
    assert np.array_equal(cut.days, ref.days)
    assert np.array_equal(cut.values, ref.values, equal_nan=True)
    assert cut.values.tobytes() == ref.values.tobytes() and cut.values.flags.c_contiguous
    assert np.array_equal(cut.grid.lat, ref.grid.lat) and np.array_equal(cut.grid.lon, ref.grid.lon)
    # a series that holds only the season's days is not copied again
    assert extract_season(cut, season) is cut


def _june_file(path) -> bytes:
    """A valid 2-node CNG1 file over 31 May to 2 June 1970 (80 bytes)."""
    grid = GridSpec(lat=np.array([10.0, 11.0]), lon=np.array([20.0, 20.5]))
    write_gridded(GriddedSeries(grid, np.array([150, 151, 152]), np.arange(6.0).reshape(2, 3)), path)
    return path.read_bytes()


@pytest.mark.parametrize("season", [None, "JJA", "DJF"])
@pytest.mark.parametrize("edit, message, offset", [
    pytest.param(lambda raw: raw[:10], "truncated header", 10, id="short-header"),
    pytest.param(lambda raw: b"NOPE" + raw[4:], "bad magic b'NOPE', expected b'CNG1'", 0, id="bad-magic"),
    pytest.param(lambda raw: raw[:32], "node-count mismatch: coordinate block truncated", 32,
                 id="truncated-coordinates"),
    pytest.param(lambda raw: raw[:52], "day-count mismatch: day block truncated", 52, id="truncated-days"),
    pytest.param(lambda raw: raw[:-4], "value-count mismatch: value block truncated", 76, id="truncated-values"),
    pytest.param(lambda raw: raw + b"\0", "trailing bytes after value block", 80, id="trailing-bytes"),
])
def test_cng1_fault_keeps_its_message_and_offset(tmp_path, season, edit, message, offset):
    # a malformed file is reported before any season is cut, even one with no day in the season
    p = tmp_path / "bad.cng1"
    p.write_bytes(edit(_june_file(p)))
    with pytest.raises(GridIOError) as err:
        load_gridded(p, season)
    assert str(err.value) == f"{p}: {message} (byte offset {offset})" and err.value.offset == offset


def test_season_read_rejects_non_monotone_days_outside_the_season(tmp_path):
    p = tmp_path / "days.cng1"
    raw = bytearray(_june_file(p))
    # the first day, 31 May, becomes 1 September: out of order, and outside JJA
    raw[44:48] = np.array([day_index(1970, 9, 1)], dtype="<i4").tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(GridIOError, match="strictly increasing"):
        load_gridded(p, "JJA")


def test_events_stage_exits_2_when_no_day_falls_in_the_season(tmp_path, capsys):
    from gridsync.cli import main

    write_gridded(make_daily(datetime.date(1999, 12, 1), datetime.date(2000, 2, 29), n_nodes=3), tmp_path / "djf.cng1")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"input": str(tmp_path / "djf.cng1"), "format": "binary", "season": "JJA",
                               "seed": 1, "out": str(tmp_path / "out")}))
    assert main(["events", "--config", str(cfg)]) == 2
    assert "error: ValueError: no days fall in season JJA" in capsys.readouterr().err
    assert not (tmp_path / "out" / "events.csv").exists()


# ---------------------------------------------------------------------------
# metric / grid / edge-list formats


def test_metric_roundtrip(tmp_path):
    grid = random_grid(5, 3)
    values = np.array([1.5, np.nan, -2.0, 0.1234567890123456, 1e-300])
    p = tmp_path / "m.csv"
    write_metric_csv(values, grid, p)
    back, grid2 = read_metric_csv(p)
    assert np.array_equal(back, values, equal_nan=True)
    assert np.array_equal(grid2.lat, grid.lat)
    assert "nan" in p.read_text()


def test_metric_row_count(tmp_path):
    grid = random_grid(3276, 4)
    p = tmp_path / "m.csv"
    write_metric_csv(np.zeros(3276), grid, p)
    assert len(p.read_text().strip().split("\n")) == 3277


def test_grid_roundtrip(tmp_path):
    grid = random_grid(7, 9)
    p = tmp_path / "g.csv"
    write_grid_csv(grid, p)
    back = read_grid_csv(p)
    assert np.array_equal(back.lat, grid.lat)
    assert np.array_equal(back.lon, grid.lon)


def test_edge_list_roundtrip(tmp_path):
    edges = np.array([[0, 3], [1, 2], [0, 1]])
    p = tmp_path / "e.csv"
    write_edge_list(edges, p)
    back = read_edge_list(p)
    assert back.tolist() == [[0, 1], [0, 3], [1, 2]]


def test_edge_list_rejects_bad_order(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("i,j\n3,1\n")
    with pytest.raises(GridIOError, match="i < j"):
        read_edge_list(p)


# ---------------------------------------------------------------------------
# every CSV writer against a per-cell reference


SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.1, 1 / 3])


def _cell(x) -> str:
    return repr(float(x))


def _reference(header, rows) -> str:
    return header + "\n" + "".join(",".join(row) + "\n" for row in rows)


def test_csv_writers_match_per_cell_repr(tmp_path):
    from gridsync.correction import CorrectedField, write_corrected_csv
    from gridsync.grid_io import write_event_series
    from gridsync.surrogate import DistanceProfile, SurrogateStats, write_profile_csv, write_surrogate_stats_csv

    n = SPECIAL.size
    grid = GridSpec(lat=np.array([0.1, -0.0, 5e-324, 45.123456789, -89.99999999999999, 1 / 3, 60.0, 12.5]),
                    lon=np.array([-120.0, 179.99999999999997, 1e-300, -0.0, 33.3, 2 / 3, -75.25, 100.0]))
    node = [str(i) for i in range(n)]
    loc = [[str(i), _cell(grid.lat[i]), _cell(grid.lon[i])] for i in range(n)]
    expected = {}

    write_grid_csv(grid, tmp_path / "grid.csv")
    expected["grid.csv"] = _reference("node_id,lat,lon", loc)

    write_metric_csv(SPECIAL, grid, tmp_path / "metric.csv")
    expected["metric.csv"] = _reference("node_id,lat,lon,value",
                                        [loc[i] + [_cell(SPECIAL[i])] for i in range(n)])


    undefined = np.isnan(SPECIAL)
    cf = CorrectedField(raw=SPECIAL, surrogate_mean=np.roll(SPECIAL, 1), corrected=np.roll(SPECIAL, 2),
                        normalized=np.roll(SPECIAL, 3), undefined=undefined)
    write_corrected_csv(cf, grid, tmp_path / "corrected.csv")
    expected["corrected.csv"] = _reference(
        "node_id,lat,lon,raw,surrogate_mean,corrected,normalized,defined",
        [loc[i] + [_cell(cf.raw[i]), _cell(cf.surrogate_mean[i]), _cell(cf.corrected[i]),
                   _cell(cf.normalized[i]), str(int(not undefined[i]))] for i in range(n)],
    )

    # the zero flag follows the mean: -0.0 sits at node 3 of MGD and node 4 of DC
    stats = {m: SurrogateStats(m, np.roll(SPECIAL, k)) for k, m in enumerate(("MGD", "DC"))}
    write_surrogate_stats_csv(stats, tmp_path / "stats.csv")
    expected["stats.csv"] = _reference(
        "node_id,metric,mean,zero_flag",
        [[node[i], m, _cell(stats[m].mean[i]), str(int(i == {"MGD": 3, "DC": 4}[m]))]
         for m in ("DC", "MGD") for i in range(n)],
    )

    prof = DistanceProfile(bin_edges=np.array([0.0, 0.1, 1e300, np.inf]), bin_prob=SPECIAL[3:6],
                           bin_pair_count=np.array([7, 0, 2 ** 40]), bin_link_count=np.array([3, 0, 1]))
    write_profile_csv(prof, tmp_path / "profile.csv")
    expected["profile.csv"] = _reference(
        "bin_lo_km,bin_hi_km,pairs,links,prob",
        [[_cell(prof.bin_edges[k]), _cell(prof.bin_edges[k + 1]), str(int(prof.bin_pair_count[k])),
          str(int(prof.bin_link_count[k])), _cell(prof.bin_prob[k])] for k in range(3)],
    )

    edges = np.array([[2, 7], [0, 5], [0, 1], [3, 4]])
    write_edge_list(edges, tmp_path / "edges.csv")
    expected["edges.csv"] = _reference("i,j", [["0", "1"], ["0", "5"], ["2", "7"], ["3", "4"]])
    write_edge_list(np.empty((0, 2)), tmp_path / "no_edges.csv")
    expected["no_edges.csv"] = "i,j\n"

    events = np.arange(3) < np.arange(n)[:, None] % 3
    days = np.array([100, 101, 105])
    write_event_series(events, days, tmp_path / "events.csv", [])
    expected["events.csv"] = _reference(
        "node_id,day_index", [[str(i), str(days[k])] for i in range(n) for k in range(i % 3)])

    for name, text in expected.items():
        assert (tmp_path / name).read_text() == text, name


@pytest.mark.parametrize("rows, text", [(0, ""), (1, "7,0.5\n")], ids=["no-row", "one-row"])
def test_row_writer_ends_each_row_and_writes_nothing_for_none(rows, text):
    # a header-only artifact stays header-only: no blank line after its header
    f = io.StringIO()
    grid_io._write_rows(f, np.array([7, 8])[:rows], np.array([0.5, -0.0])[:rows])
    assert f.getvalue() == text


def test_event_sidecar_holds_only_what_the_rows_cannot(tmp_path):
    # the node count, the season's days and the excluded nodes; the season and threshold that
    # made the events are the events manifest's parameters. The reader gives back both.
    from gridsync.grid_io import read_event_series, write_event_series

    days = np.array([100, 101, 105])
    events = np.tri(3, dtype=bool)
    events[1] = False  # node 1 is unusable, so it has no events
    write_event_series(events, days, tmp_path / "events.csv", [1])
    sidecar = json.loads((tmp_path / "events.csv.json").read_text())
    assert sidecar == {"n_nodes": 3, "season_days": [100, 101, 105], "unusable_nodes": [1]}
    back, read_sidecar = read_event_series(tmp_path / "events.csv", 3)
    assert back.dtype == bool and np.array_equal(back, events) and read_sidecar == sidecar


# ---------------------------------------------------------------------------
# every CSV reader against injected faults


def _write_artifacts(tmp_path) -> dict:
    """One small valid file per artifact format: name -> (path, reader)."""
    from gridsync.correction import correct_divide, read_corrected_csv, write_corrected_csv
    from gridsync.grid_io import read_event_series, write_event_series
    from gridsync.netmetrics import MetricField
    from gridsync.surrogate import (DistanceProfile, SurrogateStats, read_profile_csv,
                                    read_surrogate_stats_csv, write_profile_csv, write_surrogate_stats_csv)

    # node 0 sits at latitude 10.5, a value no other cell holds
    grid = GridSpec(lat=np.array([10.5, 11.25, 12.75]), lon=np.array([-100.25, -99.5, -98.75]))
    days = np.array([100, 101, 105])
    events = np.tri(3, dtype=bool)  # node i has events on days[: i + 1]
    stats = SurrogateStats("DC", np.array([0.0, 2.0, 4.0]))
    cf = correct_divide(MetricField("DC", np.array([1.0, 3.0, 2.0])), stats)
    profile = DistanceProfile(np.array([0.0, 50.0, 100.0]), np.array([0.25, 0.5]),
                              np.array([4, 2]), np.array([1, 1]))
    files = {
        "gridded": (lambda p: write_gridded(GriddedSeries(grid, days, np.arange(9.0).reshape(3, 3)), p),
                    load_gridded),
        "grid": (lambda p: write_grid_csv(grid, p), read_grid_csv),
        "metric": (lambda p: write_metric_csv(np.array([1.0, 2.0, 3.0]), grid, p), read_metric_csv),
        "edges": (lambda p: write_edge_list(np.array([[0, 1], [1, 2]]), p), read_edge_list),
        "events": (lambda p: write_event_series(events, days, p, []), read_event_series),
        "profile": (lambda p: write_profile_csv(profile, p), read_profile_csv),
        "surrogate_stats": (lambda p: write_surrogate_stats_csv({"DC": stats}, p), read_surrogate_stats_csv),
        "corrected": (lambda p: write_corrected_csv(cf, grid, p), read_corrected_csv),
    }
    out = {}
    for name, (write, read) in files.items():
        path = tmp_path / (f"{name}.cng1" if name == "gridded" else f"{name}.csv")
        write(path)
        read(path)  # the untouched file reads back
        out[name] = (path, read)
    return out


def _on_lines(edit):
    """A fault that edits a CSV file's lines in place and returns the number of the line it broke."""
    @functools.wraps(edit)
    def fault(path):
        lines = path.read_text().splitlines()
        line = edit(lines)
        path.write_text("\n".join(lines) + "\n")
        return line
    return fault


@_on_lines
def _short_row(lines):
    lines[1] = lines[1].rsplit(",", 1)[0]
    return 2


@_on_lines
def _bad_cell(lines):
    lines[2] = "abc" + lines[2][lines[2].index(","):]
    return 3


def _bad_coordinate(path):
    # node 0's latitude, 10.5, becomes 95.0: no one line is to blame
    if path.suffix == ".cng1":
        raw = path.read_bytes()
        lat = struct.pack("<d", 10.5)
        assert raw.count(lat) == 1
        path.write_bytes(raw.replace(lat, struct.pack("<d", 95.0)))
    else:
        path.write_text(path.read_text().replace(",10.5,", ",95.0,"))
    return None


COORDINATE_FILES = ("gridded", "grid", "metric", "corrected")
FAULTS = [(name, fault) for name in ("grid", "metric", "edges", "events", "profile",
                                     "surrogate_stats", "corrected") for fault in (_short_row, _bad_cell)]
FAULTS += [(name, _bad_coordinate) for name in COORDINATE_FILES]


@pytest.mark.parametrize("name, fault", FAULTS, ids=[f"{n}-{f.__name__[1:]}" for n, f in FAULTS])
def test_reader_rejects_malformed_artifact(tmp_path, name, fault):
    # a malformed artifact is a GridIOError naming the file (and the line of a bad row),
    # never a bare ValueError or a silently misread row
    path, read = _write_artifacts(tmp_path)[name]
    line = fault(path)
    with pytest.raises(GridIOError) as err:
        read(path)
    msg = str(err.value)
    assert msg.startswith(f"{path}: ")
    if line is None:
        assert "latitude out of range" in msg
    else:
        assert msg.endswith(f"(line {line})") and err.value.line == line


@pytest.mark.parametrize("name, edit, message", [
    pytest.param("events", lambda lines: lines + ["-1,100"], "node id -1 out of range",
                 id="event-node-minus-1"),
    pytest.param("events", lambda lines: lines + [lines[1]], "duplicate (node 0, day 100) row",
                 id="duplicate-event"),
    pytest.param("events", lambda lines: lines + ["0,102"], "event day 102 of node 0 is not a season day",
                 id="event-day-outside-season"),
    pytest.param("events.json", lambda lines: [line.replace("105", "101") for line in lines],
                 "season_days must be strictly increasing", id="season-days-not-increasing"),
    pytest.param("events.json", lambda lines: [line.replace('"unusable_nodes": []', '"unusable_nodes": [3]')
                                               for line in lines],
                 "unusable_nodes must be a list of node ids in 0..2", id="unusable-node-out-of-range"),
    pytest.param("events.json", lambda lines: [line.replace('"unusable_nodes": []', '"unusable_nodes": 5')
                                               for line in lines],
                 "unusable_nodes must be a list of node ids in 0..2", id="unusable-nodes-not-a-list"),
    pytest.param("surrogate_stats", lambda lines: lines + [lines[2]], "node ids are not 0..n-1",
                 id="duplicate-surrogate-node"),
    pytest.param("surrogate_stats", lambda lines: lines[:1] + ["0,DC,8.67,1"] + lines[2:],
                 "zero_flag 1 of node 0 (DC) disagrees with its mean 8.67", id="zero-flag-of-nonzero-mean"),
    pytest.param("surrogate_stats", lambda lines: lines[:1] + [lines[1][:-1] + "0"] + lines[2:],
                 "zero_flag 0 of node 0 (DC) disagrees with its mean 0.0", id="zero-mean-flag-0"),
    pytest.param("corrected", lambda lines: lines[:-1] + [lines[-1][:-1] + "7"],
                 "flag must be 0 or 1, got '7' (line 4)", id="defined-flag-7"),
])
def test_reader_rejects_inconsistent_rows(tmp_path, name, edit, message):
    # name "events.json" edits the events artifact's JSON sidecar
    artifact, _, sidecar = name.partition(".")
    path, read = _write_artifacts(tmp_path)[artifact]
    edited = path.with_suffix(path.suffix + ".json") if sidecar else path
    edited.write_text("\n".join(edit(edited.read_text().splitlines())) + "\n")
    with pytest.raises(GridIOError) as err:
        read(path)
    assert str(err.value).startswith(f"{edited}: ") and message in str(err.value)


def test_reader_skips_blank_lines(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("i,j\n\n0,1\n  \n1,2\n")
    assert read_edge_list(path).tolist() == [[0, 1], [1, 2]]
    path.write_text("i,j\n\n  \n")
    assert read_edge_list(path).shape == (0, 2)


@pytest.mark.parametrize("lead", [1, 2, 3, 1 << 16])
def test_reader_names_the_first_bad_line_across_batches(tmp_path, lead):
    # after a batch of lead good rows, a bad cell on line 5 + lead comes before a short
    # row on line 8 + lead, with blank lines between them; the line loop counts them all
    path = tmp_path / "e.csv"
    good = [f"{r},{r + 1}" for r in range(lead)]
    lines = ["i,j", *good, "0,1", "", "1,2", "x,3", "  ", "2,4", "5", "3,5"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GridIOError, match=rf"invalid literal for int\(\) with base 10: 'x' \(line {5 + lead}\)$"):
        read_edge_list(path)
    lines[4 + lead] = "1,3"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GridIOError, match=rf"expected 2 fields, got 1 \(line {8 + lead}\)$"):
        read_edge_list(path)
    lines[7 + lead] = "2,5"
    path.write_text("\n".join(lines) + "\n")
    expected = [[r, r + 1] for r in range(lead)] + [[0, 1], [1, 2], [1, 3], [2, 4], [2, 5], [3, 5]]
    assert read_edge_list(path).tolist() == expected


# ---------------------------------------------------------------------------
# the row reader's two paths, and the writer's float-column memo


def _line_loop(path, header, *casts):
    """_read_rows with numpy's parser refusing every file, so every row goes through the line loop."""
    from unittest import mock

    with mock.patch.object(grid_io.np, "loadtxt", side_effect=ValueError("refused")):
        return _outcome(path, header, *casts)


def _outcome(path, header, *casts):
    """The columns' dtypes and bytes, or the GridIOError's message and line."""
    try:
        return [(c.dtype.str, c.tobytes()) for c in grid_io._read_rows(path, header, *casts)]
    except GridIOError as e:
        return (str(e), e.line)


_flag = grid_io._flag
# the last two are a surrogate-stats and a corrected file; a text column last goes to the loop
FORMATS = [(int, int), (int, float, float, float), (float, float, int, int, float), (int, float, str),
           (int, str, float, _flag), (int, float, float, float, float, float, float, _flag)]
ODD_INTS = ["+7", " 7 ", "\t-3", "007", "1_000", "٣", "२", "\x1c7", "7\x1f", "9223372036854775807",
            "9223372036854775808", "-9223372036854775809", "99999999999999999999999", "", " ", "7.0", "1e3", "0x1f"]
ODD_FLOATS = ["+1.5", " 2.5 ", ".5", "5.", "1e400", "-1e-400", "nan", "-nan", "NaN", "inf", "-Infinity", "1_0.5",
              "٣.5", "\x1e2", "", "  ", "1e", "0x1p3", "1,5", "0.1000000000000000055511151231257827"]
ODD_FLAGS = ["+1", " 1", "1 ", "01", "2", "", "1\x00", "\x1f1", "-0", "true"]
ODD_TEXTS = [" DC ", "", "a,b", "D\x00C", "#x", '"DC"', "\x1dBC", "MGDé", " "]


def _cells(cast):
    """A cell of cast: a valid one, or one from the odd list, which the cast or numpy may read differently."""
    if cast is _flag:
        return st.one_of(st.sampled_from(["0", "1"]), st.sampled_from(ODD_FLAGS))
    if cast is str:
        return st.one_of(st.sampled_from(["DC", "CC", "MGD", "BC"]), st.text(st.characters(codec="ascii"), max_size=3),
                         st.sampled_from(ODD_TEXTS))
    if cast is int:
        return st.one_of(st.integers(-(2**63), 2**63 - 1).map(str), st.integers(0, 99).map(str),
                         st.sampled_from(ODD_INTS))
    return st.one_of(st.floats().map(repr), st.floats(-1e6, 1e6).map(repr), st.sampled_from(ODD_FLOATS))


@st.composite
def _csv_file(draw):
    casts = draw(st.sampled_from(FORMATS))
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        cells = [draw(_cells(cast)) for cast in casts]
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "spaces", "short", "long"]))
        lines.append({"row": ",".join(cells), "blank": "", "spaces": draw(st.sampled_from([" ", "\t ", "\x0b"])),
                      "short": ",".join(cells[:-1]), "long": ",".join(cells + ["1"])}[kind])
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return casts, end.join(["h", *lines]) + draw(st.sampled_from([end, ""]))


@settings(max_examples=500, deadline=None)
@given(_csv_file())
@example(((int, int), "h\n1,2\n3,२\n"))  # numpy's int parser reads non-ASCII digits, to other values
@example(((int, float, float, float), "h\n1,2.5,\x1c7,3\n"))  # and strips \x1c-\x1f
@example(((int, int), "h\n1,1_000\n\n  \n"))
@example(((float, float, int, int, float), "h"))
@example(((int, str, float, _flag), "h\n0,DC,1.5,1\n1, BC ,nan,0 \n"))  # the loop strips the line
@example(((int, str, float, _flag), "h\n0,DC,1.5,+1\n1,BC,0.0,2\n"))  # a flag is no int
@example(((int, str, float, _flag), "h\n0,D\x00C,1.5,0\n1,#x,0.0,1\n"))
@example(((int, float, float, float, float, float, float, _flag), "h\n0,1,2,3,4,5,6,01\n"))
@example(((int, float, str), "h\n0,1.5, DC \n"))
def test_row_reader_equals_the_line_loop(tmp_path_factory, case):
    # numpy's parser, where _read_rows uses it, gives the columns the line loop
    # gives, and a file either refuses is the line loop's GridIOError
    casts, text = case
    path = tmp_path_factory.mktemp("rows") / "a.csv"
    path.write_bytes(text.encode())
    assert _outcome(path, "h", *casts) == _line_loop(path, "h", *casts)


def test_row_reader_returns_typed_columns(tmp_path, monkeypatch):
    # numpy's parser reads both files, the one with text and flag columns too
    parsed, real = [], np.loadtxt

    def loadtxt(*args, **kwargs):
        parsed.append(real(*args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(grid_io.np, "loadtxt", loadtxt)
    path = tmp_path / "a.csv"
    path.write_text("h\n1,2.5,0\n-3,nan,1\n")
    ids, values = grid_io._read_rows(path, "h", int, float, float)[:2]
    assert ids.dtype == np.int64 and ids.tolist() == [1, -3]
    assert values.dtype == np.float64 and values[0] == 2.5 and np.isnan(values[1])
    ids, names, flags = grid_io._read_rows(path, "h", int, str, grid_io._flag)
    assert names.tolist() == ["2.5", "nan"] and flags.dtype == bool and flags.tolist() == [False, True]
    assert len(parsed) == 2
    path.write_text("h\n")
    cols = grid_io._read_rows(path, "h", int, float) + grid_io._read_rows(path, "h", int, str, grid_io._flag)
    assert [(c.dtype.kind, c.size) for c in cols] == [("i", 0), ("f", 0), ("i", 0), ("U", 0), ("b", 0)]


def test_row_reader_names_an_int_beyond_int64(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("i,j\n0,1\n1,9223372036854775808\n")
    with pytest.raises(GridIOError, match=r"e\.csv: Python int too large"):
        read_edge_list(path)


def test_header_only_file_reads_without_warning(tmp_path, recwarn):
    path = tmp_path / "e.csv"
    for text in ("i,j\n", "i,j", "i,j\n\n\n"):
        path.write_text(text)
        assert read_edge_list(path).shape == (0, 2)
    assert not recwarn.list


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(grid_io, "_float_cells", {})
    return grid_io._float_cells


def _printed(column) -> list[str]:
    return list(map(str, column.tolist()))


def test_writer_memo_keys_dtype_shape_and_bytes(empty_memo):
    # same bytes, other dtype or shape: never the memoized cells
    x = np.array([1.5, -2.0, 3.25, 0.1])
    assert list(grid_io._cells(x)) == _printed(x)
    for other in (x.view(np.int64), x.view(np.float32), x.reshape(2, 2), x.astype(">f8")):
        assert list(grid_io._cells(other)) == _printed(other)
    assert list(empty_memo) == [("<f8", (4,), x.tobytes()), ("<f8", (2, 2), x.tobytes())]
    # a copy with the same bytes is the same key; -0.0 and each NaN payload are other keys with their own cells
    assert grid_io._cells(x.copy()) is empty_memo[("<f8", (4,), x.tobytes())]
    nan2 = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64)
    for column, cells in ((np.array([0.0]), ["0.0"]), (np.array([-0.0]), ["-0.0"]),
                          (np.array([np.nan, np.nan]), ["nan", "nan"]), (nan2, ["nan", "nan"])):
        assert list(grid_io._cells(column)) == cells
    assert len(empty_memo) == 6


def test_writer_memo_keeps_the_most_recently_used_columns(empty_memo):
    columns = [np.full(3, float(k)) for k in range(grid_io._FLOAT_MEMO + 1)]
    for column in columns[:-1]:
        grid_io._cells(column)
    grid_io._cells(columns[0])  # used again: now the most recent
    grid_io._cells(columns[-1])  # one past the memo: the least recent, column 1, goes
    keys = [key[2] for key in empty_memo]
    assert len(keys) == grid_io._FLOAT_MEMO
    assert keys == [c.tobytes() for c in columns[2:-1] + [columns[0], columns[-1]]]
    assert list(grid_io._cells(columns[1])) == ["1.0"] * 3


def test_artifacts_are_the_same_bytes_with_and_without_the_memo(tmp_path, monkeypatch):
    # every artifact written through a filled memo has the bytes it has when
    # each float column is formatted anew
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    cold.mkdir(), warm.mkdir()
    monkeypatch.setattr(grid_io, "_FLOAT_MEMO", 0)
    artifacts = _write_artifacts(cold)
    monkeypatch.undo()
    monkeypatch.setattr(grid_io, "_float_cells", {})
    _write_artifacts(warm)
    _write_artifacts(warm)  # every float column is in the memo now
    for name, (path, _) in artifacts.items():
        assert (warm / path.name).read_bytes() == path.read_bytes(), name
