import numpy as np
import pytest

from gridsync.grid_io import GridSpec
from gridsync.render import EMPTY_RGB, UNDEFINED_RGB, _axis_step, _ramp, render_map


def regular_grid(rows, cols, step=0.5, lat0=30.0, lon0=-100.0):
    lat = lat0 + step * np.arange(rows)
    lon = lon0 + step * np.arange(cols)
    latg, long_ = np.meshgrid(lat, lon, indexing="ij")
    return GridSpec(lat=latg.ravel(), lon=long_.ravel())


def read_ppm(path):
    raw = path.read_bytes()
    magic, dims, maxval, rest = raw.split(b"\n", 3)
    assert magic == b"P6" and maxval == b"255"
    w, h = map(int, dims.split())
    img = np.frombuffer(rest, dtype=np.uint8).reshape(h, w, 3)
    return img


def test_constant_field_single_color(tmp_path):
    grid = regular_grid(3, 4)
    p = tmp_path / "c.ppm"
    render_map(np.full(12, 2.5), grid, p)
    img = read_ppm(p)
    assert img.shape == (3, 4, 3)
    assert (img == img[0, 0]).all()


def test_normalized_ramp_endpoints(tmp_path):
    grid = regular_grid(1, 3)
    p = tmp_path / "n.ppm"
    render_map(np.array([0.0, 0.5, 1.0]), grid, p)
    img = read_ppm(p)
    assert (img[0, 0] == _ramp(np.array([0.0]))[0]).all()
    assert (img[0, 2] == _ramp(np.array([1.0]))[0]).all()
    assert (tmp_path / "n.ppm.legend.txt").read_text().startswith("range: [0.0, 1.0]\npalette: heat\n")


def test_grid_arithmetic_dimensions(tmp_path):
    # 0.5 degree box: (lat span / 0.5 + 1) x (lon span / 0.5 + 1)
    grid = regular_grid(52, 63, step=0.5, lat0=25.25, lon0=-124.75)
    p = tmp_path / "conus.ppm"
    h, w = render_map(np.linspace(0, 1, grid.n), grid, p)
    assert (h, w) == (52, 63)
    legend = (tmp_path / "conus.ppm.legend.txt").read_text()
    assert "63 x 52" in legend


def test_undefined_sentinel_color(tmp_path):
    grid = regular_grid(1, 3)
    p = tmp_path / "u.ppm"
    values = np.array([0.0, np.nan, 1.0])
    render_map(values, grid, p)
    img = read_ppm(p)
    assert tuple(img[0, 1]) == UNDEFINED_RGB


def test_irregular_nodes_nearest_cell(tmp_path):
    # nodes slightly off-grid still land in the nearest cell
    grid = GridSpec(lat=np.array([30.0, 30.02, 30.5]), lon=np.array([-100.0, -99.49, -100.0]))
    p = tmp_path / "i.ppm"
    h, w = render_map(np.array([0.0, 0.5, 1.0]), grid, p)
    img = read_ppm(p)
    assert img.shape == (h, w, 3)
    assert not (img.reshape(-1, 3) == EMPTY_RGB).all(axis=1).all()


def paint_per_node(values, grid):
    """render_map's raster painted one node at a time, later nodes over earlier ones.

    Returns the image and the number of nodes painted over an earlier one.
    """
    lat_step, lon_step = _axis_step(grid.lat), _axis_step(grid.lon)
    lat_max, lon_min = grid.lat.max(), grid.lon.min()
    height = int(round((lat_max - grid.lat.min()) / lat_step)) + 1
    width = int(round((grid.lon.max() - lon_min) / lon_step)) + 1
    good = np.isfinite(values)
    vmin, vmax = values[good].min(), values[good].max()
    rgb = _ramp((np.where(good, values, vmin) - vmin) / (vmax - vmin))
    img = np.empty((height, width, 3), dtype=np.uint8)
    img[:, :] = EMPTY_RGB
    painted = set()
    for i in range(grid.n):
        r = min(max(int(np.round((lat_max - grid.lat[i]) / lat_step)), 0), height - 1)
        c = min(max(int(np.round((grid.lon[i] - lon_min) / lon_step)), 0), width - 1)
        img[r, c] = rgb[i] if good[i] else UNDEFINED_RGB
        painted.add((r, c))
    return img, grid.n - len(painted)


def test_colliding_nodes_last_one_wins(tmp_path):
    # 5,000 distinct nodes over 80 x 80 coordinates per axis on a 0.5 degree step,
    # 20 of them per axis nudged 0.1 degree off it, so nudged nodes share cells
    rng = np.random.default_rng(7)

    def axis(origin):
        on = origin + 0.5 * np.arange(80)
        return np.concatenate([on, rng.choice(on, 20, replace=False) + rng.choice([-0.1, 0.1], 20)])

    lat, lon = axis(30.0), axis(-100.0)
    pairs = rng.choice(lat.size * lon.size, 5000, replace=False)
    grid = GridSpec(lat=lat[pairs // lon.size], lon=lon[pairs % lon.size])
    values = rng.random(grid.n)
    values[rng.random(grid.n) < 0.1] = np.nan
    p = tmp_path / "heat.ppm"
    render_map(values, grid, p)
    expected, overwritten = paint_per_node(values, grid)
    assert overwritten > 500
    np.testing.assert_array_equal(read_ppm(p), expected)


def test_empty_field_rejected(tmp_path):
    grid = regular_grid(1, 2)
    with pytest.raises(ValueError, match="match"):
        render_map(np.array([1.0]), grid, tmp_path / "x.ppm")
