"""Rasterize a per-node field on a regular lat/lon grid to a PPM image.

Nodes off a perfectly regular grid are assigned to the nearest cell. A text
legend sidecar records the value range, palette, and image dimensions.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .grid_io import GridSpec

UNDEFINED_RGB = (255, 0, 255)  # magenta sentinel
EMPTY_RGB = (40, 40, 40)  # cells with no node


def _ramp(t: np.ndarray) -> np.ndarray:
    """Map t in [0, 1] to RGB rows of the heat ramp, blue -> yellow -> red."""
    t = np.clip(t, 0.0, 1.0)
    r = np.clip(2.0 * t, 0, 1)
    g = np.clip(2.0 * np.minimum(t, 1.0 - t) + 0.15 * (1 - t), 0, 1)
    b = np.clip(1.0 - 2.0 * t, 0, 1)
    return np.round(255 * np.stack([r, g, b], axis=-1)).astype(np.uint8)


def _axis_step(coords: np.ndarray) -> float:
    """The median gap between distinct coordinates, as np.median(np.diff(np.unique(coords))).

    A sort and a partition stand in for np.unique and np.median, which import numpy.ma.
    """
    gaps = np.diff(np.sort(coords))
    gaps = gaps[gaps != 0]
    if gaps.size == 0:
        return 1.0
    k = gaps.size // 2
    if gaps.size % 2:
        return float(np.partition(gaps, k)[k])
    part = np.partition(gaps, [k - 1, k])
    return float((part[k - 1] + part[k]) / 2)


def legend_path(path) -> Path:
    """The legend sidecar of the map at path: path with '.legend.txt' appended."""
    path = Path(path)
    return path.with_suffix(path.suffix + ".legend.txt")


def render_map(values: np.ndarray, grid: GridSpec, path, *, defined: np.ndarray | None = None) -> tuple[int, int]:
    """Write a P6 PPM raster plus a '.legend.txt' sidecar.

    Returns (height, width). The ramp spans [vmin, vmax], the min and max of
    the defined values. Undefined nodes get the sentinel color.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0 or grid.n == 0:
        raise ValueError("cannot render an empty field")
    if values.shape != (grid.n,):
        raise ValueError("field length does not match grid")
    defined = ~np.isnan(values) if defined is None else np.asarray(defined, dtype=bool)

    lat_step = _axis_step(grid.lat)
    lon_step = _axis_step(grid.lon)
    lat_min, lat_max = float(grid.lat.min()), float(grid.lat.max())
    lon_min, lon_max = float(grid.lon.min()), float(grid.lon.max())
    height = int(round((lat_max - lat_min) / lat_step)) + 1
    width = int(round((lon_max - lon_min) / lon_step)) + 1

    good = defined & np.isfinite(values)
    vmin, vmax = (float(values[good].min()), float(values[good].max())) if good.any() else (0.0, 1.0)
    span = vmax - vmin if vmax > vmin else 1.0

    img = np.empty((height, width, 3), dtype=np.uint8)
    img[:, :] = EMPTY_RGB
    rows = np.clip(np.round((lat_max - grid.lat) / lat_step).astype(int), 0, height - 1)
    cols = np.clip(np.round((grid.lon - lon_min) / lon_step).astype(int), 0, width - 1)
    t = (np.where(good, values, vmin) - vmin) / span
    rgb = _ramp(t)
    # repeated (row, col) pairs are assigned in node order: the last node in a cell wins
    img[rows, cols] = np.where(good[:, None], rgb, np.array(UNDEFINED_RGB, dtype=np.uint8))

    path = Path(path)
    with open(path, "wb") as f:
        f.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        f.write(img.tobytes())
    with open(legend_path(path), "w") as f:
        f.write(f"range: [{vmin!r}, {vmax!r}]\n")
        f.write("palette: heat\n")
        f.write(f"size: {width} x {height}\n")
        f.write(f"undefined color: rgb{UNDEFINED_RGB}\n")
    return height, width
