"""Seeded synthetic inputs with known ground truth.

Two generator families: spatially embedded random networks on a lattice
(for boundary-bias experiments) and precipitation-like gridded daily values
with synchronized storm days (for end-to-end pipeline runs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid_io import SEASON_MONTHS, GridSpec, GriddedSeries, day_index_months
from .netmetrics import EARTH_RADIUS_KM, Network, pair_distances
from .seeding import SYNTH_TAG, stream

KM_PER_DEG = np.pi * EARTH_RADIUS_KM / 180.0


@dataclass(frozen=True)
class RectLattice:
    """rows x cols lattice at low latitude, so distances are near-planar."""

    rows: int
    cols: int
    spacing_km: float
    lat0: float = 0.0
    lon0: float = 0.0


@dataclass(frozen=True)
class HardCutoff:
    d0_km: float


@dataclass(frozen=True)
class Exponential:
    p0: float
    lambda_km: float


@dataclass(frozen=True)
class SynthNetSpec:
    layout: object  # RectLattice | GridSpec
    link_model: object  # HardCutoff | Exponential
    seed: int = 0


def lattice_grid(layout: RectLattice) -> GridSpec:
    """Node coordinates for a rectangular lattice, centered on (lat0, lon0)."""
    step_deg = layout.spacing_km / KM_PER_DEG
    r = np.arange(layout.rows)
    c = np.arange(layout.cols)
    lat = layout.lat0 + (r - (layout.rows - 1) / 2.0) * step_deg
    lon = layout.lon0 + (c - (layout.cols - 1) / 2.0) * step_deg
    latg, long_ = np.meshgrid(lat, lon, indexing="ij")
    return GridSpec(lat=latg.ravel(), lon=long_.ravel())


def lattice_boundary_mask(layout: RectLattice) -> np.ndarray:
    """True for nodes on the outer ring of the lattice."""
    r, c = np.meshgrid(np.arange(layout.rows), np.arange(layout.cols), indexing="ij")
    mask = (r == 0) | (r == layout.rows - 1) | (c == 0) | (c == layout.cols - 1)
    return mask.ravel()


def link_probability(model, d_km: np.ndarray) -> np.ndarray:
    if isinstance(model, HardCutoff):
        if model.d0_km <= 0:
            raise ValueError("cutoff distance must be positive")
        return (d_km <= model.d0_km).astype(float)
    if isinstance(model, Exponential):
        if not 0.0 < model.p0 <= 1.0:
            raise ValueError("p0 must lie in (0, 1]")
        if model.lambda_km <= 0:
            raise ValueError("lambda must be positive")
        return model.p0 * np.exp(-d_km / model.lambda_km)
    raise ValueError(f"unknown link model {model!r}")


def bernoulli_network(grid: GridSpec, p: np.ndarray, rng: np.random.Generator) -> Network:
    """Link pair k of np.triu_indices(n, 1) when the k-th double of rng.random is below p[k].

    The doubles come 2^20 at a time, the same doubles as one draw of them all.
    """
    ranks = [c0 + np.flatnonzero(rng.random(p[c0 : c0 + (1 << 20)].size) < p[c0 : c0 + (1 << 20)])
             for c0 in range(0, p.size, 1 << 20)]
    return Network.from_pair_ranks(grid, np.concatenate([np.empty(0, dtype=np.int64), *ranks]))


def gen_embedded_network(spec: SynthNetSpec) -> Network:
    """Random spatially embedded network: per-pair Bernoulli at p(distance)."""
    grid = spec.layout if isinstance(spec.layout, GridSpec) else lattice_grid(spec.layout)
    if grid.n < 3:
        raise ValueError("layout must place at least 3 nodes")
    p = link_probability(spec.link_model, pair_distances(grid))
    return bernoulli_network(grid, p, stream(spec.seed, SYNTH_TAG, 1))


def gen_gridded_values(
    layout: RectLattice,
    n_years: int,
    seed: int,
    season: str = "JJA",
    storm_groups: int = 4,
    storm_rate: float = 0.08,
    wet_prob: float = 0.55,
) -> GriddedSeries:
    """Precipitation-like daily gridded series with synchronized extremes.

    Covers the given season for n_years consecutive years starting 2001.
    Nodes are partitioned into contiguous row bands ("storm groups"); on a
    group's storm days every member draws from a heavy upper tail, which
    yields synchronized threshold exceedances downstream.
    """
    grid = lattice_grid(layout)
    n = grid.n
    months = SEASON_MONTHS[season]
    start = np.datetime64("2001-01-01") - np.datetime64("1970-01-01")
    all_days = int(start / np.timedelta64(1, "D")) + np.arange(n_years * 366 + 40)
    in_season = np.isin(day_index_months(all_days), months)
    limit = np.datetime64(f"{2001 + n_years - 1}-12-31")
    in_range = all_days <= int((limit - np.datetime64("1970-01-01")) / np.timedelta64(1, "D"))
    days = all_days[in_season & in_range].astype(np.int64)
    T = days.size

    rng = stream(seed, SYNTH_TAG, 4)
    wet = rng.random((n, T)) < wet_prob
    values = np.where(wet, rng.gamma(1.2, 4.0, size=(n, T)), 0.0)
    group_of = (np.arange(n) * storm_groups) // n
    for g in range(storm_groups):
        storm_days = rng.random(T) < storm_rate
        members = np.nonzero(group_of == g)[0]
        boost = rng.gamma(4.0, 12.0, size=(members.size, int(storm_days.sum())))
        values[np.ix_(members, np.nonzero(storm_days)[0])] += 30.0 + boost
    return GriddedSeries(grid=grid, days=days, values=values)
