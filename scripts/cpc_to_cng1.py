#!/usr/bin/env python3
"""Convert CPC gridded daily NetCDF files to the CNG1 binary format.

Reads one or more NetCDF files (e.g. precip.YYYY.nc from the CPC global
daily archive), selects a lat/lon box, drops all-missing cells, and writes
one CNG1 file covering the concatenated time range. Requires xarray +
netCDF4, which are not dependencies of the package itself.

Example:
    python scripts/cpc_to_cng1.py precip.199*.nc precip.20*.nc \
        --var precip --lat-min 24 --lat-max 50 --lon-min -125 --lon-max -66 \
        --out cpc_conus.cng1
"""

import argparse
import sys

import numpy as np

from gridsync.grid_io import GriddedSeries, GridSpec, write_gridded


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("files", nargs="+", help="input NetCDF files, chronological")
    ap.add_argument("--var", default="precip", help="NetCDF variable name")
    ap.add_argument("--lat-min", type=float, default=24.0)
    ap.add_argument("--lat-max", type=float, default=50.0)
    ap.add_argument("--lon-min", type=float, default=-125.0)
    ap.add_argument("--lon-max", type=float, default=-66.0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    try:
        import xarray as xr
    except ImportError:
        print("this converter needs xarray (pip install xarray netCDF4)", file=sys.stderr)
        return 1

    ds = xr.open_mfdataset(args.files, combine="by_coords")
    da = ds[args.var]
    # CPC files use 0..360 longitudes; normalize to -180..180
    lon = da["lon"].values
    if lon.max() > 180.0:
        da = da.assign_coords(lon=(((lon + 180.0) % 360.0) - 180.0)).sortby("lon")
    da = da.sel(
        lat=slice(args.lat_min, args.lat_max)
        if da["lat"].values[0] < da["lat"].values[-1]
        else slice(args.lat_max, args.lat_min),
        lon=slice(args.lon_min, args.lon_max),
    )
    values = da.transpose("lat", "lon", "time").values  # (nlat, nlon, ndays)
    lats = da["lat"].values
    lons = da["lon"].values
    epoch = np.datetime64("1970-01-01")
    days = ((da["time"].values.astype("datetime64[D]") - epoch) / np.timedelta64(1, "D")).astype(
        np.int64
    )

    latg, long_ = np.meshgrid(lats, lons, indexing="ij")
    flat = values.reshape(-1, days.size)
    keep = ~np.isnan(flat).all(axis=1)  # drop ocean / all-missing cells
    grid = GridSpec(lat=latg.ravel()[keep], lon=long_.ravel()[keep])
    gs = GriddedSeries(grid=grid, days=days, values=flat[keep])
    write_gridded(gs, args.out)
    print(f"wrote {args.out}: {gs.n_nodes} nodes x {gs.n_days} days", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
