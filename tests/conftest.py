import numpy as np
import pytest

from gridsync.grid_io import GridSpec
from gridsync.netmetrics import Network
from gridsync.synth import RectLattice, lattice_grid


def random_grid(n, seed, lat_range=(20.0, 50.0), lon_range=(-120.0, -70.0)) -> GridSpec:
    rng = np.random.default_rng(seed)
    return GridSpec(
        lat=rng.uniform(*lat_range, n),
        lon=rng.uniform(*lon_range, n),
    )


def shared_coordinate_grid(name: str) -> GridSpec:
    """Grids whose nodes share latitudes or longitudes, or do not, on both paths of the pair pass."""
    rng = np.random.default_rng(17)
    lattice = lattice_grid(RectLattice(rows=33, cols=33, spacing_km=50.0))
    if name == "lattice":  # 33 latitudes and 33 longitudes, row by row
        return lattice
    if name == "shuffled-lattice":  # the same values, each spread over the whole node order
        order = rng.permutation(lattice.n)
        return GridSpec(lat=lattice.lat[order], lon=lattice.lon[order])
    if name == "jittered-lattice":  # every coordinate distinct
        return GridSpec(lat=lattice.lat + rng.uniform(-0.1, 0.1, lattice.n),
                        lon=lattice.lon + rng.uniform(-0.1, 0.1, lattice.n))
    if name == "shared-latitudes":  # 3 latitudes, every longitude distinct
        return GridSpec(lat=rng.choice([30.0, 35.5, 41.25], 900), lon=rng.uniform(-120.0, -70.0, 900))
    if name == "ragged-latlon":  # the 1-degree cells of a CONUS box, rows of differing length
        lat, lon = np.meshgrid(np.arange(24.5, 50.0), np.arange(-124.5, -66.0), indexing="ij")
        keep = rng.random(lat.shape) < 0.53
        return GridSpec(lat=lat[keep], lon=lon[keep])
    if name == "n-2":
        return GridSpec(lat=[40.0, 40.0], lon=[-100.0, -99.0])
    assert name == "n-3"
    return GridSpec(lat=[40.0, 41.0, 40.0], lon=[-100.0, -100.0, -99.0])


SHARED_COORDINATE_GRIDS = ("lattice", "shuffled-lattice", "ragged-latlon", "jittered-lattice", "shared-latitudes",
                           "n-2", "n-3")


def random_network(n, density, seed) -> Network:
    rng = np.random.default_rng(seed)
    grid = random_grid(n, seed + 10_000)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < density
    return Network.from_edges(grid, np.stack([iu[mask], ju[mask]], axis=1))


def random_events(T, rate, rng) -> np.ndarray:
    """One node's deduplicated bool event row over T consecutive days."""
    events = rng.random(T) < rate
    events[1:] &= ~events[:-1]
    return events


def dense_adjacency(net: Network) -> np.ndarray:
    a = np.zeros((net.n, net.n), dtype=bool)
    e = net.edge_array()
    a[e[:, 0], e[:, 1]] = a[e[:, 1], e[:, 0]] = True
    return a


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
