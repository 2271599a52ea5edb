import numpy as np
import pytest

from gridsync.grid_io import GridSpec
from gridsync.netmetrics import Network


def random_grid(n, seed, lat_range=(20.0, 50.0), lon_range=(-120.0, -70.0)) -> GridSpec:
    rng = np.random.default_rng(seed)
    return GridSpec(
        lat=rng.uniform(*lat_range, n),
        lon=rng.uniform(*lon_range, n),
    )


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
