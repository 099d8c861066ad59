"""Shared fixtures: small subdivisions built once per test session."""

import random

import pytest

from repro.datasets.catalog import SERVICE_AREA
from repro.datasets.generators import uniform_points, clustered_points
from repro.tessellation.grid import grid_subdivision
from repro.tessellation.voronoi import voronoi_subdivision


@pytest.fixture(autouse=True)
def _reset_obs_collector():
    """Guarantee no test inherits (or leaks) an installed obs collector.

    The ``repro.obs`` handle is module-global ambient state; a test that
    installs a collector and fails before uninstalling would silently
    change every later test's instrumented code path.  Save/clear before
    and hard-restore after, so test order can never matter.
    """
    from repro.obs import collector as obs_collector

    previous = obs_collector._ACTIVE
    obs_collector._ACTIVE = None
    yield
    obs_collector._ACTIVE = previous


@pytest.fixture(scope="session")
def grid4x4():
    """4x4 grid subdivision (closed-form answers)."""
    return grid_subdivision(4, 4)


@pytest.fixture(scope="session")
def grid3x5():
    """Non-square grid subdivision."""
    return grid_subdivision(3, 5)


@pytest.fixture(scope="session")
def voronoi60():
    """60-region uniform Voronoi subdivision — the standard workload."""
    sites = uniform_points(60, seed=11, service_area=SERVICE_AREA)
    return voronoi_subdivision(sites, SERVICE_AREA)


@pytest.fixture(scope="session")
def voronoi60_sites():
    return uniform_points(60, seed=11, service_area=SERVICE_AREA)


@pytest.fixture(scope="session")
def voronoi_odd():
    """Odd region count (exercises the 8-style partition enumeration)."""
    sites = uniform_points(37, seed=5, service_area=SERVICE_AREA)
    return voronoi_subdivision(sites, SERVICE_AREA)


@pytest.fixture(scope="session")
def clustered40():
    """Small clustered subdivision (skewed region sizes)."""
    sites = clustered_points(
        40,
        seed=9,
        cluster_centers=[(0.2, 0.2), (0.7, 0.6)],
        cluster_spread=0.08,
        service_area=SERVICE_AREA,
    )
    return voronoi_subdivision(sites, SERVICE_AREA)


def random_points_in(subdivision, n, seed=0):
    """Uniform random query points inside a subdivision's service area."""
    rng = random.Random(seed)
    return [subdivision.random_point(rng) for _ in range(n)]


def set_dtree_span(paged, row, packets):
    """Re-point tree row *row* of a paged D-tree at *packets* (the
    broken broadcast orders the tracer tests feed the compiler)."""
    start = paged.span_start
    lo, hi = start[row], start[row + 1]
    paged.span_packets[lo:hi] = packets
    start[row + 1 :] = [s + len(packets) - (hi - lo) for s in start[row + 1 :]]
