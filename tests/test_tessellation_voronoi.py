"""Unit tests for the bounded Voronoi construction (§5 valid scopes)."""

import random

import numpy as np
import pytest
from scipy.spatial import Voronoi

from repro.datasets.catalog import hospital_dataset, park_dataset, uniform_dataset
from repro.errors import SubdivisionError
from repro.geometry.clipping import clip_polygon_rect
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.tessellation import voronoi as voronoi_mod
from repro.tessellation.voronoi import (
    _mirror_sites,
    bounded_voronoi,
    nearest_site,
    voronoi_subdivision,
)

AREA = Rect(0, 0, 1, 1)


def clip_every_cell(sites, area):
    """The cells with every ring sent through ``clip_polygon_rect``."""
    coords = np.array([[p.x, p.y] for p in sites], dtype=float)
    vor = Voronoi(np.vstack([coords, _mirror_sites(coords, area)]))
    return [
        clip_polygon_rect(
            [Point(*vor.vertices[j]) for j in vor.regions[vor.point_region[i]]],
            area,
        )
        for i in range(len(sites))
    ]


def _random_sites(seed, area, n):
    rng = random.Random(seed)
    sites = [
        Point(rng.uniform(area.min_x, area.max_x), rng.uniform(area.min_y, area.max_y))
        for _ in range(n)
    ]
    # Sites on the border put Voronoi vertices on it, within EPS of it.
    sites.append(Point(area.min_x, rng.uniform(area.min_y, area.max_y)))
    sites.append(Point(rng.uniform(area.min_x, area.max_x), area.max_y))
    return sites


SITE_SETS = {
    "UNIFORM": lambda: (uniform_dataset().points, AREA),
    "PARK": lambda: (park_dataset().points, AREA),
    "HOSPITAL": lambda: (hospital_dataset().points, AREA),
    "random-unit": lambda: (_random_sites(1, AREA, 200), AREA),
    "random-offset": lambda: (
        _random_sites(2, Rect(-2.0, 1.0, 3.0, 2.5), 150),
        Rect(-2.0, 1.0, 3.0, 2.5),
    ),
}


@pytest.mark.parametrize("name", sorted(SITE_SETS))
def test_unclipped_cells_match_the_clipped_ring(name, monkeypatch):
    """A cell whose vertices all pass the four half-plane tests skips the
    clipping and comes out with the same vertices."""
    sites, area = SITE_SETS[name]()
    clipped = []

    def spy(ring, rect):
        clipped.append(len(ring))
        return clip_polygon_rect(ring, rect)

    monkeypatch.setattr(voronoi_mod, "clip_polygon_rect", spy)
    got = bounded_voronoi(sites, area)
    want = clip_every_cell(sites, area)
    assert [c.vertices for c in got] == [c.vertices for c in want]
    assert len(clipped) < len(sites)
    if name.startswith("random"):
        assert clipped  # border sites leave vertices for the clipping


class TestBoundedVoronoi:
    def test_two_sites(self):
        cells = bounded_voronoi([Point(0.25, 0.5), Point(0.75, 0.5)], AREA)
        assert len(cells) == 2
        assert cells[0].area == pytest.approx(0.5)
        assert cells[1].area == pytest.approx(0.5)

    def test_cells_are_clipped_to_area(self):
        cells = bounded_voronoi(
            [Point(0.1, 0.1), Point(0.9, 0.9), Point(0.5, 0.5)], AREA
        )
        for cell in cells:
            bb = cell.bbox
            assert bb.min_x >= -1e-9 and bb.max_x <= 1 + 1e-9
            assert bb.min_y >= -1e-9 and bb.max_y <= 1 + 1e-9

    def test_cells_tile_the_area(self):
        rng = random.Random(2)
        sites = [Point(rng.random(), rng.random()) for _ in range(25)]
        cells = bounded_voronoi(sites, AREA)
        assert sum(c.area for c in cells) == pytest.approx(AREA.area)

    def test_each_cell_contains_its_site(self):
        rng = random.Random(4)
        sites = [Point(rng.random(), rng.random()) for _ in range(30)]
        for site, cell in zip(sites, bounded_voronoi(sites, AREA)):
            assert cell.contains_point(site)

    def test_needs_two_sites(self):
        with pytest.raises(SubdivisionError):
            bounded_voronoi([Point(0.5, 0.5)], AREA)

    def test_site_outside_area_rejected(self):
        with pytest.raises(SubdivisionError):
            bounded_voronoi([Point(0.5, 0.5), Point(2, 2)], AREA)


class TestVoronoiSubdivision:
    def test_region_ids_are_site_indices(self, voronoi60, voronoi60_sites):
        for i, site in enumerate(voronoi60_sites):
            assert voronoi60.region(i).contains(site)

    def test_passes_validation(self, voronoi60):
        voronoi60.validate(samples=500)

    def test_locate_agrees_with_nearest_neighbour(
        self, voronoi60, voronoi60_sites
    ):
        # The defining property of a Voronoi valid scope: the containing
        # region's site is the nearest neighbour.
        rng = random.Random(8)
        for _ in range(300):
            p = voronoi60.random_point(rng)
            rid = voronoi60.locate(p)
            nn, _ = nearest_site(voronoi60_sites, p)
            assert rid == nn


class TestNearestSite:
    def test_basic(self):
        sites = [Point(0, 0), Point(1, 0), Point(0, 1)]
        idx, dist = nearest_site(sites, Point(0.9, 0.1))
        assert idx == 1
        assert dist == pytest.approx(Point(0.9, 0.1).distance_to(Point(1, 0)))
