"""Tests for the query-workload generators (extension)."""

import collections
import random

import numpy as np
import pytest

from repro.datasets.catalog import uniform_dataset
from repro.errors import ReproError
from repro.geometry.point import Point
from repro.workload.generators import _point_in_polygon
from repro.workload import (
    hotspot_workload,
    uniform_workload,
    zipf_region_workload,
)


class TestUniformWorkload:
    def test_size_and_bounds(self, voronoi60):
        wl = uniform_workload(voronoi60, 200, seed=1)
        assert len(wl) == 200
        area = voronoi60.service_area
        assert all(area.contains_point(p) for p in wl.points)

    def test_deterministic(self, voronoi60):
        a = uniform_workload(voronoi60, 50, seed=3)
        b = uniform_workload(voronoi60, 50, seed=3)
        assert a.points == b.points

    def test_empty_rejected(self, voronoi60):
        with pytest.raises(ReproError):
            uniform_workload(voronoi60, 0)


class TestHotspotWorkload:
    def test_concentrates_near_center(self, voronoi60):
        wl = hotspot_workload(
            voronoi60, 300, centers=[(0.5, 0.5)], spread=0.05, seed=2
        )
        near = sum(
            1
            for p in wl.points
            if (p.x - 0.5) ** 2 + (p.y - 0.5) ** 2 < 0.15 ** 2
        )
        assert near > 0.85 * len(wl)

    def test_all_in_area(self, voronoi60):
        wl = hotspot_workload(
            voronoi60, 200, centers=[(0.02, 0.02)], spread=0.2, seed=4
        )
        area = voronoi60.service_area
        assert all(area.contains_point(p) for p in wl.points)

    def test_needs_centers(self, voronoi60):
        with pytest.raises(ReproError):
            hotspot_workload(voronoi60, 10, centers=[])


class TestZipfWorkload:
    def test_points_land_in_popular_regions(self, voronoi60):
        wl = zipf_region_workload(voronoi60, 600, theta=1.2, seed=5)
        counts = collections.Counter(voronoi60.locate(p) for p in wl.points)
        # Rank-0 region must dominate a deep-tail region.
        top = counts.get(voronoi60.region_ids[0], 0)
        tail = counts.get(voronoi60.region_ids[-1], 0)
        assert top > 4 * max(tail, 1)

    def test_theta_zero_spreads_queries(self, voronoi60):
        wl = zipf_region_workload(voronoi60, 600, theta=0.0, seed=6)
        counts = collections.Counter(voronoi60.locate(p) for p in wl.points)
        # With theta=0 every region has equal probability; at 10 per
        # region on average no region should exceed ~4x its share.
        assert max(counts.values()) <= 40

    def test_region_order_override(self, voronoi60):
        reversed_order = list(reversed(voronoi60.region_ids))
        wl = zipf_region_workload(
            voronoi60, 400, theta=1.5, seed=7, region_order=reversed_order
        )
        counts = collections.Counter(voronoi60.locate(p) for p in wl.points)
        assert counts.get(reversed_order[0], 0) > counts.get(
            reversed_order[-1], 0
        )

    def test_invalid_order_rejected(self, voronoi60):
        with pytest.raises(ReproError):
            zipf_region_workload(voronoi60, 10, region_order=[1, 2, 3])

    def test_negative_theta_rejected(self, voronoi60):
        with pytest.raises(ReproError):
            zipf_region_workload(voronoi60, 10, theta=-1)


class TestWorkloadsDriveMetrics:
    def test_evaluate_index_accepts_any_workload(self, voronoi60):
        from repro.broadcast.metrics import evaluate_index
        from repro.broadcast.params import SystemParameters
        from repro.core.dtree import DTree
        from repro.core.paging import PagedDTree

        params = SystemParameters.for_index("dtree", 256)
        paged = PagedDTree(DTree.build(voronoi60), params)
        for wl in (
            uniform_workload(voronoi60, 100, seed=1),
            hotspot_workload(voronoi60, 100, centers=[(0.3, 0.3)], seed=1),
            zipf_region_workload(voronoi60, 100, seed=1),
        ):
            metrics = evaluate_index(
                paged, voronoi60.region_ids, params, wl.points, seed=2
            )
            assert metrics.queries == 100
            assert metrics.mean_index_tuning >= 1.0


class TestRejectionSamplerStreamCompat:
    """_point_in_polygon classifies via the compiled kernel; the
    random.Random draw stream must be unchanged from the historical
    scalar-geometry implementation."""

    @staticmethod
    def _reference(polygon, rng):
        # The pre-kernel implementation, verbatim.
        bb = polygon.bbox
        for _ in range(10000):
            p = Point(
                rng.uniform(bb.min_x, bb.max_x),
                rng.uniform(bb.min_y, bb.max_y),
            )
            if polygon.contains_point(p, include_boundary=False):
                return p
        raise RuntimeError("rejection sampling failed")

    def test_stream_identical_to_scalar_implementation(self):
        sub = uniform_dataset(n=24, seed=3).subdivision
        r_new, r_old = random.Random(17), random.Random(17)
        for region in sub.regions[:10]:
            for _ in range(5):
                a = _point_in_polygon(region.polygon, r_new)
                b = self._reference(region.polygon, r_old)
                assert (a.x, a.y) == (b.x, b.y)
        # Not just the same points: the same number of draws consumed.
        assert r_new.getstate() == r_old.getstate()

    def test_zipf_workload_unchanged(self):
        sub = uniform_dataset(n=24, seed=3).subdivision
        a = zipf_region_workload(sub, 120, seed=19)
        b = zipf_region_workload(sub, 120, seed=19)
        assert [(p.x, p.y) for p in a.points] == [
            (p.x, p.y) for p in b.points
        ]

    def test_numpy_generator_batched_path(self):
        sub = uniform_dataset(n=24, seed=3).subdivision
        g = np.random.default_rng(23)
        for region in sub.regions[:10]:
            p = _point_in_polygon(region.polygon, g)
            assert region.polygon.contains_point(p, include_boundary=False)
