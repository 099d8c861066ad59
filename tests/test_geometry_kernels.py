"""Kernel-vs-scalar parity tests for repro.geometry.kernels.

The kernel layer's contract is bit-for-bit agreement with the scalar
predicates — including the adversarial configurations where tolerance
semantics bite: points exactly on edges and vertices, horizontal edges
crossing the test ray, collinear edge chains and degenerate thin
polygons.  Every test here compares a vectorized answer element-wise
against a loop over the scalar counterpart.
"""

import math
import random
from typing import List, Optional, Tuple

import numpy as np
import pytest

from repro.errors import QueryError
from repro.geometry import kernels
from repro.geometry.kernels import (
    CompiledPolygon,
    CompiledSubdivision,
    mbrs_contain_batch,
    on_segment_batch,
    orientation_batch,
    point_coords,
    points_in_polygon,
    rect_contains_batch,
)
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.predicates import on_segment, orientation
from repro.geometry.rect import Rect
from repro.tessellation.subdivision import DataRegion, Subdivision

from tests.conftest import random_points_in


SIDE_FIRST = np.int8(1)
SIDE_SECOND = np.int8(2)


class CompiledPartition:
    """One D-tree partition flattened to arrays — its dimension, D1/D3
    bounds, described side and polyline segments ``ax/ay -> bx/by`` —
    with a batched side test: the per-partition oracle of
    :meth:`Partition.side_of` — the D1/D3 exclusive-zone comparisons
    first, then the ray-parity test for the interlocking zone D2, the
    crossing abscissa computed by the scalar expression verbatim.  The
    D-tree tracer runs its own level-wide side test over the compiled
    tree's arrays."""

    __slots__ = (
        "dim_y",
        "first_bound",
        "second_bound",
        "described_first",
        "ax",
        "ay",
        "bx",
        "by",
    )

    def __init__(self, partition) -> None:
        self.dim_y = partition.dimension == "y"
        self.first_bound = partition.first_bound
        self.second_bound = partition.second_bound
        self.described_first = partition.style.described == "first"
        ax: List[float] = []
        ay: List[float] = []
        bx: List[float] = []
        by: List[float] = []
        for polyline in partition.polylines:
            for a, b in polyline.segment_endpoints():
                ax.append(a.x)
                ay.append(a.y)
                bx.append(b.x)
                by.append(b.y)
        self.ax = np.asarray(ax, np.float64)
        self.ay = np.asarray(ay, np.float64)
        self.bx = np.asarray(bx, np.float64)
        self.by = np.asarray(by, np.float64)

    def sides(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(sides, interlocked)`` for a point batch.

        ``sides`` holds 1 (first subspace) or 2 (second) per point;
        ``interlocked`` marks the points that fell in the interlocking
        zone D2 and needed the full parity test (None when no point
        did).
        """
        first, interlocked = self.first_side(xs, ys)
        out = np.where(first, SIDE_FIRST, SIDE_SECOND)
        return out, interlocked

    def first_side(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Boolean form of :meth:`sides`: ``(in_first, interlocked)``.

        Same decisions, but without materialising the int8 side codes.
        """
        first, interlocked = self.early_first(xs, ys)
        if interlocked is not None:
            first[interlocked] = self._parity_first(
                xs[interlocked], ys[interlocked]
            )
        return first, interlocked

    def early_first(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The D1/D3 exclusive-zone step alone: ``(in_first, interlocked)``.

        Points flagged ``interlocked`` fell in D2 and still need the
        ray-parity test (their ``in_first`` entry is meaningless until
        then); :meth:`first_side` resolves them with :meth:`_parity_first`.
        """
        if self.dim_y:
            first = xs <= self.first_bound
            # ~(first | second) written directly: past the first bound
            # but short of the second one.
            interlocked = ~first & (xs < self.second_bound)
        else:
            first = ys >= self.first_bound
            interlocked = ~first & (ys > self.second_bound)
        if not interlocked.any():
            return first, None
        return first, interlocked

    def _parity_first(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Ray-parity membership in the first subspace for D2 points."""
        ax = self.ax[:, None]
        ay = self.ay[:, None]
        bx = self.bx[:, None]
        by = self.by[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.dim_y:
                cond = (ay > ys) != (by > ys)
                t_at = ax + (ys - ay) / (by - ay) * (bx - ax)
                hit = cond & ((t_at > xs) if self.described_first else (t_at < xs))
            else:
                cond = (ax > xs) != (bx > xs)
                t_at = ay + (xs - ax) / (bx - ax) * (by - ay)
                hit = cond & ((t_at < ys) if self.described_first else (t_at > ys))
        odd = hit.sum(axis=0) % 2 == 1
        return odd if self.described_first else ~odd


def adversarial_points(subdivision, max_regions=30):
    """Region vertices and edge midpoints inside the service area — the
    boundary/vertex configurations where tolerance semantics matter."""
    out = []
    for region in subdivision.regions[:max_regions]:
        vs = region.polygon.vertices
        for i, v in enumerate(vs):
            w = vs[(i + 1) % len(vs)]
            for p in (v, Point((v.x + w.x) / 2, (v.y + w.y) / 2)):
                if subdivision.service_area.contains_point(p):
                    out.append(p)
    return out


class TestPointCoords:
    def test_round_trip(self):
        pts = [Point(0.25, -1.5), Point(3.0, 0.0)]
        xs, ys = point_coords(pts)
        assert xs.tolist() == [0.25, 3.0]
        assert ys.tolist() == [-1.5, 0.0]
        assert xs.dtype == np.float64 and ys.dtype == np.float64


class TestOrientationBatch:
    def test_matches_scalar_on_random_and_collinear_triples(self):
        rng = random.Random(4)
        triples = []
        for _ in range(300):
            a = Point(rng.uniform(0, 1), rng.uniform(0, 1))
            b = Point(rng.uniform(0, 1), rng.uniform(0, 1))
            c = Point(rng.uniform(0, 1), rng.uniform(0, 1))
            triples.append((a, b, c))
            # Exactly collinear: c on the line through a-b.
            t = rng.uniform(-1, 2)
            triples.append(
                (a, b, Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
            )
            # Degenerate: coincident points.
            triples.append((a, a, b))
        arrays = [
            np.array(coords, np.float64)
            for coords in zip(
                *[(a.x, a.y, b.x, b.y, c.x, c.y) for a, b, c in triples]
            )
        ]
        batch = orientation_batch(*arrays)
        scalar = [orientation(a, b, c) for a, b, c in triples]
        assert batch.tolist() == scalar


class TestOnSegmentBatch:
    def test_matches_scalar_including_endpoints_and_near_misses(self):
        rng = random.Random(5)
        cases = []
        for _ in range(200):
            a = Point(rng.uniform(0, 1), rng.uniform(0, 1))
            b = Point(rng.uniform(0, 1), rng.uniform(0, 1))
            t = rng.uniform(-0.5, 1.5)
            on_line = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
            off = Point(on_line.x + rng.uniform(-1e-8, 1e-8), on_line.y + 2e-9)
            cases += [(p, a, b) for p in (a, b, on_line, off)]
        px, py, ax, ay, bx, by = (
            np.array(coords, np.float64)
            for coords in zip(
                *[(p.x, p.y, a.x, a.y, b.x, b.y) for p, a, b in cases]
            )
        )
        batch = on_segment_batch(px, py, ax, ay, bx, by)
        scalar = [on_segment(p, a, b) for p, a, b in cases]
        assert batch.tolist() == scalar


class TestRectKernels:
    def test_rect_contains_matches_scalar(self):
        rect = Rect(0.25, 0.25, 0.75, 0.75)
        rng = random.Random(6)
        pts = [Point(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(100)]
        pts += [Point(0.25, 0.5), Point(0.75, 0.75), Point(0.25, 0.25)]
        xs, ys = point_coords(pts)
        batch = rect_contains_batch(rect, xs, ys)
        assert batch.tolist() == [rect.contains_point(p) for p in pts]

    def test_mbrs_contain_matrix_matches_scalar(self):
        rects = [
            Rect(0.0, 0.0, 0.5, 0.5),
            Rect(0.5, 0.5, 1.0, 1.0),
            Rect(0.2, 0.0, 0.4, 1.0),
        ]
        pts = [Point(0.5, 0.5), Point(0.3, 0.9), Point(0.0, 0.0)]
        xs, ys = point_coords(pts)
        matrix = mbrs_contain_batch(
            np.array([r.min_x for r in rects]),
            np.array([r.min_y for r in rects]),
            np.array([r.max_x for r in rects]),
            np.array([r.max_y for r in rects]),
            xs,
            ys,
        )
        assert matrix.shape == (3, 3)
        for i, r in enumerate(rects):
            assert matrix[i].tolist() == [r.contains_point(p) for p in pts]


class TestCompiledPolygon:
    @pytest.fixture(
        params=["square", "thin", "collinear_chain", "concave"]
    )
    def polygon(self, request):
        if request.param == "square":
            return Polygon(
                [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]
            )
        if request.param == "thin":
            # Degenerate sliver: height 1e-8, barely above the zero-area
            # constructor cutoff, every interior point within EPS of an
            # edge.
            return Polygon([Point(0, 0), Point(1, 0), Point(1, 1e-8)])
        if request.param == "collinear_chain":
            # Collinear vertices along the bottom edge.
            return Polygon(
                [
                    Point(0, 0),
                    Point(0.25, 0),
                    Point(0.5, 0),
                    Point(1, 0),
                    Point(1, 1),
                    Point(0, 1),
                ]
            )
        # Concave with a horizontal notch (horizontal edges cross the ray).
        return Polygon(
            [
                Point(0, 0),
                Point(1, 0),
                Point(1, 1),
                Point(0.6, 1),
                Point(0.6, 0.5),
                Point(0.4, 0.5),
                Point(0.4, 1),
                Point(0, 1),
            ]
        )

    def probes(self, polygon):
        rng = random.Random(7)
        bbox = polygon.bbox
        pts = [
            Point(
                rng.uniform(bbox.min_x - 0.1, bbox.max_x + 0.1),
                rng.uniform(bbox.min_y - 0.1, bbox.max_y + 0.1),
            )
            for _ in range(200)
        ]
        vs = polygon.vertices
        for i, v in enumerate(vs):
            w = vs[(i + 1) % len(vs)]
            pts += [v, Point((v.x + w.x) / 2, (v.y + w.y) / 2)]
            # Ray through the vertex: same y, to the left of the polygon.
            pts.append(Point(bbox.min_x - 0.05, v.y))
        return pts

    def test_contains_batch_matches_scalar(self, polygon):
        pts = self.probes(polygon)
        compiled = polygon.compiled()
        xs, ys = point_coords(pts)
        for include in (True, False):
            batch = compiled.contains_batch(xs, ys, include_boundary=include)
            scalar = [
                polygon.contains_point(p, include_boundary=include)
                for p in pts
            ]
            assert batch.tolist() == scalar

    def test_classify_matches_classify_point(self, polygon):
        pts = self.probes(polygon)
        xs, ys = point_coords(pts)
        interior, boundary = polygon.compiled().classify_batch(xs, ys)
        codes = np.zeros(len(pts), np.int64)
        codes[boundary] = 1
        codes[interior] = 2
        assert codes.tolist() == [polygon.classify_point(p) for p in pts]

    def test_area_is_bit_equal(self, polygon):
        assert polygon.compiled().area == polygon.area

    def test_points_in_polygon_helper(self, polygon):
        pts = self.probes(polygon)
        batch = points_in_polygon(polygon, pts)
        assert batch.tolist() == [polygon.contains_point(p) for p in pts]

    def test_compiled_is_cached(self, polygon):
        assert polygon.compiled() is polygon.compiled()

    def test_compiled_invalidates_on_ring_replacement(self):
        """The cache is keyed by ring identity: replacing ``vertices``
        (the one structural mutation a Polygon admits — the dynamic
        layer's reshape path) must recompile."""
        poly = Polygon([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])
        before = poly.compiled()
        poly.vertices = tuple(
            [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
        )
        after = poly.compiled()
        assert after is not before
        assert after is poly.compiled()  # and the new form is cached
        probe = np.array([1.5]), np.array([1.5])
        assert not before.contains_batch(*probe)[0]
        assert after.contains_batch(*probe)[0]


class TestCompiledPartition:
    @pytest.fixture(scope="class")
    def dtree(self, voronoi60):
        from repro.engine import index_family

        return index_family("dtree").build(voronoi60, seed=3)

    def test_sides_match_side_of_everywhere(self, dtree, voronoi60):
        points = random_points_in(voronoi60, 150, seed=8)
        points += adversarial_points(voronoi60)
        xs, ys = point_coords(points)
        checked_d2 = 0
        for partition in dtree.partition:
            compiled = CompiledPartition(partition)
            sides, interlocked = compiled.sides(xs, ys)
            scalar = [partition.side_of(p) for p in points]
            assert sides.tolist() == [
                1 if s == "first" else 2 for s in scalar
            ]
            early = [partition.early_side_of(p) for p in points]
            expected_d2 = np.array([e is None for e in early])
            if interlocked is None:
                assert not expected_d2.any()
            else:
                assert interlocked.tolist() == expected_d2.tolist()
                checked_d2 += int(expected_d2.sum())
        assert checked_d2 > 0  # the datasets must exercise the parity path


class TestCompiledSubdivision:
    @pytest.fixture(
        params=["voronoi60", "grid4x4", "clustered40"], scope="class"
    )
    def subdivision(self, request):
        return request.getfixturevalue(request.param)

    def test_locate_batch_matches_locate(self, subdivision):
        points = random_points_in(subdivision, 300, seed=9)
        points += adversarial_points(subdivision)
        batch = subdivision.locate_batch(points)
        assert batch.tolist() == [subdivision.locate(p) for p in points]

    def test_locate_coords_without_points(self, subdivision):
        points = random_points_in(subdivision, 50, seed=10)
        xs, ys = point_coords(points)
        ids = subdivision.compiled().locate_coords(xs, ys)
        assert ids.tolist() == [subdivision.locate(p) for p in points]

    def test_compiled_is_cached(self, subdivision):
        assert subdivision.compiled() is subdivision.compiled()

    def test_region_areas_bit_equal(self, subdivision):
        compiled = subdivision.compiled()
        by_id = compiled.area_by_id()
        for region in subdivision.regions:
            assert by_id[region.region_id] == region.polygon.area

    def test_compiled_invalidates_on_polygon_replacement(self):
        """Swapping one region's polygon (the dynamic layer's reshape
        path) must not keep serving the pre-mutation compiled form."""
        from repro.tessellation.grid import grid_subdivision

        sub = grid_subdivision(2, 2)
        before = sub.compiled()
        region = sub.regions[0]
        region.polygon = Polygon(list(region.polygon.vertices))
        after = sub.compiled()
        assert after is not before
        assert after is sub.compiled()

    def test_compiled_invalidates_on_ring_replacement(self):
        from repro.tessellation.grid import grid_subdivision

        sub = grid_subdivision(2, 2)
        before = sub.compiled()
        poly = sub.regions[0].polygon
        poly.vertices = tuple(list(poly.vertices))  # same values, new ring
        assert sub.compiled() is not before


class TestLocateTieBreak:
    """Regression for the single-pass :meth:`Subdivision.locate` rewrite:
    boundary points must still resolve to the lowest region id, and the
    batched kernel must agree."""

    def test_shared_edge_resolves_to_lowest_id(self, grid4x4):
        # Interior grid line points are on the boundary of 2 regions,
        # grid line crossings on the boundary of 4.
        probes = []
        for k in range(1, 4):
            probes.append(Point(k / 4, 0.37))  # vertical shared edges
            probes.append(Point(0.37, k / 4))  # horizontal shared edges
            probes.append(Point(k / 4, k / 4))  # shared corners
        for p in probes:
            owners = [
                r.region_id
                for r in grid4x4.regions
                if r.polygon.classify_point(p) >= 1
            ]
            assert len(owners) >= 2  # genuinely ambiguous
            assert grid4x4.locate(p) == min(owners)
        batch = grid4x4.locate_batch(probes)
        assert batch.tolist() == [grid4x4.locate(p) for p in probes]

    def test_interior_hit_beats_earlier_boundary_hit(self):
        # Overlapping squares (the constructor does not enforce
        # disjointness): region 0's right edge passes through region 1's
        # interior.  A point on that edge is a *boundary* hit for region
        # 0 and an *interior* hit for region 1 — the single-pass scan
        # must not stop at the earlier boundary hit.
        left = Polygon([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])
        right = Polygon(
            [Point(0.5, 0), Point(1.5, 0), Point(1.5, 1), Point(0.5, 1)]
        )
        sub = Subdivision(
            [DataRegion(0, left), DataRegion(1, right)], Rect(0, 0, 1.5, 1)
        )
        on_left_edge = Point(1.0, 0.5)
        assert left.classify_point(on_left_edge) == 1
        assert right.classify_point(on_left_edge) == 2
        assert sub.locate(on_left_edge) == 1  # interior beats boundary
        # Interior to both: first in scan order wins.
        both = Point(0.75, 0.5)
        assert sub.locate(both) == 0
        # Boundary of the later region, interior of the earlier one.
        on_right_edge = Point(0.5, 0.3)
        assert sub.locate(on_right_edge) == 0
        assert sub.locate_batch(
            [on_left_edge, both, on_right_edge]
        ).tolist() == [1, 0, 0]


class TestLocateErrors:
    def test_outside_service_area(self, grid4x4):
        outside = Point(1.5, 0.5)
        with pytest.raises(QueryError, match="outside the service area"):
            grid4x4.locate(outside)
        with pytest.raises(QueryError, match="outside the service area"):
            grid4x4.locate_batch([Point(0.5, 0.5), outside])

    def test_uncovered_point(self):
        # One triangular region in a square service area: the other half
        # of the square is not covered by any region.
        triangle = Polygon([Point(0, 0), Point(1, 0), Point(0, 1)])
        sub = Subdivision([DataRegion(7, triangle)], Rect(0, 0, 1, 1))
        uncovered = Point(0.9, 0.9)
        with pytest.raises(QueryError, match="not covered by any region"):
            sub.locate(uncovered)
        with pytest.raises(QueryError, match="not covered by any region"):
            sub.locate_batch([uncovered])
        assert sub.locate_batch([Point(0.2, 0.2)]).tolist() == [7]


class TestRandomPoints:
    def test_python_rng_stream_is_unchanged(self, voronoi60):
        # random.Random consumers must see the exact historical stream.
        a = voronoi60.random_points(25, random.Random(21))
        rng = random.Random(21)
        b = [voronoi60.random_point(rng) for _ in range(25)]
        assert [(p.x, p.y) for p in a] == [(p.x, p.y) for p in b]

    def test_numpy_generator_fast_path(self, voronoi60):
        pts = voronoi60.random_points(64, np.random.default_rng(3))
        assert len(pts) == 64
        assert all(
            voronoi60.service_area.contains_point(p) for p in pts
        )


class TestGridPruning:
    def test_grid_cells_cover_every_bbox_hit(self, voronoi60):
        # The candidate grid may only prune: every region whose closed
        # bbox contains a point must be listed in the point's cell.
        compiled = voronoi60.compiled()
        grid = compiled.grid_size
        area = compiled.service_area
        rng = random.Random(12)
        for _ in range(200):
            p = voronoi60.random_point(rng)
            cx = min(
                max(int((p.x - area.min_x) * compiled.inv_cell_x), 0), grid - 1
            )
            cy = min(
                max(int((p.y - area.min_y) * compiled.inv_cell_y), 0), grid - 1
            )
            cell = cy * grid + cx
            listed = set(
                compiled.cell_flat[
                    compiled.cell_start[cell] : compiled.cell_start[cell + 1]
                ].tolist()
            )
            for pos in range(len(compiled)):
                in_bbox = (
                    compiled.bb_min_x[pos] <= p.x <= compiled.bb_max_x[pos]
                    and compiled.bb_min_y[pos] <= p.y <= compiled.bb_max_y[pos]
                )
                if in_bbox:
                    assert pos in listed

    def test_grid_size_scales_with_region_count(self, voronoi60, grid4x4):
        assert voronoi60.compiled().grid_size == math.ceil(math.sqrt(60))
        assert grid4x4.compiled().grid_size == 4
