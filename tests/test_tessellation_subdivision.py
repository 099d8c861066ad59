"""Unit tests for the subdivision model (Definition 1 + boundary extraction)."""

import pickle
import random

import pytest

from repro.errors import QueryError, SubdivisionError
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.tessellation.grid import grid_subdivision
from repro.tessellation.subdivision import DataRegion, Subdivision


def _square(x0, y0, x1, y1):
    return Polygon([Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1)])


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(SubdivisionError):
            Subdivision([])

    def test_duplicate_ids_rejected(self):
        regions = [
            DataRegion(1, _square(0, 0, 1, 1)),
            DataRegion(1, _square(1, 0, 2, 1)),
        ]
        with pytest.raises(SubdivisionError):
            Subdivision(regions)

    def test_negative_ids_rejected(self):
        """A relabelled 4x4 grid with ids -9..6 is refused up front,
        naming the first negative id (the index families read a negative
        child code as a data pointer ``~region_id``)."""
        grid = grid_subdivision(4, 4)
        regions = [DataRegion(r.region_id - 9, r.polygon) for r in grid.regions]
        with pytest.raises(SubdivisionError, match="negative region id -9"):
            Subdivision(regions, service_area=grid.service_area)
        shifted = [DataRegion(r.region_id + 9, r.polygon) for r in regions]
        assert Subdivision(shifted).region_ids == grid.region_ids

    def test_service_area_defaults_to_union_bbox(self):
        regions = [
            DataRegion(0, _square(0, 0, 1, 1)),
            DataRegion(1, _square(1, 0, 2, 1)),
        ]
        sub = Subdivision(regions)
        assert sub.service_area == Rect(0, 0, 2, 1)

    def test_region_lookup(self):
        sub = grid_subdivision(2, 2)
        assert sub.region(3).region_id == 3
        with pytest.raises(SubdivisionError):
            sub.region(99)


class TestValidation:
    def test_valid_grid_passes(self, grid4x4):
        grid4x4.validate(samples=300)

    def test_gap_detected(self):
        regions = [
            DataRegion(0, _square(0, 0, 1, 1)),
            DataRegion(1, _square(1.5, 0, 2, 1)),  # gap between 1 and 1.5
        ]
        sub = Subdivision(regions, service_area=Rect(0, 0, 2, 1))
        with pytest.raises(SubdivisionError):
            sub.validate(samples=300)

    def test_overlap_detected(self):
        regions = [
            DataRegion(0, _square(0, 0, 1.5, 1)),
            DataRegion(1, _square(1, 0, 2, 1)),  # overlaps [1, 1.5]
        ]
        sub = Subdivision(regions, service_area=Rect(0, 0, 2, 1))
        with pytest.raises(SubdivisionError):
            sub.validate(samples=300)


class TestLocate:
    def test_interior_points(self, grid4x4):
        assert grid4x4.locate(Point(0.1, 0.1)) == 0
        assert grid4x4.locate(Point(0.9, 0.9)) == 15

    def test_outside_raises(self, grid4x4):
        with pytest.raises(QueryError):
            grid4x4.locate(Point(2, 2))

    def test_boundary_resolves_deterministically(self, grid4x4):
        # A point on the edge between cells 0 and 1 resolves to the lower id.
        assert grid4x4.locate(Point(0.25, 0.1)) == 0


class TestBoundaryExtraction:
    def test_single_region_boundary_is_its_ring(self, grid4x4):
        boundary = grid4x4.boundary_of_subset([0])
        assert len(boundary) == 4

    def test_two_adjacent_regions_cancel_shared_edge(self, grid4x4):
        boundary = grid4x4.boundary_of_subset([0, 1])
        # 2 squares: 8 edges, minus the shared one counted twice -> 6.
        assert len(boundary) == 6

    def test_full_subset_boundary_is_service_border(self, grid4x4):
        boundary = grid4x4.boundary_of_subset(grid4x4.region_ids)
        # 4 sides x 4 cells per side.
        assert len(boundary) == 16
        area = grid4x4.service_area
        for seg in boundary:
            on_border = (
                seg.a.x == seg.b.x == area.min_x
                or seg.a.x == seg.b.x == area.max_x
                or seg.a.y == seg.b.y == area.min_y
                or seg.a.y == seg.b.y == area.max_y
            )
            assert on_border

    def test_voronoi_neighbours_share_whole_edges(self, voronoi60):
        counts = voronoi60.shared_edge_counts()
        assert all(c in (1, 2) for c in counts.values())

    def test_adjacency_symmetry(self, voronoi60):
        adj = voronoi60.adjacency()
        for rid, neighbours in adj.items():
            for other in neighbours:
                assert rid in adj[other]

    def test_grid_adjacency(self, grid4x4):
        adj = grid4x4.adjacency()
        assert sorted(adj[5]) == [1, 4, 6, 9]  # interior cell: 4 neighbours
        assert sorted(adj[0]) == [1, 4]        # corner cell: 2 neighbours


def _scalar_edge_keys(sub):
    """Every region edge's canonical key, in region and ring order."""
    return [e.canonical_key() for r in sub.regions for e in r.polygon.edges()]


class TestEdgeTable:
    """The edge table keys every edge once; its readers agree with keying
    each ``Segment`` on its own."""

    def test_shared_edge_counts_match_scalar_keys(self, voronoi60):
        keys = _scalar_edge_keys(voronoi60)
        expected = {}
        for key in keys:
            expected[key] = expected.get(key, 0) + 1
        counts = voronoi60.shared_edge_counts()
        assert counts == expected
        assert list(counts) == list(expected)

    def test_all_edges_first_occurrences_in_order(self, voronoi60):
        first = {}
        for r in voronoi60.regions:
            for e in r.polygon.edges():
                first.setdefault(e.canonical_key(), (e.a, e.b))
        assert [(e.a, e.b) for e in voronoi60.all_edges()] == list(first.values())

    def test_replaced_polygon_rebuilds_the_table(self):
        sub = grid_subdivision(2, 2)
        assert len(sub.boundary_of_subset([0])) == 4
        table = sub.edge_table()
        region = sub.region(0)
        box = region.polygon.bbox
        mid = Point((box.min_x + box.max_x) / 2.0, box.min_y)
        region.polygon = Polygon(
            [Point(box.min_x, box.min_y), mid, Point(box.max_x, box.min_y),
             Point(box.max_x, box.max_y), Point(box.min_x, box.max_y)]
        )
        # The subset read sees the new ring, and so does a full read.
        assert len(sub.boundary_of_subset([0])) == 5
        assert sub.edge_table() is not table
        assert len(sub.all_edges()) == len(set(_scalar_edge_keys(sub)))

    def test_replaced_ring_rebuilds_the_table(self):
        sub = grid_subdivision(2, 2)
        sub.adjacency()
        table = sub.edge_table()
        poly = sub.region(1).polygon
        poly.vertices = poly.vertices[1:] + poly.vertices[:1]
        assert sub.edge_table() is not table

    def test_three_way_shared_edge_raises(self):
        base = [Point(0.0, 0.0), Point(1.0, 0.0)]
        regions = [
            DataRegion(i, Polygon(base + [Point(0.5, h)]))
            for i, h in enumerate((1.0, -1.0, 2.0))
        ]
        sub = Subdivision(regions)
        with pytest.raises(SubdivisionError):
            sub.boundary_of_subset([0, 1, 2])
        # Two of the three still cancel their shared edge.
        assert len(sub.boundary_of_subset([0, 1])) == 4
        # The diagnostics read the same table without raising.
        assert sub.shared_edge_counts()[((0.0, 0.0), (1.0, 0.0))] == 3
        assert sub.adjacency() == {0: [], 1: [], 2: []}

    def test_unknown_region_id_raises(self, grid4x4):
        with pytest.raises(SubdivisionError):
            grid4x4.boundary_of_subset([0, 99])

    def test_pickle_does_not_carry_the_table(self):
        sub = grid_subdivision(4, 4)
        before = len(pickle.dumps(sub))
        sub.edge_table()
        sub.boundary_of_subset([0, 1, 5])
        assert len(pickle.dumps(sub)) == before
        clone = pickle.loads(pickle.dumps(sub))
        assert [(s.a, s.b) for s in clone.boundary_of_subset([0, 1, 5])] == [
            (s.a, s.b) for s in sub.boundary_of_subset([0, 1, 5])
        ]


class TestEdgeRegionAbove:
    def test_bottom_border_maps_to_region(self, grid4x4):
        above = grid4x4.directed_edge_region_above()
        from repro.geometry.segment import Segment

        bottom_edge = Segment(Point(0, 0), Point(0.25, 0)).canonical_key()
        assert above[bottom_edge] == 0

    def test_top_border_maps_to_none(self, grid4x4):
        from repro.geometry.segment import Segment

        top_edge = Segment(Point(0, 1), Point(0.25, 1)).canonical_key()
        above = grid4x4.directed_edge_region_above()
        assert above[top_edge] is None

    def test_interior_horizontal_edge(self, grid4x4):
        from repro.geometry.segment import Segment

        # Edge between cell 0 (below) and cell 4 (above) at y = 0.25.
        mid_edge = Segment(Point(0, 0.25), Point(0.25, 0.25)).canonical_key()
        above = grid4x4.directed_edge_region_above()
        assert above[mid_edge] == 4


class TestRandomPoint:
    def test_random_points_inside(self, voronoi60):
        rng = random.Random(0)
        for _ in range(100):
            p = voronoi60.random_point(rng)
            assert voronoi60.service_area.contains_point(p)
