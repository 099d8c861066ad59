"""Property-based tests (hypothesis) for the geometry substrate."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry.clipping import clip_polygon_rect
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.predicates import orientation, ray_crossings
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment
from repro.geometry.triangulate import Triangle, triangulate_polygon

from tests.test_construction_parity import (
    contains_rect,
    enlargement_for,
    overlap_area,
    union,
)

coords = st.floats(
    min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
)
points = st.builds(Point, coords, coords)
unit_coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
unit_points = st.builds(Point, unit_coords, unit_coords)


@st.composite
def convex_polygons(draw, min_vertices=3, max_vertices=10):
    """Random convex polygon: points on a circle at sorted angles."""
    n = draw(st.integers(min_vertices, max_vertices))
    angles = sorted(
        draw(
            st.lists(
                st.floats(0, 2 * math.pi - 1e-3),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    )
    assume(len(angles) >= 3)
    radius = draw(st.floats(0.5, 10))
    ring = [Point(radius * math.cos(a), radius * math.sin(a)) for a in angles]
    try:
        return Polygon(ring)
    except Exception:
        assume(False)


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    assume(x2 - x1 > 1e-6 and y2 - y1 > 1e-6)
    return Rect(x1, y1, x2, y2)


class TestOrientationProperties:
    @given(points, points, points)
    def test_antisymmetry(self, a, b, c):
        assert orientation(a, b, c) == -orientation(a, c, b)

    @given(points, points, points)
    def test_cyclic_invariance(self, a, b, c):
        assert orientation(a, b, c) == orientation(b, c, a)


class TestSegmentProperties:
    @given(points, points)
    def test_midpoint_on_segment(self, a, b):
        assume(a != b)
        seg = Segment(a, b)
        assert seg.contains_point(seg.midpoint)

    @given(points, points)
    def test_length_symmetric(self, a, b):
        assume(a != b)
        assert Segment(a, b).length == Segment(b, a).length

    @given(points, points)
    def test_canonical_key_undirected(self, a, b):
        assume(a != b)
        assert Segment(a, b).canonical_key() == Segment(b, a).canonical_key()


class TestRectProperties:
    @given(rects(), rects())
    def test_union_contains_both(self, r1, r2):
        u = union(r1, r2)
        assert contains_rect(u, r1) and contains_rect(u, r2)

    @given(rects(), rects())
    def test_overlap_symmetric(self, r1, r2):
        assert overlap_area(r1, r2) == overlap_area(r2, r1)

    @given(rects(), rects())
    def test_enlargement_nonnegative(self, r1, r2):
        assert enlargement_for(r1, r2) >= -1e-9

    @given(rects(), points)
    def test_containment_vs_intersection(self, r, p):
        if r.contains_point(p):
            assert r.intersects(Rect(p.x, p.y, p.x, p.y))


class TestPolygonProperties:
    @given(convex_polygons())
    @settings(max_examples=40)
    def test_centroid_inside_convex(self, poly):
        assert poly.contains_point(poly.centroid)

    @given(convex_polygons())
    @settings(max_examples=40)
    def test_bbox_contains_all_vertices(self, poly):
        for v in poly.vertices:
            assert poly.bbox.contains_point(v)

    @given(convex_polygons())
    @settings(max_examples=40)
    def test_is_convex(self, poly):
        assert poly.is_convex()

    @given(convex_polygons(), points)
    @settings(max_examples=60)
    def test_containment_implies_bbox_containment(self, poly, p):
        if poly.contains_point(p):
            assert poly.bbox.contains_point(p)


class TestTriangulationProperties:
    @given(convex_polygons())
    @settings(max_examples=40)
    def test_areas_sum(self, poly):
        tris = triangulate_polygon(poly.vertices)
        assert math.isclose(
            sum(t.area for t in tris), poly.area, rel_tol=1e-6, abs_tol=1e-9
        )

    @given(convex_polygons(), unit_points)
    @settings(max_examples=60)
    def test_triangle_membership_matches_polygon(self, poly, p):
        # Any point inside the polygon is inside >= 1 triangle and vice
        # versa.  Points within float tolerance of the boundary are
        # skipped: the triangle and polygon closed-containment predicates
        # use different tolerance geometries there.
        if poly.boundary_distance(p) < 1e-7:
            return
        tris = triangulate_polygon(poly.vertices)
        in_tri = any(t.contains_point(p) for t in tris)
        assert in_tri == poly.contains_point(p)


class TestClippingProperties:
    @given(convex_polygons(), rects())
    @settings(max_examples=40)
    def test_clip_area_never_grows(self, poly, rect):
        clipped = clip_polygon_rect(poly.vertices, rect)
        if clipped is not None:
            assert clipped.area <= poly.area + 1e-6
            assert clipped.area <= rect.area + 1e-6

    @given(convex_polygons(), rects(), points)
    @settings(max_examples=60)
    def test_clipped_contains_iff_both_contain(self, poly, rect, p):
        clipped = clip_polygon_rect(poly.vertices, rect)
        if clipped is None:
            return
        if clipped.contains_point(p, include_boundary=False):
            assert poly.contains_point(p)
            assert rect.contains_point(p)


class TestRayCrossingProperties:
    @given(convex_polygons(), points)
    @settings(max_examples=60)
    def test_parity_matches_containment(self, poly, p):
        # Strict interior/exterior points (skip near-boundary).
        edges = [(e.a, e.b) for e in poly.edges()]
        near_boundary = any(
            Segment(a, b).contains_point(p) for a, b in edges
        ) or any(abs(v.y - p.y) < 1e-7 for v in poly.vertices)
        if near_boundary:
            return
        crossings = ray_crossings(p, edges, "right")
        assert (crossings % 2 == 1) == poly.contains_point(
            p, include_boundary=False
        )
