"""Unit tests for repro.geometry.rect (the R*-tree MBR primitive)."""

import pytest

from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.rect import Rect

from tests.test_construction_parity import (
    contains_rect,
    distance_to_center_of,
    enlargement_for,
    intersection,
    margin,
    overlap_area,
    union,
)


class TestConstruction:
    def test_inverted_rejected(self):
        with pytest.raises(GeometryError):
            Rect(1, 0, 0, 1)
        with pytest.raises(GeometryError):
            Rect(0, 1, 1, 0)

    def test_degenerate_allowed(self):
        r = Rect(1, 1, 1, 1)  # a point-rect is a valid MBR
        assert r.area == 0

    def test_from_points(self):
        r = Rect.from_points([Point(1, 5), Point(-2, 3), Point(0, 0)])
        assert r == Rect(-2, 0, 1, 5)

    def test_from_points_empty_raises(self):
        with pytest.raises(GeometryError):
            Rect.from_points([])

    def test_union_of(self):
        r = Rect.union_of([Rect(0, 0, 1, 1), Rect(2, -1, 3, 0.5)])
        assert r == Rect(0, -1, 3, 1)


class TestMeasures:
    def test_area_margin(self):
        r = Rect(0, 0, 2, 3)
        assert r.area == 6
        assert margin(r) == 5
        assert r.width == 2 and r.height == 3

    def test_center(self):
        assert Rect(0, 0, 2, 4).center == Point(1, 2)


class TestRelations:
    def test_contains_point_closed(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains_point(Point(0, 0))      # corner
        assert r.contains_point(Point(1, 0.5))    # edge
        assert r.contains_point(Point(0.5, 0.5))
        assert not r.contains_point(Point(1.001, 0.5))

    def test_contains_rect(self):
        assert contains_rect(Rect(0, 0, 2, 2), Rect(0.5, 0.5, 1, 1))
        assert not contains_rect(Rect(0, 0, 2, 2), Rect(1, 1, 3, 3))

    def test_intersects_touching_edges(self):
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 0, 2, 1))

    def test_disjoint(self):
        assert not Rect(0, 0, 1, 1).intersects(Rect(2, 2, 3, 3))

    def test_intersection(self):
        inter = intersection(Rect(0, 0, 2, 2), Rect(1, 1, 3, 3))
        assert inter == Rect(1, 1, 2, 2)
        assert intersection(Rect(0, 0, 1, 1), Rect(5, 5, 6, 6)) is None

    def test_overlap_area(self):
        assert overlap_area(Rect(0, 0, 2, 2), Rect(1, 1, 3, 3)) == pytest.approx(1.0)
        assert overlap_area(Rect(0, 0, 1, 1), Rect(5, 5, 6, 6)) == 0.0


class TestRStarMeasures:
    def test_enlargement_zero_when_contained(self):
        assert enlargement_for(Rect(0, 0, 2, 2), Rect(0.5, 0.5, 1, 1)) == 0.0

    def test_enlargement_positive(self):
        grow = enlargement_for(Rect(0, 0, 1, 1), Rect(2, 0, 3, 1))
        # Union is 3x1 = 3, original 1 -> growth 2.
        assert grow == pytest.approx(2.0)

    def test_union(self):
        assert union(Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)) == Rect(0, 0, 3, 3)

    def test_center_distance(self):
        d = distance_to_center_of(Rect(0, 0, 2, 2), Rect(3, 4, 3, 4))
        assert d == pytest.approx(((3 - 1) ** 2 + (4 - 1) ** 2) ** 0.5)
