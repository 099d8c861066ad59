"""Structural invariants of Kirkpatrick's hierarchy construction."""

import pytest

from repro.geometry.point import Point
from repro.geometry.predicates import quantize_point
from repro.geometry.triangulate import Triangle
from repro.pointloc.kirkpatrick import (
    MAX_REMOVABLE_DEGREE,
    TrianTree,
    _base_level,
    _gap_triangles,
    _independent_set,
    _super_triangle_corners,
    _vertex_stars,
)
from repro.tessellation.grid import grid_subdivision

from tests.test_kirkpatrick import child_lists


class TestGapTriangulation:
    def test_conforms_to_border_vertices(self, grid4x4):
        """Every subdivision border vertex appears as a gap-triangle
        vertex (no T-junctions)."""
        tree = TrianTree(grid4x4)
        area = grid4x4.service_area
        corners = _super_triangle_corners(area)
        border = tree._border_vertices()
        gap = _gap_triangles(area, corners, border)
        gap_vertex_keys = {
            quantize_point(v) for tri in gap for v in tri.vertices
        }
        for v in border:
            assert quantize_point(v) in gap_vertex_keys

    def test_tiles_annulus_exactly(self, voronoi60):
        tree = TrianTree(voronoi60)
        area = voronoi60.service_area
        corners = _super_triangle_corners(area)
        gap = _gap_triangles(area, corners, tree._border_vertices())
        total = sum(t.area for t in gap)
        expected = Triangle(*corners).area - area.area
        assert total == pytest.approx(expected, rel=1e-9)

    def test_no_interior_overlap(self, grid4x4):
        tree = TrianTree(grid4x4)
        area = grid4x4.service_area
        corners = _super_triangle_corners(area)
        gap = _gap_triangles(area, corners, tree._border_vertices())
        for i, t1 in enumerate(gap):
            for t2 in gap[i + 1 :]:
                assert not t1.overlaps_interior(t2)


def _first_round(subdivision):
    """Level 0 of the build and the first round's independent set."""
    vertices, level, _ = _base_level(subdivision)
    vertex_level = vertices.vid[level]
    stars = _vertex_stars(vertex_level, len(vertices.corner))
    return vertices, vertex_level, stars, _independent_set(
        vertex_level, stars, vertices
    )


class TestIndependentSet:
    def test_chosen_vertices_are_independent(self, voronoi60):
        _, vertex_level, (offsets, slots), chosen = _first_round(voronoi60)
        assert chosen
        keys = set(chosen)
        for v in chosen:
            star = slots[offsets[v] : offsets[v + 1]] // 3
            assert len(star) <= MAX_REMOVABLE_DEGREE
            # No neighbour of a chosen vertex is also chosen.
            for u in vertex_level[star].ravel().tolist():
                assert u == v or u not in keys

    def test_super_triangle_corners_never_chosen(self, voronoi60):
        vertices, _, _, chosen = _first_round(voronoi60)
        corners = _super_triangle_corners(voronoi60.service_area)
        corner_ids = {
            int(vertices.vid[i])
            for i, p in enumerate(vertices.points)
            if p in corners
        }
        assert len(corner_ids) == 3
        assert not corner_ids & set(chosen)


def _triangle(tree, node):
    """Node *node*'s triangle, vertices in stored order."""
    return Triangle.from_ccw(
        *(Point(x, y) for x, y in zip(tree.x[node].tolist(), tree.y[node].tolist()))
    )


class TestHierarchyShape:
    def test_rounds_are_logarithmic(self, voronoi60):
        tree = TrianTree(voronoi60)
        n_triangles = int((tree.round_index == 0).sum())
        # A constant fraction of vertices is removed per round.
        assert tree.rounds <= 4 * n_triangles.bit_length()

    def test_children_always_finer(self, voronoi60):
        tree = TrianTree(voronoi60)
        rounds = tree.round_index.tolist()
        for node, children in enumerate(child_lists(tree)):
            for child in children:
                assert rounds[child] < rounds[node]

    def test_child_overlap_is_genuine(self, voronoi60):
        tree = TrianTree(voronoi60)
        for node, children in enumerate(child_lists(tree)):
            for child in children:
                assert _triangle(tree, node).overlaps_interior(
                    _triangle(tree, child)
                )

    def test_root_count_at_most_t_min_or_stalled(self):
        sub = grid_subdivision(3, 3)
        tree = TrianTree(sub, t_min=4)
        # Either the target was reached or coarsening stalled at a small
        # irreducible set; both must stay far below the base size.
        base = int((tree.round_index == 0).sum())
        assert len(tree.roots) < base / 2
