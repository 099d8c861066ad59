"""Unit tests for the binary D-tree (construction + Algorithm 2)."""

import math
import random

import pytest

from repro.errors import QueryError
from repro.geometry.point import Point
from repro.core.dtree import DTree
from repro.tessellation.grid import grid_subdivision
from repro.tessellation.subdivision import DataRegion, Subdivision
from repro.geometry.polygon import Polygon

from tests.conftest import random_points_in


class TestStructuralProperties:
    """The four §4.1 properties of the binary D-tree."""

    def test_every_node_has_two_children(self, voronoi60):
        tree = DTree.build(voronoi60)
        rows = list(tree.iter_nodes())
        assert sorted(rows) == list(range(tree.node_count))
        children = [c for row in rows for c in (tree.left[row], tree.right[row])]
        # Every node but the root is one child; the rest are data pointers.
        assert sorted(c for c in children if c >= 0) == [
            row for row in range(tree.node_count) if row != tree.root
        ]
        assert sorted(~c for c in children if c < 0) == voronoi60.region_ids

    def test_left_subtree_holds_first_subspace(self, voronoi60):
        tree = DTree.build(voronoi60)

        def collect(code):
            if code >= 0:
                return collect(tree.left[code]) + collect(tree.right[code])
            return [~code]

        for row in tree.iter_nodes():
            part = tree.partition[row]
            assert sorted(collect(tree.left[row])) == sorted(part.first_ids)
            assert sorted(collect(tree.right[row])) == sorted(part.second_ids)

    def test_height_balanced(self, voronoi60, voronoi_odd):
        assert DTree.build(voronoi60).check_height_balanced()
        assert DTree.build(voronoi_odd).check_height_balanced()

    def test_logarithmic_height(self, voronoi60):
        tree = DTree.build(voronoi60)
        assert tree.height == math.ceil(math.log2(60))

    def test_node_count_is_n_minus_1(self, voronoi60, voronoi_odd):
        # A full binary tree over N leaves has N-1 internal nodes.
        assert DTree.build(voronoi60).node_count == 59
        assert DTree.build(voronoi_odd).node_count == 36


class TestQueries:
    def test_grid_agrees_with_oracle(self, grid4x4):
        tree = DTree.build(grid4x4)
        for p in random_points_in(grid4x4, 500, seed=1):
            assert tree.locate(p) == grid4x4.locate(p)

    def test_voronoi_agrees_with_oracle(self, voronoi60):
        tree = DTree.build(voronoi60)
        for p in random_points_in(voronoi60, 800, seed=2):
            assert tree.locate(p) == voronoi60.locate(p)

    def test_odd_region_count(self, voronoi_odd):
        tree = DTree.build(voronoi_odd)
        for p in random_points_in(voronoi_odd, 500, seed=3):
            assert tree.locate(p) == voronoi_odd.locate(p)

    def test_clustered_regions(self, clustered40):
        tree = DTree.build(clustered40)
        for p in random_points_in(clustered40, 500, seed=4):
            assert tree.locate(p) == clustered40.locate(p)

    def test_without_tie_break_still_correct(self, voronoi60):
        tree = DTree.build(voronoi60, tie_break_inter_prob=False)
        for p in random_points_in(voronoi60, 400, seed=5):
            assert tree.locate(p) == voronoi60.locate(p)

    def test_outside_service_area_raises(self, grid4x4):
        tree = DTree.build(grid4x4)
        with pytest.raises(QueryError):
            tree.locate(Point(5, 5))

    def test_two_region_tree(self):
        sub = grid_subdivision(1, 2)
        tree = DTree.build(sub)
        assert tree.node_count == 1
        assert tree.locate(Point(0.1, 0.5)) == 0
        assert tree.locate(Point(0.9, 0.5)) == 1

    def test_single_region_degenerate(self):
        square = Polygon([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])
        sub = Subdivision([DataRegion(7, square)])
        tree = DTree.build(sub)
        assert tree.root is None
        assert tree.locate(Point(0.5, 0.5)) == 7


class TestAccessors:
    def test_breadth_first_is_level_ordered(self, voronoi60):
        tree = DTree.build(voronoi60)
        order = tree.nodes_breadth_first()
        levels = [tree.level[row] for row in order]
        assert levels == sorted(levels)
        assert len(order) == tree.node_count

    def test_total_partition_coordinates_positive(self, voronoi60):
        tree = DTree.build(voronoi60)
        assert tree.total_partition_coordinates() > 0

    def test_deterministic_build(self, voronoi60):
        a = DTree.build(voronoi60)
        b = DTree.build(voronoi60)
        assert a.total_partition_coordinates() == b.total_partition_coordinates()
        assert [a.partition[row].size for row in a.nodes_breadth_first()] == [
            b.partition[row].size for row in b.nodes_breadth_first()
        ]
