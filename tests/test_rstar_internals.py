"""Behavioural tests of the R*-tree insertion machinery."""

import random

import pytest

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.rstar.tree import REINSERT_FRACTION, RStarTree
from repro.tessellation.grid import grid_subdivision

from tests.test_construction_parity import overlap_area


def small_box(x, y, size=0.01):
    return (x, y, x + size, y + size)


def node_rect(tree, node):
    """The MBR of *node*'s entries."""
    min_x, min_y, max_x, max_y = zip(*tree.node_boxes[node])
    return Rect(min(min_x), min(min_y), max(max_x), max(max_y))


class TestSplitQuality:
    def test_split_respects_min_fill(self, voronoi60):
        tree = RStarTree.build(voronoi60, 6)
        for node in tree.nodes_depth_first():
            if node != tree.root:
                assert len(tree.node_targets[node]) >= tree.min_entries

    def test_split_separates_spatial_clusters(self):
        """Two well-separated clusters must not be mixed by a split."""
        sub = grid_subdivision(2, 2)  # only for the constructor
        tree = RStarTree(sub, max_entries=4)
        rng = random.Random(1)
        boxes = []
        for i in range(5):
            if i < 3:
                boxes.append(small_box(rng.uniform(0, 0.1), rng.uniform(0, 0.1)))
            else:
                boxes.append(small_box(rng.uniform(0.9, 1.0), rng.uniform(0.9, 1.0)))
        node = tree._new_node(0, boxes, list(range(5)))
        other = tree._split(node)
        groups = [set(tree.node_targets[node]), set(tree.node_targets[other])]
        assert {0, 1, 2} in groups or {3, 4} in groups

    def test_split_minimises_overlap_for_grid_row(self):
        """Collinear boxes split into two contiguous runs (zero overlap)."""
        sub = grid_subdivision(2, 2)
        tree = RStarTree(sub, max_entries=4)
        boxes = [(i * 0.2, 0.0, i * 0.2 + 0.18, 0.1) for i in range(5)]
        node = tree._new_node(0, boxes, list(range(5)))
        other = tree._split(node)
        r1, r2 = node_rect(tree, node), node_rect(tree, other)
        assert overlap_area(r1, r2) == pytest.approx(0.0)


class TestForcedReinsert:
    def test_reinsert_happens_once_per_level_per_insert(self, voronoi60):
        tree = RStarTree(voronoi60, max_entries=4)
        calls = []
        original = tree._reinsert

        def spy(node, path):
            calls.append(tree.node_level[node])
            return original(node, path)

        tree._reinsert = spy
        for region in voronoi60.regions:
            before = len(calls)
            tree.insert(region.region_id, region.polygon.bbox)
            new_levels = calls[before:]
            assert len(new_levels) == len(set(new_levels))
        tree.check_invariants()

    def test_reinsert_fraction(self):
        assert 0.0 < REINSERT_FRACTION < 0.5


class TestChooseSubtree:
    def test_inserting_into_covering_leaf(self):
        """An MBR already covered by exactly one leaf goes there without
        enlarging anything."""
        sub = grid_subdivision(2, 2)
        tree = RStarTree(sub, max_entries=8)
        tree.insert(0, Rect(0.0, 0.0, 0.4, 0.4))
        tree.insert(1, Rect(0.6, 0.6, 1.0, 1.0))
        node, path = tree._choose_subtree((0.1, 0.1, 0.2, 0.2), 0)
        assert node == tree.root  # still a single leaf
        assert path == []

    def test_deep_tree_choose_descends_to_leaf_level(self, voronoi60):
        tree = RStarTree.build(voronoi60, 4)
        node, path = tree._choose_subtree((0.5, 0.5, 0.51, 0.51), 0)
        assert tree.node_level[node] == 0
        assert len(path) == tree.node_level[tree.root]


class TestInsertionOrderRobustness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shuffled_insertion_stays_correct(self, voronoi60, seed):
        rng = random.Random(seed)
        regions = list(voronoi60.regions)
        rng.shuffle(regions)
        tree = RStarTree(voronoi60, max_entries=6)
        for region in regions:
            tree.insert(region.region_id, region.polygon.bbox)
        tree.check_invariants()
        for _ in range(200):
            p = voronoi60.random_point(rng)
            assert tree.locate(p) == voronoi60.locate(p)
