"""The paper's running example (Figures 1, 3-6) must behave as described."""

import random

import pytest

from repro.broadcast.params import SystemParameters
from repro.core.dtree import DTree
from repro.core.paging import PagedDTree
from repro.datasets.running_example import (
    named_vertices,
    running_example_subdivision,
)
from repro.geometry.point import Point
from repro.pointloc.kirkpatrick import TrianTree
from repro.pointloc.trapezoidal import TrapTree
from repro.rstar.tree import RStarTree


@pytest.fixture(scope="module")
def example():
    return running_example_subdivision()


class TestSubdivision:
    def test_tiles_the_unit_square(self, example):
        example.validate(samples=800)

    def test_four_regions(self, example):
        assert len(example) == 4

    def test_figure_adjacency(self, example):
        adj = example.adjacency()
        assert adj[0] == [1, 2]        # P1 borders P2 and P3
        assert adj[1] == [0, 2, 3]     # P2 borders everything but itself
        assert adj[2] == [0, 1, 3]
        assert adj[3] == [1, 2]        # P4 borders P2 and P3

    def test_named_vertices_on_region_boundaries(self, example):
        for name, v in named_vertices().items():
            on_some_boundary = any(
                any(edge.contains_point(v) for edge in r.polygon.edges())
                for r in example.regions
            )
            assert on_some_boundary, name


class TestDTreeOverExample:
    def test_root_splits_left_from_right(self, example):
        tree = DTree.build(example)
        root = tree.partition[tree.root]
        groups = {frozenset(root.first_ids), frozenset(root.second_ids)}
        # Figure 6: {P1, P2} vs {P3, P4}.
        assert groups == {frozenset({0, 1}), frozenset({2, 3})}

    def test_tree_has_three_nodes(self, example):
        tree = DTree.build(example)
        assert tree.node_count == 3
        assert tree.height == 2

    def test_root_division_is_the_small_polyline_plus_border_nubs(self, example):
        # Figure 6 draws the root partition as pl(v2, v3, v4, v6) — four
        # coordinates.  Algorithm 1 as specified retains every extent
        # segment at x >= right_lmc, and here right_lmc = v3.x < v2.x, so
        # two short border nubs survive pruning and chain onto the
        # division: six coordinates total (DESIGN.md §7, first delta).
        tree = DTree.build(example)
        root = tree.partition[tree.root]
        assert root.size == 6
        polyline = root.polylines[0]
        from repro.datasets.running_example import V2, V3, V4, V6

        for v in (V2, V3, V4, V6):
            assert v in polyline.vertices

    def test_queries_hit_the_right_city(self, example):
        tree = DTree.build(example)
        assert tree.locate(Point(0.2, 0.8)) == 0   # inside P1
        assert tree.locate(Point(0.2, 0.2)) == 1   # inside P2
        assert tree.locate(Point(0.8, 0.8)) == 2   # inside P3
        assert tree.locate(Point(0.8, 0.1)) == 3   # inside P4

    def test_interlocking_zone_queries_use_parity(self, example):
        """Points between v3.x and v4.x exercise the D2 ray test."""
        tree = DTree.build(example)
        rng = random.Random(1)
        for _ in range(300):
            p = Point(rng.uniform(0.45, 0.55), rng.uniform(0.01, 0.99))
            assert tree.locate(p) == example.locate(p)

    def test_paged_example_fits_one_packet_at_2k(self, example):
        paged = PagedDTree(
            DTree.build(example), SystemParameters.for_index("dtree", 2048)
        )
        assert len(paged.packets) == 1
        assert paged.trace(Point(0.8, 0.8)).tuning_time == 1


class TestAllIndexesOnExample:
    def test_every_structure_answers_identically(self, example):
        indexes = [
            DTree.build(example),
            TrianTree(example),
            TrapTree(example, seed=0),
            RStarTree.build(example, 4),
        ]
        rng = random.Random(2)
        for _ in range(400):
            p = example.random_point(rng)
            expected = example.locate(p)
            for index in indexes:
                assert index.locate(p) == expected
