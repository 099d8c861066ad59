"""Unit tests for the trapezoidal map / trap-tree (§3.1)."""

import numpy as np
import pytest

from repro.errors import PagingError, QueryError
from repro.geometry.point import Point
from repro.broadcast.params import SystemParameters
from repro.pointloc.trapezoidal import LEAF, Y_NODE, PagedTrapTree, TrapTree, _shear
from repro.tessellation.grid import grid_subdivision

from tests.conftest import random_points_in


def params_for(cap):
    return SystemParameters.for_index("trap", cap)


class TestConstruction:
    def test_two_cell_grid(self):
        sub = grid_subdivision(1, 2)
        tree = TrapTree(sub, seed=0)
        counts = tree.node_counts()
        assert counts["x"] > 0 and counts["y"] > 0 and counts["leaf"] > 0

    def test_expected_linear_size(self, voronoi60):
        tree = TrapTree(voronoi60, seed=0)
        counts = tree.node_counts()
        n_edges = len(voronoi60.all_edges())
        # Expected O(n) trapezoids (~3n+1) and O(n) inner nodes.
        assert counts["leaf"] <= 6 * n_edges
        assert counts["x"] <= 2 * n_edges + 10

    def test_different_insertion_orders_still_correct(self, voronoi60):
        for seed in (0, 1, 2):
            tree = TrapTree(voronoi60, seed=seed)
            for p in random_points_in(voronoi60, 150, seed=seed + 50):
                assert tree.locate(p) == voronoi60.locate(p)

    def test_dag_is_acyclic(self, voronoi60):
        tree = TrapTree(voronoi60, seed=0)
        # Node ordinals are topological: every edge points forward.
        inner = np.flatnonzero(tree.kind != LEAF)
        assert (tree.child0[inner] > inner).all()
        assert (tree.child1[inner] > inner).all()
        assert len(tree.kind) == sum(tree.node_counts().values())


class TestLogicalQuery:
    def test_grid_collinear_edges(self, grid4x4):
        tree = TrapTree(grid4x4, seed=0)
        for p in random_points_in(grid4x4, 500, seed=1):
            assert tree.locate(p) == grid4x4.locate(p)

    def test_voronoi(self, voronoi60):
        tree = TrapTree(voronoi60, seed=0)
        for p in random_points_in(voronoi60, 600, seed=2):
            assert tree.locate(p) == voronoi60.locate(p)

    def test_clustered(self, clustered40):
        tree = TrapTree(clustered40, seed=0)
        for p in random_points_in(clustered40, 400, seed=3):
            assert tree.locate(p) == clustered40.locate(p)

    def test_outside_area_raises(self, grid4x4):
        tree = TrapTree(grid4x4, seed=0)
        with pytest.raises(QueryError):
            tree.locate(Point(0.5, 1.6))


class TestShear:
    def test_shear_removes_vertical(self):
        a, b = _shear(Point(0.5, 0.0)), _shear(Point(0.5, 1.0))
        assert a.x != b.x

    def test_shear_preserves_above_below(self):
        # Points above a segment stay above after shearing.
        lo, hi = Point(0.3, 0.4), Point(0.3, 0.6)
        assert _shear(hi).y > _shear(lo).y


class TestPaged:
    @pytest.mark.parametrize("cap", [64, 256, 2048])
    def test_trace_matches_oracle(self, voronoi60, cap):
        tree = TrapTree(voronoi60, seed=0)
        paged = PagedTrapTree(tree, params_for(cap))
        for p in random_points_in(voronoi60, 250, seed=cap):
            assert paged.trace(p).region_id == voronoi60.locate(p)

    @pytest.mark.parametrize("cap", [64, 256])
    def test_trace_forward_only(self, voronoi60, cap):
        tree = TrapTree(voronoi60, seed=0)
        paged = PagedTrapTree(tree, params_for(cap))
        for p in random_points_in(voronoi60, 250, seed=cap + 9):
            accessed = paged.trace(p).packets_accessed
            assert all(b >= a for a, b in zip(accessed, accessed[1:]))

    def test_root_in_first_packet(self, voronoi60):
        tree = TrapTree(voronoi60, seed=0)
        paged = PagedTrapTree(tree, params_for(128))
        assert paged.packets[0].used > 0

    def test_node_larger_than_a_packet_is_refused(self, grid4x4):
        tree = TrapTree(grid4x4, seed=0)
        y_node = PagedTrapTree(tree, params_for(256)).node_size(Y_NODE)
        with pytest.raises(PagingError, match="trap-tree node exceeds packet"):
            PagedTrapTree(tree, params_for(y_node - 1))

    def test_no_packet_overflow(self, voronoi60):
        tree = TrapTree(voronoi60, seed=0)
        for cap in (64, 256, 2048):
            paged = PagedTrapTree(tree, params_for(cap))
            assert all(p.used <= p.capacity for p in paged.packets)

    def test_index_much_larger_than_dtree(self, voronoi60):
        # The paper's key size finding (Figure 11): trap >> D-tree.
        from repro.core.dtree import DTree
        from repro.core.paging import PagedDTree

        trap = PagedTrapTree(TrapTree(voronoi60, seed=0), params_for(256))
        dtree = PagedDTree(
            DTree.build(voronoi60), SystemParameters.for_index("dtree", 256)
        )
        assert len(trap.packets) > 2 * len(dtree.packets)
