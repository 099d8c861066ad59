"""Structural invariants of the trapezoidal map construction."""

import random

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.pointloc.trapezoidal import LEAF, X_NODE, Y_NODE, TrapTree, _cross, _shear
from repro.tessellation.grid import grid_subdivision

from tests.conftest import random_points_in


class TestStructuralInvariants:
    def test_node_counts_linear_in_segments(self, voronoi60):
        """de Berg Thm 6.3: expected O(n) trapezoids and inner nodes."""
        tree = TrapTree(voronoi60, seed=0)
        n = len(voronoi60.all_edges())
        counts = tree.node_counts()
        # 3n+1 expected leaves; allow generous randomized slack.
        assert counts["leaf"] <= 8 * n
        # x-nodes: at most two per segment insertion.
        assert counts["x"] <= 2 * n
        # y-nodes: at least one per segment.
        assert counts["y"] >= n

    def test_all_leaves_reachable_and_typed(self, voronoi60):
        tree = TrapTree(voronoi60, seed=0)
        count = len(tree.kind)
        assert set(tree.kind.tolist()) <= {X_NODE, Y_NODE, LEAF}
        inner = np.flatnonzero(tree.kind != LEAF)
        for child in (tree.child0[inner], tree.child1[inner]):
            assert ((child >= 0) & (child < count)).all()
        # Every node but the root has a parent, so all of them are live.
        indegree = np.bincount(
            np.concatenate([tree.child0[inner], tree.child1[inner]]),
            minlength=count,
        )
        assert indegree[0] == 0
        assert (indegree[1:] >= 1).all()

    def test_leaves_have_no_children_in_topo_order(self, voronoi60):
        """Nodes are numbered in topological order: the root is 0 and
        every child's ordinal is greater than its parent's."""
        tree = TrapTree(voronoi60, seed=0)
        assert tree.kind[0] != LEAF
        inner = np.flatnonzero(tree.kind != LEAF)
        for child in (tree.child0[inner], tree.child1[inner]):
            assert (child > inner).all()
        leaves = tree.kind == LEAF
        assert not tree.child0[leaves].any() and not tree.child1[leaves].any()

    def test_trapezoid_regions_are_valid_ids(self, voronoi60):
        tree = TrapTree(voronoi60, seed=0)
        valid = set(voronoi60.region_ids)
        leaf_regions = tree.region[tree.kind == LEAF].tolist()
        assert all(region == -1 or region in valid for region in leaf_regions)
        assert (tree.region[tree.kind != LEAF] == -1).all()

    def test_node_counts_count_the_kinds(self, voronoi60):
        tree = TrapTree(voronoi60, seed=0)
        counts = tree.node_counts()
        assert sum(counts.values()) == len(tree.kind)
        assert counts["leaf"] == int((tree.kind == LEAF).sum())


class TestRandomizationRobustness:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_every_insertion_order_builds_and_answers(self, seed):
        sub = grid_subdivision(3, 3)
        tree = TrapTree(sub, seed=seed)
        for p in random_points_in(sub, 200, seed=seed + 10):
            assert tree.locate(p) == sub.locate(p)

    def test_structure_size_varies_with_seed_but_stays_linear(self, voronoi60):
        n = len(voronoi60.all_edges())
        sizes = [
            sum(TrapTree(voronoi60, seed=s).node_counts().values())
            for s in range(3)
        ]
        assert len(set(sizes)) >= 2  # randomization does something
        assert all(size <= 12 * n for size in sizes)


class TestSearchDepth:
    def test_expected_logarithmic_depth(self, voronoi60):
        """Search paths are short on average (O(log n) expected)."""
        tree = TrapTree(voronoi60, seed=0)
        rng = random.Random(3)

        def depth(p):
            pt = _shear(p)
            node = steps = 0
            while tree.kind[node] != LEAF:
                steps += 1
                if tree.kind[node] == X_NODE:
                    go_true = pt.x >= tree.ax[node]
                    node = tree.child1[node] if go_true else tree.child0[node]
                else:
                    a = Point(float(tree.ax[node]), float(tree.ay[node]))
                    b = Point(float(tree.bx[node]), float(tree.by[node]))
                    go_true = _cross(a, b, pt) >= 0
                    node = tree.child0[node] if go_true else tree.child1[node]
            return steps

        depths = [depth(voronoi60.random_point(rng)) for _ in range(300)]
        mean = sum(depths) / len(depths)
        n = len(voronoi60.all_edges())
        assert mean <= 6 * (n).bit_length()  # generous O(log n) bound
