"""Unit tests for Kirkpatrick's hierarchy / trian-tree (§3.1)."""

import pytest

from repro.errors import QueryError
from repro.geometry.point import Point
from repro.broadcast.params import SystemParameters
from repro.pointloc.kirkpatrick import PagedTrianTree, TrianTree
from repro.tessellation.grid import grid_subdivision

from tests.conftest import random_points_in


def params_for(cap):
    return SystemParameters.for_index("trian", cap)


def child_lists(tree):
    """Each node's children, as broadcast ordinals in link order."""
    bounds = tree.child_offsets.tolist()
    children = tree.children.tolist()
    return [children[a:b] for a, b in zip(bounds, bounds[1:])]


class TestConstruction:
    def test_hierarchy_shrinks_to_roots(self, voronoi60):
        tree = TrianTree(voronoi60)
        base = int((tree.round_index == 0).sum())
        assert len(tree.roots) < base
        assert tree.rounds >= 1

    def test_level0_nodes_carry_regions(self, voronoi60):
        tree = TrianTree(voronoi60)
        rounds = tree.round_index.tolist()
        regions = tree.region.tolist()
        for node, children in enumerate(child_lists(tree)):
            if not children:
                # A childless node is a base triangle: region or gap.
                assert rounds[node] == 0
            if rounds[node] > 0:
                assert regions[node] == -1
                assert children

    def test_topological_order(self, voronoi60):
        tree = TrianTree(voronoi60)
        for node, children in enumerate(child_lists(tree)):
            for child in children:
                assert child > node

    def test_t_min_validation(self, grid4x4):
        with pytest.raises(Exception):
            TrianTree(grid4x4, t_min=0)

    def test_larger_t_min_means_more_roots(self, voronoi60):
        small = TrianTree(voronoi60, t_min=4)
        large = TrianTree(voronoi60, t_min=40)
        assert len(large.roots) >= len(small.roots)


class TestLogicalQuery:
    def test_grid(self, grid4x4):
        tree = TrianTree(grid4x4)
        for p in random_points_in(grid4x4, 500, seed=1):
            assert tree.locate(p) == grid4x4.locate(p)

    def test_voronoi(self, voronoi60):
        tree = TrianTree(voronoi60)
        for p in random_points_in(voronoi60, 600, seed=2):
            assert tree.locate(p) == voronoi60.locate(p)

    def test_clustered(self, clustered40):
        tree = TrianTree(clustered40)
        for p in random_points_in(clustered40, 400, seed=3):
            assert tree.locate(p) == clustered40.locate(p)

    def test_odd(self, voronoi_odd):
        tree = TrianTree(voronoi_odd)
        for p in random_points_in(voronoi_odd, 400, seed=4):
            assert tree.locate(p) == voronoi_odd.locate(p)

    def test_point_outside_service_area_in_gap(self, grid4x4):
        # Gap triangles carry no region: querying there is an error.
        tree = TrianTree(grid4x4)
        with pytest.raises(QueryError):
            tree.locate(Point(-0.5, -0.5))


class TestPaged:
    @pytest.mark.parametrize("cap", [64, 256, 2048])
    def test_trace_matches_oracle(self, voronoi60, cap):
        tree = TrianTree(voronoi60)
        paged = PagedTrianTree(tree, params_for(cap))
        for p in random_points_in(voronoi60, 250, seed=cap):
            assert paged.trace(p).region_id == voronoi60.locate(p)

    @pytest.mark.parametrize("cap", [64, 256])
    def test_trace_forward_only(self, voronoi60, cap):
        tree = TrianTree(voronoi60)
        paged = PagedTrianTree(tree, params_for(cap))
        for p in random_points_in(voronoi60, 250, seed=cap + 5):
            accessed = paged.trace(p).packets_accessed
            assert all(b >= a for a, b in zip(accessed, accessed[1:]))

    def test_greedy_paging_fills_packets(self, voronoi60):
        tree = TrianTree(voronoi60)
        paged = PagedTrianTree(tree, params_for(256))
        # Greedy BFS packing: average utilisation must be high.
        utilisation = sum(p.used for p in paged.packets) / (
            256 * len(paged.packets)
        )
        assert utilisation > 0.7

    def test_no_packet_overflow(self, voronoi60):
        tree = TrianTree(voronoi60)
        for cap in (64, 256, 2048):
            paged = PagedTrianTree(tree, params_for(cap))
            assert all(p.used <= p.capacity for p in paged.packets)

    def test_node_size_model(self, voronoi60):
        tree = TrianTree(voronoi60)
        paged = PagedTrianTree(tree, params_for(256))
        sizes = []
        for children in child_lists(tree):
            expected = 2 + 12 + max(1, len(children)) * 4
            assert paged.node_size(len(children)) == expected
            sizes.append(expected)
        # Every byte on the air is the root directory or a node.
        used = sum(p.used for p in paged.packets)
        assert used == paged.root_directory_size() + sum(sizes)
