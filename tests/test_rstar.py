"""Unit tests for the R*-tree baseline (§3.2)."""

import pytest

from repro.errors import IndexBuildError, PagingError
from repro.geometry.point import Point
from repro.broadcast.params import SystemParameters
from repro.rstar.paged import PagedRStarTree, rstar_fanout
from repro.rstar.tree import RStarTree

from tests.conftest import random_points_in


def params_for(cap):
    return SystemParameters.for_index("rstar", cap)


class TestFanout:
    def test_entry_size_model(self):
        # entry = 2 coordinate pairs (8B) + 2B pointer = 10B.
        assert rstar_fanout(params_for(64)) == 6
        assert rstar_fanout(params_for(256)) == 25
        assert rstar_fanout(params_for(2048)) == 204

    def test_too_small_packet(self):
        with pytest.raises(PagingError):
            rstar_fanout(params_for(20))  # (20 - 2) // 10 = 1 entry


class TestConstruction:
    @pytest.mark.parametrize("fanout", [4, 6, 25])
    def test_invariants_hold(self, voronoi60, fanout):
        tree = RStarTree.build(voronoi60, fanout)
        tree.check_invariants()

    def test_min_fanout_rejected(self, voronoi60):
        with pytest.raises(IndexBuildError):
            RStarTree(voronoi60, max_entries=1)

    def test_root_split_grows_height(self, voronoi60):
        tree = RStarTree.build(voronoi60, 4)
        assert tree.height >= 3  # 60 regions at fanout 4

    def test_all_regions_present(self, voronoi60):
        tree = RStarTree.build(voronoi60, 6)
        seen = [
            region_id
            for node in tree.nodes_depth_first()
            if tree.node_level[node] == 0
            for region_id in tree.node_targets[node]
        ]
        assert sorted(seen) == voronoi60.region_ids

    def test_mbrs_tight(self, voronoi60):
        tree = RStarTree.build(voronoi60, 6)
        for node in tree.nodes_depth_first():
            if tree.node_level[node] == 0:
                continue
            for box, child in zip(tree.node_boxes[node], tree.node_targets[node]):
                boxes = tree.node_boxes[child]
                assert box == (
                    min(b[0] for b in boxes),
                    min(b[1] for b in boxes),
                    max(b[2] for b in boxes),
                    max(b[3] for b in boxes),
                )


class TestLogicalQuery:
    def test_agrees_with_oracle(self, voronoi60):
        tree = RStarTree.build(voronoi60, 6)
        for p in random_points_in(voronoi60, 600, seed=2):
            assert tree.locate(p) == voronoi60.locate(p)

    def test_clustered(self, clustered40):
        tree = RStarTree.build(clustered40, 10)
        for p in random_points_in(clustered40, 400, seed=3):
            assert tree.locate(p) == clustered40.locate(p)

    def test_grid(self, grid4x4):
        tree = RStarTree.build(grid4x4, 4)
        for p in random_points_in(grid4x4, 300, seed=4):
            assert tree.locate(p) == grid4x4.locate(p)


class TestPaged:
    @pytest.mark.parametrize("cap", [64, 256, 2048])
    def test_trace_matches_oracle(self, voronoi60, cap):
        params = params_for(cap)
        tree = RStarTree.build(voronoi60, rstar_fanout(params))
        paged = PagedRStarTree(tree, params)
        for p in random_points_in(voronoi60, 300, seed=cap):
            assert paged.trace(p).region_id == voronoi60.locate(p)

    @pytest.mark.parametrize("cap", [64, 256])
    def test_trace_forward_only(self, voronoi60, cap):
        params = params_for(cap)
        tree = RStarTree.build(voronoi60, rstar_fanout(params))
        paged = PagedRStarTree(tree, params)
        for p in random_points_in(voronoi60, 300, seed=cap + 1):
            accessed = paged.trace(p).packets_accessed
            assert all(b >= a for a, b in zip(accessed, accessed[1:]))

    def test_no_packet_overflow(self, voronoi60):
        for cap in (64, 256, 2048):
            params = params_for(cap)
            tree = RStarTree.build(voronoi60, rstar_fanout(params))
            paged = PagedRStarTree(tree, params)
            assert all(p.used <= p.capacity for p in paged.packets)

    def test_shape_layer_counted(self, voronoi60):
        # Every region's shape must be allocated somewhere.
        params = params_for(256)
        tree = RStarTree.build(voronoi60, rstar_fanout(params))
        paged = PagedRStarTree(tree, params)
        leaf = paged.entry_child < 0
        assert sorted((~paged.entry_child[leaf]).tolist()) == voronoi60.region_ids
        counts = paged.shape_start[1:] - paged.shape_start[:-1]
        assert (counts[leaf] >= 1).all() and (counts[~leaf] == 0).all()

    def test_tuning_includes_shape_accesses(self, voronoi60):
        # A traced query must access at least root + leaf + one shape.
        params = params_for(256)
        tree = RStarTree.build(voronoi60, rstar_fanout(params))
        paged = PagedRStarTree(tree, params)
        trace = paged.trace(Point(0.5, 0.5))
        assert trace.tuning_time >= 2
