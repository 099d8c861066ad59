"""Unit tests for Algorithm 3 (paging the D-tree)."""

import pytest

from repro.broadcast.params import SystemParameters
from repro.core.dtree import DTree
from repro.core.paging import PagedDTree
from repro.tessellation.grid import grid_subdivision

from tests.conftest import random_points_in


def params_for(cap):
    return SystemParameters.for_index("dtree", cap)


class TestNodeSizeModel:
    def test_single_packet_node_size(self, voronoi60):
        tree = DTree.build(voronoi60)
        paged = PagedDTree(tree, params_for(2048))
        expected = 2 + 2 + 2 * 4 + tree.partition[tree.root].size * 4
        assert paged.node_size(tree.root) == expected

    def test_large_node_gets_rmc_coordinate(self, voronoi60):
        tree = DTree.build(voronoi60)
        paged = PagedDTree(tree, params_for(64))
        for row in tree.iter_nodes():
            base = 2 + 2 + 8 + tree.partition[row].size * 4
            if base > 64:
                assert paged.node_size(row) == base + 4
            else:
                assert paged.node_size(row) == base

    def test_index_bytes_independent_of_capacity_for_small_nodes(self):
        sub = grid_subdivision(2, 2)
        tree = DTree.build(sub)
        sizes = {
            cap: PagedDTree(tree, params_for(cap)).index_bytes
            for cap in (512, 1024, 2048)
        }
        assert len(set(sizes.values())) == 1


class TestAllocation:
    def test_every_node_allocated(self, voronoi60):
        tree = DTree.build(voronoi60)
        paged = PagedDTree(tree, params_for(256))
        for row in tree.iter_nodes():
            assert paged.packets_of_node(tree.node_id[row])

    def test_large_nodes_span_consecutive_packets(self, voronoi60):
        tree = DTree.build(voronoi60)
        paged = PagedDTree(tree, params_for(64))
        spans = [
            paged.packets_of_node(node_id)
            for node_id in tree.node_id
            if len(paged.packets_of_node(node_id)) > 1
        ]
        assert spans, "64-byte packets should force multi-packet nodes"
        for span in spans:
            assert span == list(range(span[0], span[0] + len(span)))

    def test_no_packet_overflows(self, voronoi60):
        tree = DTree.build(voronoi60)
        for cap in (64, 256, 2048):
            paged = PagedDTree(tree, params_for(cap))
            assert all(p.used <= p.capacity for p in paged.packets)
            assert all(p.used > 0 for p in paged.packets)

    def test_child_packet_never_precedes_parent(self, voronoi60):
        tree = DTree.build(voronoi60)
        for cap in (64, 256, 2048):
            paged = PagedDTree(tree, params_for(cap))
            for row in tree.iter_nodes():
                for child in (tree.left[row], tree.right[row]):
                    if child >= 0:
                        assert (
                            paged.packets_of_row(child)[0]
                            >= paged.packets_of_row(row)[-1]
                            or paged.packets_of_row(child)[0]
                            >= paged.packets_of_row(row)[0]
                        )

    def test_larger_packets_fewer_packets(self, voronoi60):
        tree = DTree.build(voronoi60)
        counts = [
            len(PagedDTree(tree, params_for(cap)).packets)
            for cap in (64, 128, 256, 512, 1024, 2048)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_merge_improves_utilisation(self, voronoi60):
        tree = DTree.build(voronoi60)
        merged = PagedDTree(tree, params_for(2048), merge_leaves=True)
        unmerged = PagedDTree(tree, params_for(2048), merge_leaves=False)
        assert len(merged.packets) <= len(unmerged.packets)

    def test_one_node_per_packet_ablation(self, voronoi60):
        tree = DTree.build(voronoi60)
        naive = PagedDTree(
            tree, params_for(2048), top_down=False, merge_leaves=False
        )
        # Every single-packet node sits alone.
        assert len(naive.packets) >= tree.node_count


class TestTracedQueries:
    @pytest.mark.parametrize("cap", [64, 128, 256, 2048])
    def test_trace_matches_oracle(self, voronoi60, cap):
        tree = DTree.build(voronoi60)
        paged = PagedDTree(tree, params_for(cap))
        for p in random_points_in(voronoi60, 300, seed=cap):
            trace = paged.trace(p)
            assert trace.region_id == voronoi60.locate(p)

    @pytest.mark.parametrize("cap", [64, 256, 2048])
    def test_trace_is_forward_only(self, voronoi60, cap):
        tree = DTree.build(voronoi60)
        paged = PagedDTree(tree, params_for(cap))
        for p in random_points_in(voronoi60, 300, seed=cap + 1):
            accessed = paged.trace(p).packets_accessed
            assert all(b >= a for a, b in zip(accessed, accessed[1:]))

    def test_early_termination_reduces_tuning(self, voronoi60):
        tree = DTree.build(voronoi60)
        on = PagedDTree(tree, params_for(64), early_termination=True)
        off = PagedDTree(tree, params_for(64), early_termination=False)
        points = random_points_in(voronoi60, 400, seed=9)
        tuning_on = sum(on.trace(p).tuning_time for p in points)
        tuning_off = sum(off.trace(p).tuning_time for p in points)
        assert tuning_on < tuning_off

    def test_early_termination_never_changes_answers(self, voronoi60):
        tree = DTree.build(voronoi60)
        on = PagedDTree(tree, params_for(64), early_termination=True)
        off = PagedDTree(tree, params_for(64), early_termination=False)
        for p in random_points_in(voronoi60, 300, seed=10):
            assert on.trace(p).region_id == off.trace(p).region_id

    def test_tuning_decreases_with_capacity(self, voronoi60):
        tree = DTree.build(voronoi60)
        points = random_points_in(voronoi60, 300, seed=11)
        means = []
        for cap in (64, 256, 2048):
            paged = PagedDTree(tree, params_for(cap))
            means.append(
                sum(paged.trace(p).tuning_time for p in points) / len(points)
            )
        assert means[0] > means[1] > means[2]

    def test_top_down_beats_naive_tuning(self, voronoi60):
        tree = DTree.build(voronoi60)
        points = random_points_in(voronoi60, 300, seed=12)
        top_down = PagedDTree(tree, params_for(2048), top_down=True)
        naive = PagedDTree(
            tree, params_for(2048), top_down=False, merge_leaves=False
        )
        t_top = sum(top_down.trace(p).tuning_time for p in points)
        t_naive = sum(naive.trace(p).tuning_time for p in points)
        assert t_top < t_naive

    def test_grid_paged_correctness(self, grid4x4):
        tree = DTree.build(grid4x4)
        paged = PagedDTree(tree, params_for(128))
        for p in random_points_in(grid4x4, 300, seed=13):
            assert paged.trace(p).region_id == grid4x4.locate(p)
