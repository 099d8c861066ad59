"""Targeted tests of Algorithm 3's packing and merge mechanics."""

import pytest

from repro.broadcast.params import SystemParameters
from repro.core.dtree import DTree
from repro.core.paging import PagedDTree
from repro.tessellation.grid import grid_subdivision

from tests.conftest import random_points_in


def params_for(cap):
    return SystemParameters.for_index("dtree", cap)


class TestTopDownSharing:
    def test_small_tree_fits_one_packet(self):
        sub = grid_subdivision(1, 2)  # one node
        paged = PagedDTree(DTree.build(sub), params_for(256))
        assert len(paged.packets) == 1

    def test_children_share_root_packet_when_space_allows(self):
        sub = grid_subdivision(2, 2)  # 3 nodes, tiny partitions
        paged = PagedDTree(DTree.build(sub), params_for(2048))
        assert len(paged.packets) == 1
        tree = paged.tree
        root_packet = paged.packets_of_row(tree.root)
        for node_id in tree.node_id:
            assert paged.packets_of_node(node_id) == root_packet

    def test_tiny_packets_force_spanning(self, voronoi60):
        paged = PagedDTree(DTree.build(voronoi60), params_for(64))
        spans = [
            len(paged.packets_of_row(row))
            for row in paged.tree.iter_nodes()
        ]
        assert max(spans) > 1


class TestMergeMechanics:
    def test_merge_preserves_total_bytes(self, voronoi60):
        tree = DTree.build(voronoi60)
        merged = PagedDTree(tree, params_for(1024), merge_leaves=True)
        unmerged = PagedDTree(tree, params_for(1024), merge_leaves=False)
        assert (
            sum(p.used for p in merged.packets)
            == sum(p.used for p in unmerged.packets)
        )

    def test_merge_never_overflows(self, voronoi60):
        tree = DTree.build(voronoi60)
        for cap in (128, 512, 2048):
            paged = PagedDTree(tree, params_for(cap), merge_leaves=True)
            assert all(p.used <= p.capacity for p in paged.packets)

    def test_merge_keeps_every_node_allocated(self, voronoi60):
        tree = DTree.build(voronoi60)
        paged = PagedDTree(tree, params_for(2048), merge_leaves=True)
        packet_count = len(paged.packets)
        for node_id in tree.node_id:
            pkts = paged.packets_of_node(node_id)
            assert pkts
            assert all(0 <= pid < packet_count for pid in pkts)

    def test_merge_preserves_channel_order_validity(self, voronoi60):
        """After merging, no child may precede any of its parents."""
        tree = DTree.build(voronoi60)
        for cap in (512, 2048):
            paged = PagedDTree(tree, params_for(cap), merge_leaves=True)
            for row in tree.iter_nodes():
                for child in (tree.left[row], tree.right[row]):
                    if child >= 0:
                        assert (
                            paged.packets_of_row(child)[0]
                            >= paged.packets_of_row(row)[-1]
                        )
            # And traced queries stay forward-only.
            for p in random_points_in(voronoi60, 150, seed=cap):
                accessed = paged.trace(p).packets_accessed
                assert all(b >= a for a, b in zip(accessed, accessed[1:]))

    def test_merge_compacts_fragmented_allocations(self):
        """On a tree big enough to fragment, merging collapses the tail
        of mostly-empty subtree packets (cf. HOSPITAL@2KB: 35 -> 4)."""
        from repro.datasets.catalog import SERVICE_AREA
        from repro.datasets.generators import uniform_points
        from repro.tessellation.voronoi import voronoi_subdivision

        sites = uniform_points(150, seed=23, service_area=SERVICE_AREA)
        sub = voronoi_subdivision(sites, SERVICE_AREA)
        tree = DTree.build(sub)
        merged = PagedDTree(tree, params_for(2048), merge_leaves=True)
        unmerged = PagedDTree(tree, params_for(2048), merge_leaves=False)
        assert len(merged.packets) < len(unmerged.packets) / 2
        utilisation = lambda paged: sum(p.used for p in paged.packets) / (
            2048 * len(paged.packets)
        )
        assert utilisation(merged) > utilisation(unmerged)


class TestBreakAccounting:
    def test_break_coordinates_only_for_multi_polyline_nodes(self, voronoi60):
        tree = DTree.build(voronoi60)
        plain = PagedDTree(tree, params_for(512), count_polyline_breaks=False)
        exact = PagedDTree(tree, params_for(512), count_polyline_breaks=True)
        for row in tree.iter_nodes():
            delta = exact.node_size(row) - plain.node_size(row)
            breaks = max(0, len(tree.partition[row].polylines) - 1)
            expected = breaks * 4
            if tree.partition[row].size == 0:
                expected += 4
            # RMC threshold may differ between the two accountings by one
            # coordinate; allow that.
            assert delta in (expected, expected + 4, expected - 4)
