"""Paging and traced queries for the R*-tree (§3.2, §5).

Layout on the channel: depth-first preorder, each tree node in its own
packet (the fan-out is derived from the packet capacity so a node always
fits).  The added shape layer is paged greedily: a leaf's shape nodes are
packed into the free space of the leaf's packet and then into consecutive
packets following it, so the DFS search with backtracking only ever moves
forward on the channel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import PagingError, QueryError
from repro.geometry.point import Point
from repro.broadcast.packets import PacketStore, QueryTrace, dedupe_consecutive
from repro.broadcast.params import SystemParameters
from repro.rstar.tree import RStarNode, RStarTree


def rstar_fanout(params: SystemParameters) -> int:
    """Maximum entries per node for a packet-sized R*-tree node.

    An entry is an MBR (two coordinate pairs) plus a 2-byte pointer.
    """
    entry_size = 2 * params.coordinate_size + params.pointer_size
    fanout = (params.packet_capacity - params.bid_size) // entry_size
    if fanout < 2:
        raise PagingError(
            f"packet capacity {params.packet_capacity} too small for an "
            "R*-tree node"
        )
    return fanout


class PagedRStarTree:
    """The R*-tree plus shape layer allocated to packets in DFS order."""

    def __init__(self, tree: RStarTree, params: SystemParameters) -> None:
        self.tree = tree
        self.params = params
        self._store = PacketStore(params.packet_capacity)
        #: id(node) -> packet id of the node.
        self._node_packet: Dict[int, int] = {}
        #: region_id -> packet ids of its shape node (consecutive).
        self._shape_packets: Dict[int, List[int]] = {}
        self._allocate()
        self.packets = self._store.packets

    # -- size model -------------------------------------------------------------

    def node_size(self, node: RStarNode) -> int:
        entry_size = 2 * self.params.coordinate_size + self.params.pointer_size
        return self.params.bid_size + len(node.entries) * entry_size

    def shape_size(self, region_id: int) -> int:
        """Shape node: bid + polygon ring + pointer to the data bucket."""
        polygon = self.tree.subdivision.region(region_id).polygon
        return (
            self.params.bid_size
            + len(polygon.vertices) * self.params.coordinate_size
            + self.params.pointer_size
        )

    # -- allocation -----------------------------------------------------------

    def _allocate(self) -> None:
        capacity = self.params.packet_capacity

        def place_shape(region_id: int, open_packet) -> Tuple[List[int], object]:
            """Greedy shape placement; returns (packet ids, new open packet)."""
            size = self.shape_size(region_id)
            ids: List[int] = []
            if open_packet is not None and open_packet.free > 0 and size <= open_packet.free:
                open_packet.allocate(size, f"shape{region_id}")
                return [open_packet.packet_id], open_packet
            remaining = size
            part = 0
            while remaining > capacity:
                packet = self._store.new_packet()
                packet.allocate(capacity, f"shape{region_id}/part{part}")
                ids.append(packet.packet_id)
                remaining -= capacity
                part += 1
            packet = self._store.new_packet()
            packet.allocate(remaining, f"shape{region_id}/part{part}")
            ids.append(packet.packet_id)
            return ids, packet

        def walk(node: RStarNode) -> None:
            size = self.node_size(node)
            if size > capacity:
                raise PagingError("R*-tree node exceeds the packet capacity")
            packet = self._store.new_packet()
            # Labelled by preorder ordinal, so equal trees page to equal
            # packet contents.
            packet.allocate(size, f"rnode#{len(self._node_packet)}")
            self._node_packet[id(node)] = packet.packet_id
            if node.is_leaf:
                open_packet = packet
                for entry in node.entries:
                    assert entry.region_id is not None
                    ids, open_packet = place_shape(entry.region_id, open_packet)
                    self._shape_packets[entry.region_id] = ids
            else:
                for entry in node.entries:
                    assert entry.child is not None
                    walk(entry.child)

        walk(self.tree.root)

    # -- pickling -------------------------------------------------------------

    def _nodes_preorder(self) -> List[RStarNode]:
        """Every tree node in the DFS preorder of :meth:`_allocate`."""
        out: List[RStarNode] = []

        def walk(node: RStarNode) -> None:
            out.append(node)
            if not node.is_leaf:
                for entry in node.entries:
                    walk(entry.child)

        walk(self.tree.root)
        return out

    def __getstate__(self) -> dict:
        """Make the paged tree picklable (fleet workers under ``spawn``).

        ``_node_packet`` is keyed by ``id(node)`` — meaningless in
        another process — so it is shipped as a packet list in DFS
        preorder and re-keyed against the unpickled node objects on
        restore.  The compiled-tracer cache is dropped: it is derived
        state, rebuilt on demand (or reattached from shared memory by
        the fleet layer).
        """
        state = dict(self.__dict__)
        state.pop("_compiled_rstar", None)
        state["_node_packet"] = [
            self._node_packet[id(node)] for node in self._nodes_preorder()
        ]
        return state

    def __setstate__(self, state: dict) -> None:
        packets_preorder = state.pop("_node_packet")
        self.__dict__.update(state)
        self._node_packet = {
            id(node): packet
            for node, packet in zip(self._nodes_preorder(), packets_preorder)
        }

    # -- traced query ---------------------------------------------------------

    def trace(self, point: Point) -> QueryTrace:
        """DFS point query counting packet accesses (early termination on
        the first successful containment test)."""
        accesses: List[int] = []
        region = self._search(self.tree.root, point, accesses)
        if region is None:
            raise QueryError(f"{point!r} not found in the paged R*-tree")
        return QueryTrace(region, dedupe_consecutive(accesses))

    def _search(
        self, node: RStarNode, point: Point, accesses: List[int]
    ) -> Optional[int]:
        accesses.append(self._node_packet[id(node)])
        for entry in node.entries:
            if not entry.mbr.contains_point(point):
                continue
            if node.is_leaf:
                assert entry.region_id is not None
                accesses.extend(self._shape_packets[entry.region_id])
                polygon = self.tree.subdivision.region(entry.region_id).polygon
                if polygon.contains_point(point):
                    return entry.region_id
            else:
                assert entry.child is not None
                found = self._search(entry.child, point, accesses)
                if found is not None:
                    return found
        return None

    def __repr__(self) -> str:
        return (
            f"PagedRStarTree(packets={len(self.packets)}, "
            f"capacity={self.params.packet_capacity})"
        )
