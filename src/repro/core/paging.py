"""Paging the binary D-tree into broadcast packets — Algorithm 3 (§4.4).

The tree is traversed breadth-first (also its broadcast order).  A node is
placed in the packet holding its parent when it fits in the remaining
space; otherwise it opens new packet(s) — a node larger than one packet
spans consecutive packets.  Partially-filled leaf-level packets are merged
greedily at the end.

Large-node layout (§4.4): the node's first packet carries the bid, header,
both child pointers, the RMC value and the partition's LMC starting point,
so a client whose query point falls in an exclusive zone (D1/D3) decides
the side after reading just that first packet; only queries in the
interlocking zone D2 must download the whole partition for the parity
test.  Both the top-down placement and this early-termination layout can
be disabled, which is what the A2/A3 ablation benchmarks measure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.geometry.point import Point
from repro.broadcast.packets import PacketStore, QueryTrace, dedupe_consecutive
from repro.broadcast.params import SystemParameters
from repro.core.dtree import DTree, DTreeNode


class PagedDTree:
    """The D-tree allocated to fixed-capacity packets in broadcast order."""

    def __init__(
        self,
        tree: DTree,
        params: SystemParameters,
        early_termination: bool = True,
        top_down: bool = True,
        merge_leaves: bool = True,
        count_polyline_breaks: bool = False,
    ) -> None:
        self.tree = tree
        self.params = params
        #: §4.4 pointers-before-partition + RMC/LMC arrangement (A2 ablation).
        self.early_termination = early_termination
        #: Algorithm 3 parent-packet sharing vs one-node-per-packet (A3).
        self.top_down = top_down
        #: Exact-serialization accounting: one extra coordinate per extra
        #: polyline (the break marker) and one pseudo-coordinate for an
        #: empty partition (carrying the D1/D3 bounds).  The paper's size
        #: model ignores these, so the default leaves them out.
        self.count_polyline_breaks = count_polyline_breaks
        self._store = PacketStore(params.packet_capacity)
        #: node_id -> ordered ids of the packets the node occupies.
        self._node_packets: Dict[int, List[int]] = {}
        self._allocate()
        if merge_leaves:
            self._merge_leaf_packets()
        self.packets = self._store.packets

    def __getstate__(self) -> dict:
        """Drop the compiled-tracer cache from pickles: it is derived
        state (large numpy arrays), rebuilt on demand in the unpickling
        process or reattached zero-copy from shared memory by the fleet
        layer."""
        state = dict(self.__dict__)
        state.pop("_compiled_dtree", None)
        return state

    # -- size model ----------------------------------------------------------

    def node_size(self, node: DTreeNode) -> int:
        """Serialized size of one D-tree node (Figure 7 layout, Table 2)."""
        p = self.params
        coords = node.partition.size
        if self.count_polyline_breaks:
            coords += max(0, len(node.partition.polylines) - 1)
            if node.partition.size == 0:
                coords += 1  # bounds-only pseudo-coordinate
        base = (
            p.bid_size
            + p.header_size
            + 2 * p.pointer_size
            + coords * p.coordinate_size
        )
        if base > p.packet_capacity:
            # Large node: one extra RMC coordinate before the partition.
            base += p.coordinate_size
        return base

    @property
    def index_bytes(self) -> int:
        """Total serialized index size in bytes (before packet padding)."""
        return sum(self.node_size(n) for n in self.tree.nodes_breadth_first())

    # -- allocation (Algorithm 3) ---------------------------------------------

    def _allocate(self) -> None:
        nodes = self.tree.nodes_breadth_first()
        if not nodes:
            return
        parent_of: Dict[int, Optional[DTreeNode]] = {nodes[0].node_id: None}
        for node in nodes:
            for child in (node.left, node.right):
                if isinstance(child, DTreeNode):
                    parent_of[child.node_id] = node

        capacity = self.params.packet_capacity
        for node in nodes:
            size = self.node_size(node)
            parent = parent_of[node.node_id]
            parent_packet = None
            if self.top_down and parent is not None:
                parent_packet = self._store.packets[
                    self._node_packets[parent.node_id][-1]
                ]
            if parent_packet is not None and size <= parent_packet.free:
                parent_packet.allocate(size, f"node{node.node_id}")
                self._node_packets[node.node_id] = [parent_packet.packet_id]
                continue
            # New packet(s); a large node spans consecutive full packets
            # followed by one partially-filled packet.
            ids: List[int] = []
            remaining = size
            part = 0
            while remaining > capacity:
                packet = self._store.new_packet()
                packet.allocate(capacity, f"node{node.node_id}/part{part}")
                ids.append(packet.packet_id)
                remaining -= capacity
                part += 1
            packet = self._store.new_packet()
            packet.allocate(remaining, f"node{node.node_id}/part{part}")
            ids.append(packet.packet_id)
            self._node_packets[node.node_id] = ids

    def _merge_leaf_packets(self) -> None:
        """Greedy merge of partially-filled packets (Algorithm 3 lines
        19-25, generalised).

        Top-down allocation leaves a trail of mostly-empty packets holding
        small bottom subtrees whose parents live in earlier, already-full
        packets.  The paper merges "partial packets at the leaf level in a
        greedy way"; we merge a later packet into an earlier open packet
        whenever that is valid on the linear channel — every node moved
        must keep all its parents at or before the target packet, so the
        client still only ever reads forward.  Packets of multi-packet
        (large) nodes never move.
        """
        parent_packet_of: Dict[int, int] = {}
        parent_of: Dict[int, int] = {}
        children_of: Dict[int, List[int]] = {}
        node_of: Dict[int, DTreeNode] = {}
        for node in self.tree.iter_nodes():
            node_of[node.node_id] = node
            children = children_of[node.node_id] = []
            for child in (node.left, node.right):
                if isinstance(child, DTreeNode):
                    parent_of[child.node_id] = node.node_id
                    children.append(child.node_id)
        for nid, pkts in self._node_packets.items():
            parent = parent_of.get(nid)
            if parent is not None:
                parent_packet_of[nid] = self._node_packets[parent][-1]

        multi_packet_nodes = {
            nid for nid, pkts in self._node_packets.items() if len(pkts) > 1
        }
        packet_nodes: Dict[int, List[int]] = {}
        for nid, pkts in self._node_packets.items():
            for pid in pkts:
                packet_nodes.setdefault(pid, []).append(nid)

        open_pid: Optional[int] = None
        for packet in list(self._store.packets):
            pid = packet.packet_id
            nids = packet_nodes.get(pid, [])
            movable = nids and all(nid not in multi_packet_nodes for nid in nids)
            if open_pid is not None and movable:
                target = self._store.packets[open_pid]
                local = set(nids)
                parents_ok = all(
                    parent_packet_of.get(nid, -1) <= open_pid
                    or parent_of.get(nid) in local
                    for nid in nids
                )
                if parents_ok and packet.used <= target.free:
                    for nid in nids:
                        target.allocate(self.node_size(node_of[nid]), f"node{nid}")
                        self._node_packets[nid] = [open_pid]
                        for child_nid in children_of[nid]:
                            parent_packet_of[child_nid] = open_pid
                    packet.used = 0
                    packet.contents = []
                    continue
            if packet.free > 0:
                open_pid = pid

        # Drop emptied packets and renumber, preserving broadcast order.
        kept = [p for p in self._store.packets if p.used > 0]
        remap = {p.packet_id: i for i, p in enumerate(kept)}
        for i, p in enumerate(kept):
            p.packet_id = i
        self._store.packets = kept
        self._node_packets = {
            nid: [remap[pid] for pid in pkts]
            for nid, pkts in self._node_packets.items()
        }

    # -- traced query -----------------------------------------------------------

    def trace(self, point: Point) -> QueryTrace:
        """Answer a point query over the paged tree, recording packet reads.

        Mirrors the client behaviour of §4.4: single-packet nodes cost one
        read; multi-packet nodes cost one read when the first packet's
        RMC/LMC decide the side, or the whole span when the parity test is
        needed (or when early termination is disabled).
        """
        if self.tree.root is None:
            only = self.tree.subdivision.regions[0].region_id
            return QueryTrace(only, [])
        accesses: List[int] = []
        node = self.tree.root
        while True:
            packet_ids = self._node_packets[node.node_id]
            accesses.append(packet_ids[0])
            if len(packet_ids) == 1:
                side = node.partition.side_of(point)
            else:
                side = (
                    node.partition.early_side_of(point)
                    if self.early_termination
                    else None
                )
                if side is None:
                    accesses.extend(packet_ids[1:])
                    side = node.partition.side_of(point)
            child = node.left if side == "first" else node.right
            if isinstance(child, DTreeNode):
                node = child
            else:
                return QueryTrace(child, dedupe_consecutive(accesses))

    # -- diagnostics -----------------------------------------------------------

    def packets_of_node(self, node_id: int) -> List[int]:
        """Packet ids a node occupies (diagnostics)."""
        return list(self._node_packets[node_id])

    def __repr__(self) -> str:
        return (
            f"PagedDTree(packets={len(self.packets)}, "
            f"capacity={self.params.packet_capacity})"
        )
