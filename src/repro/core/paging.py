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

from typing import List

from repro.geometry.point import Point
from repro.broadcast.packets import PacketStore, QueryTrace, dedupe_consecutive
from repro.broadcast.params import SystemParameters
from repro.core.dtree import DTree


class PagedDTree:
    """The D-tree allocated to fixed-capacity packets in broadcast order.

    Tree row *r* occupies the packets ``span_packets[span_start[r] :
    span_start[r + 1]]``, in order (a packet-span CSR over the rows).
    """

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
        order = tree.nodes_breadth_first()
        parent = [-1] * len(tree.node_id)
        for row in order:
            for code in (tree.left[row], tree.right[row]):
                if code >= 0:
                    parent[code] = row
        # Each row's packets are consecutive: (first, count) per row.
        first, count = self._allocate(order, parent)
        if merge_leaves:
            self._merge_leaf_packets(order, parent, first, count)
        self.span_start = [0]
        self.span_packets: List[int] = []
        for f, c in zip(first, count):
            self.span_packets.extend(range(f, f + c))
            self.span_start.append(len(self.span_packets))
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

    def node_size(self, row: int) -> int:
        """Serialized size of tree row *row* (Figure 7 layout, Table 2)."""
        p = self.params
        partition = self.tree.partition[row]
        coords = partition.size
        if self.count_polyline_breaks:
            coords += max(0, len(partition.polylines) - 1)
            if partition.size == 0:
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
        return sum(self.node_size(row) for row in self.tree.nodes_breadth_first())

    # -- allocation (Algorithm 3) ---------------------------------------------

    def _allocate(self, order: List[int], parent: List[int]):
        """Place the rows in breadth-first *order*; returns each row's
        first packet and packet count."""
        first = [0] * len(parent)
        count = [1] * len(parent)
        node_id = self.tree.node_id
        packets = self._store.packets
        capacity = self.params.packet_capacity
        for row in order:
            size = self.node_size(row)
            up = parent[row]
            if self.top_down and up >= 0:
                parent_packet = packets[first[up] + count[up] - 1]
                if size <= parent_packet.free:
                    parent_packet.allocate(size, f"node{node_id[row]}")
                    first[row] = parent_packet.packet_id
                    continue
            # New packet(s); a large node spans consecutive full packets
            # followed by one partially-filled packet.
            remaining = size
            part = 0
            first[row] = len(packets)
            while remaining > capacity:
                packet = self._store.new_packet()
                packet.allocate(capacity, f"node{node_id[row]}/part{part}")
                remaining -= capacity
                part += 1
            packet = self._store.new_packet()
            packet.allocate(remaining, f"node{node_id[row]}/part{part}")
            count[row] = part + 1
        return first, count

    def _merge_leaf_packets(
        self, order: List[int], parent: List[int], first: List[int], count: List[int]
    ) -> None:
        """Greedy merge of partially-filled packets (Algorithm 3 lines
        19-25, generalised).

        Top-down allocation leaves a trail of mostly-empty packets holding
        small bottom subtrees whose parents live in earlier, already-full
        packets.  The paper merges "partial packets at the leaf level in a
        greedy way"; we merge a later packet into an earlier open packet
        whenever that is valid on the linear channel — every node moved
        must keep all its parents at or before the target packet, so the
        client still only ever reads forward.  Packets of multi-packet
        (large) nodes never move, so every row's packets stay
        consecutive.  Updates *first* in place.
        """
        tree = self.tree
        packets = self._store.packets
        parent_packet = [
            first[up] + count[up] - 1 if up >= 0 else -1 for up in parent
        ]
        # Rows in each packet, in allocation (breadth-first) order.
        packet_rows: List[List[int]] = [[] for _ in packets]
        for row in order:
            for pid in range(first[row], first[row] + count[row]):
                packet_rows[pid].append(row)

        open_pid = -1
        for packet in list(packets):
            pid = packet.packet_id
            rows = packet_rows[pid]
            movable = rows and all(count[row] == 1 for row in rows)
            if open_pid >= 0 and movable:
                target = packets[open_pid]
                parents_ok = all(
                    parent_packet[row] <= open_pid or parent[row] in rows
                    for row in rows
                )
                if parents_ok and packet.used <= target.free:
                    for row in rows:
                        target.allocate(self.node_size(row), f"node{tree.node_id[row]}")
                        first[row] = open_pid
                        for code in (tree.left[row], tree.right[row]):
                            if code >= 0:
                                parent_packet[code] = open_pid
                    packet.used = 0
                    packet.contents = []
                    continue
            if packet.free > 0:
                open_pid = pid

        # Drop emptied packets and renumber, preserving broadcast order.
        kept = [p for p in packets if p.used > 0]
        remap = [0] * len(packets)
        for i, p in enumerate(kept):
            remap[p.packet_id] = i
            p.packet_id = i
        self._store.packets = kept
        first[:] = [remap[pid] for pid in first]

    # -- traced query -----------------------------------------------------------

    def trace(self, point: Point) -> QueryTrace:
        """Answer a point query over the paged tree, recording packet reads.

        Mirrors the client behaviour of §4.4: single-packet nodes cost one
        read; multi-packet nodes cost one read when the first packet's
        RMC/LMC decide the side, or the whole span when the parity test is
        needed (or when early termination is disabled).
        """
        tree = self.tree
        if tree.root is None:
            only = tree.subdivision.regions[0].region_id
            return QueryTrace(only, [])
        start, span = self.span_start, self.span_packets
        accesses: List[int] = []
        row = tree.root
        while True:
            lo, hi = start[row], start[row + 1]
            accesses.append(span[lo])
            partition = tree.partition[row]
            if hi - lo == 1:
                side = partition.side_of(point)
            else:
                side = (
                    partition.early_side_of(point)
                    if self.early_termination
                    else None
                )
                if side is None:
                    accesses.extend(span[lo + 1 : hi])
                    side = partition.side_of(point)
            row = tree.left[row] if side == "first" else tree.right[row]
            if row < 0:
                return QueryTrace(~row, dedupe_consecutive(accesses))

    # -- diagnostics -----------------------------------------------------------

    def packets_of_row(self, row: int) -> List[int]:
        """Packet ids tree row *row* occupies, in order."""
        return self.span_packets[self.span_start[row] : self.span_start[row + 1]]

    def packets_of_node(self, node_id: int) -> List[int]:
        """Packet ids node *node_id* occupies (diagnostics)."""
        return self.packets_of_row(self.tree.row_of(node_id))

    def __repr__(self) -> str:
        return (
            f"PagedDTree(packets={len(self.packets)}, "
            f"capacity={self.params.packet_capacity})"
        )
