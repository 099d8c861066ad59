"""Paging and traced queries for the R*-tree (§3.2, §5).

Layout on the channel: depth-first preorder, each tree node in its own
packet (the fan-out is derived from the packet capacity so a node always
fits).  The added shape layer is paged greedily: a leaf's shape nodes are
packed into the free space of the leaf's packet and then into consecutive
packets following it, so the DFS search with backtracking only ever moves
forward on the channel.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import PagingError, QueryError
from repro.geometry.point import Point
from repro.broadcast.packets import PacketStore, QueryTrace, dedupe_consecutive
from repro.broadcast.params import SystemParameters
from repro.rstar.tree import RStarTree


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
    """The R*-tree plus shape layer allocated to packets in DFS order.

    Paging takes a snapshot of the tree, its nodes numbered by DFS
    preorder (the root is node 0): ``node_packet`` is each node's packet,
    node *k*'s entries are ``entry_start[k] : entry_start[k + 1]`` of
    ``entry_boxes`` (a ``(4, entries)`` array of ``min_x``, ``min_y``,
    ``max_x`` and ``max_y`` rows) and ``entry_child`` (the child's node
    number, or ``~region_id`` at a leaf), and a leaf entry's shape
    packets are ``shape_packets[shape_start[e] : shape_start[e + 1]]``
    (empty for internal entries).  Tracing, compiling and pickling read
    the snapshot and :attr:`subdivision`, never the tree, which
    maintenance may go on changing.
    """

    def __init__(self, tree: RStarTree, params: SystemParameters) -> None:
        self.tree = tree
        self.params = params
        #: The subdivision the snapshot was paged from.
        self.subdivision = tree.subdivision
        self._store = PacketStore(params.packet_capacity)
        self._allocate()
        self.packets = self._store.packets

    # -- size model -------------------------------------------------------------

    def node_size(self, entries: int) -> int:
        """Node of *entries* entries: bid + one MBR and pointer each."""
        entry_size = 2 * self.params.coordinate_size + self.params.pointer_size
        return self.params.bid_size + entries * entry_size

    def shape_size(self, region_id: int) -> int:
        """Shape node: bid + polygon ring + pointer to the data bucket."""
        polygon = self.subdivision.region(region_id).polygon
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

        tree = self.tree
        order = tree.nodes_depth_first()
        number = {node: k for k, node in enumerate(order)}
        node_packet: List[int] = []
        entry_start = [0]
        child: List[int] = []
        shape_start = [0]
        shape_packets: List[int] = []
        for k, node in enumerate(order):
            targets = tree.node_targets[node]
            size = self.node_size(len(targets))
            if size > capacity:
                raise PagingError("R*-tree node exceeds the packet capacity")
            packet = self._store.new_packet()
            # Labelled by preorder ordinal, so equal trees page to equal
            # packet contents.
            packet.allocate(size, f"rnode#{k}")
            node_packet.append(packet.packet_id)
            entry_start.append(entry_start[-1] + len(targets))
            if tree.node_level[node] == 0:
                open_packet = packet
                for region_id in targets:
                    ids, open_packet = place_shape(region_id, open_packet)
                    child.append(~region_id)
                    shape_packets += ids
                    shape_start.append(len(shape_packets))
            else:
                child += [number[c] for c in targets]
                shape_start += [len(shape_packets)] * len(targets)
        self.node_packet = np.array(node_packet, np.int64)
        self.entry_start = np.array(entry_start, np.int64)
        self.entry_boxes = np.array(
            [box for node in order for box in tree.node_boxes[node]], np.float64
        ).reshape(-1, 4).T.copy()
        self.entry_child = np.array(child, np.int64)
        self.shape_start = np.array(shape_start, np.int64)
        self.shape_packets = np.array(shape_packets, np.int64)

    @cached_property
    def _lists(self) -> tuple:
        """Python-list mirrors of the snapshot for the per-point trace."""
        return (
            self.node_packet.tolist(),
            self.entry_start.tolist(),
            *self.entry_boxes.tolist(),
            self.entry_child.tolist(),
            self.shape_start.tolist(),
            self.shape_packets.tolist(),
        )

    def __getstate__(self) -> dict:
        """Pickle the snapshot alone: not the tree (``tree`` unpickles as
        None), nor the derived state, the compiled arrays
        (``repro.engine.trace``; fleet workers rebuild or attach them
        from a shared-memory arena) and the list mirrors."""
        state = dict(self.__dict__)
        state["tree"] = None
        state.pop("_compiled_rstar", None)
        state.pop("_lists", None)
        return state

    # -- traced query ---------------------------------------------------------

    def trace(self, point: Point) -> QueryTrace:
        """DFS point query counting packet accesses (early termination on
        the first successful containment test)."""
        accesses: List[int] = []
        region = self._search(0, point, accesses)
        if region is None:
            raise QueryError(f"{point!r} not found in the paged R*-tree")
        return QueryTrace(region, dedupe_consecutive(accesses))

    def _search(self, node: int, point: Point, accesses: List[int]) -> Optional[int]:
        (
            node_packet, entry_start, min_x, min_y, max_x, max_y,
            entry_child, shape_start, shape_packets,
        ) = self._lists
        accesses.append(node_packet[node])
        x, y = point.x, point.y
        for e in range(entry_start[node], entry_start[node + 1]):
            if not (min_x[e] <= x <= max_x[e] and min_y[e] <= y <= max_y[e]):
                continue
            target = entry_child[e]
            if target < 0:
                accesses.extend(shape_packets[shape_start[e] : shape_start[e + 1]])
                if self.subdivision.region(~target).polygon.contains_point(point):
                    return ~target
            else:
                found = self._search(target, point, accesses)
                if found is not None:
                    return found
        return None

    def __repr__(self) -> str:
        return (
            f"PagedRStarTree(packets={len(self.packets)}, "
            f"capacity={self.params.packet_capacity})"
        )

