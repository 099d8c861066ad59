"""A kd-style hyperplane-split air index — the design the D-tree rejects.

The paper notes (§4.1) that the D-tree resembles the kd-tree but is built
on the *divisions between regions* instead of hyperplanes.  This module
implements the hyperplane alternative so the difference can be measured:
space is recursively halved by axis-aligned lines, and a data region whose
extent straddles the line must be referenced on *both* sides.  Queries are
cheap (one float comparison per level) but the duplication inflates the
index — the exact trade-off the D-tree's division-based partitions avoid.

Not part of the paper's evaluation; used by the extension experiment E5
("divisions vs hyperplanes") and its benchmark.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import IndexBuildError, PagingError, QueryError
from repro.geometry.point import Point
from repro.broadcast.packets import PacketStore, QueryTrace, dedupe_consecutive
from repro.broadcast.params import SystemParameters
from repro.tessellation.subdivision import Subdivision


class KDSplitNode:
    """Internal node: an axis-aligned splitting line."""

    __slots__ = ("axis", "value", "left", "right", "ordinal")

    def __init__(self, axis: str, value: float) -> None:
        #: Preorder number, set once the tree is built.
        self.ordinal = -1
        self.axis = axis
        self.value = value
        self.left: Union["KDSplitNode", "KDSplitLeaf", None] = None
        self.right: Union["KDSplitNode", "KDSplitLeaf", None] = None

    def __repr__(self) -> str:
        return f"KDSplitNode({self.axis}={self.value:.4f})"


class KDSplitLeaf:
    """Leaf: the regions whose extents intersect this cell."""

    __slots__ = ("region_ids", "ordinal")

    def __init__(self, region_ids: Sequence[int]) -> None:
        #: Preorder number, set once the tree is built.
        self.ordinal = -1
        self.region_ids = list(region_ids)

    def __repr__(self) -> str:
        return f"KDSplitLeaf(n={len(self.region_ids)})"


class KDSplitTree:
    """Recursive hyperplane splits with region duplication."""

    def __init__(
        self,
        subdivision: Subdivision,
        leaf_capacity: int = 4,
        max_depth: Optional[int] = None,
    ) -> None:
        if leaf_capacity < 1:
            raise IndexBuildError("leaf capacity must be >= 1")
        self.subdivision = subdivision
        self.leaf_capacity = leaf_capacity
        n = len(subdivision)
        if max_depth is None:
            max_depth = 3 * max(1, n).bit_length() + 8
        self.max_depth = max_depth
        self.root = self._build(list(subdivision.region_ids), depth=0)
        #: Every node in DFS preorder — the broadcast order; a node's
        #: ``ordinal`` is its place here.
        self.nodes: List[Union[KDSplitNode, KDSplitLeaf]] = []
        stack: List[Union[KDSplitNode, KDSplitLeaf]] = [self.root]
        while stack:
            node = stack.pop()
            node.ordinal = len(self.nodes)
            self.nodes.append(node)
            if isinstance(node, KDSplitNode):
                stack += (node.right, node.left)

    def _build(
        self, region_ids: List[int], depth: int
    ) -> Union[KDSplitNode, KDSplitLeaf]:
        if len(region_ids) <= self.leaf_capacity or depth >= self.max_depth:
            return KDSplitLeaf(region_ids)
        split = self._choose_split(region_ids)
        if split is None:
            return KDSplitLeaf(region_ids)
        axis, value = split
        left_ids: List[int] = []
        right_ids: List[int] = []
        for rid in region_ids:
            bb = self.subdivision.region(rid).polygon.bbox
            lo = bb.min_x if axis == "x" else bb.min_y
            hi = bb.max_x if axis == "x" else bb.max_y
            if lo < value:
                left_ids.append(rid)
            if hi > value:
                right_ids.append(rid)
        if len(left_ids) >= len(region_ids) or len(right_ids) >= len(region_ids):
            # The split failed to separate anything: stop here.
            return KDSplitLeaf(region_ids)
        node = KDSplitNode(axis, value)
        node.left = self._build(left_ids, depth + 1)
        node.right = self._build(right_ids, depth + 1)
        return node

    def _choose_split(
        self, region_ids: List[int]
    ) -> Optional[Tuple[str, float]]:
        """Median-of-centers split along the wider axis of the group."""
        boxes = [self.subdivision.region(rid).polygon.bbox for rid in region_ids]
        min_x = min(b.min_x for b in boxes)
        max_x = max(b.max_x for b in boxes)
        min_y = min(b.min_y for b in boxes)
        max_y = max(b.max_y for b in boxes)
        axis = "x" if (max_x - min_x) >= (max_y - min_y) else "y"
        centers = sorted(
            (b.center.x if axis == "x" else b.center.y) for b in boxes
        )
        value = centers[len(centers) // 2]
        lo = min_x if axis == "x" else min_y
        hi = max_x if axis == "x" else max_y
        if not (lo < value < hi):
            return None
        return axis, value

    # -- queries -----------------------------------------------------------------

    def locate(self, p: Point) -> int:
        """Descend hyperplanes, then test candidate shapes at the leaf."""
        node = self.root
        while isinstance(node, KDSplitNode):
            coordinate = p.x if node.axis == "x" else p.y
            node = node.left if coordinate <= node.value else node.right
        for rid in node.region_ids:
            if self.subdivision.region(rid).contains(p):
                return rid
        raise QueryError(f"{p!r} not found in the kd-split tree")

    # -- structure accessors --------------------------------------------------------

    def nodes_depth_first(self) -> List[Union[KDSplitNode, KDSplitLeaf]]:
        return list(self.nodes)

    @property
    def duplication_factor(self) -> float:
        """Mean number of leaves referencing each region (>= 1.0)."""
        total = sum(
            len(n.region_ids)
            for n in self.nodes
            if isinstance(n, KDSplitLeaf)
        )
        return total / len(self.subdivision)

    @property
    def height(self) -> int:
        def depth(node) -> int:
            if isinstance(node, KDSplitLeaf):
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        return depth(self.root)


class PagedKDSplitTree:
    """DFS packet layout with a shape layer, like the paged R*-tree.

    Internal node: bid + one axis value + 2 pointers.  Leaf: bid + one
    pointer per referenced region's shape node.  Shape nodes (polygon +
    data pointer) follow their leaf greedily — and unlike the R*-tree each
    *duplicated* region's shape is re-broadcast for every leaf referencing
    it, which is where the hyperplane design pays.
    """

    def __init__(self, tree: KDSplitTree, params: SystemParameters) -> None:
        self.tree = tree
        self.params = params
        self._store = PacketStore(params.packet_capacity)
        #: Per node ordinal, the packet of the node.
        self._node_packet: List[int] = []
        #: Per node ordinal, the packet ids of each of a leaf's shape
        #: copies, in ``region_ids`` order (empty for internal nodes).
        self._shape_packets: List[List[List[int]]] = []
        self._allocate()
        self.packets = self._store.packets

    def node_size(self, node) -> int:
        p = self.params
        if isinstance(node, KDSplitNode):
            return p.bid_size + p.scalar_size + 2 * p.pointer_size
        return p.bid_size + len(node.region_ids) * p.pointer_size

    def shape_size(self, region_id: int) -> int:
        polygon = self.tree.subdivision.region(region_id).polygon
        return (
            self.params.bid_size
            + len(polygon.vertices) * self.params.coordinate_size
            + self.params.pointer_size
        )

    def _allocate(self) -> None:
        capacity = self.params.packet_capacity

        def new_fragment(size: int, label: str, packet=None):
            if packet is not None and size <= packet.free:
                packet.allocate(size, label)
                return [packet.packet_id], packet
            ids: List[int] = []
            remaining = size
            while remaining > capacity:
                chunk = self._store.new_packet()
                chunk.allocate(capacity, f"{label}/part")
                ids.append(chunk.packet_id)
                remaining -= capacity
            last = self._store.new_packet()
            last.allocate(remaining, label)
            ids.append(last.packet_id)
            return ids, last

        for node in self.tree.nodes:
            size = self.node_size(node)
            if size > capacity and isinstance(node, KDSplitNode):
                raise PagingError("kd-split internal node exceeds capacity")
            ids, open_packet = new_fragment(size, f"kdnode#{node.ordinal}")
            self._node_packet.append(ids[0])
            shapes: List[List[int]] = []
            if isinstance(node, KDSplitLeaf):
                for rid in node.region_ids:
                    shape_ids, open_packet = new_fragment(
                        self.shape_size(rid), f"shape{rid}", open_packet
                    )
                    shapes.append(shape_ids)
            self._shape_packets.append(shapes)

    def trace(self, point: Point) -> QueryTrace:
        accesses: List[int] = []
        node = self.tree.root
        while isinstance(node, KDSplitNode):
            accesses.append(self._node_packet[node.ordinal])
            coordinate = point.x if node.axis == "x" else point.y
            node = node.left if coordinate <= node.value else node.right
        accesses.append(self._node_packet[node.ordinal])
        for rid, shape_ids in zip(node.region_ids, self._shape_packets[node.ordinal]):
            accesses.extend(shape_ids)
            if self.tree.subdivision.region(rid).contains(point):
                return QueryTrace(rid, dedupe_consecutive(accesses))
        raise QueryError(f"{point!r} not found in the paged kd-split tree")

    def __repr__(self) -> str:
        return (
            f"PagedKDSplitTree(packets={len(self.packets)}, "
            f"capacity={self.params.packet_capacity})"
        )
