"""The binary D-tree: construction and logical query (§4.1, §4.3).

The tree recursively halves the region count, so it is height-balanced by
construction (property 3) and a point query visits Θ(log N) nodes
(property 4).  Children are either :class:`DTreeNode` (subspace with more
than one region) or a bare region id (data pointer).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro.errors import IndexBuildError, QueryError
from repro.geometry.point import Point
from repro.tessellation.subdivision import Subdivision
from repro.core.partition import (
    Partition,
    PartitionStyle,
    best_partitions,
    enumerate_styles,
)

Child = Union["DTreeNode", int]


def paper_styles(
    extended_styles: bool = False,
) -> Callable[[Sequence[int]], List[PartitionStyle]]:
    """The candidates of the paper's build (§4.2): :func:`enumerate_styles`
    of each node's region count, made once per count."""
    made: Dict[int, List[PartitionStyle]] = {}

    def styles_for(region_ids: Sequence[int]) -> List[PartitionStyle]:
        n = len(region_ids)
        styles = made.get(n)
        if styles is None:
            styles = made[n] = enumerate_styles(n, extended=extended_styles)
        return styles

    return styles_for


class DTreeNode:
    """An internal or leaf node of the binary D-tree.

    In the paper's terms a *leaf* node is one whose two children are data
    pointers; structurally both kinds carry a partition and two children
    (property 1: every node has exactly two children).
    """

    __slots__ = ("node_id", "partition", "left", "right", "level")

    def __init__(
        self,
        node_id: int,
        partition: Partition,
        left: Child,
        right: Child,
        level: int,
    ) -> None:
        self.node_id = node_id
        self.partition = partition
        #: Left child: regions of the first (lefthand/upper) subspace.
        self.left = left
        #: Right child: regions of the second (righthand/lower) subspace.
        self.right = right
        self.level = level

    def __repr__(self) -> str:
        return (
            f"DTreeNode(id={self.node_id}, dim={self.partition.dimension}, "
            f"size={self.partition.size})"
        )

    @property
    def is_leaf(self) -> bool:
        """True when both children are data pointers."""
        return not isinstance(self.left, DTreeNode) and not isinstance(
            self.right, DTreeNode
        )

    def child_for(self, p: Point) -> Child:
        """Follow the partition's side test (Algorithm 2 inner step)."""
        side = self.partition.side_of(p)
        return self.left if side == "first" else self.right


class DTree:
    """The binary D-tree over a subdivision."""

    def __init__(self, subdivision: Subdivision, root: Optional[DTreeNode]) -> None:
        self.subdivision = subdivision
        #: None only for the degenerate single-region subdivision.
        self.root = root

    # -- construction -----------------------------------------------------------

    @classmethod
    def build(
        cls,
        subdivision: Subdivision,
        tie_break_inter_prob: bool = True,
        extended_styles: bool = False,
        *,
        seed: int = 0,
    ) -> "DTree":
        """Partition the subdivision into a binary D-tree.

        ``tie_break_inter_prob`` switches the §4.2 tie-break (the A1
        ablation disables it).  ``extended_styles`` also considers
        complement-extent partitions (extension beyond the paper) which
        can shrink top-level nodes considerably.  ``seed`` is part of the
        :class:`~repro.engine.AirIndex` protocol; the D-tree build is
        deterministic, so it is accepted and ignored.
        """
        del seed  # deterministic construction
        ids = subdivision.region_ids
        if len(ids) == 1:
            return cls(subdivision, None)
        root = cls.grow(
            subdivision, ids, paper_styles(extended_styles), tie_break_inter_prob
        )
        if not isinstance(root, DTreeNode):
            raise IndexBuildError("D-tree build produced no root node")
        return cls(subdivision, root)

    @staticmethod
    def grow(
        subdivision: Subdivision,
        region_ids: Sequence[int],
        styles_for: Callable[[Sequence[int]], Sequence[PartitionStyle]],
        tie_break_inter_prob: bool = True,
        *,
        first_id: int = 0,
        level: int = 0,
    ) -> Child:
        """The subtree over *region_ids*, built one tree level at a time.

        Every node of a level is split by one :func:`best_partitions`
        call over the candidates ``styles_for(node's region ids)``; the
        winners' subspaces are the next level.  Node ids are then given
        in pre-order from *first_id*, and the root sits at *level*.  A
        single region is returned as its bare id.
        """
        if len(region_ids) == 1:
            return region_ids[0]
        root: List[DTreeNode] = []
        # (region ids, parent node, side) of each node of the level.
        frontier = [(list(region_ids), None, "")]
        while frontier:
            parts = best_partitions(
                subdivision,
                [ids for ids, _, _ in frontier],
                [styles_for(ids) for ids, _, _ in frontier],
                tie_break_inter_prob,
            )
            below = []
            for (_, parent, side), part in zip(frontier, parts):
                node = DTreeNode(-1, part, None, None, level)
                if parent is None:
                    root.append(node)
                else:
                    setattr(parent, side, node)
                children = ((part.first_ids, "left"), (part.second_ids, "right"))
                for ids, child_side in children:
                    if len(ids) == 1:
                        setattr(node, child_side, ids[0])
                    else:
                        below.append((ids, node, child_side))
            frontier = below
            level += 1
        preorder = DTree(subdivision, root[0]).iter_nodes()
        for node_id, node in enumerate(preorder, first_id):
            node.node_id = node_id
        return root[0]

    def page(self, params) -> "PagedDTree":
        """Allocate the tree to fixed-capacity packets (Algorithm 3) —
        the :class:`~repro.engine.AirIndex` paging step."""
        from repro.core.paging import PagedDTree

        return PagedDTree(self, params)

    # -- queries ----------------------------------------------------------------

    def locate(self, p: Point) -> int:
        """Algorithm 2: id of the data region containing *p*.

        Queries exactly on a region boundary are measure-zero and follow
        the paper's closed D1/D3 comparisons: a point exactly on a
        partition line may resolve to either adjacent region (and, at a
        shared vertex, to any region incident to it).  All generic (off-
        boundary) queries return the unique containing region.
        """
        if not self.subdivision.service_area.contains_point(p):
            raise QueryError(f"{p!r} outside the service area")
        if self.root is None:
            return self.subdivision.regions[0].region_id
        node: Child = self.root
        while isinstance(node, DTreeNode):
            node = node.child_for(p)
        return node

    def window_query(self, window) -> List[int]:
        """Regions intersecting an axis-aligned rectangle (extension).

        The paper's D-tree answers point queries; the same structure also
        prunes window queries: a window entirely inside one exclusive zone
        (D1/D3) needs only that subtree, otherwise both are explored.  The
        descent yields a candidate superset which is then filtered by an
        exact polygon/rectangle intersection test, so the result is exact.
        Returns sorted region ids.
        """
        if self.root is None:
            only = self.subdivision.regions[0]
            return [only.region_id] if only.polygon.intersects_rect(window) else []

        candidates: List[int] = []

        def descend(child: Child) -> None:
            if not isinstance(child, DTreeNode):
                candidates.append(child)
                return
            part = child.partition
            if part.dimension == "y":
                lo, hi = window.min_x, window.max_x
                in_d1 = hi < part.first_bound
                in_d3 = lo > part.second_bound
            else:
                lo, hi = window.min_y, window.max_y
                in_d1 = lo > part.first_bound
                in_d3 = hi < part.second_bound
            if in_d1:
                descend(child.left)
            elif in_d3:
                descend(child.right)
            else:
                descend(child.left)
                descend(child.right)

        descend(self.root)
        return sorted(
            rid
            for rid in candidates
            if self.subdivision.region(rid).polygon.intersects_rect(window)
        )

    # -- structure accessors ------------------------------------------------------

    def nodes_breadth_first(self) -> List[DTreeNode]:
        """All nodes level by level — the broadcast/paging order (§5)."""
        if self.root is None:
            return []
        out: List[DTreeNode] = []
        frontier: List[DTreeNode] = [self.root]
        while frontier:
            out.extend(frontier)
            nxt: List[DTreeNode] = []
            for node in frontier:
                for child in (node.left, node.right):
                    if isinstance(child, DTreeNode):
                        nxt.append(child)
            frontier = nxt
        return out

    def iter_nodes(self) -> Iterator[DTreeNode]:
        """Depth-first iteration over all nodes."""
        if self.root is None:
            return
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            for child in (node.right, node.left):
                if isinstance(child, DTreeNode):
                    stack.append(child)

    @property
    def node_count(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    @property
    def height(self) -> int:
        """Longest root-to-data-pointer path length in nodes."""

        def depth(child: Child) -> int:
            if not isinstance(child, DTreeNode):
                return 0
            return 1 + max(depth(child.left), depth(child.right))

        return depth(self.root) if self.root is not None else 0

    def check_height_balanced(self) -> bool:
        """Property 3: leaf levels differ by at most one."""
        leaf_levels = set()

        def walk(child: Child, level: int) -> None:
            if not isinstance(child, DTreeNode):
                leaf_levels.add(level)
                return
            walk(child.left, level + 1)
            walk(child.right, level + 1)

        if self.root is None:
            return True
        walk(self.root, 0)
        return max(leaf_levels) - min(leaf_levels) <= 1

    def total_partition_coordinates(self) -> int:
        """Sum of partition sizes over all nodes (index payload size)."""
        return sum(node.partition.size for node in self.iter_nodes())
