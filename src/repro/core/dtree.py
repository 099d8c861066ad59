"""The binary D-tree: construction and logical query (§4.1, §4.3).

The tree recursively halves the region count, so it is height-balanced by
construction (property 3) and a point query visits Θ(log N) nodes
(property 4).

The tree is a node table with one row per node, rows in ``node_id``
order: ``node_id[r]`` (the wire label), ``level[r]``, ``partition[r]``
and the child codes ``left[r]``/``right[r]``.  A code ``c >= 0`` is the
row of an internal child; ``c < 0`` is a data pointer to region ``~c``.
A child's row always comes after its parent's: ids are given in preorder
at build, and a maintainer splice gives its grown rows fresh ids above
every existing one (:meth:`DTree.splice`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import QueryError
from repro.geometry.point import Point
from repro.tessellation.subdivision import Subdivision
from repro.core.partition import (
    Partition,
    PartitionStyle,
    best_partitions,
    enumerate_styles,
)


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


class DTree:
    """The binary D-tree over a subdivision, as a node table.

    In the paper's terms a *leaf* node is one whose two children are data
    pointers; structurally every row carries a partition and two children
    (property 1: every node has exactly two children).  The left child
    holds the regions of the first (lefthand/upper) subspace, the right
    child those of the second (righthand/lower) one.
    """

    def __init__(
        self,
        subdivision: Subdivision,
        node_id: Sequence[int] = (),
        level: Sequence[int] = (),
        partition: Sequence[Partition] = (),
        left: Sequence[int] = (),
        right: Sequence[int] = (),
        root: Optional[int] = None,
    ) -> None:
        self.subdivision = subdivision
        self.node_id: List[int] = list(node_id)
        self.level: List[int] = list(level)
        self.partition: List[Partition] = list(partition)
        self.left: List[int] = list(left)
        self.right: List[int] = list(right)
        #: Root row; None only for the degenerate single-region tree.
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
        return cls.grow(
            subdivision,
            subdivision.region_ids,
            paper_styles(extended_styles),
            tie_break_inter_prob,
        )

    @classmethod
    def grow(
        cls,
        subdivision: Subdivision,
        region_ids: Sequence[int],
        styles_for: Callable[[Sequence[int]], Sequence[PartitionStyle]],
        tie_break_inter_prob: bool = True,
        *,
        first_id: int = 0,
        level: int = 0,
    ) -> "DTree":
        """The tree over *region_ids*, built one tree level at a time.

        Every node of a level is split by one :func:`best_partitions`
        call over the candidates ``styles_for(node's region ids)``; the
        winners' subspaces are the next level.  Rows are written in
        breadth-first order and then put in pre-order, whose node ids
        run from *first_id*; the root sits at *level*.  A single region
        gives the rootless tree.
        """
        if len(region_ids) == 1:
            return cls(subdivision)
        parts: List[Partition] = []
        levels: List[int] = []
        codes: List[List[int]] = []
        frontier = [list(region_ids)]
        while frontier:
            won = best_partitions(
                subdivision,
                frontier,
                [styles_for(ids) for ids in frontier],
                tie_break_inter_prob,
            )
            below: List[List[int]] = []
            next_row = len(parts) + len(frontier)
            for part in won:
                pair = []
                for ids in (part.first_ids, part.second_ids):
                    if len(ids) == 1:
                        pair.append(~ids[0])
                    else:
                        pair.append(next_row + len(below))
                        below.append(ids)
                parts.append(part)
                levels.append(level)
                codes.append(pair)
            frontier = below
            level += 1
        # Breadth-first rows -> pre-order rows.
        order: List[int] = []
        stack = [0]
        while stack:
            row = stack.pop()
            order.append(row)
            stack.extend(c for c in reversed(codes[row]) if c >= 0)
        rank = [0] * len(order)
        for new, old in enumerate(order):
            rank[old] = new
        remap = lambda c: rank[c] if c >= 0 else c
        return cls(
            subdivision,
            range(first_id, first_id + len(order)),
            [levels[r] for r in order],
            [parts[r] for r in order],
            [remap(codes[r][0]) for r in order],
            [remap(codes[r][1]) for r in order],
            0,
        )

    def splice(
        self,
        subdivision: Subdivision,
        parent: Optional[int],
        side: str,
        grown: "DTree",
        region_id: Optional[int] = None,
    ) -> "DTree":
        """A new tree over *subdivision*: this one with the child on
        *side* of row *parent* (the root when *parent* is None) replaced
        by *grown*, or by the data pointer to *region_id* when *grown* is
        rootless.  The replaced subtree's rows are dropped; *grown*'s
        ids must lie above every id here, so its rows go last and the
        rows stay in id order.  This tree is left as it was."""
        old = self.root if parent is None else getattr(self, side)[parent]
        retired = {code for code, _ in self.walk(old) if code >= 0}
        kept = [row for row in range(len(self.node_id)) if row not in retired]
        rank = [-1] * len(self.node_id)
        for k, row in enumerate(kept):
            rank[row] = k
        base = len(kept)
        replacement = ~region_id if grown.root is None else base + grown.root
        keep = lambda c: rank[c] if c >= 0 else c
        shift = lambda c: base + c if c >= 0 else c
        tree = DTree(
            subdivision,
            [self.node_id[r] for r in kept] + grown.node_id,
            [self.level[r] for r in kept] + grown.level,
            [self.partition[r] for r in kept] + grown.partition,
            [keep(self.left[r]) for r in kept] + [shift(c) for c in grown.left],
            [keep(self.right[r]) for r in kept] + [shift(c) for c in grown.right],
        )
        if parent is None:
            tree.root = replacement
        else:
            tree.root = rank[self.root]
            getattr(tree, side)[rank[parent]] = replacement
        return tree

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
        code = self.root
        while code >= 0:
            side = self.partition[code].side_of(p)
            code = self.left[code] if side == "first" else self.right[code]
        return ~code

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
        stack = [self.root]
        while stack:
            code = stack.pop()
            if code < 0:
                candidates.append(~code)
                continue
            part = self.partition[code]
            if part.dimension == "y":
                lo, hi = window.min_x, window.max_x
                in_d1 = hi < part.first_bound
                in_d3 = lo > part.second_bound
            else:
                lo, hi = window.min_y, window.max_y
                in_d1 = lo > part.first_bound
                in_d3 = hi < part.second_bound
            if in_d1:
                stack.append(self.left[code])
            elif in_d3:
                stack.append(self.right[code])
            else:
                stack.extend((self.right[code], self.left[code]))
        return sorted(
            rid
            for rid in candidates
            if self.subdivision.region(rid).polygon.intersects_rect(window)
        )

    # -- structure accessors ------------------------------------------------------

    def row_of(self, node_id: int) -> int:
        """The row of node *node_id* (rows are in id order)."""
        row = bisect_left(self.node_id, node_id)
        if row == len(self.node_id) or self.node_id[row] != node_id:
            raise KeyError(node_id)
        return row

    def nodes_breadth_first(self) -> List[int]:
        """All rows level by level — the broadcast/paging order (§5)."""
        if self.root is None:
            return []
        out = [self.root]
        for row in out:
            out.extend(c for c in (self.left[row], self.right[row]) if c >= 0)
        return out

    def walk(self, code: int) -> Iterator[Tuple[int, int]]:
        """``(code, depth)`` of child code *code* (depth 0) and of every
        code under it, depth-first pre-order, left child first."""
        stack = [(code, 0)]
        while stack:
            code, depth = stack.pop()
            yield code, depth
            if code >= 0:
                stack.append((self.right[code], depth + 1))
                stack.append((self.left[code], depth + 1))

    def iter_nodes(self) -> Iterator[int]:
        """Depth-first pre-order iteration over all rows."""
        if self.root is not None:
            yield from (code for code, _ in self.walk(self.root) if code >= 0)

    @property
    def node_count(self) -> int:
        return len(self.node_id)

    def leaf_depths(self) -> Dict[int, int]:
        """Region id -> nodes on the path to its data pointer, left to
        right (0 for the single region of a rootless tree)."""
        if self.root is None:
            return {self.subdivision.regions[0].region_id: 0}
        return {~c: depth for c, depth in self.walk(self.root) if c < 0}

    @property
    def height(self) -> int:
        """Longest root-to-data-pointer path length in nodes."""
        return max(self.leaf_depths().values())

    def check_height_balanced(self) -> bool:
        """Property 3: leaf levels differ by at most one."""
        depths = self.leaf_depths().values()
        return max(depths) - min(depths) <= 1

    def total_partition_coordinates(self) -> int:
        """Sum of partition sizes over all nodes (index payload size)."""
        return sum(part.size for part in self.partition)
