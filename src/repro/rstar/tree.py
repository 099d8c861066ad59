"""R*-tree construction (insertion, splitting, forced reinsertion).

Implements the R*-tree of Beckmann, Kriegel, Schneider & Seeger (SIGMOD
1990) for point data regions: each leaf entry stores the MBR of one data
region.  The fan-out is derived from the packet capacity (Table 2: 2-byte
bid, 2-byte pointers, 4-byte coordinates, so an entry is 10 bytes), which
is how the paper fits R*-tree nodes to packets.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.errors import IndexBuildError, QueryError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.tessellation.subdivision import Subdivision

#: Fraction of entries evicted by forced reinsertion (the R* paper's 30%).
REINSERT_FRACTION = 0.3


class RStarEntry:
    """One slot of a node: an MBR plus either a child node or a region id."""

    __slots__ = ("mbr", "child", "region_id")

    def __init__(
        self,
        mbr: Rect,
        child: Optional["RStarNode"] = None,
        region_id: Optional[int] = None,
    ) -> None:
        if (child is None) == (region_id is None):
            raise IndexBuildError("entry needs exactly one of child / region_id")
        self.mbr = mbr
        self.child = child
        self.region_id = region_id

    def __repr__(self) -> str:
        target = f"region={self.region_id}" if self.child is None else "child"
        return f"RStarEntry({self.mbr!r}, {target})"


class RStarNode:
    """A leaf (level 0) or internal node."""

    __slots__ = ("level", "entries")

    def __init__(self, level: int, entries: Optional[List[RStarEntry]] = None):
        self.level = level
        self.entries: List[RStarEntry] = list(entries) if entries else []

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    @property
    def mbr(self) -> Rect:
        if not self.entries:
            raise IndexBuildError("empty node has no MBR")
        return Rect.union_of(e.mbr for e in self.entries)

    def __repr__(self) -> str:
        return f"RStarNode(level={self.level}, entries={len(self.entries)})"


class RStarTree:
    """The R*-tree over the MBRs of a subdivision's data regions."""

    #: Fan-out used when a tree is built without a target packet capacity
    #: (the :class:`~repro.engine.AirIndex` protocol builds the logical
    #: index capacity-free); :meth:`page` re-fits the fan-out to the
    #: packet capacity.
    DEFAULT_MAX_ENTRIES = 8

    def __init__(self, subdivision: Subdivision, max_entries: int) -> None:
        if max_entries < 2:
            raise IndexBuildError(
                f"R*-tree needs a fan-out of at least 2, got {max_entries}"
            )
        self.subdivision = subdivision
        self.max_entries = max_entries
        self.min_entries = max(2, int(round(0.4 * max_entries)))
        if self.min_entries > max_entries // 2:
            self.min_entries = max(1, max_entries // 2)
        #: Region MBRs :meth:`build` deferred, inserted on first read.
        self._pending: Optional[List[Tuple[int, Rect]]] = None
        self._root = RStarNode(level=0)
        self._reinserted_levels: Set[int] = set()

    @property
    def root(self) -> RStarNode:
        """The root node; a deferred :meth:`build` is carried out here."""
        return self.ensure_built()._root

    @root.setter
    def root(self, node: RStarNode) -> None:
        self._root = node

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        subdivision: Subdivision,
        max_entries: Optional[int] = None,
        *,
        seed: int = 0,
    ) -> "RStarTree":
        """Insert every region's MBR one by one (dynamic construction, as
        the original evaluation does).

        ``max_entries`` defaults to :data:`DEFAULT_MAX_ENTRIES`; when the
        tree goes on the air, :meth:`page` re-fits the fan-out to the
        packet capacity so one node always fills one packet.  The MBRs
        are taken now and inserted when the tree is first read, so a
        tree that :meth:`page` replaces at the packet fan-out is never
        built.  ``seed`` is part of the :class:`~repro.engine.AirIndex`
        protocol; insertion order is deterministic, so it is accepted
        and ignored.
        """
        del seed  # deterministic insertion order
        if max_entries is None:
            max_entries = cls.DEFAULT_MAX_ENTRIES
        tree = cls(subdivision, max_entries)
        tree._pending = [
            (region.region_id, region.polygon.bbox) for region in subdivision.regions
        ]
        return tree

    def ensure_built(self) -> "RStarTree":
        """Carry out the insertions :meth:`build` deferred, if any; return
        the tree.  Reading the tree does this implicitly; call it to pay
        for the construction at a chosen point."""
        pending, self._pending = self._pending, None
        if pending is not None:
            for region_id, mbr in pending:
                self.insert(region_id, mbr)
        return self

    def page(self, params) -> "PagedRStarTree":
        """Allocate to fixed-capacity packets — the
        :class:`~repro.engine.AirIndex` paging step.

        The R*-tree's structure depends on its fan-out and therefore on
        the packet capacity: the tree is rebuilt at
        :func:`~repro.rstar.paged.rstar_fanout` entries per node unless it
        already matches, then laid out in DFS order.  A tree fresh from
        :meth:`build` has not inserted anything yet, so the regions are
        inserted once, at the packet fan-out.
        """
        from repro.rstar.paged import PagedRStarTree, rstar_fanout

        fanout = rstar_fanout(params)
        tree = self
        if self.max_entries != fanout:
            tree = RStarTree.build(self.subdivision, fanout)
        return PagedRStarTree(tree, params)

    def insert(self, region_id: int, mbr: Rect) -> None:
        """Insert one region MBR (R* InsertData)."""
        self.ensure_built()
        self._reinserted_levels = set()
        self._insert_entry(RStarEntry(mbr, region_id=region_id), level=0)

    # -- incremental maintenance -------------------------------------------

    def delete(self, region_id: int, mbr: Optional[Rect] = None) -> None:
        """Delete one region's leaf entry (R-tree Delete + CondenseTree).

        *mbr* — the entry's MBR, when the caller still knows it — prunes
        the leaf search to subtrees whose MBR covers it; without it every
        subtree is searched.  Underfull nodes on the path are dissolved
        and their entries reinserted at their original levels through the
        ordinary R* insertion machinery (splits, forced reinsertion), so
        the fill-factor and balance invariants survive any delete.

        A pruned miss falls back to the unpruned search before declaring
        the region absent: a tolerance-diffed update batch (see
        :func:`repro.dynamic.diff_subdivisions`) leaves sub-threshold
        vertex drift out of the batch, so the entry on the tree can sit
        a few ulps outside the MBR the caller derived from the current
        subdivision.
        """
        found = self._find_leaf(self.root, region_id, mbr, [])
        if found is None and mbr is not None:
            found = self._find_leaf(self.root, region_id, None, [])
        if found is None:
            raise IndexBuildError(f"region {region_id} not in the R*-tree")
        leaf, path = found
        leaf.entries = [e for e in leaf.entries if e.region_id != region_id]
        self._condense(leaf, path)
        while not self.root.is_leaf and len(self.root.entries) == 1:
            child = self.root.entries[0].child
            assert child is not None
            self.root = child

    def apply_updates(self, new_subdivision: Subdivision, batch) -> None:
        """Maintain the tree incrementally across a region-update batch
        (delete/reshape/insert of valid scopes; see
        :class:`repro.dynamic.UpdateBatch`).

        Deletes use the *old* subdivision's MBRs (the entries on the
        tree), inserts the new one's; afterwards the tree indexes
        *new_subdivision* exactly as if every update had arrived through
        :meth:`insert`/:meth:`delete` individually.
        """
        old = self.subdivision
        for rid in batch.removed_ids:
            self.delete(rid, old.region(rid).polygon.bbox)
        self.subdivision = new_subdivision
        for rid in batch.added_ids:
            self.insert(rid, new_subdivision.region(rid).polygon.bbox)

    def _find_leaf(
        self,
        node: RStarNode,
        region_id: int,
        mbr: Optional[Rect],
        path: List[RStarNode],
    ) -> Optional[Tuple[RStarNode, List[RStarNode]]]:
        """Leaf holding *region_id*'s entry plus its ancestor path."""
        if node.is_leaf:
            if any(e.region_id == region_id for e in node.entries):
                return node, list(path)
            return None
        path.append(node)
        for entry in node.entries:
            if mbr is not None and not entry.mbr.contains_rect(mbr):
                continue
            assert entry.child is not None
            found = self._find_leaf(entry.child, region_id, mbr, path)
            if found is not None:
                return found
        path.pop()
        return None

    def _condense(self, node: RStarNode, path: List[RStarNode]) -> None:
        """CondenseTree: dissolve underfull path nodes, reinsert orphans."""
        eliminated: List[RStarNode] = []
        child = node
        for parent in reversed(path):
            if len(child.entries) < self.min_entries:
                parent.entries = [
                    e for e in parent.entries if e.child is not child
                ]
                eliminated.append(child)
            else:
                self._refresh_parent_mbr(parent, child)
            child = parent
        # Reinsert orphaned entries at their original levels, deepest
        # (leaf) first — each reinsert is a full R* insert, so splits and
        # forced reinsertion apply as usual.
        for orphan in eliminated:
            for entry in orphan.entries:
                self._reinserted_levels = set()
                self._insert_entry(entry, level=orphan.level)

    # -- R* machinery ----------------------------------------------------------

    def _insert_entry(self, entry: RStarEntry, level: int) -> None:
        node, path = self._choose_subtree(entry.mbr, level)
        node.entries.append(entry)
        self._overflow_chain(node, path)

    def _overflow_chain(
        self, node: RStarNode, path: List[RStarNode]
    ) -> None:
        """Handle overflow at *node*, propagating splits up *path*."""
        while len(node.entries) > self.max_entries:
            is_root = not path
            if (
                not is_root
                and node.level not in self._reinserted_levels
            ):
                self._reinserted_levels.add(node.level)
                self._reinsert(node, path)
                return  # reinsertion re-enters _insert_entry recursively
            split_off = self._split(node)
            if is_root:
                new_root = RStarNode(level=node.level + 1)
                new_root.entries.append(RStarEntry(node.mbr, child=node))
                new_root.entries.append(RStarEntry(split_off.mbr, child=split_off))
                self.root = new_root
                return
            parent = path[-1]
            self._refresh_parent_mbr(parent, node)
            parent.entries.append(RStarEntry(split_off.mbr, child=split_off))
            node = parent
            path = path[:-1]
        # No overflow: tighten ancestor MBRs.
        child = node
        for parent in reversed(path):
            self._refresh_parent_mbr(parent, child)
            child = parent

    def _refresh_parent_mbr(self, parent: RStarNode, child: RStarNode) -> None:
        for e in parent.entries:
            if e.child is child:
                e.mbr = child.mbr
                return
        raise IndexBuildError("parent does not reference child")

    def _choose_subtree(
        self, mbr: Rect, level: int
    ) -> Tuple[RStarNode, List[RStarNode]]:
        """Descend to the best node at *level* for inserting *mbr*."""
        node = self.root
        path: List[RStarNode] = []
        while node.level > level:
            if node.level == 1:
                # Children are leaves: R* uses minimum overlap enlargement.
                best = self._least_overlap_enlargement(node.entries, mbr)
            else:
                best = self._least_area_enlargement(node.entries, mbr)
            path.append(node)
            assert best.child is not None
            node = best.child
        return node, path

    @staticmethod
    def _least_area_enlargement(
        entries: Sequence[RStarEntry], mbr: Rect
    ) -> RStarEntry:
        return min(
            entries,
            key=lambda e: (e.mbr.enlargement_for(mbr), e.mbr.area),
        )

    @staticmethod
    def _least_overlap_enlargement(
        entries: Sequence[RStarEntry], mbr: Rect
    ) -> RStarEntry:
        """R* ChooseSubtree over leaf children: least overlap enlargement,
        then least area enlargement, then least area, first entry on ties.

        The children's MBRs are one float64 ``(n, 4)`` array.  Each
        overlap is the ``max``/``min``/subtract/multiply of
        :meth:`Rect.intersection` and :meth:`Rect.area` (0 when
        disjoint), and each row is added with the built-in ``sum()`` in
        entry order, so every interpreter sees the sums of the scalar
        loop: Python 3.12+ compensates ``sum()`` of floats and
        ``np.sum`` would not.  The zeroed diagonal stands for the
        skipped candidate; adding +0.0 changes neither kind of sum.
        """
        boxes = np.array(
            [(e.mbr.min_x, e.mbr.min_y, e.mbr.max_x, e.mbr.max_y) for e in entries]
        )
        lo_x, lo_y, hi_x, hi_y = boxes.T
        grown_lo_x = np.minimum(lo_x, mbr.min_x)
        grown_lo_y = np.minimum(lo_y, mbr.min_y)
        grown_hi_x = np.maximum(hi_x, mbr.max_x)
        grown_hi_y = np.maximum(hi_y, mbr.max_y)

        def overlap_sums(c_lo_x, c_lo_y, c_hi_x, c_hi_y) -> List[float]:
            width = np.minimum(c_hi_x[:, None], hi_x) - np.maximum(c_lo_x[:, None], lo_x)
            height = np.minimum(c_hi_y[:, None], hi_y) - np.maximum(c_lo_y[:, None], lo_y)
            overlap = np.where((width >= 0.0) & (height >= 0.0), width * height, 0.0)
            np.fill_diagonal(overlap, 0.0)
            return [sum(row) for row in overlap.tolist()]

        grown = overlap_sums(grown_lo_x, grown_lo_y, grown_hi_x, grown_hi_y)
        own = overlap_sums(lo_x, lo_y, hi_x, hi_y)
        area = ((hi_x - lo_x) * (hi_y - lo_y)).tolist()
        grown_area = (
            (grown_hi_x - grown_lo_x) * (grown_hi_y - grown_lo_y)
        ).tolist()
        best = min(
            range(len(entries)),
            key=lambda i: (grown[i] - own[i], grown_area[i] - area[i], area[i]),
        )
        return entries[best]

    def _reinsert(self, node: RStarNode, path: List[RStarNode]) -> None:
        """Forced reinsertion: evict the 30% of entries furthest from the
        node's center and insert them again (close-reinsert order)."""
        center = node.mbr.center
        node.entries.sort(
            key=lambda e: e.mbr.center.distance_to(center), reverse=True
        )
        count = max(1, int(round(REINSERT_FRACTION * len(node.entries))))
        evicted = node.entries[:count]
        node.entries = node.entries[count:]
        child = node
        for parent in reversed(path):
            self._refresh_parent_mbr(parent, child)
            child = parent
        # Close reinsert: nearest-evicted first.
        for entry in reversed(evicted):
            self._insert_entry(entry, level=node.level)

    def _split(self, node: RStarNode) -> RStarNode:
        """R* split: margin-minimal axis, overlap-minimal distribution.

        Mutates *node* to keep the first group and returns a new node with
        the second group.
        """
        m = self.min_entries
        entries = node.entries
        best: Optional[Tuple[float, float, List[RStarEntry], List[RStarEntry]]] = None

        for axis in ("x", "y"):
            for bound in ("lo", "hi"):
                ordered = sorted(entries, key=_sort_key(axis, bound))
                margin_total = 0.0
                candidates = []
                for k in range(m, len(ordered) - m + 1):
                    g1 = ordered[:k]
                    g2 = ordered[k:]
                    r1 = Rect.union_of(e.mbr for e in g1)
                    r2 = Rect.union_of(e.mbr for e in g2)
                    margin_total += r1.margin + r2.margin
                    candidates.append((r1.overlap_area(r2), r1.area + r2.area, g1, g2))
                axis_best = min(candidates, key=lambda c: (c[0], c[1]))
                if best is None or margin_total < best[0]:
                    best = (margin_total, axis_best[0], axis_best[2], axis_best[3])

        assert best is not None
        node.entries = list(best[2])
        return RStarNode(level=node.level, entries=list(best[3]))

    # -- logical query -----------------------------------------------------------

    def locate(self, p: Point) -> int:
        """Point query with the added shape layer: DFS over candidate MBRs,
        polygon containment at the leaves, first hit wins (§3.2)."""
        result = self._search(self.root, p)
        if result is None:
            raise QueryError(f"{p!r} not found in the R*-tree")
        return result

    def _search(self, node: RStarNode, p: Point) -> Optional[int]:
        for entry in node.entries:
            if not entry.mbr.contains_point(p):
                continue
            if node.is_leaf:
                region = self.subdivision.region(entry.region_id)
                if region.polygon.contains_point(p):
                    return entry.region_id
            else:
                assert entry.child is not None
                found = self._search(entry.child, p)
                if found is not None:
                    return found
        return None

    # -- structure accessors --------------------------------------------------------

    def nodes_depth_first(self) -> List[RStarNode]:
        """Preorder DFS — the broadcast order of §5."""
        out: List[RStarNode] = []

        def walk(node: RStarNode) -> None:
            out.append(node)
            if not node.is_leaf:
                for entry in node.entries:
                    assert entry.child is not None
                    walk(entry.child)

        walk(self.root)
        return out

    @property
    def height(self) -> int:
        return self.root.level + 1

    def check_invariants(self) -> None:
        """Verify fill factors, levels and MBR containment everywhere."""

        def walk(node: RStarNode, is_root: bool) -> None:
            if not is_root and not (
                self.min_entries <= len(node.entries) <= self.max_entries
            ):
                raise IndexBuildError(
                    f"node fill {len(node.entries)} outside "
                    f"[{self.min_entries}, {self.max_entries}]"
                )
            if len(node.entries) > self.max_entries:
                raise IndexBuildError("node overflow survived construction")
            for entry in node.entries:
                if node.is_leaf:
                    if entry.region_id is None:
                        raise IndexBuildError("leaf entry without region id")
                else:
                    child = entry.child
                    if child is None:
                        raise IndexBuildError("internal entry without child")
                    if child.level != node.level - 1:
                        raise IndexBuildError("child level mismatch")
                    if entry.mbr != child.mbr:
                        raise IndexBuildError("stale parent MBR")
                    walk(child, False)

        walk(self.root, True)


def _sort_key(axis: str, bound: str):
    if axis == "x":
        if bound == "lo":
            return lambda e: (e.mbr.min_x, e.mbr.max_x)
        return lambda e: (e.mbr.max_x, e.mbr.min_x)
    if bound == "lo":
        return lambda e: (e.mbr.min_y, e.mbr.max_y)
    return lambda e: (e.mbr.max_y, e.mbr.min_y)
