"""R*-tree construction (insertion, splitting, forced reinsertion).

Implements the R*-tree of Beckmann, Kriegel, Schneider & Seeger (SIGMOD
1990) for point data regions: each leaf entry stores the MBR of one data
region.  The fan-out is derived from the packet capacity (Table 2: 2-byte
bid, 2-byte pointers, 4-byte coordinates, so an entry is 10 bytes), which
is how the paper fits R*-tree nodes to packets.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

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

    __slots__ = ("level", "entries", "_boxes")

    def __init__(self, level: int, entries: Optional[List[RStarEntry]] = None):
        self.level = level
        self.entries: List[RStarEntry] = list(entries) if entries else []
        #: ChooseSubtree's arrays over the entry MBRs (leaf parents only).
        self._boxes: Optional[_ChildBoxes] = None

    def __getstate__(self) -> Tuple[int, List[RStarEntry]]:
        # The ChooseSubtree arrays are derived; pickles leave them out.
        return self.level, self.entries

    def __setstate__(self, state: Tuple[int, List[RStarEntry]]) -> None:
        self.level, self.entries = state
        self._boxes = None

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    @property
    def mbr(self) -> Rect:
        if not self.entries:
            raise IndexBuildError("empty node has no MBR")
        return Rect.union_of([e.mbr for e in self.entries])

    def child_boxes(self) -> "_ChildBoxes":
        """ChooseSubtree's arrays over the entry MBRs, brought up to date
        with the entries first."""
        rects = [e.mbr for e in self.entries]
        boxes = self._boxes
        if boxes is None or len(boxes.rects) != len(rects):
            boxes = self._boxes = _ChildBoxes(rects)
        elif boxes.rects != rects:
            boxes.update(rects)
        return boxes

    def __repr__(self) -> str:
        return f"RStarNode(level={self.level}, entries={len(self.entries)})"


def _overlap_rows(
    c_lo: np.ndarray, c_hi: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Overlap area of each candidate box (row) with each box (column).

    Boxes are ``(2, n)`` arrays of lower and of upper corners (x row,
    y row).  An overlap is the ``max``/``min``/subtract/multiply of
    :meth:`Rect.intersection` and :meth:`Rect.area`, and 0 when either
    extent is negative.
    """
    extent = np.minimum(c_hi[:, :, None], hi[:, None]) - np.maximum(
        c_lo[:, :, None], lo[:, None]
    )
    np.maximum(extent, 0.0, out=extent)
    return extent[0] * extent[1]


def _corners(rects: Sequence[Rect]) -> Tuple[np.ndarray, np.ndarray]:
    """``(2, n)`` lower and upper corner arrays of *rects*."""
    lo = np.array([[r.min_x for r in rects], [r.min_y for r in rects]])
    hi = np.array([[r.max_x for r in rects], [r.max_y for r in rects]])
    return lo, hi


def _areas(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    extent = hi - lo
    return extent[0] * extent[1]


class _ChildBoxes:
    """A leaf parent's entry MBRs as ``(2, n)`` corner arrays, with each
    entry's area and its overlaps with the other entries.

    ``rows[i]`` lists entry *i*'s overlap with every entry in entry
    order, its own place holding 0.0, and ``own[i]`` is that row's
    built-in ``sum()``: Python 3.12+ compensates ``sum()`` of floats and
    ``np.sum`` would not, so every interpreter sees the sums of the
    scalar loop (adding +0.0 changes neither kind of sum).  The arrays
    describe :attr:`rects`; :meth:`RStarNode.child_boxes` compares those
    with the entries before every use, so splits, forced reinsertion and
    deletes need not know of the cache.
    """

    __slots__ = ("rects", "lo", "hi", "area", "rows", "own")

    def __init__(self, rects: List[Rect]) -> None:
        self.rects = rects
        self.lo, self.hi = _corners(rects)
        self.area = _areas(self.lo, self.hi)
        self.rows = _overlap_rows(self.lo, self.hi, self.lo, self.hi).tolist()
        for i, row in enumerate(self.rows):
            row[i] = 0.0
        self.own = list(map(sum, self.rows))

    def update(self, rects: List[Rect]) -> None:
        """Re-describe the same number of entries after some MBRs
        changed: recompute the changed entries' rows and, in every other
        row, the terms whose value moved, then re-sum the rows touched.
        Overlaps are symmetric, so entry *k*'s row also holds column *k*."""
        changed = [
            k for k, (new, old) in enumerate(zip(rects, self.rects)) if new != old
        ]
        self.rects = rects
        lo, hi = _corners([rects[k] for k in changed])
        self.lo[:, changed] = lo
        self.hi[:, changed] = hi
        self.area[changed] = _areas(lo, hi)
        fresh = _overlap_rows(lo, hi, self.lo, self.hi).tolist()
        rows = self.rows
        dirty = set(changed)
        for k, row in zip(changed, fresh):
            row[k] = 0.0
            rows[k] = row
        for k, row in zip(changed, fresh):
            for i, value in enumerate(row):
                if rows[i][k] != value:
                    rows[i][k] = value
                    dirty.add(i)
        for i in dirty:
            self.own[i] = sum(rows[i])


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
                best = self._least_overlap_enlargement(node, mbr)
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
    def _least_overlap_enlargement(node: RStarNode, mbr: Rect) -> RStarEntry:
        """R* ChooseSubtree over leaf children: least overlap enlargement,
        then least area enlargement, then least area, first entry on ties.

        The entries' own overlap sums come from the node's cached
        :class:`_ChildBoxes`; only the overlaps of the entries grown to
        cover *mbr* are computed per call, and each grown row is added
        with the built-in ``sum()`` in entry order, as the own rows are.
        """
        boxes = node.child_boxes()
        grown_lo = np.minimum(boxes.lo, [[mbr.min_x], [mbr.min_y]])
        grown_hi = np.maximum(boxes.hi, [[mbr.max_x], [mbr.max_y]])
        overlap = _overlap_rows(grown_lo, grown_hi, boxes.lo, boxes.hi)
        overlap.flat[:: len(overlap) + 1] = 0.0
        grown = map(sum, overlap.tolist())
        area = boxes.area.tolist()
        enlargement = (_areas(grown_lo, grown_hi) - boxes.area).tolist()
        overlap_growth = [g - o for g, o in zip(grown, boxes.own)]
        # The index breaks ties towards the first entry, as min() does.
        best = min(zip(overlap_growth, enlargement, area, range(len(area))))
        return node.entries[best[3]]

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

        The four sort orders (by lower then upper x bound, upper then
        lower x, and the same in y) are stable ``lexsort`` rows.  Each
        distribution keeps the first ``k`` entries of an order; both
        groups' MBRs are running ``minimum``/``maximum`` unions from the
        front and from the back.  Per order, the distributions' margins
        (``r1.margin + r2.margin``) are totalled left to right, the
        order with the least total wins (the first on ties), and within
        it the distribution of least (overlap, area sum), the first on
        ties.
        """
        m = self.min_entries
        entries = node.entries
        n = len(entries)
        boxes = np.array(
            [(e.mbr.min_x, e.mbr.min_y, e.mbr.max_x, e.mbr.max_y) for e in entries]
        )
        # lexsort's last key is the primary one.
        orders = np.lexsort(
            (boxes[:, _SPLIT_SECONDARY].T, boxes[:, _SPLIT_PRIMARY].T), axis=-1
        )
        ordered = boxes[orders]
        lo, hi = ordered[..., :2], ordered[..., 2:]
        cuts = np.arange(m, n - m + 1)
        lo1 = np.minimum.accumulate(lo, axis=1)[:, cuts - 1]
        hi1 = np.maximum.accumulate(hi, axis=1)[:, cuts - 1]
        lo2 = np.minimum.accumulate(lo[:, ::-1], axis=1)[:, ::-1][:, cuts]
        hi2 = np.maximum.accumulate(hi[:, ::-1], axis=1)[:, ::-1][:, cuts]
        extent1 = hi1 - lo1
        extent2 = hi2 - lo2
        margins = (extent1[..., 0] + extent1[..., 1]) + (
            extent2[..., 0] + extent2[..., 1]
        )
        totals = np.add.accumulate(margins, axis=1)[:, -1].tolist()
        inter = np.minimum(hi1, hi2) - np.maximum(lo1, lo2)
        overlap = np.where(
            (inter >= 0.0).all(axis=2), inter[..., 0] * inter[..., 1], 0.0
        )
        area = extent1[..., 0] * extent1[..., 1] + extent2[..., 0] * extent2[..., 1]

        best = min(range(len(totals)), key=totals.__getitem__)
        best_overlap = overlap[best].tolist()
        best_area = area[best].tolist()
        cut = min(
            range(len(cuts)), key=lambda j: (best_overlap[j], best_area[j])
        ) + m
        order = orders[best].tolist()
        node.entries = [entries[i] for i in order[:cut]]
        return RStarNode(level=node.level, entries=[entries[i] for i in order[cut:]])

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


#: The split's sort orders as (primary, secondary) columns of the
#: ``(min_x, min_y, max_x, max_y)`` box rows: x by lower then upper
#: bound, x by upper then lower, y by lower then upper, y by upper then
#: lower.
_SPLIT_PRIMARY = [0, 2, 1, 3]
_SPLIT_SECONDARY = [2, 0, 3, 1]
