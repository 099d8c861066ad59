"""R*-tree construction (insertion, splitting, forced reinsertion).

Implements the R*-tree of Beckmann, Kriegel, Schneider & Seeger (SIGMOD
1990) for point data regions: each leaf entry stores the MBR of one data
region.  The fan-out is derived from the packet capacity (Table 2: 2-byte
bid, 2-byte pointers, 4-byte coordinates, so an entry is 10 bytes), which
is how the paper fits R*-tree nodes to packets.

The tree is a node table indexed by int node id: each node's level, its
entries' MBRs as ``(min_x, min_y, max_x, max_y)`` rows and its entries'
targets (child node ids at internal nodes, region ids at leaves).
"""

from __future__ import annotations

import copy
import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import IndexBuildError, QueryError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.tessellation.subdivision import Subdivision

#: Fraction of entries evicted by forced reinsertion (the R* paper's 30%).
REINSERT_FRACTION = 0.3

#: An entry MBR as a ``(min_x, min_y, max_x, max_y)`` row.
Box = Tuple[float, float, float, float]


def _union(boxes: Sequence[Box]) -> Box:
    """Smallest box containing all *boxes* (the values of
    :meth:`Rect.union_of`)."""
    min_x, min_y, max_x, max_y = zip(*boxes)
    return min(min_x), min(min_y), max(max_x), max(max_y)


def _overlap_rows(
    c_lo: np.ndarray, c_hi: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Overlap area of each candidate box (row) with each box (column).

    Boxes are ``(2, n)`` arrays of lower and of upper corners (x row,
    y row).  An overlap is the product of the intersection's extents
    (``min`` of the upper corners minus ``max`` of the lower ones), and
    0 when either extent is negative.
    """
    extent = np.minimum(c_hi[:, :, None], hi[:, None]) - np.maximum(
        c_lo[:, :, None], lo[:, None]
    )
    np.maximum(extent, 0.0, out=extent)
    return extent[0] * extent[1]


def _areas(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    extent = hi - lo
    return extent[0] * extent[1]


class _Overlaps:
    """A leaf parent's entry MBRs as ``(2, n)`` corner arrays, with each
    entry's area and its overlaps with the other entries.

    ``rows[i]`` lists entry *i*'s overlap with every entry in entry
    order, its own place holding 0.0, and ``own[i]`` is that row's
    built-in ``sum()``: Python 3.12+ compensates ``sum()`` of floats and
    ``np.sum`` would not, so every interpreter sees the sums of the
    scalar loop (adding +0.0 changes neither kind of sum).  Only the
    tree's entry writer changes them.
    """

    __slots__ = ("lo", "hi", "area", "rows", "own")

    def __init__(self, boxes: Sequence[Box]) -> None:
        corners = np.array(boxes, np.float64).T.copy()
        self.lo, self.hi = corners[:2], corners[2:]
        self.area = _areas(self.lo, self.hi)
        self.rows = _overlap_rows(self.lo, self.hi, self.lo, self.hi).tolist()
        for i, row in enumerate(self.rows):
            row[i] = 0.0
        self.own = list(map(sum, self.rows))

    def replace(self, k: int, box: Box) -> None:
        """Entry *k*'s MBR became *box*: recompute its row and, in every
        other row, the term that moved, then re-sum the rows touched.
        Overlaps are symmetric, so row *k* also holds column *k*."""
        self.lo[:, k] = box[:2]
        self.hi[:, k] = box[2:]
        self.area[k] = (box[2] - box[0]) * (box[3] - box[1])
        fresh = _overlap_rows(
            self.lo[:, k : k + 1], self.hi[:, k : k + 1], self.lo, self.hi
        )[0].tolist()
        fresh[k] = 0.0
        rows, own = self.rows, self.own
        for i, value in enumerate(fresh):
            row = rows[i]
            if row[k] != value:
                row[k] = value
                own[i] = sum(row)
        rows[k] = fresh
        own[k] = sum(fresh)


class RStarTree:
    """The R*-tree over the MBRs of a subdivision's data regions.

    Nodes live in a table indexed by node id: ``node_level[v]``,
    ``node_boxes[v]`` (one MBR row per entry) and ``node_targets[v]``
    (per entry, a child node id at an internal node or a region id at a
    leaf).  Ids of dissolved nodes are reused.  Every entry change goes
    through :meth:`_write`, which also keeps each leaf parent's
    ChooseSubtree overlaps current.
    """

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
        self.node_level: List[int] = []
        self.node_boxes: List[Optional[List[Box]]] = []
        self.node_targets: List[Optional[List[int]]] = []
        #: ChooseSubtree's overlaps by leaf parent, built on first use.
        self._overlaps: Dict[int, _Overlaps] = {}
        self._free: List[int] = []
        self._root = self._new_node(0, [], [])
        self._reinserted_levels: Set[int] = set()

    @property
    def root(self) -> int:
        """The root's node id; a deferred :meth:`build` is carried out here."""
        return self.ensure_built()._root

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

    def copy(self) -> "RStarTree":
        """A tree with its own node table, to maintain while this one
        stays as it is (a paged past version may still hold it);
        ChooseSubtree's overlaps are rebuilt on first use."""
        tree = copy.copy(self.ensure_built())
        tree.node_level = list(self.node_level)
        tree.node_boxes = [None if b is None else list(b) for b in self.node_boxes]
        tree.node_targets = [
            None if t is None else list(t) for t in self.node_targets
        ]
        tree._overlaps = {}
        tree._free = list(self._free)
        tree._reinserted_levels = set()
        return tree

    def insert(self, region_id: int, mbr: Rect) -> None:
        """Insert one region MBR (R* InsertData)."""
        self.ensure_built()
        self._reinserted_levels = set()
        self._insert_entry((mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y), region_id, 0)

    # -- the node table ---------------------------------------------------------

    def _new_node(self, level: int, boxes: List[Box], targets: List[int]) -> int:
        if self._free:
            node = self._free.pop()
            self.node_level[node] = level
            self.node_boxes[node] = boxes
            self.node_targets[node] = targets
            return node
        self.node_level.append(level)
        self.node_boxes.append(boxes)
        self.node_targets.append(targets)
        return len(self.node_level) - 1

    def _release(self, node: int) -> None:
        self.node_boxes[node] = self.node_targets[node] = None
        self._overlaps.pop(node, None)
        self._free.append(node)

    def _write(
        self,
        node: int,
        start: int,
        stop: int,
        boxes: Sequence[Box],
        targets: Sequence[int],
    ) -> None:
        """The one entry writer: entries ``start:stop`` of *node* become
        *boxes* / *targets* (list slice assignment).  A leaf parent's
        overlaps follow a one-entry MBR change in place and are dropped,
        to be rebuilt on the next ChooseSubtree, on any other change."""
        node_boxes = self.node_boxes[node]
        old = node_boxes[start:stop]
        node_boxes[start:stop] = boxes
        self.node_targets[node][start:stop] = targets
        overlaps = self._overlaps.get(node)
        if overlaps is None:
            return
        if len(old) != 1 or len(boxes) != 1:
            del self._overlaps[node]
        elif old[0] != boxes[0]:
            overlaps.replace(start, boxes[0])

    def _select(self, node: int, keep: Sequence[int]) -> None:
        """Keep only the entries at positions *keep* of *node*, in that
        order."""
        boxes, targets = self.node_boxes[node], self.node_targets[node]
        self._write(
            node, 0, len(boxes), [boxes[k] for k in keep], [targets[k] for k in keep]
        )

    def _refresh_parent_mbr(self, parent: int, child: int) -> None:
        try:
            k = self.node_targets[parent].index(child)
        except ValueError:
            raise IndexBuildError("parent does not reference child") from None
        self._write(parent, k, k + 1, [_union(self.node_boxes[child])], [child])

    def _refresh_path(self, node: int, path: Sequence[int]) -> None:
        """Tighten the MBRs on *path* (root first) up from *node*."""
        child = node
        for parent in reversed(path):
            self._refresh_parent_mbr(parent, child)
            child = parent

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
        box = None if mbr is None else (mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y)
        found = self._find_leaf(self.root, region_id, box, [])
        if found is None and box is not None:
            found = self._find_leaf(self._root, region_id, None, [])
        if found is None:
            raise IndexBuildError(f"region {region_id} not in the R*-tree")
        leaf, path = found
        targets = self.node_targets[leaf]
        self._select(leaf, [k for k, t in enumerate(targets) if t != region_id])
        self._condense(leaf, path)
        root = self._root
        while self.node_level[root] > 0 and len(self.node_targets[root]) == 1:
            self._root = self.node_targets[root][0]
            self._release(root)
            root = self._root

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
        node: int,
        region_id: int,
        box: Optional[Box],
        path: List[int],
    ) -> Optional[Tuple[int, List[int]]]:
        """Leaf holding *region_id*'s entry plus its ancestor path."""
        if self.node_level[node] == 0:
            if region_id in self.node_targets[node]:
                return node, list(path)
            return None
        path.append(node)
        for entry, child in zip(self.node_boxes[node], self.node_targets[node]):
            if box is not None and not (
                entry[0] <= box[0]
                and entry[1] <= box[1]
                and entry[2] >= box[2]
                and entry[3] >= box[3]
            ):
                continue
            found = self._find_leaf(child, region_id, box, path)
            if found is not None:
                return found
        path.pop()
        return None

    def _condense(self, node: int, path: List[int]) -> None:
        """CondenseTree: dissolve underfull path nodes, reinsert orphans."""
        eliminated: List[int] = []
        child = node
        for parent in reversed(path):
            if len(self.node_boxes[child]) < self.min_entries:
                targets = self.node_targets[parent]
                self._select(parent, [k for k, t in enumerate(targets) if t != child])
                eliminated.append(child)
            else:
                self._refresh_parent_mbr(parent, child)
            child = parent
        # Reinsert orphaned entries at their original levels, deepest
        # (leaf) first — each reinsert is a full R* insert, so splits and
        # forced reinsertion apply as usual.
        for orphan in eliminated:
            level = self.node_level[orphan]
            for box, target in zip(self.node_boxes[orphan], self.node_targets[orphan]):
                self._reinserted_levels = set()
                self._insert_entry(box, target, level)
            self._release(orphan)

    # -- R* machinery ----------------------------------------------------------

    def _insert_entry(self, box: Box, target: int, level: int) -> None:
        node, path = self._choose_subtree(box, level)
        end = len(self.node_boxes[node])
        self._write(node, end, end, [box], [target])
        self._overflow_chain(node, path)

    def _overflow_chain(self, node: int, path: List[int]) -> None:
        """Handle overflow at *node*, propagating splits up *path*."""
        while len(self.node_boxes[node]) > self.max_entries:
            level = self.node_level[node]
            is_root = not path
            if not is_root and level not in self._reinserted_levels:
                self._reinserted_levels.add(level)
                self._reinsert(node, path)
                return  # reinsertion re-enters _insert_entry recursively
            split_off = self._split(node)
            boxes = self.node_boxes
            if is_root:
                self._root = self._new_node(
                    level + 1,
                    [_union(boxes[node]), _union(boxes[split_off])],
                    [node, split_off],
                )
                return
            parent = path[-1]
            self._refresh_parent_mbr(parent, node)
            end = len(boxes[parent])
            self._write(parent, end, end, [_union(boxes[split_off])], [split_off])
            node = parent
            path = path[:-1]
        # No overflow: tighten ancestor MBRs.
        self._refresh_path(node, path)

    def _choose_subtree(self, box: Box, level: int) -> Tuple[int, List[int]]:
        """Descend to the best node at *level* for inserting *box*."""
        node = self.root
        path: List[int] = []
        while self.node_level[node] > level:
            if self.node_level[node] == 1:
                # Children are leaves: R* uses minimum overlap enlargement.
                best = self._least_overlap_enlargement(node, box)
            else:
                best = _least_area_enlargement(self.node_boxes[node], box)
            path.append(node)
            node = self.node_targets[node][best]
        return node, path

    def _least_overlap_enlargement(self, node: int, box: Box) -> int:
        """R* ChooseSubtree over leaf children: least overlap enlargement,
        then least area enlargement, then least area, first entry on ties.

        The entries' own overlap sums come from the node's maintained
        :class:`_Overlaps`; only the overlaps of the entries grown to
        cover *box* are computed per call, and each grown row is added
        with the built-in ``sum()`` in entry order, as the own rows are.
        """
        overlaps = self._overlaps.get(node)
        if overlaps is None:
            overlaps = self._overlaps[node] = _Overlaps(self.node_boxes[node])
        grown_lo = np.minimum(overlaps.lo, [[box[0]], [box[1]]])
        grown_hi = np.maximum(overlaps.hi, [[box[2]], [box[3]]])
        overlap = _overlap_rows(grown_lo, grown_hi, overlaps.lo, overlaps.hi)
        overlap.flat[:: len(overlap) + 1] = 0.0
        grown = map(sum, overlap.tolist())
        area = overlaps.area.tolist()
        enlargement = (_areas(grown_lo, grown_hi) - overlaps.area).tolist()
        overlap_growth = [g - o for g, o in zip(grown, overlaps.own)]
        # The index breaks ties towards the first entry, as min() does.
        return min(zip(overlap_growth, enlargement, area, range(len(area))))[3]

    def _reinsert(self, node: int, path: List[int]) -> None:
        """Forced reinsertion: evict the 30% of entries furthest from the
        node's center and insert them again (close-reinsert order)."""
        boxes = self.node_boxes[node]
        targets = self.node_targets[node]
        min_x, min_y, max_x, max_y = _union(boxes)
        cx, cy = (min_x + max_x) / 2.0, (min_y + max_y) / 2.0
        distance = [
            math.hypot((b[0] + b[2]) / 2.0 - cx, (b[1] + b[3]) / 2.0 - cy)
            for b in boxes
        ]
        order = sorted(range(len(boxes)), key=distance.__getitem__, reverse=True)
        count = max(1, int(round(REINSERT_FRACTION * len(boxes))))
        evicted = [(boxes[i], targets[i]) for i in order[:count]]
        self._select(node, order[count:])
        self._refresh_path(node, path)
        # Close reinsert: nearest-evicted first.
        level = self.node_level[node]
        for box, target in reversed(evicted):
            self._insert_entry(box, target, level)

    def _split(self, node: int) -> int:
        """R* split: margin-minimal axis, overlap-minimal distribution.

        Keeps the first group in *node* and returns the id of a new node
        holding the second group.

        The four sort orders (by lower then upper x bound, upper then
        lower x, and the same in y) are stable ``lexsort`` rows.  Each
        distribution keeps the first ``k`` entries of an order; both
        groups' MBRs are running ``minimum``/``maximum`` unions from the
        front and from the back.  Per order, the distributions' margins
        (width plus height of each group's MBR) are totalled left to right, the
        order with the least total wins (the first on ties), and within
        it the distribution of least (overlap, area sum), the first on
        ties.
        """
        m = self.min_entries
        rows = self.node_boxes[node]
        targets = self.node_targets[node]
        n = len(rows)
        boxes = np.array(rows, np.float64)
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
        split_off = self._new_node(
            self.node_level[node],
            [rows[i] for i in order[cut:]],
            [targets[i] for i in order[cut:]],
        )
        self._select(node, order[:cut])
        return split_off

    # -- logical query -----------------------------------------------------------

    def locate(self, p: Point) -> int:
        """Point query with the added shape layer: DFS over candidate MBRs,
        polygon containment at the leaves, first hit wins (§3.2)."""
        result = self._search(self.root, p)
        if result is None:
            raise QueryError(f"{p!r} not found in the R*-tree")
        return result

    def _search(self, node: int, p: Point) -> Optional[int]:
        leaf = self.node_level[node] == 0
        for box, target in zip(self.node_boxes[node], self.node_targets[node]):
            if not (box[0] <= p.x <= box[2] and box[1] <= p.y <= box[3]):
                continue
            if leaf:
                if self.subdivision.region(target).polygon.contains_point(p):
                    return target
            else:
                found = self._search(target, p)
                if found is not None:
                    return found
        return None

    # -- structure accessors --------------------------------------------------------

    def nodes_depth_first(self) -> List[int]:
        """Node ids in preorder DFS — the broadcast order of §5."""
        out: List[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            if self.node_level[node] > 0:
                stack.extend(reversed(self.node_targets[node]))
        return out

    @property
    def height(self) -> int:
        return self.node_level[self.root] + 1

    def check_invariants(self) -> None:
        """Verify fill factors, levels and MBR containment everywhere."""
        root = self.root
        for node in self.nodes_depth_first():
            boxes = self.node_boxes[node]
            if node != root and not (
                self.min_entries <= len(boxes) <= self.max_entries
            ):
                raise IndexBuildError(
                    f"node fill {len(boxes)} outside "
                    f"[{self.min_entries}, {self.max_entries}]"
                )
            if len(boxes) > self.max_entries:
                raise IndexBuildError("node overflow survived construction")
            level = self.node_level[node]
            if level == 0:
                continue
            for box, child in zip(boxes, self.node_targets[node]):
                if self.node_level[child] != level - 1:
                    raise IndexBuildError("child level mismatch")
                if box != _union(self.node_boxes[child]):
                    raise IndexBuildError("stale parent MBR")


def _least_area_enlargement(boxes: Sequence[Box], box: Box) -> int:
    """Index of the entry needing the least area enlargement to cover
    *box*, then of least area, the first on ties: the area of the union
    box minus the entry's area, each area the product of the extents."""
    min_x, min_y, max_x, max_y = box

    def key(k: int) -> Tuple[float, float]:
        x0, y0, x1, y1 = boxes[k]
        area = (x1 - x0) * (y1 - y0)
        grown = (max(x1, max_x) - min(x0, min_x)) * (max(y1, max_y) - min(y0, min_y))
        return grown - area, area

    return min(range(len(boxes)), key=key)


#: The split's sort orders as (primary, secondary) columns of the
#: ``(min_x, min_y, max_x, max_y)`` box rows: x by lower then upper
#: bound, x by upper then lower, y by lower then upper, y by upper then
#: lower.
_SPLIT_PRIMARY = [0, 2, 1, 3]
_SPLIT_SECONDARY = [2, 0, 3, 1]
