"""Construction parity: the array construction kernels build the same trees.

The D-tree runs Algorithm 1 for a whole tree level in one array pass
over the subdivision's integer edge table, sizes styles from vertex
degrees and chains only the winners; the R*-tree is a node table whose
one entry writer keeps each leaf parent's overlap rows current, its
split scores every distribution of the four sort orders at once and it
pages into a preorder array snapshot; ``RStarTree.build`` defers its
insertions to the first read; the
trian-tree's Kirkpatrick rounds run on integer vertex ids with
one batched overlap test per round, and it and the trap-tree (which
reads each edge's region above from the edge table) build, page and
compile their DAGs as integer arrays numbered once in broadcast order.  None of
that may change a single tree.  The scalar code each of them replaced
is kept here as the oracle — the depth-first D-tree recursion over one
Algorithm 1 run per style, per-edge ``canonical_key`` cancellation,
chaining that re-quantises every visited endpoint, the R*-tree as
``Rect``-object nodes (eager insertion, delete, ``id()``-keyed paging
and the compile loop over the objects), the ``TrianNode``/``quantize_point``
rounds with one ``overlaps_interior`` call per pair, Point-based ear
clipping, and the trian-tree's and the trap-tree's object DAGs, paged
and compiled by object walks — and monkeypatched in to build the
reference.  Both builds run on the running interpreter: ``sum()`` of
floats is compensated on Python 3.12+ and plain before, so the bits of
an overlap sum (and with them a tie-break) may differ between
interpreters but never between the two builds.  The R* ChooseSubtree
and insert/delete property tests run under both kinds of ``sum()``,
whatever the interpreter.
"""

from __future__ import annotations

import contextlib
import copy
import math
import pickle
import random
from collections import Counter, defaultdict
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.packets import PacketStore, QueryTrace, dedupe_consecutive
from repro.broadcast.params import SystemParameters
from repro.core import imbalanced as imbalanced_mod
from repro.core import partition as partition_mod
from repro.core.dtree import DTree, paper_styles
from repro.core.imbalanced import build_imbalanced_dtree
from repro.core.paging import PagedDTree
from repro.core.partition import (
    Partition,
    PartitionStyle,
    enumerate_styles,
    evaluate_style,
)
from repro.core.serialize import SerializedDTree
from repro.datasets.catalog import (
    SERVICE_AREA,
    hospital_dataset,
    park_dataset,
    uniform_dataset,
)
from repro.datasets.generators import uniform_points
from repro.dynamic import (
    DynamicBroadcastServer,
    churn_sites,
    diff_subdivisions,
    maintainer_for,
    sites_subdivision,
)
from repro.dynamic.maintain import MAINTAINER_REGISTRY, DTreeMaintainer
from repro.engine import index_family
from repro.engine.trace import (
    _COMPILERS,
    _TRAP_LEAF,
    _TRAP_XNODE,
    _TRAP_YNODE,
    _UNCOMPILED,
    _CompiledDTree,
    _CompiledRStarTree,
    _CompiledTrapTree,
    _CompiledTrianTree,
    _cached_compiled,
    _path_csr,
    _rstar_cell_table,
    _slab_index,
    _store_compiled,
    _trace_batch_dtree,
    _trace_batch_rstar,
    _trace_batch_trap,
    _trace_batch_trian,
    _trap_cell_table,
    _trian_cell_table,
    batched_trace,
    compiled_form,
    register_tracer,
)
from repro.errors import (
    GeometryError,
    IndexBuildError,
    PagingError,
    QueryError,
    SubdivisionError,
)
from repro.geometry.kernels import RegionEdges, point_coords, ragged_ranges
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import (
    Polyline,
    chain_keyed,
    chain_segments,
    total_coordinate_count,
)
from repro.geometry.predicates import orientation, quantize_point
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment
from repro.geometry.triangulate import Triangle, triangulate_polygon
from repro.pointloc import trapezoidal as trap_mod
from repro.pointloc.kirkpatrick import (
    MAX_REMOVABLE_DEGREE,
    PagedTrianTree,
    TrianTree,
    _broadcast_order,
    _gap_triangles,
    _super_triangle_corners,
)
from repro.pointloc.kdsplit import KDSplitTree, PagedKDSplitTree
from repro.pointloc.trapezoidal import PagedTrapTree, TrapTree
from repro.rstar.paged import rstar_fanout
from repro.rstar import tree as rstar_tree_mod
from repro.rstar.tree import REINSERT_FRACTION, RStarTree, _Overlaps
from repro.simulation.candidates import candidate_provider
from repro.tessellation.grid import grid_subdivision
from repro.tessellation.subdivision import DataRegion, Subdivision
from repro.tessellation.voronoi import voronoi_subdivision

from tests.conftest import random_points_in

PACKET_CAPACITY = 256


# -- the scalar oracles --------------------------------------------------------


def scalar_boundary_of_subset(
    subdivision: Subdivision, region_ids: Sequence[int]
) -> List[Segment]:
    """Edge cancellation keyed by ``Segment.canonical_key``, per call."""
    counter: Dict[tuple, List[Segment]] = defaultdict(list)
    for rid in region_ids:
        for edge in subdivision.region(rid).polygon.edges():
            counter[edge.canonical_key()].append(edge)
    boundary: List[Segment] = []
    for edges in counter.values():
        if len(edges) == 1:
            boundary.append(edges[0])
        elif len(edges) > 2:
            raise SubdivisionError("edge shared by more than two regions")
    return boundary


def scalar_chain_segments(segments) -> List[Polyline]:
    """Segment chaining that quantises every endpoint on every visit."""
    seg_list = list(segments)
    if not seg_list:
        return []
    adjacency: Dict[Tuple[float, float], List[int]] = defaultdict(list)
    for idx, seg in enumerate(seg_list):
        adjacency[quantize_point(seg.a)].append(idx)
        adjacency[quantize_point(seg.b)].append(idx)
    used = [False] * len(seg_list)
    polylines: List[Polyline] = []

    def walk(start_idx: int, start_point: Point) -> List[Point]:
        chain = [start_point]
        idx = start_idx
        current = start_point
        while True:
            used[idx] = True
            seg = seg_list[idx]
            nxt = seg.b if quantize_point(seg.a) == quantize_point(current) else seg.a
            chain.append(nxt)
            key = quantize_point(nxt)
            candidates = [j for j in adjacency[key] if not used[j]]
            if len(adjacency[key]) != 2 or len(candidates) != 1:
                break
            idx = candidates[0]
            current = nxt
        return chain

    for seed in range(len(seg_list)):
        if used[seed]:
            continue
        seg = seg_list[seed]
        forward = walk(seed, seg.a)
        back_key = quantize_point(forward[0])
        candidates = [j for j in adjacency[back_key] if not used[j]]
        if len(adjacency[back_key]) == 2 and len(candidates) == 1:
            backward = walk(candidates[0], forward[0])
            forward = backward[::-1][:-1] + forward
        polylines.append(Polyline(forward))
    return polylines


def _scalar_sort_regions(subdivision, region_ids, style) -> List[int]:
    def poly(rid):
        return subdivision.region(rid).polygon

    if style.dimension == "y":
        if style.sort_key == "far":
            key = lambda rid: (poly(rid).rightmost_x, rid)
        else:
            key = lambda rid: (poly(rid).leftmost_x, rid)
        return sorted(region_ids, key=key)
    if style.sort_key == "far":
        key = lambda rid: (-poly(rid).lowest_y, rid)
    else:
        key = lambda rid: (-poly(rid).uppermost_y, rid)
    return sorted(region_ids, key=key)


def _scalar_prune_y(extent, line_x, keep):
    right = keep == "right"
    kept = []
    for seg in extent:
        if (seg.min_x >= line_x) if right else (seg.max_x <= line_x):
            kept.append(seg)
            continue
        if (seg.max_x <= line_x) if right else (seg.min_x >= line_x):
            continue
        t = (line_x - seg.a.x) / (seg.b.x - seg.a.x)
        cut = Point(line_x, seg.a.y + t * (seg.b.y - seg.a.y))
        if right:
            far = seg.a if seg.a.x > seg.b.x else seg.b
        else:
            far = seg.a if seg.a.x < seg.b.x else seg.b
        if far != cut:
            kept.append(Segment(cut, far))
    return kept


def _scalar_prune_x(extent, line_y, keep):
    below = keep == "below"
    kept = []
    for seg in extent:
        if (seg.max_y <= line_y) if below else (seg.min_y >= line_y):
            kept.append(seg)
            continue
        if (seg.min_y >= line_y) if below else (seg.max_y <= line_y):
            continue
        t = (line_y - seg.a.y) / (seg.b.y - seg.a.y)
        cut = Point(seg.a.x + t * (seg.b.x - seg.a.x), line_y)
        if below:
            far = seg.a if seg.a.y < seg.b.y else seg.b
        else:
            far = seg.a if seg.a.y > seg.b.y else seg.b
        if far != cut:
            kept.append(Segment(cut, far))
    return kept


#: Scalar Algorithm 1 runs since the last ``scalar_kernels`` install.
SCALAR_RUNS: Counter = Counter()


def scalar_evaluate_style(
    subdivision: Subdivision, region_ids: Sequence[int], style: PartitionStyle
) -> Partition:
    """Algorithm 1 over ``Segment`` objects and per-polygon bounding boxes."""
    SCALAR_RUNS["evaluate_style"] += 1
    ordered = _scalar_sort_regions(subdivision, region_ids, style)
    first_ids = ordered[: style.first_count]
    second_ids = ordered[style.first_count :]
    if not first_ids or not second_ids:
        raise IndexBuildError("empty subspace")

    def poly(rid):
        return subdivision.region(rid).polygon

    described_ids = first_ids if style.described == "first" else second_ids
    extent = scalar_boundary_of_subset(subdivision, described_ids)
    if style.dimension == "y":
        first_bound = min(poly(rid).leftmost_x for rid in second_ids)
        second_bound = max(poly(rid).rightmost_x for rid in first_ids)
        if style.described == "first":
            kept = _scalar_prune_y(extent, first_bound, "right")
        else:
            kept = _scalar_prune_y(extent, second_bound, "left")
        axis_lo = min(poly(rid).leftmost_x for rid in ordered)
        axis_hi = max(poly(rid).rightmost_x for rid in ordered)
        overlap = max(0.0, second_bound - first_bound)
    else:
        first_bound = max(poly(rid).uppermost_y for rid in second_ids)
        second_bound = min(poly(rid).lowest_y for rid in first_ids)
        if style.described == "first":
            kept = _scalar_prune_x(extent, first_bound, "below")
        else:
            kept = _scalar_prune_x(extent, second_bound, "above")
        axis_lo = min(poly(rid).lowest_y for rid in ordered)
        axis_hi = max(poly(rid).uppermost_y for rid in ordered)
        overlap = max(0.0, first_bound - second_bound)
    span = max(axis_hi - axis_lo, 1e-12)
    return Partition(
        style=style,
        first_ids=list(first_ids),
        second_ids=list(second_ids),
        polylines=scalar_chain_segments(kept),
        first_bound=first_bound,
        second_bound=second_bound,
        inter_prob=min(1.0, overlap / span),
    )


# -- the R*-tree's object tree ------------------------------------------------------
#
# The R*-tree as it was before its nodes moved into a table: ``RStarNode``
# objects holding ``RStarEntry``s with ``Rect`` MBRs, node MBRs from four
# generator passes, ChooseSubtree one :func:`overlap_area` at a time, each
# split distribution's groups re-unioned from scratch, delete and
# CondenseTree over the objects, the paging that keys packets by
# ``id(node)`` and the compile loop over the node objects.
# ``scalar_kernels`` installs it as ``RStarTree.build``.  The R* measures
# on ``Rect`` it reads are the helpers below.


def margin(r: Rect) -> float:
    """Half-perimeter; the R* split heuristic minimises the margin sum."""
    return r.width + r.height


def contains_rect(r: Rect, other: Rect) -> bool:
    """True if *other* lies entirely inside *r*."""
    return (
        r.min_x <= other.min_x
        and r.min_y <= other.min_y
        and r.max_x >= other.max_x
        and r.max_y >= other.max_y
    )


def intersection(r: Rect, other: Rect) -> Optional[Rect]:
    """Overlap rectangle, or None when disjoint."""
    if not r.intersects(other):
        return None
    return Rect(
        max(r.min_x, other.min_x),
        max(r.min_y, other.min_y),
        min(r.max_x, other.max_x),
        min(r.max_y, other.max_y),
    )


def overlap_area(r: Rect, other: Rect) -> float:
    """Area of the overlap with *other* (0 when disjoint)."""
    inter = intersection(r, other)
    return inter.area if inter is not None else 0.0


def union(r: Rect, other: Rect) -> Rect:
    """Smallest rectangle containing both."""
    return Rect(
        min(r.min_x, other.min_x),
        min(r.min_y, other.min_y),
        max(r.max_x, other.max_x),
        max(r.max_y, other.max_y),
    )


def enlargement_for(r: Rect, other: Rect) -> float:
    """Area growth needed to also cover *other* (R* ChooseSubtree)."""
    return union(r, other).area - r.area


def distance_to_center_of(r: Rect, other: Rect) -> float:
    """Distance between rectangle centers (used by forced reinsert)."""
    return r.center.distance_to(other.center)


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


def scalar_union(rects) -> Rect:
    rect_list = list(rects)
    return Rect(
        min(r.min_x for r in rect_list),
        min(r.min_y for r in rect_list),
        max(r.max_x for r in rect_list),
        max(r.max_y for r in rect_list),
    )


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
        return scalar_union(e.mbr for e in self.entries)


def scalar_least_overlap_enlargement(
    entries: Sequence[RStarEntry], mbr: Rect
) -> RStarEntry:
    """R* ChooseSubtree at leaf parents, one :func:`overlap_area` at a time."""

    def overlap_sum(candidate: RStarEntry, rect: Rect) -> float:
        return sum(
            overlap_area(rect, other.mbr) for other in entries if other is not candidate
        )

    def key(e: RStarEntry):
        grown = union(e.mbr, mbr)
        return (
            overlap_sum(e, grown) - overlap_sum(e, e.mbr),
            enlargement_for(e.mbr, mbr),
            e.mbr.area,
        )

    return min(entries, key=key)


def _scalar_split_key(axis: str, bound: str):
    if axis == "x":
        if bound == "lo":
            return lambda e: (e.mbr.min_x, e.mbr.max_x)
        return lambda e: (e.mbr.max_x, e.mbr.min_x)
    if bound == "lo":
        return lambda e: (e.mbr.min_y, e.mbr.max_y)
    return lambda e: (e.mbr.max_y, e.mbr.min_y)


class ScalarRStarTree:
    """R* insertion, delete and CondenseTree on :class:`RStarNode` objects."""

    DEFAULT_MAX_ENTRIES = RStarTree.DEFAULT_MAX_ENTRIES

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
        self.root = RStarNode(level=0)
        self._reinserted_levels: set = set()

    @classmethod
    def build(cls, subdivision, max_entries=None, *, seed=0) -> "ScalarRStarTree":
        """Insert every region at once."""
        del seed
        tree = cls(subdivision, max_entries or cls.DEFAULT_MAX_ENTRIES)
        for region in subdivision.regions:
            tree.insert(region.region_id, region.polygon.bbox)
        return tree

    def ensure_built(self) -> "ScalarRStarTree":
        return self

    def page(self, params) -> "ScalarPagedRStarTree":
        fanout = rstar_fanout(params)
        tree = self
        if self.max_entries != fanout:
            tree = ScalarRStarTree.build(self.subdivision, fanout)
        return ScalarPagedRStarTree(tree, params)

    def copy(self) -> "ScalarRStarTree":
        """A tree with its own nodes and entries (the subdivision is
        shared), for the maintainer to update."""
        return copy.deepcopy(self, {id(self.subdivision): self.subdivision})

    def insert(self, region_id: int, mbr: Rect) -> None:
        self._reinserted_levels = set()
        self._insert_entry(RStarEntry(mbr, region_id=region_id), level=0)

    def delete(self, region_id: int, mbr: Optional[Rect] = None) -> None:
        found = self._find_leaf(self.root, region_id, mbr, [])
        if found is None and mbr is not None:
            found = self._find_leaf(self.root, region_id, None, [])
        if found is None:
            raise IndexBuildError(f"region {region_id} not in the R*-tree")
        leaf, path = found
        leaf.entries = [e for e in leaf.entries if e.region_id != region_id]
        self._condense(leaf, path)
        while not self.root.is_leaf and len(self.root.entries) == 1:
            self.root = self.root.entries[0].child

    def apply_updates(self, new_subdivision: Subdivision, batch) -> None:
        old = self.subdivision
        for rid in batch.removed_ids:
            self.delete(rid, old.region(rid).polygon.bbox)
        self.subdivision = new_subdivision
        for rid in batch.added_ids:
            self.insert(rid, new_subdivision.region(rid).polygon.bbox)

    def _find_leaf(self, node, region_id, mbr, path):
        if node.is_leaf:
            if any(e.region_id == region_id for e in node.entries):
                return node, list(path)
            return None
        path.append(node)
        for entry in node.entries:
            if mbr is not None and not contains_rect(entry.mbr, mbr):
                continue
            found = self._find_leaf(entry.child, region_id, mbr, path)
            if found is not None:
                return found
        path.pop()
        return None

    def _condense(self, node: RStarNode, path: List[RStarNode]) -> None:
        eliminated: List[RStarNode] = []
        child = node
        for parent in reversed(path):
            if len(child.entries) < self.min_entries:
                parent.entries = [e for e in parent.entries if e.child is not child]
                eliminated.append(child)
            else:
                self._refresh_parent_mbr(parent, child)
            child = parent
        for orphan in eliminated:
            for entry in orphan.entries:
                self._reinserted_levels = set()
                self._insert_entry(entry, level=orphan.level)

    def _insert_entry(self, entry: RStarEntry, level: int) -> None:
        node, path = self._choose_subtree(entry.mbr, level)
        node.entries.append(entry)
        self._overflow_chain(node, path)

    def _overflow_chain(self, node: RStarNode, path: List[RStarNode]) -> None:
        while len(node.entries) > self.max_entries:
            is_root = not path
            if not is_root and node.level not in self._reinserted_levels:
                self._reinserted_levels.add(node.level)
                self._reinsert(node, path)
                return
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

    def _choose_subtree(self, mbr: Rect, level: int):
        node = self.root
        path: List[RStarNode] = []
        while node.level > level:
            if node.level == 1:
                best = scalar_least_overlap_enlargement(node.entries, mbr)
            else:
                best = min(
                    node.entries,
                    key=lambda e: (enlargement_for(e.mbr, mbr), e.mbr.area),
                )
            path.append(node)
            node = best.child
        return node, path

    def _reinsert(self, node: RStarNode, path: List[RStarNode]) -> None:
        center = node.mbr.center
        node.entries.sort(key=lambda e: e.mbr.center.distance_to(center), reverse=True)
        count = max(1, int(round(REINSERT_FRACTION * len(node.entries))))
        evicted = node.entries[:count]
        node.entries = node.entries[count:]
        child = node
        for parent in reversed(path):
            self._refresh_parent_mbr(parent, child)
            child = parent
        for entry in reversed(evicted):
            self._insert_entry(entry, level=node.level)

    def _split(self, node: RStarNode) -> RStarNode:
        SCALAR_RUNS["rstar_split"] += 1
        m = self.min_entries
        entries = node.entries
        best = None
        for axis in ("x", "y"):
            for bound in ("lo", "hi"):
                ordered = sorted(entries, key=_scalar_split_key(axis, bound))
                margin_total = 0.0
                candidates = []
                for k in range(m, len(ordered) - m + 1):
                    g1 = ordered[:k]
                    g2 = ordered[k:]
                    r1 = scalar_union(e.mbr for e in g1)
                    r2 = scalar_union(e.mbr for e in g2)
                    margin_total += margin(r1) + margin(r2)
                    candidates.append((overlap_area(r1, r2), r1.area + r2.area, g1, g2))
                axis_best = min(candidates, key=lambda c: (c[0], c[1]))
                if best is None or margin_total < best[0]:
                    best = (margin_total, axis_best[0], axis_best[2], axis_best[3])
        node.entries = list(best[2])
        return RStarNode(level=node.level, entries=list(best[3]))

    def locate(self, p: Point) -> int:
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
                found = self._search(entry.child, p)
                if found is not None:
                    return found
        return None

    def nodes_depth_first(self) -> List[RStarNode]:
        out: List[RStarNode] = []

        def walk(node: RStarNode) -> None:
            out.append(node)
            if not node.is_leaf:
                for entry in node.entries:
                    walk(entry.child)

        walk(self.root)
        return out


class ScalarPagedRStarTree:
    """DFS paging of the object tree, node packets keyed by ``id(node)``."""

    def __init__(self, tree: ScalarRStarTree, params: SystemParameters) -> None:
        self.tree = tree
        self.params = params
        self._store = PacketStore(params.packet_capacity)
        self._node_packet: Dict[int, int] = {}
        self._shape_packets: Dict[int, List[int]] = {}
        self._allocate()
        self.packets = self._store.packets

    def node_size(self, node: RStarNode) -> int:
        entry_size = 2 * self.params.coordinate_size + self.params.pointer_size
        return self.params.bid_size + len(node.entries) * entry_size

    def shape_size(self, region_id: int) -> int:
        polygon = self.tree.subdivision.region(region_id).polygon
        return (
            self.params.bid_size
            + len(polygon.vertices) * self.params.coordinate_size
            + self.params.pointer_size
        )

    def _allocate(self) -> None:
        capacity = self.params.packet_capacity

        def place_shape(region_id: int, open_packet):
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
            packet.allocate(size, f"rnode#{len(self._node_packet)}")
            self._node_packet[id(node)] = packet.packet_id
            if node.is_leaf:
                open_packet = packet
                for entry in node.entries:
                    ids, open_packet = place_shape(entry.region_id, open_packet)
                    self._shape_packets[entry.region_id] = ids
            else:
                for entry in node.entries:
                    walk(entry.child)

        walk(self.tree.root)

    def trace(self, point: Point) -> QueryTrace:
        accesses: List[int] = []
        region = self._search(self.tree.root, point, accesses)
        if region is None:
            raise QueryError(f"{point!r} not found in the paged R*-tree")
        return QueryTrace(region, dedupe_consecutive(accesses))

    def _search(self, node: RStarNode, point: Point, accesses: List[int]) -> Optional[int]:
        accesses.append(self._node_packet[id(node)])
        for entry in node.entries:
            if not entry.mbr.contains_point(point):
                continue
            if node.is_leaf:
                accesses.extend(self._shape_packets[entry.region_id])
                polygon = self.tree.subdivision.region(entry.region_id).polygon
                if polygon.contains_point(point):
                    return entry.region_id
            else:
                found = self._search(entry.child, point, accesses)
                if found is not None:
                    return found
        return None


def scalar_compile_rstar(paged: ScalarPagedRStarTree) -> _CompiledRStarTree:
    """``_compile_rstar`` as the loop over the object tree it replaced."""
    compiled = _cached_compiled(paged, "_compiled_rstar", None)
    if compiled is not None:
        return compiled
    subdivision = paged.tree.subdivision
    nodes = paged.tree.nodes_depth_first()
    position = {id(node): i for i, node in enumerate(nodes)}
    mbrs = []
    owner: List[int] = []
    child: List[int] = []
    shapes: List[Sequence[int]] = []
    rings: List[Sequence[Point]] = []
    for i, node in enumerate(nodes):
        for entry in node.entries:
            owner.append(i)
            mbrs.append(entry.mbr)
            if node.is_leaf:
                child.append(~entry.region_id)
                shapes.append(paged._shape_packets[entry.region_id])
                region = subdivision.region(entry.region_id)
                rings.append(region.polygon.vertices)
            else:
                child.append(position[id(entry.child)])
                shapes.append(())
                rings.append(())

    ct = _CompiledRStarTree()
    ct.packet = np.fromiter(
        (paged._node_packet[id(node)] for node in nodes), np.int64, len(nodes)
    )
    ct.entry_start = np.zeros(len(nodes) + 1, np.int64)
    np.cumsum([len(node.entries) for node in nodes], out=ct.entry_start[1:])
    ct.entry_node = np.asarray(owner, np.int64)
    for field in ("min_x", "min_y", "max_x", "max_y"):
        setattr(
            ct,
            field,
            np.fromiter((getattr(m, field) for m in mbrs), np.float64, len(mbrs)),
        )
    ct.child = np.asarray(child, np.int64)
    ct.shape_start, ct.shape_packets = _path_csr(shapes)
    ring_x, ring_y = point_coords([p for ring in rings for p in ring])
    edges = RegionEdges(
        ring_x, ring_y, np.fromiter(map(len, rings), np.int64, len(rings))
    )
    for name in RegionEdges.__slots__:
        setattr(ct, "edge_" + name, getattr(edges, name))
    leaf = ct.child < 0
    first = edges.start[:-1][leaf]
    for field, ring, reduce in (
        ("ring_min_x", ring_x, np.minimum),
        ("ring_min_y", ring_y, np.minimum),
        ("ring_max_x", ring_x, np.maximum),
        ("ring_max_y", ring_y, np.maximum),
    ):
        box = np.zeros(len(ct.child), np.float64)
        if first.size:
            box[leaf] = reduce.reduceat(ring, first)
        setattr(ct, field, box)
    ct.read_table = np.concatenate((ct.packet, ct.shape_packets))
    _rstar_cell_table(ct, subdivision.service_area)
    return _store_compiled(paged, "_compiled_rstar", ct)


def scalar_trace_batch_rstar(paged: ScalarPagedRStarTree, points):
    """The compiled R* tracer, over :func:`scalar_compile_rstar`'s arrays."""
    scalar_compile_rstar(paged)
    return _trace_batch_rstar(paged, points)


_COMPILERS[ScalarPagedRStarTree] = ("rstar", scalar_compile_rstar)
register_tracer(ScalarPagedRStarTree, scalar_trace_batch_rstar)


def scalar_rstar_tree(cls, subdivision, max_entries=None, *, seed=0):
    """``RStarTree.build`` replaced by the object-tree oracle, inserting
    every region at once."""
    return ScalarRStarTree.build(subdivision, max_entries, seed=seed)


# -- the trian-tree's scalar build ----------------------------------------------


def scalar_triangulate_polygon(vertices: Sequence[Point]) -> List[Triangle]:
    """Ear clipping over :class:`Point` objects, one ``orientation`` call
    per corner test."""
    ring = list(vertices)
    if len(ring) >= 2 and ring[0] == ring[-1]:
        ring = ring[:-1]
    if len(ring) < 3:
        raise GeometryError("cannot triangulate fewer than 3 vertices")
    if sum(ring[i].cross(ring[(i + 1) % len(ring)]) for i in range(len(ring))) < 0:
        ring.reverse()

    def any_point_inside(indices, i_prev, i_cur, i_next) -> bool:
        a, b, c = ring[i_prev], ring[i_cur], ring[i_next]
        for idx in indices:
            if idx in (i_prev, i_cur, i_next):
                continue
            p = ring[idx]
            if p == a or p == b or p == c:
                continue
            if (
                orientation(a, b, p) >= 0
                and orientation(b, c, p) >= 0
                and orientation(c, a, p) >= 0
            ):
                return True
        return False

    triangles: List[Triangle] = []
    indices = list(range(len(ring)))
    guard = 0
    max_iterations = len(ring) * len(ring) + 10
    while len(indices) > 3:
        guard += 1
        if guard > max_iterations:
            raise GeometryError("ear clipping failed to converge (non-simple ring?)")
        ear_found = False
        n = len(indices)
        for k in range(n):
            i_prev = indices[(k - 1) % n]
            i_cur = indices[k]
            i_next = indices[(k + 1) % n]
            a, b, c = ring[i_prev], ring[i_cur], ring[i_next]
            if orientation(a, b, c) <= 0:
                continue
            if any_point_inside(indices, i_prev, i_cur, i_next):
                continue
            triangles.append(Triangle(a, b, c))
            indices.pop(k)
            ear_found = True
            break
        if not ear_found:
            dropped = False
            for k in range(len(indices)):
                i_prev = indices[(k - 1) % len(indices)]
                i_cur = indices[k]
                i_next = indices[(k + 1) % len(indices)]
                if orientation(ring[i_prev], ring[i_cur], ring[i_next]) == 0:
                    indices.pop(k)
                    dropped = True
                    break
            if not dropped:
                raise GeometryError("no ear found: ring is not a simple polygon")
    if len(indices) == 3:
        a, b, c = (ring[indices[0]], ring[indices[1]], ring[indices[2]])
        if orientation(a, b, c) != 0:
            triangles.append(Triangle(a, b, c))
    return triangles


# -- the trian-tree's object DAG --------------------------------------------------
#
# The trian-tree as it was before its hierarchy moved onto integer
# arrays: ``TrianNode`` objects made by the scalar rounds, the Kahn pass
# over ``id()``-keyed dicts, the paging that keys packets by
# ``id(node)``, the scan that sorts its candidates on every call and the
# compile loop over the node objects.  ``scalar_kernels`` installs it as
# ``TrianTree.build``.


class TrianNode:
    """One triangle of the hierarchy with links to the finer level."""

    __slots__ = ("triangle", "children", "region_id", "round_index")

    def __init__(
        self,
        triangle: Triangle,
        region_id: Optional[int],
        round_index: int,
    ) -> None:
        self.triangle = triangle
        #: Finer-level nodes overlapping this triangle (empty at level 0).
        self.children: List["TrianNode"] = []
        #: Data region of a level-0 triangle (None for gap triangles and
        #: all coarser levels).
        self.region_id = region_id
        self.round_index = round_index

    def __repr__(self) -> str:
        return (
            f"TrianNode(round={self.round_index}, region={self.region_id}, "
            f"children={len(self.children)})"
        )


def scalar_vertex_stars(nodes: Sequence[TrianNode]) -> Dict[tuple, List[TrianNode]]:
    stars: Dict[tuple, List[TrianNode]] = defaultdict(list)
    for node in nodes:
        for v in node.triangle.vertices:
            stars[quantize_point(v)].append(node)
    return stars


def scalar_independent_set(nodes, corner_keys) -> Dict[tuple, List[TrianNode]]:
    """Greedy independent set keyed by ``quantize_point``, re-keying every
    triangle vertex of the level."""
    stars = scalar_vertex_stars(nodes)
    neighbors: Dict[tuple, set] = defaultdict(set)
    for node in nodes:
        keys = [quantize_point(v) for v in node.triangle.vertices]
        for i in range(3):
            for j in range(3):
                if i != j:
                    neighbors[keys[i]].add(keys[j])
    candidates = sorted(
        (
            key
            for key, star in stars.items()
            if key not in corner_keys and len(star) <= MAX_REMOVABLE_DEGREE
        ),
        key=lambda key: (len(stars[key]), key),
    )
    chosen: Dict[tuple, List[TrianNode]] = {}
    blocked: set = set()
    for key in candidates:
        if key in blocked:
            continue
        chosen[key] = stars[key]
        blocked.add(key)
        blocked.update(neighbors[key])
    return chosen


def scalar_star_ring(key, star: Sequence[TrianNode]):
    """The hole ring of a vertex, chained by ``quantize_point`` keys."""
    edges = []
    for node in star:
        verts = [v for v in node.triangle.vertices if quantize_point(v) != key]
        if len(verts) != 2:
            return None
        edges.append((verts[0], verts[1]))
    if len(edges) < 3:
        return None
    adjacency: Dict[tuple, list] = defaultdict(list)
    for idx, (a, b) in enumerate(edges):
        adjacency[quantize_point(a)].append((b, idx))
        adjacency[quantize_point(b)].append((a, idx))
    if any(len(v) != 2 for v in adjacency.values()):
        return None
    used = [False] * len(edges)
    start = edges[0][0]
    ring = [start]
    current = start
    for _ in range(len(edges)):
        options = [
            (other, idx)
            for other, idx in adjacency[quantize_point(current)]
            if not used[idx]
        ]
        if not options:
            return None
        other, idx = options[0]
        used[idx] = True
        ring.append(other)
        current = other
    if quantize_point(ring[0]) != quantize_point(ring[-1]):
        return None
    if not all(used):
        return None
    return ring[:-1]


def scalar_remove_vertices(nodes, removable, round_index) -> List[TrianNode]:
    """Re-triangulate each star and link every new triangle to the star
    triangles it overlaps, one ``overlaps_interior`` call per pair."""
    removed_nodes: set = set()
    new_nodes: List[TrianNode] = []
    for key, star in removable.items():
        ring = scalar_star_ring(key, star)
        if ring is None:
            continue
        try:
            hole_triangles = scalar_triangulate_polygon(ring)
        except Exception:
            continue
        for node in star:
            removed_nodes.add(id(node))
        for tri in hole_triangles:
            new_node = TrianNode(tri, None, round_index)
            new_node.children = [
                old for old in star if tri.overlaps_interior(old.triangle)
            ]
            if not new_node.children:
                raise IndexBuildError(
                    "re-triangulated triangle overlaps none of the star"
                )
            new_nodes.append(new_node)
    survivors = [n for n in nodes if id(n) not in removed_nodes]
    return survivors + new_nodes


def scalar_trian_build(self: "ScalarTrianTree") -> None:
    """``TrianTree._build`` over :class:`TrianNode` lists and tuple keys."""
    SCALAR_RUNS["trian_build"] += 1
    area = self.subdivision.service_area
    corners = _super_triangle_corners(area)
    corner_keys = {quantize_point(c) for c in corners}
    current: List[TrianNode] = []
    for region in self.subdivision.regions:
        for tri in scalar_triangulate_polygon(region.polygon.vertices):
            current.append(TrianNode(tri, region.region_id, 0))
    for tri in _gap_triangles(area, corners, self._border_vertices()):
        current.append(TrianNode(tri, None, 0))
    round_index = 0
    while len(current) > self.t_min:
        round_index += 1
        removable = scalar_independent_set(current, corner_keys)
        if not removable:
            break
        coarser = scalar_remove_vertices(current, removable, round_index)
        if len(coarser) >= len(current):
            break
        current = coarser
    self.roots = current
    self.rounds = round_index


def _first_containing(
    nodes: Sequence[TrianNode], p: Point
) -> Optional[TrianNode]:
    for node in nodes:
        if node.triangle.contains_point(p):
            return node
    return None


class ScalarTrianTree:
    """Kirkpatrick's hierarchy as a DAG of :class:`TrianNode` objects."""

    def __init__(self, subdivision: Subdivision, t_min: int = 4) -> None:
        if t_min < 1:
            raise IndexBuildError(f"t_min must be >= 1, got {t_min}")
        self.subdivision = subdivision
        self.t_min = t_min
        #: Coarsest-level triangles — the entry point of the search.
        self.roots: List[TrianNode] = []
        self._build()

    _build = scalar_trian_build
    _border_vertices = TrianTree._border_vertices

    def page(self, params) -> "ScalarPagedTrianTree":
        return ScalarPagedTrianTree(self, params)

    def locate(self, p: Point) -> int:
        node = _first_containing(self.roots, p)
        if node is None:
            raise QueryError(f"{p!r} outside the super-triangle")
        while node.children:
            child = _first_containing(node.children, p)
            if child is None:
                raise QueryError(
                    f"hierarchy descent lost {p!r} (corrupt trian-tree)"
                )
            node = child
        if node.region_id is None:
            raise QueryError(f"{p!r} outside the subdivided area")
        return node.region_id

    def nodes_level_order(self) -> List[TrianNode]:
        """All nodes in topological order (every parent before each child)
        — the broadcast order."""
        indegree: Dict[int, int] = {}
        by_id: Dict[int, TrianNode] = {}
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            if id(node) in by_id:
                continue
            by_id[id(node)] = node
            indegree.setdefault(id(node), 0)
            for child in node.children:
                indegree[id(child)] = indegree.get(id(child), 0) + 1
                stack.append(child)
        order: List[TrianNode] = []
        frontier = [n for n in self.roots if indegree[id(n)] == 0]
        while frontier:
            node = frontier.pop(0)
            order.append(node)
            for child in node.children:
                indegree[id(child)] -= 1
                if indegree[id(child)] == 0:
                    frontier.append(child)
        if len(order) != len(by_id):
            raise IndexBuildError("trian-tree hierarchy is not a DAG")
        return order


class ScalarPagedTrianTree:
    """Greedy level-order paging of the object DAG, packet ids keyed by
    ``id()``."""

    def __init__(self, tree: ScalarTrianTree, params: SystemParameters) -> None:
        self.tree = tree
        self.params = params
        self._store = PacketStore(params.packet_capacity)
        self._node_packet: Dict[int, int] = {}
        self._order = tree.nodes_level_order()
        self._allocate()
        self.packets = self._store.packets

    def node_size(self, node: TrianNode) -> int:
        p = self.params
        pointers = max(1, len(node.children))
        return p.bid_size + 3 * p.coordinate_size + pointers * p.pointer_size

    def root_directory_size(self) -> int:
        return self.params.bid_size + len(self.tree.roots) * self.params.pointer_size

    def _allocate(self) -> None:
        capacity = self.params.packet_capacity
        packet = self._store.new_packet()
        size = self.root_directory_size()
        if size > capacity:
            remaining = size
            while remaining > capacity:
                packet.allocate(capacity, "root-directory/part")
                packet = self._store.new_packet()
                remaining -= capacity
            packet.allocate(remaining, "root-directory")
        else:
            packet.allocate(size, "root-directory")
        self._root_dir_packet = 0
        for ordinal, node in enumerate(self._order):
            size = self.node_size(node)
            if size > capacity:
                raise PagingError("trian-tree node exceeds packet capacity")
            if size > packet.free:
                packet = self._store.new_packet()
            packet.allocate(size, f"trinode#{ordinal}")
            self._node_packet[id(node)] = packet.packet_id

    def trace(self, point: Point) -> QueryTrace:
        accesses: List[int] = [self._root_dir_packet]
        node = self._scan(self.tree.roots, point, accesses)
        if node is None:
            raise QueryError(f"{point!r} outside the super-triangle")
        while node.children:
            child = self._scan(node.children, point, accesses)
            if child is None:
                raise QueryError(f"descent lost {point!r}")
            node = child
        if node.region_id is None:
            raise QueryError(f"{point!r} outside the subdivided area")
        return QueryTrace(node.region_id, dedupe_consecutive(accesses))

    def _scan(
        self,
        candidates: Sequence[TrianNode],
        point: Point,
        accesses: List[int],
    ) -> Optional[TrianNode]:
        ordered = sorted(candidates, key=lambda n: self._node_packet[id(n)])
        for node in ordered:
            accesses.append(self._node_packet[id(node)])
            if node.triangle.contains_point(point):
                return node
        return None


def scalar_compile_trian(paged: ScalarPagedTrianTree):
    """``_compile_trian`` as the loop over the object DAG it replaced; the
    cell table is built from its arrays by the same builder."""
    compiled = _cached_compiled(paged, "_compiled_trian", _UNCOMPILED)
    if compiled is not _UNCOMPILED:
        return compiled
    order = paged._order
    count = len(order)
    pos = {id(node): i for i, node in enumerate(order)}
    node_pkt = paged._node_packet

    tri_ax = np.empty(count, np.float64)
    tri_ay = np.empty(count, np.float64)
    tri_bx = np.empty(count, np.float64)
    tri_by = np.empty(count, np.float64)
    tri_cx = np.empty(count, np.float64)
    tri_cy = np.empty(count, np.float64)
    region = np.full(count, -1, np.int32)
    child_start = np.zeros(count + 1, np.int64)
    child_count = np.zeros(count + 1, np.int64)
    flat: List[int] = []
    flat_pkt: List[int] = []
    flat_distinct: List[int] = []

    ok = count > 0 and len(paged.tree.roots) > 0

    def append_children(parent_packet: int, children) -> bool:
        # Stable sort by packet — the scalar ``_scan`` candidate order.
        ordered = sorted(children, key=lambda nd: node_pkt[id(nd)])
        distinct = 0
        prev = None
        for child in ordered:
            cpos = pos.get(id(child))
            pkt = node_pkt[id(child)]
            if cpos is None or pkt < parent_packet:
                return False
            if pkt != prev:
                distinct += 1
                prev = pkt
            flat.append(cpos)
            flat_pkt.append(pkt)
            flat_distinct.append(distinct)
        return True

    for i, node in enumerate(order):
        if not ok:
            break
        tri = node.triangle
        tri_ax[i] = tri.a.x
        tri_ay[i] = tri.a.y
        tri_bx[i] = tri.b.x
        tri_by[i] = tri.b.y
        tri_cx[i] = tri.c.x
        tri_cy[i] = tri.c.y
        if node.region_id is not None:
            region[i] = node.region_id
        child_start[i] = len(flat)
        ok = append_children(node_pkt[id(node)], node.children)
        child_count[i] = len(flat) - child_start[i]
    if ok:
        child_start[count] = len(flat)
        ok = append_children(paged._root_dir_packet, paged.tree.roots)
        child_count[count] = len(flat) - child_start[count]

    compiled = None
    if ok:
        ct = _CompiledTrianTree()
        ct.region = region
        ct.child_start = child_start
        ct.child_count = child_count
        ct.child_flat = np.asarray(flat, np.int64)
        ct.child_pkt = np.asarray(flat_pkt, np.int64)
        ct.child_distinct = np.asarray(flat_distinct, np.int64)
        ct.ctri_ax = tri_ax[ct.child_flat]
        ct.ctri_ay = tri_ay[ct.child_flat]
        ct.ctri_bx = tri_bx[ct.child_flat]
        ct.ctri_by = tri_by[ct.child_flat]
        ct.ctri_cx = tri_cx[ct.child_flat]
        ct.ctri_cy = tri_cy[ct.child_flat]
        _trian_cell_table(
            ct, paged.tree.subdivision.service_area, paged._root_dir_packet
        )
        compiled = ct
    _store_compiled(paged, "_compiled_trian", compiled)
    return compiled


def scalar_trace_batch_trian(paged: ScalarPagedTrianTree, points):
    """The compiled trian tracer, over :func:`scalar_compile_trian`'s arrays."""
    scalar_compile_trian(paged)
    return _trace_batch_trian(paged, points)


_COMPILERS[ScalarPagedTrianTree] = ("trian", scalar_compile_trian)
register_tracer(ScalarPagedTrianTree, scalar_trace_batch_trian)


def scalar_trian_tree(cls, subdivision: Subdivision, *, seed: int = 0, t_min: int = 4):
    """``TrianTree.build`` replaced by the object-DAG oracle."""
    return ScalarTrianTree(subdivision, t_min)


# -- the trap-tree's object DAG ---------------------------------------------------
#
# The trap-tree as it was before its DAG moved onto integer arrays: the
# build, the Kahn pass over ``id()``-keyed dicts, the paging that keys
# packets by ``id(node)`` and the compile loop over the node objects.
# ``scalar_kernels`` installs it as ``TrapTree.build``.


def scalar_directed_edge_region_above(subdivision: Subdivision) -> dict:
    """Region above each non-vertical edge, keyed by ``canonical_key``."""
    above: dict = {}
    for r in subdivision.regions:
        for a, b in r.polygon.directed_edges():
            if a.x == b.x:
                continue
            key = Segment(a, b).canonical_key()
            if a.x < b.x:
                above[key] = r.region_id
            else:
                above.setdefault(key, None)
    return above


class _Node:
    """DAG node base: tracks parents for in-place subtree replacement."""

    __slots__ = ("parents",)

    def __init__(self) -> None:
        self.parents: List[Tuple["_Node", str]] = []


class _XNode(_Node):
    __slots__ = ("point", "left", "right")

    def __init__(self, point: Point) -> None:
        super().__init__()
        self.point = point
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None


class _YNode(_Node):
    __slots__ = ("seg", "above", "below")

    def __init__(self, seg: trap_mod._Seg) -> None:
        super().__init__()
        self.seg = seg
        self.above: Optional[_Node] = None
        self.below: Optional[_Node] = None


class _Leaf(_Node):
    __slots__ = ("trap",)

    def __init__(self, trap: trap_mod._Trapezoid) -> None:
        super().__init__()
        self.trap = trap
        trap.leaf = self


def _set_child(parent: _Node, slot: str, child: _Node) -> None:
    setattr(parent, slot, child)
    child.parents.append((parent, slot))


def _children_of(node: _Node) -> List[_Node]:
    if isinstance(node, _XNode):
        return [c for c in (node.left, node.right) if c is not None]
    if isinstance(node, _YNode):
        return [c for c in (node.above, node.below) if c is not None]
    return []


class ScalarTrapTree:
    """The trap-tree as the object DAG that the integer arrays replaced:
    one Python object per node, parent links for leaf replacement, and
    a Kahn pass over ``id()``-keyed dicts for the broadcast order."""

    def __init__(self, subdivision: Subdivision, seed: int = 0) -> None:
        self.subdivision = subdivision
        scalar_trap_build(self, seed)

    def page(self, params) -> "ScalarPagedTrapTree":
        return ScalarPagedTrapTree(self, params)

    def _insert(self, s) -> None:
        SCALAR_RUNS["trap_insert"] += 1
        crossed = self._follow(s)
        if len(crossed) == 1:
            self._split_single(s, crossed[0])
        else:
            self._split_multi(s, crossed)

    def _descend(self, pt: Point, slope: Optional[float]) -> _Leaf:
        node = self.root
        while not isinstance(node, _Leaf):
            if isinstance(node, _XNode):
                node = node.right if pt.x >= node.point.x else node.left
            else:
                assert isinstance(node, _YNode)
                cross = trap_mod._cross(node.seg.p, node.seg.q, pt)
                if cross > 0:
                    node = node.above
                elif cross < 0:
                    node = node.below
                else:
                    if slope is None or slope == node.seg.slope:
                        node = node.above
                    else:
                        node = node.above if slope > node.seg.slope else node.below
            if node is None:
                raise IndexBuildError("dangling DAG pointer")
        return node

    def _follow(self, s) -> list:
        first = self._descend(s.p, s.slope).trap
        crossed = [first]
        current = first
        while current.rightp.x < s.q.x:
            probe = Point(current.rightp.x, s.y_at(current.rightp.x))
            nxt = self._descend(probe, s.slope).trap
            if nxt is current:
                raise IndexBuildError("segment following made no progress")
            crossed.append(nxt)
            current = nxt
        return crossed

    def _replace_leaf(self, leaf: _Leaf, subtree: _Node) -> None:
        if leaf is self.root:
            self.root = subtree
            return
        if not leaf.parents:
            raise IndexBuildError("non-root leaf without parents")
        for parent, slot in leaf.parents:
            setattr(parent, slot, subtree)
            subtree.parents.append((parent, slot))
        leaf.parents = []

    def _split_single(self, s, old) -> None:
        Trapezoid = trap_mod._Trapezoid
        upper = Trapezoid(old.top, s, s.p, s.q)
        lower = Trapezoid(s, old.bottom, s.p, s.q)
        ynode = _YNode(s)
        _set_child(ynode, "above", _Leaf(upper))
        _set_child(ynode, "below", _Leaf(lower))
        subtree: _Node = ynode
        if s.q.x < old.rightp.x:
            right = Trapezoid(old.top, old.bottom, s.q, old.rightp)
            xq = _XNode(s.q)
            _set_child(xq, "left", subtree)
            _set_child(xq, "right", _Leaf(right))
            subtree = xq
        if old.leftp.x < s.p.x:
            left = Trapezoid(old.top, old.bottom, old.leftp, s.p)
            xp = _XNode(s.p)
            _set_child(xp, "left", _Leaf(left))
            _set_child(xp, "right", subtree)
            subtree = xp
        self._replace_leaf(old.leaf, subtree)

    def _split_multi(self, s, crossed) -> None:
        Trapezoid = trap_mod._Trapezoid
        first, last = crossed[0], crossed[-1]
        upper = Trapezoid(first.top, s, s.p, s.q)
        lower = Trapezoid(s, first.bottom, s.p, s.q)
        upper_leaf = _Leaf(upper)
        lower_leaf = _Leaf(lower)

        for i, old in enumerate(crossed):
            if i > 0:
                if old.top is not upper.top:
                    upper.rightp = old.leftp
                    upper = Trapezoid(old.top, s, old.leftp, s.q)
                    upper_leaf = _Leaf(upper)
                if old.bottom is not lower.bottom:
                    lower.rightp = old.leftp
                    lower = Trapezoid(s, old.bottom, old.leftp, s.q)
                    lower_leaf = _Leaf(lower)

            ynode = _YNode(s)
            _set_child(ynode, "above", upper_leaf)
            _set_child(ynode, "below", lower_leaf)
            subtree: _Node = ynode
            if old is last and s.q.x < old.rightp.x:
                right = Trapezoid(old.top, old.bottom, s.q, old.rightp)
                xq = _XNode(s.q)
                _set_child(xq, "left", subtree)
                _set_child(xq, "right", _Leaf(right))
                subtree = xq
            if old is first and old.leftp.x < s.p.x:
                left = Trapezoid(old.top, old.bottom, old.leftp, s.p)
                xp = _XNode(s.p)
                _set_child(xp, "left", _Leaf(left))
                _set_child(xp, "right", subtree)
                subtree = xp
            self._replace_leaf(old.leaf, subtree)

        upper.rightp = s.q
        lower.rightp = s.q

    def locate(self, p: Point) -> int:
        leaf = self._descend(self.effective_point(p), None)
        region = leaf.trap.region
        if region is None:
            raise QueryError(f"{p!r} outside the subdivided area")
        return region

    def _region_at(self, x: float, y: float) -> int:
        """The tree-rule leaf region of a sheared point (-1 in a sliver),
        the check the compiled tracer makes per degenerate point."""
        region = self._descend(Point(x, y), None).trap.region
        return -1 if region is None else region

    def effective_point(self, p: Point) -> Point:
        sheared = trap_mod._shear(p)
        if self._descend(sheared, None).trap.region is not None:
            return sheared
        for factor in (1.0, -1.0, 2.0, -2.0):
            nudged = Point(sheared.x + factor * 1e-9, sheared.y + factor * 1e-9)
            if self._descend(nudged, None).trap.region is not None:
                return nudged
        return sheared

    def nodes_topological(self) -> List[_Node]:
        indegree: Dict[int, int] = {}
        children: Dict[int, List[_Node]] = {}
        seen: Dict[int, _Node] = {}
        stack = [self.root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen[id(node)] = node
            indegree.setdefault(id(node), 0)
            for child in _children_of(node):
                indegree[id(child)] = indegree.get(id(child), 0) + 1
                children.setdefault(id(node), []).append(child)
                stack.append(child)
        order: List[_Node] = []
        frontier = [self.root]
        while frontier:
            node = frontier.pop(0)
            order.append(node)
            for child in children.get(id(node), []):
                indegree[id(child)] -= 1
                if indegree[id(child)] == 0:
                    frontier.append(child)
        if len(order) != len(seen):
            raise IndexBuildError("trapezoidal search structure is not a DAG")
        return order


class ScalarPagedTrapTree:
    """Top-down paging of the object DAG, packet ids keyed by ``id()``."""

    def __init__(self, tree: ScalarTrapTree, params: SystemParameters) -> None:
        self.tree = tree
        self.params = params
        self._store = PacketStore(params.packet_capacity)
        self._node_packet: Dict[int, int] = {}
        self._allocate()
        self.packets = self._store.packets

    def node_size(self, node: _Node) -> int:
        p = self.params
        if isinstance(node, _XNode):
            return p.bid_size + p.scalar_size + 2 * p.pointer_size
        if isinstance(node, _YNode):
            return p.bid_size + 2 * p.coordinate_size + 2 * p.pointer_size
        return p.bid_size + p.pointer_size

    def _allocate(self) -> None:
        order = self.tree.nodes_topological()
        parent_packets: Dict[int, List[int]] = {}
        for node in order:
            for child in _children_of(node):
                parent_packets.setdefault(id(child), [])
        capacity = self.params.packet_capacity
        for ordinal, node in enumerate(order):
            size = self.node_size(node)
            if size > capacity:
                raise PagingError("trap-tree node exceeds packet capacity")
            placed = None
            parents = parent_packets.get(id(node), [])
            if parents:
                candidate = self._store.packets[max(parents)]
                if size <= candidate.free:
                    placed = candidate
            if placed is None:
                placed = self._store.new_packet()
            placed.allocate(size, f"trapnode#{ordinal}")
            self._node_packet[id(node)] = placed.packet_id
            for child in _children_of(node):
                parent_packets.setdefault(id(child), []).append(placed.packet_id)
        if self._node_packet[id(order[0])] != 0:
            raise PagingError("root not in the first packet")

    def trace(self, point: Point) -> QueryTrace:
        pt = self.tree.effective_point(point)
        accesses: List[int] = []
        node = self.tree.root
        while not isinstance(node, _Leaf):
            accesses.append(self._node_packet[id(node)])
            if isinstance(node, _XNode):
                go_right = (pt.x, pt.y) >= (node.point.x, node.point.y)
                node = node.right if go_right else node.left
            else:
                assert isinstance(node, _YNode)
                cross = trap_mod._cross(node.seg.p, node.seg.q, pt)
                node = node.above if cross >= 0 else node.below
        accesses.append(self._node_packet[id(node)])
        region = node.trap.region
        if region is None:
            raise QueryError(f"{point!r} outside the subdivided area")
        return QueryTrace(region, dedupe_consecutive(accesses))


def scalar_compile_trap(paged: ScalarPagedTrapTree):
    """``_compile_trap`` as the loop over the object DAG it replaced; the
    cell table is built from its arrays by the same builder."""
    compiled = _cached_compiled(paged, "_compiled_trap", _UNCOMPILED)
    if compiled is not _UNCOMPILED:
        return compiled
    nodes = paged.tree.nodes_topological()
    count = len(nodes)
    pos = {id(node): i for i, node in enumerate(nodes)}
    kind = np.empty(count, np.int8)
    ax = np.zeros(count, np.float64)
    ay = np.zeros(count, np.float64)
    bx = np.zeros(count, np.float64)
    by = np.zeros(count, np.float64)
    on_true = np.zeros(count, np.int32)
    on_false = np.zeros(count, np.int32)
    packet = np.empty(count, np.int32)
    region = np.full(count, -1, np.int32)

    ok = count > 0 and pos.get(id(paged.tree.root)) == 0
    for i, node in enumerate(nodes):
        if not ok:
            break
        packet[i] = paged._node_packet[id(node)]
        if isinstance(node, _Leaf):
            kind[i] = _TRAP_LEAF
            if node.trap.region is not None:
                region[i] = node.trap.region
        elif isinstance(node, _XNode):
            kind[i] = _TRAP_XNODE
            ax[i] = node.point.x
            ay[i] = node.point.y
            if node.left is None or node.right is None:
                ok = False
                break
            on_true[i] = pos[id(node.right)]
            on_false[i] = pos[id(node.left)]
        else:
            kind[i] = _TRAP_YNODE
            seg = node.seg
            ax[i] = seg.p.x
            ay[i] = seg.p.y
            bx[i] = seg.q.x
            by[i] = seg.q.y
            if node.above is None or node.below is None:
                ok = False
                break
            on_true[i] = pos[id(node.above)]
            on_false[i] = pos[id(node.below)]

    if ok:
        internal = kind != _TRAP_LEAF
        for child in (on_true[internal], on_false[internal]):
            if not (packet[child] >= packet[internal]).all():
                ok = False
                break

    compiled = None
    if ok:
        compiled = _CompiledTrapTree()
        compiled.kind = kind
        compiled.ax = ax
        compiled.ay = ay
        compiled.bx = bx
        compiled.by = by
        compiled.on_true = on_true
        compiled.on_false = on_false
        compiled.packet = packet
        compiled.region = region
        _trap_cell_table(compiled, paged.tree.subdivision.service_area)
    _store_compiled(paged, "_compiled_trap", compiled)
    return compiled


def scalar_trace_batch_trap(paged: ScalarPagedTrapTree, points):
    """The compiled trap tracer, over :func:`scalar_compile_trap`'s arrays."""
    scalar_compile_trap(paged)
    return _trace_batch_trap(paged, points)


_COMPILERS[ScalarPagedTrapTree] = ("trap", scalar_compile_trap)
register_tracer(ScalarPagedTrapTree, scalar_trace_batch_trap)


def scalar_trap_build(self: ScalarTrapTree, seed: int) -> None:
    """``TrapTree._build`` keying every edge through ``canonical_key``."""
    above_map = scalar_directed_edge_region_above(self.subdivision)
    segments = [
        trap_mod._Seg(
            trap_mod._shear(edge.a),
            trap_mod._shear(edge.b),
            above_map.get(edge.canonical_key()),
        )
        for edge in self.subdivision.all_edges()
    ]
    if not segments:
        raise IndexBuildError("subdivision has no edges")
    rng = random.Random(seed)
    rng.shuffle(segments)
    xs = [s.p.x for s in segments] + [s.q.x for s in segments]
    ys = [s.p.y for s in segments] + [s.q.y for s in segments]
    pad_x = (max(xs) - min(xs)) * 0.1 + 1.0
    pad_y = (max(ys) - min(ys)) * 0.1 + 1.0
    lo = Point(min(xs) - pad_x, min(ys) - pad_y)
    hi = Point(max(xs) + pad_x, max(ys) + pad_y)
    bottom = trap_mod._Seg(Point(lo.x, lo.y), Point(hi.x, lo.y), None)
    top = trap_mod._Seg(Point(lo.x, hi.y), Point(hi.x, hi.y), None)
    self.root = _Leaf(trap_mod._Trapezoid(top, bottom, lo, hi))
    for seg in segments:
        self._insert(seg)


def scalar_trap_tree(cls, subdivision: Subdivision, *, seed: int = 0):
    """``TrapTree.build`` replaced by the object-DAG oracle."""
    return ScalarTrapTree(subdivision, seed)


# -- the D-tree's object tree ---------------------------------------------------


class DTreeNode:
    """One node of the object D-tree the node table replaced: a
    partition and two children, each a node or a bare region id."""

    __slots__ = ("node_id", "partition", "left", "right", "level")

    def __init__(self, node_id: int, partition: Partition, left, right, level: int):
        self.node_id = node_id
        self.partition = partition
        self.left = left
        self.right = right
        self.level = level


def _scalar_subtree(
    subdivision,
    region_ids,
    styles_for,
    tie_break_inter_prob=True,
    *,
    first_id=0,
    level=0,
):
    """The depth-first recursion ``DTree.grow`` replaced: every
    candidate of a node through :func:`scalar_evaluate_style`, the same
    ``min`` rule, node ids in pre-order; a single region is its bare
    id."""
    counter = [first_id]
    if tie_break_inter_prob:
        rank = lambda part: (part.size, part.inter_prob)
    else:
        rank = lambda part: part.size

    def make(ids, lvl):
        if len(ids) == 1:
            return ids[0]
        candidates = [
            scalar_evaluate_style(subdivision, ids, style) for style in styles_for(ids)
        ]
        partition = min(candidates, key=rank)
        node_id = counter[0]
        counter[0] += 1
        left = make(partition.first_ids, lvl + 1)
        right = make(partition.second_ids, lvl + 1)
        return DTreeNode(node_id, partition, left, right, lvl)

    return make(list(region_ids), level)


def scalar_grow(
    subdivision,
    region_ids,
    styles_for,
    tie_break_inter_prob=True,
    *,
    first_id=0,
    level=0,
):
    """``DTree.grow`` replaced by the object-tree oracle."""
    root = _scalar_subtree(
        subdivision,
        region_ids,
        styles_for,
        tie_break_inter_prob,
        first_id=first_id,
        level=level,
    )
    return ScalarDTree(subdivision, root if isinstance(root, DTreeNode) else None)


class ScalarDTree:
    """The D-tree as linked :class:`DTreeNode` objects."""

    def __init__(self, subdivision: Subdivision, root: Optional[DTreeNode]) -> None:
        self.subdivision = subdivision
        self.root = root

    def page(self, params, **flags) -> "ScalarPagedDTree":
        return ScalarPagedDTree(self, params, **flags)

    def locate(self, p: Point) -> int:
        if not self.subdivision.service_area.contains_point(p):
            raise QueryError(f"{p!r} outside the service area")
        if self.root is None:
            return self.subdivision.regions[0].region_id
        node = self.root
        while isinstance(node, DTreeNode):
            node = node.left if node.partition.side_of(p) == "first" else node.right
        return node

    def nodes_breadth_first(self) -> List[DTreeNode]:
        if self.root is None:
            return []
        out: List[DTreeNode] = []
        frontier = [self.root]
        while frontier:
            out.extend(frontier)
            frontier = [
                child
                for node in frontier
                for child in (node.left, node.right)
                if isinstance(child, DTreeNode)
            ]
        return out

    def iter_nodes(self):
        stack = [] if self.root is None else [self.root]
        while stack:
            node = stack.pop()
            yield node
            for child in (node.right, node.left):
                if isinstance(child, DTreeNode):
                    stack.append(child)

    def as_table(self) -> DTree:
        """The same tree as a node table, rows in node-id order."""
        nodes = sorted(self.iter_nodes(), key=lambda node: node.node_id)
        row = {node.node_id: i for i, node in enumerate(nodes)}
        code = lambda c: row[c.node_id] if isinstance(c, DTreeNode) else ~c
        return DTree(
            self.subdivision,
            [node.node_id for node in nodes],
            [node.level for node in nodes],
            [node.partition for node in nodes],
            [code(node.left) for node in nodes],
            [code(node.right) for node in nodes],
            None if self.root is None else row[self.root.node_id],
        )


class ScalarPagedDTree:
    """Algorithm 3 over the object tree, packets kept per node id."""

    def __init__(
        self,
        tree: ScalarDTree,
        params: SystemParameters,
        early_termination: bool = True,
        top_down: bool = True,
        merge_leaves: bool = True,
        count_polyline_breaks: bool = False,
    ) -> None:
        self.tree = tree
        self.params = params
        self.early_termination = early_termination
        self.top_down = top_down
        self.count_polyline_breaks = count_polyline_breaks
        self._store = PacketStore(params.packet_capacity)
        self._node_packets: Dict[int, List[int]] = {}
        self._allocate()
        if merge_leaves:
            self._merge_leaf_packets()
        self.packets = self._store.packets

    def node_size(self, node: DTreeNode) -> int:
        p = self.params
        coords = node.partition.size
        if self.count_polyline_breaks:
            coords += max(0, len(node.partition.polylines) - 1)
            if node.partition.size == 0:
                coords += 1
        base = p.bid_size + p.header_size + 2 * p.pointer_size + coords * p.coordinate_size
        if base > p.packet_capacity:
            base += p.coordinate_size
        return base

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
        for nid in self._node_packets:
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

        kept = [p for p in self._store.packets if p.used > 0]
        remap = {p.packet_id: i for i, p in enumerate(kept)}
        for i, p in enumerate(kept):
            p.packet_id = i
        self._store.packets = kept
        self._node_packets = {
            nid: [remap[pid] for pid in pkts]
            for nid, pkts in self._node_packets.items()
        }

    def trace(self, point: Point) -> QueryTrace:
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

    def packets_of_node(self, node_id: int) -> List[int]:
        return list(self._node_packets[node_id])


def scalar_compile_dtree(paged: ScalarPagedDTree) -> Optional[_CompiledDTree]:
    """``_compile_dtree`` as the loop over the object tree it replaced,
    arrays indexed by each node's position in node-id order."""
    compiled = _cached_compiled(paged, "_compiled_dtree", _UNCOMPILED)
    if compiled is not _UNCOMPILED:
        return compiled
    if paged.tree.root is None:
        return None
    nodes = sorted(paged.tree.iter_nodes(), key=lambda nd: nd.node_id)
    count = len(nodes)
    position = {nd.node_id: i for i, nd in enumerate(nodes)}

    ct = _CompiledDTree()
    ct.root = position[paged.tree.root.node_id]
    dim_y = np.empty(count, bool)
    described = np.empty(count, bool)
    first_bound = np.empty(count, np.float64)
    second_bound = np.empty(count, np.float64)
    seg_count = np.empty(count, np.int64)
    ct.left_code = np.empty(count, np.int64)
    ct.right_code = np.empty(count, np.int64)
    ct.pkt_first = np.empty(count, np.int64)
    ct.pkt_last = np.empty(count, np.int64)
    ct.pkt_distinct = np.empty(count, np.int64)
    ct.multi = np.empty(count, bool)
    ct.span_start = np.zeros(count + 1, np.int64)
    span_packets: List[int] = []
    forward = True

    segs: List[List[float]] = [[], [], [], []]
    for i, node in enumerate(nodes):
        part = node.partition
        dim_y[i] = part.dimension == "y"
        described[i] = part.style.described == "first"
        first_bound[i] = part.first_bound
        second_bound[i] = part.second_bound
        ends = [(a, b) for pl in part.polylines for a, b in pl.segment_endpoints()]
        seg_count[i] = len(ends)
        for a, b in ends:
            for pool, value in zip(segs, (a.x, a.y, b.x, b.y)):
                pool.append(value)
        packets = list(paged._node_packets[node.node_id])
        ct.pkt_first[i] = packets[0]
        ct.pkt_last[i] = packets[-1]
        ct.pkt_distinct[i] = len(set(packets))
        ct.multi[i] = len(packets) > 1
        forward = forward and packets == sorted(packets)
        span_packets.extend(dict.fromkeys(packets))
        ct.span_start[i + 1] = len(span_packets)
        for code_arr, child in ((ct.left_code, node.left), (ct.right_code, node.right)):
            code_arr[i] = (
                position[child.node_id]
                if isinstance(child, DTreeNode)
                else ~int(child)
            )

    for code in (ct.left_code, ct.right_code):
        internal = np.flatnonzero(code >= 0)
        forward = forward and bool(
            (ct.pkt_last[internal] <= ct.pkt_first[code[internal]]).all()
        )
    if not forward:
        return _store_compiled(paged, "_compiled_dtree", None)

    ct.span_packets = np.asarray(span_packets, np.int64)
    ct.dim_y = dim_y
    ct.ray_up = dim_y == described
    ct.flip = ~described
    ct.first_bound = np.where(dim_y, first_bound, -first_bound)
    ct.second_bound = np.where(dim_y, second_bound, -second_bound)

    ax, ay, bx, by = (np.asarray(pool, np.float64) for pool in segs)
    seg_node = np.repeat(np.arange(count, dtype=np.int64), seg_count)
    seg_dim_y = dim_y[seg_node]
    ct.seg_u0 = np.where(seg_dim_y, ax, ay)
    ct.seg_v0 = np.where(seg_dim_y, ay, ax)
    ct.seg_u1 = np.where(seg_dim_y, bx, by)
    ct.seg_v1 = np.where(seg_dim_y, by, bx)

    lo_v = np.minimum(ct.seg_v0, ct.seg_v1)
    hi_v = np.maximum(ct.seg_v0, ct.seg_v1)
    has_segs = np.flatnonzero(seg_count > 0)
    seg_first = np.cumsum(seg_count) - seg_count
    vmin = np.zeros(count, np.float64)
    vmax = np.zeros(count, np.float64)
    if has_segs.size:
        vmin[has_segs] = np.minimum.reduceat(lo_v, seg_first[has_segs])
        vmax[has_segs] = np.maximum.reduceat(hi_v, seg_first[has_segs])
    ct.slab_count = np.maximum((seg_count + 1) // 2, 1)
    extent = vmax - vmin
    ct.slab_min = vmin
    ct.slab_width = np.where(extent > 0.0, extent / ct.slab_count, 1.0)
    ct.cell_first = np.cumsum(ct.slab_count) - ct.slab_count
    cells = int(ct.slab_count.sum())

    grid = (ct.slab_min[seg_node], ct.slab_width[seg_node], ct.slab_count[seg_node])
    first_slab = _slab_index(lo_v, *grid)
    spans = np.where(
        ct.seg_v0 == ct.seg_v1, 0, _slab_index(hi_v, *grid) - first_slab + 1
    )
    cell, owner, _ = ragged_ranges(ct.cell_first[seg_node] + first_slab, spans)
    ct.cell_seg = owner[np.argsort(cell, kind="stable")]
    ct.cell_start = np.zeros(cells + 1, np.int64)
    np.cumsum(np.bincount(cell, minlength=cells), out=ct.cell_start[1:])
    return _store_compiled(paged, "_compiled_dtree", ct)


def scalar_trace_batch_dtree(paged: ScalarPagedDTree, points):
    """The compiled D-tree tracer, over :func:`scalar_compile_dtree`'s
    arrays."""
    scalar_compile_dtree(paged)
    return _trace_batch_dtree(paged, points)


_COMPILERS[ScalarPagedDTree] = ("dtree", scalar_compile_dtree)
register_tracer(ScalarPagedDTree, scalar_trace_batch_dtree)


def scalar_dtree_candidates(paged: ScalarPagedDTree) -> Dict[int, FrozenSet[int]]:
    """Packet id -> regions of every subtree with a node in the packet,
    by recursion over the object tree."""
    packet_regions: Dict[int, set] = {}

    def subtree(node) -> FrozenSet[int]:
        if not isinstance(node, DTreeNode):
            return frozenset((node,))
        regions = subtree(node.left) | subtree(node.right)
        for pid in paged._node_packets[node.node_id]:
            packet_regions.setdefault(pid, set()).update(regions)
        return regions

    if paged.tree.root is not None:
        subtree(paged.tree.root)
    return {pid: frozenset(regions) for pid, regions in packet_regions.items()}


def _scalar_leaf_ids(child) -> Set[int]:
    if not isinstance(child, DTreeNode):
        return {child}
    return _scalar_leaf_ids(child.left) | _scalar_leaf_ids(child.right)


class ScalarDTreeMaintainer(DTreeMaintainer):
    """The maintainer's splice as the in-place object splice it
    replaced: the replacement subtree is hung into the tree it is given
    (so an older paged version holding that tree walks the new one)."""

    def apply(self, index, new_subdivision, batch):
        if batch.is_empty:
            return index
        plan = self._splice_plan(index, new_subdivision, batch)
        if plan is None:
            self.full_rebuilds += 1
            return self.build(new_subdivision)
        parent, side, subtree_ids, level = plan
        grown = self.stale_fraction + len(subtree_ids) / len(new_subdivision.regions)
        if grown > self.staleness_budget:
            self.full_rebuilds += 1
            return self.build(new_subdivision)
        replacement = _scalar_subtree(
            new_subdivision,
            sorted(subtree_ids),
            paper_styles(self.extended_styles),
            self.tie_break_inter_prob,
            first_id=max(node.node_id for node in index.iter_nodes()) + 1,
            level=level,
        )
        if parent is None:
            if not isinstance(replacement, DTreeNode):
                self.full_rebuilds += 1
                return self.build(new_subdivision)
            index.root = replacement
        else:
            setattr(parent, side, replacement)
        index.subdivision = new_subdivision
        self.stale_fraction = grown
        self.incremental_applies += 1
        SCALAR_RUNS["dtree_splice"] += 1
        return index

    def _splice_plan(self, index, new_subdivision, batch):
        removed = set(batch.removed_ids)
        added = set(batch.added_ids)
        old_area = index.subdivision.service_area
        new_area = new_subdivision.service_area
        if (
            index.root is None
            or not removed
            or (old_area.min_x, old_area.min_y, old_area.max_x, old_area.max_y)
            != (new_area.min_x, new_area.min_y, new_area.max_x, new_area.max_y)
        ):
            return None
        parent = side = None
        node = index.root
        while True:
            left_ids = _scalar_leaf_ids(node.left)
            right_ids = _scalar_leaf_ids(node.right)
            if removed <= left_ids:
                if isinstance(node.left, DTreeNode):
                    parent, side, node = node, "left", node.left
                    continue
                return node, "left", (left_ids - removed) | added, node.level + 1
            if removed <= right_ids:
                if isinstance(node.right, DTreeNode):
                    parent, side, node = node, "right", node.right
                    continue
                return node, "right", (right_ids - removed) | added, node.level + 1
            new_ids = ((left_ids | right_ids) - removed) | added
            return parent, side, new_ids, node.level


@pytest.fixture
def scalar_kernels(monkeypatch):
    """Route every construction through the scalar oracles.

    Returns the installer, which also zeroes :data:`SCALAR_RUNS`, so a
    test can check that the oracle, not the production path, built its
    reference.
    """

    def install():
        SCALAR_RUNS.clear()
        monkeypatch.setattr(DTree, "grow", staticmethod(scalar_grow))
        monkeypatch.setitem(MAINTAINER_REGISTRY, "dtree", ScalarDTreeMaintainer)
        monkeypatch.setattr(imbalanced_mod, "_sort_regions", _scalar_sort_regions)
        monkeypatch.setattr(RStarTree, "build", classmethod(scalar_rstar_tree))
        monkeypatch.setattr(TrianTree, "build", classmethod(scalar_trian_tree))
        monkeypatch.setattr(TrapTree, "build", classmethod(scalar_trap_tree))

    return install


# -- what "identical" means ----------------------------------------------------


def observable(paged) -> dict:
    """Everything a paged index puts on the air or hands the tracers."""
    packets = [(p.used, list(p.contents)) for p in paged.packets]
    form = compiled_form(paged)
    compiled = None
    if form is not None:
        family, obj = form
        slots = getattr(type(obj), "__slots__", None) or sorted(vars(obj))
        compiled = {"family": family}
        for name in slots:
            value = getattr(obj, name)
            if isinstance(value, np.ndarray):
                compiled[name] = (value.dtype.str, value.shape, value.tobytes())
            else:
                compiled[name] = repr(value)
    state = {"packets": packets, "compiled": compiled}
    if isinstance(paged.tree, (RStarTree, ScalarRStarTree)):
        state["rstar"] = rstar_shape(paged.tree)
    if isinstance(paged.tree, (TrianTree, ScalarTrianTree)):
        state["trian"] = trian_shape(paged.tree)
    if isinstance(paged.tree, (DTree, ScalarDTree)):
        state["dtree"] = dtree_shape(paged.tree)
        table = paged.tree if isinstance(paged.tree, DTree) else paged.tree.as_table()
        serialized = SerializedDTree(
            table, SystemParameters.for_index("dtree", PACKET_CAPACITY)
        )
        state["wire"] = list(serialized.packets)
    return state


def trian_shape(tree) -> list:
    """Every node in broadcast order: its triangle's vertices in stored
    order, region, round and children (as broadcast ordinals, in order),
    read from the arrays of a :class:`TrianTree` or from the objects of
    the oracle."""
    if isinstance(tree, TrianTree):
        bounds = tree.child_offsets.tolist()
        children = tree.children.tolist()
        return [
            (list(zip(xs, ys)), None if region < 0 else region, r, children[a:b])
            for xs, ys, region, r, a, b in zip(
                tree.x.tolist(),
                tree.y.tolist(),
                tree.region.tolist(),
                tree.round_index.tolist(),
                bounds,
                bounds[1:],
            )
        ] + [("roots", tree.roots.tolist(), tree.rounds)]
    order = tree.nodes_level_order()
    ordinal = {id(node): i for i, node in enumerate(order)}
    return [
        (
            [(v.x, v.y) for v in node.triangle.vertices],
            node.region_id,
            node.round_index,
            [ordinal[id(child)] for child in node.children],
        )
        for node in order
    ] + [("roots", [ordinal[id(root)] for root in tree.roots], tree.rounds)]


def rstar_shape(tree) -> list:
    """Every node in preorder: its level and its entries' MBRs and
    targets (region ids at leaves, child preorder ordinals elsewhere),
    read from the node table of an :class:`RStarTree` or from the
    objects of the oracle."""
    order = tree.nodes_depth_first()
    if isinstance(tree, RStarTree):
        number = {node: k for k, node in enumerate(order)}
        return [
            (
                tree.node_level[node],
                [
                    (box, target if tree.node_level[node] == 0 else number[target])
                    for box, target in zip(
                        tree.node_boxes[node], tree.node_targets[node]
                    )
                ],
            )
            for node in order
        ]
    number = {id(node): k for k, node in enumerate(order)}
    return [
        (
            node.level,
            [
                (
                    (e.mbr.min_x, e.mbr.min_y, e.mbr.max_x, e.mbr.max_y),
                    e.region_id if node.is_leaf else number[id(e.child)],
                )
                for e in node.entries
            ],
        )
        for node in order
    ]


def build_paged(kind: str, subdivision: Subdivision):
    family = index_family(kind)
    return family.build(subdivision, seed=0).page(family.parameters(PACKET_CAPACITY))


DATASETS = {
    "PARK": lambda: park_dataset().subdivision,
    "HOSPITAL": lambda: hospital_dataset().subdivision,
    "UNIFORM-1000": lambda: uniform_dataset(n=1000).subdivision,
}


@pytest.mark.parametrize("kind", ["dtree", "rstar", "trian", "trap"])
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_paged_index_identical_to_scalar_build(dataset, kind, scalar_kernels):
    array_state = observable(build_paged(kind, DATASETS[dataset]()))
    scalar_kernels()
    scalar_state = observable(build_paged(kind, DATASETS[dataset]()))
    assert (SCALAR_RUNS["evaluate_style"] > 0) == (kind == "dtree")
    assert (SCALAR_RUNS["rstar_split"] > 0) == (kind == "rstar")
    assert (SCALAR_RUNS["trap_insert"] > 0) == (kind == "trap")
    assert (SCALAR_RUNS["trian_build"] > 0) == (kind == "trian")
    assert array_state["packets"] == scalar_state["packets"]
    assert array_state["compiled"] == scalar_state["compiled"]
    assert array_state.get("wire") == scalar_state.get("wire")
    assert array_state.get("dtree") == scalar_state.get("dtree")
    assert array_state.get("trian") == scalar_state.get("trian")
    assert array_state.get("rstar") == scalar_state.get("rstar")


def test_trap_packet_labels_do_not_depend_on_the_build():
    """Trap-tree packets are labelled by topological ordinal, so two
    same-seed builds, and a tree re-paged after a pickle round trip,
    page to equal ``Packet.contents``."""
    subdivision = DATASETS["PARK"]()
    first = build_paged("trap", subdivision)
    second = build_paged("trap", subdivision)
    unpickled = PagedTrapTree(pickle.loads(pickle.dumps(first.tree)), first.params)
    contents = [list(p.contents) for p in first.packets]
    assert contents[0][0] == "trapnode#0"
    for other in (second, unpickled):
        assert [list(p.contents) for p in other.packets] == contents


def _trian_and_trap_states(subdivision: Subdivision, t_min: int) -> tuple:
    family = index_family("trap")
    trap = family.build(subdivision, seed=3).page(family.parameters(PACKET_CAPACITY))
    trian = TrianTree.build(subdivision, t_min=t_min).page(
        index_family("trian").parameters(PACKET_CAPACITY)
    )
    return observable(trian), observable(trap)


@st.composite
def _small_subdivisions(draw):
    """Random Voronoi diagrams, and rectilinear grids, whose collinear
    cell corners make ear clipping drop collinear hole vertices."""
    if draw(st.booleans()):
        sites = uniform_points(
            draw(st.integers(2, 40)), draw(st.integers(0, 10_000)), SERVICE_AREA
        )
        return voronoi_subdivision(sites, SERVICE_AREA)
    return grid_subdivision(draw(st.integers(1, 7)), draw(st.integers(1, 7)))


@settings(max_examples=30, deadline=None)
@given(_small_subdivisions(), st.integers(1, 16))
def test_trian_and_trap_identical_to_scalar_build_on_random_subdivisions(
    subdivision, t_min
):
    array_states = _trian_and_trap_states(subdivision, t_min)
    with pytest.MonkeyPatch.context() as patch:
        SCALAR_RUNS.clear()
        patch.setattr(TrianTree, "build", classmethod(scalar_trian_tree))
        patch.setattr(TrapTree, "build", classmethod(scalar_trap_tree))
        scalar_states = _trian_and_trap_states(subdivision, t_min)
    assert SCALAR_RUNS["trian_build"] == 1
    assert array_states == scalar_states


def _answers(paged, points: Sequence[Point]) -> list:
    """Scalar ``locate``/``trace`` per point and the batched answers, last
    packets and tuning (and packet paths), each ``QueryError`` as its
    message."""

    def outcome(call):
        try:
            return call()
        except QueryError as exc:
            return f"QueryError: {exc}"

    def traced(p):
        trace = paged.trace(p)
        return trace.region_id, trace.packets_accessed

    def batch(ps, paths=False):
        got = batched_trace(paged, ps, paths=paths)
        columns = (got.region_ids, got.last_packet, got.tuning_time)
        if paths:
            columns += (got.path_offsets, got.path_packets)
        return [column.tolist() for column in columns]

    scalar = [
        (outcome(lambda: paged.tree.locate(p)), outcome(lambda: traced(p)))
        for p in points
    ]
    answered = [p for p, (_, trace) in zip(points, scalar) if not isinstance(trace, str)]
    return [
        scalar,
        outcome(lambda: batch(points)),
        batch(answered),
        batch(answered, paths=True),
    ]


@settings(max_examples=30, deadline=None)
@given(
    _small_subdivisions(),
    st.integers(0, 10_000),
    st.sampled_from([64, 128, 256]),
    st.integers(0, 10_000),
)
def test_trap_answers_identical_to_object_dag_on_random_points(
    subdivision, seed, capacity, point_seed
):
    """Random points, every subdivision vertex (the nudge path), points
    just below a vertex on its sheared vertical line (the lexicographic
    x tie of the paged trace) and every edge midpoint answer alike on
    the integer DAG and on the object DAG it replaced."""
    rng = random.Random(point_seed)
    points = [subdivision.random_point(rng) for _ in range(100)]
    vertices = list(dict.fromkeys(
        v for region in subdivision.regions for v in region.polygon.vertices
    ))
    points += vertices
    points += [
        Point(v.x + trap_mod.SHEAR * d, v.y - d) for v in vertices for d in (1e-3, 1e-2)
    ]
    points += [
        Point((e.a.x + e.b.x) / 2, (e.a.y + e.b.y) / 2)
        for e in subdivision.all_edges()
    ]
    params = index_family("trap").parameters(capacity)
    arrays = TrapTree.build(subdivision, seed=seed).page(params)
    SCALAR_RUNS.clear()
    scalar = ScalarTrapTree(subdivision, seed).page(params)
    assert SCALAR_RUNS["trap_insert"] == len(subdivision.all_edges())
    assert _answers(arrays, points) == _answers(scalar, points)


def test_pickled_paged_trap_tree_keeps_packets_arrays_and_traces():
    """The paged trap-tree pickles as its arrays: a round trip keeps every
    packet, every compiled array and the scalar traces."""
    subdivision = DATASETS["PARK"]()
    points = random_points_in(subdivision, 300, seed=17)

    def traces(paged):
        return [(t.region_id, t.packets_accessed) for t in map(paged.trace, points)]

    paged = build_paged("trap", subdivision)
    # Compiled arrays and list mirrors exist before the pickle, which
    # leaves them out.
    state, answers = observable(paged), traces(paged)
    restored = pickle.loads(pickle.dumps(paged))
    assert not hasattr(restored, "_compiled_trap")
    assert observable(restored) == state
    assert traces(restored) == answers


@settings(max_examples=30, deadline=None)
@given(
    _small_subdivisions(),
    st.integers(1, 16),
    st.sampled_from([64, 128, 256]),
    st.integers(0, 10_000),
)
def test_trian_answers_identical_to_object_dag_on_random_points(
    subdivision, t_min, capacity, point_seed
):
    """Random points, every subdivision vertex and every edge midpoint
    (a point on an edge shared by two candidates of one packet takes the
    first in scan order) answer alike on the integer DAG and on the
    object DAG it replaced."""
    rng = random.Random(point_seed)
    points = [subdivision.random_point(rng) for _ in range(100)]
    points += list(dict.fromkeys(
        v for region in subdivision.regions for v in region.polygon.vertices
    ))
    points += [
        Point((e.a.x + e.b.x) / 2, (e.a.y + e.b.y) / 2)
        for e in subdivision.all_edges()
    ]
    params = index_family("trian").parameters(capacity)
    arrays = TrianTree.build(subdivision, t_min=t_min).page(params)
    SCALAR_RUNS.clear()
    scalar = ScalarTrianTree(subdivision, t_min).page(params)
    assert SCALAR_RUNS["trian_build"] == 1
    assert _answers(arrays, points) == _answers(scalar, points)


@st.composite
def _child_csrs(draw):
    """A random DAG whose links point to lower ids, as the build's do,
    and roots among its upper nodes; the highest node is never a root,
    so whatever it alone reaches is unreachable."""
    n = draw(st.integers(2, 30))
    children = [
        draw(st.lists(st.integers(0, i - 1), unique=True, max_size=4)) if i else []
        for i in range(n)
    ]
    roots = draw(
        st.lists(st.integers(n // 2, n - 2), min_size=1, unique=True)
        if n > 2 else st.just([0])
    )
    return children, roots


@settings(max_examples=200, deadline=None)
@given(_child_csrs())
def test_broadcast_order_matches_object_kahn_pass(csr):
    """Only reachable nodes are numbered, in-degrees count reachable
    parents only, and children are released in link order."""
    children, roots = csr
    offsets = np.zeros(len(children) + 1, np.int64)
    np.cumsum([len(c) for c in children], out=offsets[1:])
    links = np.array([c for cs in children for c in cs], np.int64)
    nodes = [TrianNode(None, None, 0) for _ in children]
    for node, below in zip(nodes, children):
        node.children = [nodes[c] for c in below]
    oracle = ScalarTrianTree.__new__(ScalarTrianTree)
    oracle.roots = [nodes[r] for r in roots]
    index = {id(node): i for i, node in enumerate(nodes)}
    want = [index[id(node)] for node in oracle.nodes_level_order()]
    assert _broadcast_order(offsets, links, roots) == want


def test_pickled_paged_trian_tree_keeps_packets_arrays_and_traces():
    """The paged trian-tree pickles as its arrays: a round trip keeps
    every packet, every compiled array, the scan order and the scalar
    traces."""
    subdivision = DATASETS["PARK"]()
    points = random_points_in(subdivision, 300, seed=17)

    def traces(paged):
        return [(t.region_id, t.packets_accessed) for t in map(paged.trace, points)]

    paged = build_paged("trian", subdivision)
    # Compiled arrays and list mirrors exist before the pickle, which
    # leaves them out.
    state, answers = observable(paged), traces(paged)
    restored = pickle.loads(pickle.dumps(paged))
    assert not hasattr(restored, "_compiled_trian")
    assert "_lists" not in vars(restored) and "_lists" not in vars(restored.tree)
    assert observable(restored) == state
    assert traces(restored) == answers
    assert restored.scan.tolist() == paged.scan.tolist()


def test_trian_node_larger_than_a_packet_is_refused():
    """A node one byte over the capacity is refused as the object paging
    refused it; at the largest node's size every packet fits."""
    subdivision = grid_subdivision(3, 3)
    tree = TrianTree.build(subdivision)
    oracle = ScalarTrianTree(subdivision)
    fanout = int(np.diff(tree.child_offsets).max())
    params = index_family("trian").parameters(PACKET_CAPACITY)
    largest = PagedTrianTree(tree, params).node_size(fanout)
    for paging, built in ((PagedTrianTree, tree), (ScalarPagedTrianTree, oracle)):
        with pytest.raises(PagingError, match="exceeds packet capacity"):
            paging(built, index_family("trian").parameters(largest - 1))
    tight = index_family("trian").parameters(largest)
    paged = PagedTrianTree(tree, tight)
    assert all(p.used <= largest for p in paged.packets)
    assert observable(paged) == observable(ScalarPagedTrianTree(oracle, tight))


#: Lattice coordinates: collinear, repeated and self-crossing rings abound.
_lattice = st.integers(0, 4).map(float)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.builds(Point, _lattice, _lattice), max_size=9))
def test_ear_clipping_matches_scalar(ring):
    def outcome(triangulate):
        try:
            return [tri.vertices for tri in triangulate(ring)]
        except GeometryError as exc:
            return str(exc)

    assert outcome(triangulate_polygon) == outcome(scalar_triangulate_polygon)


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_edge_region_above_matches_scalar(dataset):
    sub = DATASETS[dataset]()
    assert sub.directed_edge_region_above() == scalar_directed_edge_region_above(sub)


def test_edge_region_above_skips_vertical_edges():
    sub = grid_subdivision(3, 4)
    above = sub.directed_edge_region_above()
    assert above == scalar_directed_edge_region_above(sub)
    # 3 rows x 4 columns: 4 x 4 horizontal edges, 3 x 5 vertical ones.
    assert len(above) == 16
    assert sum(region is None for region in sub.edge_region_above()) == 4 + 15


def dtree_shape(tree) -> list:
    """Every node in node-id order — its id, level, children (as node
    ids or region ids) and partition — then the root's id, read from a
    :class:`DTree`'s rows or from the oracle's objects."""
    if isinstance(tree, ScalarDTree):
        tree = tree.as_table()
    assert tree.node_id == sorted(set(tree.node_id))
    child = lambda c: ("node", tree.node_id[c]) if c >= 0 else ("region", ~c)
    return [
        (
            tree.node_id[row],
            tree.level[row],
            child(tree.left[row]),
            child(tree.right[row]),
            _partition_fields(tree.partition[row]),
        )
        for row in range(len(tree.node_id))
    ] + [("root", None if tree.root is None else tree.node_id[tree.root])]


def _partition_fields(part: Partition) -> tuple:
    return (
        repr(part.style),
        part.first_ids,
        part.second_ids,
        [pl.vertices for pl in part.polylines],
        part.size,
        part.first_bound,
        part.second_bound,
        part.inter_prob,
    )


def test_every_style_matches_scalar_evaluation():
    """All 4/8 styles, both described subspaces, on contiguous and
    scattered subsets (scattered ones leave many cut segments)."""
    sub = hospital_dataset().subdivision
    rng = random.Random(11)
    subsets = [sub.region_ids, rng.sample(sub.region_ids, 40)]
    subsets += [rng.sample(sub.region_ids, n) for n in (2, 3, 7, 64)]
    for subset in subsets:
        for style in enumerate_styles(len(subset), extended=True):
            got = _partition_fields(evaluate_style(sub, subset, style))
            want = _partition_fields(scalar_evaluate_style(sub, subset, style))
            assert got == want, style


def _brick_wall(rows: int = 4, bricks: int = 4, nudge: bool = False) -> Subdivision:
    """Brick rows offset by half a brick: every vertical joint ends in the
    middle of a neighbouring row's horizontal edge (a T-junction).

    ``nudge`` moves every inner joint and row edge up to the nearest
    value whose 7th-decimal rounding ``np.round`` gets wrong, so a cut
    point keyed other than through Python's ``round`` misses the vertex
    it lands on."""
    move = _np_round_trap if nudge else float
    regions = []
    height = 1.0 / rows
    width = 1.0 / bricks
    ys = [0.0] + [move(r * height) for r in range(1, rows)] + [1.0]
    for r in range(rows):
        y0, y1 = ys[r], ys[r + 1]
        xs = [i * width for i in range(bricks + 1)]
        if r % 2:
            xs = [0.0] + [x + width / 2.0 for x in xs[:-1]] + [1.0]
        xs = [0.0] + [move(x) for x in xs[1:-1]] + [1.0]
        for x0, x1 in zip(xs, xs[1:]):
            ring = [Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1)]
            regions.append(DataRegion(len(regions), Polygon(ring)))
    return Subdivision(regions, service_area=SERVICE_AREA)


def _np_round_trap(value: float) -> float:
    """The first tie at the 8th decimal from *value* up where
    ``np.round(v, 7)``, which rounds ``v * 1e7``, differs from
    ``round(v, 7)``, which rounds the exact decimal."""
    k = int(value * 1e7)
    while True:
        v = (k + 0.5) / 1e7
        if float(np.round(v, 7)) != round(v, 7):
            return v
        k += 1


def test_cut_points_on_existing_vertices_chain_like_scalar():
    """Pruning cuts horizontal brick edges exactly at the joints of the
    neighbouring rows, so a cut point's key is an existing vertex key; on
    the nudged wall it finds that key only through Python's ``round``."""
    for sub in (_brick_wall(), _brick_wall(nudge=True)):
        rng = random.Random(2)
        subsets = [sub.region_ids] + [rng.sample(sub.region_ids, n) for n in (5, 9, 13)]
        for subset in subsets:
            for style in enumerate_styles(len(subset), extended=True):
                got = _partition_fields(evaluate_style(sub, subset, style))
                want = _partition_fields(scalar_evaluate_style(sub, subset, style))
                assert got == want, style


# -- the level pass ---------------------------------------------------------------


@st.composite
def _level_subdivisions(draw):
    """Random Voronoi diagrams, grids and brick walls (plain or with
    rounding-trap coordinates)."""
    kind = draw(st.sampled_from(("voronoi", "grid", "bricks")))
    if kind == "voronoi":
        sites = uniform_points(
            draw(st.integers(2, 60)), draw(st.integers(0, 10_000)), SERVICE_AREA
        )
        return voronoi_subdivision(sites, SERVICE_AREA)
    if kind == "grid":
        return grid_subdivision(draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    return _brick_wall(
        draw(st.integers(2, 5)), draw(st.integers(2, 5)), nudge=draw(st.booleans())
    )


def _dtree_builds(sub: Subdivision) -> list:
    """The default, A1 and extended-style builds, plus a rebuild of the
    root's larger subspace with fresh ids at level 1, as the maintainer
    grows a splice."""
    builds = [
        dtree_shape(DTree.build(sub, **kwargs))
        for kwargs in ({}, {"tie_break_inter_prob": False}, {"extended_styles": True})
    ]
    tree = DTree.build(sub)
    if tree.root is not None:
        shape = dtree_shape(tree)
        root = shape[0][4]  # the root is node 0: its partition's fields
        ids = max(root[1], root[2], key=len)
        rebuilt = DTree.grow(
            sub, sorted(ids), paper_styles(True), first_id=len(shape) - 1, level=1
        )
        builds.append(dtree_shape(rebuilt))
    return builds


@settings(max_examples=25, deadline=None)
@given(_level_subdivisions())
def test_level_builds_identical_to_scalar_recursion(sub):
    level_builds = _dtree_builds(sub)
    with pytest.MonkeyPatch.context() as patch:
        SCALAR_RUNS.clear()
        patch.setattr(DTree, "grow", staticmethod(scalar_grow))
        scalar_builds = _dtree_builds(sub)
    assert (SCALAR_RUNS["evaluate_style"] > 0) == (len(sub) > 1)
    assert level_builds == scalar_builds


def _style_chains(level, s: int) -> List[Polyline]:
    """Style *s*'s kept segments chained, as the winner's would be."""
    segs = np.flatnonzero(level.seg_style == s)
    points = level.table.points
    line = float(level.st_line[s])
    cut = (lambda v: Point(line, v)) if level.st_dimy[s] else (lambda v: Point(v, line))
    a_points = [
        points[e] if e >= 0 else cut(v)
        for e, v in zip(level.seg_a[segs].tolist(), level.seg_v[segs].tolist())
    ]
    b_points = [points[e] for e in level.seg_b[segs].tolist()]
    return chain_keyed(
        a_points, b_points, level.seg_ka[segs].tolist(), level.seg_kb[segs].tolist()
    )


def _scattered_level(sub: Subdivision, rng: random.Random, max_nodes: int) -> list:
    """Disjoint random region sets of at least two regions each."""
    ids = sub.region_ids
    rng.shuffle(ids)
    nodes = []
    while len(ids) >= 2 and len(nodes) < max_nodes:
        take = rng.randint(2, max(2, len(ids) // 2))
        nodes.append(ids[:take])
        ids = ids[take:]
    return nodes


def _check_level_sizes(sub: Subdivision, nodes: list) -> Counter:
    """Every style's degree-count size against its chained size; counts
    the closed rings and the cuts landing on existing vertices seen."""
    styles = [enumerate_styles(len(node), extended=True) for node in nodes]
    level = partition_mod._LevelPass(sub, nodes, styles)
    seen: Counter = Counter()
    for s in range(len(level.st_node)):
        chains = _style_chains(level, s)
        assert level.st_size[s] == total_coordinate_count(chains), s
        seen["rings"] += sum(pl.is_closed for pl in chains)
    cut_ids = level.seg_ka[level.seg_a < 0]
    seen["vertex cuts"] += int((cut_ids < len(level.table.vertex_ids)).sum())
    return seen


@settings(max_examples=60, deadline=None)
@given(_level_subdivisions(), st.integers(0, 10_000))
def test_degree_count_size_is_the_chained_size(sub, seed):
    nodes = _scattered_level(sub, random.Random(seed), max_nodes=6)
    if nodes:
        _check_level_sizes(sub, nodes)


def test_degree_count_sizes_cover_rings_and_vertex_cuts():
    """Scattered node sets leave whole region rings on the kept side, and
    the brick walls' cuts land on T-junction vertices."""
    seen: Counter = Counter()
    rng = random.Random(9)
    for sub in (grid_subdivision(5, 6), _brick_wall(), _brick_wall(5, 4, nudge=True)):
        for _ in range(4):
            seen += _check_level_sizes(sub, _scattered_level(sub, rng, max_nodes=4))
    assert seen["rings"] > 0
    assert seen["vertex cuts"] > 0


def test_extended_and_imbalanced_dtrees_identical_to_scalar_build(scalar_kernels):
    """Complement-extent styles prune to the left and above; the
    imbalanced build sorts through ``_sort_regions``."""
    sub = hospital_dataset().subdivision
    weights = {rid: 1.0 + (rid * 7919) % 13 for rid in sub.region_ids}

    def builds():
        return (
            dtree_shape(DTree.build(sub, extended_styles=True)),
            dtree_shape(DTree.build(sub, tie_break_inter_prob=False)),
            dtree_shape(build_imbalanced_dtree(sub, weights)),
        )

    array_builds = builds()
    scalar_kernels()
    assert array_builds == builds()
    assert SCALAR_RUNS["evaluate_style"] > 0


def _churn_run(kind: str) -> dict:
    """The E12 churn: 200 uniform sites, one site moved per cycle (seed 7),
    maintained through the family's maintainer and re-paged each cycle."""
    width = SERVICE_AREA.max_x - SERVICE_AREA.min_x
    sites = dict(enumerate(uniform_dataset(n=200, seed=42).points))
    kwargs = {"staleness_budget": 0.5} if kind == "dtree" else {}
    server = DynamicBroadcastServer(
        kind,
        sites_subdivision(sites, SERVICE_AREA),
        packet_capacity=PACKET_CAPACITY,
        seed=0,
        **kwargs,
    )
    rng = random.Random(7)
    read_rng = random.Random(1)
    reads = [Point(read_rng.random(), read_rng.random()) for _ in range(400)]
    states = [observable(server.paged)]
    answers = []
    for _ in range(4):
        sites = churn_sites(
            sites, SERVICE_AREA, n_move=1, move_scale=0.02 * width, rng=rng
        )
        new = sites_subdivision(sites, SERVICE_AREA)
        server.apply_updates(
            new, diff_subdivisions(server.subdivision, new, tolerance=1e-9 * width)
        )
        states.append(observable(server.paged))
        answers.append([server.paged.trace(p).region_id for p in reads])
    return {
        "states": states,
        "answers": answers,
        "full_rebuilds": server.maintainer.full_rebuilds,
        "incremental_applies": server.maintainer.incremental_applies,
    }


@pytest.mark.parametrize("kind", ["dtree", "rstar"])
def test_churn_maintenance_identical_to_scalar_build(kind, scalar_kernels):
    array_run = _churn_run(kind)
    scalar_kernels()
    scalar_run = _churn_run(kind)
    assert (SCALAR_RUNS["evaluate_style"] > 0) == (kind == "dtree")
    assert (SCALAR_RUNS["rstar_split"] > 0) == (kind == "rstar")
    assert (SCALAR_RUNS["trap_insert"] > 0) == (kind == "trap")
    if kind == "dtree":
        # The object splice ran, once per incremental apply.
        assert SCALAR_RUNS["dtree_splice"] == scalar_run["incremental_applies"] > 0
    assert array_run["full_rebuilds"] == scalar_run["full_rebuilds"]
    assert array_run["incremental_applies"] == scalar_run["incremental_applies"]
    assert array_run["answers"] == scalar_run["answers"]
    for cycle, (got, want) in enumerate(zip(array_run["states"], scalar_run["states"])):
        assert got == want, f"cycle {cycle}"


@settings(max_examples=30, deadline=None)
@given(
    _small_subdivisions(),
    st.sampled_from([64, 128, 256]),
    st.integers(0, 10_000),
    st.sampled_from(
        [{}, {"early_termination": False}, {"top_down": False}, {"merge_leaves": False}]
    ),
)
def test_dtree_answers_identical_to_object_tree_on_random_points(
    subdivision, capacity, point_seed, flags
):
    """Random points, every vertex and every edge midpoint answer alike
    on the node table and on the object tree it replaced, which pages
    into the same packets and compiles to the same arrays; the lossy
    recovery's candidate regions after each packet are the object
    tree's."""
    rng = random.Random(point_seed)
    points = [subdivision.random_point(rng) for _ in range(100)]
    points += list(dict.fromkeys(
        v for region in subdivision.regions for v in region.polygon.vertices
    ))
    points += [
        Point((e.a.x + e.b.x) / 2, (e.a.y + e.b.y) / 2)
        for e in subdivision.all_edges()
    ]
    params = index_family("dtree").parameters(capacity)
    arrays = PagedDTree(DTree.build(subdivision), params, **flags)
    SCALAR_RUNS.clear()
    scalar = scalar_grow(
        subdivision, subdivision.region_ids, paper_styles()
    ).page(params, **flags)
    assert (SCALAR_RUNS["evaluate_style"] > 0) == (len(subdivision.regions) > 1)
    assert observable(arrays) == observable(scalar)
    assert _answers(arrays, points) == _answers(scalar, points)
    everything = frozenset(subdivision.region_ids)
    candidates = candidate_provider(arrays, everything)
    packet_regions = scalar_dtree_candidates(scalar)
    for last_good in [None, *range(len(scalar.packets))]:
        assert candidates(last_good) == packet_regions.get(last_good, everything)


def test_pickled_paged_dtree_keeps_packets_arrays_and_traces():
    """The paged D-tree pickles as its tables: a round trip, before and
    after the compile, keeps every packet, every compiled array and the
    scalar and batched answers and paths."""
    subdivision = DATASETS["PARK"]()
    points = random_points_in(subdivision, 300, seed=17)
    paged = build_paged("dtree", subdivision)
    uncompiled = pickle.loads(pickle.dumps(paged))
    state, answers = observable(paged), _answers(paged, points)
    compiled = pickle.loads(pickle.dumps(paged))
    assert not hasattr(compiled, "_compiled_dtree")
    for restored in (uncompiled, compiled):
        assert observable(restored) == state
        assert _answers(restored, points) == answers


def test_boundary_matches_scalar_in_order():
    """Segments in the same order — the order seeds the chained polylines."""
    sub = hospital_dataset().subdivision
    ids = sub.region_ids
    rng = random.Random(3)
    for n in (1, 2, 3, 17, len(ids) // 2, len(ids)):
        subset = rng.sample(ids, n)
        got = sub.boundary_of_subset(subset)
        want = scalar_boundary_of_subset(sub, subset)
        assert [(s.a, s.b) for s in got] == [(s.a, s.b) for s in want]


def test_chain_segments_matches_scalar():
    sub = hospital_dataset().subdivision
    rng = random.Random(5)
    for _ in range(20):
        segs = scalar_boundary_of_subset(sub, rng.sample(sub.region_ids, 9))
        rng.shuffle(segs)
        got = [pl.vertices for pl in chain_segments(segs)]
        assert got == [pl.vertices for pl in scalar_chain_segments(segs)]


# -- ChooseSubtree on arrays ---------------------------------------------------

#: Coordinates on a coarse, non-dyadic lattice, so equal, touching and
#: nested edges are common and the areas are inexact floats.
_coord = st.integers(0, 12).map(lambda i: i / 7.0)


@st.composite
def _rect(draw):
    x0, x1 = sorted((draw(_coord), draw(_coord)))
    y0, y1 = sorted((draw(_coord), draw(_coord)))
    return Rect(x0, y0, x1, y1)


def _with_copies(draw, rects: List[Rect]) -> List[Rect]:
    """*rects* plus duplicates and nested copies of some of them."""
    for rect in list(rects):
        choice = draw(st.integers(0, 3))
        if choice == 1:
            rects.append(Rect(rect.min_x, rect.min_y, rect.max_x, rect.max_y))
        elif choice == 2:
            rects.append(
                Rect(
                    rect.min_x,
                    rect.min_y,
                    (rect.min_x + rect.max_x) / 2.0,
                    (rect.min_y + rect.max_y) / 2.0,
                )
            )
    return rects


@st.composite
def _child_sets(draw):
    rects = _with_copies(draw, draw(st.lists(_rect(), min_size=1, max_size=14)))
    order = draw(st.permutations(range(len(rects))))
    return [rects[i] for i in order], draw(_rect())


def _plain_sum(values):
    """``sum()`` of floats before Python 3.12: left to right."""
    total = 0.0
    for x in values:
        total += x
    return total


def _compensated_sum(values):
    """``sum()`` of floats from Python 3.12 on: Neumaier's compensated
    sum, the compensation added at the end when it is finite and not 0."""
    total = 0.0
    comp = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    if comp and math.isfinite(comp):
        total += comp
    return total


#: Both kinds of ``sum()`` the supported interpreters have, so that each
#: interpreter checks the ChooseSubtree sums against both.
SUMMATIONS = {"plain": _plain_sum, "compensated": _compensated_sum}


@contextlib.contextmanager
def _summation(add):
    """Run the R*-tree module and the oracles here with *add* as ``sum``."""
    rstar_tree_mod.sum = add
    globals()["sum"] = add
    try:
        yield
    finally:
        del rstar_tree_mod.sum
        del globals()["sum"]


def _box(rect: Rect) -> tuple:
    return rect.min_x, rect.min_y, rect.max_x, rect.max_y


def _table_node(fanout: int, level: int, rects: List[Rect]) -> Tuple[RStarTree, int]:
    """A node of *rects* (targets 0, 1, ...) in the table of an empty tree."""
    tree = RStarTree(grid_subdivision(2, 2), fanout)  # only for the constructor
    node = tree._new_node(level, [_box(r) for r in rects], list(range(len(rects))))
    return tree, node


@settings(max_examples=300, deadline=None)
@given(_child_sets())
def test_choose_subtree_picks_the_scalar_entry(case):
    rects, mbr = case
    entries = [RStarEntry(r, region_id=i) for i, r in enumerate(rects)]
    for add in SUMMATIONS.values():
        with _summation(add):
            tree, node = _table_node(len(rects) + 1, 1, rects)
            got = tree._least_overlap_enlargement(node, _box(mbr))
            assert entries[got] is scalar_least_overlap_enlargement(entries, mbr)


@st.composite
def _rstar_histories(draw):
    """A fan-out and a run of inserts and deletes of lattice rectangles
    (duplicate, nested and zero-width ones among them)."""
    fanout = draw(st.sampled_from([3, 4, 8, 25]))
    # At least one more rectangle than a node holds, so the root splits.
    rects = _with_copies(
        draw, draw(st.lists(_rect(), min_size=fanout + 1, max_size=3 * fanout + 10))
    )
    order = draw(st.permutations(range(len(rects))))
    ops: List[tuple] = []
    live: List[int] = []
    for region_id in order:
        ops.append(("insert", region_id, rects[region_id]))
        live.append(region_id)
        if draw(st.integers(0, 3)) == 0:
            gone = live.pop(draw(st.integers(0, len(live) - 1)))
            ops.append(("delete", gone, rects[gone]))
    return fanout, ops


def _check_overlaps(tree: RStarTree) -> None:
    """Every leaf parent's maintained ChooseSubtree overlaps equal fresh
    ones built from its entries."""
    live = set(tree.nodes_depth_first())
    for node, overlaps in tree._overlaps.items():
        assert node in live
        fresh = _Overlaps(tree.node_boxes[node])
        assert overlaps.rows == fresh.rows
        assert overlaps.own == fresh.own
        for name in ("lo", "hi", "area"):
            assert getattr(overlaps, name).tobytes() == getattr(fresh, name).tobytes()


@pytest.mark.parametrize("summation", sorted(SUMMATIONS))
@settings(max_examples=60, deadline=None)
@given(history=_rstar_histories())
def test_insert_and_delete_match_the_scalar_insertion(summation, history):
    """Every step of the history leaves the node table equal to the
    oracle's tree and its overlaps equal to fresh ones; a pickled copy
    then goes on maintaining the same tree."""
    fanout, ops = history
    sub = grid_subdivision(2, 2)  # only for the constructor
    tree = RStarTree(sub, fanout)
    scalar = ScalarRStarTree(sub, fanout)
    with _summation(SUMMATIONS[summation]):
        for op, region_id, rect in ops:
            for t in (tree, scalar):
                if op == "insert":
                    t.insert(region_id, rect)
                else:
                    t.delete(region_id, rect)
            assert rstar_shape(tree) == rstar_shape(scalar), (op, region_id)
            tree.check_invariants()
            _check_overlaps(tree)
        clone = pickle.loads(pickle.dumps(tree))
        for t in (tree, clone, scalar):
            t.insert(10_000, Rect(0.4, 0.4, 0.45, 0.45))
        assert rstar_shape(clone) == rstar_shape(tree) == rstar_shape(scalar)
        _check_overlaps(clone)


def test_split_matches_the_scalar_split():
    """All four sort orders and every distribution, on nodes whose
    boxes tie in every key."""
    rng = random.Random(11)
    sub = grid_subdivision(2, 2)
    for fanout in (3, 4, 8, 25):
        for _ in range(40):
            rects = []
            for _ in range(fanout + 1):
                x0, x1 = sorted(rng.choices(range(4), k=2))
                y0, y1 = sorted(rng.choices(range(4), k=2))
                rects.append(Rect(x0 / 3.0, y0 / 3.0, x1 / 3.0, y1 / 3.0))
            tree, node = _table_node(fanout, 0, rects)
            other = tree._split(node)
            kept = RStarNode(0, [RStarEntry(r, region_id=i) for i, r in enumerate(rects)])
            split_off = ScalarRStarTree(sub, fanout)._split(kept)
            assert [tree.node_targets[other], tree.node_targets[node]] == [
                [e.region_id for e in n.entries] for n in (split_off, kept)
            ]


def test_build_defers_insertion_until_read(voronoi60):
    tree = RStarTree.build(voronoi60, 6)
    assert tree._pending is not None
    assert rstar_shape(tree) == rstar_shape(ScalarRStarTree.build(voronoi60, 6))
    assert tree._pending is None
    tree.check_invariants()


def test_insert_into_unread_tree_matches_eager_insert(voronoi60):
    """The deferred insertions run before the new one, which then starts
    with its own forced-reinsertion state, as after an eager build."""
    for i in range(9):
        for j in range(9):
            extra = Rect(i / 10.0, j / 10.0, i / 10.0 + 0.05, j / 10.0 + 0.05)
            lazy = RStarTree.build(voronoi60, 8)
            lazy.insert(10_000, extra)
            eager = ScalarRStarTree.build(voronoi60, 8)
            eager.insert(10_000, extra)
            assert rstar_shape(lazy) == rstar_shape(eager), extra


def test_page_builds_once_at_the_packet_fanout(voronoi60):
    family = index_family("rstar")
    params = family.parameters(PACKET_CAPACITY)
    logical = family.build(voronoi60, seed=0)
    paged = logical.page(params)
    assert paged.tree.max_entries == rstar_fanout(params)
    assert paged.tree._pending is None
    # The protocol's default-fan-out tree was never read, so never built.
    assert logical._pending is not None
    assert rstar_shape(paged.tree) == rstar_shape(
        ScalarRStarTree.build(voronoi60, rstar_fanout(params))
    )


def test_maintainer_build_is_a_whole_build(voronoi60):
    """E12 times the maintainer's build as the from-scratch rebuild."""
    params = index_family("rstar").parameters(PACKET_CAPACITY)
    tree = maintainer_for("rstar", params=params).build(voronoi60)
    assert tree._pending is None
    assert rstar_shape(tree) == rstar_shape(
        ScalarRStarTree.build(voronoi60, rstar_fanout(params))
    )


@settings(max_examples=30, deadline=None)
@given(
    _small_subdivisions(),
    st.sampled_from([24, 64, 128, 256]),
    st.integers(0, 10_000),
)
def test_rstar_answers_identical_to_object_tree_on_random_points(
    subdivision, capacity, point_seed
):
    """Random points, every vertex and every edge midpoint answer alike
    on the node table's snapshot and on the object tree it replaced, and
    the lossy recovery's candidate regions after each packet are the
    regions whose shape packets the object tree's paging had not yet
    finished.  At 24 B most Voronoi shapes span several packets."""
    rng = random.Random(point_seed)
    points = [subdivision.random_point(rng) for _ in range(100)]
    points += list(dict.fromkeys(
        v for region in subdivision.regions for v in region.polygon.vertices
    ))
    points += [
        Point((e.a.x + e.b.x) / 2, (e.a.y + e.b.y) / 2)
        for e in subdivision.all_edges()
    ]
    params = index_family("rstar").parameters(capacity)
    arrays = RStarTree.build(subdivision).page(params)
    scalar = ScalarRStarTree.build(subdivision).page(params)
    assert observable(arrays) == observable(scalar)
    assert _answers(arrays, points) == _answers(scalar, points)
    everything = frozenset(subdivision.region_ids)
    candidates = candidate_provider(arrays, everything)
    for last_good in [None, *range(len(scalar.packets))]:
        live = frozenset(
            region_id
            for region_id, packets in scalar._shape_packets.items()
            if last_good is not None and max(packets) >= last_good
        )
        assert candidates(last_good) == (live or everything)


def test_pickled_paged_rstar_tree_keeps_packets_arrays_and_traces():
    """The paged R*-tree pickles as its snapshot, without the tree: a
    round trip keeps every packet, every compiled array and the scalar
    traces."""
    subdivision = DATASETS["PARK"]()
    points = random_points_in(subdivision, 300, seed=17)

    def traces(paged):
        return [(t.region_id, t.packets_accessed) for t in map(paged.trace, points)]

    paged = build_paged("rstar", subdivision)
    # Compiled arrays and list mirrors exist before the pickle, which
    # leaves them out.
    state, answers = observable(paged), traces(paged)
    restored = pickle.loads(pickle.dumps(paged))
    assert restored.tree is None and not hasattr(restored, "_compiled_rstar")
    state.pop("rstar")
    assert observable(restored) == state
    assert traces(restored) == answers


def test_packet_labels_are_deterministic(voronoi60):
    kdsplit = lambda: PagedKDSplitTree(
        KDSplitTree(voronoi60), index_family("trap").parameters(PACKET_CAPACITY)
    )
    for build in (
        lambda: build_paged("rstar", voronoi60),
        lambda: build_paged("trian", voronoi60),
        kdsplit,
    ):
        first, second = build(), build()
        assert [p.contents for p in first.packets] == [
            p.contents for p in second.packets
        ]
