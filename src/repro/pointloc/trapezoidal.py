"""The trapezoidal map and its search DAG — the paper's trap-tree (§3.1).

Randomized incremental construction after de Berg et al. (Computational
Geometry, ch. 6).  The subdivision's edges are inserted in random order;
each insertion splits the trapezoids the segment crosses and grows a DAG
of x-nodes (vertex tests) and y-nodes (above/below-segment tests) whose
leaves are trapezoids.

Degeneracy handling: a small shear ``x' = x + delta * y`` removes vertical
segments and duplicate x-coordinates (the textbook's symbolic shear, made
concrete).  Shared segment endpoints — ubiquitous in a subdivision — are
resolved with the standard tie rules: at an x-node an equal point goes
right, and a query *for an insertion endpoint* carries its segment's slope
to break ties at y-nodes through whose segment it passes.

A trapezoid's containing data region is the region above its bottom
segment, which the subdivision knows from its CCW polygon orientations.

The DAG is integer-addressed.  The build appends every node to parallel
lists; when the last segment is in, the live nodes are numbered once in
topological (Kahn, FIFO) order and compacted into flat arrays, so node
``k`` is the ``k``-th node on the air (packet label ``trapnode#k``) and
the root is node 0.  Paging, compiling, pickling and the scalar walks
read those arrays.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import IndexBuildError, PagingError, QueryError
from repro.geometry.point import Point
from repro.broadcast.packets import PacketStore, QueryTrace, dedupe_consecutive
from repro.broadcast.params import SystemParameters
from repro.tessellation.subdivision import Subdivision

#: Shear factor: far below the minimum feature scale of the datasets
#: (>= 1e-3 in the unit square) yet large enough to separate distinct
#: vertices sharing an x-coordinate.
SHEAR = 1e-7

#: Node kinds of the search DAG (:attr:`TrapTree.kind`).  An x-node's
#: children are (left, right), a y-node's (above, below), in
#: ``child0``/``child1``.
X_NODE, Y_NODE, LEAF = 0, 1, 2


class _Seg:
    """A prepared (sheared) input segment with its left/right endpoints."""

    __slots__ = ("p", "q", "above_region")

    def __init__(self, a: Point, b: Point, above_region: Optional[int]) -> None:
        if (a.x, a.y) < (b.x, b.y):
            self.p, self.q = a, b
        else:
            self.p, self.q = b, a
        if self.p.x >= self.q.x:
            raise IndexBuildError(
                f"vertical segment survived the shear: {a!r}-{b!r}"
            )
        #: Data region above this segment (None above the top border).
        self.above_region = above_region

    def y_at(self, x: float) -> float:
        t = (x - self.p.x) / (self.q.x - self.p.x)
        return self.p.y + t * (self.q.y - self.p.y)

    @property
    def slope(self) -> float:
        return (self.q.y - self.p.y) / (self.q.x - self.p.x)

    def __repr__(self) -> str:
        return f"_Seg({self.p!r}->{self.q!r}, above={self.above_region})"


def _cross(a: Point, b: Point, c: Point) -> float:
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


class _Trapezoid:
    """A trapezoid of the map: top/bottom segments, left/right points."""

    __slots__ = ("top", "bottom", "leftp", "rightp", "leaf")

    def __init__(self, top: _Seg, bottom: _Seg, leftp: Point, rightp: Point):
        self.top = top
        self.bottom = bottom
        self.leftp = leftp
        self.rightp = rightp
        #: Build-time id of the trapezoid's leaf node.
        self.leaf = -1

    @property
    def region(self) -> Optional[int]:
        return self.bottom.above_region

    def __repr__(self) -> str:
        return (
            f"_Trapezoid(x=[{self.leftp.x:.4f},{self.rightp.x:.4f}], "
            f"region={self.region})"
        )


class _DagBuilder:
    """The search DAG during the incremental build, as parallel lists.

    Node *i* has ``kind[i]``, children ``child0[i]``/``child1[i]`` and a
    ``payload[i]``: an x-node's :class:`Point`, a y-node's :class:`_Seg`
    or a leaf's :class:`_Trapezoid`.  Only leaves are ever replaced, so
    only leaves chain their in-edges: edge ``e`` is ``2 * parent + slot``
    in ``edge_link[e]``, ``first_edge[leaf]`` is the leaf's last edge
    and ``edge_next[e]`` the one before (-1 ends a chain).  Flat int
    lists, not a list per leaf, so the build allocates no container per
    node for the cyclic garbage collector to scan.  A replaced leaf
    stays behind, unreachable.
    """

    __slots__ = (
        "kind", "child0", "child1", "payload",
        "first_edge", "edge_link", "edge_next", "root",
    )

    def __init__(self, first: _Trapezoid) -> None:
        self.kind: List[int] = []
        self.child0: List[int] = []
        self.child1: List[int] = []
        self.payload: list = []
        self.first_edge: List[int] = []
        self.edge_link: List[int] = []
        self.edge_next: List[int] = []
        self.root = self._leaf(first)

    def _leaf(self, trap: _Trapezoid) -> int:
        node = len(self.kind)
        self.kind.append(LEAF)
        self.child0.append(-1)
        self.child1.append(-1)
        self.payload.append(trap)
        self.first_edge.append(-1)
        trap.leaf = node
        return node

    def _inner(self, kind: int, payload, child0: int, child1: int) -> int:
        node = len(self.kind)
        self.kind.append(kind)
        self.child0.append(child0)
        self.child1.append(child1)
        self.payload.append(payload)
        first_edge = self.first_edge
        first_edge.append(-1)
        for link, child in ((2 * node, child0), (2 * node + 1, child1)):
            if self.kind[child] == LEAF:
                self.edge_next.append(first_edge[child])
                first_edge[child] = len(self.edge_link)
                self.edge_link.append(link)
        return node

    def insert(self, s: _Seg) -> None:
        crossed = self._follow(s)
        if len(crossed) == 1:
            self._split_single(s, crossed[0])
        else:
            self._split_multi(s, crossed)

    def _descend(self, pt: Point, slope: float) -> int:
        """Leaf reached by an insertion endpoint or boundary probe."""
        kind, child0, child1, payload = (
            self.kind, self.child0, self.child1, self.payload
        )
        x, y = pt.x, pt.y
        node = self.root
        while True:
            k = kind[node]
            if k == X_NODE:
                # Pure x comparison, ties to the right: an insertion
                # endpoint or boundary probe always continues rightward
                # from the vertical line it sits on.  (The shear makes all
                # distinct vertices have distinct x.)
                node = child1[node] if x >= payload[node].x else child0[node]
            elif k == Y_NODE:
                seg = payload[node]
                p, q = seg.p, seg.q
                cross = (q.x - p.x) * (y - p.y) - (q.y - p.y) * (x - p.x)
                if cross > 0:
                    node = child0[node]
                elif cross < 0:
                    node = child1[node]
                else:
                    # pt on the segment's line: it is a shared left endpoint
                    # of the segment being inserted — compare slopes.
                    node = child0[node] if slope >= seg.slope else child1[node]
            else:
                return node

    def _follow(self, s: _Seg) -> List[_Trapezoid]:
        """The trapezoids crossed by *s*, left to right."""
        payload = self.payload
        first = payload[self._descend(s.p, s.slope)]
        crossed = [first]
        current = first
        while current.rightp.x < s.q.x:
            probe = Point(current.rightp.x, s.y_at(current.rightp.x))
            nxt = payload[self._descend(probe, s.slope)]
            if nxt is current:
                raise IndexBuildError("segment following made no progress")
            crossed.append(nxt)
            current = nxt
        return crossed

    def _replace_leaf(self, leaf: int, subtree: int) -> None:
        if leaf == self.root:
            self.root = subtree
            return
        edge = self.first_edge[leaf]
        if edge < 0:
            raise IndexBuildError("non-root leaf without parents")
        while edge >= 0:
            link = self.edge_link[edge]
            (self.child1 if link & 1 else self.child0)[link >> 1] = subtree
            edge = self.edge_next[edge]
        self.first_edge[leaf] = -1

    def _split_single(self, s: _Seg, old: _Trapezoid) -> None:
        upper = _Trapezoid(old.top, s, s.p, s.q)
        lower = _Trapezoid(s, old.bottom, s.p, s.q)
        subtree = self._inner(Y_NODE, s, self._leaf(upper), self._leaf(lower))
        if s.q.x < old.rightp.x:
            right = _Trapezoid(old.top, old.bottom, s.q, old.rightp)
            subtree = self._inner(X_NODE, s.q, subtree, self._leaf(right))
        if old.leftp.x < s.p.x:
            left = _Trapezoid(old.top, old.bottom, old.leftp, s.p)
            subtree = self._inner(X_NODE, s.p, self._leaf(left), subtree)
        self._replace_leaf(old.leaf, subtree)

    def _split_multi(self, s: _Seg, crossed: Sequence[_Trapezoid]) -> None:
        first, last = crossed[0], crossed[-1]

        # Open upper/lower runs, merged while top/bottom stay the same.
        upper = _Trapezoid(first.top, s, s.p, s.q)
        lower = _Trapezoid(s, first.bottom, s.p, s.q)
        upper_leaf = self._leaf(upper)
        lower_leaf = self._leaf(lower)

        for i, old in enumerate(crossed):
            if i > 0:
                if old.top is not upper.top:
                    upper.rightp = old.leftp
                    upper = _Trapezoid(old.top, s, old.leftp, s.q)
                    upper_leaf = self._leaf(upper)
                if old.bottom is not lower.bottom:
                    lower.rightp = old.leftp
                    lower = _Trapezoid(s, old.bottom, old.leftp, s.q)
                    lower_leaf = self._leaf(lower)

            subtree = self._inner(Y_NODE, s, upper_leaf, lower_leaf)
            if old is last and s.q.x < old.rightp.x:
                right = _Trapezoid(old.top, old.bottom, s.q, old.rightp)
                subtree = self._inner(X_NODE, s.q, subtree, self._leaf(right))
            if old is first and old.leftp.x < s.p.x:
                left = _Trapezoid(old.top, old.bottom, old.leftp, s.p)
                subtree = self._inner(X_NODE, s.p, self._leaf(left), subtree)
            self._replace_leaf(old.leaf, subtree)

        # Close the final runs at the segment's right endpoint.
        upper.rightp = s.q
        lower.rightp = s.q

    def topological(self) -> List[int]:
        """Live node ids, every parent before each of its children.

        Kahn's algorithm from the root with a FIFO frontier, children in
        slot order and in-degrees counted per edge, so a leaf shared by
        two parents is released by its second edge.
        """
        kind, child0, child1 = self.kind, self.child0, self.child1
        indegree = [0] * len(kind)
        for node, k in enumerate(kind):
            if k != LEAF:
                indegree[child0[node]] += 1
                indegree[child1[node]] += 1
        live = len(kind) - indegree.count(0) + 1
        order = [self.root]
        for node in order:  # the list is its own FIFO queue
            if kind[node] == LEAF:
                continue
            for child in (child0[node], child1[node]):
                indegree[child] -= 1
                if indegree[child] == 0:
                    order.append(child)
        if len(order) != live:
            raise IndexBuildError("trapezoidal search structure is not a DAG")
        return order


class TrapTree:
    """The trapezoidal-map search structure over a subdivision.

    Node ``k`` (0 the root) is described by ``kind[k]`` (:data:`X_NODE`,
    :data:`Y_NODE` or :data:`LEAF`), its children ``child0[k]`` and
    ``child1[k]`` (left/right at an x-node, above/below at a y-node;
    always ordinals greater than ``k``), its test geometry — an x-node's
    vertex in ``ax/ay``, a y-node's segment ``ax/ay -> bx/by`` — and a
    leaf's data ``region`` (-1 for the slivers outside the subdivision).
    """

    def __init__(self, subdivision: Subdivision, seed: int = 0) -> None:
        self.subdivision = subdivision
        self._build(seed)

    @classmethod
    def build(
        cls, subdivision: Subdivision, *, seed: int = 0
    ) -> "TrapTree":
        """Build the search structure — the :class:`~repro.engine.AirIndex`
        constructor.  ``seed`` orders the randomized incremental segment
        insertion."""
        return cls(subdivision, seed=seed)

    def page(self, params) -> "PagedTrapTree":
        """Allocate the structure to fixed-capacity packets — the
        :class:`~repro.engine.AirIndex` paging step."""
        return PagedTrapTree(self, params)

    # -- construction -----------------------------------------------------------

    def _build(self, seed: int) -> None:
        segments = [
            _Seg(_shear(edge.a), _shear(edge.b), above)
            for edge, above in zip(
                self.subdivision.all_edges(), self.subdivision.edge_region_above()
            )
        ]
        if not segments:
            raise IndexBuildError("subdivision has no edges")
        rng = random.Random(seed)
        rng.shuffle(segments)

        # Enclosing box trapezoid (bottom/top sentinel segments).
        xs = [s.p.x for s in segments] + [s.q.x for s in segments]
        ys = [s.p.y for s in segments] + [s.q.y for s in segments]
        pad_x = (max(xs) - min(xs)) * 0.1 + 1.0
        pad_y = (max(ys) - min(ys)) * 0.1 + 1.0
        lo = Point(min(xs) - pad_x, min(ys) - pad_y)
        hi = Point(max(xs) + pad_x, max(ys) + pad_y)
        bottom = _Seg(Point(lo.x, lo.y), Point(hi.x, lo.y), None)
        top = _Seg(Point(lo.x, hi.y), Point(hi.x, hi.y), None)
        dag = _DagBuilder(_Trapezoid(top, bottom, lo, hi))
        for seg in segments:
            dag.insert(seg)
        self._compact(dag)

    def _compact(self, dag: _DagBuilder) -> None:
        """Renumber *dag*'s live nodes in topological order into arrays."""
        order = dag.topological()
        count = len(order)
        ordinal = np.zeros(len(dag.kind), np.int32)
        ordinal[order] = np.arange(count, dtype=np.int32)
        ids = np.array(order)
        self.kind = np.array(dag.kind, np.int8)[ids]
        inner = self.kind != LEAF
        for name, links in (("child0", dag.child0), ("child1", dag.child1)):
            child = np.zeros(count, np.int32)
            child[inner] = ordinal[np.array(links)[ids[inner]]]
            setattr(self, name, child)
        payload = dag.payload
        self.ax, self.ay, self.bx, self.by = (np.zeros(count) for _ in range(4))
        is_x = self.kind == X_NODE
        points = [payload[node] for node in ids[is_x].tolist()]
        self.ax[is_x] = [p.x for p in points]
        self.ay[is_x] = [p.y for p in points]
        is_y = self.kind == Y_NODE
        segs = [payload[node] for node in ids[is_y].tolist()]
        self.ax[is_y] = [s.p.x for s in segs]
        self.ay[is_y] = [s.p.y for s in segs]
        self.bx[is_y] = [s.q.x for s in segs]
        self.by[is_y] = [s.q.y for s in segs]
        self.region = np.full(count, -1, np.int32)
        regions = [payload[node].region for node in ids[~inner].tolist()]
        self.region[~inner] = [-1 if r is None else r for r in regions]

    # -- public API --------------------------------------------------------------

    @cached_property
    def _lists(self) -> tuple:
        """Python-list mirrors of the node arrays for the scalar walks."""
        return tuple(
            array.tolist()
            for array in (
                self.kind, self.child0, self.child1,
                self.ax, self.ay, self.bx, self.by, self.region,
            )
        )

    def _region_at(self, x: float, y: float) -> int:
        """Leaf region of a plain point query (-1 in a sliver): x ties go
        right, a zero cross product goes above."""
        kind, child0, child1, ax, ay, bx, by, region = self._lists
        node = 0
        while kind[node] != LEAF:
            if kind[node] == X_NODE:
                node = child1[node] if x >= ax[node] else child0[node]
            else:
                x0 = ax[node]
                y0 = ay[node]
                cross = (bx[node] - x0) * (y - y0) - (by[node] - y0) * (x - x0)
                node = child1[node] if cross < 0 else child0[node]
        return region[node]

    def locate(self, p: Point) -> int:
        """Data region containing *p*."""
        pt = self.effective_point(p)
        region = self._region_at(pt.x, pt.y)
        if region < 0:
            raise QueryError(f"{p!r} outside the subdivided area")
        return region

    def effective_point(self, p: Point) -> Point:
        """Sheared query point, nudged off degenerate positions.

        A query lying exactly on a subdivision vertex can be routed by the
        x/y tie rules into a sliver outside every region.  Such inputs are
        measure-zero; when one occurs we retry with a tiny deterministic
        offset (any region containing the nudged point also contains the
        original boundary point, up to tolerance).
        """
        sheared = _shear(p)
        if self._region_at(sheared.x, sheared.y) >= 0:
            return sheared
        for factor in (1.0, -1.0, 2.0, -2.0):
            nudged = Point(sheared.x + factor * 1e-9, sheared.y + factor * 1e-9)
            if self._region_at(nudged.x, nudged.y) >= 0:
                return nudged
        return sheared

    def __getstate__(self) -> dict:
        """Pickle the node arrays without their list mirrors."""
        state = dict(self.__dict__)
        state.pop("_lists", None)
        return state

    def node_counts(self) -> Dict[str, int]:
        """Number of x-nodes, y-nodes and leaves (diagnostics)."""
        counts = np.bincount(self.kind, minlength=3).tolist()
        return dict(zip(("x", "y", "leaf"), counts))


def _shear(p: Point) -> Point:
    return Point(p.x + SHEAR * p.y, p.y)


class PagedTrapTree:
    """The trap-tree allocated to packets (top-down, topological order).

    ``node_packet[k]`` is node ``k``'s packet.
    """

    def __init__(self, tree: TrapTree, params: SystemParameters) -> None:
        self.tree = tree
        self.params = params
        self._store = PacketStore(params.packet_capacity)
        self._allocate()
        self.packets = self._store.packets

    def node_size(self, kind: int) -> int:
        """x-node: bid + one axis value + 2 pointers; y-node: bid + one
        segment (2 coordinate pairs) + 2 pointers; leaf: bid + data
        pointer."""
        p = self.params
        if kind == X_NODE:
            return p.bid_size + p.scalar_size + 2 * p.pointer_size
        if kind == Y_NODE:
            return p.bid_size + 2 * p.coordinate_size + 2 * p.pointer_size
        return p.bid_size + p.pointer_size

    def _allocate(self) -> None:
        kind, child0, child1 = self.tree._lists[:3]
        sizes = [self.node_size(k) for k in (X_NODE, Y_NODE, LEAF)]
        if max(sizes[k] for k in set(kind)) > self.params.packet_capacity:
            raise PagingError("trap-tree node exceeds packet capacity")
        packets = self._store.packets
        # Latest packet of a parent placed so far (-1: none yet).
        latest = [-1] * len(kind)
        node_packet = []
        for ordinal, k in enumerate(kind):
            size = sizes[k]
            placed = None
            parent = latest[ordinal]
            if parent >= 0:
                # Monotonicity on the channel: place into the *latest*
                # parent packet so the node never precedes any parent.
                candidate = packets[parent]
                if size <= candidate.free:
                    placed = candidate
            if placed is None:
                placed = self._store.new_packet()
            placed.allocate(size, f"trapnode#{ordinal}")
            packet = placed.packet_id
            node_packet.append(packet)
            if k != LEAF:
                for child in (child0[ordinal], child1[ordinal]):
                    if latest[child] < packet:
                        latest[child] = packet
        if node_packet[0] != 0:
            raise PagingError("root not in the first packet")
        self.node_packet = np.array(node_packet, np.int32)

    @cached_property
    def _packet_list(self) -> List[int]:
        return self.node_packet.tolist()

    def __getstate__(self) -> dict:
        """Pickle without the derived state: the compiled node arrays
        (``repro.engine.trace``; fleet workers rebuild or attach them
        from a shared-memory arena) and the list mirror."""
        state = dict(self.__dict__)
        state.pop("_compiled_trap", None)
        state.pop("_packet_list", None)
        return state

    def trace(self, point: Point) -> QueryTrace:
        """Traced DAG descent (plain point query)."""
        tree = self.tree
        pt = tree.effective_point(point)
        x, y = pt.x, pt.y
        kind, child0, child1, ax, ay, bx, by, region = tree._lists
        node_packet = self._packet_list
        accesses: List[int] = []
        node = 0
        while kind[node] != LEAF:
            accesses.append(node_packet[node])
            if kind[node] == X_NODE:
                go_right = (x, y) >= (ax[node], ay[node])
                node = child1[node] if go_right else child0[node]
            else:
                x0 = ax[node]
                y0 = ay[node]
                cross = (bx[node] - x0) * (y - y0) - (by[node] - y0) * (x - x0)
                node = child0[node] if cross >= 0 else child1[node]
        accesses.append(node_packet[node])
        if region[node] < 0:
            raise QueryError(f"{point!r} outside the subdivided area")
        return QueryTrace(region[node], dedupe_consecutive(accesses))

    def __repr__(self) -> str:
        return (
            f"PagedTrapTree(packets={len(self.packets)}, "
            f"capacity={self.params.packet_capacity})"
        )
