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
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import IndexBuildError, PagingError, QueryError
from repro.geometry.point import Point
from repro.geometry.segment import Segment
from repro.broadcast.packets import PacketStore, QueryTrace, dedupe_consecutive
from repro.broadcast.params import SystemParameters
from repro.tessellation.subdivision import Subdivision

#: Shear factor: far below the minimum feature scale of the datasets
#: (>= 1e-3 in the unit square) yet large enough to separate distinct
#: vertices sharing an x-coordinate.
SHEAR = 1e-7


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

    def point_above(self, pt: Point) -> bool:
        """True if *pt* is strictly above the segment's support line."""
        return _cross(self.p, self.q, pt) > 0.0

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
        self.leaf: Optional["_Leaf"] = None

    @property
    def region(self) -> Optional[int]:
        return self.bottom.above_region

    def __repr__(self) -> str:
        return (
            f"_Trapezoid(x=[{self.leftp.x:.4f},{self.rightp.x:.4f}], "
            f"region={self.region})"
        )


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

    def __init__(self, seg: _Seg) -> None:
        super().__init__()
        self.seg = seg
        self.above: Optional[_Node] = None
        self.below: Optional[_Node] = None


class _Leaf(_Node):
    __slots__ = ("trap",)

    def __init__(self, trap: _Trapezoid) -> None:
        super().__init__()
        self.trap = trap
        trap.leaf = self


def _set_child(parent: _Node, slot: str, child: _Node) -> None:
    setattr(parent, slot, child)
    child.parents.append((parent, slot))


class TrapTree:
    """The trapezoidal-map search structure over a subdivision."""

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
        first = _Trapezoid(top, bottom, lo, hi)
        self.root: _Node = _Leaf(first)

        for seg in segments:
            self._insert(seg)

    def _insert(self, s: _Seg) -> None:
        crossed = self._follow(s)
        if len(crossed) == 1:
            self._split_single(s, crossed[0])
        else:
            self._split_multi(s, crossed)

    # -- locating --------------------------------------------------------------

    def _descend(self, pt: Point, slope: Optional[float]) -> _Leaf:
        """DAG search with the insertion tie rules (slope is None for plain
        point queries)."""
        node = self.root
        while not isinstance(node, _Leaf):
            if isinstance(node, _XNode):
                # Pure x comparison, ties to the right: an insertion
                # endpoint or boundary probe always continues rightward
                # from the vertical line it sits on.  (The shear makes all
                # distinct vertices have distinct x.)
                node = node.right if pt.x >= node.point.x else node.left
            else:
                assert isinstance(node, _YNode)
                cross = _cross(node.seg.p, node.seg.q, pt)
                if cross > 0:
                    node = node.above
                elif cross < 0:
                    node = node.below
                else:
                    # pt on the segment's line: it is a shared left endpoint
                    # of the segment being inserted — compare slopes.
                    if slope is None or slope == node.seg.slope:
                        node = node.above
                    else:
                        node = node.above if slope > node.seg.slope else node.below
            if node is None:
                raise IndexBuildError("dangling DAG pointer")
        return node

    def _follow(self, s: _Seg) -> List[_Trapezoid]:
        """The trapezoids crossed by *s*, left to right."""
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

    # -- splitting ---------------------------------------------------------------

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

    def _split_single(self, s: _Seg, old: _Trapezoid) -> None:
        upper = _Trapezoid(old.top, s, s.p, s.q)
        lower = _Trapezoid(s, old.bottom, s.p, s.q)
        ynode = _YNode(s)
        _set_child(ynode, "above", _Leaf(upper))
        _set_child(ynode, "below", _Leaf(lower))
        subtree: _Node = ynode
        if s.q.x < old.rightp.x:
            right = _Trapezoid(old.top, old.bottom, s.q, old.rightp)
            xq = _XNode(s.q)
            _set_child(xq, "left", subtree)
            _set_child(xq, "right", _Leaf(right))
            subtree = xq
        if old.leftp.x < s.p.x:
            left = _Trapezoid(old.top, old.bottom, old.leftp, s.p)
            xp = _XNode(s.p)
            _set_child(xp, "left", _Leaf(left))
            _set_child(xp, "right", subtree)
            subtree = xp
        self._replace_leaf(old.leaf, subtree)

    def _split_multi(self, s: _Seg, crossed: Sequence[_Trapezoid]) -> None:
        first, last = crossed[0], crossed[-1]

        # Open upper/lower runs, merged while top/bottom stay the same.
        upper = _Trapezoid(first.top, s, s.p, s.q)
        lower = _Trapezoid(s, first.bottom, s.p, s.q)
        upper_leaf = _Leaf(upper)
        lower_leaf = _Leaf(lower)

        for i, old in enumerate(crossed):
            if i > 0:
                if old.top is not upper.top:
                    upper.rightp = old.leftp
                    upper = _Trapezoid(old.top, s, old.leftp, s.q)
                    upper_leaf = _Leaf(upper)
                if old.bottom is not lower.bottom:
                    lower.rightp = old.leftp
                    lower = _Trapezoid(s, old.bottom, old.leftp, s.q)
                    lower_leaf = _Leaf(lower)

            ynode = _YNode(s)
            _set_child(ynode, "above", upper_leaf)
            _set_child(ynode, "below", lower_leaf)
            subtree: _Node = ynode
            if old is last and s.q.x < old.rightp.x:
                right = _Trapezoid(old.top, old.bottom, s.q, old.rightp)
                xq = _XNode(s.q)
                _set_child(xq, "left", subtree)
                _set_child(xq, "right", _Leaf(right))
                subtree = xq
            if old is first and old.leftp.x < s.p.x:
                left = _Trapezoid(old.top, old.bottom, old.leftp, s.p)
                xp = _XNode(s.p)
                _set_child(xp, "left", _Leaf(left))
                _set_child(xp, "right", subtree)
                subtree = xp
            self._replace_leaf(old.leaf, subtree)

        # Close the final runs at the segment's right endpoint.
        upper.rightp = s.q
        lower.rightp = s.q

    # -- public API --------------------------------------------------------------

    def locate(self, p: Point) -> int:
        """Data region containing *p*."""
        leaf = self._descend(self.effective_point(p), None)
        region = leaf.trap.region
        if region is None:
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
        if self._descend(sheared, None).trap.region is not None:
            return sheared
        for factor in (1.0, -1.0, 2.0, -2.0):
            nudged = Point(sheared.x + factor * 1e-9, sheared.y + factor * 1e-9)
            if self._descend(nudged, None).trap.region is not None:
                return nudged
        return sheared

    def nodes_topological(self) -> List[_Node]:
        """All DAG nodes, every parent before each of its children."""
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

    def __getstate__(self) -> dict:
        """Serialize the DAG as a flat node table.

        Default recursive pickling overflows the interpreter stack on
        the node/parent-link chains of a realistic map, so the DAG is
        flattened to ``(kind, payload, child, child)`` rows indexed in
        topological order and rebuilt iteratively on restore.  The
        construction-only ``parents`` / ``trap.leaf`` back-references
        are re-established by the rebuild.
        """
        state = dict(self.__dict__)
        nodes = self.nodes_topological()
        index = {id(node): i for i, node in enumerate(nodes)}
        table: List[tuple] = []
        for node in nodes:
            if isinstance(node, _XNode):
                table.append(
                    ("x", node.point, index[id(node.left)], index[id(node.right)])
                )
            elif isinstance(node, _YNode):
                table.append(
                    ("y", node.seg, index[id(node.above)], index[id(node.below)])
                )
            else:
                trap = node.trap
                table.append(
                    (
                        "leaf",
                        (trap.top, trap.bottom, trap.leftp, trap.rightp),
                        None,
                        None,
                    )
                )
        state.pop("root")
        state["_dag_table"] = table
        return state

    def __setstate__(self, state: dict) -> None:
        table = state.pop("_dag_table")
        self.__dict__.update(state)
        nodes: List[_Node] = []
        for kind, payload, _, _ in table:
            if kind == "x":
                nodes.append(_XNode(payload))
            elif kind == "y":
                nodes.append(_YNode(payload))
            else:
                nodes.append(_Leaf(_Trapezoid(*payload)))
        for (kind, _, first, second), node in zip(table, nodes):
            if kind == "x":
                _set_child(node, "left", nodes[first])
                _set_child(node, "right", nodes[second])
            elif kind == "y":
                _set_child(node, "above", nodes[first])
                _set_child(node, "below", nodes[second])
        self.root = nodes[0]

    def node_counts(self) -> Dict[str, int]:
        """Number of x-nodes, y-nodes and leaves (diagnostics)."""
        counts = {"x": 0, "y": 0, "leaf": 0}
        for node in self.nodes_topological():
            if isinstance(node, _XNode):
                counts["x"] += 1
            elif isinstance(node, _YNode):
                counts["y"] += 1
            else:
                counts["leaf"] += 1
        return counts


def _children_of(node: _Node) -> List[_Node]:
    if isinstance(node, _XNode):
        return [c for c in (node.left, node.right) if c is not None]
    if isinstance(node, _YNode):
        return [c for c in (node.above, node.below) if c is not None]
    return []


def _shear(p: Point) -> Point:
    return Point(p.x + SHEAR * p.y, p.y)


class PagedTrapTree:
    """The trap-tree allocated to packets (top-down, topological order)."""

    def __init__(self, tree: TrapTree, params: SystemParameters) -> None:
        self.tree = tree
        self.params = params
        self._store = PacketStore(params.packet_capacity)
        self._node_packet: Dict[int, int] = {}
        self._allocate()
        self.packets = self._store.packets

    def node_size(self, node: _Node) -> int:
        """x-node: bid + one axis value + 2 pointers; y-node: bid + one
        segment (2 coordinate pairs) + 2 pointers; leaf: bid + data
        pointer."""
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
                # Monotonicity on the channel: place into the *latest*
                # parent packet so the node never precedes any parent.
                candidate = self._store.packets[max(parents)]
                if size <= candidate.free:
                    placed = candidate
            if placed is None:
                placed = self._store.new_packet()
            placed.allocate(size, f"trapnode#{ordinal}")
            self._node_packet[id(node)] = placed.packet_id
            for child in _children_of(node):
                parent_packets.setdefault(id(child), []).append(placed.packet_id)
        # root handling: ensure it landed in packet 0
        if self._node_packet[id(order[0])] != 0:
            raise PagingError("root not in the first packet")

    def __getstate__(self) -> dict:
        """Make the paged DAG picklable (fleet workers under ``spawn``).

        ``_node_packet`` is keyed by ``id(node)`` — meaningless in
        another process — so it is shipped as a packet list in the
        (structure-determined, hence pickle-stable) topological order
        and re-keyed against the unpickled node objects on restore.
        The compiled node arrays (``repro.engine.trace``) are dropped:
        workers rebuild or attach them from a shared-memory arena.
        """
        state = dict(self.__dict__)
        state.pop("_compiled_trap", None)
        state["_node_packet"] = [
            self._node_packet[id(node)]
            for node in self.tree.nodes_topological()
        ]
        return state

    def __setstate__(self, state: dict) -> None:
        packets_ordered = state.pop("_node_packet")
        self.__dict__.update(state)
        self._node_packet = {
            id(node): packet
            for node, packet in zip(
                self.tree.nodes_topological(), packets_ordered
            )
        }

    def trace(self, point: Point) -> QueryTrace:
        """Traced DAG descent (plain point query)."""
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
                cross = _cross(node.seg.p, node.seg.q, pt)
                node = node.above if cross >= 0 else node.below
        accesses.append(self._node_packet[id(node)])
        region = node.trap.region
        if region is None:
            raise QueryError(f"{point!r} outside the subdivided area")
        return QueryTrace(region, dedupe_consecutive(accesses))

    def __repr__(self) -> str:
        return (
            f"PagedTrapTree(packets={len(self.packets)}, "
            f"capacity={self.params.packet_capacity})"
        )
