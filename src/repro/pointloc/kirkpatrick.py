"""Kirkpatrick's planar point-location hierarchy — the trian-tree (§3.1).

Construction (paper Figure 3): the subdivision is triangulated (each data
region by ear clipping, plus the gap up to an enclosing super-triangle so
that every subdivision vertex becomes removable).  Then, repeatedly, an
independent set of low-degree non-corner vertices is removed; each removed
vertex's star is re-triangulated and every new triangle is linked to the
old triangles it overlaps.  The rounds stop when at most ``t_min``
triangles remain; those form the root level.

Search: scan the root triangles for the one containing the query point,
then repeatedly scan the current triangle's children (finer triangles it
overlaps) — each child test requires reading that child's node, which is
what makes the trian-tree's tuning time moderate on the broadcast channel.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import IndexBuildError, PagingError, QueryError
from repro.geometry.point import Point
from repro.geometry.predicates import quantize_point
from repro.geometry.triangulate import Triangle, triangulate_polygon
from repro.broadcast.packets import PacketStore, QueryTrace, dedupe_consecutive
from repro.broadcast.params import SystemParameters
from repro.tessellation.subdivision import Subdivision

#: Maximum vertex degree eligible for removal (Kirkpatrick's constant; any
#: value >= 7 guarantees a constant-fraction independent set in a planar
#: triangulation).
MAX_REMOVABLE_DEGREE = 10

VKey = Tuple[float, float]


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


class TrianTree:
    """Kirkpatrick's hierarchy over a subdivision."""

    def __init__(self, subdivision: Subdivision, t_min: int = 4) -> None:
        if t_min < 1:
            raise IndexBuildError(f"t_min must be >= 1, got {t_min}")
        self.subdivision = subdivision
        self.t_min = t_min
        #: Coarsest-level triangles — the entry point of the search.
        self.roots: List[TrianNode] = []
        self._build()

    @classmethod
    def build(
        cls, subdivision: Subdivision, *, seed: int = 0, t_min: int = 4
    ) -> "TrianTree":
        """Build the hierarchy — the :class:`~repro.engine.AirIndex`
        constructor.  The construction is deterministic; ``seed`` is
        accepted for protocol uniformity and ignored."""
        del seed
        return cls(subdivision, t_min=t_min)

    def page(self, params) -> "PagedTrianTree":
        """Allocate the hierarchy to fixed-capacity packets — the
        :class:`~repro.engine.AirIndex` paging step."""
        return PagedTrianTree(self, params)

    # -- construction -------------------------------------------------------------

    def _build(self) -> None:
        area = self.subdivision.service_area
        corners = _super_triangle_corners(area)
        corner_keys = {quantize_point(c) for c in corners}

        current: List[TrianNode] = []
        for region in self.subdivision.regions:
            for tri in triangulate_polygon(region.polygon.vertices):
                current.append(TrianNode(tri, region.region_id, 0))
        border_vertices = self._border_vertices()
        for tri in _gap_triangles(area, corners, border_vertices):
            current.append(TrianNode(tri, None, 0))

        round_index = 0
        while len(current) > self.t_min:
            round_index += 1
            removable = self._independent_set(current, corner_keys)
            if not removable:
                break  # no further coarsening possible
            coarser = self._remove_vertices(current, removable, round_index)
            if len(coarser) >= len(current):
                break  # every candidate failed; stop rather than spin
            current = coarser
        self.roots = current
        self.rounds = round_index

    def _border_vertices(self) -> List[Point]:
        """Every distinct subdivision vertex lying on the service-area
        border (the gap triangulation must conform to them)."""
        area = self.subdivision.service_area
        seen: Dict[VKey, Point] = {}
        for region in self.subdivision.regions:
            for v in region.polygon.vertices:
                if (
                    abs(v.x - area.min_x) < 1e-9
                    or abs(v.x - area.max_x) < 1e-9
                    or abs(v.y - area.min_y) < 1e-9
                    or abs(v.y - area.max_y) < 1e-9
                ):
                    seen.setdefault(quantize_point(v), v)
        return list(seen.values())

    @staticmethod
    def _vertex_stars(
        nodes: Sequence[TrianNode],
    ) -> Dict[VKey, List[TrianNode]]:
        stars: Dict[VKey, List[TrianNode]] = defaultdict(list)
        for node in nodes:
            for v in node.triangle.vertices:
                stars[quantize_point(v)].append(node)
        return stars

    def _independent_set(
        self, nodes: Sequence[TrianNode], corner_keys: Set[VKey]
    ) -> Dict[VKey, List[TrianNode]]:
        """Greedy independent set of removable low-degree vertices, with
        their stars."""
        stars = self._vertex_stars(nodes)
        neighbors: Dict[VKey, Set[VKey]] = defaultdict(set)
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
        chosen: Dict[VKey, List[TrianNode]] = {}
        blocked: Set[VKey] = set()
        for key in candidates:
            if key in blocked:
                continue
            chosen[key] = stars[key]
            blocked.add(key)
            blocked.update(neighbors[key])
        return chosen

    def _remove_vertices(
        self,
        nodes: List[TrianNode],
        removable: Dict[VKey, List[TrianNode]],
        round_index: int,
    ) -> List[TrianNode]:
        removed_nodes: Set[int] = set()
        new_nodes: List[TrianNode] = []
        for key, star in removable.items():
            ring = _star_ring(key, star)
            if ring is None:
                continue  # open star (should not happen inside the super-triangle)
            try:
                hole_triangles = triangulate_polygon(ring)
            except Exception:
                continue  # keep the vertex if its hole resists ear clipping
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

    # -- queries ----------------------------------------------------------------

    def locate(self, p: Point) -> int:
        """Data region containing *p* (hierarchy descent)."""
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

    # -- structure accessors --------------------------------------------------------

    def nodes_level_order(self) -> List[TrianNode]:
        """All nodes in topological order (every parent before each child)
        — the broadcast order.

        Plain breadth-first order is not enough: overlap links can skip
        coarsening rounds, so a child reached early via a short path could
        otherwise precede one of its (deeper) parents on the channel.
        """
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

    @property
    def node_count(self) -> int:
        return len(self.nodes_level_order())


def _first_containing(
    nodes: Sequence[TrianNode], p: Point
) -> Optional[TrianNode]:
    for node in nodes:
        if node.triangle.contains_point(p):
            return node
    return None


def _super_triangle_corners(area) -> Tuple[Point, Point, Point]:
    """A triangle comfortably containing the service area."""
    w, h = area.width, area.height
    return (
        Point(area.min_x - 1.5 * w, area.min_y - h),
        Point(area.max_x + 1.5 * w, area.min_y - h),
        Point((area.min_x + area.max_x) / 2.0, area.max_y + 2.5 * h),
    )


def _gap_triangles(
    area,
    corners: Tuple[Point, Point, Point],
    border_vertices: Sequence[Point],
) -> List[Triangle]:
    """Conforming triangulation of the annulus between the service
    rectangle and the super-triangle.

    Each rectangle side is fanned from an outer corner that sees the whole
    side, with the fan split at every subdivision vertex on that side (so
    the triangulation is edge-to-edge with the subdivision's own
    triangles); three corner triangles stitch the fans together.
    """
    t0, t1, t2 = corners
    c0 = Point(area.min_x, area.min_y)
    c1 = Point(area.max_x, area.min_y)
    c2 = Point(area.max_x, area.max_y)
    c3 = Point(area.min_x, area.max_y)

    def side_points(fixed: str, value: float, key, reverse: bool) -> List[Point]:
        pts = {
            quantize_point(p): p
            for p in border_vertices
            if abs(getattr(p, fixed) - value) < 1e-9
        }
        for corner in (c0, c1, c2, c3):
            if abs(getattr(corner, fixed) - value) < 1e-9:
                pts.setdefault(quantize_point(corner), corner)
        return sorted(pts.values(), key=key, reverse=reverse)

    bottom = side_points("y", area.min_y, key=lambda p: p.x, reverse=False)
    right = side_points("x", area.max_x, key=lambda p: p.y, reverse=False)
    top = side_points("y", area.max_y, key=lambda p: p.x, reverse=True)
    left = side_points("x", area.min_x, key=lambda p: p.y, reverse=True)

    triangles: List[Triangle] = []
    for apex, chain in ((t0, bottom), (t1, right), (t2, top), (t0, left)):
        for a, b in zip(chain, chain[1:]):
            triangles.append(Triangle(apex, a, b))
    triangles.append(Triangle(t0, t1, c1))
    triangles.append(Triangle(t1, t2, c2))
    triangles.append(Triangle(t2, t0, c3))

    total = sum(t.area for t in triangles)
    expected = Triangle(t0, t1, t2).area - area.area
    if abs(total - expected) > 1e-6 * max(expected, 1.0):
        raise IndexBuildError("gap triangulation does not tile the annulus")
    return triangles


def _star_ring(key: VKey, star: Sequence[TrianNode]) -> Optional[List[Point]]:
    """Ordered ring of the neighbours of a vertex, from its star triangles.

    Each star triangle contributes the edge opposite the vertex; chaining
    those edges yields the hole polygon left by the removal.  Returns None
    when the edges do not close a single ring.
    """
    edges: List[Tuple[Point, Point]] = []
    for node in star:
        verts = [
            v for v in node.triangle.vertices if quantize_point(v) != key
        ]
        if len(verts) != 2:
            return None
        edges.append((verts[0], verts[1]))
    if len(edges) < 3:
        return None

    adjacency: Dict[VKey, List[Tuple[Point, int]]] = defaultdict(list)
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


class PagedTrianTree:
    """The trian-tree packed greedily in level order (§5: top-down paging
    is impractical for a multi-parent DAG, so nodes fill packets greedily
    as they are traversed breadth-first)."""

    def __init__(self, tree: TrianTree, params: SystemParameters) -> None:
        self.tree = tree
        self.params = params
        self._store = PacketStore(params.packet_capacity)
        self._node_packet: Dict[int, int] = {}
        self._order = tree.nodes_level_order()
        self._allocate()
        self.packets = self._store.packets

    def node_size(self, node: TrianNode) -> int:
        """Triangle (3 coordinate pairs) + bid + one pointer per child (or
        one data pointer at level 0)."""
        p = self.params
        pointers = max(1, len(node.children))
        return p.bid_size + 3 * p.coordinate_size + pointers * p.pointer_size

    def root_directory_size(self) -> int:
        """The root directory: bid + a pointer per coarsest triangle."""
        return self.params.bid_size + len(self.tree.roots) * self.params.pointer_size

    def _allocate(self) -> None:
        capacity = self.params.packet_capacity
        packet = self._store.new_packet()
        size = self.root_directory_size()
        if size > capacity:
            # The directory spans packets; charge whole packets for it.
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
            # Labelled by level-order ordinal (the broadcast order), so
            # equal DAGs page to equal packet contents.
            packet.allocate(size, f"trinode#{ordinal}")
            self._node_packet[id(node)] = packet.packet_id

    def __getstate__(self) -> dict:
        """Make the paged DAG picklable (fleet workers under ``spawn``).

        ``_node_packet`` is keyed by ``id(node)``, so it is shipped as a
        packet list aligned with ``self._order`` (whose elements pickle
        identity-consistently with the tree via the pickle memo) and
        re-keyed on restore.  The compiled node arrays
        (``repro.engine.trace``) are dropped: workers rebuild or attach
        them from a shared-memory arena.
        """
        state = dict(self.__dict__)
        state.pop("_compiled_trian", None)
        state["_node_packet"] = [
            self._node_packet[id(node)] for node in self._order
        ]
        return state

    def __setstate__(self, state: dict) -> None:
        packets_ordered = state.pop("_node_packet")
        self.__dict__.update(state)
        self._node_packet = {
            id(node): packet
            for node, packet in zip(self._order, packets_ordered)
        }

    def trace(self, point: Point) -> QueryTrace:
        """Traced descent: each candidate triangle test reads its node."""
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
        """Sequentially test candidates, reading each node's packet, in
        broadcast order (so the channel is only ever read forward)."""
        ordered = sorted(candidates, key=lambda n: self._node_packet[id(n)])
        for node in ordered:
            accesses.append(self._node_packet[id(node)])
            if node.triangle.contains_point(point):
                return node
        return None

    def __repr__(self) -> str:
        return (
            f"PagedTrianTree(packets={len(self.packets)}, "
            f"capacity={self.params.packet_capacity})"
        )
