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

import numpy as np

from repro.errors import GeometryError, IndexBuildError, PagingError, QueryError
from repro.geometry.kernels import ragged_ranges
from repro.geometry.point import Point
from repro.geometry.predicates import EPS, quantize_point
from repro.geometry.triangulate import Triangle, ear_clip
from repro.broadcast.packets import PacketStore, QueryTrace, dedupe_consecutive
from repro.broadcast.params import SystemParameters
from repro.tessellation.subdivision import Subdivision, vertex_key

#: Maximum vertex degree eligible for removal (Kirkpatrick's constant; any
#: value >= 7 guarantees a constant-fraction independent set in a planar
#: triangulation).
MAX_REMOVABLE_DEGREE = 10


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
        """The rounds of Figure 3 on integer ids.

        Every point is keyed once (:class:`_Vertices`); a level is an
        ``(n, 3)`` point-id array in the vertex order each
        :class:`Triangle` stores, with ``current`` naming the level's
        rows in ``triangles``, every triangle the build made.  A round
        removes an independent set of vertices, re-triangulates their
        holes and links every new triangle to the star triangles it
        overlaps; the :class:`TrianNode` DAG is made once, at the end.
        """
        vertices, level, regions = _base_level(self.subdivision)
        triangles: List[Tuple[int, int, int]] = list(map(tuple, level.tolist()))
        rounds: List[int] = [0] * len(triangles)
        children: Dict[int, List[int]] = {}
        current = np.arange(len(triangles))

        round_index = 0
        while len(current) > self.t_min:
            round_index += 1
            vertex_level = vertices.vid[level]
            stars = _vertex_stars(vertex_level, len(vertices.corner))
            removable = _independent_set(vertex_level, stars, vertices)
            if not removable:
                break  # no further coarsening possible
            removed, new_rows, links = _remove_vertices(
                level, vertex_level, stars, removable, vertices
            )
            survivors = ~removed
            if int(survivors.sum()) + len(new_rows) >= len(current):
                break  # every candidate failed; stop rather than spin
            new_ids = np.arange(len(triangles), len(triangles) + len(new_rows))
            for tri_id, linked in zip(new_ids.tolist(), links):
                children[tri_id] = current[linked].tolist()
            triangles.extend(new_rows)
            rounds.extend([round_index] * len(new_rows))
            current = np.concatenate((current[survivors], new_ids))
            level = np.concatenate(
                (level[survivors], np.asarray(new_rows, np.int64).reshape(-1, 3))
            )

        points = vertices.points
        regions.extend([None] * (len(triangles) - len(regions)))
        nodes = [
            TrianNode(
                Triangle.from_ccw(points[a], points[b], points[c]), region, r
            )
            for (a, b, c), region, r in zip(triangles, regions, rounds)
        ]
        for tri_id, linked in children.items():
            nodes[tri_id].children = [nodes[i] for i in linked]
        self.roots = [nodes[i] for i in current.tolist()]
        self.rounds = round_index

    def _border_vertices(self) -> List[Point]:
        """Every distinct subdivision vertex lying on the service-area
        border (the gap triangulation must conform to them)."""
        table = self.subdivision.edge_table()
        return _border_points(
            self.subdivision.service_area, table, *_coordinates(table.points)
        )

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


class _Vertices:
    """Every point of a build, keyed once.

    A vertex id numbers a ``round``-based key
    (:func:`~repro.tessellation.subdivision.vertex_key`): the edge
    table's vertex ids, then the super-triangle corners.  A point id
    numbers a distinct (vertex, coordinates) pair, and a level holds
    point ids: a key almost always has one coordinate pair, but the gap
    triangulation uses the exact service-area corners, which a region's
    corner vertex may miss in the last bit.  Stars, the independent set
    and ring closure read vertex ids (``vid[point]``); ear clipping and
    the overlap test read coordinates (``x[point]``, ``y[point]``), so
    every triangle keeps the coordinates the scalar construction gives
    it.  Removal never creates a point, so the ids hold for the whole
    build.
    """

    __slots__ = ("points", "vid", "x", "y", "qx", "qy", "corner")

    def __init__(self, points, vid, x, y, keys, corners) -> None:
        self.points: List[Point] = points
        self.vid = vid
        self.x = x
        self.y = y
        self.qx = np.fromiter((k.real for k in keys), np.float64, len(keys))
        self.qy = np.fromiter((k.imag for k in keys), np.float64, len(keys))
        self.corner = np.zeros(len(keys), bool)
        self.corner[corners] = True


def _base_level(
    subdivision: Subdivision,
) -> Tuple[_Vertices, np.ndarray, List[Optional[int]]]:
    """Level 0: each region's ear-clipped triangles (regions in order),
    then the gap triangles up to the super-triangle, as an ``(n, 3)``
    point-id array, with each triangle's region (None in the gap)."""
    area = subdivision.service_area
    table = subdivision.edge_table()
    corners = _super_triangle_corners(area)
    x, y = _coordinates(table.points)
    gap = _gap_triangles(area, corners, _border_points(area, table, x, y))
    ids = dict(table.vertex_ids)
    gap_points = [v for tri in gap for v in tri.vertices]
    gap_vids = [ids.setdefault(vertex_key(v), len(ids)) for v in gap_points]
    every = table.points + gap_points
    gap_x, gap_y = _coordinates(gap_points)
    x = np.concatenate((x, gap_x))
    y = np.concatenate((y, gap_y))
    vids = np.concatenate((table.vertex, np.asarray(gap_vids, np.int32)))
    distinct, first, point_of = np.unique(
        np.stack((vids, x.view(np.int64), y.view(np.int64)), axis=1),
        axis=0,
        return_index=True,
        return_inverse=True,
    )
    point_of = point_of.reshape(-1)
    vertices = _Vertices(
        [every[i] for i in first.tolist()],
        distinct[:, 0],
        distinct[:, 1].view(np.float64),
        distinct[:, 2].view(np.float64),
        list(ids),
        [ids[vertex_key(c)] for c in corners],
    )

    rows: List[Tuple[int, int, int]] = []
    regions: List[Optional[int]] = []
    entry_point = point_of.tolist()
    xs = x.tolist()
    ys = y.tolist()
    offsets = table.offsets.tolist()
    for row, region in enumerate(subdivision.regions):
        lo, hi = offsets[row], offsets[row + 1]
        ring = entry_point[lo:hi]
        for i, j, k in ear_clip(xs[lo:hi], ys[lo:hi]):
            rows.append((ring[i], ring[j], ring[k]))
        regions.extend([region.region_id] * (len(rows) - len(regions)))
    gap_rows = point_of[len(table.points) :].reshape(-1, 3)
    regions.extend([None] * len(gap_rows))
    level = np.concatenate((np.asarray(rows, np.int64).reshape(-1, 3), gap_rows))
    return vertices, level, regions


def _coordinates(points: Sequence[Point]) -> Tuple[np.ndarray, np.ndarray]:
    n = len(points)
    return (
        np.fromiter((p.x for p in points), np.float64, n),
        np.fromiter((p.y for p in points), np.float64, n),
    )


def _border_points(area, table, x: np.ndarray, y: np.ndarray) -> List[Point]:
    """Every distinct table vertex on the border of the service *area*
    (*x*, *y* are the entries' coordinates): the point of its first
    border entry, in entry order."""
    on = np.flatnonzero(
        (np.abs(x - area.min_x) < 1e-9)
        | (np.abs(x - area.max_x) < 1e-9)
        | (np.abs(y - area.min_y) < 1e-9)
        | (np.abs(y - area.max_y) < 1e-9)
    )
    first = np.sort(np.unique(table.vertex[on], return_index=True)[1])
    return [table.points[k] for k in on[first].tolist()]


def _vertex_stars(
    vertex_level: np.ndarray, n_vertices: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Every vertex's star as a CSR over the level's corner slots.

    Returns ``(offsets, slots)``: vertex ``v``'s star is the slots
    ``slots[offsets[v]:offsets[v + 1]]`` of ``vertex_level.ravel()``, in
    level order (slot ``s`` is corner ``s % 3`` of triangle ``s // 3``),
    so its degree is ``offsets[v + 1] - offsets[v]``.
    """
    flat = vertex_level.ravel()
    offsets = np.zeros(n_vertices + 1, np.int64)
    np.cumsum(np.bincount(flat, minlength=n_vertices), out=offsets[1:])
    return offsets, np.argsort(flat, kind="stable")


def _independent_set(
    vertex_level: np.ndarray,
    stars: Tuple[np.ndarray, np.ndarray],
    vertices: _Vertices,
) -> List[int]:
    """Greedy independent set of removable low-degree vertices: the
    non-corner vertices of degree at most :data:`MAX_REMOVABLE_DEGREE`,
    in order of (degree, key), each taken unless a chosen vertex shares
    a triangle with it."""
    offsets, slots = stars
    degree = np.diff(offsets)
    candidates = np.flatnonzero(
        (degree > 0) & (degree <= MAX_REMOVABLE_DEGREE) & ~vertices.corner
    )
    candidates = candidates[
        np.lexsort(
            (vertices.qy[candidates], vertices.qx[candidates], degree[candidates])
        )
    ]
    # The corners of v's star triangles: near[offsets[v] : offsets[v + 1]].
    near = vertex_level[slots // 3]
    bounds = offsets.tolist()
    chosen: List[int] = []
    blocked: Set[int] = set()
    for v in candidates.tolist():
        if v in blocked:
            continue
        chosen.append(v)
        blocked.update(near[bounds[v] : bounds[v + 1]].ravel().tolist())
    return chosen


def _remove_vertices(
    level: np.ndarray,
    vertex_level: np.ndarray,
    stars: Tuple[np.ndarray, np.ndarray],
    removable: Sequence[int],
    vertices: _Vertices,
) -> Tuple[np.ndarray, List[Tuple[int, int, int]], List[List[int]]]:
    """Remove *removable* from the level: ``(removed, new, links)``.

    ``removed`` masks the level triangles of the removed stars; ``new``
    holds the re-triangulated holes (point-id triples), star by star,
    and ``links[i]`` the level rows of the star triangles ``new[i]``
    overlaps, in star order.  A vertex whose star does not close one
    ring, or whose hole resists ear clipping, stays.
    """
    offsets, slots = stars
    chosen = np.asarray(removable, np.int64)
    degree = offsets[chosen + 1] - offsets[chosen]
    flat, _, first = ragged_ranges(offsets[chosen], degree)
    star_slots = slots[flat]
    tri = star_slots // 3
    # Each star triangle's two other corners, in its stored order.
    at = star_slots % 3
    cols = ((at == 0).astype(np.int64), 2 - (at == 2))
    first_v, second_v = (vertex_level[tri, c].tolist() for c in cols)
    first_p, second_p = (level[tri, c].tolist() for c in cols)
    tri_list = tri.tolist()
    bounds = np.append(first, len(flat)).tolist()
    xs = vertices.x.tolist()
    ys = vertices.y.tolist()
    removed = np.zeros(len(level), bool)
    new: List[Tuple[int, int, int]] = []
    pair_new: List[int] = []
    pair_old: List[int] = []
    for s in range(len(removable)):
        lo, hi = bounds[s], bounds[s + 1]
        ring = _star_ring(
            first_v[lo:hi], second_v[lo:hi], first_p[lo:hi], second_p[lo:hi]
        )
        if ring is None:
            continue  # open star (should not happen inside the super-triangle)
        try:
            hole = ear_clip([xs[u] for u in ring], [ys[u] for u in ring])
        except GeometryError:
            continue  # keep the vertex if its hole resists ear clipping
        star = tri_list[lo:hi]
        removed[star] = True
        for i, j, k in hole:
            pair_new.extend([len(new)] * len(star))
            pair_old.extend(star)
            new.append((ring[i], ring[j], ring[k]))
    if not new:
        return removed, new, []
    pair_new_arr = np.asarray(pair_new, np.int64)
    pair_old_arr = np.asarray(pair_old, np.int64)
    new_rows = np.asarray(new, np.int64)[pair_new_arr]
    old_rows = level[pair_old_arr]
    x, y = vertices.x, vertices.y
    overlap = _overlaps_interior(x[new_rows], y[new_rows], x[old_rows], y[old_rows])
    linked = np.bincount(pair_new_arr[overlap], minlength=len(new))
    if not linked.all():
        raise IndexBuildError("re-triangulated triangle overlaps none of the star")
    linked_old = pair_old_arr[overlap].tolist()
    ends = np.cumsum(linked).tolist()
    return removed, new, [linked_old[a:b] for a, b in zip([0] + ends, ends)]


def _overlaps_interior(
    ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray
) -> np.ndarray:
    """:meth:`Triangle.overlaps_interior` for every pair of rows of the
    ``(P, 3)`` coordinate arrays: the same separating-axis test on the six
    edge normals, each projection ``nx * x + ny * y`` and each ``EPS``
    comparison the scalar test's float arithmetic, element by element."""
    a = (list(ax.T), list(ay.T))
    b = (list(bx.T), list(by.T))
    separated = np.zeros(len(ax), bool)
    for (ux, uy), (vx, vy) in ((a, b), (b, a)):
        for i in range(3):
            j = (i + 1) % 3
            nx = uy[j] - uy[i]
            ny = ux[i] - ux[j]
            proj1 = [nx * ux[k] + ny * uy[k] for k in range(3)]
            proj2 = [nx * vx[k] + ny * vy[k] for k in range(3)]
            min1 = np.minimum(np.minimum(proj1[0], proj1[1]), proj1[2])
            max1 = np.maximum(np.maximum(proj1[0], proj1[1]), proj1[2])
            min2 = np.minimum(np.minimum(proj2[0], proj2[1]), proj2[2])
            max2 = np.maximum(np.maximum(proj2[0], proj2[1]), proj2[2])
            separated |= (min2 >= max1 - EPS) | (min1 >= max2 - EPS)
    return ~separated


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


def _star_ring(
    first: Sequence[int],
    second: Sequence[int],
    first_point: Sequence[int],
    second_point: Sequence[int],
) -> Optional[List[int]]:
    """Ordered ring of the neighbours of a vertex, from its star.

    Star triangle ``i`` contributes the edge opposite the vertex, from
    vertex ``first[i]`` to ``second[i]`` (at points ``first_point[i]``
    and ``second_point[i]``); chaining those edges, from ``first[0]``
    along edge 0, yields the hole polygon left by the removal, as the
    points of the edges it walks.  Returns None when the edges do not
    close a single ring.
    """
    if len(first) < 3:
        return None
    adjacency: Dict[int, List[Tuple[int, int, int]]] = defaultdict(list)
    for idx, (a, b) in enumerate(zip(first, second)):
        adjacency[a].append((b, second_point[idx], idx))
        adjacency[b].append((a, first_point[idx], idx))
    if any(len(v) != 2 for v in adjacency.values()):
        return None
    used = [False] * len(first)
    current = first[0]
    ring = [first_point[0]]
    for _ in range(len(first)):
        for other, point, idx in adjacency[current]:
            if not used[idx]:
                break
        else:
            return None
        used[idx] = True
        ring.append(point)
        current = other
    if current != first[0] or not all(used):
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
