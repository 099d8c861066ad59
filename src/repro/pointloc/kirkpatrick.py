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
from functools import cached_property
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


class TrianTree:
    """Kirkpatrick's hierarchy over a subdivision.

    The nodes are numbered once, in broadcast order (every parent before
    each of its children; packet label ``trinode#k``).  Node ``k`` is the
    triangle with CCW vertices ``(x[k, i], y[k, i])``, ``i = 0, 1, 2``,
    made in round ``round_index[k]`` (0 for the base triangulation), with
    data ``region[k]`` (-1 for gap triangles and every coarser level).
    Its children, the finer triangles it overlaps, are the ordinals
    ``children[child_offsets[k] : child_offsets[k + 1]]`` in link order,
    and ``roots`` holds the coarsest triangles, the entry point of the
    search.
    """

    def __init__(self, subdivision: Subdivision, t_min: int = 4) -> None:
        if t_min < 1:
            raise IndexBuildError(f"t_min must be >= 1, got {t_min}")
        self.subdivision = subdivision
        self.t_min = t_min
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
        ``(n, 3)`` point-id array in the vertex order a CCW
        :class:`Triangle` stores, with ``current`` naming the level's
        rows by build id, a triangle's row in ``made``, every triangle
        the build made, round by round.  A round removes an independent
        set of vertices, re-triangulates their holes and links every new
        triangle to the star triangles it overlaps.  The nodes reachable
        from the last level are then numbered in broadcast order
        (:func:`_broadcast_order`).
        """
        vertices, level, regions = _base_level(self.subdivision)
        # The child CSR by build id: link counts, and links in id order.
        made = [level]
        link_counts = [np.zeros(len(level), np.int64)]
        links = [np.zeros(0, np.int64)]
        current = np.arange(len(level))

        round_index = 0
        while len(current) > self.t_min:
            round_index += 1
            vertex_level = vertices.vid[level]
            stars = _vertex_stars(vertex_level, len(vertices.corner))
            removable = _independent_set(vertex_level, stars, vertices)
            if not removable:
                break  # no further coarsening possible
            removed, new_rows, linked, linked_rows = _remove_vertices(
                level, vertex_level, stars, removable, vertices
            )
            survivors = ~removed
            if int(survivors.sum()) + len(new_rows) >= len(current):
                break  # every candidate failed; stop rather than spin
            first_id = sum(map(len, made))
            new_ids = np.arange(first_id, first_id + len(new_rows))
            new_level = np.asarray(new_rows, np.int64).reshape(-1, 3)
            made.append(new_level)
            link_counts.append(linked)
            links.append(current[linked_rows])
            current = np.concatenate((current[survivors], new_ids))
            level = np.concatenate((level[survivors], new_level))

        counts = np.concatenate(link_counts)
        offsets = np.zeros(len(counts) + 1, np.int64)
        np.cumsum(counts, out=offsets[1:])
        links = np.concatenate(links)
        order = _broadcast_order(offsets, links, current.tolist())
        ids = np.asarray(order, np.int64)
        ordinal = np.zeros(len(counts), np.int32)
        ordinal[ids] = np.arange(len(ids), dtype=np.int32)
        points = np.concatenate(made)[ids]
        self.x = vertices.x[points]
        self.y = vertices.y[points]
        region = np.full(len(counts), -1, np.int32)
        region[: len(regions)] = regions
        self.region = region[ids]
        rounds = np.arange(len(made), dtype=np.int32)
        self.round_index = np.repeat(rounds, list(map(len, made)))[ids]
        self.child_offsets = np.zeros(len(ids) + 1, np.int64)
        np.cumsum(counts[ids], out=self.child_offsets[1:])
        flat, _, _ = ragged_ranges(offsets[ids], counts[ids])
        self.children = ordinal[links[flat]]
        self.roots = ordinal[current]
        self.rounds = round_index

    def _border_vertices(self) -> List[Point]:
        """Every distinct subdivision vertex lying on the service-area
        border (the gap triangulation must conform to them)."""
        table = self.subdivision.edge_table()
        return _border_points(
            self.subdivision.service_area, table, *_coordinates(table.points)
        )

    # -- queries ----------------------------------------------------------------

    @cached_property
    def _lists(self) -> tuple:
        """Python-list mirrors of the node arrays for the scalar walks."""
        return (
            (self.x.tolist(), self.y.tolist()),
            self.region.tolist(),
            self.child_offsets.tolist(),
            self.children.tolist(),
            self.roots.tolist(),
        )

    def locate(self, p: Point) -> int:
        """Data region containing *p* (hierarchy descent, children in
        link order)."""
        triangles, region, bounds, children, roots = self._lists
        at = _first_hit(triangles, roots, p.x, p.y)
        if at == len(roots):
            raise QueryError(f"{p!r} outside the super-triangle")
        node = roots[at]
        while bounds[node + 1] > bounds[node]:
            candidates = children[bounds[node] : bounds[node + 1]]
            at = _first_hit(triangles, candidates, p.x, p.y)
            if at == len(candidates):
                raise QueryError(
                    f"hierarchy descent lost {p!r} (corrupt trian-tree)"
                )
            node = candidates[at]
        if region[node] < 0:
            raise QueryError(f"{p!r} outside the subdivided area")
        return region[node]

    def __getstate__(self) -> dict:
        """Pickle the node arrays without their list mirrors."""
        state = dict(self.__dict__)
        state.pop("_lists", None)
        return state


def _broadcast_order(
    offsets: np.ndarray, links: np.ndarray, roots: Sequence[int]
) -> List[int]:
    """The nodes reachable from *roots*, every parent before each child.

    Node ``v``'s children are ``links[offsets[v] : offsets[v + 1]]``.
    Plain breadth-first order is not enough: overlap links can skip
    coarsening rounds, so a child reached early via a short path could
    otherwise precede one of its (deeper) parents on the channel.  So
    this is Kahn's algorithm with a FIFO frontier, from the roots of
    in-degree 0 in their order, children in link order and in-degrees
    counted per edge from reachable parents.
    """
    bounds = offsets.tolist()
    kids = links.tolist()
    indegree = [0] * (len(bounds) - 1)
    seen = [False] * (len(bounds) - 1)
    reachable = 0
    stack = list(roots)
    while stack:
        node = stack.pop()
        if seen[node]:
            continue
        seen[node] = True
        reachable += 1
        below = kids[bounds[node] : bounds[node + 1]]
        for child in below:
            indegree[child] += 1
        stack.extend(below)
    order = [root for root in roots if indegree[root] == 0]
    for node in order:  # the list is its own FIFO queue
        for child in kids[bounds[node] : bounds[node + 1]]:
            indegree[child] -= 1
            if indegree[child] == 0:
                order.append(child)
    if len(order) != reachable:
        raise IndexBuildError("trian-tree hierarchy is not a DAG")
    return order


def _first_hit(triangles: tuple, candidates: Sequence[int], x, y) -> int:
    """Position in *candidates* of the first node whose closed triangle
    contains ``(x, y)``, or ``len(candidates)``: the three orientation
    tests of :meth:`Triangle.contains_point`, IEEE-754 expression order
    verbatim, over the coordinate lists ``triangles = (x, y)``.  A test
    fails only below ``-EPS``, as
    :func:`~repro.geometry.predicates.orientation` reads it, so a NaN
    cross product passes there too."""
    tx, ty = triangles
    for at, node in enumerate(candidates):
        ax, bx, cx = tx[node]
        ay, by, cy = ty[node]
        if not (
            (bx - ax) * (y - ay) - (by - ay) * (x - ax) < -EPS
            or (cx - bx) * (y - by) - (cy - by) * (x - bx) < -EPS
            or (ax - cx) * (y - cy) - (ay - cy) * (x - cx) < -EPS
        ):
            return at
    return len(candidates)


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
) -> Tuple[_Vertices, np.ndarray, List[int]]:
    """Level 0: each region's ear-clipped triangles (regions in order),
    then the gap triangles up to the super-triangle, as an ``(n, 3)``
    point-id array, with each triangle's region (-1 in the gap)."""
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
    regions: List[int] = []
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
    regions.extend([-1] * len(gap_rows))
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
) -> Tuple[np.ndarray, List[Tuple[int, int, int]], np.ndarray, np.ndarray]:
    """Remove *removable* from the level: ``(removed, new, linked, rows)``.

    ``removed`` masks the level triangles of the removed stars; ``new``
    holds the re-triangulated holes (point-id triples), star by star;
    ``new[i]`` overlaps ``linked[i]`` star triangles, and ``rows`` lists
    their level rows, ``new[0]``'s first, each in star order.  A vertex
    whose star does not close one ring, or whose hole resists ear
    clipping, stays.
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
        return removed, new, np.zeros(0, np.int64), np.zeros(0, np.int64)
    pair_new_arr = np.asarray(pair_new, np.int64)
    pair_old_arr = np.asarray(pair_old, np.int64)
    new_rows = np.asarray(new, np.int64)[pair_new_arr]
    old_rows = level[pair_old_arr]
    x, y = vertices.x, vertices.y
    overlap = _overlaps_interior(x[new_rows], y[new_rows], x[old_rows], y[old_rows])
    linked = np.bincount(pair_new_arr[overlap], minlength=len(new))
    if not linked.all():
        raise IndexBuildError("re-triangulated triangle overlaps none of the star")
    return removed, new, linked, pair_old_arr[overlap]


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
    """The trian-tree packed greedily in broadcast order (§5: top-down
    paging is impractical for a multi-parent DAG, so nodes fill packets
    greedily as they are traversed breadth-first).

    ``node_packet[k]`` is node ``k``'s packet.  The scan order is the
    order a descent reads candidates in, so the channel is only ever
    read forward: ``scan[scan_offsets[k] : scan_offsets[k + 1]]`` are
    node ``k``'s children stably sorted by packet, and one more entry,
    ``k = len(node_packet)``, lists the roots for the root directory.
    """

    def __init__(self, tree: TrianTree, params: SystemParameters) -> None:
        self.tree = tree
        self.params = params
        self._store = PacketStore(params.packet_capacity)
        self._allocate()
        self.packets = self._store.packets
        offsets = np.append(tree.child_offsets, len(tree.children) + len(tree.roots))
        entries = np.concatenate((tree.children, tree.roots))
        owner = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
        self.scan_offsets = offsets
        self.scan = entries[np.lexsort((self.node_packet[entries], owner))]

    def node_size(self, children: int) -> int:
        """A node with *children* children: triangle (3 coordinate pairs)
        + bid + one pointer per child (or one data pointer at level 0)."""
        p = self.params
        return p.bid_size + 3 * p.coordinate_size + max(1, children) * p.pointer_size

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
        counts = np.diff(self.tree.child_offsets).tolist()
        sizes = {count: self.node_size(count) for count in set(counts)}
        if sizes and max(sizes.values()) > capacity:
            raise PagingError("trian-tree node exceeds packet capacity")
        node_packet = []
        for ordinal, count in enumerate(counts):
            size = sizes[count]
            if size > packet.free:
                packet = self._store.new_packet()
            # Labelled by broadcast ordinal, so equal DAGs page to equal
            # packet contents.
            packet.allocate(size, f"trinode#{ordinal}")
            node_packet.append(packet.packet_id)
        self.node_packet = np.array(node_packet, np.int32)

    @cached_property
    def _lists(self) -> tuple:
        """Python-list mirrors of the scan order and packets."""
        return (
            self.scan_offsets.tolist(),
            self.scan.tolist(),
            self.node_packet.tolist(),
        )

    def __getstate__(self) -> dict:
        """Pickle without the derived state: the compiled node arrays
        (``repro.engine.trace``; fleet workers rebuild or attach them
        from a shared-memory arena) and the list mirrors."""
        state = dict(self.__dict__)
        state.pop("_compiled_trian", None)
        state.pop("_lists", None)
        return state

    def trace(self, point: Point) -> QueryTrace:
        """Traced descent: each candidate triangle test reads its node."""
        accesses: List[int] = [self._root_dir_packet]
        node = self._scan(len(self.node_packet), point, accesses)
        if node < 0:
            raise QueryError(f"{point!r} outside the super-triangle")
        bounds = self._lists[0]
        while bounds[node + 1] > bounds[node]:
            node = self._scan(node, point, accesses)
            if node < 0:
                raise QueryError(f"descent lost {point!r}")
        region = self.tree._lists[1][node]
        if region < 0:
            raise QueryError(f"{point!r} outside the subdivided area")
        return QueryTrace(region, dedupe_consecutive(accesses))

    def _scan(self, entry: int, point: Point, accesses: List[int]) -> int:
        """Test *entry*'s candidates in scan order, reading each one's
        packet, up to the first containing one (-1 when none does)."""
        bounds, scan, node_packet = self._lists
        candidates = scan[bounds[entry] : bounds[entry + 1]]
        at = _first_hit(self.tree._lists[0], candidates, point.x, point.y)
        accesses.extend(node_packet[node] for node in candidates[: at + 1])
        return candidates[at] if at < len(candidates) else -1

    def __repr__(self) -> str:
        return (
            f"PagedTrianTree(packets={len(self.packets)}, "
            f"capacity={self.params.packet_capacity})"
        )
