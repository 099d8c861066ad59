"""Vectorized structure-of-arrays geometry kernels.

Every index family ultimately spends its time in a handful of geometric
predicates: ray-crossing containment, partition side tests and MBR
containment.  The scalar versions (:mod:`repro.geometry.predicates`,
:meth:`repro.geometry.polygon.Polygon.contains_point`,
:meth:`repro.core.partition.Partition.side_of`) answer one point per
Python call; the kernels here answer whole point batches as numpy array
sweeps over flattened edge arrays.

The contract of this module is **bit-for-bit scalar parity**: each
kernel replicates the arithmetic expressions of its scalar counterpart
in the same IEEE-754 operation order, so batched and per-point decisions
agree exactly — including boundary hits, shared vertices, collinear and
horizontal edges (property-tested in ``tests/test_geometry_kernels.py``
and ``tests/test_kernel_parity.py``).

The compiled containers are built once and cached on their scalar
counterparts (:meth:`Polygon.compiled`, :meth:`Subdivision.compiled`),
so repeated batch queries pay only for the array sweeps:

* :class:`CompiledPolygon` — flattened edge arrays of one polygon with
  ``classify_batch`` / ``contains_batch``;
* :class:`RegionEdges` — every region's boundary edges in one flat CSR
  table with the ragged (region, point) pair classification;
* :class:`CompiledSubdivision` — per-region compiled polygons, a
  bounding-box structure-of-arrays and a :class:`RegionEdges` table
  with ``locate_batch``, the batched equivalent of the brute-force
  :meth:`Subdivision.locate` oracle.

This module sits at the bottom of the geometry layer: it imports only
numpy, the scalar tolerance and the point types, and accepts the scalar
objects duck-typed (anything with ``vertices``/``regions``),
so higher layers can compile their structures without import cycles.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import QueryError
from repro.obs import active_collector
from repro.geometry.point import PointBatch
from repro.geometry.predicates import EPS

__all__ = [
    "point_coords",
    "orientation_batch",
    "cross_batch",
    "on_segment_batch",
    "rect_contains_batch",
    "mbrs_contain_batch",
    "point_segment_distance_batch",
    "ragged_ranges",
    "point_in_triangles_batch",
    "points_in_polygon",
    "CompiledPolygon",
    "RegionEdges",
    "CompiledSubdivision",
]


def point_coords(points: Sequence) -> Tuple[np.ndarray, np.ndarray]:
    """Structure-of-arrays coordinates ``(xs, ys)`` of a point sequence:
    a :class:`~repro.geometry.point.PointBatch`'s own (read-only)
    arrays, else one float64 array per axis gathered from the points."""
    if isinstance(points, PointBatch):
        return points.xs, points.ys
    n = len(points)
    xs = np.fromiter((p.x for p in points), np.float64, count=n)
    ys = np.fromiter((p.y for p in points), np.float64, count=n)
    return xs, ys


def orientation_batch(ax, ay, bx, by, cx, cy) -> np.ndarray:
    """Vectorized :func:`repro.geometry.predicates.orientation`.

    Broadcasts the three point coordinate sets and returns ``+1`` (CCW),
    ``-1`` (CW) or ``0`` (collinear within ``EPS``) per element, with
    the exact tolerance semantics of the scalar predicate.
    """
    cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    out = np.zeros(np.shape(cross), np.int8)
    out[cross > EPS] = 1
    out[cross < -EPS] = -1
    return out


def cross_batch(ax, ay, bx, by, cx, cy) -> np.ndarray:
    """Raw cross products ``(b - a) x (c - a)``, broadcasting.

    The shared sub-expression of :func:`orientation_batch` and the
    trap-tree's exact ``_cross`` y-node test, in the scalar IEEE-754
    operation order.  Callers apply their own sign/tolerance rule: the
    trap-tree compares the raw value to zero, the triangle test to
    ``-EPS``.
    """
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def point_in_triangles_batch(
    ax, ay, bx, by, cx, cy, px, py
) -> np.ndarray:
    """Vectorized :meth:`Triangle.contains_point` (closed containment).

    Each element pairs one CCW triangle ``(a, b, c)`` with one query
    point ``p``; the result is True where all three orientation signs
    are non-negative, i.e. each raw cross product is ``>= -EPS`` —
    exactly the scalar ``d1 >= 0 and d2 >= 0 and d3 >= 0`` decision.
    """
    return (
        (cross_batch(ax, ay, bx, by, px, py) >= -EPS)
        & (cross_batch(bx, by, cx, cy, px, py) >= -EPS)
        & (cross_batch(cx, cy, ax, ay, px, py) >= -EPS)
    )


def on_segment_batch(px, py, ax, ay, bx, by) -> np.ndarray:
    """Vectorized :func:`repro.geometry.predicates.on_segment` (closed
    segment membership within ``EPS``), broadcasting its arguments."""
    cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    collinear = (cross <= EPS) & (cross >= -EPS)
    return (
        collinear
        & (np.minimum(ax, bx) - EPS <= px)
        & (px <= np.maximum(ax, bx) + EPS)
        & (np.minimum(ay, by) - EPS <= py)
        & (py <= np.maximum(ay, by) + EPS)
    )


def rect_contains_batch(rect, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`Rect.contains_point` for one closed rectangle."""
    return (
        (rect.min_x <= xs)
        & (xs <= rect.max_x)
        & (rect.min_y <= ys)
        & (ys <= rect.max_y)
    )


def mbrs_contain_batch(
    min_x: np.ndarray,
    min_y: np.ndarray,
    max_x: np.ndarray,
    max_y: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
) -> np.ndarray:
    """Closed containment of every point in every MBR.

    The MBR bounds are ``(R,)`` arrays and the coordinates ``(k,)``
    arrays; the result is an ``(R, k)`` boolean matrix.
    """
    return (
        (min_x[:, None] <= xs)
        & (xs <= max_x[:, None])
        & (min_y[:, None] <= ys)
        & (ys <= max_y[:, None])
    )


def ragged_ranges(
    starts: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated index ranges ``starts[i] : starts[i] + lengths[i]``.

    Returns ``(flat, owner, first)``: the indices of every range in
    range order, the range each index belongs to, and each range's first
    position in ``flat`` (the ``reduceat`` offsets when no range is
    empty).
    """
    lengths = np.asarray(lengths, np.int64)
    offsets = np.concatenate((np.zeros(1, np.int64), np.cumsum(lengths)))
    first = offsets[:-1]
    flat = np.repeat(np.asarray(starts, np.int64) - first, lengths) + np.arange(
        offsets[-1], dtype=np.int64
    )
    owner = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    return flat, owner, first


def point_segment_distance_batch(px, py, ax, ay, bx, by) -> np.ndarray:
    """Vectorized :meth:`Segment.distance_to_point`, broadcasting its
    arguments.

    Replicates the scalar clamp-to-segment projection: degenerate
    segments (``|b - a|^2 <= EPS^2``) collapse to the distance to ``a``
    (``t = 0``), all others clamp the projection parameter to ``[0, 1]``.
    Distances come from ``np.hypot``, which may differ from the scalar
    ``math.hypot`` by one ulp — callers needing a *sound* lower bound
    (the mobility exit-bound) should shave an ulp, not assume equality.
    """
    dx = np.asarray(bx, np.float64) - ax
    dy = np.asarray(by, np.float64) - ay
    length2 = dx * dx + dy * dy
    safe = np.where(length2 > EPS * EPS, length2, 1.0)
    t = ((px - ax) * dx + (py - ay) * dy) / safe
    t = np.where(length2 > EPS * EPS, np.clip(t, 0.0, 1.0), 0.0)
    cx = ax + t * dx
    cy = ay + t * dy
    return np.hypot(px - cx, py - cy)


class CompiledPolygon:
    """Flattened edge arrays of one simple polygon.

    ``ax/ay -> bx/by`` are the directed CCW edges (closing edge
    included); the per-edge bounding intervals back the on-segment test.
    ``classify_batch`` runs the same bbox gate, boundary test and
    ray-crossing parity as :meth:`Polygon.contains_point`, with the
    crossing abscissa computed by the identical IEEE-754 expression.
    """

    __slots__ = (
        "ax",
        "ay",
        "bx",
        "by",
        "dx",
        "dy",
        "edge_min_x",
        "edge_max_x",
        "edge_min_y",
        "edge_max_y",
        "min_x",
        "min_y",
        "max_x",
        "max_y",
        "_cross_terms",
    )

    def __init__(self, polygon) -> None:
        vx, vy = point_coords(polygon.vertices)
        self.ax = vx
        self.ay = vy
        self.bx = np.roll(vx, -1)
        self.by = np.roll(vy, -1)
        self.dx = self.bx - self.ax
        self.dy = self.by - self.ay
        self.edge_min_x = np.minimum(self.ax, self.bx)
        self.edge_max_x = np.maximum(self.ax, self.bx)
        self.edge_min_y = np.minimum(self.ay, self.by)
        self.edge_max_y = np.maximum(self.ay, self.by)
        bbox = polygon.bbox
        self.min_x = bbox.min_x
        self.min_y = bbox.min_y
        self.max_x = bbox.max_x
        self.max_y = bbox.max_y
        #: Shoelace terms ``p.cross(q)`` per edge (see :meth:`area`).
        self._cross_terms = self.ax * self.by - self.ay * self.bx

    def __len__(self) -> int:
        return len(self.ax)

    def __repr__(self) -> str:
        return f"CompiledPolygon(n_edges={len(self.ax)})"

    @property
    def area(self) -> float:
        """Unsigned area, bit-for-bit equal to :attr:`Polygon.area`.

        The shoelace terms are computed vectorized but summed
        left-to-right in Python, matching the scalar accumulation order
        exactly.
        """
        total = 0.0
        for term in self._cross_terms.tolist():
            total += term
        return abs(total / 2.0)

    def classify_batch(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-point ``(interior, boundary)`` flags in one edge sweep.

        ``interior[i]`` equals ``contains_point(p_i, include_boundary=
        False)`` and ``interior[i] | boundary[i]`` equals the closed
        ``contains_point(p_i)`` of the scalar polygon.
        """
        xs = np.asarray(xs, np.float64)
        ys = np.asarray(ys, np.float64)
        col = active_collector()
        if col is not None:
            col.observe("kernels.classify_batch.size", len(xs))
        in_bb = (
            (self.min_x <= xs)
            & (xs <= self.max_x)
            & (self.min_y <= ys)
            & (ys <= self.max_y)
        )
        ax = self.ax[:, None]
        ay = self.ay[:, None]
        bx = self.bx[:, None]
        by = self.by[:, None]
        cross = self.dx[:, None] * (ys - ay) - self.dy[:, None] * (xs - ax)
        on_edge = (
            (cross <= EPS)
            & (cross >= -EPS)
            & (self.edge_min_x[:, None] - EPS <= xs)
            & (xs <= self.edge_max_x[:, None] + EPS)
            & (self.edge_min_y[:, None] - EPS <= ys)
            & (ys <= self.edge_max_y[:, None] + EPS)
        ).any(axis=0)
        straddle = (ay > ys) != (by > ys)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_at = ax + (ys - ay) / (by - ay) * (bx - ax)
        odd = ((straddle & (x_at > xs)).sum(axis=0) % 2).astype(bool)
        boundary = in_bb & on_edge
        interior = in_bb & ~on_edge & odd
        return interior, boundary

    def contains_batch(
        self, xs: np.ndarray, ys: np.ndarray, include_boundary: bool = True
    ) -> np.ndarray:
        """Vectorized :meth:`Polygon.contains_point` over a point batch."""
        interior, boundary = self.classify_batch(xs, ys)
        return interior | boundary if include_boundary else interior


def points_in_polygon(
    polygon, points: Sequence, include_boundary: bool = True
) -> np.ndarray:
    """Batched containment of *points* in *polygon* (scalar-parity).

    Uses the polygon's cached :class:`CompiledPolygon` when available
    (:meth:`Polygon.compiled`), compiling on the fly otherwise.
    """
    compiled = (
        polygon.compiled()
        if hasattr(polygon, "compiled")
        else CompiledPolygon(polygon)
    )
    xs, ys = point_coords(points)
    return compiled.contains_batch(xs, ys, include_boundary=include_boundary)


class RegionEdges:
    """Every region's directed boundary edges in one flat CSR table.

    Region slot ``s`` owns the edges ``start[s]:start[s + 1]`` — its
    vertex ring in order, closing edge included — so a batch of
    (region, point) pairs expands into one flat edge-test array.  A slot
    may own an empty ring, as long as no pair names it.
    :meth:`classify_pairs` is the one copy of the ragged containment
    arithmetic: :class:`CompiledSubdivision` locates with it, the
    mobility exit bound (:class:`~repro.mobility.exitbound.RegionBoundaryIndex`)
    tests strict interiority with it, and the R*-tree tracer
    (:func:`repro.engine.trace._trace_batch_rstar`) tests every leaf
    candidate of a query batch with it, one slot per tree entry.
    """

    __slots__ = (
        "counts",
        "start",
        "ax",
        "ay",
        "bx",
        "by",
        "dx",
        "dy",
        "lo_x",
        "hi_x",
        "lo_y",
        "hi_y",
    )

    def __init__(self, ax: np.ndarray, ay: np.ndarray, counts: np.ndarray) -> None:
        """*ax*/*ay* are the vertex rings concatenated, *counts* the
        ring lengths in slot order."""
        self.counts = np.asarray(counts, np.int64)
        self.start = np.concatenate(
            (np.zeros(1, np.int64), np.cumsum(self.counts))
        )
        self.ax = np.asarray(ax, np.float64)
        self.ay = np.asarray(ay, np.float64)
        # Each edge ends at the next vertex of its own ring: the ring's
        # last vertex wraps to its first (a per-ring ``np.roll(-1)``).
        # An empty ring has no last vertex.
        following = np.arange(1, len(self.ax) + 1, dtype=np.int64)
        ring = self.counts > 0
        following[self.start[1:][ring] - 1] = self.start[:-1][ring]
        self.bx = self.ax[following]
        self.by = self.ay[following]
        self.dx = self.bx - self.ax
        self.dy = self.by - self.ay
        # Each edge's bounding interval widened by the on-segment
        # tolerance, exactly as the scalar test widens it.
        self.lo_x = np.minimum(self.ax, self.bx) - EPS
        self.hi_x = np.maximum(self.ax, self.bx) + EPS
        self.lo_y = np.minimum(self.ay, self.by) - EPS
        self.hi_y = np.maximum(self.ay, self.by) + EPS

    def __len__(self) -> int:
        return len(self.counts)

    def __repr__(self) -> str:
        return f"RegionEdges(regions={len(self.counts)}, edges={len(self.ax)})"

    def expand(self, slots: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`ragged_ranges` over the rings of a pair batch: the edge
        indices of every pair's ring in pair order, the pair each edge
        belongs to, and each pair's first position in that array."""
        return ragged_ranges(self.start[slots], self.counts[slots])

    def classify_pairs(
        self, slots: np.ndarray, px: np.ndarray, py: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Boundary and ray-parity flags of (region slot, point) pairs.

        Runs the :meth:`CompiledPolygon.classify_batch` arithmetic over
        the expanded edges and reduces per pair with ``reduceat``:
        ``on_edge[i]`` is "pair *i*'s point lies on its ring" and
        ``odd[i]`` the crossing parity, so ``~on_edge & odd`` equals the
        scalar ``contains_point(p, include_boundary=False)`` for a point
        inside the ring's bounding box (the caller's gate).  Also returns
        the :meth:`expand` arrays ``(edge, owner, first)`` for follow-up
        per-edge work.  Needs at least one pair.
        """
        edge, owner, first = self.expand(slots)
        px = px[owner]
        py = py[owner]
        ax = self.ax[edge]
        ay = self.ay[edge]
        by = self.by[edge]
        cross = self.dx[edge] * (py - ay) - self.dy[edge] * (px - ax)
        on_edge = (
            (np.abs(cross) <= EPS)
            & (self.lo_x[edge] <= px)
            & (px <= self.hi_x[edge])
            & (self.lo_y[edge] <= py)
            & (py <= self.hi_y[edge])
        )
        straddle = (ay > py) != (by > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_at = ax + (py - ay) / (by - ay) * (self.bx[edge] - ax)
        on_edge_pair = np.logical_or.reduceat(on_edge, first)
        odd_pair = np.logical_xor.reduceat(straddle & (x_at > px), first)
        return on_edge_pair, odd_pair, edge, owner, first


class CompiledSubdivision:
    """Structure-of-arrays form of a subdivision for batched point location.

    Holds the per-region compiled polygons plus flat bounding-box
    arrays; :meth:`locate_batch` sweeps the regions in the subdivision's
    scan order exactly like the brute-force :meth:`Subdivision.locate`
    oracle — strict-interior hit wins immediately, otherwise the first
    region (in scan order) whose closed boundary contains the point —
    so the two agree point for point, boundary ties included.

    Built once per subdivision and cached (:meth:`Subdivision.compiled`).
    """

    def __init__(self, subdivision) -> None:
        regions = subdivision.regions
        self.service_area = subdivision.service_area
        self.region_ids = np.fromiter(
            (r.region_id for r in regions), np.int64, count=len(regions)
        )
        self.polygons: List[CompiledPolygon] = [
            r.polygon.compiled()
            if hasattr(r.polygon, "compiled")
            else CompiledPolygon(r.polygon)
            for r in regions
        ]
        self.bb_min_x = np.fromiter(
            (p.min_x for p in self.polygons), np.float64, count=len(regions)
        )
        self.bb_min_y = np.fromiter(
            (p.min_y for p in self.polygons), np.float64, count=len(regions)
        )
        self.bb_max_x = np.fromiter(
            (p.max_x for p in self.polygons), np.float64, count=len(regions)
        )
        self.bb_max_y = np.fromiter(
            (p.max_y for p in self.polygons), np.float64, count=len(regions)
        )
        self._areas: Optional[np.ndarray] = None
        # Flattened edges of every region, concatenated in scan order:
        # locate runs one ragged pass over (candidate region, point)
        # pairs instead of a per-region Python loop.
        self.edges = RegionEdges(
            np.concatenate([p.ax for p in self.polygons]),
            np.concatenate([p.ay for p in self.polygons]),
            np.fromiter(
                (len(p.ax) for p in self.polygons), np.int64, count=len(regions)
            ),
        )
        self._build_grid()

    def _build_grid(self) -> None:
        """Uniform candidate grid: cell -> region positions whose bbox
        touches the cell, in ascending scan order.

        The grid only prunes: every region whose closed bbox contains a
        point is listed in that point's cell (cell assignment uses the
        same truncation expression for bbox corners and query points, and
        truncation is monotonic), so the exact per-pair bbox test after
        the grid lookup preserves scalar semantics.
        """
        count = len(self.polygons)
        area = self.service_area
        grid = max(1, int(np.ceil(np.sqrt(count))))
        self.grid_size = grid
        span_x = area.max_x - area.min_x
        span_y = area.max_y - area.min_y
        self.inv_cell_x = grid / span_x if span_x > 0 else 0.0
        self.inv_cell_y = grid / span_y if span_y > 0 else 0.0

        def cell_of(value: float, origin: float, inv: float) -> int:
            return min(max(int((value - origin) * inv), 0), grid - 1)

        cells: List[List[int]] = [[] for _ in range(grid * grid)]
        for pos in range(count):
            lo_cx = cell_of(self.bb_min_x[pos], area.min_x, self.inv_cell_x)
            hi_cx = cell_of(self.bb_max_x[pos], area.min_x, self.inv_cell_x)
            lo_cy = cell_of(self.bb_min_y[pos], area.min_y, self.inv_cell_y)
            hi_cy = cell_of(self.bb_max_y[pos], area.min_y, self.inv_cell_y)
            for cy in range(lo_cy, hi_cy + 1):
                base = cy * grid
                for cx in range(lo_cx, hi_cx + 1):
                    cells[base + cx].append(pos)
        self.cell_counts = np.fromiter(
            (len(c) for c in cells), np.int64, count=len(cells)
        )
        self.cell_start = np.concatenate(
            (np.zeros(1, np.int64), np.cumsum(self.cell_counts))
        )
        self.cell_flat = (
            np.concatenate([np.asarray(c, np.int64) for c in cells if c])
            if self.cell_start[-1]
            else np.zeros(0, np.int64)
        )

    def __len__(self) -> int:
        return len(self.polygons)

    def __repr__(self) -> str:
        return f"CompiledSubdivision(n={len(self.polygons)})"

    # -- measures -----------------------------------------------------------

    @property
    def region_areas(self) -> np.ndarray:
        """Per-region unsigned areas in scan order (scalar-parity sums)."""
        if self._areas is None:
            self._areas = np.array(
                [p.area for p in self.polygons], np.float64
            )
        return self._areas

    def area_by_id(self) -> Dict[int, float]:
        """``region_id -> area`` map, each bit-equal to ``polygon.area``."""
        return dict(zip(self.region_ids.tolist(), self.region_areas.tolist()))

    # -- batched point location ---------------------------------------------

    def locate_batch(self, points: Sequence) -> np.ndarray:
        """Region id containing each point — the batched locate oracle."""
        xs, ys = point_coords(points)
        return self.locate_coords(xs, ys, points=points)

    def locate_coords(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        points: Optional[Sequence] = None,
    ) -> np.ndarray:
        """:meth:`locate_batch` over raw coordinate arrays.

        Raises :class:`QueryError` for the first (lowest-index) point
        outside the service area or not covered by any region, matching
        the scalar oracle's failure behaviour.
        """
        xs = np.asarray(xs, np.float64)
        ys = np.asarray(ys, np.float64)
        n = len(xs)
        col = active_collector()
        if col is not None:
            col.observe("kernels.locate_batch.size", n)
        area = self.service_area
        outside = ~rect_contains_batch(area, xs, ys)
        if outside.any():
            raise QueryError(
                f"{self._point_for_error(points, xs, ys, int(np.argmax(outside)))!r} "
                "is outside the service area"
            )
        count = len(self.polygons)
        grid = self.grid_size

        # Candidate (region, point) pairs from the grid, pruned by the
        # exact closed-bbox gate of the scalar contains_point.
        cell_x = np.clip(
            ((xs - area.min_x) * self.inv_cell_x).astype(np.int64), 0, grid - 1
        )
        cell_y = np.clip(
            ((ys - area.min_y) * self.inv_cell_y).astype(np.int64), 0, grid - 1
        )
        cell = cell_y * grid + cell_x
        candidates, pt, _ = ragged_ranges(
            self.cell_start[cell], self.cell_counts[cell]
        )
        interior_pos = np.full(n, count, np.int64)
        boundary_pos = np.full(n, count, np.int64)
        if candidates.size:
            reg = self.cell_flat[candidates]
            px = xs[pt]
            py = ys[pt]
            keep = (
                (self.bb_min_x[reg] <= px)
                & (px <= self.bb_max_x[reg])
                & (self.bb_min_y[reg] <= py)
                & (py <= self.bb_max_y[reg])
            )
            reg = reg[keep]
            pt = pt[keep]
            if reg.size:
                self._classify_pairs(xs, ys, reg, pt, interior_pos, boundary_pos)

        # Scalar scan-order semantics, order-free: the first interior hit
        # always wins over any boundary hit, and "first in scan order"
        # is simply the minimum region position on each side.
        result_pos = np.where(
            interior_pos < count,
            interior_pos,
            np.where(boundary_pos < count, boundary_pos, -1),
        )
        if (result_pos < 0).any():
            bad = int(np.argmax(result_pos < 0))
            raise QueryError(
                f"{self._point_for_error(points, xs, ys, bad)!r} not covered "
                "by any region (corrupt subdivision?)"
            )
        return self.region_ids[result_pos]

    def _classify_pairs(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        reg: np.ndarray,
        pt: np.ndarray,
        interior_pos: np.ndarray,
        boundary_pos: np.ndarray,
    ) -> None:
        """Classify candidate (region, point) pairs in one ragged pass
        (:meth:`RegionEdges.classify_pairs`) and fold the interior and
        boundary hits into the per-point minimum region positions."""
        on_edge_pair, odd_pair = self.edges.classify_pairs(
            reg, xs[pt], ys[pt]
        )[:2]
        interior_sel = ~on_edge_pair & odd_pair
        np.minimum.at(interior_pos, pt[interior_sel], reg[interior_sel])
        np.minimum.at(boundary_pos, pt[on_edge_pair], reg[on_edge_pair])

    @staticmethod
    def _point_for_error(points, xs, ys, index: int):
        if points is not None:
            return points[index]
        from repro.geometry.point import Point

        return Point(float(xs[index]), float(ys[index]))
