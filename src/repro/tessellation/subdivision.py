"""The planar-subdivision data model (paper Definition 1).

A data region is the polygonal valid scope of one data instance; the regions
of one data type tile the service area.  The :class:`Subdivision` owns the
regions, validates the tiling contract, answers brute-force point-location
queries (the correctness oracle for every index), and extracts the boundary
of an arbitrary subset of regions by edge cancellation — the primitive the
D-tree partition algorithm is built on.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import QueryError, SubdivisionError
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.predicates import QUANTIZE_DECIMALS
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment

EdgeKey = Tuple[Tuple[float, float], Tuple[float, float]]


class DataRegion:
    """One data instance together with its polygonal valid scope."""

    __slots__ = ("region_id", "polygon", "payload_size")

    def __init__(self, region_id: int, polygon: Polygon, payload_size: int = 1024):
        self.region_id = int(region_id)
        self.polygon = polygon
        #: Size of the data instance in bytes (Table 2 uses 1 KB).
        self.payload_size = int(payload_size)

    def __repr__(self) -> str:
        return f"DataRegion(id={self.region_id}, n_vertices={len(self.polygon)})"

    def contains(self, p: Point) -> bool:
        """True if *p* lies in the closed valid scope."""
        return self.polygon.contains_point(p)


def vertex_key(p: Point) -> complex:
    """The :func:`~repro.geometry.predicates.quantize_point` key of *p*,
    packed into one ``complex``: equal exactly when the tuples are, at a
    third of the memory."""
    return complex(round(p.x, QUANTIZE_DECIMALS), round(p.y, QUANTIZE_DECIMALS))


def vertex_keys(xs: Sequence[float], ys: Sequence[float]) -> List[complex]:
    """:func:`vertex_key` of each point ``(xs[i], ys[i])``.

    Python's ``round`` on Python floats, as :func:`vertex_key`: NumPy's
    ``np.round`` scales by a power of ten first and can land on the
    other side of a rounding boundary.
    """
    return [
        complex(round(x, QUANTIZE_DECIMALS), round(y, QUANTIZE_DECIMALS))
        for x, y in zip(xs, ys)
    ]


class EdgeTable:
    """Every region edge keyed once, as integer ids in one CSR table.

    Row ``r`` (region order) owns the entries ``offsets[r]:offsets[r+1]``,
    one per edge in :meth:`Polygon.edges` order.  Entry ``k`` is the edge
    from ``points[k]`` to ``points[succ[k]]`` (the next vertex of the same
    ring); ``edge[k]`` is its undirected edge id and ``vertex[k]`` the
    vertex id of ``points[k]``.  Vertex ids number the distinct
    :func:`vertex_key` keys (``vertex_ids``) and edge ids the distinct
    :meth:`Segment.canonical_key` keys, both in order of first
    occurrence, so two ids are equal exactly when the ``round``-based keys
    are.  ``points`` references the rings' own :class:`Point` objects
    and ``xs``/``ys`` hold their coordinates.
    ``min_x``/``max_x``/``min_y``/``max_y`` are the rows' bounding boxes
    (the §4.2 sort keys); ``boxes`` stacks them as a ``(4, rows)`` array.
    """

    __slots__ = (
        "polygons",
        "rings",
        "row_of",
        "offsets",
        "points",
        "succ",
        "edge",
        "vertex",
        "n_edges",
        "vertex_ids",
        "xs",
        "ys",
        "min_x",
        "max_x",
        "min_y",
        "max_y",
        "boxes",
    )

    def __init__(self, regions: Sequence[DataRegion]) -> None:
        self.polygons = [r.polygon for r in regions]
        self.rings = [poly.vertices for poly in self.polygons]
        self.row_of = {r.region_id: row for row, r in enumerate(regions)}
        vertex_ids: Dict[complex, int] = {}
        edge_ids: Dict[Tuple[int, int], int] = {}
        points: List[Point] = []
        vertex: List[int] = []
        edge: List[int] = []
        counts = []
        for ring in self.rings:
            ids = [vertex_ids.setdefault(vertex_key(v), len(vertex_ids)) for v in ring]
            for a, b in zip(ids, ids[1:] + ids[:1]):
                edge.append(
                    edge_ids.setdefault((a, b) if a <= b else (b, a), len(edge_ids))
                )
            points.extend(ring)
            vertex.extend(ids)
            counts.append(len(ring))
        lengths = np.asarray(counts, np.int64)
        self.offsets = np.concatenate((np.zeros(1, np.int64), np.cumsum(lengths)))
        succ = np.arange(1, len(points) + 1, dtype=np.int64)
        succ[self.offsets[1:] - 1] = self.offsets[:-1]
        self.points = points
        self.succ = succ.astype(np.int32)
        self.edge = np.asarray(edge, np.int32)
        self.vertex = np.asarray(vertex, np.int32)
        self.n_edges = len(edge_ids)
        self.vertex_ids = vertex_ids
        self.xs = np.fromiter((p.x for p in points), np.float64, len(points))
        self.ys = np.fromiter((p.y for p in points), np.float64, len(points))
        boxes = [poly.bbox for poly in self.polygons]
        self.min_x = [box.min_x for box in boxes]
        self.max_x = [box.max_x for box in boxes]
        self.min_y = [box.min_y for box in boxes]
        self.max_y = [box.max_y for box in boxes]
        self.boxes = np.array(
            [self.min_x, self.max_x, self.min_y, self.max_y], np.float64
        ).reshape(4, len(boxes))

    def is_current(self, regions: Sequence[DataRegion], rows: Iterable[int]) -> bool:
        """True when none of *rows* had its polygon or ring replaced."""
        polygons = self.polygons
        rings = self.rings
        for row in rows:
            poly = regions[row].polygon
            if poly is not polygons[row] or poly.vertices is not rings[row]:
                return False
        return True

    def entries_of(self, rows: Sequence[int]) -> np.ndarray:
        """Entry indices of *rows*, concatenated in the given row order."""
        rows_arr = np.asarray(rows, np.int64)
        starts = self.offsets[rows_arr]
        lengths = self.offsets[rows_arr + 1] - starts
        shift = starts - (np.cumsum(lengths) - lengths)
        return np.repeat(shift, lengths) + np.arange(int(lengths.sum()))

    def boundary(self, rows: Sequence[int]) -> np.ndarray:
        """Entries of *rows* whose edge occurs once among them.

        Kept in concatenation order, which is the order of first
        occurrence the dict-based edge cancellation produced.
        """
        entries = self.entries_of(rows)
        edges = self.edge[entries]
        counts = np.bincount(edges, minlength=self.n_edges)[edges]
        if counts.max(initial=0) > 2:
            raise SubdivisionError(
                "edge shared by more than two regions — regions do not "
                "form an edge-to-edge subdivision"
            )
        return entries[counts == 1]

    def segment(self, entry: int) -> Segment:
        """The :class:`Segment` of one entry, as :meth:`Polygon.edges` makes it."""
        return Segment(self.points[entry], self.points[self.succ[entry]])

    def first_entries(self) -> np.ndarray:
        """For each edge id, the entry where it first occurs."""
        _, first = np.unique(self.edge, return_index=True)
        return first


class Subdivision:
    """A set of data regions tiling a rectangular service area.

    Region ids are distinct and ``>= 0``."""

    def __init__(
        self,
        regions: Sequence[DataRegion],
        service_area: Optional[Rect] = None,
    ) -> None:
        if not regions:
            raise SubdivisionError("a subdivision needs at least one region")
        ids = [r.region_id for r in regions]
        if len(set(ids)) != len(ids):
            raise SubdivisionError("duplicate region ids")
        negative = [i for i in ids if i < 0]
        if negative:
            # The index families store a data pointer as ``~region_id``
            # and tell it from a child node by its sign.
            raise SubdivisionError(f"negative region id {negative[0]}")
        self.regions: Tuple[DataRegion, ...] = tuple(regions)
        if service_area is None:
            service_area = Rect.union_of(r.polygon.bbox for r in regions)
        self.service_area = service_area
        self._by_id: Dict[int, DataRegion] = {r.region_id: r for r in self.regions}
        self._compiled = None
        self._edges: Optional[EdgeTable] = None

    def __getstate__(self) -> dict:
        # The edge table is derived state, rebuilt on first use: it is
        # not shipped with the subdivision (fleet specs pickle it).
        state = dict(self.__dict__)
        state["_edges"] = None
        return state

    def __len__(self) -> int:
        return len(self.regions)

    def __repr__(self) -> str:
        return f"Subdivision(n={len(self.regions)}, area={self.service_area!r})"

    def region(self, region_id: int) -> DataRegion:
        """Region with the given id."""
        try:
            return self._by_id[region_id]
        except KeyError:
            raise SubdivisionError(f"unknown region id {region_id}") from None

    @property
    def region_ids(self) -> List[int]:
        return [r.region_id for r in self.regions]

    # -- validation -----------------------------------------------------------

    def validate(
        self, samples: int = 2000, seed: int = 0, area_rtol: float = 1e-6
    ) -> None:
        """Check the Definition-1 contract.

        Raises :class:`SubdivisionError` when the total region area does not
        match the service area (coverage + disjointness in aggregate) or
        when any sampled interior point is covered by zero regions or by
        two regions *in their interiors*.
        """
        total = sum(r.polygon.area for r in self.regions)
        expected = self.service_area.area
        if abs(total - expected) > area_rtol * max(expected, 1.0):
            raise SubdivisionError(
                f"region areas sum to {total:.9g}, service area is {expected:.9g}"
            )
        rng = random.Random(seed)
        for _ in range(samples):
            p = Point(
                rng.uniform(self.service_area.min_x, self.service_area.max_x),
                rng.uniform(self.service_area.min_y, self.service_area.max_y),
            )
            classes = [
                (r.region_id, r.polygon.classify_point(p)) for r in self.regions
            ]
            hits = [rid for rid, c in classes if c == 2]
            if len(hits) > 1:
                raise SubdivisionError(f"point {p!r} interior to regions {hits}")
            if not hits:
                # On-boundary samples are legitimate; only fail if the point
                # is not even on any closed region.
                if not any(c >= 1 for _, c in classes):
                    raise SubdivisionError(f"point {p!r} not covered by any region")

    # -- point location (oracle) -----------------------------------------------

    def locate(self, p: Point) -> int:
        """Brute-force point location: id of the region containing *p*.

        Boundary points resolve to the lowest region id that contains them
        (the first in scan order), which keeps the oracle deterministic.
        Each region's ring is scanned once: :meth:`Polygon.classify_point`
        answers interior and boundary in the same pass.
        """
        if not self.service_area.contains_point(p):
            raise QueryError(f"{p!r} is outside the service area")
        best: Optional[int] = None
        for r in self.regions:
            c = r.polygon.classify_point(p)
            if c == 2:
                return r.region_id
            if c == 1 and best is None:
                best = r.region_id
        if best is None:
            raise QueryError(f"{p!r} not covered by any region (corrupt subdivision?)")
        return best

    def compiled(self):
        """Structure-of-arrays form for batch queries (built once, cached).

        Returns the :class:`repro.geometry.kernels.CompiledSubdivision`
        whose :meth:`~repro.geometry.kernels.CompiledSubdivision.locate_batch`
        agrees with per-point :meth:`locate` everywhere, boundary
        tie-breaks included.
        """
        key = self._compiled_key()
        cached = self._compiled
        if (
            cached is None
            or len(cached[0]) != len(key)
            or any(a is not b for a, b in zip(cached[0], key))
        ):
            from repro.geometry.kernels import CompiledSubdivision

            self._compiled = (key, CompiledSubdivision(self))
        return self._compiled[1]

    def _compiled_key(self):
        """Identity key of the geometry the compiled form snapshots.

        Holding the polygon and ring references means a region whose
        ``polygon`` — or whose polygon's ``vertices`` ring — was replaced
        after compiling can never be served the pre-mutation compiled
        subdivision: the identity comparison fails and :meth:`compiled`
        rebuilds.
        """
        return tuple(
            obj for r in self.regions for obj in (r.polygon, r.polygon.vertices)
        )

    def locate_batch(self, points: Sequence[Point]):
        """Batched :meth:`locate`: ``int64`` region-id array, one per point."""
        return self.compiled().locate_batch(points)

    # -- boundary extraction -----------------------------------------------------

    def edge_table(self) -> EdgeTable:
        """The integer edge table (built once, cached).

        Invalidated by the same identity key as :meth:`compiled`: a
        region whose polygon or ring was replaced gets a fresh table.
        """
        table = self._edges
        if table is None or not table.is_current(self.regions, range(len(self.regions))):
            table = self._edges = EdgeTable(self.regions)
        return table

    def release_edge_table(self) -> None:
        """Free the cached edge table; the next caller rebuilds it.  For
        a subdivision kept only to answer from (a past version)."""
        self._edges = None

    def edge_rows(self, region_ids: Iterable[int]) -> Tuple[EdgeTable, List[int]]:
        """The edge table plus the rows of *region_ids*, in the given order.

        Only the named rows are checked against the identity key, so a
        caller pays for the regions it reads, not for the subdivision.
        """
        table = self._edges
        if table is None:
            table = self._edges = EdgeTable(self.regions)
        row_of = table.row_of
        try:
            rows = [row_of[rid] for rid in region_ids]
        except KeyError as exc:
            raise SubdivisionError(f"unknown region id {exc.args[0]}") from None
        if not table.is_current(self.regions, rows):
            table = self._edges = EdgeTable(self.regions)
        return table, rows

    def boundary_of_subset(self, region_ids: Iterable[int]) -> List[Segment]:
        """Boundary of the union of the given regions, by edge cancellation.

        Every region edge whose canonical key occurs exactly once within the
        subset is boundary; keys occurring twice are interior shared edges.
        Exact for subdivisions whose neighbours share whole edges (Voronoi
        diagrams, grids).  Segments come in order of first occurrence
        (regions in the given order, each ring in :meth:`Polygon.edges`
        order).
        """
        table, rows = self.edge_rows(region_ids)
        return [table.segment(k) for k in table.boundary(rows).tolist()]

    def shared_edge_counts(self) -> Dict[EdgeKey, int]:
        """Multiplicity of every edge key over all regions (diagnostics)."""
        table = self.edge_table()
        keys = [(key.real, key.imag) for key in table.vertex_ids]
        first = table.first_entries()
        counts = np.bincount(table.edge, minlength=table.n_edges).tolist()
        out: Dict[EdgeKey, int] = {}
        starts = table.vertex[first].tolist()
        ends = table.vertex[table.succ[first]].tolist()
        for count, a, b in zip(counts, starts, ends):
            ka = keys[a]
            kb = keys[b]
            out[(ka, kb) if ka <= kb else (kb, ka)] = count
        return out

    def adjacency(self) -> Dict[int, List[int]]:
        """Region adjacency graph (ids of regions sharing an edge)."""
        table = self.edge_table()
        owners: List[List[int]] = [[] for _ in range(table.n_edges)]
        row_ids = np.repeat(
            np.asarray(self.region_ids, np.int64), np.diff(table.offsets)
        )
        for eid, rid in zip(table.edge.tolist(), row_ids.tolist()):
            owners[eid].append(rid)
        neigh: Dict[int, set] = {r.region_id: set() for r in self.regions}
        for ids in owners:
            if len(ids) == 2:
                a, b = ids
                if a != b:
                    neigh[a].add(b)
                    neigh[b].add(a)
        return {rid: sorted(s) for rid, s in neigh.items()}

    def all_edges(self) -> List[Segment]:
        """Each distinct undirected edge of the subdivision exactly once."""
        table = self.edge_table()
        return [table.segment(k) for k in table.first_entries().tolist()]

    def random_point(self, rng: random.Random) -> Point:
        """Uniform random point in the service area (the paper's query model)."""
        return Point(
            rng.uniform(self.service_area.min_x, self.service_area.max_x),
            rng.uniform(self.service_area.min_y, self.service_area.max_y),
        )

    def random_points(self, n: int, rng) -> List[Point]:
        """*n* uniform random points in the service area.

        With a ``random.Random`` rng this consumes the stream exactly
        like *n* calls of :meth:`random_point`, so existing seeded
        workloads are unchanged.  A ``numpy.random.Generator`` takes a
        vectorized path (two array draws) — the fast option for large
        workload generation.
        """
        area = self.service_area
        if hasattr(rng, "uniform") and not hasattr(rng, "getstate"):
            # numpy Generator: one (n, 2) draw instead of 2n Python calls.
            xs = rng.uniform(area.min_x, area.max_x, n)
            ys = rng.uniform(area.min_y, area.max_y, n)
            return [Point(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
        return [self.random_point(rng) for _ in range(n)]

    def edge_region_above(self) -> List[Optional[int]]:
        """The region above each edge, indexed by edge-table edge id.

        For a CCW polygon the interior lies to the left of each directed
        edge, so a left-to-right directed edge has its region *above* it.
        The trapezoidal map uses this to map a trapezoid (which knows its
        bottom segment) to the containing data region.  Vertical edges,
        and edges no region runs left to right (the top border), map to
        None.
        """
        table = self.edge_table()
        entries = np.flatnonzero(table.xs < table.xs[table.succ])
        region_of_entry = np.repeat(
            np.asarray(self.region_ids, np.int64), np.diff(table.offsets)
        )
        above: List[Optional[int]] = [None] * table.n_edges
        # In entry order, so the last region running an edge left to
        # right wins.
        for edge, region in zip(
            table.edge[entries].tolist(), region_of_entry[entries].tolist()
        ):
            above[edge] = region
        return above

    def directed_edge_region_above(self) -> Dict[EdgeKey, Optional[int]]:
        """:meth:`edge_region_above` keyed by each non-vertical edge's
        :meth:`Segment.canonical_key` (diagnostics)."""
        table = self.edge_table()
        keys = [(key.real, key.imag) for key in table.vertex_ids]
        first = table.first_entries().tolist()
        starts = table.vertex[first].tolist()
        ends = table.vertex[table.succ[first]].tolist()
        out: Dict[EdgeKey, Optional[int]] = {}
        for k, a, b, region in zip(first, starts, ends, self.edge_region_above()):
            if table.points[k].x == table.points[table.succ[k]].x:
                continue  # vertical edges never bound a trapezoid below
            ka = keys[a]
            kb = keys[b]
            out[(ka, kb) if ka <= kb else (kb, ka)] = region
        return out
