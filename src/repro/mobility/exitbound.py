"""Sound scope-exit bounds: how far can a client move and provably
keep its answer?

For a client at ``p`` whose answered region is the simple polygon ``R``
with ``p`` strictly interior, let ``d = dist(p, boundary(R))`` over
``R``'s edge set.  Every point of the open disk ``B(p, d)`` is interior
to ``R`` (any path leaving ``R`` must cross the boundary, which the disk
provably does not reach), so as long as the trajectory stays inside the
disk the answer — for an index that agrees with the subdivision's
point-location oracle, which all four families do — cannot change.  The
bound is *exact* for any simple polygon cell, convex or not: the
polygon boundary is precisely its edge set.

Two conservative guards keep the bound sound in floating point:

* if ``p`` is not *strictly* interior to the answered polygon (boundary
  hits within ``EPS``, or an index answer that disagrees with geometry),
  the bound collapses to 0 and the client degenerates to the naive
  per-epoch re-tuner for that step;
* the kernel distance is shaved by one ulp, absorbing the possible
  one-ulp disagreement between ``np.hypot`` and the scalar
  ``math.hypot``.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.kernels import RegionEdges, point_segment_distance_batch


class RegionBoundaryIndex:
    """Every region's boundary edges as one flat CSR table, for exit
    bounds over whole batches of (answer, position) pairs.

    Holds a :class:`~repro.geometry.kernels.RegionEdges` table, the
    per-region bounding boxes (the scalar ``contains_point`` gate) and a
    dense region-id -> slot map.  Built once per subdivision and shipped
    to fleet workers inside the :class:`~repro.fleet.runner.FleetSpec`
    (plain arrays, picklable whole).
    """

    __slots__ = ("edges", "min_x", "min_y", "max_x", "max_y", "_base", "_slot_of")

    def __init__(self, subdivision) -> None:
        rings = [region.polygon.vertices for region in subdivision.regions]
        counts = np.fromiter((len(r) for r in rings), np.int64, count=len(rings))
        total = int(counts.sum())
        xs = np.fromiter((v.x for r in rings for v in r), np.float64, count=total)
        ys = np.fromiter((v.y for r in rings for v in r), np.float64, count=total)
        self.edges = RegionEdges(xs, ys, counts)
        first = self.edges.start[:-1]
        self.min_x = np.minimum.reduceat(xs, first)
        self.min_y = np.minimum.reduceat(ys, first)
        self.max_x = np.maximum.reduceat(xs, first)
        self.max_y = np.maximum.reduceat(ys, first)
        ids = np.fromiter(
            (region.region_id for region in subdivision.regions),
            np.int64,
            count=len(rings),
        )
        # Dense id -> slot map over [min id, max id], padded by one entry
        # each side: a clipped lookup of any unknown id lands on -1.
        self._base = int(ids.min()) - 1
        self._slot_of = np.full(int(ids.max()) - self._base + 2, -1, np.int64)
        self._slot_of[ids - self._base] = np.arange(len(ids), dtype=np.int64)

    def __len__(self) -> int:
        return len(self.edges)

    def exit_bounds(self, region_ids, xs, ys) -> np.ndarray:
        """Sound skip radius around each ``(xs[i], ys[i])`` for answer
        ``region_ids[i]``, in one ragged pass over the answers' edges.

        0 means "no skip" — unknown region, or the position is not
        strictly interior to the answered polygon.
        """
        slots = self._slot_of.take(
            np.asarray(region_ids, np.int64) - self._base, mode="clip"
        )
        known = slots >= 0
        slots = np.where(known, slots, 0)
        xs = np.asarray(xs, np.float64)
        ys = np.asarray(ys, np.float64)
        # Polygon.contains_point's bounding-box gate, then its edge test
        # (run on every pair; the gate masks the answer afterwards).
        inside = (
            known
            & (self.min_x[slots] <= xs)
            & (xs <= self.max_x[slots])
            & (self.min_y[slots] <= ys)
            & (ys <= self.max_y[slots])
        )
        if not inside.any():
            return np.zeros(len(slots), np.float64)
        edges = self.edges
        on_edge, odd, edge, owner, first = edges.classify_pairs(slots, xs, ys)
        inside &= ~on_edge & odd
        distance = np.minimum.reduceat(
            point_segment_distance_batch(
                xs[owner],
                ys[owner],
                edges.ax[edge],
                edges.ay[edge],
                edges.bx[edge],
                edges.by[edge],
            ),
            first,
        )
        # One ulp of slack: np.hypot and math.hypot may disagree in the
        # last bit, and the bound must never exceed the true distance.
        return np.where(
            inside, np.maximum(0.0, np.nextafter(distance, 0.0)), 0.0
        )

    def exit_bound(self, region_id: int, x: float, y: float) -> float:
        """:meth:`exit_bounds` of one answer and position."""
        return float(self.exit_bounds([region_id], [x], [y])[0])

    def __repr__(self) -> str:
        return f"RegionBoundaryIndex(regions={len(self)})"
