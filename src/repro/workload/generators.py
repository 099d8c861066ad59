"""Query-location workloads.

The paper evaluates with uniformly distributed query locations (§5).  Real
location-dependent workloads are skewed — most queries come from downtown,
not from the desert — so this module adds two skewed families alongside
the paper's uniform model:

* **hotspot** — locations form a Gaussian around one or more centers
  (commuter clusters);
* **zipf-region** — data regions are ranked and queried with Zipf
  popularity, the location uniform within the chosen region (popular
  *content*, e.g. the airport district's traffic report).

All generators are seeded and return plain query points, so they plug
directly into :func:`repro.broadcast.metrics.evaluate_index`.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError
from repro.geometry.point import Point
from repro.tessellation.subdivision import Subdivision


class QueryWorkload:
    """A named, reproducible stream of query locations."""

    def __init__(self, name: str, points: List[Point]) -> None:
        if not points:
            raise ReproError("a workload needs at least one query point")
        self.name = name
        self.points = points

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"QueryWorkload({self.name!r}, n={len(self.points)})"


def workload_points(workload) -> Sequence[Point]:
    """The query points of a :class:`QueryWorkload` or of a plain point
    sequence (returned as is)."""
    return workload.points if isinstance(workload, QueryWorkload) else workload


def uniform_workload(
    subdivision: Subdivision,
    n: int,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> QueryWorkload:
    """The paper's model: locations uniform over the service area.

    All generators accept an injected *rng* so a caller can share one
    seeded stream across every stochastic component of a run; when
    omitted a fresh ``random.Random(seed)`` is used.  The points come
    from :meth:`Subdivision.random_points`, which also accepts a numpy
    ``Generator`` for vectorized draws on large workloads.
    """
    if rng is None:
        rng = random.Random(seed)
    return QueryWorkload("uniform", subdivision.random_points(n, rng))


def hotspot_workload(
    subdivision: Subdivision,
    n: int,
    centers: Sequence[Tuple[float, float]],
    spread: float = 0.08,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> QueryWorkload:
    """Gaussian query hotspots, rejected to the service area."""
    if not centers:
        raise ReproError("hotspot workload needs at least one center")
    if rng is None:
        rng = random.Random(seed)
    area = subdivision.service_area
    points: List[Point] = []
    attempts = 0
    while len(points) < n:
        attempts += 1
        if attempts > 1000 * n:
            raise ReproError("hotspot rejection sampling failed to converge")
        cx, cy = centers[rng.randrange(len(centers))]
        p = Point(rng.gauss(cx, spread), rng.gauss(cy, spread))
        if area.contains_point(p):
            points.append(p)
    return QueryWorkload("hotspot", points)


def zipf_region_workload(
    subdivision: Subdivision,
    n: int,
    theta: float = 0.8,
    seed: int = 0,
    region_order: Optional[Sequence[int]] = None,
    rng: Optional[random.Random] = None,
) -> QueryWorkload:
    """Zipf-popular regions; each query uniform inside its region.

    ``theta`` is the Zipf exponent (0 = uniform over regions); the rank
    order defaults to ascending region id and can be overridden.
    """
    if theta < 0:
        raise ReproError(f"theta must be >= 0, got {theta}")
    if rng is None:
        rng = random.Random(seed)
    order = list(region_order) if region_order is not None else list(
        subdivision.region_ids
    )
    if sorted(order) != sorted(subdivision.region_ids):
        raise ReproError("region_order must be a permutation of region ids")
    weights = [1.0 / (rank + 1) ** theta for rank in range(len(order))]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)

    def pick_region() -> int:
        u = rng.random()
        lo, hi = 0, len(cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return order[lo]

    points: List[Point] = []
    while len(points) < n:
        region = subdivision.region(pick_region())
        points.append(_point_in_polygon(region.polygon, rng))
    return QueryWorkload(f"zipf({theta:g})", points)


def _point_in_polygon(polygon, rng) -> Point:
    """Uniform rejection sample in a polygon's open interior.

    Candidate testing goes through the compiled edge kernel
    (:meth:`~repro.geometry.kernels.CompiledPolygon.classify_batch`),
    whose ``interior`` flag matches ``contains_point(p,
    include_boundary=False)`` exactly — so a ``random.Random`` caller
    draws one ``(x, y)`` pair per attempt and its stream (hence every
    seeded workload) is unchanged from the scalar-geometry
    implementation.  A numpy ``Generator`` is rejected in genuine
    batches instead.
    """
    bb = polygon.bbox
    compiled = polygon.compiled()
    if isinstance(rng, np.random.Generator):
        for _ in range(100):
            xs = rng.uniform(bb.min_x, bb.max_x, 128)
            ys = rng.uniform(bb.min_y, bb.max_y, 128)
            interior, _ = compiled.classify_batch(xs, ys)
            hits = np.flatnonzero(interior)
            if hits.size:
                return Point(float(xs[hits[0]]), float(ys[hits[0]]))
        raise ReproError("rejection sampling inside a polygon failed")
    for _ in range(10000):
        x = rng.uniform(bb.min_x, bb.max_x)
        y = rng.uniform(bb.min_y, bb.max_y)
        interior, _ = compiled.classify_batch(
            np.array([x]), np.array([y])
        )
        if interior[0]:
            return Point(x, y)
    raise ReproError("rejection sampling inside a polygon failed")
