"""Seeded point-set generators for the evaluation datasets."""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SubdivisionError
from repro.geometry.point import Point
from repro.geometry.rect import Rect

#: Minimum pairwise separation (relative to the service-area diagonal) that
#: keeps Voronoi construction numerically healthy.
MIN_SEPARATION_FACTOR = 1e-4


def uniform_points(
    n: int, seed: int, service_area: Optional[Rect] = None
) -> List[Point]:
    """*n* uniform random points, deduplicated to a minimum separation."""
    if service_area is None:
        service_area = Rect(0.0, 0.0, 1.0, 1.0)
    rng = random.Random(seed)
    placed = _SeparatedPoints(n, service_area)
    attempts = 0
    while placed.count < n:
        attempts += 1
        if attempts > 100 * n:
            raise SubdivisionError(f"could not place {n} separated points")
        placed.add_if_separated(
            rng.uniform(service_area.min_x, service_area.max_x),
            rng.uniform(service_area.min_y, service_area.max_y),
        )
    return placed.points()


def clustered_points(
    n: int,
    seed: int,
    cluster_centers: Sequence[Tuple[float, float]],
    cluster_spread: float,
    noise_fraction: float = 0.1,
    service_area: Optional[Rect] = None,
) -> List[Point]:
    """*n* points drawn from a Gaussian mixture plus uniform noise.

    Each non-noise point picks a cluster center uniformly and adds Gaussian
    offsets with standard deviation ``cluster_spread`` (in service-area
    units), rejected outside the service area.  ``noise_fraction`` of the
    points are uniform over the whole area, mimicking the scattered
    outliers of the real HOSPITAL/PARK point sets.
    """
    if service_area is None:
        service_area = Rect(0.0, 0.0, 1.0, 1.0)
    if not cluster_centers:
        raise SubdivisionError("clustered_points needs at least one center")
    rng = random.Random(seed)
    placed = _SeparatedPoints(n, service_area)
    attempts = 0
    while placed.count < n:
        attempts += 1
        if attempts > 1000 * n:
            raise SubdivisionError(f"could not place {n} separated points")
        if rng.random() < noise_fraction:
            x = rng.uniform(service_area.min_x, service_area.max_x)
            y = rng.uniform(service_area.min_y, service_area.max_y)
        else:
            cx, cy = cluster_centers[rng.randrange(len(cluster_centers))]
            x = rng.gauss(cx, cluster_spread)
            y = rng.gauss(cy, cluster_spread)
            if not service_area.contains_point(Point(x, y)):
                continue
        placed.add_if_separated(x, y)
    return placed.points()


def _min_separation(service_area: Rect) -> float:
    diagonal = (service_area.width ** 2 + service_area.height ** 2) ** 0.5
    return diagonal * MIN_SEPARATION_FACTOR


class _SeparatedPoints:
    """The points placed so far, as two preallocated float64 arrays.

    A draw is kept when its squared distance to every placed point,
    ``dx * dx + dy * dy`` with ``dx = x - placed_x`` as in
    :meth:`Point.squared_distance_to`, is at least the squared minimum
    separation: the same IEEE operations over the whole prefix at once.
    """

    def __init__(self, n: int, service_area: Rect) -> None:
        min_sep = _min_separation(service_area)
        self.min_sep2 = min_sep * min_sep
        self.xs = np.empty(n)
        self.ys = np.empty(n)
        self.count = 0

    def add_if_separated(self, x: float, y: float) -> None:
        k = self.count
        dx = x - self.xs[:k]
        dy = y - self.ys[:k]
        if (dx * dx + dy * dy >= self.min_sep2).all():
            self.xs[k] = x
            self.ys[k] = y
            self.count = k + 1

    def points(self) -> List[Point]:
        return [
            Point(x, y) for x, y in zip(self.xs.tolist(), self.ys.tolist())
        ]
