"""Sutherland–Hodgman polygon clipping.

Used to bound Voronoi cells to the service area: scipy's Voronoi diagram has
unbounded border cells, which we close by clipping a sufficiently large
enclosing cell against the service rectangle (cells are convex so
Sutherland–Hodgman is exact).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.predicates import EPS
from repro.geometry.rect import Rect


def clip_polygon_halfplane(
    vertices: Sequence[Point], a: float, b: float, c: float
) -> List[Point]:
    """Clip a polygon ring against the half-plane ``a*x + b*y + c >= 0``.

    Returns the clipped ring (possibly empty).  Vertices exactly on the
    boundary (within EPS) are kept.
    """
    result: List[Point] = []
    n = len(vertices)
    if n == 0:
        return result

    def side(p: Point) -> float:
        return a * p.x + b * p.y + c

    for i in range(n):
        cur = vertices[i]
        nxt = vertices[(i + 1) % n]
        cur_in = side(cur) >= -EPS
        nxt_in = side(nxt) >= -EPS
        if cur_in:
            result.append(cur)
        if cur_in != nxt_in:
            denom = side(cur) - side(nxt)
            if abs(denom) > EPS:
                t = side(cur) / denom
                result.append(
                    Point(cur.x + t * (nxt.x - cur.x), cur.y + t * (nxt.y - cur.y))
                )
    return result


def rect_halfplanes(rect: Rect) -> List[Tuple[float, float, float]]:
    """The four half-planes ``a*x + b*y + c >= 0`` whose intersection is
    *rect*, in the order :func:`clip_polygon_rect` clips against them."""
    # left: x >= min_x ; right: x <= max_x ; bottom: y >= min_y ; top: y <= max_y
    return [
        (1.0, 0.0, -rect.min_x),
        (-1.0, 0.0, rect.max_x),
        (0.0, 1.0, -rect.min_y),
        (0.0, -1.0, rect.max_y),
    ]


def clip_polygon_rect(vertices: Sequence[Point], rect: Rect) -> Optional[Polygon]:
    """Clip a polygon ring to *rect*; None if the intersection is empty or
    degenerate."""
    ring: List[Point] = list(vertices)
    for a, b, c in rect_halfplanes(rect):
        ring = clip_polygon_halfplane(ring, a, b, c)
        if len(ring) < 3:
            return None
    try:
        return Polygon(ring)
    except Exception:
        return None
