"""Ear-clipping triangulation of simple polygons.

Kirkpatrick's point-location hierarchy (the paper's trian-tree baseline)
needs two triangulation services: triangulating each data region at the base
level, and re-triangulating the star-shaped hole left when an independent
vertex is removed.  Ear clipping covers both (the holes are simple
polygons).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.predicates import EPS, orientation


class Triangle:
    """A triangle with CCW vertices, the node unit of the trian-tree."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: Point, b: Point, c: Point) -> None:
        if orientation(a, b, c) == 0:
            raise GeometryError(f"degenerate triangle {a!r} {b!r} {c!r}")
        if orientation(a, b, c) < 0:
            b, c = c, b
        self.a = a
        self.b = b
        self.c = c

    def __repr__(self) -> str:
        return f"Triangle({self.a!r}, {self.b!r}, {self.c!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Triangle):
            return NotImplemented
        return {self.a, self.b, self.c} == {other.a, other.b, other.c}

    def __hash__(self) -> int:
        return hash(frozenset((self.a, self.b, self.c)))

    @classmethod
    def from_ccw(cls, a: Point, b: Point, c: Point) -> "Triangle":
        """A triangle from vertices already in strict counter-clockwise
        order (as :func:`ear_clip` returns them), stored as given."""
        tri = cls.__new__(cls)
        tri.a = a
        tri.b = b
        tri.c = c
        return tri

    @property
    def vertices(self) -> Tuple[Point, Point, Point]:
        return (self.a, self.b, self.c)

    @property
    def area(self) -> float:
        return abs((self.b - self.a).cross(self.c - self.a)) / 2.0

    def contains_point(self, p: Point) -> bool:
        """Closed containment test via orientation signs."""
        d1 = orientation(self.a, self.b, p)
        d2 = orientation(self.b, self.c, p)
        d3 = orientation(self.c, self.a, p)
        return d1 >= 0 and d2 >= 0 and d3 >= 0

    def overlaps(self, other: "Triangle") -> bool:
        """True if the two closed triangles share interior or boundary."""
        return self._sat_overlap(other, strict=False)

    def overlaps_interior(self, other: "Triangle") -> bool:
        """True if the triangles share interior area (touching edges or
        vertices do not count).

        This is the linking test of Kirkpatrick's construction: a
        re-triangulated triangle becomes the parent of exactly the removed
        triangles it shares area with.
        """
        return self._sat_overlap(other, strict=True)

    def _sat_overlap(self, other: "Triangle", strict: bool) -> bool:
        # Separating-axis test on the 6 edge normals.
        for tri1, tri2 in ((self, other), (other, self)):
            verts1 = tri1.vertices
            verts2 = tri2.vertices
            for i in range(3):
                a = verts1[i]
                b = verts1[(i + 1) % 3]
                # Outward edge normal for a CCW triangle.
                nx = b.y - a.y
                ny = a.x - b.x
                proj1 = [nx * v.x + ny * v.y for v in verts1]
                proj2 = [nx * v.x + ny * v.y for v in verts2]
                if strict:
                    if min(proj2) >= max(proj1) - EPS or min(proj1) >= max(
                        proj2
                    ) - EPS:
                        return False
                elif min(proj2) > max(proj1) + EPS or min(proj1) > max(
                    proj2
                ) + EPS:
                    return False
        return True


def triangulate_polygon(vertices: Sequence[Point]) -> List[Triangle]:
    """Triangulate a simple polygon ring (any orientation) by ear clipping.

    Runs in O(n^2), which is ample for the region sizes in this library
    (Voronoi cells rarely exceed ~20 vertices).
    """
    ring = list(vertices)
    return [
        Triangle.from_ccw(ring[i], ring[j], ring[k])
        for i, j, k in ear_clip([p.x for p in ring], [p.y for p in ring])
    ]


def ear_clip(
    xs: Sequence[float], ys: Sequence[float]
) -> List[Tuple[int, int, int]]:
    """Ear clipping of the ring ``(xs[i], ys[i])`` (any orientation; a
    repeated closing vertex is ignored).

    Returns the triangles as index triples into the ring, each in the
    counter-clockwise order a :class:`Triangle` stores.  Every corner
    test is :func:`~repro.geometry.predicates.orientation`'s arithmetic
    written out on the coordinates.
    """
    n = len(xs)
    if n >= 2 and xs[0] == xs[-1] and ys[0] == ys[-1]:
        n -= 1
    if n < 3:
        raise GeometryError("cannot triangulate fewer than 3 vertices")
    area2 = 0.0
    for i in range(n):
        j = (i + 1) % n
        area2 += xs[i] * ys[j] - ys[i] * xs[j]
    indices = list(range(n))
    if area2 < 0:
        indices.reverse()

    def cross(a: int, b: int, c: int) -> float:
        return (xs[b] - xs[a]) * (ys[c] - ys[a]) - (ys[b] - ys[a]) * (xs[c] - xs[a])

    triangles: List[Tuple[int, int, int]] = []
    guard = 0
    max_iterations = n * n + 10
    while len(indices) > 3:
        guard += 1
        if guard > max_iterations:
            raise GeometryError("ear clipping failed to converge (non-simple ring?)")
        ear_found = False
        m = len(indices)
        for k in range(m):
            a = indices[(k - 1) % m]
            b = indices[k]
            c = indices[(k + 1) % m]
            if not cross(a, b, c) > EPS:
                continue  # reflex or collinear corner, not an ear
            if _any_point_inside(xs, ys, indices, a, b, c):
                continue
            triangles.append((a, b, c))
            indices.pop(k)
            ear_found = True
            break
        if not ear_found:
            # Collinear chains can block every strictly-convex ear; drop one
            # exactly-collinear vertex and retry.
            dropped = False
            m = len(indices)
            for k in range(m):
                value = cross(indices[(k - 1) % m], indices[k], indices[(k + 1) % m])
                if not (value > EPS or value < -EPS):
                    indices.pop(k)
                    dropped = True
                    break
            if not dropped:
                raise GeometryError("no ear found: ring is not a simple polygon")

    if len(indices) == 3:
        a, b, c = indices
        value = cross(a, b, c)
        if value > EPS:
            triangles.append((a, b, c))
        elif value < -EPS:
            triangles.append((a, c, b))
    return triangles


def _any_point_inside(
    xs: Sequence[float],
    ys: Sequence[float],
    indices: Sequence[int],
    a: int,
    b: int,
    c: int,
) -> bool:
    """True if any other active vertex lies in the closed candidate ear.

    The test must be closed, not strict: a reflex vertex sitting exactly on
    the candidate diagonal (common in rectilinear polygons) still
    invalidates the ear — clipping it would leave a self-overlapping ring.
    Vertices that merely coincide with the ear's corners do not block.
    """
    ax, ay, bx, by, cx, cy = xs[a], ys[a], xs[b], ys[b], xs[c], ys[c]
    for idx in indices:
        px = xs[idx]
        py = ys[idx]
        if (
            not (bx - ax) * (py - ay) - (by - ay) * (px - ax) < -EPS
            and not (cx - bx) * (py - by) - (cy - by) * (px - bx) < -EPS
            and not (ax - cx) * (py - cy) - (ay - cy) * (px - cx) < -EPS
            and idx != a
            and idx != b
            and idx != c
            and not (px == ax and py == ay)
            and not (px == bx and py == by)
            and not (px == cx and py == cy)
        ):
            return True
    return False
