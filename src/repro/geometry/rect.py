"""Axis-aligned rectangles (minimum bounding rectangles)."""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable

from repro.errors import GeometryError
from repro.geometry.point import Point


class Rect:
    """Closed axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``.

    The MBR primitive of the R*-tree, whose node table keeps MBRs as
    ``(min_x, min_y, max_x, max_y)`` rows and computes its insertion and
    split measures on them.
    """

    __slots__ = ("min_x", "min_y", "max_x", "max_y")

    def __init__(self, min_x: float, min_y: float, max_x: float, max_y: float) -> None:
        if min_x > max_x or min_y > max_y:
            raise GeometryError(
                f"inverted rectangle: ({min_x},{min_y})-({max_x},{max_y})"
            )
        self.min_x = float(min_x)
        self.min_y = float(min_y)
        self.max_x = float(max_x)
        self.max_y = float(max_y)

    def __repr__(self) -> str:
        return f"Rect({self.min_x:g}, {self.min_y:g}, {self.max_x:g}, {self.max_y:g})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return (
            self.min_x == other.min_x
            and self.min_y == other.min_y
            and self.max_x == other.max_x
            and self.max_y == other.max_y
        )

    def __hash__(self) -> int:
        return hash((self.min_x, self.min_y, self.max_x, self.max_y))

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_points(cls, points: Iterable[Point]) -> "Rect":
        """Smallest rectangle containing all *points*."""
        pts = list(points)
        if not pts:
            raise GeometryError("cannot bound an empty point set")
        return cls(
            min(map(_X, pts)), min(map(_Y, pts)), max(map(_X, pts)), max(map(_Y, pts))
        )

    @classmethod
    def union_of(cls, rects: Iterable["Rect"]) -> "Rect":
        """Smallest rectangle containing all *rects*."""
        rect_list = list(rects)
        if not rect_list:
            raise GeometryError("cannot bound an empty rectangle set")
        return cls(
            min(map(_MIN_X, rect_list)),
            min(map(_MIN_Y, rect_list)),
            max(map(_MAX_X, rect_list)),
            max(map(_MAX_Y, rect_list)),
        )

    # -- measures ------------------------------------------------------------

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    # -- relations -----------------------------------------------------------

    def contains_point(self, p: Point) -> bool:
        """True if *p* lies in the closed rectangle."""
        return self.min_x <= p.x <= self.max_x and self.min_y <= p.y <= self.max_y

    def intersects(self, other: "Rect") -> bool:
        """True if the closed rectangles share at least one point."""
        return not (
            self.max_x < other.min_x
            or other.max_x < self.min_x
            or self.max_y < other.min_y
            or other.max_y < self.min_y
        )


_X, _Y = attrgetter("x"), attrgetter("y")
_MIN_X, _MIN_Y = attrgetter("min_x"), attrgetter("min_y")
_MAX_X, _MAX_Y = attrgetter("max_x"), attrgetter("max_y")
