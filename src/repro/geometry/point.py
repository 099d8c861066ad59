"""Immutable 2-D points: one :class:`Point`, or a whole
:class:`PointBatch` held as coordinate arrays."""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from typing import Iterator, Tuple, Union

import numpy as np

from repro.errors import GeometryError


class Point:
    """A point in the plane.

    Points are immutable, hashable and ordered lexicographically
    (x first, then y), which is the order used by sweep-style algorithms
    such as the trapezoidal-map construction.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        object.__setattr__(self, "x", float(x))
        object.__setattr__(self, "y", float(y))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Point is immutable")

    def __reduce__(self) -> Tuple[type, Tuple[float, float]]:
        # Default pickling restores slots via __setattr__, which the
        # immutability guard rejects; rebuild through __init__ instead.
        return (Point, (self.x, self.y))

    # -- basic protocol ----------------------------------------------------

    def __repr__(self) -> str:
        return f"Point({self.x:g}, {self.y:g})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __lt__(self, other: "Point") -> bool:
        return (self.x, self.y) < (other.x, other.y)

    def __le__(self, other: "Point") -> bool:
        return (self.x, self.y) <= (other.x, other.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    # -- vector arithmetic -------------------------------------------------

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Point":
        return Point(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    # -- geometry ----------------------------------------------------------

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to *other*."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def squared_distance_to(self, other: "Point") -> float:
        """Squared Euclidean distance (avoids the sqrt for comparisons)."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def cross(self, other: "Point") -> float:
        """2-D cross product (z-component of the 3-D cross product)."""
        return self.x * other.y - self.y * other.x

    def dot(self, other: "Point") -> float:
        """Dot product."""
        return self.x * other.x + self.y * other.y

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(x, y)``."""
        return (self.x, self.y)


class PointBatch(Sequence):
    """An immutable sequence of points stored as two float64 arrays.

    A workload of many query points in structure-of-arrays form: the
    batched tracers read :attr:`xs` and :attr:`ys` directly (through
    :func:`repro.geometry.kernels.point_coords`), so no :class:`Point`
    exists unless scalar code asks for one.  As a sequence it behaves
    like the list ``[Point(x, y) for x, y in zip(xs, ys)]``: ``len``,
    indexing, iteration and ``==`` (against a batch or a list of
    points) give the same :class:`Point` values; a slice, or ``+`` of
    two batches, is a batch.

    Both arrays are stored read-only (float64 input is not copied, so
    the caller must not write to it afterwards either).  Construction
    rejects arrays of different lengths, arrays that are not 1-D and
    non-finite coordinates with a :class:`~repro.errors.GeometryError`.
    """

    __slots__ = ("xs", "ys")

    def __init__(self, xs, ys) -> None:
        try:
            xs = np.asarray(xs, np.float64)
            ys = np.asarray(ys, np.float64)
        except (TypeError, ValueError):
            raise GeometryError("point coordinates must be numbers") from None
        if xs.ndim != 1 or ys.ndim != 1:
            raise GeometryError(
                f"point coordinates must be 1-D arrays, got shapes "
                f"{xs.shape} and {ys.shape}"
            )
        if xs.size != ys.size:
            raise GeometryError(
                f"{xs.size} x coordinates for {ys.size} y coordinates"
            )
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise GeometryError("point coordinates must be finite")
        for name, values in (("xs", xs), ("ys", ys)):
            if values.flags.writeable:
                values = values.view()
                values.flags.writeable = False
            object.__setattr__(self, name, values)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PointBatch is immutable")

    def __reduce__(self):
        return (PointBatch, (np.array(self.xs), np.array(self.ys)))

    def __len__(self) -> int:
        return self.xs.size

    def __getitem__(self, index) -> Union[Point, "PointBatch"]:
        if isinstance(index, slice):
            return PointBatch(self.xs[index], self.ys[index])
        i = operator.index(index)
        return Point(self.xs[i], self.ys[i])

    def __iter__(self) -> Iterator[Point]:
        return map(Point, self.xs.tolist(), self.ys.tolist())

    def __add__(self, other: object) -> "PointBatch":
        if not isinstance(other, PointBatch):
            return NotImplemented
        return PointBatch(
            np.concatenate((self.xs, other.xs)),
            np.concatenate((self.ys, other.ys)),
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PointBatch):
            return bool(
                np.array_equal(self.xs, other.xs)
                and np.array_equal(self.ys, other.ys)
            )
        if isinstance(other, list):
            return len(other) == len(self) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"PointBatch(n={len(self)})"
