"""Polylines and the segment-chaining used to assemble D-tree partitions.

A D-tree partition (the division between two complementary subspaces) is
"one or more polylines" in the paper.  Algorithm 1 produces a *set of
segments*; :func:`chain_segments` stitches them into maximal polylines so the
partition is stored compactly (shared interior vertices are stored once),
which is exactly what the paper's coordinate-count size measure assumes.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.predicates import quantize_point
from repro.geometry.segment import Segment


class Polyline:
    """An open or closed chain of vertices."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: Sequence[Point]) -> None:
        if len(vertices) < 2:
            raise GeometryError("a polyline needs at least two vertices")
        self.vertices: Tuple[Point, ...] = tuple(vertices)

    def __repr__(self) -> str:
        inner = ", ".join(f"({v.x:g},{v.y:g})" for v in self.vertices)
        return f"Polyline[{inner}]"

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polyline):
            return NotImplemented
        return self.vertices == other.vertices or self.vertices == other.vertices[::-1]

    def __hash__(self) -> int:
        forward = tuple(quantize_point(v) for v in self.vertices)
        return hash(min(forward, forward[::-1]))

    @property
    def coordinate_count(self) -> int:
        """Number of coordinate pairs stored — the paper's partition-size
        unit (Algorithm 1 returns "the partition size in terms of the
        number of coordinates")."""
        return len(self.vertices)

    @property
    def is_closed(self) -> bool:
        """True when the first and last vertex coincide."""
        return self.vertices[0] == self.vertices[-1]

    def segments(self) -> List[Segment]:
        """Constituent segments in chain order."""
        return [
            Segment(self.vertices[i], self.vertices[i + 1])
            for i in range(len(self.vertices) - 1)
        ]

    def segment_endpoints(self) -> List[Tuple[Point, Point]]:
        """Constituent segments as endpoint pairs (cheaper than Segment)."""
        return [
            (self.vertices[i], self.vertices[i + 1])
            for i in range(len(self.vertices) - 1)
        ]

    @property
    def min_x(self) -> float:
        return min(v.x for v in self.vertices)

    @property
    def max_x(self) -> float:
        return max(v.x for v in self.vertices)

    @property
    def min_y(self) -> float:
        return min(v.y for v in self.vertices)

    @property
    def max_y(self) -> float:
        return max(v.y for v in self.vertices)


def chain_segments(segments: Iterable[Segment]) -> List[Polyline]:
    """Stitch an unordered set of segments into maximal polylines.

    Endpoints are matched after coordinate quantisation.  Vertices of degree
    other than two end a chain, so the result is a set of maximal open or
    closed polylines covering every input segment exactly once.
    """
    seg_list = list(segments)
    return chain_keyed(
        [seg.a for seg in seg_list],
        [seg.b for seg in seg_list],
        [quantize_point(seg.a) for seg in seg_list],
        [quantize_point(seg.b) for seg in seg_list],
    )


def chain_keyed(
    a_points: Sequence[Point],
    b_points: Sequence[Point],
    a_keys: Sequence[Hashable],
    b_keys: Sequence[Hashable],
) -> List[Polyline]:
    """:func:`chain_segments` over segments given as endpoint lists.

    Segment ``i`` runs from ``a_points[i]`` to ``b_points[i]``; two
    endpoints join when their keys are equal.  Any keys will do whose
    equality is that of the quantised points (the subdivision's vertex
    ids, say), so the rounding is done once per vertex, not per visit.
    """
    n = len(a_points)
    if not n:
        return []

    adjacency: Dict[Hashable, List[int]] = defaultdict(list)
    for idx in range(n):
        adjacency[a_keys[idx]].append(idx)
        adjacency[b_keys[idx]].append(idx)

    used = [False] * n
    polylines: List[Polyline] = []

    def next_of(key: Hashable) -> int:
        """The one unused segment through a clean degree-2 joint, or -1."""
        around = adjacency[key]
        if len(around) != 2:
            return -1
        candidates = [j for j in around if not used[j]]
        return candidates[0] if len(candidates) == 1 else -1

    def walk(idx: int, start_point: Point, key: Hashable) -> List[Point]:
        """Follow degree-2 joints from one endpoint of a seed segment."""
        chain = [start_point]
        while True:
            used[idx] = True
            if a_keys[idx] == key:
                chain.append(b_points[idx])
                key = b_keys[idx]
            else:
                chain.append(a_points[idx])
                key = a_keys[idx]
            # Only continue through clean degree-2 joints; branch points
            # terminate the polyline.
            idx = next_of(key)
            if idx < 0:
                return chain

    for seed in range(n):
        if used[seed]:
            continue
        # Grow forward from a, then extend backwards from a if possible.
        forward = walk(seed, a_points[seed], a_keys[seed])
        back = next_of(a_keys[seed])
        if back >= 0:
            backward = walk(back, forward[0], a_keys[seed])
            # backward starts at forward[0]; prepend it reversed.
            forward = backward[::-1][:-1] + forward
        polylines.append(Polyline(forward))

    return polylines


def total_coordinate_count(polylines: Sequence[Polyline]) -> int:
    """Partition size of a set of polylines, in coordinates (paper unit)."""
    return sum(pl.coordinate_count for pl in polylines)
