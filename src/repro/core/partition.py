"""Space partitioning — Algorithm 1 (PartitionSize) and style selection.

A *partition style* fixes three choices (§4.2):

* the partition dimension — ``"y"`` (left/right subspaces, regions sorted
  by an x-coordinate) or ``"x"`` (upper/lower subspaces, sorted by a
  y-coordinate);
* the sort key — the regions' near or far bounding coordinate along that
  axis (leftmost/rightmost x, lowest/uppermost y);
* when N is odd, whether the first subspace receives (N+1)/2 or (N-1)/2
  regions.

That yields 4 styles for even N and 8 for odd N.  Each style is evaluated
by the size (coordinate count) of the pruned division it produces; ties are
broken by the lower *inter-prob* — the probability that a uniform query
falls in the interlocking zone D2 shared by both subspaces, where the
cheap D1/D3 early tests cannot decide the side.

Terminology used throughout (generalising the paper's y-dimensional
description):

* the **first** subspace is the lefthand (dimension "y") or upper
  (dimension "x") one — it becomes the left subtree;
* ``first_bound`` bounds the exclusive zone D1 of the first subspace
  (the paper's ``right_lmc`` for dimension "y");
* ``second_bound`` bounds the exclusive zone D3 of the second subspace
  (the paper's ``left_rmc``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IndexBuildError
from repro.geometry.point import Point
from repro.geometry.polyline import Polyline, chain_keyed, total_coordinate_count
from repro.tessellation.subdivision import EdgeTable, Subdivision, vertex_key


class PartitionStyle:
    """One of the candidate ways to split a space (§4.2).

    ``described`` is an extension beyond the paper: the stored boundary can
    be the extent of either subspace ("first" — the paper's choice — or
    "second", with the ray-parity test mirrored).  Describing whichever
    subspace has the smaller pruned extent can substantially shrink
    top-level partitions; ``enumerate_styles(extended=True)`` doubles the
    candidate set to exploit this.
    """

    __slots__ = ("dimension", "sort_key", "first_count", "described")

    def __init__(
        self,
        dimension: str,
        sort_key: str,
        first_count: int,
        described: str = "first",
    ) -> None:
        if dimension not in ("x", "y"):
            raise IndexBuildError(f"dimension must be 'x' or 'y', got {dimension!r}")
        if sort_key not in ("near", "far"):
            raise IndexBuildError(f"sort_key must be 'near' or 'far', got {sort_key!r}")
        if described not in ("first", "second"):
            raise IndexBuildError(
                f"described must be 'first' or 'second', got {described!r}"
            )
        self.dimension = dimension
        #: "near"/"far" relative to the first subspace: for dimension "y"
        #: near = leftmost x, far = rightmost x; for dimension "x"
        #: near = uppermost y, far = lowest y.
        self.sort_key = sort_key
        self.first_count = first_count
        #: Which subspace's extent the partition stores.
        self.described = described

    def __repr__(self) -> str:
        return (
            f"PartitionStyle(dim={self.dimension!r}, key={self.sort_key!r}, "
            f"first={self.first_count}, described={self.described!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartitionStyle):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and self.sort_key == other.sort_key
            and self.first_count == other.first_count
            and self.described == other.described
        )

    def __hash__(self) -> int:
        return hash(
            (self.dimension, self.sort_key, self.first_count, self.described)
        )


class Partition:
    """The evaluated division produced by one partition style."""

    __slots__ = (
        "style",
        "first_ids",
        "second_ids",
        "polylines",
        "size",
        "first_bound",
        "second_bound",
        "inter_prob",
    )

    def __init__(
        self,
        style: PartitionStyle,
        first_ids: List[int],
        second_ids: List[int],
        polylines: List[Polyline],
        first_bound: float,
        second_bound: float,
        inter_prob: float,
    ) -> None:
        self.style = style
        self.first_ids = first_ids
        self.second_ids = second_ids
        self.polylines = polylines
        #: Partition size in coordinates — the style-selection criterion.
        self.size = total_coordinate_count(polylines)
        self.first_bound = first_bound
        self.second_bound = second_bound
        self.inter_prob = inter_prob

    def __repr__(self) -> str:
        return (
            f"Partition({self.style!r}, size={self.size}, "
            f"inter_prob={self.inter_prob:.3f})"
        )

    @property
    def dimension(self) -> str:
        return self.style.dimension

    def early_side_of(self, p: Point) -> Optional[str]:
        """D1/D3 exclusive-zone test only — what a client can decide from
        the *first* packet of a multi-packet node, which carries the RMC
        value and the LMC starting point of the partition (§4.4).

        Returns ``"first"``/``"second"``, or None when *p* lies in the
        interlocking zone D2 and the full partition must be read.
        """
        if self.dimension == "y":
            if p.x <= self.first_bound:
                return "first"
            if p.x >= self.second_bound:
                return "second"
            return None
        if p.y >= self.first_bound:
            return "first"
        if p.y <= self.second_bound:
            return "second"
        return None

    def side_of(self, p: Point) -> str:
        """Which subspace contains *p*: ``"first"`` or ``"second"``.

        This is the decision step of Algorithm 2 (lines 4-26): the D1/D3
        exclusive-zone comparisons first, then the ray-parity test for
        queries in the interlocking zone D2.  When the partition describes
        the *second* subspace (extension), the ray is cast toward the
        first subspace's side and odd parity means "second".
        """
        early = self.early_side_of(p)
        if early is not None:
            return early
        crossings = self.ray_crossings(p)
        if self.style.described == "first":
            return "first" if crossings % 2 == 1 else "second"
        return "second" if crossings % 2 == 1 else "first"

    def ray_crossings(self, p: Point) -> int:
        """Crossings of the side-test ray with the stored polylines.

        Ray direction by (dimension, described): y/first -> right,
        y/second -> left, x/first -> down, x/second -> up.
        """
        crossings = 0
        described_first = self.style.described == "first"
        if self.dimension == "y":
            for pl in self.polylines:
                for a, b in pl.segment_endpoints():
                    if (a.y > p.y) != (b.y > p.y):
                        x_at = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x)
                        if described_first:
                            if x_at > p.x:
                                crossings += 1
                        elif x_at < p.x:
                            crossings += 1
        else:
            for pl in self.polylines:
                for a, b in pl.segment_endpoints():
                    if (a.x > p.x) != (b.x > p.x):
                        y_at = a.y + (p.x - a.x) / (b.x - a.x) * (b.y - a.y)
                        if described_first:
                            if y_at < p.y:
                                crossings += 1
                        elif y_at > p.y:
                            crossings += 1
        return crossings


def enumerate_styles(
    n_regions: int, extended: bool = False
) -> List[PartitionStyle]:
    """The 4 (even N) or 8 (odd N) candidate styles of §4.2.

    ``extended=True`` doubles the set with complement-extent variants
    (``described="second"``) — an extension beyond the paper.
    """
    if n_regions < 2:
        raise IndexBuildError("cannot partition fewer than two regions")
    half = n_regions // 2
    counts = [half] if n_regions % 2 == 0 else [half, half + 1]
    described_options = ("first", "second") if extended else ("first",)
    return [
        PartitionStyle(dimension, sort_key, count, described)
        for dimension in ("y", "x")
        for sort_key in ("near", "far")
        for count in counts
        for described in described_options
    ]


def evaluate_style(
    subdivision: Subdivision,
    region_ids: Sequence[int],
    style: PartitionStyle,
) -> Partition:
    """Algorithm 1: split the regions per *style* and size the division.

    Phase 1 sorts the regions and extracts the extent (full union boundary)
    of the first subspace by edge cancellation.  Phase 2 prunes extent
    segments that lie entirely inside the first subspace's exclusive zone
    D1 — the side test's ray can never reach them — and truncates segments
    crossing the D1 boundary line.

    Both phases read the subdivision's :class:`EdgeTable`: the extent is a
    list of edge-table entries, and the kept segments are chained on
    vertex ids, so only the cut points made by pruning are quantised here.
    """
    table, rows = subdivision.edge_rows(region_ids)
    ordered = _sort_rows(table, region_ids, rows, style)
    first = ordered[: style.first_count]
    second = ordered[style.first_count :]
    if not first or not second:
        raise IndexBuildError(
            f"style {style!r} yields an empty subspace for {len(ordered)} regions"
        )
    first_rows = [row for _, row in first]
    second_rows = [row for _, row in second]
    all_rows = first_rows + second_rows

    described_first = style.described == "first"
    extent = table.boundary(first_rows if described_first else second_rows)

    if style.dimension == "y":
        # D1: x <= first_bound (nothing of the second subspace is there).
        first_bound = min(map(table.min_x.__getitem__, second_rows))
        second_bound = max(map(table.max_x.__getitem__, first_rows))
        if described_first:
            # Keep the first subspace's boundary right of the D1 line
            # (reachable by the rightward ray).
            kept = _prune_extent_y(table, extent, first_bound, keep="right")
        else:
            # Keep the second subspace's boundary left of the D3 line
            # (reachable by the leftward ray).
            kept = _prune_extent_y(table, extent, second_bound, keep="left")
        axis_lo = min(map(table.min_x.__getitem__, all_rows))
        axis_hi = max(map(table.max_x.__getitem__, all_rows))
        overlap = max(0.0, second_bound - first_bound)
    else:
        # D1: y >= first_bound.
        first_bound = max(map(table.max_y.__getitem__, second_rows))
        second_bound = min(map(table.min_y.__getitem__, first_rows))
        if described_first:
            kept = _prune_extent_x(table, extent, first_bound, keep="below")
        else:
            kept = _prune_extent_x(table, extent, second_bound, keep="above")
        axis_lo = min(map(table.min_y.__getitem__, all_rows))
        axis_hi = max(map(table.max_y.__getitem__, all_rows))
        overlap = max(0.0, first_bound - second_bound)

    span = max(axis_hi - axis_lo, 1e-12)
    inter_prob = min(1.0, overlap / span)
    return Partition(
        style=style,
        first_ids=[rid for rid, _ in first],
        second_ids=[rid for rid, _ in second],
        polylines=chain_keyed(*kept),
        first_bound=first_bound,
        second_bound=second_bound,
        inter_prob=inter_prob,
    )


def best_partition(
    subdivision: Subdivision,
    region_ids: Sequence[int],
    tie_break_inter_prob: bool = True,
    extended_styles: bool = False,
) -> Partition:
    """Evaluate every candidate style and pick the best one (§4.2).

    Primary criterion: smallest partition size (coordinate count).
    Tie-break: lowest inter-prob (disabled for the A1 ablation, which then
    falls back to the deterministic style enumeration order).
    ``extended_styles`` adds the complement-extent variants (extension).
    """
    candidates = [
        evaluate_style(subdivision, region_ids, style)
        for style in enumerate_styles(len(region_ids), extended=extended_styles)
    ]
    if tie_break_inter_prob:
        return min(candidates, key=lambda part: (part.size, part.inter_prob))
    return min(candidates, key=lambda part: part.size)


def _sort_regions(
    subdivision: Subdivision, region_ids: Sequence[int], style: PartitionStyle
) -> List[int]:
    """Order regions so the first ``first_count`` form the first subspace.

    Dimension "y": ascending x (first = lefthand).  Dimension "x":
    descending y (first = upper).  Region id breaks sort-key ties so the
    construction is deterministic.
    """
    table, rows = subdivision.edge_rows(region_ids)
    return [rid for rid, _ in _sort_rows(table, region_ids, rows, style)]


def _sort_rows(
    table: EdgeTable,
    region_ids: Sequence[int],
    rows: Sequence[int],
    style: PartitionStyle,
) -> List[Tuple[int, int]]:
    """:func:`_sort_regions` as ``(region id, table row)`` pairs."""
    if style.dimension == "y":
        values = table.max_x if style.sort_key == "far" else table.min_x
        keyed = [(values[row], rid, row) for rid, row in zip(region_ids, rows)]
    else:
        values = table.min_y if style.sort_key == "far" else table.max_y
        keyed = [(-values[row], rid, row) for rid, row in zip(region_ids, rows)]
    keyed.sort()  # region ids are unique: ties never reach the row
    return [(rid, row) for _, rid, row in keyed]


#: Segments kept by pruning, as the four parallel lists
#: :func:`~repro.geometry.polyline.chain_keyed` takes: start points, end
#: points, start keys, end keys.
KeptSegments = Tuple[List[Point], List[Point], List[int], List[int]]


def _prune_extent_y(
    table: EdgeTable, extent: np.ndarray, line_x: float, keep: str = "right"
) -> KeptSegments:
    """Keep the extent parts on one side of a vertical line (dimension "y"
    pruning, Algorithm 1 lines 5-16; ``keep="left"`` is the mirrored
    complement-extent variant).  *extent* holds edge-table entries."""
    right = keep == "right"
    kept: KeptSegments = ([], [], [], [])
    keep_a, keep_b, keep_ka, keep_kb = (part.append for part in kept)
    cut_key = _cut_keys(table)
    for a, b, ka, kb in _extent_segments(table, extent):
        lo, hi = (a.x, b.x) if a.x <= b.x else (b.x, a.x)
        if (lo >= line_x) if right else (hi <= line_x):
            # Entirely on the kept side — includes a division segment
            # lying exactly on the line.
            keep_a(a)
            keep_b(b)
            keep_ka(ka)
            keep_kb(kb)
            continue
        if (hi <= line_x) if right else (lo >= line_x):
            continue  # the test ray cannot reach it
        t = (line_x - a.x) / (b.x - a.x)
        cut = Point(line_x, a.y + t * (b.y - a.y))
        if right:
            far, k_far = (a, ka) if a.x > b.x else (b, kb)
        else:
            far, k_far = (a, ka) if a.x < b.x else (b, kb)
        if far != cut:
            keep_a(cut)
            keep_b(far)
            keep_ka(cut_key(cut))
            keep_kb(k_far)
    return kept


def _prune_extent_x(
    table: EdgeTable, extent: np.ndarray, line_y: float, keep: str = "below"
) -> KeptSegments:
    """Keep the extent parts on one side of a horizontal line (dimension
    "x" pruning; ``keep="above"`` is the mirrored complement variant)."""
    below = keep == "below"
    kept: KeptSegments = ([], [], [], [])
    keep_a, keep_b, keep_ka, keep_kb = (part.append for part in kept)
    cut_key = _cut_keys(table)
    for a, b, ka, kb in _extent_segments(table, extent):
        lo, hi = (a.y, b.y) if a.y <= b.y else (b.y, a.y)
        if (hi <= line_y) if below else (lo >= line_y):
            keep_a(a)
            keep_b(b)
            keep_ka(ka)
            keep_kb(kb)
            continue
        if (lo >= line_y) if below else (hi <= line_y):
            continue  # the test ray cannot reach it
        t = (line_y - a.y) / (b.y - a.y)
        cut = Point(a.x + t * (b.x - a.x), line_y)
        if below:
            far, k_far = (a, ka) if a.y < b.y else (b, kb)
        else:
            far, k_far = (a, ka) if a.y > b.y else (b, kb)
        if far != cut:
            keep_a(cut)
            keep_b(far)
            keep_ka(cut_key(cut))
            keep_kb(k_far)
    return kept


def _extent_segments(table: EdgeTable, extent: np.ndarray):
    """``(a, b, vertex id of a, vertex id of b)`` of each extent entry."""
    ends = table.succ[extent]
    points = table.points.__getitem__
    return zip(
        map(points, extent.tolist()),
        map(points, ends.tolist()),
        table.vertex[extent].tolist(),
        table.vertex[ends].tolist(),
    )


def _cut_keys(table: EdgeTable):
    """Vertex-id keys for fresh cut points.

    A cut point quantising onto an existing vertex takes that vertex's
    id; any other gets a new id past the table's, equal for equal keys.
    """
    vertex_ids = table.vertex_ids
    fresh = {}

    def key(p: Point) -> int:
        q = vertex_key(p)
        vid = vertex_ids.get(q)
        if vid is None:
            vid = fresh.setdefault(q, len(vertex_ids) + len(fresh))
        return vid

    return key
