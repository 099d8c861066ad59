"""Region updates: the input of the dynamic-broadcast maintenance layer.

A location-dependent dataset is not frozen: service regions open
(*insert*), close (*delete*) and change shape (*reshape*) between
broadcast cycles.  This module models one batch of such updates
(:class:`UpdateBatch`), derives a batch from two subdivisions
(:func:`diff_subdivisions`), and provides id-stable Voronoi churn
helpers so experiments can evolve a tessellation while keeping the ids
of untouched regions fixed — which is what makes incremental index
maintenance meaningful.

Because a subdivision tiles the service area exactly, the union of the
*old* polygons of the changed regions (deleted + reshaped) always equals
the union of their *new* polygons (inserted + reshaped): the unchanged
regions pin down the complement on both sides.  The D-tree maintainer's
subtree-rebuild soundness rests on this identity.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import UpdateError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.tessellation.subdivision import DataRegion, Subdivision
from repro.tessellation.voronoi import bounded_voronoi

_KINDS = ("insert", "delete", "reshape")


class RegionUpdate:
    """One region-level change between two broadcast cycles."""

    __slots__ = ("kind", "region_id")

    def __init__(self, kind: str, region_id: int) -> None:
        if kind not in _KINDS:
            raise UpdateError(
                f"unknown update kind {kind!r} (expected one of {_KINDS})"
            )
        self.kind = kind
        self.region_id = int(region_id)

    def __repr__(self) -> str:
        return f"RegionUpdate({self.kind}, id={self.region_id})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegionUpdate):
            return NotImplemented
        return self.kind == other.kind and self.region_id == other.region_id

    def __hash__(self) -> int:
        return hash((self.kind, self.region_id))


class UpdateBatch:
    """All region updates applied between two consecutive cycles.

    The batch is the unit of the ``apply_updates()`` maintenance
    protocol: indexes see the old subdivision (the one they were built
    over), the new subdivision, and this batch, and must afterwards
    answer queries exactly as a from-scratch build over the new
    subdivision would.
    """

    __slots__ = ("updates",)

    def __init__(self, updates: Sequence[RegionUpdate]) -> None:
        seen = set()
        for u in updates:
            key = u.region_id
            if key in seen:
                raise UpdateError(
                    f"region {key} appears in more than one update of the batch"
                )
            seen.add(key)
        self.updates: Tuple[RegionUpdate, ...] = tuple(updates)

    def __len__(self) -> int:
        return len(self.updates)

    def __repr__(self) -> str:
        return (
            f"UpdateBatch(insert={sorted(self.inserted_ids)}, "
            f"delete={sorted(self.deleted_ids)}, "
            f"reshape={sorted(self.reshaped_ids)})"
        )

    @property
    def is_empty(self) -> bool:
        return not self.updates

    def _ids(self, kind: str) -> FrozenSet[int]:
        return frozenset(u.region_id for u in self.updates if u.kind == kind)

    @property
    def inserted_ids(self) -> FrozenSet[int]:
        return self._ids("insert")

    @property
    def deleted_ids(self) -> FrozenSet[int]:
        return self._ids("delete")

    @property
    def reshaped_ids(self) -> FrozenSet[int]:
        return self._ids("reshape")

    @property
    def removed_ids(self) -> FrozenSet[int]:
        """Ids whose *old* entry must leave the index (deleted + reshaped)."""
        return self.deleted_ids | self.reshaped_ids

    @property
    def added_ids(self) -> FrozenSet[int]:
        """Ids whose *new* entry must enter the index (inserted + reshaped)."""
        return self.inserted_ids | self.reshaped_ids

    def validate_against(
        self, old: Subdivision, new: Subdivision, *, tolerance: float = 0.0
    ) -> None:
        """Check the batch is exactly the delta between *old* and *new*.

        Pass the *tolerance* the batch was diffed with: it changes which
        sub-threshold vertex drifts count as reshapes.
        """
        old_ids = set(old.region_ids)
        new_ids = set(new.region_ids)
        for rid in self.inserted_ids:
            if rid in old_ids or rid not in new_ids:
                raise UpdateError(f"insert of region {rid} inconsistent")
        for rid in self.deleted_ids:
            if rid not in old_ids or rid in new_ids:
                raise UpdateError(f"delete of region {rid} inconsistent")
        for rid in self.reshaped_ids:
            if rid not in old_ids or rid not in new_ids:
                raise UpdateError(f"reshape of region {rid} inconsistent")
        derived = diff_subdivisions(old, new, tolerance=tolerance)
        if set(derived.updates) != set(self.updates):
            raise UpdateError(
                "batch does not match the subdivision delta: "
                f"batch={self!r}, delta={derived!r}"
            )


def diff_subdivisions(
    old: Subdivision, new: Subdivision, *, tolerance: float = 0.0
) -> UpdateBatch:
    """The :class:`UpdateBatch` turning *old* into *new*.

    Ids only in *new* are inserts, ids only in *old* are deletes, ids in
    both whose polygon changed (ring identity first, value equality as
    the slow path) are reshapes.

    *tolerance* ignores sub-threshold vertex drift when classifying
    reshapes.  Re-tessellating after moving one Voronoi site perturbs
    the floating-point vertices of geometrically untouched cells at the
    1e-12 scale (the qhull sums run in a different order), and an exact
    diff would report half the map as reshaped; a tolerance around
    ``1e-9 * width`` separates that noise from genuine reshapes by many
    orders of magnitude.
    """
    old_ids = set(old.region_ids)
    new_ids = set(new.region_ids)
    updates: List[RegionUpdate] = []
    for rid in sorted(new_ids - old_ids):
        updates.append(RegionUpdate("insert", rid))
    for rid in sorted(old_ids - new_ids):
        updates.append(RegionUpdate("delete", rid))
    for rid in sorted(old_ids & new_ids):
        a = old.region(rid).polygon
        b = new.region(rid).polygon
        if a.vertices is b.vertices:
            continue
        if tolerance > 0.0:
            if not _rings_close(a, b, tolerance):
                updates.append(RegionUpdate("reshape", rid))
        elif a != b:
            updates.append(RegionUpdate("reshape", rid))
    return UpdateBatch(updates)


def _rings_close(a, b, tolerance: float) -> bool:
    """True when the two CCW rings match up to rotation within *tolerance*."""
    va, vb = a.vertices, b.vertices
    n = len(va)
    if n != len(vb):
        return False
    for k in range(n):
        if all(
            abs(va[i].x - vb[(i + k) % n].x) <= tolerance
            and abs(va[i].y - vb[(i + k) % n].y) <= tolerance
            for i in range(n)
        ):
            return True
    return False


# -- id-stable Voronoi churn ---------------------------------------------------


def sites_subdivision(
    sites: Dict[int, Point],
    service_area: Rect,
    payload_size: int = 1024,
) -> Subdivision:
    """Voronoi subdivision whose region ids are the keys of *sites*.

    Unlike :func:`~repro.tessellation.voronoi.voronoi_subdivision`
    (which numbers regions by site position), the mapping here is
    id-stable: a site keeps its region id across churn, so diffing two
    churned subdivisions yields genuine insert/delete/reshape batches
    instead of a wholesale renumbering.  Two sites at one position
    would tessellate into two identical regions, so they raise an
    :class:`~repro.errors.UpdateError` naming both ids.
    """
    if not sites:
        raise UpdateError("no sites to tessellate")
    ids = sorted(sites)
    owner: Dict[Point, int] = {}
    for rid in ids:
        other = owner.setdefault(sites[rid], rid)
        if other != rid:
            raise UpdateError(
                f"sites {other} and {rid} coincide at {sites[rid]!r}"
            )
    cells = bounded_voronoi([sites[i] for i in ids], service_area)
    regions = [
        DataRegion(region_id=rid, polygon=cell, payload_size=payload_size)
        for rid, cell in zip(ids, cells)
    ]
    return Subdivision(regions, service_area=service_area)


def churn_sites(
    sites: Dict[int, Point],
    service_area: Rect,
    *,
    n_insert: int = 0,
    n_delete: int = 0,
    n_move: int = 0,
    move_scale: Optional[float] = None,
    rng: Optional[random.Random] = None,
    seed: int = 0,
) -> Dict[int, Point]:
    """One churn step: delete, move and insert sites, ids held stable.

    Deleted ids disappear, moved ids keep their id (their cells — and
    their neighbours' — reshape), inserted sites get fresh ids above
    every id ever seen.  Returns a new dict; the input is not modified.

    *move_scale* bounds each move to a uniform step of at most that
    length per axis — the low-churn regime, where only the moved cell's
    immediate neighbourhood reshapes.  ``None`` re-draws the position
    uniformly over the whole service area (a teleport churns the old
    *and* the new neighbourhood).
    """
    if rng is None:
        rng = random.Random(seed)
    out = dict(sites)
    if n_delete >= len(out):
        raise UpdateError(
            f"cannot delete {n_delete} of {len(out)} sites "
            "(at least one region must survive)"
        )
    for rid in rng.sample(sorted(out), n_delete):
        del out[rid]
    for rid in rng.sample(sorted(out), min(n_move, len(out))):
        if move_scale is None:
            out[rid] = _uniform_point(service_area, rng)
        else:
            p = out[rid]
            out[rid] = Point(
                min(
                    service_area.max_x,
                    max(
                        service_area.min_x,
                        p.x + rng.uniform(-move_scale, move_scale),
                    ),
                ),
                min(
                    service_area.max_y,
                    max(
                        service_area.min_y,
                        p.y + rng.uniform(-move_scale, move_scale),
                    ),
                ),
            )
    next_id = max(sites) + 1 if sites else 0
    for _ in range(n_insert):
        out[next_id] = _uniform_point(service_area, rng)
        next_id += 1
    return out


def _uniform_point(area: Rect, rng: random.Random) -> Point:
    return Point(
        rng.uniform(area.min_x, area.max_x),
        rng.uniform(area.min_y, area.max_y),
    )
