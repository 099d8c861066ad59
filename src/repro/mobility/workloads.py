"""Chunked trajectory workloads with chunk-size-invariant randomness.

Same Philox contract as :class:`repro.fleet.workload.UniformFleetWorkload`,
lifted from points to trajectories: every client charges a *fixed* number
of counter blocks (its word budget rounded up to whole 4-word blocks), so
the trajectories for clients ``[start, start + size)`` are obtained by
advancing a fresh generator ``start * blocks_per_client`` blocks —
identical to the corresponding slice of the monolithic stream for every
chunking (``chunk(0, n) == chunk(0, k) + chunk(k, n - k)`` bit for bit,
property-tested in ``tests/test_property_mobility.py``).

Two families:

* :class:`RandomWaypointWorkload` — the classic mobility model: uniform
  waypoints in the service rectangle, uniform speed per client;
* :class:`BoundaryHuggingWorkload` — the adversarial counterpart: every
  waypoint sits a small offset off a subdivision edge, so clients spend
  their lives near scope boundaries where the exit bound is smallest.

:func:`trajectory_workload` builds either one by name from road speeds
in km/h, for the fleet runner and the experiment cells alike.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ReproError
from repro.geometry.rect import Rect
from repro.mobility.trajectory import TrajectoryBatch
from repro.mobility.units import DEFAULT_KM_PER_UNIT, units_per_slot

#: uint64 outputs per Philox counter block — the advance() unit.
_WORDS_PER_BLOCK = 4


class _TrajectoryWorkloadBase:
    """Shared chunk addressing: fixed Philox blocks per client."""

    #: Registry-style name (used by the fleet CLI).
    kind = "?"

    def __init__(
        self,
        area: Rect,
        cycle_length: int,
        waypoints: int,
        speed_range,
        seed: int = 0,
    ) -> None:
        if cycle_length <= 0:
            raise ReproError(
                f"cycle length must be positive, got {cycle_length}"
            )
        if waypoints < 1:
            raise ReproError(f"waypoints must be >= 1, got {waypoints}")
        lo, hi = float(speed_range[0]), float(speed_range[1])
        if not (0.0 <= lo <= hi):
            raise ReproError(
                f"speed range must satisfy 0 <= lo <= hi, got {speed_range}"
            )
        self.area = area
        #: Issue times are uniform over one broadcast cycle, in slots.
        self.cycle_length = cycle_length
        self.waypoints = waypoints
        self.speed_range = (lo, hi)
        self.seed = seed

    # -- Philox block accounting ---------------------------------------------

    #: uniform words drawn per waypoint (subclass constant).
    _words_per_waypoint = 2

    @property
    def words_per_client(self) -> int:
        """Uniform draws per client: issue + speed + the waypoints."""
        return 2 + self._words_per_waypoint * self.waypoints

    @property
    def blocks_per_client(self) -> int:
        """Whole Philox blocks charged per client (padding discarded)."""
        return -(-self.words_per_client // _WORDS_PER_BLOCK)

    def _generator_at(self, start: int) -> np.random.Generator:
        bg = np.random.Philox(np.random.SeedSequence(self.seed))
        bg.advance(start * self.blocks_per_client)
        return np.random.Generator(bg)

    def chunk(self, start: int, size: int) -> TrajectoryBatch:
        """Trajectories ``[start, start + size)`` of the workload, drawn
        straight from the Philox block into a :class:`TrajectoryBatch`."""
        if start < 0 or size < 0:
            raise ReproError(f"invalid chunk [{start}, {start} + {size})")
        g = self._generator_at(start)
        u = g.random((size, self.blocks_per_client * _WORDS_PER_BLOCK))
        lo, hi = self.speed_range
        xs, ys = self._waypoints_from(
            u[:, 2 : self.words_per_client].reshape(
                size, self.waypoints, self._words_per_waypoint
            )
        )
        return TrajectoryBatch(
            np.arange(size + 1, dtype=np.int64) * self.waypoints,
            xs.ravel(),
            ys.ravel(),
            speed=lo + u[:, 1] * (hi - lo),
            issue_time=u[:, 0] * self.cycle_length,
        )

    def _waypoints_from(self, words: np.ndarray):
        """Waypoint coordinates, ``(size, waypoints)`` each, from the
        ``(size, waypoints, words per waypoint)`` uniform draws."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(waypoints={self.waypoints}, "
            f"speed={self.speed_range}, cycle={self.cycle_length}, "
            f"seed={self.seed})"
        )


class RandomWaypointWorkload(_TrajectoryWorkloadBase):
    """Uniform waypoints in the service rectangle (2 words each)."""

    kind = "random-waypoint"
    _words_per_waypoint = 2

    def _waypoints_from(self, words: np.ndarray):
        area = self.area
        xs = area.min_x + words[..., 0] * (area.max_x - area.min_x)
        ys = area.min_y + words[..., 1] * (area.max_y - area.min_y)
        return xs, ys


class BoundaryHuggingWorkload(_TrajectoryWorkloadBase):
    """Adversarial waypoints just off subdivision edges (3 words each).

    Each waypoint picks an edge, a point along it, and a side; the
    waypoint is that point pushed ``offset`` units along the edge normal
    (clipped back into the service rectangle).  Paths therefore skim
    scope boundaries, minimising the exit bound — the worst case for
    scope-exit prediction.
    """

    kind = "boundary-hugging"
    _words_per_waypoint = 3

    def __init__(
        self,
        subdivision,
        cycle_length: int,
        waypoints: int,
        speed_range,
        offset: float = 0.01,
        seed: int = 0,
    ) -> None:
        super().__init__(
            subdivision.service_area, cycle_length, waypoints,
            speed_range, seed,
        )
        if offset < 0:
            raise ReproError(f"offset must be >= 0, got {offset}")
        self.offset = float(offset)
        edges = subdivision.all_edges()
        if not edges:
            raise ReproError("subdivision has no edges to hug")
        self._ax = np.array([e.a.x for e in edges])
        self._ay = np.array([e.a.y for e in edges])
        self._bx = np.array([e.b.x for e in edges])
        self._by = np.array([e.b.y for e in edges])

    def _waypoints_from(self, words: np.ndarray):
        n_edges = self._ax.size
        # u in [0, 1) scales to [0, n_edges) so the int cast never lands
        # on n_edges; the clip guards the measure-zero u == 1.0 anyway.
        idx = np.minimum((words[..., 0] * n_edges).astype(np.int64), n_edges - 1)
        t = words[..., 1]
        side = np.where(words[..., 2] < 0.5, -1.0, 1.0)
        ax, ay = self._ax[idx], self._ay[idx]
        dx, dy = self._bx[idx] - ax, self._by[idx] - ay
        length = np.hypot(dx, dy)
        length = np.where(length > 0.0, length, 1.0)
        xs = ax + t * dx + side * self.offset * (-dy / length)
        ys = ay + t * dy + side * self.offset * (dx / length)
        area = self.area
        return (
            np.clip(xs, area.min_x, area.max_x),
            np.clip(ys, area.min_y, area.max_y),
        )


def trajectory_workload(
    name: str,
    subdivision,
    cycle_length: int,
    packet_capacity: int,
    *,
    waypoints: int = 3,
    speed_kmh: Tuple[float, float] = (30.0, 90.0),
    km_per_unit: float = DEFAULT_KM_PER_UNIT,
    hug_offset: float = 0.01,
    seed: int = 0,
) -> _TrajectoryWorkloadBase:
    """The trajectory workload called *name* over *subdivision*'s service
    area: ``"random-waypoint"`` or ``"boundary-hugging"``, with speeds
    drawn uniformly from the ``speed_kmh`` range, converted to
    service-area units per packet slot."""
    speed_range = tuple(
        units_per_slot(s, packet_capacity, km_per_unit) for s in speed_kmh
    )
    if name == RandomWaypointWorkload.kind:
        return RandomWaypointWorkload(
            subdivision.service_area,
            cycle_length,
            waypoints=waypoints,
            speed_range=speed_range,
            seed=seed,
        )
    if name == BoundaryHuggingWorkload.kind:
        return BoundaryHuggingWorkload(
            subdivision,
            cycle_length,
            waypoints=waypoints,
            speed_range=speed_range,
            offset=hug_offset,
            seed=seed,
        )
    raise ReproError(
        f"unknown mobility workload {name!r}; expected "
        f"{RandomWaypointWorkload.kind!r} or {BoundaryHuggingWorkload.kind!r}"
    )
