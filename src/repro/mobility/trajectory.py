"""Piecewise-linear client trajectories on the broadcast timeline.

A :class:`Trajectory` is a polyline of waypoints traversed at constant
speed, starting at an *issue time* measured in packet slots — the same
time axis as the broadcast schedule, so positions can be sampled at the
instants the client would re-tune.  Speed is in service-area units per
packet slot (see :func:`repro.mobility.units.units_per_slot` for the
km/h conversion); a zero-speed trajectory never leaves its first
waypoint, which is what reduces the mobility client to the static
engine (the zero-velocity parity contract of DESIGN.md §13).
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ReproError
from repro.geometry.kernels import ragged_ranges

#: Largest epoch grid :meth:`Trajectory.epoch_times` materialises — far
#: above realistic grids (a walking-speed path across the unit square
#: needs about 4k epochs), far below what exhausts memory.
MAX_EPOCH_GRID = 2**24


class Trajectory:
    """One client's path: waypoints, a constant speed, an issue time."""

    __slots__ = ("xs", "ys", "speed", "issue_time", "cum_lengths")

    def __init__(self, xs, ys, speed: float, issue_time: float = 0.0) -> None:
        self.xs = np.atleast_1d(np.asarray(xs, np.float64))
        self.ys = np.atleast_1d(np.asarray(ys, np.float64))
        if self.xs.shape != self.ys.shape or self.xs.ndim != 1:
            raise ReproError(
                f"waypoint arrays must be equal-length 1-d, got "
                f"{self.xs.shape} and {self.ys.shape}"
            )
        if self.xs.size < 1:
            raise ReproError("a trajectory needs at least one waypoint")
        if not (speed >= 0.0):
            raise ReproError(f"speed must be >= 0, got {speed}")
        if not (issue_time >= 0.0):
            raise ReproError(f"issue time must be >= 0, got {issue_time}")
        self.speed = float(speed)
        self.issue_time = float(issue_time)
        seg = np.hypot(self.xs[1:] - self.xs[:-1], self.ys[1:] - self.ys[:-1])
        #: Arc length from the first waypoint to each waypoint.
        self.cum_lengths = np.concatenate(([0.0], np.cumsum(seg)))

    @property
    def total_length(self) -> float:
        """Total arc length of the polyline (service-area units)."""
        return float(self.cum_lengths[-1])

    @property
    def duration_slots(self) -> float:
        """Slots to traverse the whole path (0 for zero speed/length)."""
        if self.speed <= 0.0:
            return 0.0
        return self.total_length / self.speed

    def positions_at(self, times) -> Tuple[np.ndarray, np.ndarray]:
        """Positions at absolute slot *times* (clamped to the path).

        Before ``issue_time`` the client sits at the first waypoint,
        after traversal at the last — ``np.interp`` over the arc-length
        parametrisation handles both clamps.
        """
        t = np.asarray(times, np.float64)
        s = np.clip(self.speed * (t - self.issue_time), 0.0, self.total_length)
        return (
            np.interp(s, self.cum_lengths, self.xs),
            np.interp(s, self.cum_lengths, self.ys),
        )

    def epoch_count(self, epoch_slots: float, max_epochs: int = 0) -> int:
        """Length of the :meth:`epoch_times` grid.

        Covers the traversal (last epoch at or before arrival), always
        includes epoch 0, and is truncated to *max_epochs* when positive
        — the bound that keeps fleet-scale evaluation affordable.  A
        grid longer than :data:`MAX_EPOCH_GRID` is refused.
        """
        if not 0.0 < epoch_slots < math.inf:
            raise ReproError(
                f"epoch_slots must be finite and > 0, got {epoch_slots}"
            )
        epochs = int(self.duration_slots / epoch_slots) + 1
        if max_epochs > 0:
            epochs = min(epochs, max_epochs)
        if epochs > MAX_EPOCH_GRID:
            raise ReproError(
                f"epoch grid of {epochs} epochs exceeds {MAX_EPOCH_GRID}: "
                f"set max_epochs (got {max_epochs}) to bound it"
            )
        return epochs

    def epoch_times(self, epoch_slots: float, max_epochs: int = 0) -> np.ndarray:
        """The sampling grid: ``issue_time + e * epoch_slots`` for the
        first :meth:`epoch_count` epochs."""
        epochs = self.epoch_count(epoch_slots, max_epochs)
        return self.issue_time + epoch_slots * np.arange(epochs, dtype=np.float64)

    def __repr__(self) -> str:
        return (
            f"Trajectory(waypoints={self.xs.size}, "
            f"length={self.total_length:.3g}, speed={self.speed:.3g}/slot, "
            f"issue={self.issue_time:.1f})"
        )


def sample_epochs(
    trajectories: Sequence[Trajectory], epoch_slots: float, max_epochs: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every trajectory's epoch grid and positions as flat arrays.

    Returns ``(times, xs, ys, counts)``: the :meth:`Trajectory.epoch_times`
    grids concatenated in trajectory order, the
    :meth:`Trajectory.positions_at` samples on them, and each grid's
    length.  The grids and arc lengths are computed for all
    trajectories at once with the same elementwise expressions, so every
    value is bit-identical to the per-trajectory calls; only the
    interpolation along each polyline runs per trajectory.
    """
    n = len(trajectories)
    counts = np.fromiter(
        (t.epoch_count(epoch_slots, max_epochs) for t in trajectories),
        np.int64,
        count=n,
    )
    local, owner, first = ragged_ranges(np.zeros(n, np.int64), counts)

    def column(field: str) -> np.ndarray:
        values = (getattr(t, field) for t in trajectories)
        return np.fromiter(values, np.float64, count=n)[owner]

    issue = column("issue_time")
    times = issue + epoch_slots * local.astype(np.float64)
    s = np.clip(column("speed") * (times - issue), 0.0, column("total_length"))
    xs = np.empty_like(times)
    ys = np.empty_like(times)
    for t, a, b in zip(trajectories, first.tolist(), (first + counts).tolist()):
        xs[a:b] = np.interp(s[a:b], t.cum_lengths, t.xs)
        ys[a:b] = np.interp(s[a:b], t.cum_lengths, t.ys)
    return times, xs, ys, counts
