"""Piecewise-linear client trajectories on the broadcast timeline.

A :class:`Trajectory` is a polyline of waypoints traversed at constant
speed, starting at an *issue time* measured in packet slots — the same
time axis as the broadcast schedule, so positions can be sampled at the
instants the client would re-tune.  Speed is in service-area units per
packet slot (see :func:`repro.mobility.units.units_per_slot` for the
km/h conversion); a zero-speed trajectory never leaves its first
waypoint, which is what reduces the mobility client to the static
engine (the zero-velocity parity contract of DESIGN.md §13).

A :class:`TrajectoryBatch` holds many clients' paths as one CSR of
waypoints; the workload generators draw their chunks straight into one,
and :func:`sample_epochs` samples every client's epoch grid from it in
a handful of array passes, bit for bit what :meth:`Trajectory.epoch_times`
and :meth:`Trajectory.positions_at` give one client at a time.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from typing import Iterable, Tuple, Union

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
        for axis, values in (("x", self.xs), ("y", self.ys)):
            if not all(map(math.isfinite, values.tolist())):
                bad = int(np.flatnonzero(~np.isfinite(values))[0])
                raise ReproError(
                    f"waypoint {bad} has non-finite {axis} = {float(values[bad])}"
                )
        if not 0.0 <= speed < math.inf:
            raise ReproError(f"speed must be finite and >= 0, got {speed}")
        if not 0.0 <= issue_time < math.inf:
            raise ReproError(f"issue time must be finite and >= 0, got {issue_time}")
        self.speed = float(speed)
        self.issue_time = float(issue_time)
        seg = np.hypot(self.xs[1:] - self.xs[:-1], self.ys[1:] - self.ys[:-1])
        #: Arc length from the first waypoint to each waypoint.
        self.cum_lengths = np.concatenate(([0.0], np.cumsum(seg)))

    @classmethod
    def _view(cls, xs, ys, speed, issue_time, cum_lengths) -> "Trajectory":
        """A trajectory over already validated arrays (a batch's rows)."""
        t = cls.__new__(cls)
        t.xs, t.ys, t.cum_lengths = xs, ys, cum_lengths
        t.speed, t.issue_time = speed, issue_time
        return t

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


class TrajectoryBatch(Sequence):
    """Many clients' paths: waypoints as one CSR plus per-client arrays.

    Client ``i`` owns waypoints ``offsets[i]:offsets[i + 1]`` of ``xs``,
    ``ys`` and ``cum_lengths``, and ``speed[i]``, ``issue_time[i]`` and
    ``total_length[i]``.  The constructor applies :class:`Trajectory`'s
    checks to every client at once and reports the first failing client
    with :class:`Trajectory`'s message; each client's arc lengths come
    from the same ``np.hypot`` and ``np.cumsum`` as
    :attr:`Trajectory.cum_lengths`, so they are bit-identical.

    The batch is a read-only sequence of :class:`Trajectory`: ``len``,
    integer indexing and iteration give views of its rows, and ``+``
    with another sequence, on either side, gives a list.
    """

    __slots__ = (
        "offsets", "xs", "ys", "speed", "issue_time", "cum_lengths",
        "total_length",
    )

    def __init__(self, offsets, xs, ys, speed, issue_time) -> None:
        offsets = np.asarray(offsets, np.int64)
        xs = np.asarray(xs, np.float64)
        ys = np.asarray(ys, np.float64)
        speed = np.asarray(speed, np.float64)
        issue_time = np.asarray(issue_time, np.float64)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ReproError(
                f"waypoint arrays must be equal-length 1-d, got "
                f"{xs.shape} and {ys.shape}"
            )
        n = speed.size
        if speed.shape != (n,) or issue_time.shape != (n,):
            raise ReproError(
                f"speed and issue_time must be equal-length 1-d, got "
                f"{speed.shape} and {issue_time.shape}"
            )
        if (
            offsets.shape != (n + 1,)
            or offsets[0] != 0
            or offsets[-1] != xs.size
            or np.any(offsets[1:] < offsets[:-1])
        ):
            raise ReproError(
                f"offsets must run from 0 to {xs.size} without decreasing, "
                f"one per client plus one ({n + 1})"
            )
        counts = np.diff(offsets)
        bad = (
            (counts < 1)
            | ~((speed >= 0.0) & (speed < math.inf))
            | ~((issue_time >= 0.0) & (issue_time < math.inf))
        )
        non_finite = np.flatnonzero(~(np.isfinite(xs) & np.isfinite(ys)))
        if non_finite.size:
            bad[np.searchsorted(offsets, non_finite, "right") - 1] = True
        if bad.any():
            i = int(np.argmax(bad))
            a, b = offsets[i], offsets[i + 1]
            _raise_for_client(
                i,
                lambda: Trajectory(
                    xs[a:b], ys[a:b], float(speed[i]), float(issue_time[i])
                ),
            )
        seg = np.hypot(xs[1:] - xs[:-1], ys[1:] - ys[:-1])
        cum = np.zeros(xs.size)
        # One row-wise cumsum per waypoint count: the same sequential sums
        # as each client's own np.cumsum.
        for w in np.unique(counts[counts > 1]).tolist():
            rows = offsets[:-1][counts == w, None] + np.arange(1, w)
            cum[rows] = np.cumsum(seg[rows - 1], axis=1)
        self.offsets, self.xs, self.ys = offsets, xs, ys
        self.speed, self.issue_time = speed, issue_time
        #: Arc length from each client's first waypoint to each waypoint.
        self.cum_lengths = cum
        #: Total arc length of each client's polyline.
        self.total_length = cum[offsets[1:] - 1]

    @classmethod
    def of(
        cls, trajectories: Union["TrajectoryBatch", Iterable[Trajectory]]
    ) -> "TrajectoryBatch":
        """*trajectories* as a batch: a batch itself, else its
        :class:`Trajectory` objects' rows in order."""
        if isinstance(trajectories, cls):
            return trajectories
        items = list(trajectories)
        offsets = np.zeros(len(items) + 1, np.int64)
        np.cumsum([t.xs.size for t in items], out=offsets[1:])

        def column(field):
            return [getattr(t, field) for t in items] or [np.zeros(0)]

        return cls(
            offsets,
            np.concatenate(column("xs")),
            np.concatenate(column("ys")),
            np.array([t.speed for t in items], np.float64),
            np.array([t.issue_time for t in items], np.float64),
        )

    def __len__(self) -> int:
        return int(self.speed.size)

    def __getitem__(self, i) -> Trajectory:
        i = operator.index(i)
        n = len(self)
        if not -n <= i < n:
            raise IndexError(f"trajectory {i} out of range for {n} clients")
        i %= n
        rows = slice(self.offsets[i], self.offsets[i + 1])
        return Trajectory._view(
            self.xs[rows], self.ys[rows], float(self.speed[i]),
            float(self.issue_time[i]), self.cum_lengths[rows],
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __add__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) + list(other)

    def __radd__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(other) + list(self)

    def epoch_counts(self, epoch_slots: float, max_epochs: int = 0) -> np.ndarray:
        """Every client's :meth:`Trajectory.epoch_count`, refusing a grid
        longer than :data:`MAX_EPOCH_GRID` before anything is sampled."""
        if not 0.0 < epoch_slots < math.inf:
            raise ReproError(
                f"epoch_slots must be finite and > 0, got {epoch_slots}"
            )
        duration = np.zeros(len(self))
        moving = self.speed > 0.0
        duration[moving] = self.total_length[moving] / self.speed[moving]
        epochs = np.floor(duration / epoch_slots) + 1.0
        if max_epochs > 0:
            epochs = np.minimum(epochs, max_epochs)
        over = np.flatnonzero(epochs > MAX_EPOCH_GRID)
        if over.size:
            i = int(over[0])
            _raise_for_client(
                i, lambda: self[i].epoch_count(epoch_slots, max_epochs)
            )
        return epochs.astype(np.int64)

    def _interp(self, s: np.ndarray, owner: np.ndarray):
        """``np.interp(s, cum_lengths, xs)`` and ``(..., ys)`` over each
        sample's owner, with ``np.interp``'s arithmetic.

        A vectorised bisection finds, per sample, its owner's last
        waypoint ``j`` with ``cum_lengths[j] <= s`` (``np.interp``'s
        search).  A sample at that waypoint (``cum_lengths[j] == s``) or
        at the owner's last one takes the waypoint itself; any other
        lies strictly between ``x0 = cum_lengths[j]`` and
        ``x1 = cum_lengths[j + 1]`` and is ``slope * (s - x0) + y0``
        with ``slope = (y1 - y0) / (x1 - x0)``.  ``np.interp`` retries a
        NaN result from the right end; with finite ``s`` and ``x0``
        such a result has a NaN slope, so the retry is NaN as well and
        is left out.
        """
        cum = self.cum_lengths
        last = self.offsets[1:][owner] - 1
        lo, hi = self.offsets[:-1][owner] + 1, last + 1
        widest = int(np.max(np.diff(self.offsets), initial=1))
        for _ in range((widest - 1).bit_length()):
            mid = (lo + hi) >> 1
            go = (lo < hi) & (cum[np.minimum(mid, last)] <= s)
            lo = np.where(go, mid + 1, lo)
            hi = np.where(go, hi, mid)
        j = lo - 1
        out = (self.xs[j], self.ys[j])
        inner = np.flatnonzero((j < last) & (cum[j] != s))
        if inner.size:
            j0 = j[inner]
            x0 = cum[j0]
            dx = cum[j0 + 1] - x0
            ds = s[inner] - x0
            with np.errstate(all="ignore"):
                for values, res in zip((self.xs, self.ys), out):
                    y0 = values[j0]
                    res[inner] = (values[j0 + 1] - y0) / dx * ds + y0
        return out

    def __repr__(self) -> str:
        return (
            f"TrajectoryBatch(clients={len(self)}, "
            f"waypoints={self.xs.size})"
        )


def _raise_for_client(i: int, check) -> None:
    """Re-raise *check*'s :class:`ReproError` as client *i*'s."""
    try:
        check()
    except ReproError as err:
        raise ReproError(f"trajectory {i}: {err}") from None


def sample_epochs(
    trajectories, epoch_slots: float, max_epochs: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every client's epoch grid and positions as flat arrays.

    *trajectories* is a :class:`TrajectoryBatch` or a sequence of
    :class:`Trajectory` (converted to one).  Returns
    ``(times, xs, ys, counts)``: the :meth:`Trajectory.epoch_times`
    grids concatenated in client order, the
    :meth:`Trajectory.positions_at` samples on them, and each grid's
    length — bit-identical to the per-trajectory calls, computed for
    all clients at once with the same elementwise expressions and
    ``np.interp``'s arithmetic (:meth:`TrajectoryBatch._interp`).
    """
    batch = TrajectoryBatch.of(trajectories)
    counts = batch.epoch_counts(epoch_slots, max_epochs)
    local, owner, _ = ragged_ranges(np.zeros(len(batch), np.int64), counts)
    issue = batch.issue_time[owner]
    times = issue + epoch_slots * local.astype(np.float64)
    s = np.clip(
        batch.speed[owner] * (times - issue), 0.0, batch.total_length[owner]
    )
    xs, ys = batch._interp(s, owner)
    return times, xs, ys, counts
