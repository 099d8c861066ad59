"""Property-based tests (hypothesis) for the mobility layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.catalog import SERVICE_AREA, uniform_dataset
from repro.errors import ReproError
from repro.mobility import (
    BoundaryHuggingWorkload,
    RandomWaypointWorkload,
    Trajectory,
    TrajectoryBatch,
)
from repro.mobility.trajectory import MAX_EPOCH_GRID, sample_epochs

SUBDIVISION = uniform_dataset(n=30, seed=13).subdivision

seeds = st.integers(min_value=0, max_value=2**31 - 1)
waypoint_counts = st.integers(min_value=1, max_value=6)
sizes = st.integers(min_value=1, max_value=40)


def _workload(kind, waypoints, seed):
    speed_range = (1e-5, 4e-5)
    if kind == "random-waypoint":
        return RandomWaypointWorkload(
            SERVICE_AREA, 4096, waypoints=waypoints,
            speed_range=speed_range, seed=seed,
        )
    return BoundaryHuggingWorkload(
        SUBDIVISION, 4096, waypoints=waypoints,
        speed_range=speed_range, seed=seed,
    )


class TestWorkloadProperties:
    @given(st.sampled_from(["random-waypoint", "boundary-hugging"]),
           waypoint_counts, sizes, seeds)
    @settings(max_examples=40, deadline=None)
    def test_paths_stay_in_domain(self, kind, waypoints, size, seed):
        workload = _workload(kind, waypoints, seed)
        area = workload.area
        for t in workload.chunk(0, size):
            assert np.all((t.xs >= area.min_x) & (t.xs <= area.max_x))
            assert np.all((t.ys >= area.min_y) & (t.ys <= area.max_y))
            assert 0.0 <= t.issue_time < workload.cycle_length
            lo, hi = workload.speed_range
            assert lo <= t.speed <= hi
            assert t.xs.size == waypoints

    @given(st.sampled_from(["random-waypoint", "boundary-hugging"]),
           waypoint_counts,
           st.integers(min_value=2, max_value=40),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_chunk_split_determinism(self, kind, waypoints, n, data):
        """chunk(0, n) == chunk(0, k) + chunk(k, n - k), bit for bit."""
        k = data.draw(st.integers(min_value=1, max_value=n - 1))
        workload = _workload(kind, waypoints, seed=7)
        whole = workload.chunk(0, n)
        split = workload.chunk(0, k) + workload.chunk(k, n - k)
        assert len(whole) == len(split) == n
        for a, b in zip(whole, split):
            np.testing.assert_array_equal(a.xs, b.xs)
            np.testing.assert_array_equal(a.ys, b.ys)
            assert a.speed == b.speed
            assert a.issue_time == b.issue_time

    @given(seeds, sizes)
    @settings(max_examples=30, deadline=None)
    def test_same_seed_same_trajectories(self, seed, size):
        a = _workload("random-waypoint", 3, seed).chunk(0, size)
        b = _workload("random-waypoint", 3, seed).chunk(0, size)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.xs, y.xs)
            np.testing.assert_array_equal(x.ys, y.ys)


coords = st.lists(
    st.floats(min_value=-100.0, max_value=100.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=12,
)


class TestTrajectoryProperties:
    @given(coords, st.data())
    @settings(max_examples=60, deadline=None)
    def test_arc_length_is_segment_sum(self, xs, data):
        ys = data.draw(
            st.lists(
                st.floats(min_value=-100.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False),
                min_size=len(xs), max_size=len(xs),
            )
        )
        t = Trajectory(xs, ys, speed=1.0)
        segments = np.hypot(np.diff(t.xs), np.diff(t.ys))
        assert t.total_length == float(np.sum(segments)) or np.isclose(
            t.total_length, np.sum(segments)
        )
        assert np.all(np.diff(t.cum_lengths) >= 0.0)
        assert t.cum_lengths[0] == 0.0

    @given(coords, st.floats(min_value=1e-6, max_value=10.0),
           st.floats(min_value=0.5, max_value=500.0), st.data())
    @settings(max_examples=60, deadline=None)
    def test_epoch_grid_covers_traversal(self, xs, speed, epoch, data):
        ys = data.draw(
            st.lists(
                st.floats(min_value=-100.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False),
                min_size=len(xs), max_size=len(xs),
            )
        )
        t = Trajectory(xs, ys, speed=speed, issue_time=3.0)
        grid = int(t.duration_slots / epoch) + 1
        if grid > MAX_EPOCH_GRID:
            # Slow clients on long paths: refused, never allocated.
            with pytest.raises(ReproError, match="max_epochs"):
                t.epoch_times(epoch)
        else:
            times = t.epoch_times(epoch)
            assert times[0] == t.issue_time
            assert times.size == grid
            # The grid reaches the arrival: one more epoch would overshoot.
            assert times[-1] <= t.issue_time + t.duration_slots + epoch
        capped = t.epoch_times(epoch, max_epochs=4)
        assert capped.size == min(grid, 4)

    @given(coords, st.data())
    @settings(max_examples=40, deadline=None)
    def test_positions_stay_on_path_bbox(self, xs, data):
        ys = data.draw(
            st.lists(
                st.floats(min_value=-100.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False),
                min_size=len(xs), max_size=len(xs),
            )
        )
        t = Trajectory(xs, ys, speed=2.0)
        sample = np.linspace(-10.0, t.duration_slots + 10.0, 50)
        px, py = t.positions_at(sample)
        assert np.all(px >= t.xs.min()) and np.all(px <= t.xs.max())
        assert np.all(py >= t.ys.min()) and np.all(py <= t.ys.max())
        # Endpoints clamp to the first/last waypoint.
        assert px[0] == t.xs[0] and py[0] == t.ys[0]
        assert px[-1] == t.xs[-1] and py[-1] == t.ys[-1]


# -- the batch sampler against the per-trajectory oracle ----------------------

#: A few shared values make repeated waypoints (zero-length segments,
#: tied arc lengths) likely; the wide floats make everything else.
waypoint_coords = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=-100.0, max_value=100.0,
              allow_nan=False, allow_infinity=False),
)
speeds = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=10.0),
)


@st.composite
def trajectories(draw):
    count = draw(waypoint_counts)
    xs = draw(st.lists(waypoint_coords, min_size=count, max_size=count))
    ys = draw(st.lists(waypoint_coords, min_size=count, max_size=count))
    return Trajectory(
        xs, ys, speed=draw(speeds),
        issue_time=draw(st.floats(min_value=0.0, max_value=1000.0)),
    )


def _bits(values):
    return np.asarray(values, np.float64).view(np.int64)


class TestBatchSampler:
    @given(st.lists(trajectories(), min_size=1, max_size=8),
           st.floats(min_value=0.5, max_value=500.0),
           st.sampled_from([0, 1, 4, 32]))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_trajectory_sampling(self, paths, epoch, max_epochs):
        """``sample_epochs`` over a batch is ``epoch_times`` and
        ``positions_at`` per trajectory, bit for bit, and refuses the
        first over-long grid with its message."""
        grids = []
        for i, t in enumerate(paths):
            try:
                grids.append(t.epoch_times(epoch, max_epochs))
            except ReproError as err:
                with pytest.raises(ReproError) as refused:
                    sample_epochs(paths, epoch, max_epochs)
                assert "set max_epochs" in str(err)
                assert str(refused.value) == f"trajectory {i}: {err}"
                return
        times, xs, ys, counts = sample_epochs(
            TrajectoryBatch.of(paths), epoch, max_epochs
        )
        positions = [t.positions_at(g) for t, g in zip(paths, grids)]
        assert counts.tolist() == [g.size for g in grids]
        np.testing.assert_array_equal(_bits(times), _bits(np.concatenate(grids)))
        np.testing.assert_array_equal(
            _bits(xs), _bits(np.concatenate([p[0] for p in positions]))
        )
        np.testing.assert_array_equal(
            _bits(ys), _bits(np.concatenate([p[1] for p in positions]))
        )

    @given(st.lists(trajectories(), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_rows_are_the_trajectories(self, paths):
        batch = TrajectoryBatch.of(paths)
        assert len(batch) == len(paths)
        for a, b in zip(batch, paths):
            for field in ("xs", "ys", "cum_lengths"):
                np.testing.assert_array_equal(
                    _bits(getattr(a, field)), _bits(getattr(b, field))
                )
            assert (a.speed, a.issue_time) == (b.speed, b.issue_time)
        np.testing.assert_array_equal(
            _bits(batch.total_length), _bits([t.total_length for t in paths])
        )

    @given(st.lists(trajectories(), min_size=1, max_size=6),
           st.sampled_from(["x", "y", "speed", "issue_time"]),
           st.sampled_from([math.nan, math.inf, -math.inf, -1.0]),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_rejects_like_the_trajectory(self, paths, field, bad, data):
        """A corrupted client is reported with :class:`Trajectory`'s
        message, prefixed by its position."""
        i = data.draw(st.integers(min_value=0, max_value=len(paths) - 1))
        rows = [[t.xs, t.ys, t.speed, t.issue_time] for t in paths]
        row = rows[i]
        if field in ("x", "y"):
            if bad == -1.0:
                bad = math.nan  # a negative coordinate is valid
            axis = 0 if field == "x" else 1
            row[axis] = row[axis].copy()
            row[axis][data.draw(st.integers(0, row[axis].size - 1))] = bad
        else:
            row[2 if field == "speed" else 3] = bad
        with pytest.raises(ReproError) as scalar:
            Trajectory(*row)
        offsets = np.cumsum([0] + [r[0].size for r in rows])
        with pytest.raises(ReproError) as batched:
            TrajectoryBatch(
                offsets,
                np.concatenate([r[0] for r in rows]),
                np.concatenate([r[1] for r in rows]),
                [r[2] for r in rows],
                [r[3] for r in rows],
            )
        assert str(batched.value) == f"trajectory {i}: {scalar.value}"

    def test_rejects_malformed_layout(self):
        xs = ys = [0.0, 1.0, 2.0]
        for offsets, clients in (
            ([1, 3], 1), ([0, 2], 1), ([0, 2, 1, 3], 3), ([0, 3], 2)
        ):
            with pytest.raises(ReproError, match="offsets must run"):
                TrajectoryBatch(
                    offsets, xs, ys, [1.0] * clients, [0.0] * clients
                )
        with pytest.raises(ReproError, match="equal-length"):
            TrajectoryBatch([0, 3], xs, ys[:2], [1.0], [0.0])
        with pytest.raises(ReproError, match="speed and issue_time"):
            TrajectoryBatch([0, 3], xs, ys, [1.0], [0.0, 1.0])
        batch = TrajectoryBatch([0, 1, 3], xs, ys, [1.0, 2.0], [0.0, 5.0])
        assert batch[-1].issue_time == 5.0 and batch[0].xs.tolist() == [0.0]
        with pytest.raises(IndexError):
            batch[2]
