"""Property-based tests (hypothesis) for the mobility layer."""

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
)
from repro.mobility.trajectory import MAX_EPOCH_GRID

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
