"""The array-backed point sequence: :class:`repro.geometry.PointBatch`.

A batch must be interchangeable with the list of :class:`Point` it
stands for — every front door answers it bit for bit like the list —
while the fleet engine path and the mobility waves, which hand batches
from end to end, never materialise a single :class:`Point`.
"""

import pickle

import numpy as np
import pytest

from repro.broadcast.client import _ARRAY_FIELDS
from repro.broadcast.plan import BroadcastPlan
from repro.broadcast.schedule import BroadcastSchedule
from repro.datasets.catalog import SERVICE_AREA, uniform_dataset
from repro.engine import QueryEngine, batched_trace, index_family
from repro.errors import GeometryError, ReproError
from repro.fleet import FleetRunner, FleetSpec, UniformFleetWorkload
from repro.geometry import Point, PointBatch, point_coords
from repro.mobility import RegionBoundaryIndex
from repro.mobility.evaluate import evaluate_trajectory_workload
from repro.mobility.workloads import RandomWaypointWorkload
from repro.simulation import ChannelSimulator
from repro.simulation.faults import make_error_model

INDEX_KINDS = ("dtree", "rstar", "trap", "trian")
DATASET = uniform_dataset(n=40, seed=5)


def _stack(kind):
    family = index_family(kind)
    params = family.parameters(256)
    paged = family.build(DATASET.subdivision, seed=5).page(params)
    schedule = BroadcastSchedule(
        index_packet_count=len(paged.packets),
        region_ids=list(DATASET.subdivision.region_ids),
        params=params,
    )
    return paged, schedule, params


STACKS = {kind: _stack(kind) for kind in INDEX_KINDS}


def _batch(n=400, seed=9, cycle=1000):
    return UniformFleetWorkload(SERVICE_AREA, cycle, seed=seed).chunk(0, n)


def _assert_same_access(a, b):
    for name in _ARRAY_FIELDS:
        got, want = getattr(a, name), getattr(b, name)
        if want is None:
            assert got is None, name
        else:
            np.testing.assert_array_equal(got, want, err_msg=name)
            assert got.dtype == want.dtype, name


class TestSequence:
    def test_behaves_like_its_point_list(self):
        xs, ys = np.array([0.1, 0.5, 0.9]), np.array([0.2, 0.25, 0.3])
        batch = PointBatch(xs, ys)
        points = [Point(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
        assert len(batch) == 3
        assert list(batch) == points
        assert batch[1] == points[1] and batch[-1] == points[-1]
        assert type(batch[0].x) is float
        assert batch == points and points == batch
        assert batch != points[:2] and batch != points[::-1]
        assert Point(0.5, 0.25) in batch
        with pytest.raises(IndexError):
            batch[3]

    def test_slice_and_concatenation_are_batches(self):
        batch, _ = _batch(50)
        head, tail = batch[:20], batch[20:]
        assert isinstance(head, PointBatch) and isinstance(tail, PointBatch)
        assert head + tail == batch
        assert isinstance(head + tail, PointBatch)
        assert batch[::7] == list(batch)[::7]
        assert batch[5:5] == []

    def test_equality_is_by_coordinates(self):
        batch, _ = _batch(30)
        assert batch == PointBatch(np.array(batch.xs), np.array(batch.ys))
        assert batch != _batch(30, seed=10)[0]

    def test_pickle_round_trip(self):
        batch, _ = _batch(64)
        for view in (batch, batch[3:40:2]):
            copy = pickle.loads(pickle.dumps(view))
            assert isinstance(copy, PointBatch)
            assert copy == view
            assert not copy.xs.flags.writeable

    def test_point_coords_returns_its_own_arrays(self):
        batch, _ = _batch(20)
        xs, ys = point_coords(batch)
        assert xs is batch.xs and ys is batch.ys
        np.testing.assert_array_equal(
            np.column_stack(point_coords(list(batch))),
            np.column_stack((xs, ys)),
        )


class TestBoundary:
    def test_lengths_must_match(self):
        with pytest.raises(GeometryError, match="3 x coordinates for 2"):
            PointBatch([0.1, 0.2, 0.3], [0.1, 0.2])

    def test_arrays_must_be_one_dimensional(self):
        with pytest.raises(ReproError, match="1-D"):
            PointBatch(np.zeros((2, 2)), np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_coordinates_must_be_finite(self, bad):
        with pytest.raises(ReproError, match="finite"):
            PointBatch([0.1, bad], [0.2, 0.3])
        with pytest.raises(ReproError, match="finite"):
            PointBatch([0.1, 0.2], [bad, 0.3])

    def test_stored_read_only_without_touching_the_caller(self):
        xs, ys = np.array([0.1, 0.2]), np.array([0.3, 0.4])
        batch = PointBatch(xs, ys)
        assert xs.flags.writeable
        for arr in (batch.xs, batch.ys, batch[:1].xs):
            with pytest.raises(ValueError):
                arr[0] = 0.5
        with pytest.raises(AttributeError):
            batch.xs = xs


class TestFrontDoorParity:
    """A batch and ``list(batch)`` give bit-identical results."""

    @pytest.mark.parametrize("paths", [False, True])
    @pytest.mark.parametrize("kind", INDEX_KINDS)
    def test_batched_trace(self, kind, paths):
        paged = STACKS[kind][0]
        batch, _ = _batch()
        got = batched_trace(paged, batch, paths=paths)
        want = batched_trace(paged, list(batch), paths=paths)
        for field in type(want).__slots__:
            if getattr(want, field) is None:
                assert getattr(got, field) is None
            else:
                np.testing.assert_array_equal(
                    getattr(got, field), getattr(want, field), err_msg=field
                )

    @pytest.mark.parametrize("kind", INDEX_KINDS)
    def test_query_engine(self, kind):
        paged, schedule, _ = STACKS[kind]
        batch, times = _batch(cycle=schedule.cycle_length)
        engine = QueryEngine(paged, schedule)
        _assert_same_access(
            engine.run(batch, issue_times=times),
            engine.run(list(batch), issue_times=times),
        )

    @pytest.mark.parametrize("channels", [1, 4])
    @pytest.mark.parametrize("kind", ["dtree", "rstar"])
    def test_lossy_channel_simulator(self, kind, channels):
        paged, schedule, params = STACKS[kind]
        if channels > 1:
            schedule = BroadcastPlan(
                len(paged.packets), DATASET.subdivision.region_ids, params,
                channels=channels, index_placement="distributed",
                hop_cost=2.0,
            )
        simulator = ChannelSimulator(
            paged, schedule, error_model=make_error_model("gilbert", 0.05),
            index_kind=kind,
        )
        batch, times = _batch(300, cycle=schedule.cycle_length)
        got = simulator.run(batch, issue_times=times, seed=4)
        want = simulator.run(list(batch), issue_times=times, seed=4)
        assert got == want
        assert got.total_losses > 0


@pytest.fixture
def point_inits(monkeypatch):
    """Counts every :class:`Point` constructed while the test runs."""
    calls = [0]
    init = Point.__init__

    def counting(self, x, y):
        calls[0] += 1
        init(self, x, y)

    monkeypatch.setattr(Point, "__init__", counting)
    return calls


class TestNoPointsOnArrayPaths:
    @pytest.mark.parametrize("kind", INDEX_KINDS)
    def test_fleet_engine_mode(self, kind, point_inits):
        paged, schedule, params = STACKS[kind]
        spec = FleetSpec(
            paged_index=paged, schedule=schedule, params=params,
            workload=UniformFleetWorkload(
                SERVICE_AREA, schedule.cycle_length, seed=9
            ),
            mode="engine", index_kind=kind,
        )
        runner = FleetRunner(spec, chunk_size=500, workers=1)
        runner.run(1200)  # warm: compile the index once
        point_inits[0] = 0
        report = runner.run(1200)
        assert report.queries == 1200
        assert point_inits[0] == 0

    def test_uncached_error_free_mobility_waves(self, point_inits):
        paged, schedule, params = STACKS["dtree"]
        trajectories = RandomWaypointWorkload(
            SERVICE_AREA, schedule.cycle_length, waypoints=3,
            speed_range=(1e-4, 1e-3), seed=6,
        ).chunk(0, 60)
        boundary = RegionBoundaryIndex(DATASET.subdivision)
        evaluate_trajectory_workload(
            paged, [], params, trajectories, boundary_index=boundary,
            schedule=schedule,
        )
        point_inits[0] = 0
        batch = evaluate_trajectory_workload(
            paged, [], params, trajectories, boundary_index=boundary,
            schedule=schedule,
        )
        assert int(batch.retunes.sum()) > len(trajectories)
        assert point_inits[0] == 0
