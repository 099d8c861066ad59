"""Mobility subsystem: trajectories, scope-exit prediction, continuous
queries (DESIGN.md §13)."""

import math
import random

import numpy as np
import pytest

from repro.broadcast.schedule import BroadcastSchedule
from repro.core.dtree import DTree
from repro.datasets.catalog import hospital_dataset, uniform_dataset
from repro.engine import QueryEngine, available_index_kinds, index_family
from repro.errors import ReproError
from repro.geometry.kernels import point_segment_distance_batch
from repro.geometry.point import Point
from repro.geometry.segment import Segment
from repro.mobility import (
    BoundaryHuggingWorkload,
    ContinuousWindowQuery,
    NearestRegionQuery,
    RandomWaypointWorkload,
    RegionBoundaryIndex,
    Trajectory,
    evaluate_trajectory_workload,
    run_continuous_query,
    units_per_slot,
)
from repro.obs import collecting
from repro.tessellation.voronoi import nearest_site


def _paged(dataset, kind, capacity=256, seed=3):
    family = index_family(kind)
    params = family.parameters(capacity)
    paged = family.build(dataset.subdivision, seed=seed).page(params)
    schedule = BroadcastSchedule(
        index_packet_count=len(paged.packets),
        region_ids=list(dataset.subdivision.region_ids),
        params=params,
    )
    return paged, params, schedule


@pytest.fixture(scope="module")
def dataset60():
    return uniform_dataset(n=60, seed=3)


@pytest.fixture(scope="module")
def hospital40():
    return hospital_dataset(n=40, seed=40)


class TestZeroVelocityParity:
    """A parked client is exactly the static engine (the §13 contract)."""

    @pytest.mark.parametrize("kind", available_index_kinds())
    @pytest.mark.parametrize("name", ["dataset60", "hospital40"])
    def test_matches_engine_arrays_exactly(self, kind, name, request):
        dataset = request.getfixturevalue(name)
        sub = dataset.subdivision
        paged, params, schedule = _paged(dataset, kind)
        rng = random.Random(11)
        points = sub.random_points(40, rng)
        times = [rng.uniform(0, schedule.cycle_length) for _ in points]

        static = QueryEngine(paged, schedule).run(points, issue_times=times)
        trajectories = [
            Trajectory([p.x], [p.y], speed=0.0, issue_time=t)
            for p, t in zip(points, times)
        ]
        batch = evaluate_trajectory_workload(
            paged, sub.region_ids, params, trajectories,
            subdivision=sub, schedule=schedule,
        )

        np.testing.assert_array_equal(
            batch.final_answers, np.asarray(static.region_ids)
        )
        np.testing.assert_array_equal(
            batch.access_latency, np.asarray(static.access_latency, float)
        )
        np.testing.assert_array_equal(
            batch.index_tuning_time, np.asarray(static.index_tuning_time)
        )
        np.testing.assert_array_equal(
            batch.total_tuning_time, np.asarray(static.total_tuning_time)
        )
        assert np.all(batch.epochs == 1)
        assert np.all(batch.distance_km == 0.0)


def _workloads(dataset, schedule, seed=5):
    speed = (
        units_per_slot(30.0, 256),
        units_per_slot(120.0, 256),
    )
    return [
        RandomWaypointWorkload(
            dataset.subdivision.service_area,
            schedule.cycle_length,
            waypoints=3,
            speed_range=speed,
            seed=seed,
        ),
        BoundaryHuggingWorkload(
            dataset.subdivision,
            schedule.cycle_length,
            waypoints=3,
            speed_range=speed,
            seed=seed,
        ),
    ]


class TestPredictionOracleAgreement:
    """Prediction changes when we tune, never what we answer."""

    def test_per_epoch_answers_match_naive_oracle(self, dataset60):
        sub = dataset60.subdivision
        paged, params, schedule = _paged(dataset60, "dtree")
        for workload in _workloads(dataset60, schedule):
            trajectories = workload.chunk(0, 40)
            kwargs = dict(subdivision=sub, schedule=schedule, max_epochs=24)
            pred = evaluate_trajectory_workload(
                paged, sub.region_ids, params, trajectories,
                predictive=True, **kwargs,
            )
            naive = evaluate_trajectory_workload(
                paged, sub.region_ids, params, trajectories,
                predictive=False, **kwargs,
            )
            for a, b in zip(pred.answers, naive.answers):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(pred.epochs, naive.epochs)
            np.testing.assert_array_equal(pred.crossings, naive.crossings)
            # The whole point: strictly fewer re-tunes, zero skips naive.
            assert int(np.sum(pred.retunes)) < int(np.sum(naive.retunes))
            assert int(np.sum(naive.skips)) == 0

    def test_predictive_needs_geometry(self, dataset60):
        sub = dataset60.subdivision
        paged, params, schedule = _paged(dataset60, "dtree")
        trajectory = Trajectory([0.5], [0.5], speed=0.0)
        with pytest.raises(ReproError, match="boundary_index"):
            evaluate_trajectory_workload(
                paged, sub.region_ids, params, [trajectory],
                schedule=schedule,
            )


class TestExitBound:
    def test_bound_is_sound(self, dataset60):
        """Any displacement strictly inside the exit disk stays in the
        answered region."""
        sub = dataset60.subdivision
        boundary = RegionBoundaryIndex(sub)
        rng = random.Random(23)
        checked = 0
        for p in sub.random_points(120, rng):
            rid = sub.locate(p)
            bound = boundary.exit_bound(rid, p.x, p.y)
            assert bound >= 0.0
            if bound == 0.0:
                continue
            for k in range(8):
                angle = 2.0 * math.pi * k / 8.0
                q = Point(
                    p.x + 0.999 * bound * math.cos(angle),
                    p.y + 0.999 * bound * math.sin(angle),
                )
                if not sub.service_area.contains_point(q):
                    continue
                assert sub.locate(q) == rid
                checked += 1
        assert checked > 100

    def test_unknown_region_degenerates_to_naive(self, dataset60):
        boundary = RegionBoundaryIndex(dataset60.subdivision)
        assert boundary.exit_bound(10**9, 0.5, 0.5) == 0.0


class TestLossAndCache:
    def test_loss_extends_staleness(self, dataset60):
        sub = dataset60.subdivision
        paged, params, schedule = _paged(dataset60, "dtree")
        trajectories = _workloads(dataset60, schedule)[0].chunk(0, 60)
        kwargs = dict(subdivision=sub, schedule=schedule, max_epochs=16)
        clean = evaluate_trajectory_workload(
            paged, sub.region_ids, params, trajectories, **kwargs
        )
        lossy = evaluate_trajectory_workload(
            paged, sub.region_ids, params, trajectories,
            error_rate=0.3, seed=7, **kwargs,
        )
        assert int(np.sum(lossy.losses)) > 0
        assert int(np.sum(clean.losses)) == 0
        # A missed re-tune stretches delivery, which is stale time.
        assert float(np.sum(lossy.stale_slots)) > float(
            np.sum(clean.stale_slots)
        )
        # Loss never changes the logical answers, only their delivery.
        for a, b in zip(clean.answers, lossy.answers):
            np.testing.assert_array_equal(a, b)

    def test_cache_changes_cost_not_answers(self, dataset60):
        sub = dataset60.subdivision
        paged, params, schedule = _paged(dataset60, "dtree")
        trajectories = _workloads(dataset60, schedule)[0].chunk(0, 40)
        kwargs = dict(subdivision=sub, schedule=schedule, max_epochs=16)
        cold = evaluate_trajectory_workload(
            paged, sub.region_ids, params, trajectories, **kwargs
        )
        cached = evaluate_trajectory_workload(
            paged, sub.region_ids, params, trajectories,
            cache_packets=16, **kwargs,
        )
        for a, b in zip(cold.answers, cached.answers):
            np.testing.assert_array_equal(a, b)
        # The cross-cycle cache can only cut index packets read.
        assert int(np.sum(cached.attempts)) <= int(np.sum(cold.attempts))

    def test_obs_counters_flow(self, dataset60):
        sub = dataset60.subdivision
        paged, params, schedule = _paged(dataset60, "dtree")
        trajectories = _workloads(dataset60, schedule)[0].chunk(0, 10)
        with collecting() as col:
            evaluate_trajectory_workload(
                paged, sub.region_ids, params, trajectories,
                subdivision=sub, schedule=schedule, max_epochs=8,
            )
        counters = col.counters
        assert counters["mobility.clients"] == 10
        assert counters["mobility.retunes"] >= 10
        assert (
            counters["mobility.retunes"] + counters["mobility.skips"]
            == counters["mobility.epochs"]
        )


class TestContinuousQueries:
    def _trajectories(self, dataset, n=25, seed=9):
        schedule = _paged(dataset, "dtree")[2]
        return _workloads(dataset, schedule, seed=seed)[0].chunk(0, n)

    def test_window_query_prediction_matches_oracle(self, dataset60):
        sub = dataset60.subdivision
        dtree = DTree.build(sub)
        query = ContinuousWindowQuery(sub, 0.2, 0.2, dtree.window_query)
        for trajectory in self._trajectories(dataset60):
            pred, n_pred = run_continuous_query(
                trajectory, query, epoch_slots=400.0, max_epochs=16
            )
            naive, n_naive = run_continuous_query(
                trajectory, query, epoch_slots=400.0, max_epochs=16,
                predictive=False,
            )
            assert pred == naive
            assert n_pred <= n_naive

    def test_window_members_are_exactly_the_intersecting_regions(
        self, dataset60
    ):
        sub = dataset60.subdivision
        dtree = DTree.build(sub)
        query = ContinuousWindowQuery(sub, 0.3, 0.3, dtree.window_query)
        members, radius = query.answer_at(0.5, 0.5)
        window = query.window_at(0.5, 0.5)
        expected = sorted(
            r.region_id
            for r in sub.regions
            if r.polygon.intersects_rect(window)
        )
        assert list(members) == expected
        assert radius >= 0.0

    def test_nearest_region_prediction_matches_oracle(self, dataset60):
        sub = dataset60.subdivision
        query = NearestRegionQuery.from_centroids(sub)
        sites = [r.polygon.centroid for r in sub.regions]
        for trajectory in self._trajectories(dataset60):
            pred, n_pred = run_continuous_query(
                trajectory, query, epoch_slots=400.0, max_epochs=16
            )
            naive, n_naive = run_continuous_query(
                trajectory, query, epoch_slots=400.0, max_epochs=16,
                predictive=False,
            )
            assert pred == naive
            assert n_pred <= n_naive
            # Spot-check the argmin against the Voronoi oracle.
            times = trajectory.epoch_times(400.0, 16)
            xs, ys = trajectory.positions_at(times)
            for f in (0, len(pred) - 1):
                oracle = nearest_site(
                    sites, Point(float(xs[f]), float(ys[f]))
                )[0]
                assert pred[f] == oracle

    def test_nearest_region_radius_is_sound(self):
        query = NearestRegionQuery(
            [Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0)]
        )
        nearest, radius = query.answer_at(0.2, 0.1)
        assert nearest == 0
        # Anywhere strictly inside the disk the argmin is unchanged.
        for angle in np.linspace(0.0, 2 * math.pi, 12, endpoint=False):
            x = 0.2 + 0.99 * radius * math.cos(angle)
            y = 0.1 + 0.99 * radius * math.sin(angle)
            assert query.answer_at(x, y)[0] == 0


class TestKernelParity:
    def test_point_segment_distance_matches_scalar(self):
        rng = random.Random(31)
        for _ in range(300):
            seg = Segment(
                Point(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                Point(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            )
            p = Point(rng.uniform(-2, 2), rng.uniform(-2, 2))
            batch = point_segment_distance_batch(
                np.array([p.x]), np.array([p.y]),
                np.array([seg.a.x]), np.array([seg.a.y]),
                np.array([seg.b.x]), np.array([seg.b.y]),
            )
            assert batch[0] == pytest.approx(
                seg.distance_to_point(p), rel=1e-12, abs=1e-15
            )

    def test_degenerate_segment_is_point_distance(self):
        d = point_segment_distance_batch(
            np.array([3.0]), np.array([4.0]),
            np.array([0.0]), np.array([0.0]),
            np.array([0.0]), np.array([0.0]),
        )
        assert d[0] == pytest.approx(5.0)


class TestTrajectory:
    def test_positions_clamp_to_path(self):
        t = Trajectory([0.0, 1.0], [0.0, 0.0], speed=0.1, issue_time=5.0)
        xs, ys = t.positions_at([0.0, 5.0, 10.0, 15.0, 1000.0])
        np.testing.assert_allclose(xs, [0.0, 0.0, 0.5, 1.0, 1.0])
        np.testing.assert_allclose(ys, 0.0)

    def test_epoch_grid(self):
        t = Trajectory([0.0, 1.0], [0.0, 0.0], speed=0.01, issue_time=3.0)
        times = t.epoch_times(25.0)
        assert times[0] == 3.0
        assert times.size == int(t.duration_slots / 25.0) + 1
        np.testing.assert_allclose(np.diff(times), 25.0)
        assert t.epoch_times(25.0, max_epochs=2).size == 2

    def test_validation(self):
        with pytest.raises(ReproError):
            Trajectory([], [], speed=1.0)
        with pytest.raises(ReproError):
            Trajectory([0.0], [0.0, 1.0], speed=1.0)
        with pytest.raises(ReproError):
            Trajectory([0.0], [0.0], speed=-1.0)
        with pytest.raises(ReproError):
            Trajectory([0.0], [0.0], speed=1.0, issue_time=-2.0)
        with pytest.raises(ReproError):
            Trajectory([0.0], [0.0], speed=1.0).epoch_times(0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_waypoints_rejected_by_name(self, bad):
        with pytest.raises(ReproError, match=r"waypoint 1 has non-finite x"):
            Trajectory([0.1, bad], [0.2, 0.3], speed=1e-3)
        with pytest.raises(ReproError, match=r"waypoint 0 has non-finite y"):
            Trajectory([0.1, 0.2], [bad, 0.3], speed=1e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_speed_rejected_by_name(self, bad):
        with pytest.raises(ReproError, match=r"^speed must be finite"):
            Trajectory([0.1, 0.2], [0.2, 0.3], speed=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_issue_time_rejected_by_name(self, bad):
        with pytest.raises(ReproError, match=r"^issue time must be finite"):
            Trajectory([0.1, 0.2], [0.2, 0.3], speed=1e-3, issue_time=bad)


class TestUnits:
    def test_kmh_to_units_per_slot(self):
        # 60 km/h on the default 10 km/unit map: one unit per 600 s.
        v = units_per_slot(60.0, 256)
        from repro.simulation.energy import EnergyModel

        slot = EnergyModel().packet_seconds(256)
        assert v == pytest.approx(slot / 600.0)
        assert units_per_slot(0.0, 256) == 0.0
