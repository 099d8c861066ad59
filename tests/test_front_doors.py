"""The workload front doors resolve their broadcast timeline one way.

``evaluate_workload``, ``simulate_workload``, ``evaluate_index_per_query``
and ``evaluate_trajectory_workload`` all go through
:func:`repro.broadcast.schedule.resolve_schedule`: each rejects a
schedule built for another index size and an empty workload, and the
two that take ``plan=`` reject it together with ``schedule=``.  The
mobility workload factory rejects unknown names with a ``ReproError``
at every entry point, and the mobility front doors reject a
non-finite epoch grid and an out-of-range loss rate the same way.
Every batched door rejects non-finite or non-1-D issue times with the
walker's ``BroadcastError``, and the scalar ``query`` rejects a
non-finite issue time with the same error.
"""

import functools
import math

import numpy as np
import pytest

from repro.broadcast.client import BroadcastClient
from repro.broadcast.plan import BroadcastPlan
from repro.broadcast.schedule import BroadcastSchedule
from repro.datasets.catalog import uniform_dataset
from repro.dynamic import DynamicBroadcastClient, DynamicBroadcastServer
from repro.engine import QueryEngine, evaluate_workload, index_family
from repro.errors import BroadcastError, ReproError
from repro.experiments.runner import run_mobility_cell
from repro.fleet import run_fleet
from repro.mobility import (
    BoundaryHuggingWorkload,
    RandomWaypointWorkload,
    Trajectory,
    evaluate_trajectory_workload,
)
from repro.mobility.workloads import trajectory_workload
from repro.simulation import ChannelSimulator, make_error_model, simulate_workload

from tests.conftest import random_points_in
from tests.oracles import evaluate_index_per_query


def _points(subdivision):
    return random_points_in(subdivision, 4, seed=3)


def _trajectories(subdivision):
    return [Trajectory([0.1, 0.9], [0.2, 0.8], speed=0.001, issue_time=0.0)]


def _naive(front_door):
    def call(*args, **kwargs):
        return front_door(*args, predictive=False, **kwargs)

    return call


#: (front door, workload builder, takes plan=).
FRONT_DOORS = {
    "engine": (evaluate_workload, _points, True),
    "simulate": (simulate_workload, _points, True),
    "per-query": (evaluate_index_per_query, _points, False),
    "mobility": (_naive(evaluate_trajectory_workload), _trajectories, False),
}


@pytest.fixture(scope="module")
def cell(grid4x4):
    family = index_family("dtree")
    params = family.parameters(64)
    paged = family.build(grid4x4).page(params)
    return paged, grid4x4, params


def _schedule(paged, subdivision, params, extra=0):
    return BroadcastSchedule(
        index_packet_count=len(paged.packets) + extra,
        region_ids=list(subdivision.region_ids),
        params=params,
    )


@pytest.mark.parametrize("door", sorted(FRONT_DOORS))
def test_index_size_mismatch_rejected(cell, door):
    paged, subdivision, params = cell
    front_door, workload, _ = FRONT_DOORS[door]
    wrong = _schedule(paged, subdivision, params, extra=3)
    with pytest.raises(BroadcastError, match="different index size"):
        front_door(
            paged, subdivision.region_ids, params, workload(subdivision),
            schedule=wrong,
        )


@pytest.mark.parametrize(
    "door", sorted(d for d, (_, _, plan) in FRONT_DOORS.items() if plan)
)
def test_schedule_and_plan_rejected(cell, door):
    paged, subdivision, params = cell
    front_door, workload, _ = FRONT_DOORS[door]
    plan = BroadcastPlan(
        len(paged.packets), subdivision.region_ids, params, channels=2
    )
    with pytest.raises(BroadcastError, match="not both"):
        front_door(
            paged, subdivision.region_ids, params, workload(subdivision),
            schedule=_schedule(paged, subdivision, params), plan=plan,
        )


@pytest.mark.parametrize("door", sorted(FRONT_DOORS))
def test_empty_workload_rejected(cell, door):
    paged, subdivision, params = cell
    front_door, _, _ = FRONT_DOORS[door]
    with pytest.raises(ReproError, match="at least one"):
        front_door(paged, subdivision.region_ids, params, [])


class TestTrajectoryWorkloadFactory:
    @pytest.mark.parametrize(
        "name, cls",
        [
            ("random-waypoint", RandomWaypointWorkload),
            ("boundary-hugging", BoundaryHuggingWorkload),
        ],
    )
    def test_builds_named_family(self, grid4x4, name, cls):
        gen = trajectory_workload(name, grid4x4, 500, 256, seed=4)
        assert type(gen) is cls
        assert gen.kind == name
        lo, hi = gen.speed_range
        assert 0.0 < lo < hi

    def test_unknown_name_rejected(self, grid4x4):
        with pytest.raises(ReproError, match="unknown mobility workload"):
            trajectory_workload("teleport", grid4x4, 500, 256)

    def test_mobility_cell_rejects_unknown_workload(self):
        dataset = uniform_dataset(n=12, seed=1)
        with pytest.raises(ReproError, match="unknown mobility workload"):
            run_mobility_cell(dataset, "dtree", 256, 2, 0, workload="teleport")

    def test_fleet_rejects_unknown_workload(self):
        with pytest.raises(ReproError, match="unknown mobility workload"):
            run_fleet(
                2, regions=12, mode="mobility", mobility_workload="teleport"
            )

    @pytest.mark.parametrize(
        "rate, label",
        [(0.0, "PerfectChannel()"), (0.05, "BernoulliLoss(rate=0.05)")],
    )
    def test_cell_labels_channel_like_fleet(self, rate, label):
        dataset = uniform_dataset(n=12, seed=1)
        cell = run_mobility_cell(
            dataset, "dtree", 256, 3, 0, predictive=False, error_rate=rate
        )
        fleet = run_fleet(
            3, regions=12, seed=1, mode="mobility", predictive=False,
            error_rate=rate,
        )
        assert cell.error_model == fleet.error_model == label


#: Mobility inputs that once ran silently (NaN issue times, an
#: error-free channel) or failed with a bare ``ValueError``.
BAD_MOBILITY_INPUTS = [
    ("epoch_slots", math.nan, "epoch_slots must be finite and > 0"),
    ("epoch_slots", math.inf, "epoch_slots must be finite and > 0"),
    ("error_rate", -0.1, "loss rate must be in"),
    ("error_rate", math.nan, "loss rate must be in"),
]


class TestBadMobilityInputs:
    @pytest.mark.parametrize("name, value, message", BAD_MOBILITY_INPUTS)
    def test_workload_rejects(self, cell, name, value, message):
        paged, subdivision, params = cell
        with pytest.raises(ReproError, match=message):
            evaluate_trajectory_workload(
                paged, subdivision.region_ids, params,
                _trajectories(subdivision), subdivision=subdivision,
                **{name: value},
            )

    @pytest.mark.parametrize("name, value, message", BAD_MOBILITY_INPUTS)
    def test_fleet_rejects(self, name, value, message):
        with pytest.raises(ReproError, match=message):
            run_fleet(3, regions=12, seed=1, mode="mobility", **{name: value})


class _EndlessCycle:
    """A schedule whose cycle length is not finite, so the front doors
    that draw issue times from it draw non-finite ones."""

    def __init__(self, schedule, cycle_length):
        self._schedule = schedule
        self.cycle_length = cycle_length

    def __getattr__(self, name):
        return getattr(self._schedule, name)


def _lossy():
    return make_error_model("bernoulli", 0.1)


#: Issue-time doors: name -> call(paged, schedule, points, issue_times).
ISSUE_TIME_DOORS = {
    "engine": lambda paged, schedule, points, times: QueryEngine(
        paged, schedule
    ).run(points, issue_times=times),
    "simulator": lambda paged, schedule, points, times: ChannelSimulator(
        paged, schedule, error_model=_lossy()
    ).run(points, issue_times=times),
    "run_batch": lambda paged, schedule, points, times: BroadcastClient(
        paged, schedule
    ).run_batch(points, times),
}
#: Workload doors draw issue times over the cycle: name -> call.
WORKLOAD_DOORS = {
    "evaluate_workload": evaluate_workload,
    "simulate_workload": functools.partial(simulate_workload, error_rate=0.1),
}
BAD_ISSUE_TIMES = {
    "nan": [0.0, math.nan, 1.0],
    "inf": [0.0, math.inf, 1.0],
    "-inf": [-math.inf, 0.0, 1.0],
    "column": np.array([[0.0], [1.0], [2.0]]),
    "text": ["0.0", "noon", "1.0"],
}


class TestBadIssueTimes:
    """Non-finite issue times, a non-1-D array and values that are not
    numbers are one ``BroadcastError``, raised by ``run_batch`` behind
    every door."""

    @pytest.mark.parametrize("bad", sorted(BAD_ISSUE_TIMES))
    @pytest.mark.parametrize("door", sorted(ISSUE_TIME_DOORS))
    def test_issue_times_rejected(self, cell, door, bad):
        paged, subdivision, params = cell
        points = random_points_in(subdivision, 3, seed=3)
        with pytest.raises(BroadcastError, match="issue times must be"):
            ISSUE_TIME_DOORS[door](
                paged, _schedule(paged, subdivision, params), points,
                BAD_ISSUE_TIMES[bad],
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("live", [False, True], ids=["static", "dynamic"])
    def test_scalar_query_rejects_non_finite_time(self, cell, live, bad):
        paged, subdivision, params = cell
        if live:
            client = DynamicBroadcastClient(
                DynamicBroadcastServer("dtree", subdivision, packet_capacity=64)
            )
        else:
            client = BroadcastClient(paged, _schedule(paged, subdivision, params))
        point = random_points_in(subdivision, 1, seed=3)[0]
        with pytest.raises(BroadcastError, match="issue times must be finite"):
            client.query(point, bad)

    @pytest.mark.parametrize("length", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("door", sorted(WORKLOAD_DOORS))
    def test_non_finite_cycle_rejected(self, cell, door, length):
        paged, subdivision, params = cell
        schedule = _EndlessCycle(_schedule(paged, subdivision, params), length)
        with pytest.raises(BroadcastError, match="issue times must be finite"):
            WORKLOAD_DOORS[door](
                paged, subdivision.region_ids, params, _points(subdivision),
                schedule=schedule,
            )
