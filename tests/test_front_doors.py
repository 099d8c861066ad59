"""The workload front doors resolve their broadcast timeline one way.

``evaluate_workload``, ``simulate_workload``, ``evaluate_index_per_query``
and ``evaluate_trajectory_workload`` all go through
:func:`repro.broadcast.schedule.resolve_schedule`: each rejects a
schedule built for another index size and an empty workload, and the
two that take ``plan=`` reject it together with ``schedule=``.  The
mobility workload factory rejects unknown names with a ``ReproError``
at every entry point.
"""

import pytest

from repro.broadcast.metrics import evaluate_index_per_query
from repro.broadcast.plan import BroadcastPlan
from repro.broadcast.schedule import BroadcastSchedule
from repro.datasets.catalog import uniform_dataset
from repro.engine import evaluate_workload, index_family
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
from repro.simulation import simulate_workload

from tests.conftest import random_points_in


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
