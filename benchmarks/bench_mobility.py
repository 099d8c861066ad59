"""Mobility: scope-exit prediction savings and fleet-scale fan-out.

Two headline acceptance numbers:

* Scope-exit prediction cuts re-tunes per kilometre by >= 3x versus the
  naive every-epoch client at 60 regions, with an identical per-epoch
  answer stream — both asserted on every run, full or smoke.
* A 100k-client mobility fleet fans out across processes with a
  worker-count-invariant :class:`MobilityReport` — every summary float
  identical between workers=1 and workers=N.

CI smoke mode (``REPRO_BENCH_SMOKE=1``) shrinks the fleet to 2k clients
with 2 workers so both contracts are exercised on every push without
minutes of wall-clock.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_mobility.py --benchmark-only
"""

import math
import os
import time

import numpy as np
import pytest

from repro.broadcast.schedule import BroadcastSchedule
from repro.datasets.catalog import uniform_dataset
from repro.engine import index_family
from repro.fleet import FleetRunner, FleetSpec
from repro.mobility import (
    RandomWaypointWorkload,
    RegionBoundaryIndex,
    units_per_slot,
)

from _recorder import record_case, run_recorded

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Fleet size for the fan-out cell and client count for the savings cell.
TOTAL_CLIENTS = 2_000 if SMOKE else 100_000
SAVINGS_CLIENTS = 500 if SMOKE else 5_000
CHUNK_SIZE = 500 if SMOKE else 5_000

CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
    os.cpu_count() or 1
)
FAN_WORKERS = 2 if SMOKE else min(8, max(2, CORES))


def _spec(predictive):
    # 60 regions: short cycles mean many epochs per kilometre, which is
    # where scope-exit prediction pays — the savings gate lives here.
    dataset = uniform_dataset(n=60, seed=7)
    family = index_family("dtree")
    params = family.parameters(packet_capacity=256)
    paged = family.build(dataset.subdivision, seed=7).page(params)
    schedule = BroadcastSchedule(
        index_packet_count=len(paged.packets),
        region_ids=list(dataset.subdivision.region_ids),
        params=params,
    )
    workload = RandomWaypointWorkload(
        dataset.subdivision.service_area,
        schedule.cycle_length,
        waypoints=3,
        speed_range=(units_per_slot(30, 256), units_per_slot(90, 256)),
        seed=7,
    )
    return FleetSpec(
        paged_index=paged,
        schedule=schedule,
        params=params,
        workload=workload,
        mode="mobility",
        index_kind="dtree",
        boundary_index=RegionBoundaryIndex(dataset.subdivision),
        predictive=predictive,
        max_epochs=32,
    )


def bench_mobility_prediction_savings(benchmark):
    """Predictive vs naive continuous clients over the same trajectories:
    identical answers, >= 3x fewer re-tunes per kilometre."""
    naive_runner = FleetRunner(_spec(predictive=False), chunk_size=CHUNK_SIZE)
    start = time.perf_counter()
    naive = naive_runner.run(SAVINGS_CLIENTS)
    naive_seconds = time.perf_counter() - start
    record_case(
        "mobility", f"naive-{SAVINGS_CLIENTS}-clients", naive_seconds * 1000.0
    )

    pred_runner = FleetRunner(_spec(predictive=True), chunk_size=CHUNK_SIZE)
    start = time.perf_counter()
    pred = run_recorded(
        benchmark,
        lambda: pred_runner.run(SAVINGS_CLIENTS),
        "mobility",
        f"predictive-{SAVINGS_CLIENTS}-clients",
    )
    pred_seconds = time.perf_counter() - start

    # Same trajectories, same per-epoch answers — prediction only skips
    # re-tunes it can prove redundant.
    np.testing.assert_array_equal(
        pred.merged_answers(), naive.merged_answers()
    )
    savings = naive.retunes_per_km / pred.retunes_per_km
    record_case("mobility", "prediction-savings-x1000", savings * 1000.0)
    print(
        f"\nmobility {SAVINGS_CLIENTS} clients: naive "
        f"{naive.retunes_per_km:.2f} retunes/km, predictive "
        f"{pred.retunes_per_km:.2f} retunes/km ({savings:.2f}x savings; "
        f"wall time {naive_seconds:.2f}s vs {pred_seconds:.2f}s, "
        f"{naive_seconds / pred_seconds:.2f}x)"
    )
    assert savings >= 3.0, (
        f"scope-exit prediction saves only {savings:.2f}x re-tunes/km "
        f"(acceptance floor is 3x)"
    )


def bench_mobility_fleet_fanout(benchmark):
    """100k moving clients through the multi-process fleet runner:
    worker-count invariance of every MobilityReport summary float."""
    spec = _spec(predictive=True)
    solo_runner = FleetRunner(spec, chunk_size=CHUNK_SIZE, workers=1)
    start = time.perf_counter()
    solo = solo_runner.run(TOTAL_CLIENTS)
    solo_seconds = time.perf_counter() - start
    record_case(
        "mobility",
        f"fleet-{TOTAL_CLIENTS}-workers-1",
        solo_seconds * 1000.0,
    )

    fan_runner = FleetRunner(spec, chunk_size=CHUNK_SIZE, workers=FAN_WORKERS)
    fanned = run_recorded(
        benchmark,
        lambda: fan_runner.run(TOTAL_CLIENTS),
        "mobility",
        f"fleet-{TOTAL_CLIENTS}-workers-{FAN_WORKERS}",
    )

    np.testing.assert_array_equal(
        solo.merged_answers(), fanned.merged_answers()
    )
    s1, sN = solo.summary(), fanned.summary()
    assert set(s1) == set(sN)
    for key in s1:
        assert s1[key] == sN[key] or (
            math.isnan(s1[key]) and math.isnan(sN[key])
        ), key
    assert solo.clients == fanned.clients == TOTAL_CLIENTS

    speedup = solo_seconds / fanned.elapsed_seconds
    record_case("mobility", "fanout-speedup-x1000", speedup * 1000.0)
    print(
        f"\nmobility fleet {TOTAL_CLIENTS} clients: workers=1 "
        f"{solo_seconds:.2f}s, workers={FAN_WORKERS} "
        f"{fanned.elapsed_seconds:.2f}s (speedup {speedup:.2f}x on "
        f"{CORES} cores)"
    )
