"""roaming-hospital: HOSPITAL (185 clustered regions), random-waypoint
clients at 30-90 km/h answering a predictive continuous query through
``FleetRunner(mode="mobility")``.

Scalar re-tunes and per-client ``exit_bound`` calls dominate.  Every
epoch's answer is one location-dependent answer.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.broadcast.schedule import BroadcastSchedule
from repro.datasets.catalog import SERVICE_AREA, hospital_dataset
from repro.engine import index_family
from repro.fleet import FleetRunner, FleetSpec, spawned_seed
from repro.mobility import (
    MobilityReport,
    RandomWaypointWorkload,
    RegionBoundaryIndex,
    evaluate_trajectory_workload,
    units_per_slot,
)
from repro.mobility.units import DEFAULT_KM_PER_UNIT
from repro.simulation.faults import PerfectChannel

from spans import TimedBoundaryIndex
from workloads.common import PACKET_CAPACITY, Outcome, chunks, fleet_digest

KIND = "dtree"
SPEED_KMH = (30.0, 90.0)
MAX_EPOCHS = 32


class State:
    def __init__(self, subdivision, spec, index_packets) -> None:
        self.subdivision = subdivision
        self.spec = spec
        self.index_packets = index_packets


class RoamingHospital:
    name = "roaming-hospital"
    why = (
        "moving clients on predictive continuous queries: scalar re-tunes "
        "and exit bounds dominate, the compiled engine is bypassed"
    )
    reusable = True

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        #: Set-ups per run; setup_s is their median.
        self.setups = 1 if smoke else 5
        #: Clients per round, and the runner's chunk size.
        self.clients = 40 if smoke else 500
        self.chunk_size = 20 if smoke else 250

    def prepare(self):
        return None

    def setup(self, inputs, rec) -> State:
        with rec.span("tessellation.subdivision"):
            subdivision = hospital_dataset().subdivision
        family = index_family(KIND)
        params = family.parameters(PACKET_CAPACITY)
        with rec.span(f"build.{KIND}"):
            index = family.build(subdivision, seed=0)
        with rec.span(f"page.{KIND}"):
            paged = index.page(params)
        schedule = BroadcastSchedule(
            index_packet_count=len(paged.packets),
            region_ids=list(subdivision.region_ids),
            params=params,
        )
        with rec.span("mobility.boundary_index"):
            boundary_index = RegionBoundaryIndex(subdivision)
        speeds = tuple(
            units_per_slot(s, PACKET_CAPACITY, DEFAULT_KM_PER_UNIT)
            for s in SPEED_KMH
        )
        workload = RandomWaypointWorkload(
            SERVICE_AREA,
            schedule.cycle_length,
            waypoints=3,
            speed_range=speeds,
            seed=self.seed,
        )
        spec = FleetSpec(
            paged,
            schedule,
            params,
            workload,
            "mobility",
            index_kind=KIND,
            boundary_index=boundary_index,
            max_epochs=MAX_EPOCHS,
            km_per_unit=DEFAULT_KM_PER_UNIT,
        )
        return State(subdivision, spec, {KIND: len(paged.packets)})

    def replay(self, state: State, rec) -> Outcome:
        """The mobility runner's per-chunk calls, made one by one."""
        out = Outcome()
        spec = state.spec
        boundary_index = (
            TimedBoundaryIndex(spec.boundary_index, rec)
            if rec.recording
            else spec.boundary_index
        )
        report = spec.empty_report()
        for index, start, size in chunks(self.clients, self.chunk_size):
            rec.chunk = f"{KIND}:{index}"
            t0 = perf_counter()
            with rec.span("mobility.trajectory_gen"):
                trajectories = spec.workload.chunk(start, size)
            with rec.span("mobility.evaluate"):
                batch = evaluate_trajectory_workload(
                    spec.paged_index,
                    [],
                    spec.params,
                    trajectories,
                    boundary_index=boundary_index,
                    predictive=spec.predictive,
                    epoch_slots=spec.epoch_slots,
                    max_epochs=spec.max_epochs,
                    cache_packets=spec.cache_packets,
                    energy_model=spec.energy_model,
                    seed=spawned_seed(spec.workload.seed, index),
                    schedule=spec.schedule,
                    km_per_unit=spec.km_per_unit,
                )
            with rec.span("fleet.fold"):
                chunk_report = MobilityReport(
                    index_kind=KIND,
                    client="predictive",
                    error_model=repr(PerfectChannel()),
                    alpha=spec.alpha,
                )
                chunk_report.observe_chunk(index, batch)
                report.merge(chunk_report)
            out.seconds += perf_counter() - t0
            # Latency is the paper's access latency of each client's
            # first re-tune (skipped epochs are answered without tuning).
            out.latency_sum += float(np.sum(batch.access_latency))
            out.latency_count += len(batch)
            out.check(
                np.concatenate(batch.answers),
                state.subdivision,
                lambda ts=trajectories, e=batch.epoch_slots: _epoch_coords(ts, e),
            )
        rec.chunk = None
        out.answers += report.epochs
        out.tuning_sum += report.attempts
        out.digest.extend(fleet_digest(report))
        out.extra["mobility.retunes_per_km"] = report.retunes_per_km
        return out

    def timed_round(self, state: State) -> Outcome:
        """One round through ``FleetRunner.run`` itself."""
        out = Outcome()
        runner = FleetRunner(state.spec, chunk_size=self.chunk_size, workers=1)
        t0 = perf_counter()
        report = runner.run(self.clients)
        out.seconds = perf_counter() - t0
        out.answers = report.epochs
        out.digest.extend(fleet_digest(report))
        return out


def _epoch_coords(trajectories, epoch_slots: float):
    """Where every client was at every epoch it answered."""
    xs, ys = zip(
        *(
            t.positions_at(t.epoch_times(epoch_slots, MAX_EPOCHS))
            for t in trajectories
        )
    )
    return np.concatenate(xs), np.concatenate(ys)
