"""static-park: PARK (1102 clustered regions), all four families,
uniform fleet points through ``FleetRunner(mode="engine")``.

The compiled tracers and the vectorised (1, m) timeline do most of the
work; set-up (Voronoi, four builds, paging, compile) is the heaviest of
all workloads.  Simulation, mobility and dynamic code is bypassed.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.broadcast.schedule import BroadcastSchedule
from repro.datasets.catalog import SERVICE_AREA, park_dataset
from repro.engine import QueryEngine, batched_trace, index_family
from repro.geometry.kernels import point_coords
from repro.fleet import FleetReport, FleetRunner, FleetSpec, UniformFleetWorkload

from workloads.common import (
    COMPILE_PROBE,
    KINDS,
    PACKET_CAPACITY,
    Outcome,
    chunks,
    engine_obs_names,
    fleet_digest,
)


class State:
    def __init__(self, subdivision, specs, index_packets) -> None:
        self.subdivision = subdivision
        self.specs = specs
        self.index_packets = index_packets


class StaticPark:
    name = "static-park"
    why = (
        "paper's largest set, all four families on the compiled engine: "
        "trace and timeline dominate, set-up is heaviest"
    )
    reusable = True

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        #: Set-ups per run; setup_s is their median.
        self.setups = 1 if smoke else 2
        #: Queries per family per round, and the runner's chunk size.
        self.queries = 4_000 if smoke else 50_000
        self.chunk_size = 2_000 if smoke else 25_000

    def prepare(self):
        """Queries come from the program's own fleet workload, generated
        chunk by chunk inside the runner; nothing to make up front."""
        return None

    def setup(self, inputs, rec) -> State:
        with rec.span("tessellation.subdivision"):
            subdivision = park_dataset().subdivision
        specs = {}
        index_packets = {}
        for i, kind in enumerate(KINDS):
            family = index_family(kind)
            params = family.parameters(PACKET_CAPACITY)
            with rec.span(f"build.{kind}"):
                index = family.build(subdivision, seed=0)
            with rec.span(f"page.{kind}"):
                paged = index.page(params)
            schedule = BroadcastSchedule(
                index_packet_count=len(paged.packets),
                region_ids=list(subdivision.region_ids),
                params=params,
            )
            with rec.span(f"compile.{kind}"):
                batched_trace(paged, COMPILE_PROBE)
            workload = UniformFleetWorkload(
                SERVICE_AREA,
                schedule.cycle_length,
                seed=self.seed * len(KINDS) + i,
            )
            specs[kind] = FleetSpec(
                paged, schedule, params, workload, "engine", index_kind=kind
            )
            index_packets[kind] = len(paged.packets)
        return State(subdivision, specs, index_packets)

    def replay(self, state: State, rec) -> Outcome:
        """The runner's per-chunk calls, made one by one (workers=1)."""
        out = Outcome()
        for kind, spec in state.specs.items():
            engine = QueryEngine(spec.paged_index, spec.schedule)
            report = spec.empty_report()
            for index, start, size in chunks(self.queries, self.chunk_size):
                rec.chunk = f"{kind}:{index}"
                t0 = perf_counter()
                with rec.span("fleet.chunk_gen"):
                    points, issue_times = spec.workload.chunk(start, size)
                with rec.span("timeline", engine_obs_names(kind)):
                    result = engine.run(points, issue_times=issue_times)
                with rec.span("summary"):
                    tuning = result.total_tuning_time
                    energy = spec.energy_model.batch_joules(
                        tuning, result.access_latency, spec.params.packet_capacity
                    )
                with rec.span("fleet.fold"):
                    chunk_report = FleetReport(
                        alpha=spec.alpha,
                        mode="engine",
                        index_kind=kind,
                        policy="none",
                        error_model="error-free",
                    )
                    chunk_report.observe_chunk(
                        index,
                        result.region_ids,
                        result.access_latency,
                        tuning,
                        energy,
                        losses=0,
                        attempts=int(np.sum(tuning)),
                    )
                    report.merge(chunk_report)
                out.seconds += perf_counter() - t0
                out.check(
                    result.region_ids,
                    state.subdivision,
                    lambda w=spec.workload, s=start, n=size: point_coords(
                        w.chunk(s, n)[0]
                    ),
                )
            rec.chunk = None
            out.add_fleet_report(report)
        return out

    def timed_round(self, state: State) -> Outcome:
        """One round through ``FleetRunner.run`` itself."""
        out = Outcome()
        for spec in state.specs.values():
            runner = FleetRunner(spec, chunk_size=self.chunk_size, workers=1)
            t0 = perf_counter()
            report = runner.run(self.queries)
            out.seconds += perf_counter() - t0
            out.answers += report.queries
            out.digest.extend(fleet_digest(report))
        return out
