"""lossy-multichannel: UNIFORM (1000 regions), dtree and rstar, on the
two per-query scalar walkers.

Half the queries run at K=1 over a 1% Gilbert bursty-loss channel with
``retry-next-segment`` recovery, through ``FleetRunner(mode="simulate")``.
The other half run error-free on a K=4 ``region-locality`` /
``distributed`` plan through ``evaluate_workload(plan=)``.  The batched
tracer and the vectorised timeline are bypassed.
"""

from __future__ import annotations

from time import perf_counter

from repro.broadcast.plan import BroadcastPlan
from repro.broadcast.schedule import BroadcastSchedule
from repro.datasets.catalog import SERVICE_AREA, uniform_dataset
from repro.engine import evaluate_workload, index_family
from repro.geometry.kernels import point_coords
from repro.fleet import (
    FleetReport,
    FleetRunner,
    FleetSpec,
    UniformFleetWorkload,
    spawned_seed,
)
from repro.simulation.faults import make_error_model
from repro.simulation.simulator import ChannelSimulator

from workloads.common import (
    PACKET_CAPACITY,
    Outcome,
    chunks,
    coords_of,
    fleet_digest,
)

KINDS = ("dtree", "rstar")
LOSS = dict(error_model_name="gilbert", error_rate=0.01, mean_burst=4.0)
POLICY = "retry-next-segment"
PLAN = dict(channels=4, allocation="region-locality", index_placement="distributed")


class Family:
    def __init__(self, spec, plan, region_ids) -> None:
        self.spec = spec
        self.plan = plan
        self.region_ids = region_ids


class State:
    def __init__(self, subdivision, families, index_packets, plan_points) -> None:
        self.subdivision = subdivision
        self.families = families
        self.index_packets = index_packets
        self.plan_points = plan_points


class LossyMultichannel:
    name = "lossy-multichannel"
    why = (
        "per-query scalar walkers: K=1 lossy simulation and K=4 channel "
        "hopping; batched tracer and timeline bypassed"
    )
    reusable = True

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        #: Set-ups per run; setup_s is their median.
        self.setups = 1 if smoke else 3
        #: Queries per family per round on each half, and the chunk size.
        self.queries = 600 if smoke else 5_000
        self.chunk_size = 300 if smoke else 2_500

    def prepare(self):
        """The K=4 half's query points (the plan path takes a point list)."""
        return {
            kind: UniformFleetWorkload(SERVICE_AREA, 1, seed=self._seed(i, 1))
            .chunk(0, self.queries)[0]
            for i, kind in enumerate(KINDS)
        }

    def _seed(self, family: int, half: int) -> int:
        return (self.seed * len(KINDS) + family) * 2 + half

    def setup(self, plan_points, rec) -> State:
        with rec.span("tessellation.subdivision"):
            subdivision = uniform_dataset().subdivision
        region_ids = list(subdivision.region_ids)
        families = {}
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
                region_ids=region_ids,
                params=params,
            )
            plan = BroadcastPlan(len(paged.packets), region_ids, params, **PLAN)
            workload = UniformFleetWorkload(
                SERVICE_AREA, schedule.cycle_length, seed=self._seed(i, 0)
            )
            spec = FleetSpec(
                paged,
                schedule,
                params,
                workload,
                "simulate",
                index_kind=kind,
                policy=POLICY,
                **LOSS,
            )
            families[kind] = Family(spec, plan, region_ids)
            index_packets[kind] = len(paged.packets)
        return State(subdivision, families, index_packets, plan_points)

    def _plan_half(self, state: State, kind: str, i: int):
        fam = state.families[kind]
        return evaluate_workload(
            fam.spec.paged_index,
            fam.region_ids,
            fam.spec.params,
            state.plan_points[kind],
            seed=self._seed(i, 1),
            plan=fam.plan,
        )

    def replay(self, state: State, rec) -> Outcome:
        """The simulate runner's per-chunk calls, then the K=4 half."""
        out = Outcome()
        for i, (kind, fam) in enumerate(state.families.items()):
            spec = fam.spec
            t0 = perf_counter()
            with rec.span("sim.walk"):
                simulator = ChannelSimulator(
                    spec.paged_index,
                    spec.schedule,
                    error_model=make_error_model(
                        spec.error_model_name, spec.error_rate, spec.mean_burst
                    ),
                    policy=spec.policy,
                    energy_model=spec.energy_model,
                    cache_packets=spec.cache_packets,
                    index_kind=kind,
                )
            report = spec.empty_report()
            for index, start, size in chunks(self.queries, self.chunk_size):
                rec.chunk = f"{kind}:{index}"
                with rec.span("fleet.chunk_gen"):
                    points, issue_times = spec.workload.chunk(start, size)
                with rec.span("sim.walk", {"sim.run": "sim.walk"}):
                    sim = simulator.run(
                        points,
                        issue_times=issue_times,
                        seed=spawned_seed(spec.workload.seed, index),
                    )
                with rec.span("fleet.fold"):
                    chunk_report = FleetReport(
                        alpha=spec.alpha,
                        mode="simulate",
                        index_kind=kind,
                        policy=simulator.client.policy.name,
                        error_model=repr(simulator.client.error_model),
                    )
                    chunk_report.observe_chunk(
                        index,
                        sim.region_ids,
                        sim.access_latency,
                        sim.tuning_time,
                        sim.energy_joules,
                        losses=sim.total_losses,
                        attempts=int(sim.read_attempts.sum()),
                    )
                    report.merge(chunk_report)
                out.check(
                    sim.region_ids,
                    state.subdivision,
                    lambda w=spec.workload, s=start, n=size: point_coords(
                        w.chunk(s, n)[0]
                    ),
                )
            rec.chunk = f"{kind}:plan"
            with rec.span("hop.walk", {"engine.run": "hop.walk"}):
                batch = self._plan_half(state, kind, i)
            rec.chunk = None
            out.seconds += perf_counter() - t0
            out.add_fleet_report(report)
            out.add_batch(batch.region_ids, batch.access_latency, batch.total_tuning_time)
            out.check(
                batch.region_ids, state.subdivision, coords_of(state.plan_points[kind])
            )
        return out

    def timed_round(self, state: State) -> Outcome:
        """One round through ``FleetRunner.run`` and ``evaluate_workload``."""
        out = Outcome()
        for i, (kind, fam) in enumerate(state.families.items()):
            runner = FleetRunner(fam.spec, chunk_size=self.chunk_size, workers=1)
            t0 = perf_counter()
            report = runner.run(self.queries)
            batch = self._plan_half(state, kind, i)
            out.seconds += perf_counter() - t0
            out.answers += report.queries + len(batch)
            out.digest.extend(fleet_digest(report))
            out.digest.extend(
                [batch.region_ids, batch.access_latency, batch.total_tuning_time]
            )
        return out
