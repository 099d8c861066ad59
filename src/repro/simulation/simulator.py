"""The discrete-event channel simulator: workloads over a lossy channel.

:class:`ChannelSimulator` is a thin resolver over the access walker
(:class:`~repro.broadcast.client.BroadcastClient` with its loss effect
on): it resolves the issue times, resets the error model's stream and
runs the whole workload through the walker's batched front door
:meth:`~repro.broadcast.client.BroadcastClient.run_batch`, which walks
only the queries a loss touches one by one, then labels the per-query
outcomes as a :class:`~repro.simulation.report.SimulationReport`.  It
accepts any paged index satisfying the
:class:`~repro.broadcast.packets.PagedIndex` protocol — all four
registered :class:`~repro.engine.AirIndex` families run under
*identical* fault schedules because the error model's rng is reseeded
per run from the workload seed, independently of the index.

:meth:`ChannelSimulator.run` is the simulator's one front door.
Determinism contract: ``run(...)`` with the same seed (and the same
simulator configuration) produces an identical report, bit for bit —
issue times come from ``random.Random(seed)`` (the same resolver,
:func:`~repro.broadcast.client.resolve_issue_times`, as the batched
:class:`~repro.engine.QueryEngine`, so the zero-error property test can
compare elementwise) and channel randomness from a
stream derived from the seed but not shared with it.  An injected
``rng=`` replaces only the issue-time stream: ``run(w, rng=Random(s))``
draws the issue times of ``run(w, seed=s)``.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Union

from repro.obs import active_collector, null_span
from repro.broadcast.client import BroadcastClient, resolve_issue_times
from repro.broadcast.packets import PagedIndex
from repro.broadcast.params import SystemParameters
from repro.broadcast.schedule import resolve_schedule
from repro.simulation.energy import EnergyModel
from repro.simulation.faults import ErrorModel, PerfectChannel, make_error_model
from repro.simulation.policies import RecoveryPolicy
from repro.simulation.report import SimulationReport
from repro.workload.generators import workload_points


class ChannelSimulator:
    """Simulates one (paged index, schedule) pair under channel faults."""

    def __init__(
        self,
        paged_index: PagedIndex,
        schedule,
        *,
        error_model: Optional[ErrorModel] = None,
        policy: Union[str, RecoveryPolicy] = "retry-next-segment",
        energy_model: Optional[EnergyModel] = None,
        cache_packets: int = 0,
        index_kind: str = "?",
    ) -> None:
        self.client = BroadcastClient(
            paged_index,
            schedule,
            error_model=error_model if error_model is not None else PerfectChannel(),
            policy=policy,
            energy_model=energy_model,
            cache_packets=cache_packets if cache_packets > 0 else None,
        )
        # A K=1 plan is unwrapped by the client; mirror its view so the
        # issue-time horizon (cycle_length) matches bit for bit.
        self.schedule = self.client.schedule
        self.index_kind = index_kind

    def run(
        self,
        workload,
        issue_times: Optional[Sequence[float]] = None,
        seed: int = 0,
        rng=None,
    ) -> SimulationReport:
        """Simulate every query of *workload*.

        Issue times default to uniform-random instants from
        ``random.Random(seed)`` — the exact stream of the batched
        engine's :meth:`~repro.engine.QueryEngine.run`.  The channel's
        rng is re-derived from the seed, so repeated calls with one seed
        replay the identical fault schedule.
        """
        points = workload_points(workload)
        n = len(points)
        times = resolve_issue_times(
            n, self.schedule.cycle_length, issue_times, seed, rng
        )
        # Independent, reproducible channel stream: a fresh rng seeded
        # from the run seed but offset so it never mirrors issue times.
        self.client.error_model.reset(random.Random(f"channel:{seed}"))

        col = active_collector()
        if col is not None:
            col.count("sim.runs")
            col.count(f"sim.index.{self.index_kind}.queries", n)
            col.observe("sim.batch_size", n)
        with col.span("sim.run") if col is not None else null_span(""):
            batch = self.client.run_batch(points, times)
        return SimulationReport(
            index_kind=self.index_kind,
            policy=self.client.policy.name,
            error_model=repr(self.client.error_model),
            issue_times=batch.issue_times,
            region_ids=batch.region_ids,
            access_latency=batch.access_latency,
            tuning_time=batch.total_tuning_time,
            energy_joules=batch.energy_joules,
            packet_losses=batch.packet_losses,
            read_attempts=batch.read_attempts,
        )


def simulate_workload(
    paged_index: PagedIndex,
    region_ids: Sequence[int],
    params: SystemParameters,
    workload,
    *,
    error_rate: float = 0.0,
    error_model: Union[str, ErrorModel] = "bernoulli",
    mean_burst: float = 4.0,
    policy: Union[str, RecoveryPolicy] = "retry-next-segment",
    energy_model: Optional[EnergyModel] = None,
    cache_packets: int = 0,
    seed: int = 0,
    m: Optional[int] = None,
    schedule=None,
    plan=None,
    index_kind: str = "?",
) -> SimulationReport:
    """Faulty-channel counterpart of :func:`repro.engine.evaluate_workload`.

    Builds the flat (1, m) schedule unless one is provided, instantiates
    the error model by name at *error_rate*, and runs the whole workload
    through the :class:`ChannelSimulator`.  Pass ``plan=`` (a
    :class:`~repro.broadcast.plan.BroadcastPlan`) to simulate a
    multi-channel broadcast instead of a single timeline.
    """
    points = workload_points(workload)
    schedule = resolve_schedule(
        paged_index, region_ids, params, points, m=m, schedule=schedule,
        plan=plan,
    )
    if isinstance(error_model, str):
        error_model = make_error_model(error_model, error_rate, mean_burst)
    simulator = ChannelSimulator(
        paged_index,
        schedule,
        error_model=error_model,
        policy=policy,
        energy_model=energy_model,
        cache_packets=cache_packets,
        index_kind=index_kind,
    )
    return simulator.run(points, seed=seed)
