"""Per-query oracles of the batched front doors.

Each function here walks the paper's access protocol (§2: probe → index
search → doze → data) one query at a time through
:class:`~repro.broadcast.client.BroadcastClient.query`, the slow,
obviously-correct path that the batched code in ``src/`` is tested
against bit for bit:

* :func:`evaluate_index_per_query` — the oracle of
  :func:`repro.engine.evaluate_workload` and
  :func:`repro.broadcast.evaluate_index` (``tests/test_engine.py``,
  ``tests/test_front_doors.py``), and the per-query baseline of the
  engine speedup gates in ``benchmarks/bench_engine.py``;
* :func:`evaluate_trajectory` — one moving client's continuous-query
  session (§4.4), walked re-tune by re-tune; the oracle of the epoch
  waves of :func:`repro.mobility.evaluate_trajectory_workload`
  (``tests/test_mobility_waves.py``).

Staleness is measured against delivery times: the answer of a re-tune
issued at ``t`` is *delivered* at ``t + access_latency``, and an epoch
is stale when, at its end, the latest delivered answer differs from the
logical answer (or nothing has been delivered yet).  On a lossy channel
a missed packet stretches ``access_latency``, so loss directly extends
stale-answer-time.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

import numpy as np

from repro.broadcast.client import BroadcastClient
from repro.broadcast.metrics import MetricsSummary, metrics_summary
from repro.broadcast.packets import PagedIndex
from repro.broadcast.params import SystemParameters
from repro.broadcast.schedule import resolve_schedule
from repro.geometry.point import Point
from repro.mobility.exitbound import RegionBoundaryIndex
from repro.mobility.trajectory import Trajectory
from repro.obs import active_collector


def evaluate_index_per_query(
    paged_index: PagedIndex,
    region_ids: Sequence[int],
    params: SystemParameters,
    query_points: List[Point],
    seed: int = 0,
    m: Optional[int] = None,
    schedule=None,
) -> MetricsSummary:
    """Reference implementation of :func:`evaluate_index`: one client
    query at a time through :class:`BroadcastClient`.

    Kept as the oracle the batched engine is property-tested against
    (``tests/test_engine.py``); prefer :func:`evaluate_index` everywhere
    else.
    """
    schedule = resolve_schedule(
        paged_index, region_ids, params, query_points, m=m, schedule=schedule
    )
    client = BroadcastClient(paged_index, schedule)
    rng = random.Random(seed)
    issue_times = [rng.uniform(0, schedule.cycle_length) for _ in query_points]
    results = client.run_workload(query_points, issue_times=issue_times)
    return metrics_summary(
        [r.access_latency for r in results],
        [r.index_tuning_time for r in results],
        [r.total_tuning_time for r in results],
        len(paged_index.packets),
        schedule,
        len(region_ids),
        params,
    )


class ClientOutcome:
    """One trajectory's evaluated session."""

    __slots__ = (
        "answers",
        "epoch_times",
        "retunes",
        "crossings",
        "stale_epochs",
        "attempts",
        "losses",
        "latency_sum",
        "tuning_sum",
        "last_latency",
        "first_latency",
        "first_index_tuning",
        "first_tuning",
        "distance_units",
    )

    def __init__(self) -> None:
        self.answers: np.ndarray = np.zeros(0, np.int64)
        self.epoch_times: np.ndarray = np.zeros(0, np.float64)
        self.retunes = 0
        self.crossings = 0
        self.stale_epochs = 0
        self.attempts = 0
        self.losses = 0
        self.latency_sum = 0.0
        self.tuning_sum = 0
        self.last_latency = 0.0
        self.first_latency = 0.0
        self.first_index_tuning = 0
        self.first_tuning = 0
        self.distance_units = 0.0

    @property
    def epochs(self) -> int:
        return int(self.answers.size)

    @property
    def skips(self) -> int:
        return self.epochs - self.retunes

    def __repr__(self) -> str:
        return (
            f"ClientOutcome(epochs={self.epochs}, retunes={self.retunes}, "
            f"crossings={self.crossings}, stale={self.stale_epochs})"
        )


def _stale_epochs(
    times: np.ndarray,
    epoch_slots: float,
    answers: np.ndarray,
    delivery_times: List[float],
    delivery_answers: List[int],
) -> int:
    """Epochs whose *end* sees a missing or outdated delivered answer.

    The delivered answer at time ``t`` is that of the latest-issued
    re-tune already delivered (``delivery <= t``); the delivered set only
    grows with ``t``, so one sorted sweep suffices.
    """
    if not delivery_times:
        return int(times.size)
    dts = np.asarray(delivery_times)
    regs = np.asarray(delivery_answers, np.int64)
    order = np.argsort(dts, kind="stable")
    stale = 0
    j = 0
    best = -1
    for f in range(times.size):
        t_end = times[f] + epoch_slots
        while j < order.size and dts[order[j]] <= t_end:
            if order[j] > best:
                best = int(order[j])
            j += 1
        if best < 0 or regs[best] != answers[f]:
            stale += 1
    return stale


def evaluate_trajectory(
    trajectory: Trajectory,
    client,
    boundary_index: Optional[RegionBoundaryIndex],
    epoch_slots: float,
    predictive: bool = True,
    max_epochs: int = 0,
) -> ClientOutcome:
    """Run one client's continuous-query session on the epoch grid."""
    times = trajectory.epoch_times(epoch_slots, max_epochs)
    xs, ys = trajectory.positions_at(times)
    n = times.size
    out = ClientOutcome()
    out.epoch_times = times
    answers = np.empty(n, np.int64)
    delivery_times: List[float] = []
    delivery_answers: List[int] = []
    col = active_collector()

    e = 0
    while e < n:
        res = client.query(Point(float(xs[e]), float(ys[e])), float(times[e]))
        out.retunes += 1
        out.attempts += int(res.read_attempts)
        out.losses += int(res.packet_losses)
        out.latency_sum += float(res.access_latency)
        out.tuning_sum += int(res.total_tuning_time)
        out.last_latency = float(res.access_latency)
        if out.retunes == 1:
            out.first_latency = float(res.access_latency)
            out.first_index_tuning = int(res.index_tuning_time)
            out.first_tuning = int(res.total_tuning_time)
        delivery_times.append(float(times[e]) + float(res.access_latency))
        delivery_answers.append(int(res.region_id))

        nxt = e + 1
        if predictive and boundary_index is not None and e + 1 < n:
            bound = boundary_index.exit_bound(
                res.region_id, float(xs[e]), float(ys[e])
            )
            if bound > 0.0:
                disp = np.hypot(xs[e + 1 :] - xs[e], ys[e + 1 :] - ys[e])
                outside = disp >= bound
                nxt = e + 1 + int(np.argmax(outside)) if outside.any() else n
                if col is not None and nxt > e + 1:
                    # Margin left in the exit disk at the last epoch the
                    # prediction dared to skip.
                    col.observe(
                        "mobility.exit_bound_slack",
                        float(bound - disp[nxt - e - 2]),
                    )
        answers[e:nxt] = res.region_id
        e = nxt

    out.answers = answers
    out.crossings = int(np.count_nonzero(np.diff(answers)))
    out.stale_epochs = _stale_epochs(
        times, epoch_slots, answers, delivery_times, delivery_answers
    )
    span = float(times[-1] - times[0]) if n > 1 else 0.0
    out.distance_units = min(trajectory.speed * span, trajectory.total_length)
    if col is not None:
        col.count("mobility.clients")
        col.count("mobility.epochs", n)
        col.count("mobility.retunes", out.retunes)
        col.count("mobility.skips", out.skips)
        col.count("mobility.crossings", out.crossings)
        col.observe("mobility.skip_ratio", out.skips / n)
    return out
