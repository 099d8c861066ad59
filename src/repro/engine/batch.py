"""The batched query-evaluation engine.

:func:`repro.broadcast.metrics.evaluate_index` used to walk every query
through the paged index and the schedule one Python call at a time.  The
:class:`QueryEngine` evaluates a whole :class:`~repro.workload.QueryWorkload`
in bulk:

* index traversal is batched per index family
  (:func:`repro.engine.trace.batched_trace` — shared packet-prefix
  traversal for the D-tree, vectorized MBR tests for the R*-tree);
* the broadcast timeline (probe → next index segment → data bucket) is
  numpy-vectorized against a :class:`BroadcastSchedule` through its
  array methods, with the per-bucket arrival offsets memoized into a
  dense array once per schedule;
* duck-typed schedules (e.g. the skewed broadcast-disks program) fall
  back to their own per-query timeline methods, so the engine accepts
  anything the per-query path accepted.

The result is a :class:`BatchResult` carrying per-query latency/tuning
arrays whose values — and whose :meth:`BatchResult.summary` reduction to
:class:`~repro.broadcast.metrics.MetricsSummary` — are identical, bit for
bit, to the legacy per-query path (property-tested in
``tests/test_engine.py``).
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import BroadcastError
from repro.obs import active_collector, null_span
from repro.broadcast.metrics import MetricsSummary, metrics_summary
from repro.broadcast.client import BroadcastClient
from repro.broadcast.packets import PagedIndex
from repro.broadcast.params import SystemParameters
from repro.broadcast.plan import BroadcastPlan, single_channel_view
from repro.broadcast.schedule import BroadcastSchedule, resolve_schedule
from repro.geometry.point import Point
from repro.engine.trace import batched_trace
from repro.workload.generators import QueryWorkload, workload_points

Workload = Union[QueryWorkload, Sequence[Point]]


def _uniform_issue_times(rng: random.Random, n: int, length: float) -> np.ndarray:
    """*n* draws of ``rng.uniform(0, length)`` as one float64 array.

    ``uniform(0, b)`` is ``0.0 + (b - 0.0) * random()``, which for the
    positive cycle length reduces to ``b * random()`` under IEEE-754, so
    scaling a raw ``random()`` array is bit-identical to the per-query
    draws — and consumes the rng stream identically (one ``random()``
    per query).
    """
    draws = np.fromiter((rng.random() for _ in range(n)), np.float64, count=n)
    return draws * float(length)


class BatchResult:
    """Per-query outcomes of one batched workload evaluation."""

    __slots__ = (
        "issue_times",
        "region_ids",
        "access_latency",
        "index_tuning_time",
        "total_tuning_time",
        "index_packet_count",
        "schedule",
    )

    def __init__(
        self,
        issue_times: np.ndarray,
        region_ids: np.ndarray,
        access_latency: np.ndarray,
        index_tuning_time: np.ndarray,
        total_tuning_time: np.ndarray,
        index_packet_count: int,
        schedule,
    ) -> None:
        #: Absolute packet position each query was issued at.
        self.issue_times = issue_times
        #: Data region answering each query.
        self.region_ids = region_ids
        #: Packets elapsed between query issue and end of data download.
        self.access_latency = access_latency
        #: Packet accesses during the index-search step only (Figure 12).
        self.index_tuning_time = index_tuning_time
        #: Index search + initial probe + data download.
        self.total_tuning_time = total_tuning_time
        self.index_packet_count = index_packet_count
        self.schedule = schedule

    def __len__(self) -> int:
        return len(self.region_ids)

    def __repr__(self) -> str:
        return (
            f"BatchResult(n={len(self)}, "
            f"mean_latency={float(self.access_latency.mean()):.1f}p, "
            f"mean_index_tuning={float(self.index_tuning_time.mean()):.2f}p)"
        )

    def summary(
        self, region_ids: Sequence[int], params: SystemParameters
    ) -> MetricsSummary:
        """Reduce to the aggregated metrics of one experiment cell.

        Matches the per-query reduction exactly: both go through
        :func:`~repro.broadcast.metrics.metrics_summary`, whose means are
        plain left-to-right Python sums over the per-query values.
        """
        col = active_collector()
        with col.span("engine.summary") if col is not None else null_span(""):
            return metrics_summary(
                self.access_latency.tolist(),
                self.index_tuning_time.tolist(),
                self.total_tuning_time.tolist(),
                self.index_packet_count,
                self.schedule,
                len(region_ids),
                params,
            )


class QueryEngine:
    """Batched evaluation of query workloads over one paged index +
    broadcast timeline (a schedule or a multi-channel
    :class:`~repro.broadcast.plan.BroadcastPlan`).

    A K=1 plan is unwrapped to its single channel's schedule, so it runs
    the vectorized single-channel path bit for bit; a K>1 plan runs
    through the access walker's batched front door
    (:meth:`~repro.broadcast.client.BroadcastClient.run_batch`): the
    compiled tracers emit each query's packet path and one vectorised
    pass over the plan's channels applies the hop effect.
    """

    def __init__(self, paged_index: PagedIndex, schedule) -> None:
        schedule = single_channel_view(schedule)
        self._hopping = (
            BroadcastClient(paged_index, schedule)
            if isinstance(schedule, BroadcastPlan)
            else None
        )
        if len(paged_index.packets) != schedule.index_packet_count:
            raise BroadcastError(
                f"schedule built for {schedule.index_packet_count} index "
                f"packets but the paged index has {len(paged_index.packets)}"
            )
        self.paged_index = paged_index
        self.schedule = schedule
        # The vectorized timeline assumes the flat (1, m) layout of
        # BroadcastSchedule; duck-typed schedules (broadcast disks, ...)
        # keep their own per-query timeline methods.
        self._vectorized = (
            type(schedule) is BroadcastSchedule
            and schedule.timeline_arrays()[1] is not None
        )

    # -- evaluation ---------------------------------------------------------

    def run(
        self,
        workload: Workload,
        issue_times: Optional[Sequence[float]] = None,
        seed: int = 0,
    ) -> BatchResult:
        """Evaluate every query of *workload* through the full access
        protocol (probe, index search, data retrieval) in bulk."""
        points = workload_points(workload)
        n = len(points)
        if n == 0:
            raise BroadcastError("need at least one query point")
        if issue_times is None:
            times = _uniform_issue_times(
                random.Random(seed), n, self.schedule.cycle_length
            )
        elif len(issue_times) != n:
            raise BroadcastError(
                f"{len(issue_times)} issue times for {n} query points"
            )
        else:
            times = np.asarray(issue_times, np.float64)

        col = active_collector()
        span = col.span if col is not None else null_span
        if col is not None:
            col.count("engine.runs")
            col.count("engine.queries", n)
            col.observe("engine.batch_size", n)

        if self._hopping is not None:
            with span("engine.run"):
                if col is not None:
                    col.count("engine.timeline.multichannel")
                return self._run_plan(points, times)

        with span("engine.run"):
            with span("engine.trace"):
                traces = batched_trace(self.paged_index, points)

            # Step 1 + 3 of the access protocol, vectorized when the
            # schedule is the flat (1, m) program.
            with span("engine.timeline"):
                if self._vectorized:
                    segment_starts = self.schedule.next_index_starts(times)
                    index_done = segment_starts + traces.last_packet + 1
                    bucket_starts = self.schedule.next_bucket_arrivals(
                        traces.region_ids, index_done
                    )
                else:
                    schedule = self.schedule
                    segment_starts = np.fromiter(
                        (schedule.next_index_start(t) for t in times.tolist()),
                        np.int64,
                        count=n,
                    )
                    index_done = segment_starts + traces.last_packet + 1
                    bucket_starts = np.fromiter(
                        (
                            schedule.next_bucket_arrival(region, float(done))
                            for region, done in zip(
                                traces.region_ids.tolist(), index_done.tolist()
                            )
                        ),
                        np.int64,
                        count=n,
                    )

            bucket_packets = self.schedule.bucket_packets
            bucket_ends = bucket_starts + bucket_packets
            access_latency = bucket_ends.astype(np.float64) - times
            total_tuning = 1 + traces.tuning_time + bucket_packets
            if col is not None:
                col.count(
                    "engine.timeline.vectorized" if self._vectorized
                    else "engine.timeline.fallback"
                )
                col.count("engine.probes", n)
                col.count("engine.packets.index", int(traces.tuning_time.sum()))
                col.count("engine.packets.data", n * bucket_packets)
                col.count(
                    "engine.doze_slots",
                    float((access_latency - total_tuning).sum()),
                )
            return BatchResult(
                issue_times=times,
                region_ids=traces.region_ids,
                access_latency=access_latency,
                index_tuning_time=traces.tuning_time,
                total_tuning_time=total_tuning,
                index_packet_count=len(self.paged_index.packets),
                schedule=self.schedule,
            )

    def _run_plan(self, points: Sequence[Point], times: np.ndarray) -> BatchResult:
        """Multi-channel (K>1) evaluation through the walker's batched
        front door (:meth:`BroadcastClient.run_batch`: compiled packet
        paths, then one vectorised hop pass).  The schedule attribute is
        the plan itself, so :meth:`BatchResult.summary` reports the
        plan's headline m and cycle length."""
        batch = self._hopping.run_batch(points, times)
        return BatchResult(
            issue_times=times,
            region_ids=batch.region_ids,
            access_latency=batch.access_latency,
            index_tuning_time=batch.index_tuning_time,
            total_tuning_time=batch.total_tuning_time,
            index_packet_count=len(self.paged_index.packets),
            schedule=self.schedule,
        )


def evaluate_workload(
    paged_index: PagedIndex,
    region_ids: Sequence[int],
    params: SystemParameters,
    workload: Workload,
    seed: int = 0,
    m: Optional[int] = None,
    schedule=None,
    plan: Optional[BroadcastPlan] = None,
) -> BatchResult:
    """Batched counterpart of :func:`repro.broadcast.metrics.evaluate_index`.

    Same contract — build a flat (1, m) schedule unless one is provided,
    issue every query at a uniform-random instant — but returns the full
    :class:`BatchResult`; call :meth:`BatchResult.summary` for the
    aggregated :class:`MetricsSummary`.  Pass *plan* to evaluate the
    workload over a multi-channel
    :class:`~repro.broadcast.plan.BroadcastPlan` instead (a K=1 plan is
    bit-for-bit the single-channel path).
    """
    points = workload_points(workload)
    schedule = resolve_schedule(
        paged_index, region_ids, params, points, m=m, schedule=schedule,
        plan=plan,
    )
    engine = QueryEngine(paged_index, schedule)
    issue_times = _uniform_issue_times(
        random.Random(seed), len(points), schedule.cycle_length
    )
    return engine.run(points, issue_times=issue_times)
