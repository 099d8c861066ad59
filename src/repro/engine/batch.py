"""The batched query-evaluation engine.

:func:`repro.broadcast.metrics.evaluate_index` used to walk every query
through the paged index and the schedule one Python call at a time.  The
:class:`QueryEngine` evaluates a whole :class:`~repro.workload.QueryWorkload`
in bulk, as a thin resolver over the access walker's batched front door
(:meth:`~repro.broadcast.client.BroadcastClient.run_batch`):

* it resolves the issue times (uniform-random instants of the cycle
  unless given);
* index traversal is batched per index family
  (:func:`repro.engine.trace.batched_trace` — shared packet-prefix
  traversal for the D-tree, vectorized MBR tests for the R*-tree), with
  packet paths only when the walker needs them;
* the walker runs the broadcast timeline (probe → next index segment →
  data bucket) over the whole batch: vectorised over any single-channel
  schedule table (the flat (1, m) program, broadcast disks, a
  multiplexed service's slot), one hop pass over a K>1 plan.

The result is an :class:`~repro.broadcast.client.AccessBatch` of
per-query arrays whose values — and whose
:meth:`~repro.broadcast.client.AccessBatch.summary` reduction to
:class:`~repro.broadcast.metrics.MetricsSummary` — are identical, bit
for bit, to the per-query path (property-tested in
``tests/test_engine.py``).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.obs import active_collector, null_span
from repro.broadcast.client import AccessBatch, BroadcastClient, resolve_issue_times
from repro.broadcast.packets import PagedIndex
from repro.broadcast.params import SystemParameters
from repro.broadcast.plan import BroadcastPlan
from repro.broadcast.schedule import resolve_schedule
from repro.geometry.point import Point
from repro.engine.trace import batched_trace
from repro.workload.generators import QueryWorkload, workload_points

Workload = Union[QueryWorkload, Sequence[Point]]


class QueryEngine:
    """Batched evaluation of query workloads over one paged index +
    broadcast timeline (a schedule or a multi-channel
    :class:`~repro.broadcast.plan.BroadcastPlan`; a K=1 plan is its
    single channel's schedule, bit for bit)."""

    def __init__(self, paged_index: PagedIndex, schedule) -> None:
        self.client = BroadcastClient(paged_index, schedule)
        self.paged_index = paged_index
        #: The walked timeline: the schedule, or the K>1 plan itself.
        self.schedule = self.client.schedule
        self._paths = self.client.needs_paths

    def run(
        self,
        workload: Workload,
        issue_times: Optional[Sequence[float]] = None,
        seed: int = 0,
    ) -> AccessBatch:
        """Evaluate every query of *workload* through the full access
        protocol (probe, index search, data retrieval) in bulk; issue
        times default to uniform-random instants from
        ``random.Random(seed)``."""
        points = workload_points(workload)
        n = len(points)
        times = resolve_issue_times(
            n, self.schedule.cycle_length, issue_times, seed
        )
        col = active_collector()
        span = col.span if col is not None else null_span
        if col is not None:
            col.count("engine.runs")
            col.count("engine.queries", n)
            col.observe("engine.batch_size", n)
        with span("engine.run"):
            with span("engine.trace"):
                trace = batched_trace(self.paged_index, points, paths=self._paths)
            with span("engine.timeline"):
                return self.client.run_batch(points, times, trace=trace)


def evaluate_workload(
    paged_index: PagedIndex,
    region_ids: Sequence[int],
    params: SystemParameters,
    workload: Workload,
    seed: int = 0,
    m: Optional[int] = None,
    schedule=None,
    plan: Optional[BroadcastPlan] = None,
) -> AccessBatch:
    """Batched counterpart of :func:`repro.broadcast.metrics.evaluate_index`.

    Same contract — build a flat (1, m) schedule unless one is provided,
    issue every query at a uniform-random instant — but returns the full
    :class:`~repro.broadcast.client.AccessBatch`; call its
    :meth:`~repro.broadcast.client.AccessBatch.summary` for the
    aggregated :class:`~repro.broadcast.metrics.MetricsSummary`.  Pass
    *plan* to evaluate the workload over a multi-channel
    :class:`~repro.broadcast.plan.BroadcastPlan` instead (a K=1 plan is
    bit-for-bit the single-channel path).
    """
    points = workload_points(workload)
    schedule = resolve_schedule(
        paged_index, region_ids, params, points, m=m, schedule=schedule,
        plan=plan,
    )
    return QueryEngine(paged_index, schedule).run(points, seed=seed)
