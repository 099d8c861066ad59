"""The paper's three evaluation metrics (§1, §5).

* **Access latency** — query issue to data received, normalized to the
  optimal (no-index) latency: half the time to broadcast the database.
* **Tuning time** — packet accesses while active; Figure 12 counts only the
  index-search step, which is what :class:`MetricsSummary` reports.
* **Indexing efficiency** — tuning time saved against the non-indexing
  scheme, per packet of access-latency overhead.  Larger is better.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.geometry.point import Point
from repro.broadcast.packets import PagedIndex
from repro.broadcast.params import SystemParameters


def no_index_latency(n_regions: int, params: SystemParameters) -> float:
    """Optimal expected access latency (packets): half the data-only cycle
    plus the bucket download itself."""
    bucket = params.data_packets_per_instance
    return n_regions * bucket / 2.0 + bucket


def no_index_tuning_time(n_regions: int, params: SystemParameters) -> float:
    """Expected tuning time (packets) without any index: the client must
    examine every bucket until its own arrives — half the data broadcast on
    average, plus the download."""
    bucket = params.data_packets_per_instance
    return n_regions * bucket / 2.0 + bucket


def indexing_efficiency(
    tuning_time: float,
    access_latency: float,
    n_regions: int,
    params: SystemParameters,
) -> float:
    """Tuning time saved per packet of latency overhead (paper §1).

    ``tuning_time`` here is the client's *total* tuning time (probe + index
    search + download) so the saved amount is comparable with the no-index
    scheme; ``access_latency`` is in packets, un-normalized.
    """
    saved = no_index_tuning_time(n_regions, params) - tuning_time
    overhead = access_latency - no_index_latency(n_regions, params)
    if overhead <= 0:
        # An index cannot make latency better than optimal; guard against
        # simulation noise by flooring the overhead at one packet.
        overhead = 1.0
    return saved / overhead


class MetricsSummary:
    """Aggregated metrics of one (index, dataset, packet capacity) cell."""

    __slots__ = (
        "index_packets",
        "m",
        "cycle_length",
        "mean_access_latency",
        "normalized_latency",
        "mean_index_tuning",
        "mean_total_tuning",
        "efficiency",
        "normalized_index_size",
        "queries",
    )

    def __init__(self, **kwargs: float) -> None:
        for name in self.__slots__:
            try:
                setattr(self, name, kwargs.pop(name))
            except KeyError:
                raise TypeError(f"missing metric field {name!r}") from None
        if kwargs:
            raise TypeError(f"unexpected metric fields: {sorted(kwargs)}")

    def __repr__(self) -> str:
        return (
            f"MetricsSummary(lat={self.normalized_latency:.3f}x, "
            f"tuning={self.mean_index_tuning:.2f}p, "
            f"eff={self.efficiency:.2f}, m={self.m})"
        )


def metrics_summary(
    access_latency: Sequence[float],
    index_tuning: Sequence[int],
    total_tuning: Sequence[int],
    index_packets: int,
    schedule,
    n_regions: int,
    params: SystemParameters,
) -> MetricsSummary:
    """Reduce per-query values to the metrics of one cell.

    The one reduction behind :meth:`repro.broadcast.client.AccessBatch.summary`
    and the per-query oracle in ``tests/oracles.py``.  The means are
    plain left-to-right Python sums in query order, so both paths
    produce bit-identical summaries from equal per-query values.
    """
    n = len(access_latency)
    mean_latency = sum(access_latency) / n
    mean_total_tuning = sum(total_tuning) / n
    data_packets = n_regions * params.data_packets_per_instance
    return MetricsSummary(
        index_packets=index_packets,
        m=schedule.m,
        cycle_length=schedule.cycle_length,
        mean_access_latency=mean_latency,
        normalized_latency=mean_latency / no_index_latency(n_regions, params),
        mean_index_tuning=sum(index_tuning) / n,
        mean_total_tuning=mean_total_tuning,
        efficiency=indexing_efficiency(
            mean_total_tuning, mean_latency, n_regions, params
        ),
        normalized_index_size=index_packets / data_packets,
        queries=n,
    )


def evaluate_index(
    paged_index: PagedIndex,
    region_ids: Sequence[int],
    params: SystemParameters,
    query_points: List[Point],
    seed: int = 0,
    m: Optional[int] = None,
    schedule=None,
) -> MetricsSummary:
    """Run the query workload against a broadcast of the paged index.

    By default a flat (1, m) :class:`BroadcastSchedule` is built; pass
    *schedule* to measure an alternative broadcast program (e.g. the
    skewed broadcast-disks schedule) over the same index.

    Evaluation is delegated to the batched
    :class:`~repro.engine.QueryEngine`, which produces per-query results
    identical to a loop of :meth:`~repro.broadcast.client.BroadcastClient.query`
    (property-tested against the per-query oracle in ``tests/oracles.py``),
    several times faster.
    """
    from repro.engine.batch import evaluate_workload

    batch = evaluate_workload(
        paged_index,
        region_ids,
        params,
        query_points,
        seed=seed,
        m=m,
        schedule=schedule,
    )
    return batch.summary(region_ids, params)

