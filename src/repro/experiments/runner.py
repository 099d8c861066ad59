"""Building, paging and measuring one (dataset, index, capacity) cell.

Index construction goes through the :class:`~repro.engine.AirIndex`
protocol and :data:`~repro.engine.INDEX_REGISTRY` — the runner has no
per-kind special cases, so a fifth index family registered via
:func:`repro.engine.register_index` is swept by every figure
automatically.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.broadcast.metrics import MetricsSummary, evaluate_index
from repro.broadcast.packets import PagedIndex
from repro.broadcast.params import SystemParameters
from repro.datasets.catalog import Dataset
from repro.engine import available_index_kinds, index_family
from repro.tessellation.subdivision import Subdivision
from repro.experiments.config import ExperimentConfig

#: Canonical index order used by every figure (registry order).
INDEX_KINDS = available_index_kinds()


class CellResult:
    """Metrics of one (dataset, index kind, packet capacity) cell."""

    __slots__ = ("dataset", "index_kind", "packet_capacity", "metrics")

    def __init__(
        self,
        dataset: str,
        index_kind: str,
        packet_capacity: int,
        metrics: MetricsSummary,
    ) -> None:
        self.dataset = dataset
        self.index_kind = index_kind
        self.packet_capacity = packet_capacity
        self.metrics = metrics

    def __repr__(self) -> str:
        return (
            f"CellResult({self.dataset}, {self.index_kind}, "
            f"{self.packet_capacity}B, {self.metrics!r})"
        )


def _paged_cell(
    dataset: Dataset,
    index_kind: str,
    packet_capacity: int,
    seed: int,
    logical_index=None,
) -> Tuple[Subdivision, SystemParameters, PagedIndex]:
    """The cell's subdivision, packet parameters and paged index, built
    from *logical_index* when one is given."""
    family = index_family(index_kind)
    params = family.parameters(packet_capacity)
    if logical_index is None:
        logical_index = family.build(dataset.subdivision, seed=seed)
    return dataset.subdivision, params, logical_index.page(params)


def _cell_points(subdivision: Subdivision, queries: int, seed: int):
    """The cell's *queries* uniform query points, drawn from *seed*."""
    rng = random.Random(seed)
    return [subdivision.random_point(rng) for _ in range(queries)]


def run_cell(
    dataset: Dataset,
    index_kind: str,
    packet_capacity: int,
    queries: int,
    seed: int,
    logical_index=None,
) -> CellResult:
    """Build (or reuse), page, schedule and measure one cell."""
    subdivision, params, paged = _paged_cell(
        dataset, index_kind, packet_capacity, seed, logical_index
    )
    metrics = evaluate_index(
        paged,
        subdivision.region_ids,
        params,
        _cell_points(subdivision, queries, seed),
        seed=seed,
    )
    return CellResult(dataset.name, index_kind, packet_capacity, metrics)


def run_faulty_cell(
    dataset: Dataset,
    index_kind: str,
    packet_capacity: int,
    queries: int,
    seed: int,
    *,
    error_rate: float = 0.05,
    error_model: str = "bernoulli",
    mean_burst: float = 4.0,
    policy: str = "retry-next-segment",
    cache_packets: int = 0,
    logical_index=None,
):
    """Faulty-channel counterpart of :func:`run_cell`.

    Builds (or reuses) the cell's logical index and runs the workload
    through :func:`repro.simulation.simulate_workload` instead of the
    error-free engine.  Returns the cell's
    :class:`~repro.simulation.SimulationReport`.
    """
    from repro.simulation import simulate_workload

    subdivision, params, paged = _paged_cell(
        dataset, index_kind, packet_capacity, seed, logical_index
    )
    return simulate_workload(
        paged,
        subdivision.region_ids,
        params,
        _cell_points(subdivision, queries, seed),
        error_rate=error_rate,
        error_model=error_model,
        mean_burst=mean_burst,
        policy=policy,
        cache_packets=cache_packets,
        seed=seed,
        index_kind=index_kind,
    )


def run_multichannel_cell(
    dataset: Dataset,
    index_kind: str,
    packet_capacity: int,
    queries: int,
    seed: int,
    *,
    channels: int = 1,
    allocation: str = "round-robin",
    index_placement: str = "replicated",
    hop_cost: float = 1.0,
    m=None,
    logical_index=None,
):
    """Multi-channel counterpart of :func:`run_cell`.

    Builds the cell's paged index, assembles a
    :class:`~repro.broadcast.plan.BroadcastPlan` (feeding region
    centroids to location-aware allocation strategies) and evaluates the
    workload through the batched engine.  Returns ``(plan, AccessBatch)``;
    with ``channels=1`` the result is bit-for-bit the single-channel
    :func:`run_cell` workload.
    """
    from repro.broadcast.plan import BroadcastPlan
    from repro.engine import evaluate_workload

    subdivision, params, paged = _paged_cell(
        dataset, index_kind, packet_capacity, seed, logical_index
    )

    centroids = {}
    for region in subdivision.regions:
        c = region.polygon.centroid
        centroids[region.region_id] = (c.x, c.y)
    plan = BroadcastPlan(
        index_packet_count=len(paged.packets),
        region_ids=subdivision.region_ids,
        params=params,
        channels=channels,
        allocation=allocation,
        index_placement=index_placement,
        m=m,
        hop_cost=hop_cost,
        centroids=centroids,
    )
    points = _cell_points(subdivision, queries, seed)
    result = evaluate_workload(
        paged, subdivision.region_ids, params, points, seed=seed, plan=plan
    )
    return plan, result


def run_mobility_cell(
    dataset: Dataset,
    index_kind: str,
    packet_capacity: int,
    clients: int,
    seed: int,
    *,
    workload: str = "random-waypoint",
    waypoints: int = 3,
    speed_kmh: Tuple[float, float] = (30.0, 90.0),
    predictive: bool = True,
    epoch_slots=None,
    max_epochs: int = 32,
    error_rate: float = 0.0,
    error_model: str = "bernoulli",
    mean_burst: float = 4.0,
    policy: str = "retry-next-segment",
    cache_packets: int = 0,
    logical_index=None,
):
    """Moving-client counterpart of :func:`run_cell`.

    Generates *clients* trajectories (``workload`` is
    ``"random-waypoint"`` or ``"boundary-hugging"``, speeds uniform over
    the ``speed_kmh`` range), evaluates them with predictive or naive
    continuous-query clients, and returns the folded
    :class:`~repro.mobility.report.MobilityReport`.
    """
    from repro.broadcast.schedule import BroadcastSchedule
    from repro.mobility import (
        MobilityReport,
        RegionBoundaryIndex,
        evaluate_trajectory_workload,
    )
    from repro.mobility.report import channel_label
    from repro.mobility.workloads import trajectory_workload

    subdivision, params, paged = _paged_cell(
        dataset, index_kind, packet_capacity, seed, logical_index
    )
    schedule = BroadcastSchedule(
        index_packet_count=len(paged.packets),
        region_ids=list(subdivision.region_ids),
        params=params,
    )
    gen = trajectory_workload(
        workload,
        subdivision,
        schedule.cycle_length,
        packet_capacity,
        waypoints=waypoints,
        speed_kmh=speed_kmh,
        seed=seed,
    )
    batch = evaluate_trajectory_workload(
        paged,
        list(subdivision.region_ids),
        params,
        gen.chunk(0, clients),
        boundary_index=RegionBoundaryIndex(subdivision) if predictive else None,
        predictive=predictive,
        epoch_slots=epoch_slots,
        max_epochs=max_epochs,
        cache_packets=cache_packets,
        error_rate=error_rate,
        error_model=error_model,
        mean_burst=mean_burst,
        policy=policy,
        seed=seed,
        schedule=schedule,
    )
    report = MobilityReport(
        index_kind=index_kind,
        client="predictive" if predictive else "naive",
        error_model=channel_label(error_model, error_rate, mean_burst),
    )
    report.observe_chunk(0, batch)
    return report


class ExperimentMatrix:
    """All cells of one campaign, with logical indexes built once per
    (dataset, kind) and reused across the capacity sweep."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self._logical: Dict[Tuple[str, str], object] = {}
        self._cells: Dict[Tuple[str, str, int], CellResult] = {}

    def cell(
        self, dataset_name: str, index_kind: str, packet_capacity: int
    ) -> CellResult:
        key = (dataset_name, index_kind, packet_capacity)
        if key not in self._cells:
            dataset = self.config.datasets[dataset_name]
            lkey = (dataset_name, index_kind)
            if lkey not in self._logical:
                self._logical[lkey] = index_family(index_kind).build(
                    dataset.subdivision, seed=self.config.seed
                )
            self._cells[key] = run_cell(
                dataset,
                index_kind,
                packet_capacity,
                queries=self.config.queries,
                seed=self.config.seed,
                logical_index=self._logical[lkey],
            )
        return self._cells[key]

    def sweep(
        self, dataset_name: str, index_kind: str
    ) -> List[CellResult]:
        """The full capacity sweep of one (dataset, index) pair."""
        return [
            self.cell(dataset_name, index_kind, cap)
            for cap in self.config.packet_capacities
        ]
