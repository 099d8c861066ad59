"""Extension experiments E5-E9 (beyond the paper's evaluation).

* **E5 — divisions vs hyperplanes**: the D-tree against the kd-style
  hyperplane-split tree, quantifying the index inflation that region
  duplication causes (the design argument of §4.1).
* **E6 — flat vs skewed broadcast**: the paper's flat broadcast against
  broadcast disks under Zipf query skew.
* **E7 — client cache warm-up**: how a small LRU packet cache erodes the
  index-search tuning time over a query session.
* **E9 — faulty channel**: recovery policies under packet loss — tail
  latency/tuning percentiles per policy and error rate.
* **E10 — multi-channel broadcast**: K parallel channels vs the (1, m)
  baseline — access latency vs channel count per allocation strategy and
  index placement, at identical tuning time.
* **E11 — mobility**: continuous location-dependent queries for moving
  clients — the predictive scope-exit client vs the naive
  re-tune-every-epoch baseline, per trajectory model.
* **E12 — update churn**: region updates between broadcast cycles — per
  index family, the cost of incremental maintenance vs a from-scratch
  rebuild, plus what the versioned cycles cost clients (wasted tuning,
  retries) while every answer stays exact for its stamped version.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.broadcast.client import BroadcastClient
from repro.broadcast.disks import (
    SkewedBroadcastSchedule,
    region_weights_from_workload,
)
from repro.broadcast.metrics import evaluate_index
from repro.broadcast.params import SystemParameters
from repro.broadcast.schedule import BroadcastSchedule
from repro.core.dtree import DTree
from repro.core.paging import PagedDTree
from repro.datasets.catalog import Dataset, uniform_dataset
from repro.pointloc.kdsplit import KDSplitTree, PagedKDSplitTree
from repro.workload import zipf_region_workload


def extension_divisions_vs_hyperplanes(
    dataset: Optional[Dataset] = None,
    capacities: Sequence[int] = (64, 256, 1024),
    queries: int = 500,
    seed: int = 7,
) -> Dict[str, Dict[int, Dict[str, float]]]:
    """E5: D-tree vs kd-split tree (index packets / tuning / latency)."""
    dataset = dataset or uniform_dataset(n=200, seed=42)
    sub = dataset.subdivision
    rng = random.Random(seed)
    points = [sub.random_point(rng) for _ in range(queries)]
    dtree = DTree.build(sub)
    kdtree = KDSplitTree(sub, leaf_capacity=4)
    out: Dict[str, Dict[int, Dict[str, float]]] = {"dtree": {}, "kdsplit": {}}
    for cap in capacities:
        dt_params = SystemParameters.for_index("dtree", cap)
        kd_params = SystemParameters.for_index("trap", cap)
        cells = {
            "dtree": (PagedDTree(dtree, dt_params), dt_params),
            "kdsplit": (PagedKDSplitTree(kdtree, kd_params), kd_params),
        }
        for label, (paged, params) in cells.items():
            metrics = evaluate_index(
                paged, sub.region_ids, params, points, seed=seed
            )
            out[label][cap] = {
                "index_packets": float(metrics.index_packets),
                "tuning": metrics.mean_index_tuning,
                "latency": metrics.normalized_latency,
            }
    return out


def extension_flat_vs_skewed_broadcast(
    dataset: Optional[Dataset] = None,
    packet_capacity: int = 512,
    theta: float = 1.2,
    queries: int = 600,
    seed: int = 7,
) -> Dict[str, float]:
    """E6: mean access latency (packets) of flat vs broadcast-disks airing
    for a Zipf-skewed workload over the same D-tree index."""
    dataset = dataset or uniform_dataset(n=200, seed=42)
    sub = dataset.subdivision
    params = SystemParameters.for_index("dtree", packet_capacity)
    paged = PagedDTree(DTree.build(sub), params)
    workload = zipf_region_workload(sub, queries, theta=theta, seed=seed)

    flat = evaluate_index(
        paged, sub.region_ids, params, workload.points, seed=seed
    )
    weights = region_weights_from_workload(sub, workload.points)
    skewed_schedule = SkewedBroadcastSchedule(
        len(paged.packets), weights, params, max_frequency=6
    )
    skewed = evaluate_index(
        paged,
        sub.region_ids,
        params,
        workload.points,
        seed=seed,
        schedule=skewed_schedule,
    )
    return {
        "flat_latency": flat.mean_access_latency,
        "skewed_latency": skewed.mean_access_latency,
        "replication_factor": skewed_schedule.replication_factor,
        "speedup": flat.mean_access_latency / skewed.mean_access_latency,
    }


def extension_imbalanced_dtree(
    dataset: Optional[Dataset] = None,
    packet_capacity: int = 128,
    theta: float = 1.4,
    queries: int = 600,
    seed: int = 7,
) -> Dict[str, float]:
    """E8: balanced vs access-weighted D-tree under Zipf query skew.

    The imbalanced build (cf. paper ref [6]) halves probability mass
    instead of region count at each split, shortening hot regions' paths.
    Reports mean index tuning time for both trees on the same workload.
    """
    import collections

    from repro.core.imbalanced import build_imbalanced_dtree, expected_depth

    dataset = dataset or uniform_dataset(n=200, seed=42)
    sub = dataset.subdivision
    workload = zipf_region_workload(sub, queries, theta=theta, seed=seed)
    counts = collections.Counter(sub.locate(p) for p in workload.points)
    weights = {rid: float(counts.get(rid, 0)) + 0.25 for rid in sub.region_ids}

    params = SystemParameters.for_index("dtree", packet_capacity)
    balanced_tree = DTree.build(sub)
    adapted_tree = build_imbalanced_dtree(sub, weights)
    balanced = evaluate_index(
        PagedDTree(balanced_tree, params), sub.region_ids, params,
        workload.points, seed=seed,
    )
    adapted = evaluate_index(
        PagedDTree(adapted_tree, params), sub.region_ids, params,
        workload.points, seed=seed,
    )
    return {
        "balanced_tuning": balanced.mean_index_tuning,
        "imbalanced_tuning": adapted.mean_index_tuning,
        "balanced_expected_depth": expected_depth(balanced_tree, weights),
        "imbalanced_expected_depth": expected_depth(adapted_tree, weights),
    }


def extension_cache_warmup(
    dataset: Optional[Dataset] = None,
    packet_capacity: int = 256,
    cache_packets: int = 16,
    session_length: int = 200,
    seed: int = 7,
) -> Dict[str, List[float]]:
    """E7: per-query index tuning over a session, cold vs cached client.

    Returns the running mean tuning time in 20-query windows.
    """
    dataset = dataset or uniform_dataset(n=200, seed=42)
    sub = dataset.subdivision
    params = SystemParameters.for_index("dtree", packet_capacity)
    paged = PagedDTree(DTree.build(sub), params)
    schedule = BroadcastSchedule(
        index_packet_count=len(paged.packets),
        region_ids=sub.region_ids,
        params=params,
    )
    rng = random.Random(seed)
    points = [sub.random_point(rng) for _ in range(session_length)]
    times = [rng.uniform(0, schedule.cycle_length) for _ in points]

    cold = BroadcastClient(paged, schedule)
    cached = BroadcastClient(paged, schedule, cache_packets=cache_packets)

    cold_series = cold.run_batch(points, times).index_tuning_time.tolist()
    cached_series = cached.run_batch(points, times).index_tuning_time.tolist()

    def windows(series: List[int], width: int = 20) -> List[float]:
        return [
            sum(series[i : i + width]) / len(series[i : i + width])
            for i in range(0, len(series), width)
        ]

    return {"cold": windows(cold_series), "cached": windows(cached_series)}


def extension_faulty_channel(
    dataset: Optional[Dataset] = None,
    packet_capacity: int = 256,
    index_kind: str = "dtree",
    error_rates: Sequence[float] = (0.01, 0.05, 0.1),
    error_model: str = "bernoulli",
    queries: int = 400,
    seed: int = 7,
) -> Dict[str, Dict[float, Dict[str, float]]]:
    """E9: recovery policies under packet loss.

    Sweeps every registered recovery policy over *error_rates* on one
    index family and reports each cell's latency/tuning tail summary
    (the p50/p95/p99 dict of
    :meth:`repro.simulation.SimulationReport.summary`).
    """
    from repro.experiments.runner import run_faulty_cell
    from repro.simulation import RECOVERY_POLICIES

    dataset = dataset or uniform_dataset(n=200, seed=42)
    out: Dict[str, Dict[float, Dict[str, float]]] = {}
    for policy in RECOVERY_POLICIES:
        out[policy] = {}
        for rate in error_rates:
            report = run_faulty_cell(
                dataset,
                index_kind,
                packet_capacity,
                queries=queries,
                seed=seed,
                error_rate=rate,
                error_model=error_model,
                policy=policy,
            )
            out[policy][rate] = report.summary()
    return out


def extension_multichannel(
    dataset: Optional[Dataset] = None,
    packet_capacity: int = 256,
    index_kind: str = "dtree",
    channel_counts: Sequence[int] = (1, 2, 4),
    queries: int = 400,
    hop_cost: float = 1.0,
    seed: int = 7,
) -> Dict[str, Dict[int, Dict[str, float]]]:
    """E10: K-channel broadcast plans vs the (1, m) baseline.

    Sweeps every registered allocation strategy and both index
    placements over *channel_counts* on one index family, reporting each
    cell's mean/p50 access latency, mean tuning time and mean hop count.
    Tuning time is invariant in K (hops cost latency, not tuning), so
    the latency column is the whole story.
    """
    import numpy as np

    from repro.broadcast.plan import INDEX_PLACEMENTS, available_allocations
    from repro.experiments.runner import run_multichannel_cell

    dataset = dataset or uniform_dataset(n=200, seed=42)
    out: Dict[str, Dict[int, Dict[str, float]]] = {}
    for allocation in available_allocations():
        for placement in INDEX_PLACEMENTS:
            label = f"{allocation}/{placement}"
            out[label] = {}
            for channels in channel_counts:
                plan, result = run_multichannel_cell(
                    dataset,
                    index_kind,
                    packet_capacity,
                    queries=queries,
                    seed=seed,
                    channels=channels,
                    allocation=allocation,
                    index_placement=placement,
                    hop_cost=hop_cost,
                )
                latency = np.asarray(result.access_latency, float)
                out[label][channels] = {
                    "latency_mean": float(latency.mean()),
                    "latency_p50": float(np.percentile(latency, 50)),
                    "tuning_mean": float(
                        np.asarray(result.total_tuning_time, float).mean()
                    ),
                    "cycle_length": float(plan.cycle_length),
                    "m": float(plan.m),
                }
    return out


def extension_mobility(
    dataset: Optional[Dataset] = None,
    packet_capacity: int = 256,
    index_kind: str = "dtree",
    workloads: Sequence[str] = ("random-waypoint", "boundary-hugging"),
    clients: int = 200,
    seed: int = 7,
) -> Dict[str, Dict[str, object]]:
    """E11: continuous queries for moving clients.

    Runs the predictive scope-exit client and the naive
    re-tune-every-epoch baseline over each trajectory model, reporting
    both :meth:`~repro.mobility.report.MobilityReport.summary` rows plus
    the re-tunes/km savings factor.  Both clients produce identical
    per-epoch answers (prediction changes *when* we tune, never *what*
    we answer), so the savings factor comes at zero answer error.
    """
    from repro.experiments.runner import run_mobility_cell

    dataset = dataset or uniform_dataset(n=200, seed=42)
    out: Dict[str, Dict[str, object]] = {}
    for workload in workloads:
        cells = {
            label: run_mobility_cell(
                dataset,
                index_kind,
                packet_capacity,
                clients=clients,
                seed=seed,
                workload=workload,
                predictive=predictive,
            ).summary()
            for label, predictive in (
                ("predictive", True),
                ("naive", False),
            )
        }
        cells["savings_x"] = (
            cells["naive"]["retunes_per_km"]
            / cells["predictive"]["retunes_per_km"]
        )
        out[workload] = cells
    return out


def run_dynamic_cell(
    dataset: Dataset,
    index_kind: str,
    packet_capacity: int = 256,
    *,
    cycles: int = 4,
    moves_per_cycle: int = 1,
    queries_per_cycle: int = 40,
    seed: int = 7,
    staleness_budget: float = 0.5,
) -> Dict[str, float]:
    """One E12 cell: churn the dataset for *cycles* epochs, measure
    maintenance cost and client-side skew overhead.

    Each epoch moves *moves_per_cycle* Voronoi sites (their cells and
    their neighbours' reshape), applies the resulting batch through the
    family's maintainer, and times that against a from-scratch logical
    rebuild of the same new subdivision.  Every client answer is checked
    against the brute-force oracle of the subdivision at the answer's
    stamped version, so the timings come with exactness guaranteed.
    """
    import time as _time

    from repro.dynamic import (
        DynamicBroadcastClient,
        DynamicBroadcastServer,
        churn_sites,
        diff_subdivisions,
        sites_subdivision,
    )

    sites = {i: p for i, p in enumerate(dataset.points)}
    area = dataset.subdivision.service_area
    payload = dataset.payload_size
    # Local moves (2% of the service width per step) keep each cycle's
    # churn to the moved cells' Voronoi neighbourhoods — the low-churn
    # regime the incremental maintainers are built for.
    move_scale = 0.02 * (area.max_x - area.min_x)
    subdivision = sites_subdivision(sites, area, payload_size=payload)
    kwargs = {"staleness_budget": staleness_budget} if index_kind == "dtree" else {}
    server = DynamicBroadcastServer(
        index_kind,
        subdivision,
        packet_capacity=packet_capacity,
        seed=seed,
        **kwargs,
    )
    client = DynamicBroadcastClient(server)
    rng = random.Random(seed)

    maintain_s = 0.0
    rebuild_s = 0.0
    churned_regions = 0
    wasted = 0
    attempts = 0
    queries = 0
    for _ in range(cycles):
        sites = churn_sites(
            sites, area, n_move=moves_per_cycle, move_scale=move_scale, rng=rng
        )
        new_subdivision = sites_subdivision(sites, area, payload_size=payload)
        batch = diff_subdivisions(
            server.subdivision,
            new_subdivision,
            tolerance=1e-9 * (area.max_x - area.min_x),
        )
        churned_regions += len(batch)
        start = _time.perf_counter()
        server.apply_updates(new_subdivision, batch)
        maintain_s += _time.perf_counter() - start
        start = _time.perf_counter()
        server.maintainer.build(new_subdivision)
        rebuild_s += _time.perf_counter() - start
        for point in new_subdivision.random_points(queries_per_cycle, rng):
            result = client.query(point, rng.uniform(0, client.cycle_length))
            expected_sub = server.history[result.version][0]
            if result.region_id != expected_sub.locate(point):
                raise RuntimeError(
                    f"dynamic {index_kind} answer diverged from the "
                    f"version-{result.version} oracle at {point!r}"
                )
            wasted += result.wasted_tuning
            attempts += result.attempts
            queries += 1
    return {
        "cycles": float(cycles),
        "churn_fraction": churned_regions / (cycles * len(server.subdivision)),
        "maintain_s": maintain_s,
        "rebuild_s": rebuild_s,
        "maintain_speedup_x": rebuild_s / maintain_s if maintain_s else float("inf"),
        "incremental_applies": float(server.maintainer.incremental_applies),
        "full_rebuilds": float(server.maintainer.full_rebuilds),
        "final_version": float(server.version),
        "mean_wasted_tuning": wasted / max(queries, 1),
        "mean_attempts": attempts / max(queries, 1),
    }


def extension_dynamic(
    dataset: Optional[Dataset] = None,
    packet_capacity: int = 256,
    index_kinds: Sequence[str] = ("dtree", "trian", "trap", "rstar"),
    cycles: int = 4,
    moves_per_cycle: int = 1,
    queries_per_cycle: int = 40,
    seed: int = 7,
) -> Dict[str, Dict[str, float]]:
    """E12: update churn across broadcast cycles, per index family.

    Low churn (one moved site per cycle, so only the moved cell and its
    Voronoi neighbours change) is where incremental maintenance should
    shine: the R*-tree applies the batch through delete/insert, the
    D-tree splices subtrees while its staleness budget lasts, and the
    trap/trian trees fall back to full rebuilds — the cost column makes
    the difference visible.
    """
    dataset = dataset or uniform_dataset(n=200, seed=42)
    return {
        kind: run_dynamic_cell(
            dataset,
            kind,
            packet_capacity,
            cycles=cycles,
            moves_per_cycle=moves_per_cycle,
            queries_per_cycle=queries_per_cycle,
            seed=seed,
        )
        for kind in index_kinds
    }
