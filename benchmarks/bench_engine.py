"""Batched query engine vs the per-query reference path.

Measures end-to-end workload evaluation (index traversal + broadcast
timeline + metric reduction) at N in {100, 1_000, 10_000} queries for
every index family.  The headline acceptance number — batched >= 3x the
per-query path at N = 10_000 on the D-tree — is asserted, not just
printed, so a regression fails the benchmark suite.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine.py --benchmark-only
"""

import random
import statistics
import time

import pytest

from repro.datasets.catalog import uniform_dataset
from repro.engine import evaluate_workload, index_family

from _recorder import record_case, run_recorded
from tests.oracles import evaluate_index_per_query

WORKLOAD_SIZES = (100, 1_000, 10_000)


@pytest.fixture(scope="module")
def subdivision():
    return uniform_dataset(n=200, seed=42).subdivision


@pytest.fixture(scope="module")
def cells(subdivision):
    """Paged index + params per kind, built once for the whole module."""
    out = {}
    for kind in ("dtree", "trian", "trap", "rstar"):
        family = index_family(kind)
        params = family.parameters(packet_capacity=256)
        out[kind] = (family.build(subdivision, seed=7).page(params), params)
    return out


def _points(subdivision, n, seed=0):
    rng = random.Random(seed)
    return [subdivision.random_point(rng) for _ in range(n)]


def _ids(kinds=("dtree", "trian", "trap", "rstar")):
    return [
        pytest.param(kind, n, id=f"{kind}-{n}")
        for kind in kinds
        for n in WORKLOAD_SIZES
    ]


@pytest.mark.parametrize("kind,n", _ids())
def bench_engine_batched(benchmark, subdivision, cells, kind, n):
    paged, params = cells[kind]
    points = _points(subdivision, n)

    summary = run_recorded(
        benchmark,
        lambda: evaluate_workload(
            paged, subdivision.region_ids, params, points, seed=3
        ).summary(subdivision.region_ids, params),
        "engine",
        f"batched-{kind}-{n}",
        rounds=3,
    )
    assert summary.queries == n


@pytest.mark.parametrize("kind,n", _ids())
def bench_engine_per_query(benchmark, subdivision, cells, kind, n):
    paged, params = cells[kind]
    points = _points(subdivision, n)

    summary = run_recorded(
        benchmark,
        lambda: evaluate_index_per_query(
            paged, subdivision.region_ids, params, points, seed=3
        ),
        "engine",
        f"per_query-{kind}-{n}",
    )
    assert summary.queries == n


def bench_engine_speedup_dtree_10k(benchmark, subdivision, cells):
    """The acceptance bar: >= 3x on the D-tree at 10k queries."""
    paged, params = cells["dtree"]
    points = _points(subdivision, 10_000)
    region_ids = subdivision.region_ids

    start = time.perf_counter()
    legacy = evaluate_index_per_query(paged, region_ids, params, points, seed=3)
    legacy_s = time.perf_counter() - start

    def batched():
        return evaluate_workload(
            paged, region_ids, params, points, seed=3
        ).summary(region_ids, params)

    start = time.perf_counter()
    summary = batched()
    batched_s = time.perf_counter() - start
    run_recorded(benchmark, batched, "engine", "speedup-dtree-10000-batched")
    record_case("engine", "speedup-dtree-10000-per_query", legacy_s * 1000.0)

    assert summary.mean_access_latency == legacy.mean_access_latency
    assert summary.mean_index_tuning == legacy.mean_index_tuning
    speedup = legacy_s / batched_s
    print(
        f"\n[dtree @ 10k queries] per-query {legacy_s:.3f}s, "
        f"batched {batched_s:.3f}s -> {speedup:.1f}x"
    )
    assert speedup >= 3.0, f"batched engine only {speedup:.1f}x"


def _collector_overhead(plain, profiled):
    """``(plain_s, profiled_s, overhead)`` of an installed Collector.

    Plain and profiled runs are interleaved, alternating which goes
    first, in 11 blocks of three runs each; a block's ratio is its best
    profiled run over its best plain run, and *overhead* is the median
    of the block ratios minus one.  Host drift then lands on both sides
    of a ratio instead of on one block of runs, and the best-of-three
    drops the single runs a neighbouring process slowed.  The times are
    the medians of the blocks' best runs.
    """

    def timed(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    plain()  # warm every lazy cache before timing either side
    plain_best, profiled_best, ratios = [], [], []
    for block in range(11):
        plain_times, profiled_times = [], []
        for run in range(3):
            if (block + run) % 2:
                profiled_times.append(timed(profiled))
                plain_times.append(timed(plain))
            else:
                plain_times.append(timed(plain))
                profiled_times.append(timed(profiled))
        plain_best.append(min(plain_times))
        profiled_best.append(min(profiled_times))
        ratios.append(profiled_best[-1] / plain_best[-1])
    return (
        statistics.median(plain_best),
        statistics.median(profiled_best),
        statistics.median(ratios) - 1.0,
    )


def bench_engine_profiled_overhead_dtree_10k(benchmark, subdivision, cells):
    """The observability acceptance bar: an installed Collector costs
    <= 5 % on the batched D-tree at 10k queries (DESIGN.md §10), by
    :func:`_collector_overhead`.  The recorded cases land in
    BENCH_engine.json's history alongside the plain batched numbers.
    """
    from repro.obs import Collector, collecting

    paged, params = cells["dtree"]
    points = _points(subdivision, 10_000)
    region_ids = subdivision.region_ids

    def plain():
        return evaluate_workload(
            paged, region_ids, params, points, seed=3
        ).summary(region_ids, params)

    def profiled():
        with collecting(Collector()):
            return plain()

    plain_s, profiled_s, overhead = _collector_overhead(plain, profiled)
    run_recorded(benchmark, profiled, "engine", "profiled-dtree-10000")
    record_case("engine", "profiled-dtree-10000-plain", plain_s * 1000.0)
    record_case("engine", "profiled-dtree-10000-enabled", profiled_s * 1000.0)
    record_case("engine", "profiled-dtree-10000-overhead-pct", overhead * 100.0)
    print(
        f"\n[dtree @ 10k queries] plain {plain_s * 1000:.2f}ms, "
        f"collected {profiled_s * 1000:.2f}ms -> {overhead * 100:+.2f}%"
    )
    assert overhead <= 0.05, (
        f"collector overhead {overhead * 100:.2f}% exceeds the 5% budget"
    )


@pytest.mark.parametrize("kind", ("dtree", "rstar"))
def bench_lossy_profiled_overhead_k1(benchmark, kind):
    """The same <= 5 % collector bar on the lossy K=1 walker: 5,000
    UNIFORM-1000 queries through ``ChannelSimulator.run`` (the batched
    loss-free layout plus the replay of lossy queries) at 1 %
    Gilbert-Elliott loss under retry-next-segment.  Nothing is recorded
    in BENCH_engine.json."""
    from repro.broadcast.schedule import BroadcastSchedule
    from repro.obs import Collector, collecting
    from repro.simulation import ChannelSimulator, make_error_model

    subdivision = uniform_dataset(n=1000, seed=42).subdivision
    family = index_family(kind)
    params = family.parameters(packet_capacity=256)
    paged = family.build(subdivision, seed=7).page(params)
    schedule = BroadcastSchedule(len(paged.packets), subdivision.region_ids, params)
    simulator = ChannelSimulator(
        paged,
        schedule,
        error_model=make_error_model("gilbert", 0.01),
        policy="retry-next-segment",
        index_kind=kind,
    )
    points = _points(subdivision, 5_000)

    def plain():
        return simulator.run(points, seed=3)

    def profiled():
        with collecting(Collector()):
            return plain()

    plain_s, profiled_s, overhead = _collector_overhead(plain, profiled)
    benchmark.pedantic(profiled, rounds=1, iterations=1, warmup_rounds=0)
    print(
        f"\n[{kind} lossy K=1 @ 5k queries] plain {plain_s * 1000:.2f}ms, "
        f"collected {profiled_s * 1000:.2f}ms -> {overhead * 100:+.2f}%"
    )
    assert overhead <= 0.05, (
        f"collector overhead {overhead * 100:.2f}% exceeds the 5% budget"
    )
