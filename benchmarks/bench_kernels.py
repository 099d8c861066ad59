"""Vectorized geometry kernels vs their scalar counterparts.

Acceptance bars, asserted (not just printed) so a regression fails the
benchmark suite:

* ``CompiledSubdivision.locate_batch`` >= 10x a per-point
  ``Subdivision.locate`` loop at 10_000 points;
* the compiled D-tree, trap and trian tracers are each >= 4x, and the
  R*-tree tracer >= 3x, the per-point generic fallback
  (``_trace_batch_generic``, the scalar oracle) end to end at 10_000
  queries, with array-exact answers.

Timing-key convention in ``BENCH_kernels.json``: every entry under
``cases`` is a median in milliseconds (keys that feed a speedup
assertion carry an explicit ``_ms`` suffix and a ``_baseline`` marker on
the slow side); dimensionless speedup factors live under ``ratios``
with an ``_x`` suffix and can never be misread as timings.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py --benchmark-only

CI smoke mode (``REPRO_BENCH_SMOKE=1``) runs only the 1_000-point sizes
and skips the 10k-specific speedup assertions, keeping the step seconds
long while still producing a ``BENCH_kernels.json`` artifact.
"""

import copy
import os
import random
import time

import pytest

from repro.core.paging import PagedDTree
from repro.datasets.catalog import uniform_dataset
from repro.engine import evaluate_workload, index_family, register_tracer
from repro.engine.trace import _trace_batch_generic
from repro.pointloc.kirkpatrick import PagedTrianTree
from repro.pointloc.trapezoidal import PagedTrapTree
from repro.rstar.paged import PagedRStarTree

from _recorder import record_case, record_ratio, run_recorded

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
POINT_SIZES = (1_000,) if SMOKE else (1_000, 10_000)


class _ReferencePagedDTree(PagedDTree):
    """A PagedDTree that dispatches to the per-point generic tracer."""


class _ReferencePagedRStarTree(PagedRStarTree):
    """A PagedRStarTree that dispatches to the per-point generic tracer."""


class _ReferencePagedTrapTree(PagedTrapTree):
    """A PagedTrapTree that dispatches to the per-point generic tracer."""


class _ReferencePagedTrianTree(PagedTrianTree):
    """A PagedTrianTree that dispatches to the per-point generic tracer."""


register_tracer(_ReferencePagedDTree, _trace_batch_generic)
register_tracer(_ReferencePagedRStarTree, _trace_batch_generic)
register_tracer(_ReferencePagedTrapTree, _trace_batch_generic)
register_tracer(_ReferencePagedTrianTree, _trace_batch_generic)

_REFERENCE_CLASS = {
    "dtree": _ReferencePagedDTree,
    "rstar": _ReferencePagedRStarTree,
    "trap": _ReferencePagedTrapTree,
    "trian": _ReferencePagedTrianTree,
}


@pytest.fixture(scope="module")
def subdivision():
    return uniform_dataset(n=200, seed=42).subdivision


def _build_cell(subdivision, kind):
    family = index_family(kind)
    params = family.parameters(packet_capacity=256)
    return family.build(subdivision, seed=7).page(params), params


@pytest.fixture(scope="module")
def dtree_cell(subdivision):
    return _build_cell(subdivision, "dtree")


@pytest.fixture(scope="module")
def rstar_cell(subdivision):
    return _build_cell(subdivision, "rstar")


@pytest.fixture(scope="module")
def trap_cell(subdivision):
    return _build_cell(subdivision, "trap")


@pytest.fixture(scope="module")
def trian_cell(subdivision):
    return _build_cell(subdivision, "trian")


def _points(subdivision, n, seed=0):
    rng = random.Random(seed)
    return subdivision.random_points(n, rng)


@pytest.mark.parametrize("n", POINT_SIZES)
def bench_locate_scalar(benchmark, subdivision, n):
    points = _points(subdivision, n)
    ids = run_recorded(
        benchmark,
        lambda: [subdivision.locate(p) for p in points],
        "kernels",
        f"locate_scalar-{n}",
    )
    assert len(ids) == n


@pytest.mark.parametrize("n", POINT_SIZES)
def bench_locate_batch(benchmark, subdivision, n):
    compiled = subdivision.compiled()  # build outside the timed region
    points = _points(subdivision, n)
    ids = run_recorded(
        benchmark,
        lambda: compiled.locate_batch(points),
        "kernels",
        f"locate_batch-{n}",
        rounds=3,
    )
    assert len(ids) == n


def bench_locate_batch_speedup_10k(benchmark, subdivision):
    """Acceptance bar: locate_batch >= 10x the scalar loop at 10k points."""
    if SMOKE:
        pytest.skip("smoke mode runs 1k sizes only")
    n = 10_000
    points = _points(subdivision, n)
    compiled = subdivision.compiled()

    # Best of 3 per side: the batch call is milliseconds-scale and its
    # first run pays one-off allocation costs.
    scalar_ids = [subdivision.locate(p) for p in points]
    scalar_s = min(
        _timed(lambda: [subdivision.locate(p) for p in points])
        for _ in range(3)
    )
    batch_ids = compiled.locate_batch(points)
    batch_s = min(
        _timed(lambda: compiled.locate_batch(points)) for _ in range(3)
    )
    run_recorded(
        benchmark,
        lambda: compiled.locate_batch(points),
        "kernels",
        "locate_speedup_batch_ms-10000",
        rounds=3,
    )
    record_case(
        "kernels", "locate_speedup_scalar_baseline_ms-10000", scalar_s * 1000.0
    )

    assert batch_ids.tolist() == scalar_ids
    speedup = scalar_s / batch_s
    record_ratio("kernels", "locate_speedup_x-10000", speedup)
    print(
        f"\n[locate @ 10k points] scalar {scalar_s:.3f}s, "
        f"batch {batch_s:.3f}s -> {speedup:.1f}x"
    )
    assert speedup >= 10.0, f"locate_batch only {speedup:.1f}x the scalar loop"


@pytest.mark.parametrize("n", POINT_SIZES)
def bench_dtree_e2e_kernel(benchmark, subdivision, dtree_cell, n):
    paged, params = dtree_cell
    points = _points(subdivision, n)
    result = run_recorded(
        benchmark,
        lambda: evaluate_workload(
            paged, subdivision.region_ids, params, points, seed=3
        ),
        "kernels",
        f"dtree_e2e_kernel-{n}",
        rounds=3,
    )
    assert len(result) == n


def _as_reference(paged, kind):
    """A shallow re-classed view of *paged* dispatching to the
    per-point generic tracer."""
    reference = copy.copy(paged)
    reference.__class__ = _REFERENCE_CLASS[kind]
    return reference


@pytest.mark.parametrize("kind", ("trap", "trian"))
@pytest.mark.parametrize("n", POINT_SIZES)
def bench_family_e2e_kernel(benchmark, subdivision, request, kind, n):
    paged, params = request.getfixturevalue(f"{kind}_cell")
    points = _points(subdivision, n)
    result = run_recorded(
        benchmark,
        lambda: evaluate_workload(
            paged, subdivision.region_ids, params, points, seed=3
        ),
        "kernels",
        f"{kind}_e2e_kernel-{n}",
        rounds=3,
    )
    assert len(result) == n


@pytest.mark.parametrize("kind", ("trap", "trian"))
@pytest.mark.parametrize("n", POINT_SIZES)
def bench_family_e2e_generic(benchmark, subdivision, request, kind, n):
    paged, params = request.getfixturevalue(f"{kind}_cell")
    reference = _as_reference(paged, kind)
    points = _points(subdivision, n)
    result = run_recorded(
        benchmark,
        lambda: evaluate_workload(
            reference, subdivision.region_ids, params, points, seed=3
        ),
        "kernels",
        f"{kind}_e2e_generic-{n}",
    )
    assert len(result) == n


#: Speedup bar over the per-point generic fallback per family (4x unless
#: listed): the R*-tree's scalar DFS exits at its first hit, so its
#: oracle does less work per query than the other families'.
_SPEEDUP_BAR = {"rstar": 3.0}


@pytest.mark.parametrize("kind", ("dtree", "trap", "trian", "rstar"))
def bench_family_e2e_speedup_10k(benchmark, subdivision, request, kind):
    """Acceptance bar: compiled tracer >= 4x (R*-tree: 3x) the per-point
    generic fallback at 10k queries, answers array-exact."""
    if SMOKE:
        pytest.skip("smoke mode runs 1k sizes only")
    n = 10_000
    paged, params = request.getfixturevalue(f"{kind}_cell")
    reference = _as_reference(paged, kind)
    region_ids = subdivision.region_ids
    points = _points(subdivision, n)

    generic_s = min(
        _timed(
            lambda: evaluate_workload(
                reference, region_ids, params, points, seed=3
            )
        )
        for _ in range(3)
    )
    kernel_s = min(
        _timed(
            lambda: evaluate_workload(paged, region_ids, params, points, seed=3)
        )
        for _ in range(3)
    )
    run_recorded(
        benchmark,
        lambda: evaluate_workload(paged, region_ids, params, points, seed=3),
        "kernels",
        f"{kind}_e2e_speedup_kernel_ms-10000",
        rounds=3,
    )
    record_case(
        "kernels",
        f"{kind}_e2e_speedup_generic_baseline_ms-10000",
        generic_s * 1000.0,
    )

    kernel = evaluate_workload(paged, region_ids, params, points, seed=3)
    generic = evaluate_workload(reference, region_ids, params, points, seed=3)
    assert kernel.region_ids.tolist() == generic.region_ids.tolist()
    assert kernel.access_latency.tolist() == generic.access_latency.tolist()
    assert (
        kernel.index_tuning_time.tolist() == generic.index_tuning_time.tolist()
    )

    speedup = generic_s / kernel_s
    record_ratio("kernels", f"{kind}_e2e_speedup_x-10000", speedup)
    print(
        f"\n[{kind} e2e @ 10k queries] generic {generic_s*1000:.1f}ms, "
        f"kernel {kernel_s*1000:.1f}ms -> {speedup:.2f}x"
    )
    bar = _SPEEDUP_BAR.get(kind, 4.0)
    assert speedup >= bar, (
        f"compiled {kind} tracer only {speedup:.2f}x the generic fallback"
        f" (bar {bar:.0f}x)"
    )


def bench_family_gap_vs_dtree_10k(
    benchmark, subdivision, dtree_cell, trap_cell, trian_cell
):
    """Record the family-vs-D-tree end-to-end gap at 10k queries — the
    tentpole's target is trap and trian each within ~3x of the batched
    D-tree."""
    if SMOKE:
        pytest.skip("smoke mode runs 1k sizes only")
    n = 10_000
    region_ids = subdivision.region_ids
    points = _points(subdivision, n)
    cells = {"dtree": dtree_cell, "trap": trap_cell, "trian": trian_cell}
    seconds = {}
    for kind, (paged, params) in cells.items():
        seconds[kind] = min(
            _timed(
                lambda: evaluate_workload(
                    paged, region_ids, params, points, seed=3
                )
            )
            for _ in range(3)
        )
    dtree_paged, dtree_params = cells["dtree"]
    run_recorded(
        benchmark,
        lambda: evaluate_workload(
            dtree_paged, region_ids, dtree_params, points, seed=3
        ),
        "kernels",
        "family_gap_dtree_baseline_ms-10000",
        rounds=3,
    )
    for kind in ("trap", "trian"):
        gap = seconds[kind] / seconds["dtree"]
        record_ratio("kernels", f"{kind}_vs_dtree_e2e_x-10000", gap)
        print(
            f"\n[{kind} vs dtree e2e @ 10k] {kind} {seconds[kind]*1000:.1f}ms, "
            f"dtree {seconds['dtree']*1000:.1f}ms -> {gap:.2f}x"
        )


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
