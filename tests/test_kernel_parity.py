"""End-to-end parity of the kernel tracers with the scalar path.

The vectorized kernel layer must be invisible in the results: for every
index family, :func:`repro.engine.batched_trace` has to agree element
for element with the per-point ``paged.trace`` fallback, and
:func:`repro.engine.evaluate_workload` has to reproduce the per-point
batched path (``_trace_batch_generic`` + per-query ``rng.uniform``
issue-time draws) array-exact.  All four families have dedicated kernel
tracers; adversarial boundary points (region vertices, edge midpoints)
ride along everywhere.  For the trap/trian families the scalar paths can
legitimately *reject* a boundary vertex (``QueryError``) — those points
are filtered out of the parity batches and asserted separately to raise
identical errors through the batched path.
"""

import copy
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.schedule import BroadcastSchedule
from repro.core.paging import PagedDTree
from repro.engine import (
    batched_trace,
    evaluate_workload,
    index_family,
    register_tracer,
)
from repro.broadcast.client import _uniform_issue_times
from repro.engine.batch import QueryEngine
from repro.datasets.catalog import hospital_dataset, park_dataset, uniform_dataset
from repro.engine.trace import (
    _cell_boxes,
    _cell_edges,
    _cell_of,
    _compile_trap,
    _rstar_cell_table,
    _store_compiled,
    _trace_batch_generic,
    _trap_cell_table,
    _trap_paged_descent,
    _trian_cell_table,
    bump_structure_generation,
    compiled_form,
)
from repro.geometry.predicates import EPS
from repro.geometry.rect import Rect
from repro.errors import BroadcastError, QueryError
from repro.geometry.kernels import point_coords
from repro.geometry.point import Point, PointBatch
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import Polyline
from repro.pointloc import trapezoidal as trap_mod
from repro.pointloc.kirkpatrick import PagedTrianTree
from repro.pointloc.trapezoidal import LEAF, SHEAR, X_NODE, PagedTrapTree
from repro.tessellation.grid import grid_subdivision
from repro.tessellation.subdivision import DataRegion, Subdivision
from repro.rstar.paged import PagedRStarTree

from tests.conftest import random_points_in, set_dtree_span
from tests.test_construction_parity import _small_subdivisions
from tests.test_geometry_kernels import adversarial_points

ALL_KINDS = ("dtree", "trian", "trap", "rstar")
KERNEL_KINDS = ALL_KINDS  # every family has a dedicated kernel tracer
#: Families whose scalar tracer may reject boundary points outright.
REJECTING_KINDS = ("trap", "trian")
DATASETS = ("voronoi60", "grid4x4")


class _ReferencePagedDTree(PagedDTree):
    """Dispatches to the per-point D-tree tracer."""


class _ReferencePagedRStarTree(PagedRStarTree):
    """Dispatches to the per-point R*-tree tracer."""


class _ReferencePagedTrapTree(PagedTrapTree):
    """Dispatches to the per-point trap-tree reference tracer."""


class _ReferencePagedTrianTree(PagedTrianTree):
    """Dispatches to the per-point trian-tree reference tracer."""


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


def _as_reference(paged, kind):
    """A shallow re-classed view dispatching to the per-point tracer."""
    reference = copy.copy(paged)
    reference.__class__ = _REFERENCE_CLASS[kind]
    return reference


@pytest.fixture(scope="module", params=DATASETS)
def dataset(request):
    return request.param, request.getfixturevalue(request.param)


@pytest.fixture(scope="module")
def cells(dataset):
    """Paged index + params per kind on the parametrized dataset."""
    _, subdivision = dataset
    out = {}
    for kind in ALL_KINDS:
        family = index_family(kind)
        params = family.parameters(packet_capacity=256)
        out[kind] = (family.build(subdivision, seed=7).page(params), params)
    return out


def _accepts(paged, point):
    try:
        paged.trace(point)
    except QueryError:
        return False
    return True


def _query_points(subdivision, kind, paged=None, n=200, seed=13):
    points = random_points_in(subdivision, n, seed=seed)
    boundary = adversarial_points(subdivision)
    if kind in REJECTING_KINDS and paged is not None:
        # Keep only the boundary points the scalar path accepts; the
        # rejected ones are covered by TestErrorParity.
        boundary = [p for p in boundary if _accepts(paged, p)]
    return points + boundary


def _rejected_points(subdivision, paged):
    return [p for p in adversarial_points(subdivision) if not _accepts(paged, p)]


def _assert_traces_equal(got, want):
    assert got.region_ids.tolist() == want.region_ids.tolist()
    assert got.last_packet.tolist() == want.last_packet.tolist()
    assert got.tuning_time.tolist() == want.tuning_time.tolist()


class TestTracerParity:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_batched_trace_matches_per_point_trace(self, dataset, cells, kind):
        _, subdivision = dataset
        paged, _ = cells[kind]
        points = _query_points(subdivision, kind, paged)
        _assert_traces_equal(
            batched_trace(paged, points),
            _trace_batch_generic(paged, points),
        )

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_kernel_tracer_matches_reference_tracer(self, dataset, cells, kind):
        _, subdivision = dataset
        paged, _ = cells[kind]
        points = _query_points(subdivision, kind, paged)
        _assert_traces_equal(
            batched_trace(paged, points),
            batched_trace(_as_reference(paged, kind), points),
        )


class TestDTreePagingVariants:
    """§4.4 packet charging across packet capacities and early-termination
    modes: the flat-frontier tracer must reproduce the scalar charging
    (whole-span vs first-packet) in every configuration."""

    @pytest.mark.parametrize("capacity", (32, 64))
    @pytest.mark.parametrize("early", (True, False))
    def test_charging_parity(self, voronoi60, capacity, early):
        family = index_family("dtree")
        params = family.parameters(packet_capacity=capacity)
        tree = family.build(voronoi60, seed=7)
        paged = PagedDTree(tree, params, early_termination=early)
        points = _query_points(voronoi60, "dtree", n=150, seed=17)
        got = batched_trace(paged, points)
        _assert_traces_equal(got, _trace_batch_generic(paged, points))


class TestWorkloadParity:
    """evaluate_workload vs the per-point batched path, array-exact."""

    def _reference_evaluate(self, paged, region_ids, params, points, seed):
        """Reference tracer + per-query ``rng.uniform`` issue draws."""
        schedule = BroadcastSchedule(
            index_packet_count=len(paged.packets),
            region_ids=list(region_ids),
            params=params,
        )
        engine = QueryEngine(paged, schedule)
        rng = random.Random(seed)
        issue_times = [rng.uniform(0, schedule.cycle_length) for _ in points]
        return engine.run(points, issue_times=issue_times)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_results_are_array_exact(self, dataset, cells, kind):
        _, subdivision = dataset
        paged, params = cells[kind]
        points = _query_points(subdivision, kind, paged)
        reference_paged = _as_reference(paged, kind)
        got = evaluate_workload(
            paged, subdivision.region_ids, params, points, seed=3
        )
        want = self._reference_evaluate(
            reference_paged, subdivision.region_ids, params, points, seed=3
        )
        assert got.region_ids.tolist() == want.region_ids.tolist()
        assert got.access_latency.tolist() == want.access_latency.tolist()
        assert (
            got.index_tuning_time.tolist() == want.index_tuning_time.tolist()
        )


class TestIssueTimes:
    def test_uniform_issue_times_bit_equal_to_scalar_draws(self):
        for seed, n, length in ((3, 100, 977.0), (11, 257, 12.5)):
            batch = _uniform_issue_times(random.Random(seed), n, length)
            rng = random.Random(seed)
            scalar = [rng.uniform(0, length) for _ in range(n)]
            assert batch.tolist() == scalar
            assert batch.dtype == np.float64


class TestObservabilityInertness:
    """DESIGN.md §10 inertness contract: with or without an installed
    ``repro.obs.Collector``, every engine result is bit-for-bit
    identical — the collector only *reads* values the computation
    produced anyway (no rng draws, no arithmetic)."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_enabled_run_is_array_exact(self, dataset, cells, kind):
        from repro.obs import collecting

        _, subdivision = dataset
        paged, params = cells[kind]
        points = _query_points(subdivision, kind, paged)
        baseline = evaluate_workload(
            paged, subdivision.region_ids, params, points, seed=3
        )
        with collecting() as col:
            collected = evaluate_workload(
                paged, subdivision.region_ids, params, points, seed=3
            )
        # The collector saw the run ...
        assert col.counters["engine.runs"] == 1
        assert col.counters["engine.queries"] == len(points)
        # ... and the run did not see the collector.
        for name in (
            "issue_times",
            "region_ids",
            "access_latency",
            "index_tuning_time",
            "total_tuning_time",
        ):
            got = getattr(collected, name)
            want = getattr(baseline, name)
            assert np.array_equal(got, want), name
            assert got.dtype == want.dtype, name

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_summary_is_bit_identical(self, dataset, cells, kind):
        from repro.obs import collecting

        _, subdivision = dataset
        paged, params = cells[kind]
        points = _query_points(subdivision, kind, paged)
        region_ids = subdivision.region_ids
        baseline = evaluate_workload(
            paged, region_ids, params, points, seed=5
        ).summary(region_ids, params)
        with collecting():
            collected = evaluate_workload(
                paged, region_ids, params, points, seed=5
            ).summary(region_ids, params)
        for field in baseline.__slots__:
            assert getattr(collected, field) == getattr(baseline, field), field


class TestErrorParity:
    """Boundary points the scalar tracer rejects must be rejected with
    the *identical* ``QueryError`` message by the batched kernel path —
    including inside a mixed batch, where the earliest failing point in
    input order wins."""

    @pytest.mark.parametrize("kind", REJECTING_KINDS)
    def test_rejected_points_raise_identical_errors(self, dataset, cells, kind):
        _, subdivision = dataset
        paged, _ = cells[kind]
        rejected = _rejected_points(subdivision, paged)
        if not rejected:
            pytest.skip("no rejected boundary points on this dataset")
        for point in rejected[:8]:
            with pytest.raises(QueryError) as scalar_err:
                paged.trace(point)
            with pytest.raises(QueryError) as batch_err:
                batched_trace(paged, [point])
            assert str(batch_err.value) == str(scalar_err.value)

    @pytest.mark.parametrize("kind", REJECTING_KINDS)
    def test_mixed_batch_reports_first_failing_point(self, dataset, cells, kind):
        _, subdivision = dataset
        paged, _ = cells[kind]
        rejected = _rejected_points(subdivision, paged)
        if not rejected:
            pytest.skip("no rejected boundary points on this dataset")
        good = random_points_in(subdivision, 20, seed=23)
        with pytest.raises(QueryError) as scalar_err:
            paged.trace(rejected[0])
        batch = good[:10] + [rejected[0]] + good[10:] + rejected[1:]
        with pytest.raises(QueryError) as batch_err:
            batched_trace(paged, batch)
        assert str(batch_err.value) == str(scalar_err.value)


class TestOracleFallbacks:
    """The compiled tracers' fallback and error branches route to the
    per-point oracle, :func:`_trace_batch_generic`."""

    def test_backwards_dtree_span_raises_scalar_error(self, voronoi60):
        family = index_family("dtree")
        paged = family.build(voronoi60, seed=7).page(family.parameters(64))
        points = random_points_in(voronoi60, 200, seed=29)
        batched_trace(paged, points)  # compile and cache the sound tree
        # Re-point one node below a nonzero packet at packet 0, so every
        # query through it reads the channel backwards.
        tree = paged.tree
        stack = [(tree.root, 0)]
        while stack:
            row, high = stack.pop()
            if high > 0:
                break
            high = max(high, *paged.packets_of_row(row))
            stack.extend(
                (child, high)
                for child in (tree.left[row], tree.right[row])
                if child >= 0
            )
        assert high > 0
        set_dtree_span(paged, row, [0])
        bump_structure_generation(paged)

        failing = [
            p for p in points
            if paged.trace(p).packets_accessed
            != sorted(paged.trace(p).packets_accessed)
        ]
        assert failing and failing[0] is not points[0]
        with pytest.raises(BroadcastError) as scalar_err:
            _trace_batch_generic(paged, points)
        with pytest.raises(BroadcastError) as batch_err:
            batched_trace(paged, points)
        assert str(batch_err.value) == str(scalar_err.value)
        assert str(paged.trace(failing[0]).packets_accessed) in str(
            batch_err.value
        )

    def test_backwards_dtree_order_declines_compile(self, voronoi60):
        """Forward broadcast order is checked once, at compile time: a
        node span moving backwards, or a child starting before its
        parent's last packet, sends the batch to the per-point path."""
        family = index_family("dtree")
        points = random_points_in(voronoi60, 100, seed=31)
        paged = family.build(voronoi60, seed=7).page(family.parameters(64))
        assert compiled_form(paged) is not None
        multi = next(
            row for row in paged.tree.iter_nodes()
            if len(paged.packets_of_row(row)) > 1
        )
        set_dtree_span(paged, multi, paged.packets_of_row(multi)[::-1])
        bump_structure_generation(paged)
        assert compiled_form(paged) is None

        paged = family.build(voronoi60, seed=7).page(family.parameters(64))
        tree = paged.tree
        root = tree.root
        child = next(c for c in (tree.left[root], tree.right[root]) if c >= 0)
        set_dtree_span(paged, child, [paged.packets_of_row(root)[-1] - 1])
        assert compiled_form(paged) is None
        with pytest.raises(BroadcastError) as scalar_err:
            _trace_batch_generic(paged, points)
        with pytest.raises(BroadcastError) as batch_err:
            batched_trace(paged, points, paths=True)
        assert str(batch_err.value) == str(scalar_err.value)

    def test_backwards_rstar_node_raises_scalar_error(self, voronoi60):
        family = index_family("rstar")
        paged = family.build(voronoi60, seed=7).page(family.parameters(64))
        points = random_points_in(voronoi60, 200, seed=29)
        batched_trace(paged, points)  # compile and cache the sound tree
        # Re-point one node below a nonzero packet at packet 0, so every
        # query through it reads the channel backwards.
        stack = [(0, 0)]
        while stack:
            node, high = stack.pop()
            if high > 0:
                break
            high = max(high, int(paged.node_packet[node]))
            entries = paged.entry_child[
                paged.entry_start[node] : paged.entry_start[node + 1]
            ].tolist()
            stack.extend((child, high) for child in entries if child >= 0)
        assert high > 0
        paged.node_packet[node] = 0
        bump_structure_generation(paged)

        failing = [
            p for p in points
            if paged.trace(p).packets_accessed
            != sorted(paged.trace(p).packets_accessed)
        ]
        assert failing and failing[0] is not points[0]
        with pytest.raises(BroadcastError) as scalar_err:
            _trace_batch_generic(paged, points)
        for paths in (False, True):
            with pytest.raises(BroadcastError) as batch_err:
                batched_trace(paged, points, paths=paths)
            assert str(batch_err.value) == str(scalar_err.value)
        assert str(paged.trace(failing[0]).packets_accessed) in str(
            batch_err.value
        )

    def test_backwards_trap_node_declines_compile(self, voronoi60):
        family = index_family("trap")
        paged = family.build(voronoi60, seed=7).page(family.parameters(64))
        points = random_points_in(voronoi60, 200, seed=29)
        # Re-point the first node whose parent sits past packet 0 at
        # packet 0, so every query through it reads the channel backwards.
        tree = paged.tree
        inner = np.flatnonzero((tree.kind != LEAF) & (paged.node_packet > 0))
        node = min(tree.child0[inner].min(), tree.child1[inner].min())
        paged.node_packet[node] = 0
        assert compiled_form(paged) is None

        failing = [
            p for p in points
            if paged.trace(p).packets_accessed
            != sorted(paged.trace(p).packets_accessed)
        ]
        assert failing
        with pytest.raises(BroadcastError) as scalar_err:
            _trace_batch_generic(paged, points)
        with pytest.raises(BroadcastError) as batch_err:
            batched_trace(paged, points)
        assert str(batch_err.value) == str(scalar_err.value)

    def test_backwards_trian_node_declines_compile(self, voronoi60):
        """A child packet before its parent's: the compile declines, and
        the batch takes the per-point path, with its answers and its
        error."""
        family = index_family("trian")
        paged = family.build(voronoi60).page(family.parameters(64))
        points = random_points_in(voronoi60, 200, seed=29)
        # Re-point the first child of a node past packet 0 at packet 0,
        # so every query through it reads the channel backwards.
        tree = paged.tree
        parent = np.repeat(
            np.arange(len(paged.node_packet)), np.diff(tree.child_offsets)
        )
        node = tree.children[paged.node_packet[parent] > 0].min()
        paged.node_packet[node] = 0
        assert compiled_form(paged) is None

        failing = [
            p for p in points
            if paged.trace(p).packets_accessed
            != sorted(paged.trace(p).packets_accessed)
        ]
        assert failing and len(failing) < len(points)
        with pytest.raises(BroadcastError) as scalar_err:
            _trace_batch_generic(paged, points)
        for paths in (False, True):
            with pytest.raises(BroadcastError) as batch_err:
                batched_trace(paged, points, paths=paths)
            assert str(batch_err.value) == str(scalar_err.value)
        passing = [p for p in points if p not in failing]
        _assert_traces_equal(
            batched_trace(paged, passing), _trace_batch_generic(paged, passing)
        )

    @pytest.mark.parametrize("kind", REJECTING_KINDS)
    def test_uncompiled_tree_uses_per_point_path(self, dataset, cells, kind):
        from repro.obs import collecting

        _, subdivision = dataset
        paged, _ = cells[kind]
        points = _query_points(subdivision, kind, paged)
        uncompiled = copy.copy(paged)
        _store_compiled(uncompiled, f"_compiled_{kind}", None)
        with collecting() as col:
            got = batched_trace(uncompiled, points)
        assert f"trace.{kind}.levels" not in col.counters
        _assert_traces_equal(got, _trace_batch_generic(paged, points))


class TestRStarBlockSeams:
    """The R*-tree tracer works in blocks of queries; with tiny blocks
    every seam must still reproduce the per-point oracle exactly."""

    @pytest.fixture
    def tiny_blocks(self, monkeypatch):
        import repro.engine.trace as trace_module

        monkeypatch.setattr(trace_module, "_RSTAR_BLOCK_QUERIES", 7)

    def _assert_paths_equal(self, paged, points):
        got = batched_trace(paged, points, paths=True)
        want = _trace_batch_generic(paged, points, paths=True)
        _assert_traces_equal(got, want)
        assert got.path_offsets.tolist() == want.path_offsets.tolist()
        assert got.path_packets.tolist() == want.path_packets.tolist()

    def test_blocks_match_per_point_oracle(self, dataset, cells, tiny_blocks):
        _, subdivision = dataset
        paged, _ = cells["rstar"]
        self._assert_paths_equal(paged, _query_points(subdivision, "rstar"))

    def test_empty_and_single_query_batches(self, dataset, cells, tiny_blocks):
        _, subdivision = dataset
        paged, _ = cells["rstar"]
        self._assert_paths_equal(paged, [])
        self._assert_paths_equal(paged, random_points_in(subdivision, 1, seed=3))

    def test_miss_in_a_later_block_raises_scalar_error(
        self, dataset, cells, tiny_blocks
    ):
        from repro.geometry.point import Point

        _, subdivision = dataset
        paged, _ = cells["rstar"]
        area = subdivision.service_area
        outside = Point(area.max_x + 1.0, area.max_y + 1.0)
        points = random_points_in(subdivision, 20, seed=31)
        points.insert(17, outside)
        with pytest.raises(QueryError) as scalar_err:
            paged.trace(outside)
        for paths in (False, True):
            with pytest.raises(QueryError) as batch_err:
                batched_trace(paged, points, paths=paths)
            assert str(batch_err.value) == str(scalar_err.value)


def test_rstar_leaf_tables_are_built_once_per_compile(voronoi60, monkeypatch):
    """The leaf kernel's edge table, ring boxes and read table are
    compiled ndarray slots (so the fleet arena ships them); a trace
    call builds none of them."""
    from repro.geometry.kernels import RegionEdges

    paged = _paged("rstar", voronoi60)
    _, ct = compiled_form(paged)
    for name in ("edge_ax", "edge_start", "ring_min_x", "read_table"):
        assert isinstance(getattr(ct, name), np.ndarray), name
    points = _query_points(voronoi60, "rstar", paged)
    want = _trace_batch_generic(paged, points, paths=True)

    def refuse(*args, **kwargs):
        raise AssertionError("RegionEdges rebuilt by a trace call")

    monkeypatch.setattr(RegionEdges, "__init__", refuse)
    got = batched_trace(paged, points, paths=True)
    _assert_traces_equal(got, want)
    assert got.path_packets.tolist() == want.path_packets.tolist()


class TestRStarDriftedLeafMBR:
    """After dynamic updates a leaf entry's MBR can trail its region's
    ring by ulps.  The scalar path gates the polygon test on the ring's
    own bounding box, so the batched leaf kernel must too."""

    def test_points_in_mbr_but_outside_ring_box_match_oracle(self, voronoi60):
        from repro.geometry.point import Point

        family = index_family("rstar")
        paged = family.build(voronoi60, seed=7).page(family.parameters(256))
        widen = 1e-9
        leaf = paged.entry_child < 0
        paged.entry_boxes[:2, leaf] -= widen
        paged.entry_boxes[2:, leaf] += widen
        # Just past each region's extreme vertices: inside the widened
        # MBR, outside the ring's box, within EPS of the ring.
        probes = []
        for region in voronoi60.regions:
            vs = region.polygon.vertices
            right = max(vs, key=lambda v: v.x)
            top = max(vs, key=lambda v: v.y)
            probes.append(Point(right.x + widen / 2, right.y))
            probes.append(Point(top.x, top.y + widen / 2))
        points = [p for p in probes if _accepts(paged, p)]
        points += random_points_in(voronoi60, 50, seed=37)
        got = batched_trace(paged, points, paths=True)
        want = _trace_batch_generic(paged, points, paths=True)
        _assert_traces_equal(got, want)
        assert got.path_packets.tolist() == want.path_packets.tolist()


class TestTraceObservability:
    """The kernel tracers publish per-descent counters and
    frontier-width histograms mirroring the D-tree instrumentation
    (inertness of these stats is covered by
    :class:`TestObservabilityInertness` above)."""

    COUNTERS = {
        "dtree": ("trace.dtree.levels",),
        "rstar": (
            "trace.rstar.levels",
            "trace.rstar.pairs",
            "trace.rstar.cell_pruned",
            "trace.rstar.leaf_pairs",
        ),
        "trap": ("trace.trap.levels", "trace.trap.cell_skipped"),
        "trian": ("trace.trian.levels", "trace.trian.cell_skipped"),
    }
    HISTOGRAMS = {
        "dtree": ("trace.dtree.frontier_width",),
        "rstar": ("trace.rstar.frontier_width",),
        "trap": ("trace.trap.frontier_width",),
        "trian": ("trace.trian.frontier_width", "trace.trian.scan_width"),
    }

    @pytest.mark.parametrize("kind", sorted(COUNTERS))
    def test_descent_stats_are_published(self, dataset, cells, kind):
        from repro.obs import collecting

        _, subdivision = dataset
        paged, _ = cells[kind]
        points = _query_points(subdivision, kind, paged)
        with collecting() as col:
            batched_trace(paged, points)
        for name in self.COUNTERS[kind]:
            assert col.counters[name] > 0, name
        for name in self.HISTOGRAMS[kind]:
            hist = col.histograms[name]
            assert hist.count > 0, name
            assert hist.total > 0, name

    def test_rstar_leaf_pairs_past_hit_are_a_share_of_leaf_pairs(
        self, dataset, cells
    ):
        from repro.obs import collecting

        _, subdivision = dataset
        paged, _ = cells["rstar"]
        points = _query_points(subdivision, "rstar", paged)
        with collecting() as col:
            batched_trace(paged, points)
        past = col.counters["trace.rstar.leaf_pairs_past_hit"]
        # Every query tests at least the leaf entry that answers it.
        assert 0 <= past <= col.counters["trace.rstar.leaf_pairs"] - len(points)


# -- D-tree slab cells and trap ties ------------------------------------------


def _slab_probe_points(paged):
    """Points in each node's interlocking band whose ray coordinate sits
    on a slab boundary (and one ulp either side), on a segment end, far
    outside the node's segments, plus every region vertex and edge
    midpoint."""
    _, ct = compiled_form(paged)
    points = adversarial_points(paged.tree.subdivision, max_regions=None)
    for i, part in enumerate(paged.tree.partition):
        band = (part.first_bound + part.second_bound) / 2
        vs = [
            v
            for pl in part.polylines
            for a, b in pl.segment_endpoints()
            for v in ((a.y, b.y) if part.dimension == "y" else (a.x, b.x))
        ]
        vmin = ct.slab_min[i]
        edges = vmin + ct.slab_width[i] * np.arange(ct.slab_count[i] + 1)
        for v in edges.tolist():
            vs += [v, float(np.nextafter(v, -np.inf)), float(np.nextafter(v, np.inf))]
        vs += [vmin - 1.0, float(edges[-1]) + 1.0]
        for u in (band, part.first_bound, part.second_bound):
            for v in vs:
                points.append(Point(u, v) if part.dimension == "y" else Point(v, u))
    return points


class TestDTreeSlabParity:
    """The D-tree tracer's slab cells expand each interlocked point into
    only the segments that can straddle its ray; on slab boundaries,
    segment ends, flat segments and far outside a node's segments it
    answers exactly as the per-point path."""

    @settings(max_examples=60, deadline=None)
    @given(
        _small_subdivisions(),
        st.integers(0, 10_000),
        st.sampled_from([64, 128, 256]),
        st.booleans(),
    )
    def test_slab_probes_match_per_point_trace(
        self, subdivision, seed, capacity, early
    ):
        family = index_family("dtree")
        tree = family.build(subdivision, seed=seed)
        paged = PagedDTree(
            tree, family.parameters(capacity), early_termination=early
        )
        if tree.root is None:
            points = random_points_in(subdivision, 20, seed=seed)
        else:
            points = _slab_probe_points(paged)
            points += random_points_in(subdivision, 100, seed=seed)
        got = batched_trace(paged, points, paths=True)
        want = _trace_batch_generic(paged, points, paths=True)
        _assert_traces_equal(got, want)
        assert got.path_offsets.tolist() == want.path_offsets.tolist()
        assert got.path_packets.tolist() == want.path_packets.tolist()
        _assert_traces_equal(batched_trace(paged, points), want)

    def test_flat_segments_are_in_no_cell(self, grid3x5):
        """Staircase grid cuts have segments along the ray (``v0 ==
        v1``): they never straddle it, so no cell lists them."""
        family = index_family("dtree")
        paged = family.build(grid3x5, seed=3).page(family.parameters(64))
        _, ct = compiled_form(paged)
        flat = np.flatnonzero(ct.seg_v0 == ct.seg_v1)
        assert flat.size
        assert not np.isin(flat, ct.cell_seg).any()
        points = _slab_probe_points(paged)
        _assert_traces_equal(
            batched_trace(paged, points), _trace_batch_generic(paged, points)
        )

    def test_node_whose_segments_share_one_v(self):
        """A partition whose segments all lie on one ``v`` has a zero
        ``v`` extent; its slab grid still indexes every query."""
        family = index_family("dtree")
        paged = family.build(grid_subdivision(1, 3), seed=3).page(
            family.parameters(64)
        )
        root = paged.tree.partition[paged.tree.root]
        assert root.dimension == "y"
        root.polylines = [
            Polyline([Point(0.2, 0.5), Point(0.5, 0.5), Point(0.9, 0.5)]),
            Polyline([Point(0.1, 0.5), Point(0.3, 0.5)]),
        ]
        bump_structure_generation(paged)
        _, ct = compiled_form(paged)
        assert ct.slab_width[ct.root] == 1.0 and ct.slab_count[ct.root] == 2
        points = _slab_probe_points(paged)
        points += [Point(x, y) for x in (0.1, 0.3, 0.6) for y in (0.0, 0.5, 1.0)]
        _assert_traces_equal(
            batched_trace(paged, points), _trace_batch_generic(paged, points)
        )

    def test_parity_segments_gate_on_park(self):
        """Work-count gate: the D2 pass of 25,000 uniform PARK points
        expands at most 250,000 segments (every segment of every
        interlocked node would be 902,252)."""
        from repro.obs import collecting

        subdivision = park_dataset().subdivision
        family = index_family("dtree")
        paged = family.build(subdivision, seed=0).page(family.parameters(256))
        rng = np.random.default_rng(1)
        n = 25_000
        points = PointBatch(rng.random(n), rng.random(n))
        with collecting() as col:
            batched_trace(paged, points)
        assert col.histograms["kernels.pair_parity.size"].total == 45_326
        assert 0 < col.counters["trace.dtree.parity_segments"] <= 250_000


def _trap_tie_points(tree):
    """Points whose sheared x equals an x-node's ``ax`` with y below its
    ``ay`` — where the paged and tree descent rules part ways."""
    points = []
    for k in np.flatnonzero(tree.kind == X_NODE).tolist():
        ax, ay = float(tree.ax[k]), float(tree.ay[k])
        for d in (1e-9, 1e-6, 1e-3, 0.05, 0.3):
            y = ay - d
            x = ax - SHEAR * y
            for _ in range(8):
                sheared = x + SHEAR * y
                if sheared == ax:
                    points.append(Point(x, y))
                    break
                x = float(np.nextafter(x, np.inf if sheared < ax else -np.inf))
    return points


def _trap_walk(tree, point, paged_rule):
    """Nodes a scalar descent of *point* visits: the paged trace's
    lexicographic x rule, or the tree's ``x >= ax`` rule."""
    kind, child0, child1, ax, ay, bx, by, _ = tree._lists
    sheared = trap_mod._shear(point)
    x, y = sheared.x, sheared.y
    path = [0]
    node = 0
    while kind[node] != LEAF:
        if kind[node] == X_NODE:
            right = (x, y) >= (ax[node], ay[node]) if paged_rule else x >= ax[node]
            node = child1[node] if right else child0[node]
        else:
            x0, y0 = ax[node], ay[node]
            cross = (bx[node] - x0) * (y - y0) - (by[node] - y0) * (x - x0)
            node = child0[node] if cross >= 0 else child1[node]
        path.append(node)
    return path


class TestTrapTies:
    """One paged-rule descent, with the tree rules re-run only where an
    x tie or a sliver landing can make them differ: answers, errors and
    nudge counts equal the per-point path's."""

    @pytest.mark.parametrize("name", DATASETS)
    def test_ties_and_vertices_match_per_point_path(self, name, request):
        from repro.obs import collecting

        subdivision = request.getfixturevalue(name)
        family = index_family("trap")
        paged = family.build(subdivision, seed=7).page(family.parameters(64))
        tree = paged.tree
        ties = _trap_tie_points(tree)
        assert ties
        vertices = list(dict.fromkeys(
            v for region in subdivision.regions for v in region.polygon.vertices
        ))
        points = ties + vertices + random_points_in(subdivision, 50, seed=5)

        ct = _compile_trap(paged)
        xs, ys = point_coords(points)
        diverged = _trap_paged_descent(
            ct, ct.bx - ct.ax, ct.by - ct.ay, xs + SHEAR * ys, ys.copy(), None
        )[3]
        assert diverged[: len(ties)].any()

        accepted = [p for p in points if _accepts(paged, p)]
        rejected = [p for p in points if not _accepts(paged, p)]
        nudged = sum(
            tree._region_at(*trap_mod._shear(p)) < 0 for p in accepted
        )
        with collecting() as col:
            got = batched_trace(paged, accepted)
        _assert_traces_equal(got, _trace_batch_generic(paged, accepted))
        assert col.counters.get("trace.trap.nudged", 0) == nudged
        for point in rejected:
            with pytest.raises(QueryError) as scalar_err:
                paged.trace(point)
            with pytest.raises(QueryError) as batch_err:
                batched_trace(paged, [point])
            assert str(batch_err.value) == str(scalar_err.value)
        if rejected:
            with pytest.raises(QueryError) as scalar_err:
                _trace_batch_generic(paged, points)
            with pytest.raises(QueryError) as batch_err:
                batched_trace(paged, points)
            assert str(batch_err.value) == str(scalar_err.value)

    def test_tie_whose_tree_rule_ends_in_a_sliver_is_nudged(self, voronoi60):
        """A point whose tree-rule leaf after an x tie is a sliver, while
        its paged-rule leaf is a region, is nudged as per point."""
        from repro.obs import collecting

        family = index_family("trap")
        paged = family.build(voronoi60, seed=7).page(family.parameters(64))
        tree = paged.tree
        point, leaf = next(
            (p, _trap_walk(tree, p, False)[-1])
            for p in _trap_tie_points(tree)
            if _trap_walk(tree, p, False)[-1] != _trap_walk(tree, p, True)[-1]
        )
        tree.region[leaf] = -1  # the tree rule's leaf becomes a sliver
        del tree.__dict__["_lists"]
        bump_structure_generation(paged)
        assert tree._region_at(*trap_mod._shear(point)) < 0
        assert _accepts(paged, point)
        points = [point] + random_points_in(voronoi60, 30, seed=3)
        points = [p for p in points if _accepts(paged, p)]
        with collecting() as col:
            got = batched_trace(paged, points)
        _assert_traces_equal(got, _trace_batch_generic(paged, points))
        assert col.counters["trace.trap.nudged"] == sum(
            tree._region_at(*trap_mod._shear(p)) < 0 for p in points
        )

    def test_clean_batch_counts_one_descent(self, voronoi60):
        """A batch with no degenerate point is descended once: the
        frontier-width total plus the levels the cell starts skip is the
        number of nodes its paths visit."""
        from repro.obs import collecting

        family = index_family("trap")
        paged = family.build(voronoi60, seed=7).page(family.parameters(64))
        points = random_points_in(voronoi60, 200, seed=41)
        visited = sum(len(_trap_walk(paged.tree, p, True)) for p in points)
        with collecting() as col:
            batched_trace(paged, points)
        assert "trace.trap.nudged" not in col.counters
        skipped = col.counters["trace.trap.cell_skipped"]
        assert skipped > 0
        assert (
            col.histograms["trace.trap.frontier_width"].total + skipped == visited
        )


# -- certified cell starts (trap- and trian-tree) and cell lists (R*-tree) ------

CELL_KINDS = ("trian", "trap")
#: Families whose compiled form carries a grid (``cell_frame``/``cell_side``).
GRID_KINDS = CELL_KINDS + ("rstar",)


def _sheared_to(target, y):
    """An x whose sheared ``x + SHEAR * y`` is *target*, found by ulp
    steps from the nearest guess (the closest one when none is exact)."""
    x = target - SHEAR * y
    for _ in range(8):
        sheared = x + SHEAR * y
        if sheared == target:
            break
        x = float(np.nextafter(x, np.inf if sheared < target else -np.inf))
    return x


def _query_point(kind, gx, gy):
    """The query point whose lookup coordinates are (*gx*, *gy*)."""
    return Point(_sheared_to(gx, gy) if kind == "trap" else gx, gy)


def _grid_edges(ct):
    frame, side = ct.cell_frame, ct.cell_side
    return _cell_edges(frame[0], frame[2], side), _cell_edges(frame[1], frame[3], side)


def _is_leaf(kind, ct, node):
    if kind == "trian":
        return ct.child_count[node] == 0
    return ct.kind[node] == LEAF


def _cell_probe_points(kind, ct, lines=6, seed=0):
    """Cell corners of a sample of grid lines (both borders included),
    and one ulp either side of each along each axis: the first and last
    floats of cells, and the floats just outside the grid box."""
    side = ct.cell_side
    if not side:
        return []
    rng = random.Random(seed)
    ks = sorted({0, side} | set(rng.sample(range(1, side), min(lines, side - 1))))

    def around(edges):
        out = []
        for k in ks:
            v = float(edges[k])
            out += [float(np.nextafter(v, -np.inf)), v, float(np.nextafter(v, np.inf))]
        return out

    xe, ye = _grid_edges(ct)
    return [_query_point(kind, gx, gy) for gy in around(ye) for gx in around(xe)]


def _leaf_start_points(kind, ct):
    """The centre of every cell whose certified start is a leaf."""
    side = ct.cell_side
    if not side:
        return []
    lo_x, hi_x, lo_y, hi_y = _cell_boxes(*_grid_edges(ct), side)
    cells = np.flatnonzero(_is_leaf(kind, ct, ct.cell_node[:-1]))
    return [
        _query_point(kind, (lo_x[c] + hi_x[c]) / 2, (lo_y[c] + hi_y[c]) / 2)
        for c in cells.tolist()
    ]


def _structure_points(kind, paged, ct):
    """Entry MBR corners and the floats one ulp outside them (rstar),
    triangle vertices (trian), or x-node vertices and the x ties where
    the paged and tree rules part (trap)."""
    if kind == "rstar":
        def around(lo, hi):
            return np.stack(
                (np.nextafter(lo, -np.inf), lo, hi, np.nextafter(hi, np.inf)), 1
            ).tolist()

        return [
            Point(x, y)
            for gx, gy in zip(
                around(ct.min_x, ct.max_x), around(ct.min_y, ct.max_y)
            )
            for x in gx
            for y in gy
        ]
    if kind == "trian":
        xs = np.concatenate((ct.ctri_ax, ct.ctri_bx, ct.ctri_cx))
        ys = np.concatenate((ct.ctri_ay, ct.ctri_by, ct.ctri_cy))
        return [Point(x, y) for x, y in sorted(set(zip(xs.tolist(), ys.tolist())))]
    xnodes = np.flatnonzero(ct.kind == X_NODE).tolist()
    points = [
        _query_point(kind, float(ct.ax[k]), float(ct.ay[k])) for k in xnodes
    ]
    return points + _trap_tie_points(paged.tree)


def _cell_parity_points(kind, paged, seed=0):
    _, ct = compiled_form(paged)
    subdivision = paged.tree.subdivision
    return (
        _cell_probe_points(kind, ct, seed=seed)
        + ([] if kind == "rstar" else _leaf_start_points(kind, ct))
        + _structure_points(kind, paged, ct)
        + adversarial_points(subdivision, max_regions=None)
        + random_points_in(subdivision, 100, seed=seed)
    )


def _assert_parity_with_errors(paged, points):
    """Accepted points trace as per point; a batch holding rejected ones
    raises the per-point path's error for the first of them."""
    accepted = [p for p in points if _accepts(paged, p)]
    _assert_traces_equal(
        batched_trace(paged, accepted), _trace_batch_generic(paged, accepted)
    )
    if len(accepted) < len(points):
        with pytest.raises(QueryError) as scalar_err:
            _trace_batch_generic(paged, points)
        with pytest.raises(QueryError) as batch_err:
            batched_trace(paged, points)
        assert str(batch_err.value) == str(scalar_err.value)


def _scalar_cell_table(kind, paged, ct):
    """``(node, last, tuning, depth)`` per cell, then the root state,
    certified cell by cell from the root with the tracer's own
    expressions evaluated at all four corners of the cell's box."""
    side = ct.cell_side
    if kind == "trian":
        root = (len(ct.region), paged._root_dir_packet, 1, 0)
    else:
        root = (0, -1, 0, 0)
    if not side:
        return [root]
    boxes = [b.tolist() for b in _cell_boxes(*_grid_edges(ct), side)]
    walk = _scalar_trian_walk if kind == "trian" else _scalar_trap_walk
    arrays = {name: getattr(ct, name).tolist() for name in type(ct).__slots__
              if isinstance(getattr(ct, name), np.ndarray)}
    rows = []
    for lo_x, hi_x, lo_y, hi_y in zip(*boxes):
        corners = [(x, y) for x in (lo_x, hi_x) for y in (lo_y, hi_y)]
        rows.append(walk(arrays, root, corners, (lo_x, hi_x)))
    return rows + [root]


def _scalar_trian_walk(ct, root, corners, _):
    node, last, tuning, depth = root
    tri = ("ctri_ax", "ctri_ay", "ctri_bx", "ctri_by", "ctri_cx", "ctri_cy")
    while ct["child_count"][node]:
        start = ct["child_start"][node]
        chosen = None
        for slot in range(start, start + ct["child_count"][node]):
            ax, ay, bx, by, cx, cy = (ct[name][slot] for name in tri)
            values = [
                [
                    (qx - px) * (y - py) - (qy - py) * (x - px)
                    for x, y in corners
                ]
                for px, py, qx, qy in (
                    (ax, ay, bx, by), (bx, by, cx, cy), (cx, cy, ax, ay)
                )
            ]
            if any(max(v) < -EPS for v in values):
                continue  # no point of the cell is in this child
            if all(min(v) >= -EPS for v in values):
                chosen = slot  # every point of the cell stops here
            break
        if chosen is None:
            break
        child = ct["child_flat"][chosen]
        leaf = ct["child_count"][child] == 0
        if leaf and ct["region"][child] < 0:
            break
        tuning += ct["child_distinct"][chosen] - (ct["child_pkt"][start] == last)
        last = ct["child_pkt"][chosen]
        node = child
        depth += 1
        if leaf:
            break
    return node, last, tuning, depth


def _scalar_trap_walk(ct, root, corners, x_range):
    node, last, tuning, depth = root
    lo_x, hi_x = x_range
    while ct["kind"][node] != LEAF:
        ax, ay = ct["ax"][node], ct["ay"][node]
        if ct["kind"][node] == X_NODE:
            go = True if lo_x > ax else False if hi_x < ax else None
        else:
            dx, dy = ct["bx"][node] - ax, ct["by"][node] - ay
            values = [dx * (y - ay) - dy * (x - ax) for x, y in corners]
            go = True if min(values) >= 0.0 else False if max(values) < 0.0 else None
        if go is None:
            break
        child = ct["on_true"][node] if go else ct["on_false"][node]
        if ct["kind"][child] == LEAF and ct["region"][child] < 0:
            break
        tuning += ct["packet"][node] != last
        last = ct["packet"][node]
        node = child
        depth += 1
    return node, last, tuning, depth


def _assert_cell_table_is_certified(kind, paged):
    _, ct = compiled_form(paged)
    rows = _scalar_cell_table(kind, paged, ct)
    got = list(zip(*(getattr(ct, "cell_" + name).tolist()
                     for name in ("node", "last", "tuning", "depth"))))
    assert got == [tuple(row) for row in rows]
    # No start is a gap triangle or a sliver.
    leaves = ct.cell_node[_is_leaf(kind, ct, ct.cell_node)]
    assert (ct.region[leaves] >= 0).all()


def _scalar_rstar_cell_table(ct):
    """``(cell_entry, cell_offsets, cell_root, cell_next)`` from a
    cell-by-cell scan of the entry MBRs: per cell, then the full row,
    per node, the entries whose closed MBR meets the cell's box."""
    side = ct.cell_side
    boxes = []
    if side:
        boxes = list(zip(*(b.tolist() for b in _cell_boxes(*_grid_edges(ct), side))))
    starts = ct.entry_start.tolist()
    child = ct.child.tolist()
    names = ("min_x", "min_y", "max_x", "max_y")
    mbrs = list(zip(*(getattr(ct, n).tolist() for n in names)))
    lists = {}
    for cell, box in enumerate(boxes + [None]):
        for node in range(len(starts) - 1):
            listed = [
                e
                for e in range(starts[node], starts[node + 1])
                if box is None
                or (
                    mbrs[e][0] <= box[1]
                    and mbrs[e][2] >= box[0]
                    and mbrs[e][1] <= box[3]
                    and mbrs[e][3] >= box[2]
                )
            ]
            if listed:
                lists[cell, node] = listed
    segment = {key: s for s, key in enumerate(sorted(lists))}
    empty = len(segment)
    entry, offsets, following = [], [], []
    for cell, node in sorted(lists):
        offsets.append(len(entry))
        for e in lists[cell, node]:
            entry.append(e)
            to = segment.get((cell, child[e]), empty) if child[e] >= 0 else empty
            following.append(to)
    offsets += [len(entry)] * 2
    root = [segment.get((cell, 0), empty) for cell in range(len(boxes) + 1)]
    return entry, offsets, root, following


def _assert_rstar_table_is_a_scan(paged):
    _, ct = compiled_form(paged)
    names = ("entry", "offsets", "root", "next")
    assert all(getattr(ct, "cell_" + n).dtype == np.int32 for n in names)
    got = tuple(getattr(ct, "cell_" + n).tolist() for n in names)
    assert got == _scalar_rstar_cell_table(ct)


def _assert_rstar_parity(paged, points):
    """:func:`_assert_parity_with_errors`, plus the ``paths=True`` CSRs
    of the accepted points."""
    accepted = [p for p in points if _accepts(paged, p)]
    got = batched_trace(paged, accepted, paths=True)
    want = _trace_batch_generic(paged, accepted, paths=True)
    _assert_traces_equal(got, want)
    assert got.path_offsets.tolist() == want.path_offsets.tolist()
    assert got.path_packets.tolist() == want.path_packets.tolist()
    _assert_parity_with_errors(paged, points)


def _paged(kind, subdivision, capacity=256, seed=7):
    family = index_family(kind)
    return family.build(subdivision, seed=seed).page(family.parameters(capacity))


class TestCellStarts:
    """Each trap/trian descent starts at its grid cell's certified node,
    and each R* frontier pair expands into the entries its cell lists:
    answers, last packets, tuning, packet paths (R*) and errors equal
    the per-point path's on cell edges and corners (and one ulp either
    side), vertices, MBR corners, x ties, outside the grid box and at
    leaf starts, and every table equals a cell-by-cell scalar
    certification."""

    @settings(max_examples=25, deadline=None)
    @given(
        _small_subdivisions(),
        st.integers(0, 10_000),
        st.sampled_from([64, 256]),
        st.sampled_from(CELL_KINDS),
    )
    def test_cell_probes_match_per_point_trace(self, subdivision, seed, capacity, kind):
        paged = _paged(kind, subdivision, capacity, seed)
        _assert_cell_table_is_certified(kind, paged)
        _assert_parity_with_errors(paged, _cell_parity_points(kind, paged, seed))

    @pytest.mark.parametrize("kind", CELL_KINDS)
    @pytest.mark.parametrize("name", DATASETS)
    def test_table_equals_scalar_certification(self, kind, name, request):
        paged = _paged(kind, request.getfixturevalue(name))
        _, ct = compiled_form(paged)
        assert ct.cell_side > 1 and (ct.cell_depth > 0).any()
        _assert_cell_table_is_certified(kind, paged)

    @pytest.mark.parametrize("kind", CELL_KINDS)
    @pytest.mark.parametrize(
        "make", [park_dataset, uniform_dataset, hospital_dataset],
        ids=["PARK", "UNIFORM", "HOSPITAL"],
    )
    def test_paper_datasets_match_per_point_trace(self, kind, make):
        paged = _paged(kind, make().subdivision, seed=0)
        points = _cell_parity_points(kind, paged)
        rng = random.Random(5)
        _assert_parity_with_errors(paged, rng.sample(points, min(len(points), 3000)))

    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_batch_of_leaf_starts(self, kind, voronoi60):
        """Points that all start at a leaf run no level at all."""
        from repro.obs import collecting

        paged = _paged(kind, voronoi60)
        _, ct = compiled_form(paged)
        points = _leaf_start_points(kind, ct)
        assert points
        with collecting() as col:
            got = batched_trace(paged, points)
        _assert_traces_equal(got, _trace_batch_generic(paged, points))
        assert col.counters.get(f"trace.{kind}.levels", 0) == (kind == "trap")

    @pytest.mark.parametrize("kind", GRID_KINDS)
    def test_cell_boxes_hold_exactly_what_the_lookup_maps_there(self, kind, voronoi60):
        """At every stage, a cell's box runs from the first float the
        lookup sends into it to the last: one ulp outside either end
        lands in the neighbouring cell, or outside the grid box."""
        _, ct = compiled_form(_paged(kind, voronoi60))
        frame, side = ct.cell_frame, ct.cell_side
        xe, ye = _grid_edges(ct)
        outside = side * side

        def fine(xs, ys):
            cell = _cell_of(frame, side, np.asarray(xs), np.asarray(ys))
            return np.where(cell == outside, -1, cell)

        n = 1
        while n <= side:
            r = side // n
            lo_x, hi_x, lo_y, hi_y = _cell_boxes(xe, ye, n)
            cx = np.arange(n * n) % n
            cy = np.arange(n * n) // n
            assert (fine(lo_x, lo_y) == cy * r * side + cx * r).all()
            last = ((cy + 1) * r - 1) * side + (cx + 1) * r - 1
            assert (fine(hi_x, hi_y) == last).all()
            below_x = fine(np.nextafter(lo_x, -np.inf), lo_y)
            assert (below_x == np.where(cx > 0, cy * r * side + cx * r - 1, -1)).all()
            below_y = fine(lo_x, np.nextafter(lo_y, -np.inf))
            assert (below_y == np.where(cy > 0, (cy * r - 1) * side + cx * r, -1)).all()
            past_x = fine(np.nextafter(hi_x, np.inf), hi_y)
            assert (past_x == np.where(cx < n - 1, last + 1, -1)).all()
            past_y = fine(hi_x, np.nextafter(hi_y, np.inf))
            assert (past_y == np.where(cy < n - 1, last + side, -1)).all()
            n *= 2

    @pytest.mark.parametrize(
        "lo, hi, side",
        [(0.0, 1.0, 128), (0.0, 1.0000001, 128), (-0.5, 1.5, 16), (-3e5, 7.1, 64),
         (1e6, 1e6 + 1e-3, 128), (-5.0, -4.0, 32), (-1e-300, 1e-300, 8)],
    )
    def test_cell_edges_are_the_lookups_least_floats(self, lo, hi, side):
        """Each edge is the least float the lookup puts at or past its
        line, frames crossing zero included."""
        scale = np.float64(side / (hi - lo))
        edges = _cell_edges(np.float64(lo), scale, side)
        k = np.arange(side + 1)
        assert ((edges - lo) * scale >= k).all()
        assert ((np.nextafter(edges, -np.inf) - lo) * scale < k).all()

    @pytest.mark.parametrize("kind", GRID_KINDS)
    def test_non_finite_and_outside_points_start_at_the_root(self, kind, voronoi60):
        """They start at the root and fail, or answer, as per point."""
        _, ct = compiled_form(_paged(kind, voronoi60))
        xe, ye = _grid_edges(ct)
        xs = np.array(
            [np.nan, np.inf, -np.inf, 0.5, xe[-1], np.nextafter(xe[0], -np.inf)]
        )
        ys = np.array([0.5, 0.5, 0.5, np.nan, ye[0], ye[0]])
        cells = _cell_of(ct.cell_frame, ct.cell_side, xs, ys)
        assert (cells == ct.cell_side ** 2).all()
        points = [Point(float(x), float(y)) for x, y in zip(xs, ys)]
        paged = _paged(kind, voronoi60)
        # The tracers' cross products of an infinite point warn as the
        # per-point path's do; the answers and errors are what count.
        with np.errstate(invalid="ignore"):
            _assert_parity_with_errors(
                paged, random_points_in(voronoi60, 20) + points
            )

    @settings(max_examples=25, deadline=None)
    @given(_small_subdivisions(), st.integers(0, 10_000), st.sampled_from([64, 256]))
    def test_rstar_cell_probes_match_per_point_trace(self, subdivision, seed, capacity):
        paged = _paged("rstar", subdivision, capacity, seed)
        _assert_rstar_table_is_a_scan(paged)
        _assert_rstar_parity(paged, _cell_parity_points("rstar", paged, seed))

    @pytest.mark.parametrize("name", DATASETS)
    def test_rstar_table_equals_scalar_scan(self, name, request):
        paged = _paged("rstar", request.getfixturevalue(name))
        _, ct = compiled_form(paged)
        entries = len(ct.child)
        # The full row plus cell lists shorter than every entry per cell.
        assert ct.cell_side > 1
        assert entries < len(ct.cell_entry) < entries * (ct.cell_side**2 + 1)
        _assert_rstar_table_is_a_scan(paged)

    @pytest.mark.parametrize(
        "make", [park_dataset, uniform_dataset, hospital_dataset],
        ids=["PARK", "UNIFORM", "HOSPITAL"],
    )
    def test_rstar_paper_datasets_match_per_point_trace(self, make):
        paged = _paged("rstar", make().subdivision, seed=0)
        points = _cell_parity_points("rstar", paged)
        rng = random.Random(5)
        _assert_rstar_parity(paged, rng.sample(points, min(len(points), 3000)))

    def test_rstar_degenerate_box_lists_every_entry(self, voronoi60):
        """Over a query box of zero height every point expands every
        entry, as the root descent does: the MBR-tested pairs are the
        cell-list run's tested plus pruned pairs, and nothing is pruned."""
        from repro.obs import collecting

        paged = _paged("rstar", voronoi60)
        points = random_points_in(voronoi60, 50, seed=2)
        with collecting() as listed:
            want = batched_trace(paged, points, paths=True)
        _, ct = compiled_form(paged)
        _rstar_cell_table(ct, Rect(0.0, 0.5, 1.0, 0.5))
        assert ct.cell_side == 0 and ct.cell_root.tolist() == [0]
        assert ct.cell_entry.tolist() == list(range(len(ct.child)))
        _assert_rstar_table_is_a_scan(paged)
        with collecting() as full:
            got = batched_trace(paged, points, paths=True)
        _assert_traces_equal(got, want)
        assert got.path_packets.tolist() == want.path_packets.tolist()
        _assert_traces_equal(got, _trace_batch_generic(paged, points))
        assert listed.counters["trace.rstar.cell_pruned"] > 0
        assert full.counters.get("trace.rstar.cell_pruned", 0) == 0
        assert full.counters["trace.rstar.pairs"] == (
            listed.counters["trace.rstar.pairs"]
            + listed.counters["trace.rstar.cell_pruned"]
        )

    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_degenerate_box_has_only_the_root_start(self, kind, voronoi60):
        """A query box of zero height gets no grid: every point starts at
        the root, and answers are unchanged."""
        paged = _paged(kind, voronoi60)
        _, ct = compiled_form(paged)
        flat = Rect(0.0, 0.5, 1.0, 0.5)
        if kind == "trian":
            _trian_cell_table(ct, flat, paged._root_dir_packet)
        else:
            _trap_cell_table(ct, flat)
        assert ct.cell_side == 0 and len(ct.cell_node) == 1
        points = random_points_in(voronoi60, 50, seed=2)
        _assert_traces_equal(
            batched_trace(paged, points), _trace_batch_generic(paged, points)
        )

    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_box_past_the_service_area_stops_before_gaps(self, kind, voronoi60):
        """Over a box reaching past the service area, cells lying in gap
        triangles or slivers keep the state before them: points there
        still raise the per-point error."""
        paged = _paged(kind, voronoi60)
        _, ct = compiled_form(paged)
        wide = Rect(-0.5, -0.5, 1.5, 1.5)
        if kind == "trian":
            _trian_cell_table(ct, wide, paged._root_dir_packet)
        else:
            _trap_cell_table(ct, wide)
        _assert_cell_table_is_certified(kind, paged)
        points = _cell_parity_points(kind, paged)
        assert not all(_accepts(paged, p) for p in points)
        _assert_parity_with_errors(paged, points)

    def test_trap_cell_stops_at_an_x_tie_on_its_edge(self):
        """A vertex whose sheared x is a cell's first float: the cell
        may not pass its x-node (the points on that float with y below
        the vertex go left), while the cell past it may."""
        _, ct = compiled_form(_paged("trap", grid_subdivision(2, 2), seed=1))
        xe, _ = _grid_edges(ct)
        edge = float(xe[ct.cell_side // 2 + 1])
        x = _sheared_to(edge, 0.5)
        assert x + SHEAR * 0.5 == edge

        def rect(x0, y0, x1, y1):
            return Polygon([Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1)])

        subdivision = Subdivision(
            [
                DataRegion(0, rect(0.0, 0.0, x, 1.0)),
                DataRegion(1, rect(x, 0.0, 1.0, 0.5)),
                DataRegion(2, rect(x, 0.5, 1.0, 1.0)),
            ],
            service_area=Rect(0.0, 0.0, 1.0, 1.0),
        )
        ties = [Point(_sheared_to(edge, y), y) for y in (0.1, 0.3, 0.49, 0.5, 0.7)]
        for seed in range(8):
            paged = _paged("trap", subdivision, seed=seed)
            _, ct = compiled_form(paged)
            assert edge in _grid_edges(ct)[0]
            assert ((ct.kind == X_NODE) & (ct.ax == edge) & (ct.ay == 0.5)).any()
            _assert_cell_table_is_certified("trap", paged)
            _assert_parity_with_errors(paged, ties + _cell_parity_points("trap", paged))

    def test_work_count_gates_on_park(self):
        """25,000 uniform PARK points: the trian scans expand at most
        500,000 (point, child) pairs (981,199 from the root) and the trap
        descent visits at most 350,000 nodes (578,687 from the root)."""
        from repro.obs import collecting

        subdivision = park_dataset().subdivision
        rng = np.random.default_rng(1)
        n = 25_000
        points = PointBatch(rng.random(n), rng.random(n))
        widths = {
            "trian": "trace.trian.scan_width", "trap": "trace.trap.frontier_width"
        }
        bounds = {"trian": 500_000, "trap": 350_000}
        for kind in CELL_KINDS:
            paged = _paged(kind, subdivision, seed=0)
            with collecting() as col:
                got = batched_trace(paged, points)
            assert 0 < col.histograms[widths[kind]].total <= bounds[kind]
            assert col.counters[f"trace.{kind}.cell_skipped"] > 0
            sample = points[:2000]
            want = _trace_batch_generic(paged, sample)
            assert got.region_ids[:2000].tolist() == want.region_ids.tolist()
            assert got.last_packet[:2000].tolist() == want.last_packet.tolist()
            assert got.tuning_time[:2000].tolist() == want.tuning_time.tolist()

    def test_rstar_work_count_gate_on_park(self):
        """25,000 uniform PARK points: the R* frontier MBR-tests at most
        400,000 (query, entry) pairs (1,338,169 from the root)."""
        from repro.obs import collecting

        subdivision = park_dataset().subdivision
        rng = np.random.default_rng(1)
        n = 25_000
        points = PointBatch(rng.random(n), rng.random(n))
        paged = _paged("rstar", subdivision, seed=0)
        with collecting() as col:
            got = batched_trace(paged, points)
        assert 0 < col.counters["trace.rstar.pairs"] <= 400_000
        assert col.counters["trace.rstar.cell_pruned"] > 0
        sample = points[:2000]
        want = _trace_batch_generic(paged, sample)
        assert got.region_ids[:2000].tolist() == want.region_ids.tolist()
        assert got.last_packet[:2000].tolist() == want.last_packet.tolist()
        assert got.tuning_time[:2000].tolist() == want.tuning_time.tolist()
