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
from repro.core.dtree import DTreeNode
from repro.datasets.catalog import park_dataset
from repro.engine.trace import (
    _compile_trap,
    _store_compiled,
    _trace_batch_generic,
    _trap_paged_descent,
    bump_structure_generation,
    compiled_form,
)
from repro.errors import BroadcastError, QueryError
from repro.geometry.kernels import point_coords
from repro.geometry.point import Point, PointBatch
from repro.geometry.polyline import Polyline
from repro.pointloc import trapezoidal as trap_mod
from repro.pointloc.kirkpatrick import PagedTrianTree
from repro.pointloc.trapezoidal import LEAF, SHEAR, X_NODE, PagedTrapTree
from repro.tessellation.grid import grid_subdivision
from repro.rstar.paged import PagedRStarTree

from tests.conftest import random_points_in
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
        stack = [(paged.tree.root, 0)]
        while stack:
            node, high = stack.pop()
            if high > 0:
                break
            high = max(high, *paged._node_packets[node.node_id])
            stack.extend(
                (child, high)
                for child in (node.left, node.right)
                if isinstance(child, DTreeNode)
            )
        assert high > 0
        paged._node_packets[node.node_id] = [0]
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
        spans = paged._node_packets
        multi = next(nid for nid, pkts in spans.items() if len(pkts) > 1)
        spans[multi] = spans[multi][::-1]
        bump_structure_generation(paged)
        assert compiled_form(paged) is None

        paged = family.build(voronoi60, seed=7).page(family.parameters(64))
        root = paged.tree.root
        child = next(c for c in (root.left, root.right) if isinstance(c, DTreeNode))
        spans = paged._node_packets
        spans[child.node_id] = [spans[root.node_id][-1] - 1]
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
        stack = [(paged.tree.root, 0)]
        while stack:
            node, high = stack.pop()
            if high > 0:
                break
            high = max(high, paged._node_packet[id(node)])
            if not node.is_leaf:
                stack.extend((entry.child, high) for entry in node.entries)
        assert high > 0
        paged._node_packet[id(node)] = 0
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


class TestRStarDriftedLeafMBR:
    """After dynamic updates a leaf entry's MBR can trail its region's
    ring by ulps.  The scalar path gates the polygon test on the ring's
    own bounding box, so the batched leaf kernel must too."""

    def test_points_in_mbr_but_outside_ring_box_match_oracle(self, voronoi60):
        from repro.geometry.point import Point
        from repro.geometry.rect import Rect

        family = index_family("rstar")
        paged = family.build(voronoi60, seed=7).page(family.parameters(256))
        widen = 1e-9
        for node in paged._nodes_preorder():
            if node.is_leaf:
                for entry in node.entries:
                    m = entry.mbr
                    entry.mbr = Rect(
                        m.min_x - widen, m.min_y - widen,
                        m.max_x + widen, m.max_y + widen,
                    )
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
        "rstar": ("trace.rstar.levels", "trace.rstar.leaf_pairs"),
        "trap": ("trace.trap.levels",),
        "trian": ("trace.trian.levels",),
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
    nodes = sorted(paged.tree.iter_nodes(), key=lambda nd: nd.node_id)
    points = adversarial_points(paged.tree.subdivision, max_regions=None)
    for i, node in enumerate(nodes):
        part = node.partition
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
        root = paged.tree.root
        assert root.partition.dimension == "y"
        root.partition.polylines = [
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
        frontier-width total is the number of nodes its paths visit."""
        from repro.obs import collecting

        family = index_family("trap")
        paged = family.build(voronoi60, seed=7).page(family.parameters(64))
        points = random_points_in(voronoi60, 200, seed=41)
        visited = sum(len(_trap_walk(paged.tree, p, True)) for p in points)
        with collecting() as col:
            batched_trace(paged, points)
        assert "trace.trap.nudged" not in col.counters
        assert col.histograms["trace.trap.frontier_width"].total == visited
