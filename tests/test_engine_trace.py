"""Direct unit tests for repro.engine.trace (the batched tracers).

The integration suites exercise the tracers through the query engine;
these tests pin down the module's own contracts: TraceBatch shape,
batched-vs-scalar agreement per family, the shared-prefix optimisation
of the D-tree tracer, the forward-only channel assertion, the registry
dispatch (exact class, subclass via MRO, generic fallback), and the
packet-path CSR of ``paths=True``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.packets import QueryTrace, dedupe_consecutive
from repro.engine import batched_trace, index_family, register_tracer
from repro.engine.trace import (
    TRACER_REGISTRY,
    TraceBatch,
    _check_forward,
    _trace_batch_generic,
)
from repro.errors import BroadcastError

from tests.conftest import random_points_in, set_dtree_span

ALL_KINDS = ("dtree", "trian", "trap", "rstar")


@pytest.fixture(scope="module", params=ALL_KINDS)
def paged(request, voronoi60):
    family = index_family(request.param)
    params = family.parameters(packet_capacity=256)
    return family.build(voronoi60, seed=3).page(params)


class FakePaged:
    """Minimal PagedIndex stand-in with scripted traces."""

    packets = []

    def __init__(self, traces):
        self._traces = list(traces)
        self._cursor = 0

    def trace(self, point):
        trace = self._traces[self._cursor % len(self._traces)]
        self._cursor += 1
        return trace


class TestTraceBatch:
    def test_construction_and_len(self):
        batch = TraceBatch(
            region_ids=np.array([1, 2], np.int64),
            last_packet=np.array([3, 0], np.int64),
            tuning_time=np.array([2, 0], np.int64),
        )
        assert len(batch) == 2
        assert "n=2" in repr(batch)


class TestBatchedVsScalar:
    def test_matches_per_point_trace(self, paged, voronoi60):
        points = random_points_in(voronoi60, 120, seed=17)
        batch = batched_trace(paged, points)
        for i, point in enumerate(points):
            trace = paged.trace(point)
            accessed = trace.packets_accessed
            assert batch.region_ids[i] == trace.region_id
            assert batch.last_packet[i] == (accessed[-1] if accessed else 0)
            assert batch.tuning_time[i] == trace.tuning_time

    def test_generic_fallback_matches_too(self, paged, voronoi60):
        points = random_points_in(voronoi60, 40, seed=18)
        batch = batched_trace(paged, points)
        generic = _trace_batch_generic(paged, points)
        assert np.array_equal(batch.region_ids, generic.region_ids)
        assert np.array_equal(batch.last_packet, generic.last_packet)
        assert np.array_equal(batch.tuning_time, generic.tuning_time)


class TestSharedPrefixReuse:
    def test_identical_points_share_one_descent(self, voronoi60):
        # The D-tree tracer advances a shared frontier: N copies of one
        # point descend together and must all land on the scalar trace.
        family = index_family("dtree")
        paged = family.build(voronoi60, seed=3).page(
            family.parameters(packet_capacity=256)
        )
        point = random_points_in(voronoi60, 1, seed=19)[0]
        batch = batched_trace(paged, [point] * 50)
        assert len(batch) == 50
        trace = paged.trace(point)
        accessed = trace.packets_accessed
        assert set(batch.region_ids.tolist()) == {trace.region_id}
        assert set(batch.last_packet.tolist()) == {
            accessed[-1] if accessed else 0
        }
        assert set(batch.tuning_time.tolist()) == {trace.tuning_time}

    def test_distinct_paths_share_common_prefixes(self, voronoi60):
        # Sanity: many distinct points still collapse to far fewer
        # finalised paths than queries (the tree has bounded leaf count).
        family = index_family("dtree")
        paged = family.build(voronoi60, seed=3).page(
            family.parameters(packet_capacity=256)
        )
        points = random_points_in(voronoi60, 200, seed=20)
        batch = batched_trace(paged, points)
        distinct = {
            (batch.last_packet[i], batch.tuning_time[i], batch.region_ids[i])
            for i in range(len(points))
        }
        assert len(distinct) < len(points)


class TestForwardOnlyAssertion:
    def test_check_forward_accepts_monotone(self):
        _check_forward([])
        _check_forward([0])
        _check_forward([0, 0, 3, 7])

    def test_check_forward_rejects_backwards(self):
        with pytest.raises(BroadcastError, match="moved backwards"):
            _check_forward([0, 4, 2])

    def test_batched_trace_rejects_backwards_trace(self):
        fake = FakePaged([QueryTrace(region_id=1, packets_accessed=[5, 2])])
        with pytest.raises(BroadcastError, match="moved backwards"):
            batched_trace(fake, [object()])


class TestRegistryDispatch:
    def test_register_tracer_wins_over_fallback(self):
        sentinel = TraceBatch(
            np.array([9], np.int64),
            np.array([0], np.int64),
            np.array([0], np.int64),
        )

        class Custom(FakePaged):
            pass

        register_tracer(Custom, lambda paged, points: sentinel)
        try:
            fake = Custom([QueryTrace(region_id=1, packets_accessed=[0])])
            assert batched_trace(fake, [object()]) is sentinel
        finally:
            TRACER_REGISTRY.pop(Custom, None)

    def test_dispatch_walks_the_mro(self):
        sentinel = TraceBatch(
            np.array([9], np.int64),
            np.array([0], np.int64),
            np.array([0], np.int64),
        )

        class Base(FakePaged):
            pass

        class Derived(Base):
            pass

        register_tracer(Base, lambda paged, points: sentinel)
        try:
            fake = Derived([QueryTrace(region_id=1, packets_accessed=[0])])
            assert batched_trace(fake, [object()]) is sentinel
        finally:
            TRACER_REGISTRY.pop(Base, None)

    def test_unregistered_class_uses_generic_fallback(self):
        fake = FakePaged(
            [QueryTrace(region_id=3, packets_accessed=[0, 2, 2, 5])]
        )
        batch = batched_trace(fake, [object()])
        assert batch.region_ids[0] == 3
        assert batch.last_packet[0] == 5
        assert batch.tuning_time[0] == 3  # distinct packets 0, 2, 5


class TestDedupeConsecutive:
    def test_collapses_runs_only(self):
        assert dedupe_consecutive([]) == []
        assert dedupe_consecutive([4, 4, 4]) == [4]
        assert dedupe_consecutive([0, 0, 1, 1, 0]) == [0, 1, 0]

    def test_empty_trace_has_zero_tuning(self):
        fake = FakePaged([QueryTrace(region_id=2, packets_accessed=[])])
        batch = batched_trace(fake, [object()])
        assert batch.last_packet[0] == 0
        assert batch.tuning_time[0] == 0


class TestStructureGeneration:
    """The compiled-SoA caches are stamped with a structure generation;
    bump_structure_generation is the invalidation hook the dynamic
    broadcast layer calls after splicing/re-paging an index."""

    ATTRS = (
        "_compiled_dtree",
        "_compiled_rstar",
        "_compiled_trap",
        "_compiled_trian",
    )

    def _compiled_attr(self, paged):
        missing = object()
        held = [
            a for a in self.ATTRS if getattr(paged, a, missing) is not missing
        ]
        assert len(held) == 1, held
        return held[0]

    def test_bump_invalidates_compiled_cache(self, paged, voronoi60):
        from repro.engine.trace import (
            bump_structure_generation,
            structure_generation,
        )

        points = random_points_in(voronoi60, 8, seed=9)
        first = batched_trace(paged, points)
        attr = self._compiled_attr(paged)
        cached = getattr(paged, attr)
        batched_trace(paged, points)
        assert getattr(paged, attr) is cached  # stable while unmutated

        before = structure_generation(paged)
        assert bump_structure_generation(paged) == before + 1
        again = batched_trace(paged, points)
        if cached is not None:  # None = family fell back to per-point
            assert getattr(paged, attr) is not cached  # recompiled
        assert getattr(paged, attr + "_gen") == structure_generation(paged)
        assert again.region_ids.tolist() == first.region_ids.tolist()
        assert again.last_packet.tolist() == first.last_packet.tolist()

    def test_cached_compiled_respects_generation(self):
        from repro.engine.trace import (
            _cached_compiled,
            _store_compiled,
            bump_structure_generation,
        )

        class Holder:
            pass

        holder, missing = Holder(), object()
        assert _cached_compiled(holder, "_c", missing) is missing
        _store_compiled(holder, "_c", "payload")
        assert _cached_compiled(holder, "_c", missing) == "payload"
        bump_structure_generation(holder)
        assert _cached_compiled(holder, "_c", missing) is missing
        _store_compiled(holder, "_c", "fresh")
        assert _cached_compiled(holder, "_c", missing) == "fresh"


def _paths(batch):
    offsets, packets = batch.path_offsets, batch.path_packets
    return [packets[offsets[i] : offsets[i + 1]].tolist() for i in range(len(batch))]


class TestPacketPaths:
    """``batched_trace(..., paths=True)``: every family returns each
    query's distinct index packets in read order as a CSR, equal to the
    scalar client's deduplicated ``packets_accessed``, without changing
    any other field."""

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_path_csr_matches_scalar_trace(self, paged, voronoi60, seed):
        points = random_points_in(voronoi60, 40, seed=seed % 10_000)
        batch = batched_trace(paged, points, paths=True)
        plain = batched_trace(paged, points)
        expected = [
            list(dict.fromkeys(paged.trace(p).packets_accessed)) for p in points
        ]
        assert _paths(batch) == expected
        assert batch.path_offsets.dtype == batch.path_packets.dtype == np.int64
        assert np.array_equal(batch.region_ids, plain.region_ids)
        assert np.array_equal(batch.last_packet, plain.last_packet)
        assert np.array_equal(batch.tuning_time, plain.tuning_time)
        assert np.array_equal(np.diff(batch.path_offsets), plain.tuning_time)

    def test_without_paths_nothing_is_built(self, paged, voronoi60):
        batch = batched_trace(paged, random_points_in(voronoi60, 5, seed=3))
        assert batch.path_offsets is None and batch.path_packets is None

    def test_single_region_tree_has_empty_paths(self):
        from repro.geometry.point import Point
        from repro.geometry.polygon import Polygon
        from repro.tessellation.subdivision import DataRegion, Subdivision

        square = Polygon([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])
        sub = Subdivision([DataRegion(7, square)])
        family = index_family("dtree")
        paged = family.build(sub, seed=0).page(family.parameters(256))
        points = [Point(0.2, 0.3), Point(0.7, 0.9)]
        batch = batched_trace(paged, points, paths=True)
        plain = batched_trace(paged, points)
        assert batch.path_offsets.tolist() == [0, 0, 0]
        assert batch.path_packets.tolist() == []
        assert batch.region_ids.tolist() == plain.region_ids.tolist() == [7, 7]
        assert batch.last_packet.tolist() == plain.last_packet.tolist()
        assert batch.tuning_time.tolist() == plain.tuning_time.tolist() == [0, 0]

    def test_generic_paths_deduplicate(self):
        fake = FakePaged(
            [QueryTrace(region_id=3, packets_accessed=[0, 2, 2, 5])]
        )
        batch = batched_trace(fake, [object()], paths=True)
        assert _paths(batch) == [[0, 2, 5]]

    def test_backwards_trace_raises_as_before(self):
        fake = FakePaged([QueryTrace(region_id=1, packets_accessed=[5, 2])])
        with pytest.raises(BroadcastError) as plain:
            batched_trace(fake, [object()])
        with pytest.raises(BroadcastError) as with_paths:
            batched_trace(fake, [object()], paths=True)
        assert str(with_paths.value) == str(plain.value)

    def test_backwards_dtree_raises_as_before(self, voronoi60):
        from repro.engine.trace import bump_structure_generation

        family = index_family("dtree")
        paged = family.build(voronoi60, seed=7).page(family.parameters(64))
        points = random_points_in(voronoi60, 200, seed=29)
        # Re-point a node below a nonzero packet at packet 0.
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
        with pytest.raises(BroadcastError) as plain:
            batched_trace(paged, points)
        with pytest.raises(BroadcastError) as with_paths:
            batched_trace(paged, points, paths=True)
        assert str(with_paths.value) == str(plain.value)
        assert "moved backwards" in str(plain.value)
