"""The batched query engine and the AirIndex protocol/registry.

The core guarantee under test: :func:`repro.engine.evaluate_workload`
(and hence the rewired :func:`repro.broadcast.evaluate_index`) is
*bit-for-bit identical* to the per-query reference path
:func:`tests.oracles.evaluate_index_per_query` — per-query arrays and
the reduced :class:`MetricsSummary` alike — for all four index families.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.broadcast.client import BroadcastClient
from repro.broadcast.disks import SkewedBroadcastSchedule
from repro.broadcast.metrics import evaluate_index
from repro.broadcast.schedule import BroadcastSchedule
from repro.engine import (
    INDEX_REGISTRY,
    AirIndex,
    IndexFamily,
    QueryEngine,
    available_index_kinds,
    batched_trace,
    evaluate_workload,
    index_family,
    register_index,
)
from repro.errors import BroadcastError, ReproError
from repro.geometry.point import Point

from tests.conftest import random_points_in
from tests.oracles import evaluate_index_per_query

ALL_KINDS = ("dtree", "trian", "trap", "rstar")

SUMMARY_FIELDS = (
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


@pytest.fixture(scope="module", params=ALL_KINDS)
def paged_cell(request, voronoi60):
    """One (paged index, region ids, params) cell per index family."""
    family = index_family(request.param)
    params = family.parameters(packet_capacity=256)
    paged = family.build(voronoi60, seed=3).page(params)
    return request.param, paged, voronoi60, params


def assert_summaries_identical(a, b):
    for field in SUMMARY_FIELDS:
        assert getattr(a, field) == getattr(b, field), field


class TestAirIndexProtocol:
    def test_builtin_classes_satisfy_protocol(self, grid4x4):
        for kind in ALL_KINDS:
            tree = index_family(kind).build(grid4x4)
            assert isinstance(tree, AirIndex), kind

    def test_registry_canonical_order(self):
        assert available_index_kinds()[:4] == ALL_KINDS

    def test_lookup_is_case_insensitive(self):
        assert index_family("DTree") is INDEX_REGISTRY["dtree"]

    def test_unknown_kind_raises(self):
        with pytest.raises(ReproError, match="unknown index kind"):
            index_family("btree")

    def test_duplicate_registration_needs_replace(self):
        family = INDEX_REGISTRY["dtree"]
        with pytest.raises(ReproError, match="already registered"):
            register_index(family)
        assert register_index(family, replace=True) is family

    def test_rejects_class_missing_protocol_methods(self):
        with pytest.raises(ReproError, match="does not satisfy"):
            register_index(IndexFamily("bogus", object, "Bogus"))
        assert "bogus" not in INDEX_REGISTRY

    def test_family_parameters_match_table2_profile(self):
        params = INDEX_REGISTRY["dtree"].parameters(packet_capacity=512)
        assert params.header_size == 2
        assert params.pointer_size == 4
        assert params.packet_capacity == 512

    def test_build_paged_convenience(self, grid4x4):
        paged = INDEX_REGISTRY["dtree"].build_paged(grid4x4, 128)
        assert len(paged.packets) >= 1

    def test_locate_through_protocol(self, grid4x4):
        for kind in ALL_KINDS:
            tree = index_family(kind).build(grid4x4)
            region = tree.locate(Point(0.1, 0.1))
            assert region in set(grid4x4.region_ids)


class TestEngineMatchesPerQueryOracle:
    """evaluate_workload == evaluate_index_per_query, bit for bit."""

    @pytest.mark.parametrize("capacity", [64, 256, 1024])
    def test_per_query_arrays_identical(self, paged_cell, capacity):
        kind, _, subdivision, _ = paged_cell
        family = index_family(kind)
        params = family.parameters(capacity)
        paged = family.build(subdivision, seed=3).page(params)
        points = random_points_in(subdivision, 300, seed=17)
        region_ids = subdivision.region_ids

        batch = evaluate_workload(paged, region_ids, params, points, seed=5)

        schedule = BroadcastSchedule(
            index_packet_count=len(paged.packets),
            region_ids=list(region_ids),
            params=params,
        )
        client = BroadcastClient(paged, schedule)
        rng = random.Random(5)
        issue_times = [rng.uniform(0, schedule.cycle_length) for _ in points]
        results = client.run_workload(points, issue_times=issue_times)

        for i, r in enumerate(results):
            assert batch.region_ids[i] == r.region_id
            assert batch.access_latency[i] == r.access_latency
            assert batch.index_tuning_time[i] == r.index_tuning_time
            assert batch.total_tuning_time[i] == r.total_tuning_time

        assert_summaries_identical(
            batch.summary(region_ids, params),
            evaluate_index_per_query(
                paged, region_ids, params, points, seed=5
            ),
        )

    def test_evaluate_index_delegates_to_engine(self, paged_cell):
        kind, paged, subdivision, params = paged_cell
        points = random_points_in(subdivision, 200, seed=23)
        assert_summaries_identical(
            evaluate_index(paged, subdivision.region_ids, params, points, seed=9),
            evaluate_index_per_query(
                paged, subdivision.region_ids, params, points, seed=9
            ),
        )

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_property_any_seed_any_workload(self, paged_cell, seed):
        """For any workload/issue-time seed, engine == oracle exactly."""
        kind, paged, subdivision, params = paged_cell
        n = 20 + seed % 40
        points = random_points_in(subdivision, n, seed=seed)
        batch = evaluate_workload(
            paged, subdivision.region_ids, params, points, seed=seed
        )
        oracle = evaluate_index_per_query(
            paged, subdivision.region_ids, params, points, seed=seed
        )
        assert_summaries_identical(
            batch.summary(subdivision.region_ids, params), oracle
        )

    def test_batched_trace_matches_paged_trace(self, paged_cell):
        kind, paged, subdivision, _ = paged_cell
        points = random_points_in(subdivision, 150, seed=31)
        traces = batched_trace(paged, points)
        for i, point in enumerate(points):
            reference = paged.trace(point)
            assert traces.region_ids[i] == reference.region_id
            assert traces.last_packet[i] == max(reference.packets_accessed)
            assert traces.tuning_time[i] == reference.tuning_time

    def test_skewed_schedule_falls_back_per_query(self, paged_cell):
        """Duck-typed schedules take the per-query timeline path and still
        match the oracle exactly."""
        kind, paged, subdivision, params = paged_cell
        region_ids = subdivision.region_ids
        weights = {rid: 1.0 + (rid % 5) for rid in region_ids}
        points = random_points_in(subdivision, 120, seed=41)

        def make_schedule():
            return SkewedBroadcastSchedule(
                index_packet_count=len(paged.packets),
                region_weights=weights,
                params=params,
            )

        batch = evaluate_workload(
            paged, region_ids, params, points, seed=7, schedule=make_schedule()
        )
        oracle = evaluate_index_per_query(
            paged, region_ids, params, points, seed=7, schedule=make_schedule()
        )
        assert_summaries_identical(batch.summary(region_ids, params), oracle)

    def test_workload_object_and_point_list_agree(self, paged_cell):
        kind, paged, subdivision, params = paged_cell
        points = random_points_in(subdivision, 50, seed=2)
        workload = repro.QueryWorkload("test", points)
        a = evaluate_workload(
            paged, subdivision.region_ids, params, workload, seed=1
        )
        b = evaluate_workload(
            paged, subdivision.region_ids, params, points, seed=1
        )
        assert (a.access_latency == b.access_latency).all()
        assert (a.index_tuning_time == b.index_tuning_time).all()


class TestEngineErrors:
    def test_empty_workload_rejected(self, paged_cell):
        kind, paged, subdivision, params = paged_cell
        with pytest.raises(BroadcastError, match="at least one query"):
            evaluate_workload(paged, subdivision.region_ids, params, [])

    def test_mismatched_schedule_rejected(self, paged_cell):
        kind, paged, subdivision, params = paged_cell
        wrong = BroadcastSchedule(
            index_packet_count=len(paged.packets) + 3,
            region_ids=list(subdivision.region_ids),
            params=params,
        )
        with pytest.raises(BroadcastError, match="different index size"):
            evaluate_workload(
                paged,
                subdivision.region_ids,
                params,
                [Point(0.5, 0.5)],
                schedule=wrong,
            )

    def test_mismatched_issue_times_rejected(self, paged_cell):
        kind, paged, subdivision, params = paged_cell
        schedule = BroadcastSchedule(
            index_packet_count=len(paged.packets),
            region_ids=list(subdivision.region_ids),
            params=params,
        )
        engine = QueryEngine(paged, schedule)
        points = random_points_in(subdivision, 4, seed=0)
        with pytest.raises(BroadcastError, match="issue times"):
            engine.run(points, issue_times=[0.0, 1.0])


class _GridIndex:
    """A toy fifth index family: a flat wrapper around the D-tree that
    exists only to prove one-file registry extension."""

    def __init__(self, inner):
        self._inner = inner

    @classmethod
    def build(cls, subdivision, *, seed=0):
        from repro.core.dtree import DTree

        return cls(DTree.build(subdivision, seed=seed))

    def page(self, params):
        return self._inner.page(params)

    def locate(self, point):
        return self._inner.locate(point)


class TestRegistryExtension:
    def test_fifth_family_is_swept_automatically(self, grid4x4):
        import types

        from repro.experiments.runner import run_cell

        family = IndexFamily("toygrid", _GridIndex, "Toy-grid", 2, 4)
        register_index(family)
        try:
            assert "toygrid" in available_index_kinds()
            assert isinstance(_GridIndex.build(grid4x4), AirIndex)
            dataset = types.SimpleNamespace(name="grid", subdivision=grid4x4)
            cell = run_cell(dataset, "toygrid", 256, queries=30, seed=1)
            assert cell.index_kind == "toygrid"
            assert cell.metrics.queries == 30
        finally:
            INDEX_REGISTRY.pop("toygrid", None)


class TestFamilyBuildAndPage:
    """``index_family(kind).build`` / ``.page`` — the spelling that
    replaced the removed string-dispatch helpers."""

    def test_build_locates(self, grid4x4):
        tree = index_family("dtree").build(grid4x4, seed=1)
        assert tree.locate(Point(0.1, 0.1)) in set(grid4x4.region_ids)

    def test_page_yields_packets(self, grid4x4):
        params = index_family("dtree").parameters(256)
        paged = index_family("dtree").build(grid4x4).page(params)
        assert len(paged.packets) >= 1

    def test_rstar_builds_and_pages(self, grid4x4):
        family = index_family("rstar")
        paged = family.build(grid4x4).page(family.parameters(256))
        assert len(paged.packets) >= 1


class TestLazyTopLevelExports:
    def test_engine_names_resolve_from_repro(self):
        assert repro.INDEX_REGISTRY is INDEX_REGISTRY
        assert repro.evaluate_workload is evaluate_workload
        assert repro.AirIndex is AirIndex

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.no_such_symbol
