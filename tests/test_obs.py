"""Unit tests for the ``repro.obs`` observability layer.

The layer's contract (DESIGN.md §10) is threefold: counters/histograms/
spans accumulate correctly when a collector is installed, nothing
observable happens when none is, and the exported profile document
validates against its own schema checker.
"""

import json

import numpy as np
import pytest

from repro.obs import (
    Collector,
    Histogram,
    NULL_SPAN,
    PROFILE_SCHEMA,
    active_collector,
    collecting,
    install,
    null_span,
    profile_csv,
    profile_document,
    uninstall,
    validate_profile,
    write_profile,
)


class TestHistogram:
    def test_bucket_of_powers_of_two(self):
        assert Histogram.bucket_of(0) == 1
        assert Histogram.bucket_of(1) == 1
        assert Histogram.bucket_of(2) == 2
        assert Histogram.bucket_of(3) == 4
        assert Histogram.bucket_of(4) == 4
        assert Histogram.bucket_of(5) == 8
        assert Histogram.bucket_of(1000) == 1024

    def test_observe_accumulates(self):
        hist = Histogram()
        for v in (1, 2, 3, 100):
            hist.observe(v)
        assert hist.count == 4
        assert hist.total == 106.0
        assert hist.min == 1.0
        assert hist.max == 100.0
        assert hist.mean == 26.5
        assert hist.buckets == {1: 1, 2: 1, 4: 1, 128: 1}

    def test_bounded_size(self):
        hist = Histogram()
        for v in range(10_000):
            hist.observe(v)
        # Buckets are powers of two: ~log2(10000) of them, not 10000.
        assert len(hist.buckets) <= 16
        assert sum(hist.buckets.values()) == hist.count

    def test_to_dict_fields(self):
        hist = Histogram()
        hist.observe(5)
        d = hist.to_dict()
        assert d["count"] == 1
        assert d["buckets"] == {"8": 1}

    def test_empty_histogram_mean(self):
        assert Histogram().mean == 0.0


class TestCollector:
    def test_counters_accumulate(self):
        col = Collector()
        col.count("a")
        col.count("a", 2)
        col.count("b", 0.5)
        assert col.counters == {"a": 3, "b": 0.5}

    def test_observe_routes_to_named_histograms(self):
        col = Collector()
        col.observe("x", 3)
        col.observe("x", 5)
        col.observe("y", 1)
        assert col.histograms["x"].count == 2
        assert col.histograms["y"].count == 1

    def test_observe_each(self):
        col = Collector()
        col.observe_each("x", [1, 2, 3])
        assert col.histograms["x"].count == 3

    def test_observe_each_is_a_loop_of_observe(self):
        # Values at or below 1, exact powers of two and their float
        # neighbours (bucket edges), negatives and a wide spread, whose
        # left-to-right total np.sum's pairwise order would not match.
        powers = 2.0 ** np.arange(-3, 40)
        rng = np.random.default_rng(4)
        values = np.concatenate((
            [1.0, 0.5, 0.0, -0.0, -1.0, -3.5, 1e-300],
            powers,
            np.nextafter(powers, np.inf),
            np.nextafter(powers, -np.inf),
            rng.standard_normal(500) * 10.0 ** rng.integers(-8, 12, 500),
        ))
        looped = Histogram()
        looped.observe(7.25)
        for value in values.tolist():
            looped.observe(value)
        batched = Collector()
        batched.observe("x", 7.25)
        batched.observe_each("x", values)
        hist = batched.histograms["x"]
        assert hist.buckets == looped.buckets
        assert hist.total.hex() == looped.total.hex()
        for field in ("count", "min", "max"):
            assert getattr(hist, field) == getattr(looped, field)
        batched.observe_each("x", [])
        assert batched.histograms["x"].count == looped.count

    def test_count_each_adds_left_to_right(self):
        # Bit for bit a loop of count(), which np.sum's pairwise order
        # is not.
        rng = np.random.default_rng(0)
        values = rng.standard_normal(1000) * 10.0 ** rng.integers(-8, 8, 1000)
        looped, batched = Collector(), Collector()
        looped.count("x", 3)
        batched.count("x", 3)
        for value in values.tolist():
            looped.count("x", value)
        batched.count_each("x", values)
        assert batched.counters == looped.counters
        batched.count_each("y", values[:0])
        assert "y" not in batched.counters

    def test_spans_record_nesting_and_timing(self):
        col = Collector()
        with col.span("outer"):
            with col.span("inner"):
                pass
        names = [(s.name, s.parent) for s in col.spans]
        assert names == [("inner", "outer"), ("outer", None)]
        for s in col.spans:
            assert s.elapsed_s >= 0
            assert s.start_s >= 0

    def test_span_totals_aggregates(self):
        col = Collector()
        for _ in range(3):
            with col.span("loop"):
                pass
        totals = col.span_totals()
        assert totals["loop"]["count"] == 3
        assert totals["loop"]["total_s"] >= totals["loop"]["max_s"]

    def test_max_spans_overflow_is_counted_not_raised(self):
        col = Collector(max_spans=2)
        for _ in range(5):
            with col.span("s"):
                pass
        assert len(col.spans) == 2
        assert col.dropped_spans == 3


class TestInstallation:
    def test_off_by_default(self):
        assert active_collector() is None

    def test_install_uninstall(self):
        col = Collector()
        assert install(col) is None
        try:
            assert active_collector() is col
        finally:
            assert uninstall() is col
        assert active_collector() is None

    def test_collecting_restores_previous(self):
        outer = Collector()
        with collecting(outer):
            assert active_collector() is outer
            with collecting() as inner:
                assert active_collector() is inner
                assert inner is not outer
            assert active_collector() is outer
        assert active_collector() is None

    def test_collecting_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with collecting():
                raise RuntimeError("boom")
        assert active_collector() is None

    def test_null_span_is_reusable_noop(self):
        assert null_span("anything") is NULL_SPAN
        with NULL_SPAN:
            with NULL_SPAN:
                pass  # reentrant


class TestExport:
    def _collector_with_data(self):
        col = Collector()
        col.count("engine.queries", 10)
        col.observe("engine.batch_size", 10)
        with col.span("engine.run"):
            pass
        return col

    def test_document_validates(self):
        doc = profile_document(self._collector_with_data())
        assert validate_profile(doc) is doc
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["counters"]["engine.queries"] == 10

    def test_document_version_matches_package(self):
        import repro

        doc = profile_document(Collector())
        assert doc["version"] == repro.__version__

    def test_document_is_json_serializable(self):
        doc = profile_document(self._collector_with_data())
        assert validate_profile(json.loads(json.dumps(doc)))

    def test_csv_has_all_kinds(self):
        text = profile_csv(self._collector_with_data())
        lines = text.splitlines()
        assert lines[0] == "kind,name,field,value"
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"counter", "histogram", "span"}

    def test_write_profile_emits_json_and_csv(self, tmp_path):
        target = tmp_path / "profile.json"
        path = write_profile(self._collector_with_data(), target)
        assert path == target
        doc = json.loads(target.read_text())
        assert validate_profile(doc)
        assert (tmp_path / "profile.csv").read_text().startswith("kind,")

    @pytest.mark.parametrize(
        "mutation, message",
        [
            (lambda d: d.pop("counters"), "missing key"),
            (lambda d: d.update(schema="bogus/9"), "schema is"),
            (lambda d: d["counters"].update(bad="nan"), "must be a number"),
            (
                lambda d: d["histograms"]["engine.batch_size"]["buckets"].update(
                    {"2": 99}
                ),
                "do not sum",
            ),
            (lambda d: d.update(dropped_spans=-1), "dropped_spans"),
            (lambda d: d["spans"][0].pop("elapsed_s"), "span record missing"),
        ],
    )
    def test_validate_rejects_malformed(self, mutation, message):
        doc = profile_document(self._collector_with_data())
        mutation(doc)
        with pytest.raises(ValueError, match=message):
            validate_profile(doc)


class TestInstrumentationSmoke:
    """The instrumented subsystems emit their taxonomy when collected."""

    def test_engine_counters(self, voronoi60):
        from repro.broadcast.params import SystemParameters
        from repro.engine import index_family
        from repro.engine.batch import evaluate_workload

        from tests.conftest import random_points_in

        params = SystemParameters.for_index("dtree", 256)
        paged = index_family("dtree").build(voronoi60, seed=0).page(params)
        points = random_points_in(voronoi60, 30, seed=1)
        with collecting() as col:
            result = evaluate_workload(
                paged, voronoi60.region_ids, params, points, seed=2
            )
            result.summary(voronoi60.region_ids, params)
        assert col.counters["engine.runs"] == 1
        assert col.counters["engine.queries"] == 30
        assert col.counters["client.probes"] == 30
        assert col.counters["client.packets.index"] > 0
        assert col.counters["trace.PagedDTree.queries"] == 30
        assert col.histograms["engine.batch_size"].count == 1
        assert col.histograms["trace.dtree.frontier_width"].count > 0
        span_names = {s.name for s in col.spans}
        assert {"engine.run", "engine.trace", "engine.timeline",
                "engine.summary"} <= span_names
        parents = {s.name: s.parent for s in col.spans}
        assert parents["engine.trace"] == "engine.run"
        assert parents["engine.timeline"] == "engine.run"

    @pytest.mark.parametrize(
        "timeline", ["schedule", "disks", "replicated", "distributed"]
    )
    @pytest.mark.parametrize("kind", ["dtree", "trap"])
    def test_engine_traces_each_query_once(self, voronoi60, kind, timeline):
        from repro.broadcast.disks import SkewedBroadcastSchedule
        from repro.broadcast.params import SystemParameters
        from repro.broadcast.plan import BroadcastPlan
        from repro.broadcast.schedule import BroadcastSchedule
        from repro.engine import QueryEngine, index_family

        from tests.conftest import random_points_in

        params = SystemParameters.for_index(kind, 256)
        paged = index_family(kind).build(voronoi60, seed=0).page(params)
        size, regions = len(paged.packets), voronoi60.region_ids
        if timeline == "schedule":
            timeline = BroadcastSchedule(size, regions, params)
        elif timeline == "disks":
            weights = {rid: 1.0 + rid % 3 for rid in regions}
            timeline = SkewedBroadcastSchedule(size, weights, params)
        else:
            timeline = BroadcastPlan(
                size, regions, params, channels=4, index_placement=timeline
            )
        points = random_points_in(voronoi60, 40, seed=5)
        with collecting() as col:
            QueryEngine(paged, timeline).run(points, seed=1)
        assert col.counters[f"trace.{type(paged).__name__}.queries"] == 40
        assert col.counters["walk.batched_queries"] == 40
        assert col.counters["client.queries"] == 40

    def test_simulation_counters(self, voronoi60):
        from repro.broadcast.params import SystemParameters
        from repro.engine import index_family
        from repro.simulation import simulate_workload

        from tests.conftest import random_points_in

        params = SystemParameters.for_index("dtree", 256)
        paged = index_family("dtree").build(voronoi60, seed=0).page(params)
        points = random_points_in(voronoi60, 25, seed=3)
        with collecting() as col:
            simulate_workload(
                paged,
                voronoi60.region_ids,
                params,
                points,
                seed=4,
                error_rate=0.05,
                index_kind="dtree",
            )
        assert col.counters["sim.runs"] == 1
        assert col.counters["sim.queries"] == 25
        assert col.counters["sim.index.dtree.queries"] == 25
        assert col.counters["sim.read_attempts"] > 0
        assert col.counters["sim.energy.receive_j"] > 0
        assert col.counters["sim.energy.doze_j"] > 0
        assert "sim.run" in {s.name for s in col.spans}

    @pytest.mark.parametrize("error_rate", [0.0, 0.05, 0.5])
    def test_walk_counters_split_the_simulated_queries(
        self, voronoi60, error_rate
    ):
        from repro.broadcast.params import SystemParameters
        from repro.engine import index_family
        from repro.simulation import simulate_workload

        from tests.conftest import random_points_in

        params = SystemParameters.for_index("dtree", 256)
        paged = index_family("dtree").build(voronoi60, seed=0).page(params)
        points = random_points_in(voronoi60, 60, seed=6)

        def run():
            return simulate_workload(
                paged, voronoi60.region_ids, params, points, seed=8,
                error_rate=error_rate, error_model="gilbert",
                index_kind="dtree",
            )

        plain = run()
        with collecting() as col:
            observed = run()
        assert observed == plain
        counters = col.counters
        batched = counters.get("walk.batched_queries", 0)
        replayed = counters.get("walk.replayed_queries", 0)
        assert batched + replayed == counters["sim.queries"] == 60
        if error_rate == 0.0:
            assert replayed == 0
        else:
            assert replayed > 0
            assert replayed >= int((observed.packet_losses > 0).sum())

    def test_kernel_histograms(self, voronoi60):
        from repro.geometry.kernels import CompiledSubdivision

        from tests.conftest import random_points_in

        compiled = CompiledSubdivision(voronoi60)
        points = random_points_in(voronoi60, 20, seed=5)
        with collecting() as col:
            compiled.locate_coords(
                [p.x for p in points], [p.y for p in points]
            )
        assert col.histograms["kernels.locate_batch.size"].count == 1
        assert col.histograms["kernels.locate_batch.size"].max == 20.0


class TestMerge:
    """Collector/Histogram merge — the join step of multi-process runs."""

    def test_histogram_merge_equals_monolithic(self):
        values = [0.5, 1.0, 3.0, 17.0, 1024.0, 2.0, 9.0]
        whole = Histogram()
        for v in values:
            whole.observe(v)
        left, right = Histogram(), Histogram()
        for v in values[:3]:
            left.observe(v)
        for v in values[3:]:
            right.observe(v)
        left.merge(right)
        assert left.count == whole.count
        assert left.total == whole.total
        assert left.min == whole.min and left.max == whole.max
        assert left.buckets == whole.buckets

    def test_histogram_merge_with_empty_is_identity(self):
        hist = Histogram()
        hist.observe(5.0)
        before = hist.to_dict()
        hist.merge(Histogram())
        assert hist.to_dict() == before
        empty = Histogram()
        empty.merge(hist)
        assert empty.to_dict() == before

    def test_collector_merge_counters_histograms_spans(self):
        a, b = Collector(), Collector()
        a.count("shared", 2)
        a.observe("h", 3.0)
        with a.span("left"):
            pass
        b.count("shared", 5)
        b.count("only_b")
        b.observe("h", 9.0)
        with b.span("right"):
            pass
        a.merge(b)
        assert a.counters["shared"] == 7
        assert a.counters["only_b"] == 1
        assert a.histograms["h"].count == 2
        assert {s.name for s in a.spans} == {"left", "right"}

    def test_collector_merge_respects_span_cap(self):
        a = Collector(max_spans=3)
        b = Collector()
        for _ in range(2):
            with a.span("a"):
                pass
        for _ in range(4):
            with b.span("b"):
                pass
        a.merge(b)
        assert len(a.spans) == 3
        assert a.dropped_spans == 3


class TestForkSafety:
    def test_child_does_not_inherit_ambient_collector(self):
        import multiprocessing as mp

        if not hasattr(mp, "get_context"):
            pytest.skip("multiprocessing unavailable")
        ctx = mp.get_context("fork")
        with collecting():
            with ctx.Pool(1) as pool:
                inherited = pool.apply(_child_sees_collector)
        assert inherited is False

    def test_reset_in_child_clears_handle(self):
        from repro.obs.collector import _reset_in_child

        install(Collector())
        try:
            _reset_in_child()
            assert active_collector() is None
        finally:
            uninstall()


def _child_sees_collector():
    """Pool task: report whether an ambient collector leaked into us."""
    return active_collector() is not None
