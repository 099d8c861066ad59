"""Integration tests for the fleet layer: chunk-size and worker-count
invariance, shared-memory fan-out, compensated energy totals and
profile merging.  The single-process runner is the oracle every
multi-process configuration is compared against."""

import math
import pickle

import numpy as np
import pytest

from repro.broadcast.params import SystemParameters
from repro.broadcast.schedule import BroadcastSchedule
from repro.engine import QueryEngine, index_family
from repro.errors import ReproError
from repro.fleet import (
    FleetRunner,
    FleetSpec,
    ShmArena,
    UniformFleetWorkload,
    run_fleet,
    spawned_seed,
)
from repro.fleet.shm import export_compiled_state
from repro.obs import collecting
from repro.datasets.catalog import SERVICE_AREA, uniform_dataset

INDEX_KINDS = ("dtree", "trian", "trap", "rstar")


@pytest.fixture(scope="module")
def fleet_world():
    """One small dataset with a paged index, schedule and spec per kind."""
    dataset = uniform_dataset(n=40, seed=5)
    world = {}
    for kind in INDEX_KINDS:
        family = index_family(kind)
        params = family.parameters(256)
        paged = family.build(dataset.subdivision, seed=5).page(params)
        schedule = BroadcastSchedule(
            index_packet_count=len(paged.packets),
            region_ids=list(dataset.subdivision.region_ids),
            params=params,
        )
        world[kind] = (paged, schedule, params)
    return dataset, world


def _spec(fleet_world, kind="dtree", mode="engine", **kwargs):
    _, world = fleet_world
    paged, schedule, params = world[kind]
    workload = UniformFleetWorkload(SERVICE_AREA, schedule.cycle_length, seed=9)
    return FleetSpec(
        paged_index=paged,
        schedule=schedule,
        params=params,
        workload=workload,
        mode=mode,
        index_kind=kind,
        **kwargs,
    )


class TestWorkload:
    def test_chunking_is_transparent(self):
        workload = UniformFleetWorkload(SERVICE_AREA, 1000, seed=3)
        whole_pts, whole_times = workload.chunk(0, 500)
        left_pts, left_times = workload.chunk(0, 179)
        right_pts, right_times = workload.chunk(179, 321)
        assert whole_pts == left_pts + right_pts
        np.testing.assert_array_equal(
            whole_times, np.concatenate([left_times, right_times])
        )

    def test_points_inside_area_and_times_in_cycle(self):
        workload = UniformFleetWorkload(SERVICE_AREA, 640, seed=0)
        points, times = workload.chunk(0, 300)
        for p in points:
            assert SERVICE_AREA.contains_point(p)
        assert np.all(times >= 0) and np.all(times < 640)

    def test_spawned_seed_deterministic_and_distinct(self):
        seeds = [spawned_seed(7, k) for k in range(50)]
        assert seeds == [spawned_seed(7, k) for k in range(50)]
        assert len(set(seeds)) == 50


class TestShmArena:
    def test_round_trip_and_zero_copy(self):
        arrays = {
            "a": np.arange(100, dtype=np.int64),
            "b": np.linspace(0, 1, 37, dtype=np.float64),
        }
        arena = ShmArena.create(arrays)
        try:
            attached = ShmArena.attach(arena.shm.name, arena.manifest)
            try:
                for name, src in arrays.items():
                    view = attached.view(name)
                    np.testing.assert_array_equal(view, src)
                    assert view.dtype == src.dtype
                # Zero-copy: writes through one mapping are visible in
                # the other because both alias the same shared block.
                arena.view("a")[0] = -1
                assert attached.view("a")[0] == -1
            finally:
                attached.close()
        finally:
            arena.close()
            arena.unlink()

    def test_export_compiled_state_dtree(self, fleet_world):
        _, world = fleet_world
        paged, schedule, _ = world["dtree"]
        engine = QueryEngine(paged, schedule)
        arrays, meta = export_compiled_state(paged, engine)
        assert meta["family"] == "dtree"
        assert any(name.startswith("dtree.") for name in arrays)
        assert "schedule.segment_starts" in arrays

    @pytest.mark.parametrize("kind", ("trap", "trian"))
    def test_export_compiled_state_trap_trian(self, fleet_world, kind):
        _, world = fleet_world
        paged, schedule, _ = world[kind]
        engine = QueryEngine(paged, schedule)
        arrays, meta = export_compiled_state(paged, engine)
        assert meta["family"] == kind
        assert any(name.startswith(f"{kind}.") for name in arrays)
        assert "schedule.segment_starts" in arrays


class TestEngineModeDeterminism:
    def test_answers_invariant_to_chunk_size(self, fleet_world):
        spec = _spec(fleet_world)
        whole = FleetRunner(spec, chunk_size=1200).run(1200)
        chunked = FleetRunner(spec, chunk_size=173).run(1200)
        np.testing.assert_array_equal(
            whole.merged_answers(), chunked.merged_answers()
        )
        assert whole.queries == chunked.queries == 1200
        # Sums may differ in grouping, so only to float tolerance.
        for key, value in whole.summary().items():
            assert chunked.summary()[key] == pytest.approx(
                value, rel=1e-12, nan_ok=True
            )

    def test_worker_count_invariance_fork(self, fleet_world):
        spec = _spec(fleet_world)
        solo = FleetRunner(spec, chunk_size=300).run(1500)
        fanned = FleetRunner(
            spec, chunk_size=300, workers=3, start_method="fork"
        ).run(1500)
        np.testing.assert_array_equal(
            solo.merged_answers(), fanned.merged_answers()
        )
        s1, s3 = solo.summary(), fanned.summary()
        for key in s1:
            assert s1[key] == s3[key] or (
                math.isnan(s1[key]) and math.isnan(s3[key])
            )

    def test_worker_count_invariance_spawn(self, fleet_world):
        spec = _spec(fleet_world)
        solo = FleetRunner(spec, chunk_size=250).run(750)
        fanned = FleetRunner(
            spec, chunk_size=250, workers=2, start_method="spawn"
        ).run(750)
        np.testing.assert_array_equal(
            solo.merged_answers(), fanned.merged_answers()
        )
        assert solo.summary() == fanned.summary()

    def test_fleet_matches_monolithic_engine_all_families(self, fleet_world):
        dataset, world = fleet_world
        for kind in INDEX_KINDS:
            spec = _spec(fleet_world, kind=kind)
            report = FleetRunner(spec, chunk_size=160).run(480)
            points, times = spec.workload.chunk(0, 480)
            paged, schedule, params = world[kind]
            result = QueryEngine(paged, schedule).run(points, issue_times=times)
            np.testing.assert_array_equal(
                report.merged_answers(), result.region_ids, err_msg=kind
            )
            assert report.metrics["access_latency"].total == pytest.approx(
                float(np.sum(result.access_latency)), rel=1e-12
            )

    def test_energy_total_matches_fsum_oracle(self, fleet_world):
        spec = _spec(fleet_world)
        report = FleetRunner(spec, chunk_size=100).run(1100)
        points, times = spec.workload.chunk(0, 1100)
        paged, schedule, params = spec.paged_index, spec.schedule, spec.params
        result = QueryEngine(paged, schedule).run(points, issue_times=times)
        energy = spec.energy_model.batch_joules(
            result.total_tuning_time,
            result.access_latency,
            params.packet_capacity,
        )
        oracle = math.fsum(float(v) for v in energy)
        assert report.metrics["energy_joules"].total == pytest.approx(
            oracle, rel=1e-13
        )


class TestTrapTrianWorkerParity:
    """The compiled trap/trian state fans out through the arena with
    exact worker-count invariance: answers array-exact, every summary
    float bit-identical, under both start methods."""

    @pytest.mark.parametrize("kind", ("trap", "trian"))
    @pytest.mark.parametrize("start_method", ("fork", "spawn"))
    def test_workers_1_vs_8(self, fleet_world, kind, start_method):
        spec = _spec(fleet_world, kind=kind)
        solo = FleetRunner(spec, chunk_size=100).run(800)
        fanned = FleetRunner(
            spec, chunk_size=100, workers=8, start_method=start_method
        ).run(800)
        np.testing.assert_array_equal(
            solo.merged_answers(), fanned.merged_answers()
        )
        s1, s8 = solo.summary(), fanned.summary()
        for key in s1:
            assert s1[key] == s8[key] or (
                math.isnan(s1[key]) and math.isnan(s8[key])
            ), key


class TestSimulateModeDeterminism:
    def test_lossy_parity_across_workers(self, fleet_world):
        spec = _spec(
            fleet_world,
            mode="simulate",
            error_rate=0.1,
            error_model_name="bernoulli",
        )
        solo = FleetRunner(spec, chunk_size=200).run(800)
        fanned = FleetRunner(
            spec, chunk_size=200, workers=3, start_method="fork"
        ).run(800)
        assert solo.losses == fanned.losses > 0
        assert solo.attempts == fanned.attempts
        np.testing.assert_array_equal(
            solo.merged_answers(), fanned.merged_answers()
        )
        assert solo.summary() == fanned.summary()

    def test_seeded_rerun_is_identical(self, fleet_world):
        spec = _spec(fleet_world, mode="simulate", error_rate=0.08)
        first = FleetRunner(spec, chunk_size=150).run(450)
        second = FleetRunner(spec, chunk_size=150).run(450)
        assert first.losses == second.losses
        assert first.summary() == second.summary()


class TestProfileMerge:
    def test_collector_counters_invariant_to_workers(self, fleet_world):
        spec = _spec(fleet_world)
        with collecting() as solo_col:
            FleetRunner(spec, chunk_size=300).run(900)
        with collecting() as fan_col:
            FleetRunner(
                spec, chunk_size=300, workers=2, start_method="fork"
            ).run(900)
        assert solo_col.counters["fleet.queries"] == 900
        assert solo_col.counters["fleet.chunks"] == 3
        assert solo_col.counters["engine.queries"] == 900
        for name in ("fleet.queries", "fleet.chunks", "engine.queries",
                     "engine.runs"):
            assert solo_col.counters[name] == fan_col.counters[name], name


class TestRunnerEdges:
    def test_zero_queries(self, fleet_world):
        report = FleetRunner(_spec(fleet_world)).run(0)
        assert report.queries == 0
        assert report.merged_answers().size == 0

    def test_negative_queries_rejected(self, fleet_world):
        with pytest.raises(ReproError):
            FleetRunner(_spec(fleet_world)).run(-1)

    def test_bad_chunk_size_rejected(self, fleet_world):
        with pytest.raises(ReproError):
            FleetRunner(_spec(fleet_world), chunk_size=0)

    def test_bad_worker_count_rejected(self, fleet_world):
        with pytest.raises(ReproError):
            FleetRunner(_spec(fleet_world), workers=0)

    def test_bad_mode_rejected(self, fleet_world):
        with pytest.raises(ReproError):
            _spec(fleet_world, mode="nonsense")

    def test_keep_answers_false_drops_parity_arrays(self, fleet_world):
        spec = _spec(fleet_world, keep_answers=False)
        report = FleetRunner(spec, chunk_size=100).run(300)
        assert report.queries == 300
        assert report.merged_answers().size == 0

    def test_spec_pickles_for_every_family(self, fleet_world):
        for kind in INDEX_KINDS:
            spec = _spec(fleet_world, kind=kind)
            clone = pickle.loads(pickle.dumps(spec))
            assert clone.index_kind == kind
            assert clone.schedule.cycle_length == spec.schedule.cycle_length


class _FailingWorkload(UniformFleetWorkload):
    """A uniform workload whose chunk starting at *fail_at* raises."""

    def __init__(self, cycle_length, fail_at):
        super().__init__(SERVICE_AREA, cycle_length, seed=9)
        self.fail_at = fail_at

    def chunk(self, start, size):
        if start == self.fail_at:
            raise ValueError(f"no queries at {start}")
        return super().chunk(start, size)


class TestChunkFailures:
    """A failing chunk surfaces as a ReproError naming its identity."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("mode", ["engine", "simulate"])
    def test_failure_names_the_chunk(self, fleet_world, workers, mode):
        spec = _spec(fleet_world, mode=mode)
        spec.workload = _FailingWorkload(spec.schedule.cycle_length, fail_at=200)
        with pytest.raises(ReproError) as err:
            FleetRunner(spec, chunk_size=100, workers=workers).run(400)
        seed = spawned_seed(9, 2)
        assert str(err.value) == (
            f"fleet chunk 2 (start 200, size 100, channel seed {seed}) "
            "failed: ValueError: no queries at 200"
        )
        assert err.value.__cause__ is not None
        if workers == 1:
            assert isinstance(err.value.__cause__, ValueError)


class TestRunFleetEndToEnd:
    def test_run_fleet_quickstart(self):
        report = run_fleet(
            400, index_kind="dtree", regions=30, chunk_size=100, seed=2
        )
        assert report.queries == 400
        assert report.chunk_count == 4
        assert report.mode == "engine"
        assert report.elapsed_seconds is not None
        s = report.summary()
        assert s["latency_mean"] > 0 and s["energy_j_mean"] > 0
