"""Fleet-scale mobility: worker-count-invariant MobilityReports, the
merge algebra, and run_fleet(mode="mobility") end to end."""

import math
import pickle

import numpy as np
import pytest

from repro.broadcast.schedule import BroadcastSchedule
from repro.datasets.catalog import uniform_dataset
from repro.engine import index_family
from repro.errors import ReproError
from repro.fleet import FleetRunner, FleetSpec, run_fleet
from repro.fleet.report import FleetReport
from repro.fleet.shm import ShmArena
from repro.mobility import (
    MobilityReport,
    RandomWaypointWorkload,
    RegionBoundaryIndex,
    evaluate_trajectory_workload,
    render_mobility_report,
    units_per_slot,
)


@pytest.fixture(scope="module")
def mobility_world():
    dataset = uniform_dataset(n=40, seed=5)
    family = index_family("dtree")
    params = family.parameters(256)
    paged = family.build(dataset.subdivision, seed=5).page(params)
    schedule = BroadcastSchedule(
        index_packet_count=len(paged.packets),
        region_ids=list(dataset.subdivision.region_ids),
        params=params,
    )
    return dataset, paged, schedule, params


def _spec(mobility_world, predictive=True, **kwargs):
    dataset, paged, schedule, params = mobility_world
    workload = RandomWaypointWorkload(
        dataset.subdivision.service_area,
        schedule.cycle_length,
        waypoints=3,
        speed_range=(units_per_slot(30, 256), units_per_slot(90, 256)),
        seed=9,
    )
    return FleetSpec(
        paged_index=paged,
        schedule=schedule,
        params=params,
        workload=workload,
        mode="mobility",
        index_kind="dtree",
        boundary_index=RegionBoundaryIndex(dataset.subdivision),
        predictive=predictive,
        max_epochs=16,
        **kwargs,
    )


def _chunked_batches(mobility_world, spec, total, chunk):
    """Inline oracle: evaluate each chunk directly (no runner)."""
    dataset = mobility_world[0]
    batches = []
    for i, start in enumerate(range(0, total, chunk)):
        size = min(chunk, total - start)
        batches.append(
            (
                i,
                evaluate_trajectory_workload(
                    spec.paged_index,
                    [],
                    spec.params,
                    spec.workload.chunk(start, size),
                    boundary_index=spec.boundary_index,
                    schedule=spec.schedule,
                    max_epochs=spec.max_epochs,
                ),
            )
        )
    return batches


class TestWorkerInvariance:
    def test_chunk_size_invariance(self, mobility_world):
        spec = _spec(mobility_world)
        whole = FleetRunner(spec, chunk_size=900).run(900)
        chunked = FleetRunner(spec, chunk_size=130).run(900)
        np.testing.assert_array_equal(
            whole.merged_answers(), chunked.merged_answers()
        )
        assert whole.clients == chunked.clients == 900
        for key, value in whole.summary().items():
            assert chunked.summary()[key] == pytest.approx(
                value, rel=1e-12, nan_ok=True
            )

    def test_worker_count_invariance_fork(self, mobility_world):
        spec = _spec(mobility_world)
        solo = FleetRunner(spec, chunk_size=200).run(800)
        fanned = FleetRunner(
            spec, chunk_size=200, workers=3, start_method="fork"
        ).run(800)
        np.testing.assert_array_equal(
            solo.merged_answers(), fanned.merged_answers()
        )
        s1, s3 = solo.summary(), fanned.summary()
        for key in s1:
            assert s1[key] == s3[key] or (
                math.isnan(s1[key]) and math.isnan(s3[key])
            )

    def test_worker_count_invariance_spawn(self, mobility_world):
        spec = _spec(mobility_world)
        solo = FleetRunner(spec, chunk_size=150).run(450)
        fanned = FleetRunner(
            spec, chunk_size=150, workers=2, start_method="spawn"
        ).run(450)
        np.testing.assert_array_equal(
            solo.merged_answers(), fanned.merged_answers()
        )
        assert solo.summary() == fanned.summary()

    def test_pool_ships_compiled_state(self, mobility_world, monkeypatch):
        """Mobility workers attach the parent's compiled D-tree from the
        shared-memory arena, like engine-mode workers."""
        created = []

        class SpyArena(ShmArena):
            @classmethod
            def create(cls, arrays):
                created.append(sorted(arrays))
                return super().create(arrays)

        monkeypatch.setattr("repro.fleet.runner.ShmArena", SpyArena)
        spec = _spec(mobility_world)
        FleetRunner(spec, chunk_size=100, workers=2, start_method="fork").run(200)
        assert len(created) == 1
        assert any(name.startswith("dtree.") for name in created[0])

    def test_runner_matches_inline_evaluation(self, mobility_world):
        spec = _spec(mobility_world)
        report = FleetRunner(spec, chunk_size=100).run(300)
        oracle = MobilityReport(
            index_kind="dtree", client="predictive",
            error_model=report.error_model,
        )
        for i, batch in _chunked_batches(mobility_world, spec, 300, 100):
            oracle.observe_chunk(i, batch)
        np.testing.assert_array_equal(
            report.merged_answers(), oracle.merged_answers()
        )
        assert report.retunes == oracle.retunes
        assert report.epochs == oracle.epochs

    def test_lossy_channel_invariance(self, mobility_world):
        spec = _spec(mobility_world, error_rate=0.2)
        solo = FleetRunner(spec, chunk_size=150).run(450)
        fanned = FleetRunner(
            spec, chunk_size=150, workers=3, start_method="fork"
        ).run(450)
        assert solo.losses > 0
        assert solo.summary() == fanned.summary()


class TestMergeAlgebra:
    def _report(self, mobility_world, chunks):
        spec = _spec(mobility_world)
        out = MobilityReport(index_kind="dtree", client="predictive")
        for i, batch in chunks:
            out.observe_chunk(i, batch)
        return out

    def test_empty_identity_and_associativity(self, mobility_world):
        spec = _spec(mobility_world)
        batches = _chunked_batches(mobility_world, spec, 300, 100)
        whole = self._report(mobility_world, batches)

        lhs = MobilityReport().merge(self._report(mobility_world, batches))
        assert lhs.summary() == whole.summary()

        a = self._report(mobility_world, batches[:1])
        b = self._report(mobility_world, batches[1:2])
        c = self._report(mobility_world, batches[2:])
        left = (
            self._report(mobility_world, batches[:1])
            .merge(b)
            .merge(self._report(mobility_world, batches[2:]))
        )
        bc = self._report(mobility_world, batches[1:2]).merge(c)
        right = a.merge(bc)
        assert left.summary() == pytest.approx(right.summary())
        np.testing.assert_array_equal(
            left.merged_answers(), whole.merged_answers()
        )

    def test_label_conflicts_and_overlap_rejected(self, mobility_world):
        spec = _spec(mobility_world)
        batches = _chunked_batches(mobility_world, spec, 100, 100)
        a = self._report(mobility_world, batches)
        b = self._report(mobility_world, batches)
        b.client = "naive"
        with pytest.raises(ReproError, match="different client"):
            a.merge(b)
        c = self._report(mobility_world, batches)
        with pytest.raises(ReproError, match="overlap"):
            a.merge(c)
        with pytest.raises(ReproError, match="cannot merge"):
            a.merge(FleetReport())

    def test_double_fold_rejected(self, mobility_world):
        spec = _spec(mobility_world)
        [(i, batch)] = _chunked_batches(mobility_world, spec, 50, 50)
        report = MobilityReport()
        report.observe_chunk(i, batch)
        with pytest.raises(ReproError, match="folded twice"):
            report.observe_chunk(i, batch)


class TestSpecAndReportPlumbing:
    def test_spec_pickles(self, mobility_world):
        spec = _spec(mobility_world)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.mode == "mobility"
        assert clone.predictive is True
        assert clone.max_epochs == 16

    def test_report_pickles(self, mobility_world):
        spec = _spec(mobility_world)
        report = FleetRunner(spec, chunk_size=100).run(200)
        clone = pickle.loads(pickle.dumps(report))
        assert clone.summary() == report.summary()
        np.testing.assert_array_equal(
            clone.merged_answers(), report.merged_answers()
        )

    def test_predictive_spec_requires_boundary_index(self, mobility_world):
        dataset, paged, schedule, params = mobility_world
        workload = RandomWaypointWorkload(
            dataset.subdivision.service_area, schedule.cycle_length,
            waypoints=2, speed_range=(0.0, 0.0), seed=1,
        )
        with pytest.raises(ReproError, match="boundary_index"):
            FleetSpec(
                paged_index=paged, schedule=schedule, params=params,
                workload=workload, mode="mobility", index_kind="dtree",
                predictive=True,
            )

    def test_render_report_mentions_headline(self, mobility_world):
        spec = _spec(mobility_world)
        report = FleetRunner(spec, chunk_size=100).run(200)
        text = render_mobility_report(report)
        assert "retunes" in text and "/km" in text
        assert "client=predictive" in text


class TestRunFleetMobility:
    def test_quickstart_and_prediction_savings(self):
        kwargs = dict(
            mode="mobility", regions=60, seed=7, chunk_size=400,
        )
        pred = run_fleet(800, **kwargs)
        naive = run_fleet(800, predictive=False, **kwargs)
        assert isinstance(pred, MobilityReport)
        assert pred.clients == naive.clients == 800
        assert pred.client == "predictive" and naive.client == "naive"
        # Identical answer streams, far fewer re-tunes.
        np.testing.assert_array_equal(
            pred.merged_answers(), naive.merged_answers()
        )
        assert naive.retunes_per_km / pred.retunes_per_km >= 3.0

    def test_boundary_hugging_workload_via_run_fleet(self):
        report = run_fleet(
            200,
            mode="mobility",
            regions=40,
            seed=3,
            mobility_workload="boundary-hugging",
            chunk_size=100,
        )
        assert report.clients == 200
        assert report.distance_km > 0.0
