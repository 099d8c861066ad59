"""The faulty-channel simulator (repro.simulation).

The load-bearing guarantee: at error rate zero the simulator is
*bit-for-bit identical* to the batched :class:`repro.engine.QueryEngine`
for every registered index family — same issue times, same per-query
latency and tuning arrays.  On top of that, deterministic replay (same
seed, same report), the error models' statistics, recovery-policy
behaviour under loss, cache shielding and candidate-bound soundness.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.client import BroadcastClient
from repro.broadcast.schedule import BroadcastSchedule
from repro.engine import evaluate_workload, index_family
from repro.errors import BroadcastError
from repro.simulation import (
    BernoulliLoss,
    ChannelSimulator,
    EnergyModel,
    GilbertElliott,
    PerfectChannel,
    RECOVERY_POLICIES,
    SimulationReport,
    candidate_provider,
    make_error_model,
    recovery_policy,
    render_reports,
    simulate_workload,
)
from repro.simulation.policies import UpperBoundFallback

from tests.conftest import random_points_in

ALL_KINDS = ("dtree", "trian", "trap", "rstar")
ALL_POLICIES = tuple(RECOVERY_POLICIES)
QUERIES = 60


@pytest.fixture(scope="module", params=ALL_KINDS)
def sim_cell(request, voronoi60):
    """One (kind, paged index, subdivision, params) cell per family."""
    family = index_family(request.param)
    params = family.parameters(packet_capacity=256)
    paged = family.build(voronoi60, seed=3).page(params)
    return request.param, paged, voronoi60, params


@pytest.fixture(scope="module")
def dtree_cell(voronoi60):
    family = index_family("dtree")
    params = family.parameters(packet_capacity=256)
    paged = family.build(voronoi60, seed=3).page(params)
    return paged, voronoi60, params


class TestZeroErrorEquivalence:
    """Error rate 0.0 == the batched engine, for every family."""

    @pytest.mark.parametrize("model", ["bernoulli", "gilbert"])
    def test_matches_query_engine(self, sim_cell, model):
        kind, paged, sub, params = sim_cell
        points = random_points_in(sub, QUERIES, seed=21)
        base = evaluate_workload(paged, sub.region_ids, params, points, seed=5)
        report = simulate_workload(
            paged,
            sub.region_ids,
            params,
            points,
            error_rate=0.0,
            error_model=model,
            seed=5,
            index_kind=kind,
        )
        assert np.array_equal(report.issue_times, base.issue_times)
        assert np.array_equal(report.region_ids, base.region_ids)
        assert np.array_equal(report.access_latency, base.access_latency)
        assert np.array_equal(report.tuning_time, base.total_tuning_time)
        assert report.total_losses == 0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_on_second_dataset(self, clustered40, kind):
        family = index_family(kind)
        params = family.parameters(packet_capacity=256)
        paged = family.build(clustered40, seed=3).page(params)
        points = random_points_in(clustered40, QUERIES, seed=22)
        base = evaluate_workload(
            paged, clustered40.region_ids, params, points, seed=9
        )
        report = simulate_workload(
            paged,
            clustered40.region_ids,
            params,
            points,
            error_rate=0.0,
            seed=9,
            index_kind=kind,
        )
        assert np.array_equal(report.access_latency, base.access_latency)
        assert np.array_equal(report.tuning_time, base.total_tuning_time)
        assert np.array_equal(report.region_ids, base.region_ids)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_policy_is_irrelevant_without_loss(self, sim_cell, policy):
        kind, paged, sub, params = sim_cell
        points = random_points_in(sub, 20, seed=23)
        reports = [
            simulate_workload(
                paged,
                sub.region_ids,
                params,
                points,
                error_rate=0.0,
                policy=p,
                seed=5,
                index_kind=kind,
            )
            for p in (policy, "retry-next-segment")
        ]
        assert np.array_equal(
            reports[0].access_latency, reports[1].access_latency
        )


class TestDeterministicReplay:
    def test_same_seed_same_report(self, dtree_cell):
        paged, sub, params = dtree_cell
        points = random_points_in(sub, QUERIES, seed=31)
        kwargs = dict(error_rate=0.1, error_model="gilbert", seed=7)
        a = simulate_workload(paged, sub.region_ids, params, points, **kwargs)
        b = simulate_workload(paged, sub.region_ids, params, points, **kwargs)
        assert a == b
        assert a.total_losses > 0

    def test_different_seeds_differ(self, dtree_cell):
        paged, sub, params = dtree_cell
        points = random_points_in(sub, QUERIES, seed=31)
        a = simulate_workload(
            paged, sub.region_ids, params, points, error_rate=0.1, seed=7
        )
        b = simulate_workload(
            paged, sub.region_ids, params, points, error_rate=0.1, seed=8
        )
        assert a != b

    def test_channel_stream_independent_of_issue_times(self, dtree_cell):
        # Same explicit issue times, same seed -> channel faults replay.
        paged, sub, params = dtree_cell
        points = random_points_in(sub, 30, seed=32)
        schedule = BroadcastSchedule(
            len(paged.packets), sub.region_ids, params
        )
        times = [((i * 37) % schedule.cycle_length) + 0.5 for i in range(30)]
        sim = lambda: simulate_workload(  # noqa: E731
            paged,
            sub.region_ids,
            params,
            points,
            error_rate=0.2,
            seed=4,
            schedule=schedule,
        )
        assert sim() == sim()


class TestErrorModels:
    def test_perfect_channel_never_loses(self):
        model = PerfectChannel()
        assert not any(model.packet_lost(slot) for slot in range(1000))

    def test_bernoulli_empirical_rate(self):
        model = BernoulliLoss(0.3, rng=random.Random(1))
        losses = sum(model.packet_lost(slot) for slot in range(20000))
        assert losses / 20000 == pytest.approx(0.3, abs=0.02)

    def test_bernoulli_zero_rate_never_loses(self):
        model = BernoulliLoss(0.0, rng=random.Random(1))
        assert not any(model.packet_lost(slot) for slot in range(2000))

    def test_bernoulli_validates_rate(self):
        with pytest.raises(BroadcastError):
            BernoulliLoss(1.5)

    def test_gilbert_stationary_rate(self):
        model = GilbertElliott.from_loss_rate(0.2, mean_burst=5.0)
        assert model.stationary_loss_rate == pytest.approx(0.2)
        assert 1.0 / model.p_bad_to_good == pytest.approx(5.0)

    def test_gilbert_empirical_rate_and_burstiness(self):
        model = GilbertElliott.from_loss_rate(
            0.2, mean_burst=8.0, rng=random.Random(3)
        )
        model.start_query()
        outcomes = [model.packet_lost(slot) for slot in range(40000)]
        assert sum(outcomes) / len(outcomes) == pytest.approx(0.2, abs=0.03)
        # Bursty: a loss is much likelier right after a loss than i.i.d.
        after_loss = [
            b for a, b in zip(outcomes, outcomes[1:]) if a
        ]
        assert sum(after_loss) / len(after_loss) > 0.5

    def test_gilbert_closed_form_matches_stepping(self):
        # P(bad after n) from the closed form == n single-slot advances.
        model = GilbertElliott(0.05, 0.25)
        model._bad = True
        lam = 1.0 - 0.05 - 0.25
        pi_bad = model.stationary_bad
        stepped = 1.0
        for n in range(1, 20):
            stepped = stepped * (1 - 0.25) + (1 - stepped) * 0.05
            assert model._bad_probability_after(n) == pytest.approx(stepped)
        assert model._bad_probability_after(10 ** 6) == pytest.approx(pi_bad)
        assert lam < 1.0

    def test_gilbert_zero_rate_never_loses(self):
        model = GilbertElliott.from_loss_rate(0.0, rng=random.Random(2))
        model.start_query()
        assert not any(model.packet_lost(slot) for slot in range(2000))

    def test_make_error_model_dispatch(self):
        assert isinstance(make_error_model("bernoulli", 0.1), BernoulliLoss)
        assert isinstance(make_error_model("GILBERT", 0.1), GilbertElliott)
        with pytest.raises(BroadcastError):
            make_error_model("rayleigh", 0.1)


class TestRecoveryPolicies:
    def test_lookup(self):
        assert recovery_policy("Retry-Next-Cycle").name == "retry-next-cycle"
        with pytest.raises(BroadcastError):
            recovery_policy("give-up")

    def test_fallback_never_resumes(self):
        schedule_stub = object()
        with pytest.raises(BroadcastError):
            UpperBoundFallback().resume_segment_base(schedule_stub, 0, 3)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_correct_region_under_heavy_loss(self, sim_cell, policy):
        kind, paged, sub, params = sim_cell
        points = random_points_in(sub, 40, seed=41)
        clean = simulate_workload(
            paged, sub.region_ids, params, points, error_rate=0.0, seed=5
        )
        lossy = simulate_workload(
            paged,
            sub.region_ids,
            params,
            points,
            error_rate=0.2,
            policy=policy,
            seed=5,
            index_kind=kind,
        )
        assert lossy.total_losses > 0
        assert np.array_equal(lossy.region_ids, clean.region_ids)
        if not RECOVERY_POLICIES[policy].falls_back:
            # A retry policy can only delay: elementwise no faster than
            # the clean run.  (The fallback may legitimately *beat* the
            # clean run — it aborts the index search and may catch the
            # bucket's earlier airing.)
            assert np.all(lossy.access_latency >= clean.access_latency - 1e-9)
            assert np.all(lossy.read_attempts >= clean.read_attempts)

    def test_retry_next_cycle_waits_longer_than_next_segment(
        self, dtree_cell
    ):
        paged, sub, params = dtree_cell
        points = random_points_in(sub, 80, seed=42)
        runs = {
            policy: simulate_workload(
                paged,
                sub.region_ids,
                params,
                points,
                error_rate=0.15,
                policy=policy,
                seed=6,
            )
            for policy in ("retry-next-segment", "retry-next-cycle")
        }
        # Identical fault schedule, so the comparison is paired; a full
        # extra cycle per loss can only be slower when m > 1.
        assert runs["retry-next-cycle"].access_latency.mean() > runs[
            "retry-next-segment"
        ].access_latency.mean()

    def test_fallback_trades_tuning_for_latency(self, dtree_cell):
        paged, sub, params = dtree_cell
        points = random_points_in(sub, 80, seed=43)
        runs = {
            policy: simulate_workload(
                paged,
                sub.region_ids,
                params,
                points,
                error_rate=0.15,
                policy=policy,
                seed=6,
            )
            for policy in ("retry-next-segment", "upper-bound-fallback")
        }
        # Downloading candidate buckets burns more read attempts than
        # re-reading one lost index packet.
        assert runs["upper-bound-fallback"].read_attempts.sum() > runs[
            "retry-next-segment"
        ].read_attempts.sum()


class TestCandidateBounds:
    @pytest.mark.parametrize("kind", ("dtree", "rstar"))
    def test_family_bounds_are_sound(self, voronoi60, kind):
        family = index_family(kind)
        params = family.parameters(packet_capacity=256)
        paged = family.build(voronoi60, seed=3).page(params)
        fn = candidate_provider(paged, voronoi60.region_ids)
        everything = frozenset(voronoi60.region_ids)
        for point in random_points_in(voronoi60, 50, seed=51):
            trace = paged.trace(point)
            for last_good in trace.packets_accessed:
                candidates = fn(last_good)
                assert trace.region_id in candidates
                assert candidates <= everything

    def test_dtree_bound_is_tighter_than_everything(self, dtree_cell):
        paged, sub, params = dtree_cell
        fn = candidate_provider(paged, sub.region_ids)
        point = random_points_in(sub, 1, seed=52)[0]
        deepest = paged.trace(point).packets_accessed[-1]
        assert len(fn(deepest)) < len(sub.region_ids)

    def test_nothing_read_yet_means_everything(self, dtree_cell):
        paged, sub, params = dtree_cell
        fn = candidate_provider(paged, sub.region_ids)
        assert fn(None) == frozenset(sub.region_ids)

    def test_unknown_family_falls_back_to_everything(self, voronoi60):
        family = index_family("trian")  # no registered provider
        params = family.parameters(packet_capacity=256)
        paged = family.build(voronoi60, seed=3).page(params)
        fn = candidate_provider(paged, voronoi60.region_ids)
        assert fn(0) == frozenset(voronoi60.region_ids)


class TestCacheInSimulator:
    def test_zero_error_matches_caching_client(self, dtree_cell):
        paged, sub, params = dtree_cell
        schedule = BroadcastSchedule(
            len(paged.packets), sub.region_ids, params
        )
        rng = random.Random(61)
        points = random_points_in(sub, 80, seed=61)
        times = [rng.uniform(0, schedule.cycle_length) for _ in points]

        ref = BroadcastClient(paged, schedule, cache_packets=8)
        sim = BroadcastClient(
            paged, schedule, error_model=PerfectChannel(), cache_packets=8
        )
        for point, t in zip(points, times):
            a = ref.query(point, t)
            b = sim.query(point, t)
            assert a.region_id == b.region_id
            assert a.access_latency == b.access_latency
            assert a.total_tuning_time == b.total_tuning_time

    def test_cache_shields_from_loss(self, dtree_cell):
        paged, sub, params = dtree_cell
        schedule = BroadcastSchedule(
            len(paged.packets), sub.region_ids, params
        )
        client = BroadcastClient(
            paged,
            schedule,
            error_model=BernoulliLoss(0.5, rng=random.Random(1)),
            cache_packets=64,
        )
        point = random_points_in(sub, 1, seed=62)[0]
        first = client.query(point, 10.0)
        second = client.query(point, 10.0)
        # The warmed search path is answered locally: no index reads are
        # exposed to the 50 % loss process at all (the data download
        # still is, so total attempts stay noisy).
        assert first.index_tuning_time > 0
        assert second.index_tuning_time == 0

    def test_miss_anchor_charges_from_first_uncached_packet(self, dtree_cell):
        paged, sub, params = dtree_cell
        schedule = BroadcastSchedule(
            len(paged.packets), sub.region_ids, params
        )
        point = random_points_in(sub, 1, seed=63)[0]
        accessed = paged.trace(point).packets_accessed
        assert accessed, "need a non-trivial trace for this test"
        ref = BroadcastClient(paged, schedule, cache_packets=64)
        warm_latency = None
        ref.query(point, 0.0)
        # Evict nothing; the whole path is cached except what we remove.
        ref.cache._entries.pop((ref.cache.version, accessed[-1]))
        # Issue just after the segment start: with only the *last* path
        # packet uncached, the current segment is still usable, so the
        # wait must be anchored at that packet, not the next segment.
        issue = 1.0
        warm_latency = ref.query(point, issue).access_latency
        cold = BroadcastClient(paged, schedule, cache_packets=0)
        cold_latency = cold.query(point, issue).access_latency
        assert warm_latency <= cold_latency

    def test_segment_for_offset_semantics(self, dtree_cell):
        paged, sub, params = dtree_cell
        schedule = BroadcastSchedule(
            len(paged.packets), sub.region_ids, params
        )
        for time in (0.0, 0.5, 17.3, float(schedule.cycle_length - 1)):
            for offset in (0, 1, 5):
                start = schedule.segment_for_offset(offset, time)
                assert start in {
                    s + c * schedule.cycle_length
                    for s in schedule.index_segment_starts
                    for c in range(3)
                }
                assert start + offset >= time  # packet still ahead
                assert start <= schedule.next_index_start(time)
        with pytest.raises(BroadcastError):
            schedule.segment_for_offset(-1, 0.0)


def _query_components(model, read_attempts, access_latency, packet_capacity):
    """The scalar energy split of one query: the oracle of
    :meth:`EnergyModel.batch_components`."""
    slot = model.packet_seconds(packet_capacity)
    active_s = read_attempts * slot
    doze_s = max(access_latency - read_attempts, 0.0) * slot
    return (
        model.receive_mw * active_s / 1000.0,
        model.doze_mw * doze_s / 1000.0,
    )


def _bits(values):
    return np.asarray(values, np.float64).view(np.int64).tolist()


class TestEnergyModel:
    def test_defaults_and_slot_duration(self):
        model = EnergyModel()
        # 256 bytes at 144 kbps.
        assert model.packet_seconds(256) == pytest.approx(
            256 * 8 / 144_000
        )

    def test_query_joules_arithmetic(self):
        model = EnergyModel(receive_mw=100.0, doze_mw=10.0,
                            bandwidth_kbps=80.0)
        slot = model.packet_seconds(100)  # = 0.01 s
        assert slot == pytest.approx(0.01)
        # 4 slots receiving, 6 slots dozing.
        joules = model.query_joules(4, 10.0, 100)
        expected = (100.0 * 4 * slot + 10.0 * 6 * slot) / 1000.0
        assert joules == pytest.approx(expected)

    def test_attempts_beyond_latency_never_negative_doze(self):
        model = EnergyModel()
        j = model.query_joules(50, 10.0, 256)
        slot = model.packet_seconds(256)
        assert j == pytest.approx(130.0 * 50 * slot / 1000.0)

    def test_validation(self):
        with pytest.raises(BroadcastError):
            EnergyModel(receive_mw=-1.0)
        with pytest.raises(BroadcastError):
            EnergyModel(receive_mw=5.0, doze_mw=6.0)
        with pytest.raises(BroadcastError):
            EnergyModel().packet_seconds(0)
        with pytest.raises(BroadcastError):
            EnergyModel().query_joules(-1, 10.0, 256)

    @settings(max_examples=200, deadline=None)
    @given(
        model=st.builds(
            EnergyModel,
            receive_mw=st.floats(50.0, 500.0),
            doze_mw=st.floats(0.5, 50.0),
            bandwidth_kbps=st.floats(1.0, 10_000.0),
        ),
        capacity=st.integers(1, 4096),
        rows=st.lists(
            st.tuples(
                st.integers(0, 10_000),
                st.floats(0.0, 1e6, allow_subnormal=False),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_batch_components_match_the_scalar_split(self, model, capacity, rows):
        attempts = np.array([a for a, _ in rows], np.int64)
        latency = np.array([lat for _, lat in rows], np.float64)
        receive, doze = model.batch_components(attempts, latency, capacity)
        expected = [
            _query_components(model, a, lat, capacity) for a, lat in rows
        ]
        assert _bits(receive) == _bits([r for r, _ in expected])
        assert _bits(doze) == _bits([d for _, d in expected])

    def test_batch_components_edges(self):
        model = EnergyModel()
        # Zero attempts; latency below, at and above the attempts (doze
        # clamped to 0 in the first two).
        rows = [(0, 0.0), (0, 7.5), (12, 3.25), (5, 5.0), (3, 11.0)]
        receive, doze = model.batch_components(
            [a for a, _ in rows], [lat for _, lat in rows], 256
        )
        expected = [_query_components(model, a, lat, 256) for a, lat in rows]
        assert _bits(receive) == _bits([r for r, _ in expected])
        assert _bits(doze) == _bits([d for _, d in expected])
        assert receive[0] == 0.0 and doze[2] == 0.0 and doze[3] == 0.0
        with pytest.raises(BroadcastError):
            model.batch_components([1, -1], [2.0, 2.0], 256)

    def test_energy_grows_with_error_rate(self, dtree_cell):
        paged, sub, params = dtree_cell
        points = random_points_in(sub, 60, seed=71)
        clean, lossy = (
            simulate_workload(
                paged,
                sub.region_ids,
                params,
                points,
                error_rate=rate,
                seed=5,
            )
            for rate in (0.0, 0.2)
        )
        assert lossy.energy_joules.mean() > clean.energy_joules.mean()


class TestSimulationReport:
    @pytest.fixture()
    def report(self, dtree_cell):
        paged, sub, params = dtree_cell
        points = random_points_in(sub, 50, seed=81)
        return simulate_workload(
            paged,
            sub.region_ids,
            params,
            points,
            error_rate=0.1,
            seed=5,
            index_kind="dtree",
        )

    def test_percentiles_ordered(self, report):
        p = report.percentiles("access_latency")
        assert p["p50"] <= p["p95"] <= p["p99"]
        assert p["p99"] <= float(report.access_latency.max())

    def test_summary_keys(self, report):
        summary = report.summary()
        for metric in ("latency", "tuning", "energy_j"):
            for stat in ("mean", "p50", "p95", "p99"):
                assert f"{metric}_{stat}" in summary
        assert summary["queries"] == 50.0
        assert summary["losses"] == float(report.total_losses)

    def test_render_reports_table(self, report):
        table = render_reports([report])
        assert "dtree" in table
        assert "retry-next-segment" in table
        assert len(table.splitlines()) == 3  # header, rule, one row

    def test_length_mismatch_rejected(self, report):
        with pytest.raises(BroadcastError):
            SimulationReport(
                index_kind="x",
                policy="p",
                error_model="m",
                issue_times=report.issue_times[:-1],
                region_ids=report.region_ids,
                access_latency=report.access_latency,
                tuning_time=report.tuning_time,
                energy_joules=report.energy_joules,
                packet_losses=report.packet_losses,
                read_attempts=report.read_attempts,
            )

    def test_not_hashable(self, report):
        with pytest.raises(TypeError):
            hash(report)


class TestRngInjection:
    """Satellite: one seeded stream can drive every stochastic component."""

    def test_workload_generators_accept_shared_rng(self, voronoi60):
        from repro.workload.generators import (
            hotspot_workload,
            uniform_workload,
            zipf_region_workload,
        )

        rng = random.Random(5)
        a = uniform_workload(voronoi60, 10, rng=rng)
        b = hotspot_workload(voronoi60, 10, centers=[(0.5, 0.5)], rng=rng)
        c = zipf_region_workload(voronoi60, 10, rng=rng)
        # Drawing from one stream: replaying it reproduces all three.
        rng2 = random.Random(5)
        a2 = uniform_workload(voronoi60, 10, rng=rng2)
        b2 = hotspot_workload(voronoi60, 10, centers=[(0.5, 0.5)], rng=rng2)
        c2 = zipf_region_workload(voronoi60, 10, rng=rng2)
        for first, second in ((a, a2), (b, b2), (c, c2)):
            assert [(p.x, p.y) for p in first.points] == [
                (p.x, p.y) for p in second.points
            ]

    def test_simulator_run_accepts_rng(self, dtree_cell):
        # The rng replaces only the issue-time stream; the channel stream
        # still derives from the seed, so a lossy run replays exactly.
        paged, sub, params = dtree_cell
        schedule = BroadcastSchedule(
            len(paged.packets), sub.region_ids, params
        )
        sim = ChannelSimulator(
            paged, schedule, error_model=BernoulliLoss(0.2)
        )
        points = random_points_in(sub, 10, seed=91)
        via_seed = sim.run(points, seed=13)
        via_rng = sim.run(points, seed=13, rng=random.Random(13))
        assert via_seed.total_losses > 0
        for name in (
            "issue_times", "region_ids", "access_latency", "tuning_time",
            "packet_losses", "read_attempts",
        ):
            assert np.array_equal(
                getattr(via_seed, name), getattr(via_rng, name)
            ), name


class TestCliAndRunner:
    def test_simulate_cli_smoke(self, capsys):
        from repro.cli import main

        code = main(
            [
                "simulate",
                "--queries",
                "25",
                "--regions",
                "20",
                "--error-rate",
                "0.1",
                "--seed",
                "7",
                "--index",
                "dtree",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "dtree" in out
        assert "lat p99" in out

    def test_run_faulty_cell(self):
        from repro.datasets.catalog import uniform_dataset
        from repro.experiments.runner import run_faulty_cell

        dataset = uniform_dataset(n=20, seed=42)
        report = run_faulty_cell(
            dataset,
            "dtree",
            256,
            queries=30,
            seed=3,
            error_rate=0.1,
        )
        assert len(report) == 30
        assert report.index_kind == "dtree"
        assert report.total_losses > 0

    def test_extension_faulty_channel(self):
        from repro.datasets.catalog import uniform_dataset
        from repro.experiments.extensions import extension_faulty_channel

        out = extension_faulty_channel(
            dataset=uniform_dataset(n=20, seed=42),
            error_rates=(0.05,),
            queries=30,
        )
        assert set(out) == set(ALL_POLICIES)
        for per_rate in out.values():
            assert "latency_p99" in per_rate[0.05]


class TestObservabilityInertness:
    """An installed ``repro.obs.Collector`` must not perturb the
    simulation: same seed with and without collection gives the exact
    same report (the collector never draws from the channel rng), and
    the counters it records agree with the report's own arrays."""

    def _simulate(self, cell, *, error_rate, cache_packets=0, seed=9):
        paged, sub, params = cell
        points = random_points_in(sub, QUERIES, seed=31)
        return simulate_workload(
            paged,
            sub.region_ids,
            params,
            points,
            error_rate=error_rate,
            seed=seed,
            cache_packets=cache_packets,
            index_kind="dtree",
        )

    @pytest.mark.parametrize("error_rate", [0.0, 0.1])
    def test_report_identical_under_collection(self, dtree_cell, error_rate):
        from repro.obs import collecting

        baseline = self._simulate(dtree_cell, error_rate=error_rate)
        with collecting():
            collected = self._simulate(dtree_cell, error_rate=error_rate)
        assert collected == baseline

    def test_counters_agree_with_report(self, dtree_cell):
        from repro.obs import collecting

        with collecting() as col:
            report = self._simulate(dtree_cell, error_rate=0.1)
        assert col.counters["sim.queries"] == len(report)
        assert col.counters["sim.losses"] == report.total_losses
        assert col.counters["sim.read_attempts"] == int(
            report.read_attempts.sum()
        )
        assert col.counters["sim.index.dtree.queries"] == len(report)
        # Receive + doze components recompose to the charged energy.
        total_j = col.counters["sim.energy.receive_j"] + col.counters[
            "sim.energy.doze_j"
        ]
        assert total_j == pytest.approx(float(report.energy_joules.sum()))

    def test_recovery_counter_fires_under_loss(self, dtree_cell):
        from repro.obs import collecting

        with collecting() as col:
            report = self._simulate(dtree_cell, error_rate=0.2)
        assert report.total_losses > 0
        assert col.counters.get("sim.recovery.retry-next-segment", 0) > 0
        assert col.counters["sim.retries"] > 0

    def test_cache_counters_fire(self, dtree_cell):
        from repro.obs import collecting

        with collecting() as col:
            self._simulate(dtree_cell, error_rate=0.0, cache_packets=8)
        assert col.counters.get("sim.cache.hits", 0) > 0
        assert col.counters.get("sim.cache.misses", 0) > 0
