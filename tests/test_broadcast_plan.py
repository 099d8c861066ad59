"""Multi-channel :class:`BroadcastPlan`: K=1 parity, allocation
strategies, channel hopping and the redesigned workload entry points."""

import random

import numpy as np
import pytest

from repro.broadcast import (
    ALLOCATION_REGISTRY,
    AllocationStrategy,
    BroadcastClient,
    BroadcastPlan,
    BroadcastSchedule,
    SystemParameters,
    allocation_strategy,
    available_allocations,
    register_allocation,
)
from repro.broadcast.multiplex import Service
from repro.broadcast.packets import QueryTrace
from repro.engine import INDEX_REGISTRY, evaluate_workload
from repro.errors import BroadcastError
from repro.simulation import ChannelSimulator, simulate_workload
from repro.simulation.policies import RECOVERY_POLICIES

from tests.conftest import random_points_in

ALL_KINDS = tuple(INDEX_REGISTRY)


def _paged(kind, subdivision, seed=7):
    family = INDEX_REGISTRY[kind]
    params = family.parameters()
    return family.build(subdivision, seed=seed).page(params), params


def _as_tuple(result):
    return (
        result.region_id,
        result.access_latency,
        result.index_tuning_time,
        result.total_tuning_time,
    )


class _StubPaged:
    """Fixed-trace paged index for hand-built hopping scenarios."""

    def __init__(self, n_packets, path, region_id):
        self.packets = [object()] * n_packets
        self._path = list(path)
        self._region = region_id

    def trace(self, point):
        return QueryTrace(self._region, self._path)


class TestK1Parity:
    """A one-channel plan is bit-for-bit the single-channel system."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("fixture", ["voronoi60", "clustered40"])
    def test_schedule_identical_for_every_strategy(
        self, kind, fixture, request
    ):
        subdivision = request.getfixturevalue(fixture)
        paged, params = _paged(kind, subdivision)
        schedule = BroadcastSchedule(
            index_packet_count=len(paged.packets),
            region_ids=subdivision.region_ids,
            params=params,
        )
        for allocation in available_allocations():
            for placement in ("replicated", "distributed"):
                plan = BroadcastPlan(
                    len(paged.packets),
                    subdivision.region_ids,
                    params,
                    channels=1,
                    allocation=allocation,
                    index_placement=placement,
                )
                assert plan.is_single_channel
                one = plan.primary_schedule
                assert one.index_segment_starts == schedule.index_segment_starts
                assert one.bucket_positions == schedule.bucket_positions
                assert one.cycle_length == schedule.cycle_length
                assert one.m == schedule.m
                assert plan.cycle_length == schedule.cycle_length
                assert plan.m == schedule.m

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_clients_bit_for_bit(self, kind, voronoi60):
        paged, params = _paged(kind, voronoi60)
        schedule = BroadcastSchedule(
            index_packet_count=len(paged.packets),
            region_ids=voronoi60.region_ids,
            params=params,
        )
        plan = BroadcastPlan(
            len(paged.packets), voronoi60.region_ids, params, channels=1
        )
        plain = BroadcastClient(paged, schedule)
        via_plan = BroadcastClient(paged, plan)
        hopping = BroadcastClient(paged, plan)
        rng = random.Random(3)
        for point in random_points_in(voronoi60, 25, seed=5):
            t = rng.uniform(0, schedule.cycle_length)
            want = _as_tuple(plain.query(point, t))
            assert _as_tuple(via_plan.query(point, t)) == want
            hop_result = hopping.query(point, t)
            assert _as_tuple(hop_result) == want
            assert hop_result.hops == 0
            assert hop_result.hop_slots == 0.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_caching_clients_bit_for_bit(self, kind, voronoi60):
        paged, params = _paged(kind, voronoi60)
        schedule = BroadcastSchedule(
            index_packet_count=len(paged.packets),
            region_ids=voronoi60.region_ids,
            params=params,
        )
        plan = BroadcastPlan(
            len(paged.packets), voronoi60.region_ids, params, channels=1
        )
        points = random_points_in(voronoi60, 30, seed=4)
        rng = random.Random(8)
        times = [rng.uniform(0, schedule.cycle_length) for _ in points]
        for capacity in (0, 6):
            plain = BroadcastClient(paged, schedule, cache_packets=capacity)
            via_plan = BroadcastClient(paged, plan, cache_packets=capacity)
            got_plain = plain.run_batch(points, times)
            got_plan = via_plan.run_batch(points, times)
            for name in (
                "region_ids", "access_latency", "index_tuning_time",
                "total_tuning_time",
            ):
                assert np.array_equal(
                    getattr(got_plan, name), getattr(got_plain, name)
                ), name

    @pytest.mark.parametrize("fixture", ["voronoi60", "clustered40"])
    def test_engine_arrays_exact(self, fixture, request):
        subdivision = request.getfixturevalue(fixture)
        points = random_points_in(subdivision, 40, seed=2)
        for kind in ALL_KINDS:
            paged, params = _paged(kind, subdivision)
            plan = BroadcastPlan(
                len(paged.packets), subdivision.region_ids, params, channels=1
            )
            base = evaluate_workload(
                paged, subdivision.region_ids, params, points, seed=6
            )
            via_plan = evaluate_workload(
                paged, subdivision.region_ids, params, points, seed=6,
                plan=plan,
            )
            assert np.array_equal(base.region_ids, via_plan.region_ids)
            assert np.array_equal(base.access_latency, via_plan.access_latency)
            assert np.array_equal(base.index_tuning_time, via_plan.index_tuning_time)
            assert np.array_equal(base.total_tuning_time, via_plan.total_tuning_time)

    def test_simulator_unwraps_single_channel_plan(self, voronoi60):
        paged, params = _paged("dtree", voronoi60)
        plan = BroadcastPlan(
            len(paged.packets), voronoi60.region_ids, params, channels=1
        )
        points = random_points_in(voronoi60, 30, seed=9)
        base = simulate_workload(
            paged, voronoi60.region_ids, params, points, seed=4
        )
        via_plan = simulate_workload(
            paged, voronoi60.region_ids, params, points, seed=4, plan=plan
        )
        assert np.array_equal(base.access_latency, via_plan.access_latency)
        assert np.array_equal(base.tuning_time, via_plan.tuning_time)


class TestAllocationRegistry:
    def test_builtin_strategies_registered(self):
        assert available_allocations() == ("round-robin", "region-locality")
        assert allocation_strategy("Round-Robin").name == "round-robin"

    def test_unknown_strategy(self):
        with pytest.raises(BroadcastError, match="unknown allocation"):
            allocation_strategy("fancy")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(BroadcastError, match="already registered"):
            register_allocation(ALLOCATION_REGISTRY["round-robin"])

    def test_register_and_replace(self):
        strategy = AllocationStrategy(
            "all-on-zero", "everything on channel 0", lambda r, k, c: [0] * len(r)
        )
        try:
            register_allocation(strategy)
            assert "all-on-zero" in available_allocations()
            register_allocation(strategy, replace=True)
        finally:
            del ALLOCATION_REGISTRY["all-on-zero"]

    def test_shard_validates_length_and_range(self):
        short = AllocationStrategy("short", "", lambda r, k, c: [0])
        with pytest.raises(BroadcastError, match="1 assignments for 3"):
            short.shard([10, 11, 12], 2)
        wild = AllocationStrategy("wild", "", lambda r, k, c: [5] * len(r))
        with pytest.raises(BroadcastError, match="channel 5"):
            wild.shard([10, 11], 2)

    def test_round_robin_stripes_in_order(self):
        shards = allocation_strategy("round-robin").shard([7, 3, 9, 1, 5], 2)
        assert shards == [[7, 9, 5], [3, 1]]

    def test_region_locality_uses_centroids(self):
        rids = [1, 2, 3, 4]
        centroids = {1: (0.9, 0.0), 2: (0.1, 0.0), 3: (0.8, 0.0), 4: (0.2, 0.0)}
        shards = allocation_strategy("region-locality").shard(
            rids, 2, centroids
        )
        # Left half {2, 4} on one channel, right half {1, 3} on the other,
        # each keeping the original region order.
        assert shards == [[2, 4], [1, 3]]

    def test_region_locality_missing_centroids(self):
        with pytest.raises(BroadcastError, match="missing centroids"):
            allocation_strategy("region-locality").shard(
                [1, 2], 2, {1: (0.0, 0.0)}
            )


class TestPlanValidation:
    def setup_method(self):
        self.params = SystemParameters()

    def test_channel_count_bounds(self):
        with pytest.raises(BroadcastError, match=">= 1"):
            BroadcastPlan(4, [1, 2], self.params, channels=0)
        with pytest.raises(BroadcastError, match="at least one data bucket"):
            BroadcastPlan(4, [1, 2], self.params, channels=3)

    def test_unknown_placement_and_negative_hop_cost(self):
        with pytest.raises(BroadcastError, match="placement"):
            BroadcastPlan(4, [1, 2], self.params, index_placement="mirrored")
        with pytest.raises(BroadcastError, match="hop cost"):
            BroadcastPlan(4, [1, 2], self.params, hop_cost=-1.0)

    def test_directory_lookups(self):
        plan = BroadcastPlan(
            6, list(range(4)), self.params, channels=2,
            index_placement="distributed",
        )
        assert plan.num_channels == 2
        assert not plan.is_single_channel
        assert {plan.channel_of_region(r) for r in range(4)} == {0, 1}
        with pytest.raises(BroadcastError, match="not in plan"):
            plan.channel_of_region(99)
        # Distributed: 6 packets -> 3 per channel; ids map contiguously.
        assert plan.index_home(0, 1) == (0, 0)
        assert plan.index_home(2, 1) == (0, 2)
        assert plan.index_home(3, 0) == (1, 0)
        assert plan.index_home(5, 0) == (1, 2)
        with pytest.raises(BroadcastError, match="out of range"):
            plan.index_home(6, 0)

    def test_replicated_index_home_prefers_current_channel(self):
        plan = BroadcastPlan(6, list(range(4)), self.params, channels=2)
        for pid in range(6):
            assert plan.index_home(pid, 0) == (0, pid)
            assert plan.index_home(pid, 1) == (1, pid)


class TestSegmentForOffset:
    def test_final_segment_with_cycle_wraparound(self):
        params = SystemParameters()
        schedule = BroadcastSchedule(
            index_packet_count=6,
            region_ids=list(range(9)),
            params=params,
            m=3,
        )
        starts = schedule.index_segment_starts
        assert len(starts) == 3
        last = starts[-1]
        offset = 4
        # The offset-th packet of the final segment airs exactly at
        # last + offset: a query at that instant still catches it...
        assert schedule.segment_for_offset(offset, float(last + offset)) == last
        # ...but half a slot later the earliest segment whose copy is
        # still ahead is the *next cycle's first* segment.
        wrapped = schedule.segment_for_offset(
            offset, float(last + offset) + 0.5
        )
        assert wrapped == schedule.cycle_length + starts[0]
        assert wrapped + offset >= last + offset + 0.5


class TestChannelHopping:
    def _plan(self, subdivision, params, paged, **kw):
        return BroadcastPlan(
            len(paged.packets), subdivision.region_ids, params, **kw
        )

    def test_distributed_search_hops_and_accounts(self, voronoi60):
        paged, params = _paged("dtree", voronoi60)
        plan = self._plan(
            voronoi60, params, paged, channels=4,
            index_placement="distributed", hop_cost=2.0,
        )
        client = BroadcastClient(paged, plan)
        rng = random.Random(1)
        results = [
            client.query(p, rng.uniform(0, plan.cycle_length))
            for p in random_points_in(voronoi60, 40, seed=3)
        ]
        assert any(r.hops > 0 for r in results)
        for r in results:
            assert r.hop_slots == r.hops * 2.0
            # Hops cost latency, never tuning.
            assert r.total_tuning_time == 1 + r.index_tuning_time + plan.bucket_packets

    def test_replicated_search_never_hops_mid_search(self, voronoi60):
        paged, params = _paged("dtree", voronoi60)
        plan = self._plan(voronoi60, params, paged, channels=4)
        client = BroadcastClient(paged, plan)
        rng = random.Random(2)
        for p in random_points_in(voronoi60, 40, seed=6):
            r = client.query(p, rng.uniform(0, plan.cycle_length))
            # Replicated index: at most the single hop to the data bucket.
            assert r.hops <= 1

    def test_tuning_matches_single_channel(self, voronoi60):
        """K>1 never costs extra tuning: same probe, same index reads,
        same bucket download as the (1, m) baseline."""
        paged, params = _paged("dtree", voronoi60)
        schedule = BroadcastSchedule(
            index_packet_count=len(paged.packets),
            region_ids=voronoi60.region_ids,
            params=params,
        )
        baseline = BroadcastClient(paged, schedule)
        plan = self._plan(
            voronoi60, params, paged, channels=4,
            index_placement="distributed",
        )
        client = BroadcastClient(paged, plan)
        rng = random.Random(4)
        for p in random_points_in(voronoi60, 30, seed=8):
            t = rng.uniform(0, schedule.cycle_length)
            assert (
                client.query(p, t).total_tuning_time
                == baseline.query(p, t).total_tuning_time
            )

    def test_hop_can_land_mid_index_segment(self):
        """After a hop the walk anchors at the earliest segment whose
        packet is still ahead — which can be a segment already in
        progress, not the next segment start."""
        params = SystemParameters()
        plan = BroadcastPlan(
            8, list(range(8)), params, channels=2,
            index_placement="distributed", hop_cost=1.0,
        )
        # Packets 0-3 on channel 0, 4-7 on channel 1.
        paged = _StubPaged(8, path=[1, 7], region_id=0)
        client = BroadcastClient(paged, plan, cache_packets=0)
        sched0 = plan.channels[0].schedule
        sched1 = plan.channels[1].schedule
        target_offset = plan.index_home(7, 0)[1]
        assert plan.index_home(7, 0)[0] == 1

        hit = None
        for step in range(4 * plan.cycle_length):
            t0 = step / 2.0
            base0 = sched0.segment_for_offset(1, t0)
            t_hop = base0 + 1 + 1 + plan.hop_cost
            base1 = sched1.segment_for_offset(target_offset, t_hop)
            if base1 < sched1.next_index_start(t_hop):
                hit = (t0, base0, t_hop, base1)
                break
        assert hit is not None, "no mid-segment landing in 2 cycles"
        t0, base0, t_hop, base1 = hit
        # The landing segment is already in progress at hop time...
        assert base1 <= t_hop
        # ...and the client's walk uses it: reconstruct the expected
        # finish from schedule primitives only.
        index_done = base1 + target_offset + 1
        target = plan.channel_of_region(0)
        t_data = index_done + (plan.hop_cost if target != 1 else 0)
        bucket_end = (
            plan.channels[target].schedule.next_bucket_arrival(0, t_data)
            + plan.bucket_packets
        )
        result = client.query(None, t0)
        assert result.access_latency == bucket_end - t0
        assert result.hops == (2 if target != 1 else 1)

    def test_zero_hop_cost(self, voronoi60):
        paged, params = _paged("dtree", voronoi60)
        plan = self._plan(
            voronoi60, params, paged, channels=3,
            index_placement="distributed", hop_cost=0.0,
        )
        client = BroadcastClient(paged, plan)
        r = client.query(random_points_in(voronoi60, 1, seed=1)[0], 0.0)
        assert r.hop_slots == 0.0

    def test_start_channel_validation(self, voronoi60):
        paged, params = _paged("dtree", voronoi60)
        plan = self._plan(voronoi60, params, paged, channels=2)
        with pytest.raises(BroadcastError, match="start channel"):
            BroadcastClient(paged, plan, start_channel=2)


class TestMultiChannelEndToEnd:
    def test_engine_k4_same_answers_lower_latency(self, voronoi60):
        points = random_points_in(voronoi60, 60, seed=12)
        for placement in ("replicated", "distributed"):
            paged, params = _paged("dtree", voronoi60)
            base = evaluate_workload(
                paged, voronoi60.region_ids, params, points, seed=5
            )
            plan = BroadcastPlan(
                len(paged.packets), voronoi60.region_ids, params,
                channels=4, index_placement=placement,
            )
            multi = evaluate_workload(
                paged, voronoi60.region_ids, params, points, seed=5,
                plan=plan,
            )
            assert np.array_equal(base.region_ids, multi.region_ids)
            assert multi.access_latency.mean() < base.access_latency.mean()
            assert np.array_equal(
                base.total_tuning_time, multi.total_tuning_time
            )

    def test_engine_rejects_schedule_and_plan(self, voronoi60):
        paged, params = _paged("dtree", voronoi60)
        schedule = BroadcastSchedule(
            index_packet_count=len(paged.packets),
            region_ids=voronoi60.region_ids,
            params=params,
        )
        plan = BroadcastPlan(
            len(paged.packets), voronoi60.region_ids, params, channels=2
        )
        points = random_points_in(voronoi60, 5, seed=1)
        with pytest.raises(BroadcastError, match="not both"):
            evaluate_workload(
                paged, voronoi60.region_ids, params, points,
                schedule=schedule, plan=plan,
            )
        with pytest.raises(BroadcastError, match="not both"):
            simulate_workload(
                paged, voronoi60.region_ids, params, points,
                schedule=schedule, plan=plan,
            )

    def test_simulator_zero_error_matches_engine_k4(self, voronoi60):
        points = random_points_in(voronoi60, 40, seed=14)
        for placement in ("replicated", "distributed"):
            paged, params = _paged("dtree", voronoi60)
            plan = BroadcastPlan(
                len(paged.packets), voronoi60.region_ids, params,
                channels=4, index_placement=placement,
            )
            engine = evaluate_workload(
                paged, voronoi60.region_ids, params, points, seed=6,
                plan=plan,
            )
            sim = simulate_workload(
                paged, voronoi60.region_ids, params, points, seed=6,
                plan=plan,
            )
            assert np.array_equal(engine.region_ids, sim.region_ids)
            assert np.array_equal(engine.access_latency, sim.access_latency)
            assert np.array_equal(engine.total_tuning_time, sim.tuning_time)

    @pytest.mark.parametrize("policy", sorted(RECOVERY_POLICIES))
    def test_lossy_multichannel_still_answers_correctly(
        self, policy, voronoi60
    ):
        paged, params = _paged("dtree", voronoi60)
        points = random_points_in(voronoi60, 25, seed=15)
        oracle = evaluate_workload(
            paged, voronoi60.region_ids, params, points, seed=8
        )
        plan = BroadcastPlan(
            len(paged.packets), voronoi60.region_ids, params,
            channels=4, index_placement="distributed",
        )
        report = simulate_workload(
            paged, voronoi60.region_ids, params, points, seed=8,
            plan=plan, error_rate=0.15, policy=policy,
        )
        assert np.array_equal(oracle.region_ids, report.region_ids)
        assert report.total_losses > 0


class TestRunWorkloadUnification:
    """``ChannelSimulator.run`` draws issue times from ``seed`` or from an
    injected ``rng``, on one channel or K; every door checks that there
    is one issue time per point."""

    @staticmethod
    def _assert_same_run(a, b):
        assert np.array_equal(a.issue_times, b.issue_times)
        for name in ("region_ids", "access_latency", "tuning_time"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_rng_injection_matches_seed(self, voronoi60):
        paged, params = _paged("dtree", voronoi60)
        plan = BroadcastPlan(
            len(paged.packets), voronoi60.region_ids, params, channels=2
        )
        sim = ChannelSimulator(paged, plan)
        points = random_points_in(voronoi60, 10, seed=2)
        self._assert_same_run(
            sim.run(points, seed=21), sim.run(points, rng=random.Random(21))
        )

    def test_issue_times_length_checked(self, voronoi60):
        paged, params = _paged("dtree", voronoi60)
        plan = BroadcastPlan(
            len(paged.packets), voronoi60.region_ids, params, channels=2
        )
        client = BroadcastClient(paged, plan)
        points = random_points_in(voronoi60, 3, seed=2)
        with pytest.raises(BroadcastError, match="issue times"):
            client.run_batch(points, [0.0])
        with pytest.raises(BroadcastError, match="issue times"):
            client.run_workload(points, issue_times=[0.0])
        with pytest.raises(BroadcastError, match="issue times"):
            ChannelSimulator(paged, plan).run(points, issue_times=[0.0])

    def test_simulator_rng_injection_on_flat_schedule(self, voronoi60):
        paged, params = _paged("dtree", voronoi60)
        sim = ChannelSimulator(paged, BroadcastSchedule(
            index_packet_count=len(paged.packets),
            region_ids=voronoi60.region_ids,
            params=params,
        ))
        points = random_points_in(voronoi60, 8, seed=3)
        self._assert_same_run(
            sim.run(points, seed=5), sim.run(points, rng=random.Random(5))
        )


class TestMultiplexPlanAndBisect:
    def test_service_accepts_single_channel_plan(self, grid4x4):
        paged, params = _paged("dtree", grid4x4)
        plan = BroadcastPlan(
            len(paged.packets), grid4x4.region_ids, params, channels=1
        )
        service = Service("maps", paged, grid4x4.region_ids, params, plan=plan)
        assert service.schedule is plan.primary_schedule

    def test_service_rejects_multichannel_plan(self, grid4x4):
        paged, params = _paged("dtree", grid4x4)
        plan = BroadcastPlan(
            len(paged.packets), grid4x4.region_ids, params, channels=2
        )
        with pytest.raises(BroadcastError, match="cannot be multiplexed"):
            Service("maps", paged, grid4x4.region_ids, params, plan=plan)
