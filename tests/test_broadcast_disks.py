"""Tests for the skewed broadcast-disks schedule (extension)."""

import random

import pytest

from repro.broadcast.client import BroadcastClient
from repro.broadcast.disks import (
    SkewedBroadcastSchedule,
    region_weights_from_workload,
    square_root_frequencies,
    urgency_sequence,
)
from repro.broadcast.metrics import evaluate_index
from repro.broadcast.params import SystemParameters
from repro.core.dtree import DTree
from repro.core.paging import PagedDTree
from repro.errors import BroadcastError
from repro.obs import collecting
from repro.simulation import make_error_model
from repro.workload import zipf_region_workload

PARAMS = SystemParameters(packet_capacity=1024)


class TestFrequencies:
    def test_square_root_rule(self):
        freq = square_root_frequencies({0: 1.0, 1: 4.0, 2: 16.0})
        assert freq == {0: 1, 1: 2, 2: 4}

    def test_cap(self):
        freq = square_root_frequencies({0: 1.0, 1: 1e6}, max_frequency=5)
        assert freq[1] == 5

    def test_minimum_one(self):
        freq = square_root_frequencies({0: 0.0, 1: 100.0})
        assert freq[0] == 1

    def test_empty_rejected(self):
        with pytest.raises(BroadcastError):
            square_root_frequencies({})


class TestUrgencySequence:
    def test_counts_match_frequencies(self):
        seq = urgency_sequence({0: 1, 1: 2, 2: 4})
        assert len(seq) == 7
        assert seq.count(0) == 1 and seq.count(1) == 2 and seq.count(2) == 4

    def test_spacing_is_even(self):
        seq = urgency_sequence({0: 1, 1: 4})
        gaps = [
            j - i
            for i, j in zip(
                [k for k, r in enumerate(seq) if r == 1],
                [k for k, r in enumerate(seq) if r == 1][1:],
            )
        ]
        assert gaps and max(gaps) - min(gaps) <= 1


class TestSkewedSchedule:
    def test_every_region_every_cycle(self):
        weights = {rid: float(rid + 1) for rid in range(10)}
        sched = SkewedBroadcastSchedule(2, weights, PARAMS, m=2)
        assert set(sched.bucket_positions) == set(weights)
        assert sched.replication_factor >= 1.0

    def test_next_bucket_arrival_monotone(self):
        weights = {0: 1.0, 1: 9.0, 2: 25.0}
        sched = SkewedBroadcastSchedule(1, weights, PARAMS, m=1)
        t = 0.0
        last = -1
        for _ in range(10):
            arrival = sched.next_bucket_arrival(2, t)
            assert arrival >= t
            assert arrival > last
            last = arrival
            t = arrival + 1

    def test_unknown_region(self):
        sched = SkewedBroadcastSchedule(1, {0: 1.0, 1: 1.0}, PARAMS)
        with pytest.raises(BroadcastError):
            sched.next_bucket_arrival(9, 0.0)

    def test_popular_region_waits_less(self):
        weights = {0: 1.0, 1: 64.0}
        sched = SkewedBroadcastSchedule(1, weights, PARAMS, m=1)
        rng = random.Random(1)

        def mean_wait(rid):
            return sum(
                sched.next_bucket_arrival(rid, t) - t
                for t in (rng.uniform(0, sched.cycle_length) for _ in range(500))
            ) / 500

        assert mean_wait(1) < mean_wait(0)


class TestWeightsFromWorkload:
    def test_counts_reflect_skew(self, voronoi60):
        wl = zipf_region_workload(voronoi60, 400, theta=1.2, seed=2)
        weights = region_weights_from_workload(voronoi60, wl.points)
        assert set(weights) == set(voronoi60.region_ids)
        hot = voronoi60.region_ids[0]
        cold = voronoi60.region_ids[-1]
        assert weights[hot] > weights[cold]


class TestSkewedBeatsFlatUnderSkew:
    def test_latency_improves_for_zipf_queries(self, voronoi60):
        """The point of broadcast disks: skewed airing beats flat airing
        on a skewed workload (and the same index still answers)."""
        params = SystemParameters.for_index("dtree", 512)
        paged = PagedDTree(DTree.build(voronoi60), params)
        wl = zipf_region_workload(voronoi60, 500, theta=1.3, seed=3)

        flat = evaluate_index(
            paged, voronoi60.region_ids, params, wl.points, seed=4
        )
        weights = region_weights_from_workload(voronoi60, wl.points)
        skewed_schedule = SkewedBroadcastSchedule(
            len(paged.packets), weights, params, max_frequency=6
        )
        skewed = evaluate_index(
            paged,
            voronoi60.region_ids,
            params,
            wl.points,
            seed=4,
            schedule=skewed_schedule,
        )
        assert skewed.mean_access_latency < flat.mean_access_latency

        # Correctness is untouched: spot-check the answers.
        client = BroadcastClient(paged, skewed_schedule)
        rng = random.Random(5)
        for p in wl.points[:50]:
            result = client.query(p, rng.uniform(0, skewed_schedule.cycle_length))
            assert result.region_id == voronoi60.locate(p)


class TestLossyDisks:
    def test_upper_bound_fallback_over_disks(self, voronoi60):
        """A lost index packet over broadcast disks falls back to the
        candidate buckets of the schedule's regions, batched or walked
        one query at a time, and still answers exactly."""
        params = SystemParameters.for_index("dtree", 256)
        paged = PagedDTree(DTree.build(voronoi60), params)
        weights = {rid: 1.0 + (rid % 7) ** 2 for rid in voronoi60.region_ids}
        schedule = SkewedBroadcastSchedule(len(paged.packets), weights, params)
        rng = random.Random(11)
        points = voronoi60.random_points(60, rng)
        times = [rng.uniform(0, schedule.cycle_length) for _ in points]

        def client():
            model = make_error_model("bernoulli", 0.2)
            model.reset(random.Random(3))
            return BroadcastClient(
                paged, schedule, error_model=model,
                policy="upper-bound-fallback",
            )

        with collecting() as col:
            batch = client().run_batch(points, times)
        looped = client()
        results = [looped.query(p, t) for p, t in zip(points, times)]
        assert col.counters["sim.fallbacks"] > 0
        assert batch.region_ids.tolist() == [voronoi60.locate(p) for p in points]
        assert batch.access_latency.tolist() == [r.access_latency for r in results]
        assert batch.packet_losses.tolist() == [r.packet_losses for r in results]
