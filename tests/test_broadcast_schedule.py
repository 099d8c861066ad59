"""Unit tests for the (1, m) broadcast schedule."""

import math

import numpy as np
import pytest

from repro.errors import BroadcastError
from repro.broadcast.params import SystemParameters
from repro.broadcast.schedule import (
    BroadcastSchedule,
    expected_latency_formula,
    optimal_m,
)

PARAMS_1K = SystemParameters(packet_capacity=1024)  # 1 packet per bucket


class TestOptimalM:
    def test_matches_sqrt_rule(self):
        # m* = sqrt(D / I); for D=100, I=4 -> m*=5.
        assert optimal_m(4, 100) == 5

    def test_no_index_is_m1(self):
        assert optimal_m(0, 100) == 1

    def test_huge_index_prefers_m1(self):
        assert optimal_m(1000, 10) == 1

    def test_integer_neighbourhood_is_optimal(self):
        for index_p, data_p in ((3, 70), (7, 1000), (11, 137)):
            best = optimal_m(index_p, data_p)
            best_latency = expected_latency_formula(index_p, data_p, best)
            for m in range(1, 60):
                assert best_latency <= expected_latency_formula(
                    index_p, data_p, m
                ) + 1e-9

    def test_no_data_rejected(self):
        with pytest.raises(BroadcastError):
            optimal_m(4, 0)

    def test_no_data_and_no_index_rejected(self):
        # Regression: the index-free early return used to shadow the
        # data check, so an empty broadcast answered m=1.
        with pytest.raises(BroadcastError, match="no data"):
            optimal_m(0, 0)

    def test_negative_data_rejected_regardless_of_index(self):
        for index_p in (-1, 0, 4):
            with pytest.raises(BroadcastError, match="no data"):
                optimal_m(index_p, -5)

    def test_latency_formula_rejects_m_below_one(self):
        with pytest.raises(BroadcastError, match="m must be >= 1"):
            expected_latency_formula(4, 100, 0)

    def test_latency_formula_index_free(self):
        # I=0: probe waits half the chunk, bucket waits half the data.
        assert expected_latency_formula(0, 100, 1) == 100.0


class TestScheduleTimeline:
    def test_cycle_length(self):
        sched = BroadcastSchedule(
            index_packet_count=4, region_ids=list(range(10)), params=PARAMS_1K, m=2
        )
        # 2 segments x (4 index + 5 buckets) = 18 packets.
        assert sched.cycle_length == 18
        assert sched.index_overhead_packets == 8

    def test_every_bucket_scheduled_once(self):
        sched = BroadcastSchedule(
            index_packet_count=3, region_ids=list(range(7)), params=PARAMS_1K, m=3
        )
        assert sorted(sched.bucket_positions) == list(range(7))
        positions = sorted(sum(sched.bucket_positions.values(), []))
        assert len(set(positions)) == 7

    def test_m_capped_by_bucket_count(self):
        sched = BroadcastSchedule(
            index_packet_count=1, region_ids=[0, 1], params=PARAMS_1K, m=10
        )
        assert sched.m == 2

    def test_next_index_start_same_cycle(self):
        sched = BroadcastSchedule(
            index_packet_count=4, region_ids=list(range(10)), params=PARAMS_1K, m=2
        )
        # Segments start at 0 and 9.
        assert sched.index_segment_starts == [0, 9]
        assert sched.next_index_start(0.5) == 9
        assert sched.next_index_start(9.0) == 9

    def test_next_index_start_wraps(self):
        sched = BroadcastSchedule(
            index_packet_count=4, region_ids=list(range(10)), params=PARAMS_1K, m=2
        )
        assert sched.next_index_start(10.0) == 18  # next cycle's first segment

    def test_next_bucket_arrival_wraps(self):
        sched = BroadcastSchedule(
            index_packet_count=4, region_ids=list(range(10)), params=PARAMS_1K, m=1
        )
        (pos,) = sched.bucket_positions[0]
        assert sched.next_bucket_arrival(0, 0.0) == pos
        assert sched.next_bucket_arrival(0, pos + 1) == pos + sched.cycle_length

    def test_unknown_region(self):
        sched = BroadcastSchedule(
            index_packet_count=1, region_ids=[0, 1], params=PARAMS_1K
        )
        with pytest.raises(BroadcastError):
            sched.next_bucket_arrival(42, 0.0)

    def test_multi_packet_buckets(self):
        params = SystemParameters(packet_capacity=256)  # 4 packets per bucket
        sched = BroadcastSchedule(
            index_packet_count=2, region_ids=[0, 1, 2], params=params, m=1
        )
        assert sched.bucket_packets == 4
        assert sched.data_packet_count == 12
        assert sched.cycle_length == 14

    def test_empty_regions_rejected(self):
        with pytest.raises(BroadcastError):
            BroadcastSchedule(1, [], PARAMS_1K)


def _linear_next_index_start(sched, time):
    """The pre-bisect linear-scan implementation, kept as the oracle."""
    cycle, offset = divmod(time, sched.cycle_length)
    for start in sched.index_segment_starts:
        if start >= offset:
            return int(cycle) * sched.cycle_length + start
    return (int(cycle) + 1) * sched.cycle_length + sched.index_segment_starts[0]


def _vectorized_next_index_starts(sched, times):
    """The schedule's vectorized ``next_index_starts`` (no index needed)."""
    return sched.next_index_starts(np.asarray(times, np.float64))


class TestNextIndexStartBisect:
    """schedule.next_index_start moved from a linear scan to bisect; pin
    it against the old scan and its vectorized twin."""

    def _schedules(self):
        for m in (1, 2, 3, 7):
            yield BroadcastSchedule(
                index_packet_count=5,
                region_ids=list(range(13)),
                params=PARAMS_1K,
                m=m,
            )

    def test_matches_linear_scan_oracle(self):
        for sched in self._schedules():
            # Sweep every integer offset plus awkward fractions around
            # segment boundaries, across three cycles.
            times = [
                base * sched.cycle_length + t
                for base in (0, 1, 2)
                for t in range(sched.cycle_length)
            ]
            times += [s - 0.5 for s in sched.index_segment_starts]
            times += [s + 0.5 for s in sched.index_segment_starts]
            for t in times:
                assert sched.next_index_start(t) == _linear_next_index_start(
                    sched, t
                ), (sched.m, t)

    def test_scalar_matches_vectorized(self):
        for sched in self._schedules():
            times = np.linspace(0.0, 3.0 * sched.cycle_length, 301)
            vec = _vectorized_next_index_starts(sched, times)
            scalar = [sched.next_index_start(float(t)) for t in times]
            assert vec.tolist() == scalar

    def test_exact_segment_start_is_not_skipped(self):
        sched = BroadcastSchedule(
            index_packet_count=4, region_ids=list(range(10)), params=PARAMS_1K, m=2
        )
        for start in sched.index_segment_starts:
            assert sched.next_index_start(float(start)) == start


class TestSegmentForOffsetNegativeTime:
    """Pin the ``time - offset < 0`` semantics: the shifted time wraps
    into the previous cycle, and the answer is still the earliest
    segment whose offset-th packet airs at or after the *original*
    time."""

    def _brute_force(self, sched, offset, time):
        candidates = [
            cyc * sched.cycle_length + start
            for cyc in (-1, 0, 1, 2)
            for start in sched.index_segment_starts
        ]
        return min(s for s in candidates if s + offset >= time)

    def test_matches_brute_force(self):
        sched = BroadcastSchedule(
            index_packet_count=5, region_ids=list(range(13)), params=PARAMS_1K, m=3
        )
        for offset in (0, 1, 4, 7, sched.cycle_length - 1):
            for time in [0.0, 0.5, 3.0, 17.0, float(sched.cycle_length - 1)]:
                got = sched.segment_for_offset(offset, time)
                assert got == self._brute_force(sched, offset, time), (
                    offset,
                    time,
                )

    def test_negative_shift_can_return_current_segment(self):
        sched = BroadcastSchedule(
            index_packet_count=4, region_ids=list(range(10)), params=PARAMS_1K, m=2
        )
        # At time 3.0 a client needing only packet >= 3 of the segment
        # that started at 0 can still use it: 0 + 3 >= 3.
        assert sched.segment_for_offset(3, 3.0) == 0

    def test_negative_offset_rejected(self):
        sched = BroadcastSchedule(
            index_packet_count=4, region_ids=list(range(10)), params=PARAMS_1K, m=2
        )
        with pytest.raises(BroadcastError):
            sched.segment_for_offset(-1, 5.0)
