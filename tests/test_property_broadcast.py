"""Property-based tests (hypothesis) for the broadcast layer."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.broadcast.disks import square_root_frequencies, urgency_sequence
from repro.broadcast.params import SystemParameters
from repro.broadcast.schedule import (
    BroadcastSchedule,
    expected_latency_formula,
    optimal_m,
)

params_1k = SystemParameters(packet_capacity=1024)

index_sizes = st.integers(min_value=1, max_value=60)
region_counts = st.integers(min_value=1, max_value=120)
ms = st.integers(min_value=1, max_value=20)


class TestScheduleProperties:
    @given(index_sizes, region_counts, ms)
    @settings(max_examples=80, deadline=None)
    def test_every_bucket_exactly_once(self, index_p, n_regions, m):
        sched = BroadcastSchedule(
            index_p, list(range(n_regions)), params_1k, m=m
        )
        assert sorted(sched.bucket_positions) == list(range(n_regions))
        positions = sorted(sum(sched.bucket_positions.values(), []))
        assert len(set(positions)) == n_regions

    @given(index_sizes, region_counts, ms)
    @settings(max_examples=80, deadline=None)
    def test_cycle_length_accounts_everything(self, index_p, n_regions, m):
        sched = BroadcastSchedule(
            index_p, list(range(n_regions)), params_1k, m=m
        )
        assert (
            sched.cycle_length
            == sched.m * index_p + n_regions * sched.bucket_packets
        )

    @given(index_sizes, region_counts, ms)
    @settings(max_examples=80, deadline=None)
    def test_segments_and_buckets_never_collide(self, index_p, n_regions, m):
        sched = BroadcastSchedule(
            index_p, list(range(n_regions)), params_1k, m=m
        )
        index_slots = set()
        for start in sched.index_segment_starts:
            index_slots.update(range(start, start + index_p))
        bucket_slots = set()
        for (pos,) in sched.bucket_positions.values():
            bucket_slots.update(range(pos, pos + sched.bucket_packets))
        assert not index_slots & bucket_slots
        assert len(index_slots) + len(bucket_slots) == sched.cycle_length

    @given(
        index_sizes,
        region_counts,
        st.floats(min_value=0, max_value=5000, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_next_index_start_is_future_and_valid(self, index_p, n_regions, t):
        sched = BroadcastSchedule(index_p, list(range(n_regions)), params_1k)
        start = sched.next_index_start(t)
        assert start >= t
        assert start % sched.cycle_length in sched.index_segment_starts

    @given(
        index_sizes,
        region_counts,
        st.floats(min_value=0, max_value=5000, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_next_bucket_arrival_is_future_and_valid(
        self, index_p, n_regions, t
    ):
        sched = BroadcastSchedule(index_p, list(range(n_regions)), params_1k)
        region = n_regions // 2
        arrival = sched.next_bucket_arrival(region, t)
        assert arrival >= t
        assert [arrival % sched.cycle_length] == sched.bucket_positions[region]


class TestOptimalMProperties:
    @given(index_sizes, st.integers(min_value=1, max_value=3000))
    @settings(max_examples=100, deadline=None)
    def test_optimal_m_beats_neighbours(self, index_p, data_p):
        m = optimal_m(index_p, data_p)
        best = expected_latency_formula(index_p, data_p, m)
        for other in (m - 1, m + 1):
            if other >= 1:
                assert best <= expected_latency_formula(
                    index_p, data_p, other
                ) + 1e-9


class TestBroadcastDiskProperties:
    weights = st.dictionaries(
        st.integers(min_value=0, max_value=30),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=20,
    )

    @given(weights, st.integers(min_value=1, max_value=10))
    @settings(max_examples=80, deadline=None)
    def test_frequencies_bounded_and_complete(self, weights, cap):
        freq = square_root_frequencies(weights, max_frequency=cap)
        assert set(freq) == set(weights)
        assert all(1 <= f <= cap for f in freq.values())

    @given(weights)
    @settings(max_examples=60, deadline=None)
    def test_urgency_sequence_counts(self, weights):
        freq = square_root_frequencies(weights, max_frequency=6)
        seq = urgency_sequence(freq)
        assert len(seq) == sum(freq.values())
        for rid, f in freq.items():
            assert seq.count(rid) == f

    @given(weights)
    @settings(max_examples=60, deadline=None)
    def test_heavier_items_never_air_less(self, weights):
        assume(len(weights) >= 2)
        freq = square_root_frequencies(weights, max_frequency=8)
        items = sorted(weights, key=weights.get)
        for light, heavy in zip(items, items[1:]):
            assert freq[light] <= freq[heavy]


class TestSegmentForOffsetProperties:
    """segment_for_offset must pick the earliest segment whose offset-th
    packet still airs at or after the query time — including at cycle
    wrap, where the answer jumps into the next cycle."""

    schedules = st.tuples(index_sizes, region_counts, ms).map(
        lambda t: BroadcastSchedule(t[0], list(range(t[1])), params_1k, m=t[2])
    )
    times = st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
    )

    @given(schedules, times, st.data())
    @settings(max_examples=120, deadline=None)
    def test_sound_and_minimal(self, sched, time, data):
        offset = data.draw(
            st.integers(min_value=0, max_value=sched.index_packet_count - 1)
        )
        start = sched.segment_for_offset(offset, time)
        # The result is a real segment start...
        assert start % sched.cycle_length in sched.index_segment_starts
        # ...whose offset-th packet airs at or after the query time.
        assert start + offset >= time
        # Minimality: the previous segment's copy has already gone by.
        starts = sched.index_segment_starts
        pos = starts.index(start % sched.cycle_length)
        if pos > 0:
            prev = start - (starts[pos] - starts[pos - 1])
        else:
            prev = start - sched.cycle_length + starts[-1] - starts[0]
        assert prev % sched.cycle_length in starts
        assert prev + offset < time

    @given(schedules, times)
    @settings(max_examples=80, deadline=None)
    def test_offset_zero_is_next_index_start(self, sched, time):
        assert sched.segment_for_offset(0, time) == sched.next_index_start(
            time
        )

    # Dyadic rationals: adding the (integer) cycle length is exact, so
    # the periodicity assertion is not defeated by float absorption.
    dyadic_times = st.integers(min_value=0, max_value=2**24).map(
        lambda k: k / 1024.0
    )

    @given(schedules, dyadic_times, st.data())
    @settings(max_examples=80, deadline=None)
    def test_periodic_in_the_cycle(self, sched, time, data):
        offset = data.draw(
            st.integers(min_value=0, max_value=sched.index_packet_count - 1)
        )
        shifted = sched.segment_for_offset(offset, time + sched.cycle_length)
        assert shifted == sched.segment_for_offset(offset, time) + (
            sched.cycle_length
        )


class TestChannelHoppingCycleWrap:
    """The hopping client is periodic in the plan's common cycle — a
    query issued any whole number of periods later sees the identical
    protocol, for mid-cycle float issue times included."""

    @staticmethod
    def _world():
        import math

        from repro.broadcast.client import BroadcastClient
        from repro.broadcast.plan import BroadcastPlan
        from repro.datasets.catalog import uniform_dataset
        from repro.engine import index_family

        dataset = uniform_dataset(n=24, seed=11)
        family = index_family("dtree")
        params = family.parameters(256)
        paged = family.build(dataset.subdivision, seed=11).page(params)
        centroids = {
            r.region_id: (r.polygon.centroid.x, r.polygon.centroid.y)
            for r in dataset.subdivision.regions
        }
        worlds = []
        for placement in ("replicated", "distributed"):
            plan = BroadcastPlan(
                index_packet_count=len(paged.packets),
                region_ids=dataset.subdivision.region_ids,
                params=params,
                channels=3,
                allocation="round-robin",
                index_placement=placement,
                centroids=centroids,
            )
            period = math.lcm(
                *[c.schedule.cycle_length for c in plan.channels]
            )
            worlds.append(
                (BroadcastClient(paged, plan), period, dataset)
            )
        return worlds

    _WORLDS = None

    @classmethod
    def worlds(cls):
        if cls._WORLDS is None:
            cls._WORLDS = cls._world()
        return cls._WORLDS

    @given(
        st.integers(min_value=0, max_value=2**22),
        st.integers(min_value=1, max_value=3),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_periodic_in_common_cycle(self, numerator, cycles, rng):
        for client, period, dataset in self.worlds():
            p = dataset.subdivision.random_point(rng)
            # Dyadic mid-cycle issue time: the period shift below stays
            # float-exact, so equality assertions are not 1-ulp flaky.
            issue = (numerator % (period * 1024)) / 1024.0
            base = client.query(p, issue)
            later = client.query(p, issue + cycles * period)
            assert later.region_id == base.region_id
            assert later.access_latency == base.access_latency
            assert later.index_tuning_time == base.index_tuning_time
            assert later.total_tuning_time == base.total_tuning_time
            assert later.hops == base.hops

    @given(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_wrap_neighbourhood_is_consistent(self, delta):
        """Issue times straddling the period boundary stay sound: the
        bucket is always retrieved after the (positive) latency."""
        for client, period, dataset in self.worlds():
            p = dataset.subdivision.random_point(__import__("random").Random(5))
            issue = (period + delta) % period
            res = client.query(p, issue)
            assert res.access_latency > 0
            assert res.total_tuning_time >= 1
            assert res.access_latency >= res.total_tuning_time - 1
