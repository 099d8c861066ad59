"""One timeline contract for every single-channel broadcast program.

The flat (1, m) schedule, a broadcast-disks schedule, one service's slot
of a multiplexed super cycle and a K=1 plan's channel are all one
:class:`~repro.broadcast.schedule.BroadcastSchedule` table.  Over each:

* the scalar ``next_index_start`` / ``next_bucket_arrival`` and the
  array ``next_index_starts`` / ``next_bucket_arrivals`` agree;
* every answer airs at or after the time asked;
* every answer equals two oracles: a linear scan over absolute airings,
  and the multiplexer's former bisect with boundary nudges.

Times are random, plus the float just before and just after every
airing, from three cycles before 0 to three cycles after.
"""

import math
from bisect import bisect_left
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.disks import SkewedBroadcastSchedule
from repro.broadcast.multiplex import MultiplexedBroadcast, Service
from repro.broadcast.params import SystemParameters
from repro.broadcast.plan import BroadcastPlan
from repro.broadcast.schedule import BroadcastSchedule
from repro.errors import BroadcastError


def scan_oracle(airings, length, time):
    """The first airing at or after *time*, scanning the cycles around
    it position by position (the broadcast-disks schedule's former scan,
    comparing absolute positions instead of a rounded offset)."""
    cycle = int(time // length)
    for k in range(cycle - 2, cycle + 3):
        for position in airings:
            if k * length + position >= time:
                return k * length + position
    raise AssertionError("no airing within two cycles")


def bisect_oracle(airings, length, time):
    """The multiplexer's former ``_next_occurrence``: bisect in the
    cycle of *time*, then nudge across the boundary so the float
    comparison ``base + p >= time`` decides."""
    base = (time // length) * length
    i = bisect_left(airings, time - base)
    while i > 0 and base + airings[i - 1] >= time:
        i -= 1
    while i < len(airings) and base + airings[i] < time:
        i += 1
    if i == len(airings):
        return base + length + airings[0]
    return base + airings[i]


def edge_times(airings, length):
    """The floats on both sides of every airing, three cycles either
    side of cycle 0."""
    times = []
    for k in range(-3, 4):
        for position in airings:
            at = float(k * length + position)
            times += [math.nextafter(at, -math.inf), at, math.nextafter(at, math.inf)]
    return times


def check_contract(schedule, random_times):
    length = schedule.cycle_length
    cases = [(None, schedule.index_segment_starts)] + list(
        schedule.bucket_positions.items()
    )
    regions, region_times, arrivals = [], [], []
    for region, airings in cases:
        times = edge_times(airings, length) + list(random_times)
        if region is None:
            scalar = [schedule.next_index_start(t) for t in times]
            array = schedule.next_index_starts(np.array(times))
        else:
            scalar = [schedule.next_bucket_arrival(region, t) for t in times]
            array = schedule.next_bucket_arrivals(
                np.full(len(times), region, np.int64), np.array(times)
            )
            regions += [region] * len(times)
            region_times += times
            arrivals += scalar
        assert array.tolist() == scalar, region
        for t, answer in zip(times, scalar):
            assert answer >= t, (region, t, answer)
            assert answer == scan_oracle(airings, length, t), (region, t)
            assert answer == bisect_oracle(airings, length, t), (region, t)
    # Every region in one array call.
    mixed = schedule.next_bucket_arrivals(
        np.array(regions, np.int64), np.array(region_times)
    )
    assert mixed.tolist() == arrivals


def _params(capacity):
    return SystemParameters(packet_capacity=capacity)


def _flat(draw):
    first = draw(st.integers(-5, 5))  # negative region ids too
    return BroadcastSchedule(
        draw(st.integers(0, 40)),
        list(range(first, first + draw(st.integers(1, 30)))),
        _params(draw(st.sampled_from([256, 512, 1024]))),
        m=draw(st.one_of(st.none(), st.integers(1, 8))),
    )


def _disks(draw):
    n = draw(st.integers(1, 20))
    weights = draw(
        st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n)
    )
    return SkewedBroadcastSchedule(
        draw(st.integers(0, 40)),
        dict(enumerate(weights)),
        _params(draw(st.sampled_from([256, 512, 1024]))),
        m=draw(st.one_of(st.none(), st.integers(1, 8))),
        max_frequency=draw(st.integers(1, 6)),
    )


def _mux(draw):
    params = _params(draw(st.sampled_from([256, 512, 1024])))
    services = [
        Service(
            f"s{i}",
            SimpleNamespace(packets=[None] * draw(st.integers(0, 30))),
            list(range(draw(st.integers(1, 20)))),
            params,
            m=draw(st.one_of(st.none(), st.integers(1, 6))),
        )
        for i in range(draw(st.integers(1, 3)))
    ]
    name = draw(st.sampled_from([s.name for s in services]))
    return MultiplexedBroadcast(services).timeline(name)


def _k1(draw):
    plan = BroadcastPlan(
        draw(st.integers(0, 40)),
        list(range(draw(st.integers(1, 30)))),
        _params(draw(st.sampled_from([256, 512, 1024]))),
        channels=1,
        m=draw(st.one_of(st.none(), st.integers(1, 8))),
    )
    return plan.channels[0].schedule


@st.composite
def schedules(draw):
    build = draw(st.sampled_from([_flat, _disks, _mux, _k1]))
    return build(draw)


class TestTimelineContract:
    @given(schedules(), st.lists(st.floats(-3.0, 3.0), max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_every_program_answers_the_first_airing(self, schedule, fractions):
        length = schedule.cycle_length
        check_contract(schedule, [f * length for f in fractions])

    @given(schedules())
    @settings(max_examples=40, deadline=None)
    def test_regions_off_the_air_rejected(self, schedule):
        aired = list(schedule.bucket_positions)
        for missing in (min(aired) - 1, max(aired) + 1):
            message = f"region {missing} not in schedule"
            with pytest.raises(BroadcastError, match=message):
                schedule.next_bucket_arrival(missing, 0.0)
            with pytest.raises(BroadcastError, match=message):
                schedule.next_bucket_arrivals(
                    np.array([aired[0], missing]), np.zeros(2)
                )

    def test_offset_rounded_onto_an_earlier_start(self):
        # L = 432, segments at 0/108/216/324: divmod(-108 + ulp, 432)
        # rounds the offset down to 324.0, a start that airs at -108.
        schedule = BroadcastSchedule(
            48, range(60), SystemParameters.for_index("dtree", 256), m=4
        )
        assert schedule.cycle_length == 432
        t = math.nextafter(-108.0, math.inf)
        assert schedule.next_index_start(t) >= t
        assert schedule.next_index_starts(np.array([t]))[0] >= t
        check_contract(schedule, [])
