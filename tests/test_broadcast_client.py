"""Unit tests for the client access-protocol simulator."""

import pytest

from repro.errors import BroadcastError
from repro.geometry.point import Point
from repro.broadcast.client import BroadcastClient
from repro.broadcast.packets import Packet, QueryTrace
from repro.broadcast.params import SystemParameters
from repro.broadcast.schedule import BroadcastSchedule

PARAMS = SystemParameters(packet_capacity=1024)  # 1 packet per bucket


class StubIndex:
    """Paged index answering region 0 from a fixed packet-access trace."""

    def __init__(self, n_packets, accesses, region=0):
        self.packets = [Packet(i, 1024) for i in range(n_packets)]
        self._accesses = accesses
        self._region = region

    def trace(self, point):
        return QueryTrace(self._region, list(self._accesses))


def make_schedule(index_packets=2, regions=4, m=1):
    return BroadcastSchedule(
        index_packet_count=index_packets,
        region_ids=list(range(regions)),
        params=PARAMS,
        m=m,
    )


class TestClient:
    def test_packet_count_mismatch_rejected(self):
        schedule = make_schedule(index_packets=2)
        with pytest.raises(BroadcastError):
            BroadcastClient(StubIndex(3, [0]), schedule)

    def test_latency_accounts_probe_index_and_data_wait(self):
        # Cycle: [i0 i1 b0 b1 b2 b3], query at t=0 for region 0:
        # index read finishes after packet 0 (position 1), bucket 0 at
        # position 2, ends at 3 -> latency 3.
        schedule = make_schedule()
        client = BroadcastClient(StubIndex(2, [0]), schedule)
        result = client.query(Point(0, 0), issue_time=0.0)
        assert result.access_latency == pytest.approx(3.0)

    def test_bucket_immediately_after_index_needs_no_wait(self):
        # Region 0's bucket is at position 2; the index search finishes
        # reading at exactly position 2, so the bucket is caught directly.
        schedule = make_schedule()
        client = BroadcastClient(StubIndex(2, [0, 1]), schedule)
        result = client.query(Point(0, 0), issue_time=0.0)
        assert result.access_latency == pytest.approx(3.0)

    def test_latency_waits_for_next_cycle_when_bucket_passed(self):
        # m=2: cycle [i b0 b1 i b2 b3]; a query served by the second index
        # copy needs bucket 0, which has already passed -> full-cycle wait.
        schedule = make_schedule(index_packets=1, regions=4, m=2)
        client = BroadcastClient(StubIndex(1, [0]), schedule)
        result = client.query(Point(0, 0), issue_time=3.0)
        # index at 3 ends at 4; bucket 0 next at 6+1=7, ends 8 -> latency 5.
        assert result.access_latency == pytest.approx(5.0)

    def test_query_mid_cycle_waits_for_next_index(self):
        schedule = make_schedule(m=1)
        client = BroadcastClient(StubIndex(2, [0]), schedule)
        result = client.query(Point(0, 0), issue_time=3.0)
        # next index at position 6 (next cycle), read packet 0 (ends 7),
        # bucket 0 at 8, ends 9 -> latency 6.
        assert result.access_latency == pytest.approx(6.0)

    def test_tuning_times(self):
        schedule = make_schedule()
        client = BroadcastClient(StubIndex(2, [0, 1]), schedule)
        result = client.query(Point(0, 0), issue_time=0.0)
        assert result.index_tuning_time == 2
        # probe (1) + index (2) + bucket download (1)
        assert result.total_tuning_time == 4

    def test_backward_traversal_rejected(self):
        schedule = make_schedule()
        client = BroadcastClient(StubIndex(2, [1, 0]), schedule)
        with pytest.raises(BroadcastError):
            client.query(Point(0, 0), issue_time=0.0)

    def test_m2_halves_probe_wait(self):
        # With m=2 an index segment comes around twice per cycle.
        schedule = make_schedule(index_packets=1, regions=4, m=2)
        client = BroadcastClient(StubIndex(1, [0]), schedule)
        # cycle: [i b0 b1 | i b2 b3]; query at t=1.5 -> next index at 3.
        result = client.query(Point(0, 0), issue_time=1.5)
        # index read ends at 4; bucket 0 next at 7 (next cycle pos 1), ends 8.
        assert result.access_latency == pytest.approx(8 - 1.5)

    def test_run_workload_deterministic_with_times(self):
        schedule = make_schedule()
        client = BroadcastClient(StubIndex(2, [0]), schedule)
        points = [Point(0, 0)] * 3
        results = client.run_workload(points, issue_times=[0.0, 0.0, 0.0])
        assert len({r.access_latency for r in results}) == 1


class TestDozeCounters:
    """The probe reads the packet in flight, so a walk that reads every
    slot from the probe to the end of its bucket is shorter than its
    reads: cycle ``[i0 i1 b0 b1 b2 b3]``, issued at 5.9, probe at slot
    5, index at 6-7, bucket 0 at 8 -> latency 3.1 for 4 reads."""

    def _walk(self, **effects):
        from repro.obs import collecting

        client = BroadcastClient(StubIndex(2, [0, 1]), make_schedule(), **effects)
        with collecting() as col:
            result = client.query(Point(0, 0), issue_time=5.9)
        assert result.access_latency == pytest.approx(3.1)
        assert result.total_tuning_time == 4
        return col.counters

    def test_loss_effect_clamps_doze_at_zero(self):
        from repro.simulation import PerfectChannel

        counters = self._walk(error_model=PerfectChannel())
        assert counters["sim.doze_slots"] == 0.0
        assert counters["sim.energy.doze_j"] == 0.0

    def test_error_free_doze_is_the_plain_difference(self):
        counters = self._walk()
        assert counters["client.doze_slots"] == (9 - 5.9) - 4
