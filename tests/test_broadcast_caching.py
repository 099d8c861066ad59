"""Tests for the client-side packet cache (extension)."""

import random

import pytest

from repro.broadcast.caching import PacketCache
from repro.broadcast.client import BroadcastClient
from repro.broadcast.params import SystemParameters
from repro.broadcast.schedule import BroadcastSchedule
from repro.core.dtree import DTree
from repro.core.paging import PagedDTree
from repro.errors import BroadcastError
from repro.geometry.point import Point

from tests.conftest import random_points_in


class TestPacketCache:
    def test_lru_eviction(self):
        cache = PacketCache(2)
        cache.touch(1)
        cache.touch(2)
        cache.touch(1)  # refresh 1; 2 becomes LRU
        cache.touch(3)
        assert 1 in cache and 3 in cache and 2 not in cache

    def test_zero_capacity_never_stores(self):
        cache = PacketCache(0)
        cache.touch(1)
        assert 1 not in cache and len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(BroadcastError):
            PacketCache(-1)

    def test_entries_are_version_keyed(self):
        cache = PacketCache(4)
        cache.touch(7)
        assert 7 in cache
        cache.set_version(1)
        assert 7 not in cache  # cached under v0, unreachable at v1
        cache.touch(7)
        assert 7 in cache
        cache.set_version(0)
        assert 7 in cache  # the old entry was never evicted


@pytest.fixture(scope="module")
def stack(voronoi60):
    params = SystemParameters.for_index("dtree", 256)
    paged = PagedDTree(DTree.build(voronoi60), params)
    schedule = BroadcastSchedule(
        index_packet_count=len(paged.packets),
        region_ids=voronoi60.region_ids,
        params=params,
    )
    return voronoi60, paged, schedule


class TestCachingClient:
    def test_answers_match_oracle(self, stack):
        sub, paged, schedule = stack
        client = BroadcastClient(paged, schedule, cache_packets=8)
        rng = random.Random(1)
        for p in random_points_in(sub, 100, seed=2):
            result = client.query(p, rng.uniform(0, schedule.cycle_length))
            assert result.region_id == sub.locate(p)

    def test_warm_cache_reduces_tuning(self, stack):
        sub, paged, schedule = stack
        cold = BroadcastClient(paged, schedule)
        warm = BroadcastClient(paged, schedule, cache_packets=16)
        rng = random.Random(3)
        points = random_points_in(sub, 200, seed=4)
        times = [rng.uniform(0, schedule.cycle_length) for _ in points]
        cold_total = sum(
            cold.query(p, t).index_tuning_time for p, t in zip(points, times)
        )
        warm_total = int(warm.run_batch(points, times).index_tuning_time.sum())
        assert warm_total < cold_total

    def test_repeated_query_becomes_free(self, stack):
        sub, paged, schedule = stack
        client = BroadcastClient(paged, schedule, cache_packets=32)
        p = Point(0.41, 0.63)
        first = client.query(p, 10.0)
        second = client.query(p, 500.0)
        assert first.index_tuning_time >= 1
        assert second.index_tuning_time == 0
        assert second.region_id == first.region_id

    def test_fully_cached_query_can_beat_cold_latency(self, stack):
        sub, paged, schedule = stack
        client = BroadcastClient(paged, schedule, cache_packets=64)
        cold = BroadcastClient(paged, schedule)
        p = Point(0.41, 0.63)
        client.query(p, 10.0)  # warm up
        rng = random.Random(5)
        warm_latency = 0.0
        cold_latency = 0.0
        for _ in range(200):
            t = rng.uniform(0, schedule.cycle_length)
            warm_latency += client.query(p, t).access_latency
            cold_latency += cold.query(p, t).access_latency
        assert warm_latency < cold_latency

    def test_cache_capacity_zero_equals_plain_client(self, stack):
        sub, paged, schedule = stack
        plain = BroadcastClient(paged, schedule)
        uncached = BroadcastClient(paged, schedule, cache_packets=0)
        rng = random.Random(6)
        for p in random_points_in(sub, 60, seed=7):
            t = rng.uniform(0, schedule.cycle_length)
            a = plain.query(p, t)
            b = uncached.query(p, t)
            assert a.region_id == b.region_id
            assert a.index_tuning_time == b.index_tuning_time
            assert a.access_latency == b.access_latency


class TestRebindAcrossUpdates:
    def test_flipped_region_is_not_served_from_stale_cache(self):
        """Regression: a client warmed on cycle v0 kept answering from
        v0 packets after the index changed on the air.  The rebind must
        re-key the cache so the first post-update query pays full index
        tuning again — and answers the *new* tessellation's oracle."""
        from repro.datasets.catalog import SERVICE_AREA
        from repro.dynamic import (
            DynamicBroadcastServer,
            churn_sites,
            diff_subdivisions,
            sites_subdivision,
        )

        rng = random.Random(31)
        sites = {
            i: Point(rng.uniform(0, 1), rng.uniform(0, 1)) for i in range(40)
        }
        sub0 = sites_subdivision(sites, SERVICE_AREA)
        server = DynamicBroadcastServer("dtree", sub0, packet_capacity=256)
        client = BroadcastClient(
            server.paged, server.schedule, cache_packets=64
        )
        p = Point(0.41, 0.63)
        warm = client.query(p, 10.0)
        assert warm.region_id == sub0.locate(p)
        assert client.query(p, 500.0).index_tuning_time == 0  # fully warm
        cache_before = client.cache

        moved = churn_sites(
            sites, SERVICE_AREA, n_move=3, move_scale=0.05, seed=9
        )
        sub1 = sites_subdivision(moved, SERVICE_AREA)
        server.apply_updates(
            sub1, diff_subdivisions(sub0, sub1, tolerance=1e-9)
        )
        client.rebind(server.paged, server.schedule)

        assert client.cache is cache_before  # the session cache survives
        assert client.cache.version == 1
        after = client.query(p, 10.0)
        assert after.index_tuning_time >= 1  # cold again: no v0 hits
        assert after.region_id == sub1.locate(p)
        assert client.query(p, 900.0).index_tuning_time == 0  # re-warmed
