"""Property-based tests (hypothesis) for the access walker's effects.

One suite over every combination the walker composes: timeline
(schedule, broadcast disks, K=1 plan, K=4 replicated or distributed
plan) x packet cache (none, 0, 8) x loss model and recovery policy,
plus version skew for the dynamic binding.  Whatever the combination:

* every answer is the subdivision oracle's;
* access latency covers the tuning time and the hop slots;
* a zero-loss, uncached walk equals the batched ``QueryEngine`` bit for
  bit, at K=1 and K>1;
* a K=1 plan walks exactly like its schedule;
* a cached walk never reads more index packets than an uncached one.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.client import BroadcastClient
from repro.broadcast.disks import SkewedBroadcastSchedule
from repro.broadcast.plan import BroadcastPlan
from repro.broadcast.schedule import BroadcastSchedule
from repro.datasets.catalog import SERVICE_AREA
from repro.datasets.generators import uniform_points
from repro.dynamic import (
    DynamicBroadcastClient,
    DynamicBroadcastServer,
    churn_sites,
    diff_subdivisions,
    sites_subdivision,
)
from repro.engine import INDEX_REGISTRY, QueryEngine
from repro.geometry.point import Point
from repro.simulation import make_error_model
from repro.simulation.policies import RECOVERY_POLICIES
from repro.tessellation.voronoi import voronoi_subdivision

TIMELINES = ("schedule", "disks", "k1", "k4-replicated", "k4-distributed")
_WORLDS = {}


def _world(kind):
    """(subdivision, paged index, {timeline name: timeline}) per kind."""
    if kind not in _WORLDS:
        sites = uniform_points(30, seed=13, service_area=SERVICE_AREA)
        sub = voronoi_subdivision(sites, SERVICE_AREA)
        family = INDEX_REGISTRY[kind]
        params = family.parameters(128)
        paged = family.build(sub, seed=3).page(params)
        n = len(paged.packets)
        centroids = {
            r.region_id: (r.polygon.centroid.x, r.polygon.centroid.y)
            for r in sub.regions
        }
        weights = {rid: 1.0 + (rid % 5) for rid in sub.region_ids}

        def plan(channels, placement):
            return BroadcastPlan(
                n, sub.region_ids, params, channels=channels,
                allocation="region-locality", index_placement=placement,
                centroids=centroids,
            )

        timelines = {
            "schedule": BroadcastSchedule(n, sub.region_ids, params),
            "disks": SkewedBroadcastSchedule(n, weights, params),
            "k1": plan(1, "distributed"),
            "k4-replicated": plan(4, "replicated"),
            "k4-distributed": plan(4, "distributed"),
        }
        _WORLDS[kind] = (sub, paged, timelines)
    return _WORLDS[kind]


kinds = st.sampled_from(sorted(INDEX_REGISTRY))
timeline_names = st.sampled_from(TIMELINES)
caches = st.sampled_from([None, 0, 8])
losses = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from(["bernoulli", "gilbert"]),
        st.sampled_from([0.01, 0.1, 0.3]),
        st.sampled_from(sorted(RECOVERY_POLICIES)),
    ),
)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _queries(sub, timeline, seed, n=12):
    """Query points (a few repeated, so caches hit) and issue times."""
    rng = random.Random(seed)
    anchors = [sub.random_point(rng) for _ in range(4)]
    points = [
        anchors[rng.randrange(4)] if rng.random() < 0.5 else sub.random_point(rng)
        for _ in range(n)
    ]
    return points, [rng.uniform(0, timeline.cycle_length) for _ in points]


def _client(paged, timeline, cache, loss, seed):
    kwargs = {"cache_packets": cache}
    if loss is not None:
        model, rate, policy = loss
        error_model = make_error_model(model, rate)
        error_model.reset(random.Random(seed))
        kwargs.update(error_model=error_model, policy=policy)
    return BroadcastClient(paged, timeline, **kwargs)


def _walk(kind, name, cache, loss, seed):
    sub, paged, timelines = _world(kind)
    timeline = timelines[name]
    if name == "disks" and loss is not None and loss[2] == "upper-bound-fallback":
        loss = (loss[0], loss[1], "retry-next-segment")  # disks list no region ids
    points, times = _queries(sub, timeline, seed)
    client = _client(paged, timeline, cache, loss, seed)
    return sub, points, times, [client.query(p, t) for p, t in zip(points, times)]


def _key(r):
    return (r.region_id, r.access_latency, r.index_tuning_time, r.total_tuning_time)


class TestEveryCombination:
    @given(kinds, timeline_names, caches, losses, seeds)
    @settings(max_examples=120, deadline=None)
    def test_answers_exact_and_latency_covers_tuning(
        self, kind, name, cache, loss, seed
    ):
        sub, points, _, results = _walk(kind, name, cache, loss, seed)
        for p, r in zip(points, results):
            assert r.region_id == sub.locate(p)
            assert r.access_latency >= r.total_tuning_time + r.hop_slots
            assert r.read_attempts == r.total_tuning_time
            assert r.packet_losses <= r.read_attempts
            if loss is None:
                assert r.packet_losses == 0

    @given(kinds, st.sampled_from(TIMELINES), seeds)
    @settings(max_examples=60, deadline=None)
    def test_zero_loss_walk_equals_engine(self, kind, name, seed):
        sub, paged, timelines = _world(kind)
        timeline = timelines[name]
        points, times = _queries(sub, timeline, seed)
        batch = QueryEngine(paged, timeline).run(points, issue_times=times)
        lossless = _client(paged, timeline, None, ("bernoulli", 0.0, "retry-next-segment"), seed)
        for i, (p, t) in enumerate(zip(points, times)):
            expected = (
                batch.region_ids[i], batch.access_latency[i],
                batch.index_tuning_time[i], batch.total_tuning_time[i],
            )
            assert _key(lossless.query(p, t)) == expected

    @given(kinds, caches, losses, seeds)
    @settings(max_examples=60, deadline=None)
    def test_k1_plan_walks_like_its_schedule(self, kind, cache, loss, seed):
        via_plan = _walk(kind, "k1", cache, loss, seed)[3]
        via_schedule = _walk(kind, "schedule", cache, loss, seed)[3]
        assert [_key(r) + (r.packet_losses, r.energy_joules, r.hops) for r in via_plan] == [
            _key(r) + (r.packet_losses, r.energy_joules, r.hops) for r in via_schedule
        ]

    @given(kinds, timeline_names, st.sampled_from([0, 8]), seeds)
    @settings(max_examples=60, deadline=None)
    def test_cache_never_reads_more_index_packets(self, kind, name, cache, seed):
        uncached = _walk(kind, name, None, None, seed)[3]
        cached = _walk(kind, name, cache, None, seed)[3]
        for a, b in zip(cached, uncached):
            assert a.region_id == b.region_id
            assert a.index_tuning_time <= b.index_tuning_time


def _chain(n_sites, steps, seed):
    area = SERVICE_AREA
    rng = random.Random(seed)
    sites = {
        i: Point(rng.uniform(area.min_x, area.max_x), rng.uniform(area.min_y, area.max_y))
        for i in range(n_sites)
    }
    first = prev = sites_subdivision(sites, area)
    out = []
    for _ in range(steps):
        sites = churn_sites(
            sites, area, n_move=1, move_scale=0.02 * (area.max_x - area.min_x),
            rng=rng,
        )
        new = sites_subdivision(sites, area)
        out.append((new, diff_subdivisions(prev, new, tolerance=1e-9)))
        prev = new
    return first, out


SUB0, CHAIN = _chain(n_sites=24, steps=3, seed=17)


class TestVersionSkew:
    @given(
        st.sampled_from(["dtree", "rstar"]),
        st.lists(st.integers(min_value=0, max_value=40), max_size=len(CHAIN)),
        seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_skewed_walk_exact_for_its_stamp(self, kind, fire_at, seed):
        server = DynamicBroadcastServer(kind, SUB0, packet_capacity=128)
        pending = list(CHAIN)
        calls = [0]
        fire = sorted(fire_at)

        def hook(stage, attempt):
            calls[0] += 1
            while fire and pending and fire[0] <= calls[0]:
                fire.pop(0)
                server.apply_updates(*pending.pop(0))

        client = DynamicBroadcastClient(server, on_packet_read=hook)
        rng = random.Random(seed)
        for p in SUB0.random_points(6, rng):
            r = client.query(p, rng.uniform(0, client.cycle_length))
            assert r.region_id == server.history[r.version][0].locate(p)
            assert r.access_latency >= r.total_tuning_time
            assert (r.attempts > 1) == (r.wasted_tuning > 0)
