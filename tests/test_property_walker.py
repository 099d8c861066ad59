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
* a cached walk never reads more index packets than an uncached one;
* the batched front door ``run_batch`` equals a loop of ``query`` —
  fields, counters and the error model's stream — on every lossy or
  error-free single-channel timeline (the flat schedule, broadcast
  disks, a multiplexed service's slot, a K=1 plan), error-free K>1 plans
  and every configuration it walks query by query, with or without the
  points' trace handed in.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast import client as client_module
from repro.broadcast.client import BroadcastClient, _DrawStream, _random_draws
from repro.broadcast.disks import SkewedBroadcastSchedule
from repro.broadcast.multiplex import MultiplexedBroadcast, Service
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
from repro.engine.trace import batched_trace
from repro.errors import BroadcastError
from repro.geometry.point import Point
from repro.obs import collecting
from repro.simulation import ChannelSimulator, make_error_model
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


def _mux_slice(kind):
    """*kind*'s slice of a channel multiplexing two services (it airs
    second, after another family's program)."""
    other = "rstar" if kind == "dtree" else "dtree"
    services = []
    for k in (other, kind):
        sub, paged, _ = _world(k)
        params = INDEX_REGISTRY[k].parameters(128)
        services.append(Service(k, paged, sub.region_ids, params))
    return MultiplexedBroadcast(services).timeline(kind)


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


def _client(paged, timeline, cache, loss, seed, start_channel=0):
    kwargs = {"cache_packets": cache, "start_channel": start_channel}
    if loss is not None:
        model, rate, policy = loss
        error_model = make_error_model(model, rate)
        error_model.reset(random.Random(seed))
        kwargs.update(error_model=error_model, policy=policy)
    return BroadcastClient(paged, timeline, **kwargs)


def _walk(kind, name, cache, loss, seed):
    sub, paged, timelines = _world(kind)
    timeline = timelines[name]
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


# -- the batched front door ---------------------------------------------------

BATCH_FIELDS = (
    "region_id", "access_latency", "index_tuning_time", "total_tuning_time",
    "read_attempts", "packet_losses", "energy_joules", "hops", "hop_slots",
)
WALK_COUNTERS = ("client.", "sim.", "cache.")
_PLANS = {}


def _hop_plan(kind, placement, hop_cost):
    """A K=4 plan of *kind*'s world with its own hop cost."""
    key = (kind, placement, hop_cost)
    if key not in _PLANS:
        sub, paged, timelines = _world(kind)
        _PLANS[key] = BroadcastPlan(
            len(paged.packets), sub.region_ids, timelines["schedule"].params,
            channels=4,
            allocation="region-locality", index_placement=placement,
            hop_cost=hop_cost,
            centroids={
                r.region_id: (r.polygon.centroid.x, r.polygon.centroid.y)
                for r in sub.regions
            },
        )
    return _PLANS[key]


def _batch_matches_loop(paged, timeline, points, times, loss=None, seed=0,
                        start_channel=0, traced=False):
    """Run ``run_batch`` and a loop of ``query`` on twin clients; assert
    equal fields, counters and error-model stream.  *traced* hands
    ``run_batch`` the points' path-less trace.  Returns the batched
    run's collector."""

    batched, looped = (
        _client(paged, timeline, None, loss, seed, start_channel)
        for _ in range(2)
    )
    trace = batched_trace(paged, points) if traced else None
    with collecting() as batch_col:
        batch = batched.run_batch(points, times, trace=trace)
    with collecting() as loop_col:
        results = [looped.query(p, t) for p, t in zip(points, times)]
    assert len(batch) == len(results)
    for field in BATCH_FIELDS:
        column = getattr(batch, "region_ids" if field == "region_id" else field)
        expected = [getattr(r, field) for r in results]
        if column is None:
            assert expected == [None] * len(results), field
        else:
            assert column.tolist() == expected, field

    def walk_counters(col):
        return {
            k: v for k, v in col.counters.items() if k.startswith(WALK_COUNTERS)
        }

    assert walk_counters(batch_col) == walk_counters(loop_col)
    if loss is not None:
        assert batched.error_model._rng.random() == looped.error_model._rng.random()
    counters = batch_col.counters
    assert (
        counters.get("walk.batched_queries", 0)
        + counters.get("walk.replayed_queries", 0)
    ) == len(points)
    return batch_col


class TestBatchedWalker:
    """``BroadcastClient.run_batch`` equals a loop of ``query``: every
    reported field, the ``client.*``/``sim.*`` counters and the error
    model's stream after the run."""

    @given(
        kinds,
        st.sampled_from(["schedule", "k1", "disks", "mux"]),
        st.sampled_from(["bernoulli", "gilbert"]),
        st.sampled_from([0.0, 0.01, 0.1, 0.5]),
        st.sampled_from(sorted(RECOVERY_POLICIES)),
        seeds,
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_k1_lossy_run_matches_walk(
        self, kind, name, model, rate, policy, seed, traced
    ):
        sub, paged, timelines = _world(kind)
        timeline = _mux_slice(kind) if name == "mux" else timelines[name]
        points, times = _queries(sub, timeline, seed, n=30)
        col = _batch_matches_loop(
            paged, timeline, points, times, (model, rate, policy), seed,
            traced=traced,
        )
        if rate == 0.0:
            assert col.counters["walk.batched_queries"] == len(points)

    @given(
        kinds,
        st.sampled_from(["bernoulli", "gilbert"]),
        st.sampled_from(sorted(RECOVERY_POLICIES)),
        seeds,
    )
    @settings(max_examples=20, deadline=None)
    def test_layout_blocks_join_seamlessly(self, kind, model, policy, seed):
        # Layouts of a few queries each: the stream carries across blocks.
        sub, paged, timelines = _world(kind)
        timeline = timelines["schedule"]
        points, times = _queries(sub, timeline, seed, n=30)
        saved = client_module._LAYOUT_QUERIES
        client_module._LAYOUT_QUERIES = 7
        try:
            _batch_matches_loop(
                paged, timeline, points, times, (model, 0.1, policy), seed
            )
        finally:
            client_module._LAYOUT_QUERIES = saved

    @given(
        kinds,
        st.sampled_from(["replicated", "distributed"]),
        st.sampled_from([0.0, 0.3, 1.0, 2.5]),
        st.integers(min_value=0, max_value=3),
        seeds,
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_error_free_plan_matches_walk(
        self, kind, placement, hop_cost, start_channel, seed, traced
    ):
        sub, paged, _ = _world(kind)
        plan = _hop_plan(kind, placement, hop_cost)
        points, times = _queries(sub, plan, seed, n=30)
        col = _batch_matches_loop(
            paged, plan, points, times, start_channel=start_channel,
            traced=traced,
        )
        assert col.counters["walk.batched_queries"] == len(points)

    @given(kinds, st.sampled_from(["schedule", "k1"]), seeds)
    @settings(max_examples=30, deadline=None)
    def test_error_free_k1_matches_walk(self, kind, name, seed):
        sub, paged, timelines = _world(kind)
        timeline = timelines[name]
        points, times = _queries(sub, timeline, seed, n=30)
        _batch_matches_loop(paged, timeline, points, times)

    @given(kinds, st.sampled_from(["disks", "mux"]), seeds, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_error_free_duck_typed_schedule_matches_walk(
        self, kind, name, seed, traced
    ):
        # Broadcast disks and a multiplexed slot batch like the flat program.
        sub, paged, timelines = _world(kind)
        timeline = timelines["disks"] if name == "disks" else _mux_slice(kind)
        points, times = _queries(sub, timeline, seed, n=30)
        col = _batch_matches_loop(paged, timeline, points, times, traced=traced)
        assert col.counters["walk.batched_queries"] == len(points)

    @given(kinds, st.sampled_from(sorted(RECOVERY_POLICIES)), seeds)
    @settings(max_examples=20, deadline=None)
    def test_every_query_replayed(self, kind, policy, seed):
        sub, paged, timelines = _world(kind)
        timeline = timelines["schedule"]
        points, times = _queries(sub, timeline, seed, n=20)
        col = _batch_matches_loop(
            paged, timeline, points, times, ("bernoulli", 0.9, policy), seed
        )
        assert col.counters["walk.replayed_queries"] == len(points)
        assert col.counters.get("walk.batched_queries", 0) == 0

    @given(
        kinds,
        st.sampled_from(["k4-distributed"]),
        st.sampled_from([None, 8]),
        seeds,
    )
    @settings(max_examples=30, deadline=None)
    def test_unbatched_configurations_walk_query_by_query(
        self, kind, name, cache, seed
    ):
        # Lossy plans and caches keep the walk.
        sub, paged, timelines = _world(kind)
        timeline = timelines[name]
        points, times = _queries(sub, timeline, seed, n=12)
        loss = ("bernoulli", 0.1, "retry-next-segment")
        client = _client(paged, timeline, cache, loss, seed)
        looped = _client(paged, timeline, cache, loss, seed)
        with collecting() as col:
            batch = client.run_batch(points, times)
        results = [looped.query(p, t) for p, t in zip(points, times)]
        assert batch.access_latency.tolist() == [r.access_latency for r in results]
        assert col.counters["walk.replayed_queries"] == len(points)

    def test_trace_of_other_points_rejected(self):
        sub, paged, timelines = _world("dtree")
        points, times = _queries(sub, timelines["schedule"], seed=1, n=5)
        client = _client(paged, timelines["schedule"], None, None, 0)
        with pytest.raises(BroadcastError, match="4 traces for 5 query points"):
            client.run_batch(
                points, times, trace=batched_trace(paged, points[:4])
            )

    def test_simulator_leaves_the_channel_stream_where_the_walk_does(self):
        sub, paged, timelines = _world("dtree")
        schedule = timelines["schedule"]
        points, times = _queries(sub, schedule, seed=4, n=200)
        simulator = ChannelSimulator(
            paged, schedule, error_model=make_error_model("gilbert", 0.05),
            policy="retry-next-segment",
        )
        report = simulator.run(points, issue_times=times, seed=9)
        walker = _client(
            paged, schedule, None, ("gilbert", 0.05, "retry-next-segment"), 0
        )
        walker.error_model.reset(random.Random("channel:9"))
        walked = [walker.query(p, t) for p, t in zip(points, times)]
        assert report.access_latency.tolist() == [r.access_latency for r in walked]
        assert report.packet_losses.sum() > 0
        assert (
            simulator.client.error_model._rng.getstate()
            == walker.error_model._rng.getstate()
        )


class TestDrawStream:
    """The scan's bulk draws are the rng's own ``random()`` stream."""

    @given(seeds, st.lists(st.integers(min_value=0, max_value=5000), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_bulk_draws_equal_successive_calls(self, seed, counts):
        bulk, single = random.Random(seed), random.Random(seed)
        for count in counts:
            drawn = _random_draws(bulk, count).tolist()
            assert drawn == [single.random() for _ in range(count)]
            assert bulk.getstate() == single.getstate()

    @given(
        seeds,
        st.lists(
            st.tuples(st.integers(0, 9000), st.integers(0, 40)), max_size=8
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_settled_stream_sits_after_the_consumed_draws(self, seed, steps):
        rng = random.Random(seed)
        stream = _DrawStream(rng)
        reference = random.Random(seed)
        for peek, consume in steps:
            ahead = stream.peek(peek).tolist()
            taken = [stream.random() for _ in range(min(consume, peek))]
            assert taken == ahead[: len(taken)]
            assert taken == [reference.random() for _ in taken]
        stream.settle()
        assert rng.getstate() == reference.getstate()
