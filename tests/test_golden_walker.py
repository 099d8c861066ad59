"""Golden per-query outputs of every access-protocol entry point.

One fixture (``tests/data/golden_walker.json``) holds, for a fixed seed
grid, the per-query outcome of every way the package walks the paper's
probe -> index search -> doze -> data protocol, plus the ``client.*``,
``sim.*`` and ``cache.*`` counters each run emits.  The grid covers:

* K=1 and K=4 timelines, replicated and distributed index placement;
* no cache, a capacity-0 cache and an 8-packet cache;
* Bernoulli and Gilbert-Elliott loss at 0.01 and 0.1, under every
  recovery policy;
* a broadcast-disks schedule and a two-service multiplexed channel;
* the dynamic client with updates injected at fixed packet reads;
* continuous mobility sessions, error-free and lossy.

Every value must match bit for bit.  The client-vs-client parity suites
compare implementations with each other; this fixture pins them all to
recorded numbers, so it stays meaningful when implementations merge.

Regenerate (only when a change is *meant* to move a number, and say so
in the change log) with::

    PYTHONPATH=src python tests/test_golden_walker.py --write
"""

import json
import random
import sys
from pathlib import Path

import pytest

from repro.broadcast.client import BroadcastClient
from repro.broadcast.disks import (
    SkewedBroadcastSchedule,
    region_weights_from_workload,
)
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
from repro.engine import INDEX_REGISTRY, QueryEngine, evaluate_workload
from repro.geometry.point import Point
from repro.mobility import RandomWaypointWorkload, evaluate_trajectory_workload
from repro.mobility.units import units_per_slot
from repro.obs import collecting
from repro.simulation import ChannelSimulator, make_error_model
from repro.simulation.policies import RECOVERY_POLICIES
from repro.tessellation.voronoi import voronoi_subdivision

FIXTURE = Path(__file__).parent / "data" / "golden_walker.json"
KINDS = ("dtree", "rstar")
QUERIES = 24
COUNTER_FAMILIES = ("client.", "sim.", "cache.")
BASE = ("region_id", "access_latency", "index_tuning_time", "total_tuning_time")
HOP = BASE + ("hops", "hop_slots")
SIM = HOP + ("read_attempts", "packet_losses", "energy_joules")
DYNAMIC = BASE + ("version", "attempts", "wasted_tuning")
PLANS = {
    "k1": dict(channels=1),
    "k4-replicated": dict(
        channels=4, allocation="region-locality", index_placement="replicated"
    ),
    "k4-distributed": dict(
        channels=4, allocation="region-locality", index_placement="distributed"
    ),
}

_STACKS = {}


def _stack(kind):
    """(subdivision, paged index, params, schedule), built once per kind."""
    if kind not in _STACKS:
        sites = uniform_points(40, seed=11, service_area=SERVICE_AREA)
        sub = voronoi_subdivision(sites, SERVICE_AREA)
        family = INDEX_REGISTRY[kind]
        params = family.parameters(128)
        paged = family.build(sub, seed=7).page(params)
        schedule = BroadcastSchedule(len(paged.packets), sub.region_ids, params)
        _STACKS[kind] = (sub, paged, params, schedule)
    return _STACKS[kind]


def _timeline(kind, name):
    sub, paged, params, schedule = _stack(kind)
    if name == "schedule":
        return schedule
    if name == "disks":
        rng = random.Random(3)
        sample = [sub.random_point(rng) for _ in range(200)]
        weights = region_weights_from_workload(sub, sample[:50])
        return SkewedBroadcastSchedule(len(paged.packets), weights, params)
    return BroadcastPlan(
        len(paged.packets),
        sub.region_ids,
        params,
        centroids={
            r.region_id: (r.polygon.centroid.x, r.polygon.centroid.y)
            for r in sub.regions
        },
        **PLANS[name],
    )


def _queries(kind, timeline, seed, local=False):
    """Fixed query points and issue times; *local* repeats a few anchor
    points so a packet cache sees hits."""
    sub = _stack(kind)[0]
    rng = random.Random(seed)
    if local:
        anchors = [sub.random_point(rng) for _ in range(5)]
        points = [anchors[rng.randrange(5)] for _ in range(QUERIES)]
    else:
        points = [sub.random_point(rng) for _ in range(QUERIES)]
    times = [rng.uniform(0, timeline.cycle_length) for _ in points]
    return points, times


def _row(result, fields):
    return [getattr(result, f) for f in fields]


def _counters(col):
    return {
        k: v
        for k, v in sorted(col.counters.items())
        if k.startswith(COUNTER_FAMILIES)
    }


def _cached_client(paged, timeline, cache_packets):
    """An error-free client with a packet cache, in whichever spelling
    the package offers: ``BroadcastClient(cache_packets=)`` or the older
    ``CachingBroadcastClient``."""
    try:
        from repro.broadcast.caching import CachingBroadcastClient
    except ImportError:
        return BroadcastClient(paged, timeline, cache_packets=cache_packets)
    return CachingBroadcastClient(paged, timeline, cache_packets=cache_packets)


# -- cases -----------------------------------------------------------------


def _case_client(kind, timeline_name):
    paged = _stack(kind)[1]
    timeline = _timeline(kind, timeline_name)
    points, times = _queries(kind, timeline, seed=1)
    fields = BASE if timeline_name in ("schedule", "disks", "k1") else HOP
    client = BroadcastClient(paged, timeline)
    with collecting() as col:
        rows = [_row(client.query(p, t), fields) for p, t in zip(points, times)]
    return {"rows": rows, "counters": _counters(col)}


def _case_cached(kind, timeline_name, capacity):
    paged = _stack(kind)[1]
    timeline = _timeline(kind, timeline_name)
    points, times = _queries(kind, timeline, seed=2, local=True)
    fields = BASE if timeline_name in ("schedule", "k1") else HOP
    client = _cached_client(paged, timeline, capacity)
    with collecting() as col:
        rows = [_row(client.query(p, t), fields) for p, t in zip(points, times)]
    return {"rows": rows, "counters": _counters(col)}


def _case_engine(kind, timeline_name):
    sub, paged, params, _ = _stack(kind)
    timeline = _timeline(kind, timeline_name)
    points, times = _queries(kind, timeline, seed=3)
    with collecting() as col:
        batch = QueryEngine(paged, timeline).run(points, issue_times=times)
        if isinstance(timeline, BroadcastPlan):
            planned = evaluate_workload(
                paged, sub.region_ids, params, points, seed=4, plan=timeline
            )
        else:
            planned = batch
    arrays = [
        batch.region_ids, batch.access_latency, batch.index_tuning_time,
        batch.total_tuning_time, planned.region_ids, planned.access_latency,
        planned.index_tuning_time, planned.total_tuning_time,
    ]
    return {
        "rows": [a.tolist() for a in arrays],
        "counters": _counters(col),
    }


def _case_sim(kind, timeline_name, model, rate, policy, capacity):
    paged = _stack(kind)[1]
    timeline = _timeline(kind, timeline_name)
    points, times = _queries(kind, timeline, seed=5, local=capacity > 0)
    simulator = ChannelSimulator(
        paged,
        timeline,
        error_model=make_error_model(model, rate),
        policy=policy,
        cache_packets=capacity,
        index_kind=kind,
    )
    with collecting() as col:
        report = simulator.run(points, issue_times=times, seed=6)
    # The same walk query by query, for the fields the report drops.
    simulator.client.error_model.reset(random.Random("channel:6"))
    per_query = ChannelSimulator(
        paged,
        timeline,
        error_model=make_error_model(model, rate),
        policy=policy,
        cache_packets=capacity,
    ).client
    per_query.error_model.reset(random.Random("channel:6"))
    rows = [_row(per_query.query(p, t), SIM) for p, t in zip(points, times)]
    arrays = [
        report.region_ids, report.access_latency, report.tuning_time,
        report.energy_joules, report.packet_losses, report.read_attempts,
    ]
    return {
        "rows": rows,
        "report": [a.tolist() for a in arrays],
        "counters": _counters(col),
    }


def _case_mux(_kind=None):
    services = []
    for kind in KINDS:
        sub, paged, params, _ = _stack(kind)
        services.append(Service(kind, paged, sub.region_ids, params))
    mux = MultiplexedBroadcast(services)
    rows = []
    with collecting() as col:
        for kind in KINDS:
            points, _ = _queries(kind, mux, seed=8)
            rng = random.Random(9)
            for p in points:
                rows.append(
                    _row(mux.query(kind, p, rng.uniform(0, mux.cycle_length)), BASE)
                )
    return {"rows": rows, "counters": _counters(col)}


def _case_dynamic(kind):
    area = SERVICE_AREA
    rng = random.Random(21)
    sites = {
        i: Point(rng.uniform(area.min_x, area.max_x), rng.uniform(area.min_y, area.max_y))
        for i in range(40)
    }
    sub = sites_subdivision(sites, area)
    chain = []
    prev = sub
    for _ in range(4):
        sites = churn_sites(
            sites, area, n_move=1, move_scale=0.02 * (area.max_x - area.min_x),
            rng=rng,
        )
        new = sites_subdivision(sites, area)
        chain.append((new, diff_subdivisions(prev, new, tolerance=1e-9 * (area.max_x - area.min_x))))
        prev = new
    server = DynamicBroadcastServer(kind, sub, packet_capacity=128)
    # Each update lands just before the n-th read of one protocol stage.
    reads = {"probe": 0, "index": 0, "data": 0}
    fire_at = {("index", 4): 0, ("data", 5): 1, ("probe", 9): 2, ("index", 30): 3}

    def inject(stage, attempt):
        reads[stage] += 1
        step = fire_at.get((stage, reads[stage]))
        if step is not None:
            server.apply_updates(*chain[step])

    client = DynamicBroadcastClient(server, on_packet_read=inject)
    qrng = random.Random(22)
    points = sub.random_points(QUERIES, qrng)
    rows = []
    with collecting() as col:
        for p in points:
            t = qrng.uniform(0, client.cycle_length)
            rows.append(_row(client.query(p, t), DYNAMIC))
    return {"rows": rows, "counters": _counters(col)}


def _case_mobility(kind, capacity, rate):
    sub, paged, params, schedule = _stack(kind)
    workload = RandomWaypointWorkload(
        SERVICE_AREA,
        schedule.cycle_length,
        waypoints=3,
        speed_range=(units_per_slot(30.0, 128), units_per_slot(120.0, 128)),
        seed=5,
    )
    with collecting() as col:
        batch = evaluate_trajectory_workload(
            paged, sub.region_ids, params, workload.chunk(0, 12),
            subdivision=sub, schedule=schedule, max_epochs=16,
            cache_packets=capacity, error_rate=rate, error_model="gilbert",
            seed=3,
        )
    arrays = [
        batch.retunes, batch.attempts, batch.losses, batch.access_latency,
        batch.index_tuning_time, batch.total_tuning_time, batch.energy_joules,
        batch.stale_slots,
    ]
    return {
        "rows": [a.tolist() for a in arrays]
        + [a.tolist() for a in batch.answers],
        "counters": _counters(col),
    }


def _cases():
    """name -> zero-argument recorder, over the whole seed grid."""
    cases = {"mux": _case_mux}
    for kind in KINDS:
        for tl in ("schedule", "disks", "k1", "k4-replicated", "k4-distributed"):
            cases[f"client/{kind}/{tl}"] = (lambda k=kind, t=tl: _case_client(k, t))
        for tl in ("schedule", "k4-replicated", "k4-distributed"):
            for cap in (0, 8):
                cases[f"cached/{kind}/{tl}/{cap}"] = (
                    lambda k=kind, t=tl, c=cap: _case_cached(k, t, c)
                )
        for tl in ("disks", "k4-replicated", "k4-distributed"):
            cases[f"engine/{kind}/{tl}"] = (lambda k=kind, t=tl: _case_engine(k, t))
        for tl in ("schedule", "k4-replicated", "k4-distributed"):
            for model in ("bernoulli", "gilbert"):
                for rate in (0.01, 0.1):
                    for policy in RECOVERY_POLICIES:
                        for cap in (0, 8):
                            cases[f"sim/{kind}/{tl}/{model}/{rate}/{policy}/{cap}"] = (
                                lambda k=kind, t=tl, m=model, r=rate, p=policy, c=cap:
                                _case_sim(k, t, m, r, p, c)
                            )
        for policy in ("retry-next-segment", "retry-next-cycle"):
            cases[f"sim/{kind}/disks/bernoulli/0.1/{policy}/0"] = (
                lambda k=kind, p=policy: _case_sim(k, "disks", "bernoulli", 0.1, p, 0)
            )
        cases[f"dynamic/{kind}"] = (lambda k=kind: _case_dynamic(k))
        for cap in (0, 8):
            for rate in (0.0, 0.1):
                cases[f"mobility/{kind}/{cap}/{rate}"] = (
                    lambda k=kind, c=cap, r=rate: _case_mobility(k, c, r)
                )
    return cases


CASES = _cases()


@pytest.fixture(scope="module")
def golden():
    with FIXTURE.open() as fh:
        return json.load(fh)


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_entry_point_matches_golden(golden, name):
    # A JSON round trip turns tuples into lists and keeps floats exact.
    got = json.loads(json.dumps(CASES[name]()))
    assert got == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_golden_walker.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    data = {name: record() for name, record in CASES.items()}
    FIXTURE.write_text(json.dumps(data, separators=(",", ":"), sort_keys=True))
    print(f"wrote {len(data)} cases to {FIXTURE}")
