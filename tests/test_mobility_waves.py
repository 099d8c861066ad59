"""Epoch waves vs the per-client walk (DESIGN.md §13).

Error-free, cache-free mobility sessions run in epoch waves: one
compiled engine run and one batched exit-bound call per wave.  The
per-client :func:`evaluate_trajectory` walk over a fresh
:class:`BroadcastClient` per trajectory stays the oracle; every
:class:`MobilityBatchResult` field must match it bit for bit.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mobility.client as client_module
import repro.mobility.evaluate as evaluate_module
from repro.broadcast.client import BroadcastClient
from repro.broadcast.plan import BroadcastPlan
from repro.broadcast.schedule import BroadcastSchedule
from repro.datasets.catalog import SERVICE_AREA, uniform_dataset
from repro.engine import available_index_kinds, index_family
from repro.errors import QueryError, ReproError, SubdivisionError
from repro.geometry.kernels import point_coords, point_segment_distance_batch
from repro.geometry.point import Point
from repro.mobility import (
    BoundaryHuggingWorkload,
    RandomWaypointWorkload,
    RegionBoundaryIndex,
    Trajectory,
    default_epoch_slots,
    evaluate_trajectory,
    evaluate_trajectory_workload,
    units_per_slot,
)
from repro.mobility.trajectory import sample_epochs
from repro.obs import collecting
from repro.simulation.energy import EnergyModel
from repro.simulation.faults import make_error_model
from repro.simulation.policies import RECOVERY_POLICIES
from repro.tessellation.grid import grid_subdivision

DATASET = uniform_dataset(n=30, seed=13)
SUBDIVISION = DATASET.subdivision
BOUNDARY = RegionBoundaryIndex(SUBDIVISION)
SPEEDS = (units_per_slot(30.0, 256), units_per_slot(150.0, 256))
KM_PER_UNIT = 10.0
#: Distance kept from the service-area border, where the trap- and
#: trian-trees refuse to locate.
MARGIN = 1e-3


def _stack(kind):
    family = index_family(kind)
    params = family.parameters(256)
    paged = family.build(SUBDIVISION, seed=13).page(params)
    schedule = BroadcastSchedule(
        index_packet_count=len(paged.packets),
        region_ids=list(SUBDIVISION.region_ids),
        params=params,
    )
    return paged, params, schedule


STACKS = {kind: _stack(kind) for kind in available_index_kinds()}


class PerPointBoundary:
    """A boundary index with only the scalar ``exit_bound`` duck type."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def exit_bound(self, region_id, x, y):
        self.calls += 1
        return self.inner.exit_bound(region_id, x, y)


def _oracle(kind, trajectories, boundary, predictive, max_epochs, **effects):
    """Every batch field from a loop of per-client walks, and the
    walks' shared error model (None on a perfect channel).

    *effects* are :func:`evaluate_trajectory_workload`'s channel
    arguments (``schedule``, ``cache_packets``, ``error_rate``,
    ``error_model``, ``policy``, ``seed``), turned into walker
    arguments the way its docstring describes.
    """
    paged, params, schedule = STACKS[kind]
    timeline = effects.get("schedule", schedule)
    cache_packets = effects.get("cache_packets", 0)
    channel = None
    if effects.get("error_rate", 0.0):
        channel = make_error_model(
            effects.get("error_model", "bernoulli"), effects["error_rate"]
        )
        channel.reset(random.Random(f"channel:{effects.get('seed', 0)}"))
    epoch_slots = default_epoch_slots(timeline.cycle_length)
    outcomes = [
        evaluate_trajectory(
            t,
            BroadcastClient(
                paged,
                timeline,
                cache_packets=cache_packets or None,
                error_model=channel,
                policy=effects.get("policy", "retry-next-segment"),
                energy_model=EnergyModel() if channel is not None else None,
            ),
            boundary,
            epoch_slots,
            predictive=predictive,
            max_epochs=max_epochs,
        )
        for t in trajectories
    ]
    spans = [
        max((o.epochs - 1) * epoch_slots + o.last_latency, float(o.attempts))
        for o in outcomes
    ]
    attempts = np.array([o.attempts for o in outcomes], np.int64)
    return {
        "epochs": [o.epochs for o in outcomes],
        "retunes": [o.retunes for o in outcomes],
        "skips": [o.skips for o in outcomes],
        "crossings": [o.crossings for o in outcomes],
        "stale_slots": [o.stale_epochs * epoch_slots for o in outcomes],
        "attempts": attempts,
        "losses": [o.losses for o in outcomes],
        "access_latency": [o.first_latency for o in outcomes],
        "index_tuning_time": [o.first_index_tuning for o in outcomes],
        "total_tuning_time": [o.first_tuning for o in outcomes],
        "energy_joules": EnergyModel().batch_joules(
            attempts, np.array(spans), params.packet_capacity
        ),
        "distance_km": [o.distance_units * KM_PER_UNIT for o in outcomes],
        "final_answers": [o.answers[-1] for o in outcomes],
        "answers": [o.answers for o in outcomes],
        "epoch_slots": epoch_slots,
        "km_per_unit": KM_PER_UNIT,
    }, channel


#: The counter and histogram families a session reports.
OBSERVED = ("client.", "sim.", "cache.", "mobility.")


def _observed(col):
    return (
        {k: v for k, v in col.counters.items() if k.startswith(OBSERVED)},
        {
            k: h.to_dict()
            for k, h in col.histograms.items()
            if k.startswith(OBSERVED)
        },
    )


def _assert_matches_oracle(
    kind, trajectories, predictive=True, max_epochs=32, boundary=BOUNDARY,
    **effects,
):
    """The waves equal the oracle walks: every batch field, the
    observed counters and histograms, and the error model's stream
    after the run."""
    paged, params, schedule = STACKS[kind]
    models = []

    def spy(*args, **kwargs):
        models.append(make_error_model(*args, **kwargs))
        return models[-1]

    with mock.patch.object(evaluate_module, "make_error_model", spy):
        with collecting() as col:
            batch = evaluate_trajectory_workload(
                paged, [], params, trajectories,
                boundary_index=boundary if predictive else None,
                predictive=predictive, max_epochs=max_epochs,
                km_per_unit=KM_PER_UNIT, **{"schedule": schedule, **effects},
            )
    with collecting() as oracle_col:
        expected, channel = _oracle(
            kind, trajectories, BOUNDARY if predictive else None, predictive,
            max_epochs, **effects,
        )
    assert set(expected) == set(type(batch).__slots__)
    for field, want in expected.items():
        got = getattr(batch, field)
        if field == "answers":
            assert len(got) == len(want)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
        else:
            np.testing.assert_array_equal(got, np.asarray(want), err_msg=field)
            if isinstance(got, np.ndarray):
                assert got.dtype == np.asarray(want).dtype, field
    assert _observed(col) == _observed(oracle_col)
    if channel is None:
        assert not models
    else:
        (model,) = models
        assert model._rng.getstate() == channel._rng.getstate()
    return batch


def _workload(name, seed, offset=0.01):
    cycle = STACKS["dtree"][2].cycle_length
    if name == "random-waypoint":
        return RandomWaypointWorkload(
            SERVICE_AREA, cycle, waypoints=3, speed_range=SPEEDS, seed=seed
        )
    return BoundaryHuggingWorkload(
        SUBDIVISION, cycle, waypoints=3, speed_range=SPEEDS,
        offset=offset, seed=seed,
    )


def _off_border(trajectories):
    """The trajectories whose waypoints all keep :data:`MARGIN` off the
    border (so do the paths between them)."""
    def interior(v):
        return np.all((v >= MARGIN) & (v <= 1.0 - MARGIN))

    return [t for t in trajectories if interior(t.xs) and interior(t.ys)]


class TestWaveParity:
    @pytest.mark.parametrize("kind", sorted(STACKS))
    @pytest.mark.parametrize("predictive", [True, False])
    @pytest.mark.parametrize(
        "workload", ["random-waypoint", "boundary-hugging"]
    )
    def test_matches_per_client_walk(self, kind, predictive, workload):
        trajectories = _off_border(_workload(workload, seed=3).chunk(0, 40))
        assert len(trajectories) >= 20
        _assert_matches_oracle(kind, trajectories, predictive)

    @pytest.mark.parametrize("kind", sorted(STACKS))
    def test_on_edge_paths(self, kind):
        """Zero offset: waypoints lie on region edges, where the exit
        bound collapses and boundary ties decide the answers."""
        trajectories = _off_border(
            _workload("boundary-hugging", 5, offset=0.0).chunk(0, 60)
        )
        assert len(trajectories) >= 20
        _assert_matches_oracle(kind, trajectories)

    def test_unlocatable_point_fails_like_the_walk(self):
        paged, params, schedule = STACKS["trian"]
        border = Trajectory([0.0, 0.5], [0.3, 0.3], speed=SPEEDS[1])
        with pytest.raises(QueryError, match="outside the subdivided area"):
            evaluate_trajectory(
                border, BroadcastClient(paged, schedule), BOUNDARY, 100.0
            )
        with pytest.raises(QueryError, match="outside the subdivided area"):
            evaluate_trajectory_workload(
                paged, [], params, [border], boundary_index=BOUNDARY,
                schedule=schedule,
            )

    @pytest.mark.parametrize("kind", sorted(STACKS))
    def test_zero_velocity_and_single_epoch(self, kind):
        rng = random.Random(17)
        points = SUBDIVISION.random_points(12, rng)
        parked = [
            Trajectory([p.x], [p.y], speed=0.0, issue_time=rng.uniform(0, 900))
            for p in points
        ]
        moving = _workload("random-waypoint", 4).chunk(0, 12)
        batch = _assert_matches_oracle(kind, parked + moving)
        assert np.all(batch.epochs[:12] == 1)
        _assert_matches_oracle(kind, moving, max_epochs=1)

    @pytest.mark.parametrize("predictive", [True, False])
    def test_per_point_boundary_duck_type(self, predictive):
        trajectories = _off_border(_workload("boundary-hugging", 8).chunk(0, 30))
        duck = PerPointBoundary(BOUNDARY)
        _assert_matches_oracle(
            "dtree", trajectories, predictive, boundary=duck
        )
        assert (duck.calls > 0) == predictive


def _plan(kind, placement):
    """A K=4 region-locality plan over *kind*'s paged index."""
    paged, params, _ = STACKS[kind]
    return BroadcastPlan(
        len(paged.packets),
        SUBDIVISION.region_ids,
        params,
        channels=4,
        allocation="region-locality",
        index_placement=placement,
        centroids={
            r.region_id: (r.polygon.centroid.x, r.polygon.centroid.y)
            for r in SUBDIVISION.regions
        },
    )


class TestEffectParity:
    """Loss, packet caches and channel hops: the waves fix the re-tune
    schedule, then replay it through the walker in client order."""

    TRAJECTORIES = _off_border(_workload("boundary-hugging", 9).chunk(0, 16))

    @pytest.mark.parametrize("kind", sorted(STACKS))
    @pytest.mark.parametrize("cache_packets", [0, 8])
    @pytest.mark.parametrize("policy", RECOVERY_POLICIES)
    @pytest.mark.parametrize("error_rate", [0.01, 0.1])
    @pytest.mark.parametrize("error_model", ["bernoulli", "gilbert"])
    def test_lossy_and_cached(
        self, kind, cache_packets, policy, error_rate, error_model
    ):
        _assert_matches_oracle(
            kind, self.TRAJECTORIES, cache_packets=cache_packets,
            error_rate=error_rate, error_model=error_model, policy=policy,
            seed=7,
        )

    @pytest.mark.parametrize("cache_packets", [0, 8])
    def test_cache_without_loss(self, cache_packets):
        batch = _assert_matches_oracle(
            "dtree", self.TRAJECTORIES, cache_packets=cache_packets
        )
        assert not batch.losses.any()

    @pytest.mark.parametrize("kind", sorted(STACKS))
    @pytest.mark.parametrize("placement", ["replicated", "distributed"])
    @pytest.mark.parametrize("error_rate", [0.0, 0.1])
    @pytest.mark.parametrize("cache_packets", [0, 8])
    def test_k4_plans(self, kind, placement, error_rate, cache_packets):
        _assert_matches_oracle(
            kind, self.TRAJECTORIES, schedule=_plan(kind, placement),
            error_rate=error_rate, error_model="gilbert",
            cache_packets=cache_packets, seed=2,
        )

    @pytest.mark.parametrize(
        "effects", [dict(error_rate=0.1), dict(cache_packets=8)]
    )
    def test_unlocatable_point_fails_like_the_walk(self, effects):
        paged, params, schedule = STACKS["trian"]
        border = Trajectory([0.0, 0.5], [0.3, 0.3], speed=SPEEDS[1])
        with pytest.raises(QueryError, match="outside the subdivided area"):
            _oracle("trian", [border], BOUNDARY, True, 32, **effects)
        with pytest.raises(QueryError, match="outside the subdivided area"):
            evaluate_trajectory_workload(
                paged, [], params, [border], boundary_index=BOUNDARY,
                schedule=schedule, **effects,
            )


@pytest.mark.parametrize("max_epochs", [0, 1, 7])
def test_sample_epochs_matches_per_trajectory_sampling(max_epochs):
    trajectories = _workload("random-waypoint", 6).chunk(0, 40) + [
        Trajectory([0.2], [0.7], speed=0.0, issue_time=3.0),
        Trajectory([0.1, 0.1, 0.4], [0.5, 0.5, 0.5], speed=SPEEDS[0]),
    ]
    times, xs, ys, counts = sample_epochs(trajectories, 96.5, max_epochs)
    grids = [t.epoch_times(96.5, max_epochs) for t in trajectories]
    assert counts.tolist() == [g.size for g in grids]
    np.testing.assert_array_equal(times, np.concatenate(grids))
    positions = [t.positions_at(g) for t, g in zip(trajectories, grids)]
    np.testing.assert_array_equal(xs, np.concatenate([p[0] for p in positions]))
    np.testing.assert_array_equal(ys, np.concatenate([p[1] for p in positions]))


def test_sample_epochs_refuses_unbounded_grids():
    crawler = Trajectory([0.0, 1.0], [0.0, 0.0], speed=1e-9)
    with pytest.raises(ReproError, match="set max_epochs"):
        sample_epochs([crawler], 1.0)


class ConstantBound:
    """A (deliberately unsound) boundary index claiming one bound
    everywhere: pins the displacement-equals-bound tie."""

    def __init__(self, bound):
        self.bound = bound

    def exit_bound(self, region_id, x, y):
        return self.bound


def test_displacement_equal_to_bound_retunes():
    """A client whose displacement reaches its bound exactly re-tunes
    there (``disp >= bound``), in the waves as in the walk."""
    paged, params, schedule = STACKS["dtree"]
    epoch_slots = 64.0
    # 1/8 unit per epoch, exactly: displacements are k/8.
    path = Trajectory([0.25, 0.75], [0.5, 0.5], speed=2.0**-9)
    boundary = ConstantBound(0.25)
    batch = evaluate_trajectory_workload(
        paged, [], params, [path], boundary_index=boundary,
        epoch_slots=epoch_slots, schedule=schedule,
    )
    walk = evaluate_trajectory(
        path, BroadcastClient(paged, schedule), boundary, epoch_slots
    )
    assert walk.retunes == 3  # epochs 0, 2 and 4 of 5
    assert batch.retunes.tolist() == [walk.retunes]
    np.testing.assert_array_equal(batch.answers[0], walk.answers)


deliveries = st.lists(st.integers(0, 12), min_size=1, max_size=6)


@given(
    st.lists(
        st.tuples(st.integers(1, 8), deliveries, st.integers(0, 3)),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from([1, 2, 3]),
)
@settings(max_examples=60, deadline=None)
def test_vectorized_staleness_matches_sweep(clients, epoch_slots):
    """Integer times make deliveries land exactly on epoch ends."""
    times, answers, epoch_owner, owner, delivered, regions = [], [], [], [], [], []
    expected = []
    for c, (n, dts, region_count) in enumerate(clients):
        grid = np.arange(n, dtype=np.float64)
        ans = (np.arange(n) % (region_count + 1)).astype(np.int64)
        regs = [d % (region_count + 1) for d in dts]
        expected.append(
            client_module._stale_epochs(
                grid, epoch_slots, ans, [float(d) for d in dts], regs
            )
        )
        times.append(grid)
        answers.append(ans)
        epoch_owner += [c] * n
        owner += [c] * len(dts)
        delivered += [float(d) for d in dts]
        regions += regs
    head = np.cumsum([0] + [len(d) for _, d, _ in clients[:-1]])
    got = evaluate_module._stale_epoch_counts(
        np.concatenate(times) + epoch_slots, np.concatenate(answers),
        np.array(epoch_owner, np.int64), np.array(delivered),
        np.array(regions, np.int64), np.array(owner, np.int64), head,
    )
    assert got.tolist() == expected


vertices = sorted(
    {
        (v.x, v.y)
        for r in SUBDIVISION.regions
        for v in r.polygon.vertices
        if MARGIN <= min(v.x, v.y) and max(v.x, v.y) <= 1.0 - MARGIN
    }
)
unit = st.floats(MARGIN, 1.0 - MARGIN)
waypoint = st.one_of(
    st.builds(lambda x, y: (x, y), unit, unit),
    st.sampled_from(vertices),
)
trajectory = st.builds(
    lambda pts, speed, issue: Trajectory(
        [p[0] for p in pts], [p[1] for p in pts], speed=speed, issue_time=issue
    ),
    st.lists(waypoint, min_size=1, max_size=4),
    st.one_of(st.just(0.0), st.floats(SPEEDS[0], SPEEDS[1] * 4)),
    st.floats(0.0, 5000.0, allow_nan=False),
)


class TestWaveParityProperties:
    @given(
        st.lists(trajectory, min_size=1, max_size=8),
        st.sampled_from(sorted(STACKS)),
        st.booleans(),
        st.sampled_from([0, 1, 5, 32]),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_trajectories(self, trajectories, kind, predictive, max_epochs):
        _assert_matches_oracle(kind, trajectories, predictive, max_epochs)

    @given(
        st.lists(trajectory, min_size=1, max_size=6),
        st.sampled_from(sorted(STACKS)),
        st.booleans(),
        st.sampled_from(
            [
                dict(error_rate=0.1),
                dict(error_rate=0.1, error_model="gilbert", policy="upper-bound-fallback"),
                dict(cache_packets=8),
                dict(cache_packets=8, error_rate=0.01, error_model="gilbert"),
                dict(placement="replicated"),
                dict(placement="distributed", error_rate=0.1),
            ]
        ),
        st.integers(0, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_trajectories_under_effects(
        self, trajectories, kind, predictive, effects, seed
    ):
        effects = dict(effects, seed=seed)
        placement = effects.pop("placement", None)
        if placement is not None:
            effects["schedule"] = _plan(kind, placement)
        _assert_matches_oracle(kind, trajectories, predictive, **effects)


def _reference_bound(region_id, x, y):
    """The scalar definition: strict interiority by the polygon
    predicate, then the ulp-shaved distance to the nearest edge."""
    try:
        polygon = SUBDIVISION.region(region_id).polygon
    except SubdivisionError:
        return 0.0
    if not polygon.contains_point(Point(x, y), include_boundary=False):
        return 0.0
    ax, ay = point_coords(polygon.vertices)
    d = float(
        np.min(
            point_segment_distance_batch(
                x, y, ax, ay, np.roll(ax, -1), np.roll(ay, -1)
            )
        )
    )
    return max(0.0, float(np.nextafter(d, 0.0)))


class TestExitBounds:
    def _probes(self):
        rng = random.Random(29)
        probes = []
        for p in SUBDIVISION.random_points(200, rng):
            probes.append((SUBDIVISION.locate(p), p.x, p.y))
            probes.append((rng.choice(SUBDIVISION.region_ids), p.x, p.y))
        for region in SUBDIVISION.regions:
            ring = region.polygon.vertices
            for a, b in zip(ring, ring[1:] + ring[:1]):
                probes.append((region.region_id, a.x, a.y))  # on a vertex
                probes.append(
                    (region.region_id, (a.x + b.x) / 2, (a.y + b.y) / 2)
                )  # on an edge
        for unknown in (-1, max(SUBDIVISION.region_ids) + 1, 10**9, -10**9):
            probes.append((unknown, 0.5, 0.5))  # unknown region -> 0
        return probes

    def test_batch_equals_per_point_and_scalar_definition(self):
        probes = self._probes()
        ids, xs, ys = map(list, zip(*probes))
        batch = BOUNDARY.exit_bounds(ids, xs, ys)
        single = [BOUNDARY.exit_bound(r, x, y) for r, x, y in probes]
        reference = [_reference_bound(r, x, y) for r, x, y in probes]
        np.testing.assert_array_equal(batch, single)
        np.testing.assert_array_equal(batch, reference)
        assert np.count_nonzero(batch) > 200
        # Vertices, edge midpoints and unknown regions never skip.
        assert not np.any(batch[400:])

    def test_cross_product_exactly_eps_is_on_edge(self):
        """``|cross| <= EPS`` is the boundary, as in the scalar
        ``on_segment``: 1e-9 above the unit square's bottom edge is on
        it, 2e-9 above is interior."""
        square = grid_subdivision(1, 1)
        bounds = RegionBoundaryIndex(square).exit_bounds(
            [0, 0], [0.5, 0.5], [1e-9, 2e-9]
        )
        assert bounds[0] == 0.0
        assert 0.0 < bounds[1] < 2e-9

    def test_empty_batch(self):
        assert BOUNDARY.exit_bounds([], [], []).shape == (0,)


def test_naive_session_skips_boundary_index(monkeypatch):
    monkeypatch.setattr(evaluate_module, "RegionBoundaryIndex", None)
    paged, params, schedule = STACKS["dtree"]
    trajectories = _workload("random-waypoint", 2).chunk(0, 3)
    evaluate_trajectory_workload(
        paged, [], params, trajectories, subdivision=SUBDIVISION,
        predictive=False, schedule=schedule,
    )
