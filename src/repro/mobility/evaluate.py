"""Batched evaluation of trajectory workloads.

:func:`evaluate_trajectory_workload` is the mobility analogue of
:func:`repro.engine.evaluate_workload`: it takes a list of
:class:`~repro.mobility.trajectory.Trajectory` objects, runs every
client's continuous-query session against one (paged index, schedule)
pair and returns a :class:`MobilityBatchResult` of per-client arrays —
the in-memory shape for tests and single-machine experiments.  Fleet
scale goes through :func:`repro.fleet.run_fleet` with
``mode="mobility"``, which folds the same per-chunk evaluation into a
streaming :class:`~repro.mobility.report.MobilityReport`.

Every session runs in *epoch waves* (DESIGN.md §13).  Each wave answers
the clients due to re-tune with one batched trace, bounds them with one
:meth:`~repro.mobility.exitbound.RegionBoundaryIndex.exit_bounds` call
and advances each to its first epoch outside its exit disk.  Loss,
caching and channel hops change when an answer arrives, never what it
is, so the waves fix the re-tune schedule; one protocol pass then runs
every re-tune through :class:`~repro.broadcast.client.BroadcastClient`
in client order — the query order, and so the error-model stream, of
the per-client :func:`~repro.mobility.client.evaluate_trajectory` walk,
which is kept as the oracle.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.broadcast.client import AccessBatch, BroadcastClient
from repro.broadcast.schedule import resolve_schedule
from repro.engine.trace import TraceBatch, batched_trace
from repro.errors import ReproError
from repro.geometry.kernels import ragged_ranges
from repro.geometry.point import Point
from repro.obs import active_collector
from repro.simulation.energy import EnergyModel
from repro.simulation.faults import make_error_model
from repro.mobility.exitbound import RegionBoundaryIndex
from repro.mobility.trajectory import Trajectory, sample_epochs
from repro.mobility.units import DEFAULT_KM_PER_UNIT

#: Default sampling-horizon cap per client (epochs); keeps fleet-scale
#: evaluation bounded regardless of drawn path lengths.
DEFAULT_MAX_EPOCHS = 32


class MobilityBatchResult:
    """Per-client arrays of one evaluated trajectory batch."""

    __slots__ = (
        "epochs",
        "retunes",
        "skips",
        "crossings",
        "stale_slots",
        "attempts",
        "losses",
        "access_latency",
        "index_tuning_time",
        "total_tuning_time",
        "energy_joules",
        "distance_km",
        "final_answers",
        "answers",
        "epoch_slots",
        "km_per_unit",
    )

    def __init__(
        self,
        *,
        epochs: np.ndarray,
        retunes: np.ndarray,
        crossings: np.ndarray,
        stale_epochs: np.ndarray,
        attempts: np.ndarray,
        losses: np.ndarray,
        first_latency: np.ndarray,
        first_index_tuning: np.ndarray,
        first_tuning: np.ndarray,
        energy_joules: np.ndarray,
        distance_units: np.ndarray,
        answers: List[np.ndarray],
        epoch_slots: float,
        km_per_unit: float,
    ) -> None:
        self.epoch_slots = float(epoch_slots)
        self.km_per_unit = float(km_per_unit)
        self.epochs = epochs
        self.retunes = retunes
        self.skips = epochs - retunes
        self.crossings = crossings
        self.stale_slots = np.asarray(stale_epochs * epoch_slots, np.float64)
        self.attempts = attempts
        self.losses = losses
        #: First re-tune's protocol outcome — equals the static engine's
        #: arrays for zero-velocity trajectories (parity contract).
        self.access_latency = first_latency
        self.index_tuning_time = first_index_tuning
        self.total_tuning_time = first_tuning
        self.energy_joules = np.asarray(energy_joules, np.float64)
        self.distance_km = distance_units * km_per_unit
        #: Per-client logical answer sequence (one region id per epoch).
        self.answers = answers
        self.final_answers = np.fromiter(
            (a[-1] for a in answers), np.int64, count=len(answers)
        )

    def __len__(self) -> int:
        return int(self.retunes.size)

    def __repr__(self) -> str:
        return (
            f"MobilityBatchResult(clients={len(self)}, "
            f"retunes={int(np.sum(self.retunes))}, "
            f"epochs={int(np.sum(self.epochs))})"
        )


def default_epoch_slots(cycle_length: int) -> float:
    """The default epoch grid: a quarter broadcast cycle."""
    return max(1.0, cycle_length / 4.0)


def evaluate_trajectory_workload(
    paged_index,
    region_ids: Sequence[int],
    params,
    trajectories,
    *,
    subdivision=None,
    boundary_index: Optional[RegionBoundaryIndex] = None,
    predictive: bool = True,
    epoch_slots: Optional[float] = None,
    max_epochs: int = DEFAULT_MAX_EPOCHS,
    cache_packets: int = 0,
    error_rate: float = 0.0,
    error_model: str = "bernoulli",
    mean_burst: float = 4.0,
    policy: str = "retry-next-segment",
    energy_model: Optional[EnergyModel] = None,
    seed: int = 0,
    m: Optional[int] = None,
    schedule=None,
    km_per_unit: float = DEFAULT_KM_PER_UNIT,
) -> MobilityBatchResult:
    """Evaluate every trajectory's continuous-query session.

    *trajectories* is a sequence of :class:`Trajectory` objects.  With
    ``predictive=True`` (the default) each client skips epochs inside
    its sound scope-exit disk; ``predictive=False`` is the naive
    re-answer-every-epoch oracle.  Both produce the identical logical
    answer sequence — prediction changes when clients tune, never what
    they answer.

    A nonzero *error_rate* runs every re-tune through the access
    walker's loss effect (:class:`~repro.broadcast.client.BroadcastClient`;
    an out-of-range rate is a :class:`~repro.errors.BroadcastError`);
    all clients share one error-model stream seeded by
    ``random.Random(f"channel:{seed}")``, the simulator's convention.
    With *cache_packets* set, each client's packet cache persists across
    its own re-tunes.  Every session takes one path, the epoch waves
    (module docstring); a loop of per-client
    :func:`~repro.mobility.client.evaluate_trajectory` walks is its oracle.

    *boundary_index* is a :class:`RegionBoundaryIndex` or anything with
    its ``exit_bound(region_id, x, y)`` method; a duck type without the
    batched ``exit_bounds`` is called once per re-tuning client.
    """
    trajectories = list(trajectories)
    if not trajectories:
        raise ReproError("need at least one trajectory")
    if not predictive:
        boundary_index = None
    elif boundary_index is None:
        if subdivision is None:
            raise ReproError(
                "predictive evaluation needs subdivision= or boundary_index="
            )
        boundary_index = RegionBoundaryIndex(subdivision)
    schedule = resolve_schedule(
        paged_index, region_ids, params, trajectories, m=m, schedule=schedule
    )
    if epoch_slots is None:
        epoch_slots = default_epoch_slots(schedule.cycle_length)
    energy_model = energy_model or EnergyModel()

    channel = None
    if error_rate != 0.0:
        channel = make_error_model(error_model, error_rate, mean_burst)
        channel.reset(random.Random(f"channel:{seed}"))
    session = _evaluate_waves(
        paged_index, schedule, trajectories, boundary_index, epoch_slots,
        max_epochs, cache_packets, channel, policy, energy_model,
    )
    last_latency = session.pop("last_latency")
    # Session energy: every read attempt at receive power, the rest of
    # the session (first epoch through last delivery) dozing.
    spans = np.maximum(
        (session["epochs"] - 1) * epoch_slots + last_latency,
        session["attempts"].astype(np.float64),
    )
    energy = energy_model.batch_joules(
        session["attempts"], spans, params.packet_capacity
    )
    return MobilityBatchResult(
        energy_joules=energy,
        epoch_slots=epoch_slots,
        km_per_unit=km_per_unit,
        **session,
    )


# -- epoch waves ----------------------------------------------------------------


def _batched_exit_bounds(boundary_index) -> Callable:
    """``exit_bounds(region_ids, xs, ys)`` of *boundary_index*, mapped
    per point through ``exit_bound`` for a duck type without it."""
    batched = getattr(boundary_index, "exit_bounds", None)
    if batched is not None:
        return batched

    def per_point(region_ids, xs, ys) -> np.ndarray:
        return np.array(
            [
                boundary_index.exit_bound(r, x, y)
                for r, x, y in zip(region_ids.tolist(), xs.tolist(), ys.tolist())
            ],
            np.float64,
        )

    return per_point


def _advance(xs, ys, at, last, regions, exit_bounds):
    """Each re-tuned client's next re-tune and its exit-disk slack.

    A client re-tuned at flat epoch ``at[i]`` skips every following
    epoch (up to its ``last[i]``) whose displacement from the re-tune
    position stays strictly below its exit bound: one ragged
    displacement pass plus a first-true search per client.  The slack is
    the margin left at the last skipped epoch (NaN when none was).
    """
    nxt = at + 1
    slack = np.full(at.size, np.nan)
    movable = np.flatnonzero(at < last)
    if not movable.size:
        return nxt, slack
    here = at[movable]
    bound = exit_bounds(regions[movable], xs[here], ys[here])
    skips = bound > 0.0
    movable, here, bound = movable[skips], here[skips], bound[skips]
    if not movable.size:
        return nxt, slack
    ahead, owner, begin = ragged_ranges(here + 1, last[movable] - here)
    disp = np.hypot(xs[ahead] - xs[here][owner], ys[ahead] - ys[here][owner])
    hits = np.flatnonzero(disp >= bound[owner])
    hit_owner = owner[hits]
    first_hit = np.ones(hits.size, bool)
    first_hit[1:] = hit_owner[1:] != hit_owner[:-1]
    stop = last[movable] + 1
    stop[hit_owner[first_hit]] = ahead[hits[first_hit]]
    nxt[movable] = stop
    skipped = np.flatnonzero(stop > here + 1)
    slack[movable[skipped]] = (
        bound[skipped] - disp[begin[skipped] + stop[skipped] - here[skipped] - 2]
    )
    return nxt, slack


def _evaluate_waves(
    paged_index, schedule, trajectories, boundary_index, epoch_slots,
    max_epochs, cache_packets, channel, policy, energy_model,
) -> dict:
    """Every session, all clients advanced in waves.

    Every wave answers the clients due to re-tune with one batched
    trace, computes all their exit bounds in one call, advances each to
    its next re-tune and fills the answers of the epochs it skipped.
    The re-tune schedule is then fixed, and :func:`_protocol_pass` runs
    it through the access walker in client order.  Results equal the
    per-client walk's, bit for bit.
    """
    times, xs, ys, epochs = sample_epochs(trajectories, epoch_slots, max_epochs)
    n = len(trajectories)
    first = np.concatenate((np.zeros(1, np.int64), np.cumsum(epochs)[:-1]))
    last = first + epochs - 1
    epoch_owner = np.repeat(np.arange(n, dtype=np.int64), epochs)

    exit_bounds = (
        _batched_exit_bounds(boundary_index)
        if boundary_index is not None
        else None
    )
    answers = np.empty(times.size, np.int64)
    waves = []
    due = np.arange(n, dtype=np.int64)
    at = first
    while due.size:
        points = [Point(x, y) for x, y in zip(xs[at].tolist(), ys[at].tolist())]
        trace = batched_trace(paged_index, points)
        regions = trace.region_ids
        if exit_bounds is None:
            nxt, slack = at + 1, np.full(at.size, np.nan)
        else:
            nxt, slack = _advance(xs, ys, at, last[due], regions, exit_bounds)
        filled, owner, _ = ragged_ranges(at, nxt - at)
        answers[filled] = regions[owner]
        waves.append((at, points, trace, slack))
        more = nxt <= last[due]
        due, at = due[more], nxt[more]

    # Re-tune records in client-major order: flat epoch positions are
    # unique and grow with (client, epoch).
    at = np.concatenate([w[0] for w in waves])
    order = np.argsort(at, kind="stable")
    at = at[order]
    points = [p for w in waves for p in w[1]]
    points = [points[i] for i in order.tolist()]
    trace = TraceBatch(
        *(
            np.concatenate([getattr(w[2], field) for w in waves])[order]
            for field in ("region_ids", "last_packet", "tuning_time")
        )
    )
    slack = np.concatenate([w[3] for w in waves])[order]
    retunes = np.bincount(epoch_owner[at], minlength=n).astype(np.int64)
    head = np.concatenate((np.zeros(1, np.int64), np.cumsum(retunes)[:-1]))
    tail = head + retunes - 1
    access = _protocol_pass(
        paged_index, schedule, points, times[at], trace, head, retunes,
        cache_packets, channel, policy, energy_model,
    )
    latency = access.access_latency

    # Crossings: answer changes between consecutive epochs of a client.
    changes = np.concatenate(
        (np.zeros(1, np.int64), np.cumsum(answers[1:] != answers[:-1]))
    )
    crossings = changes[last] - changes[first]
    stale = _stale_epoch_counts(
        times + epoch_slots, answers, epoch_owner, times[at] + latency,
        trace.region_ids, epoch_owner[at], head,
    )
    spans = np.where(epochs > 1, times[last] - times[first], 0.0)
    speed = np.fromiter((t.speed for t in trajectories), np.float64, count=n)
    length = np.fromiter(
        (t.total_length for t in trajectories), np.float64, count=n
    )
    session = {
        "epochs": epochs,
        "retunes": retunes,
        "crossings": crossings,
        "stale_epochs": stale,
        "attempts": np.add.reduceat(access.read_attempts, head),
        "losses": np.add.reduceat(access.packet_losses, head),
        "first_latency": latency[head],
        "first_index_tuning": access.index_tuning_time[head],
        "first_tuning": access.total_tuning_time[head],
        "last_latency": latency[tail],
        "distance_units": np.minimum(speed * spans, length),
        "answers": [
            answers[a:b] for a, b in zip(first.tolist(), (last + 1).tolist())
        ],
    }
    col = active_collector()
    if col is not None:
        _report_mobility(col, session, slack)
    return session


def _protocol_pass(
    paged_index, schedule, points, issue_times, trace, head, retunes,
    cache_packets, channel, policy, energy_model,
) -> AccessBatch:
    """Every re-tune through the access walker, in client-major order:
    one :meth:`~repro.broadcast.client.BroadcastClient.run_batch` over
    the waves' *trace* without a cache, else a fresh cached walker per
    client over its own re-tunes (a cache never crosses clients).
    Either way the clients share *channel*'s stream in the walk's order.
    """
    walker = functools.partial(
        BroadcastClient, paged_index, schedule, error_model=channel,
        policy=policy,
        energy_model=energy_model if channel is not None else None,
    )
    if cache_packets <= 0:
        return walker().run_batch(points, issue_times, trace=trace)
    times = issue_times.tolist()
    results = []
    for a, b in zip(head.tolist(), (head + retunes).tolist()):
        client = walker(cache_packets=cache_packets)
        results += [client.query(p, t) for p, t in zip(points[a:b], times[a:b])]
    return AccessBatch.from_results(results)


def _stale_epoch_counts(
    ends, answers, epoch_owner, deliveries, regions, owner, head
) -> np.ndarray:
    """Per-client stale epochs, vectorized over a whole batch.

    The rule of :func:`repro.mobility.client._stale_epochs`: an epoch is
    stale when, at its end, no re-tune of its client has been delivered,
    or the latest-issued delivered one answered differently.  Epochs
    (*ends*, *answers*, *epoch_owner*) are flat and client-major; so are
    the re-tunes (*deliveries*, *regions*, *owner*), client ``c``'s
    occupying positions from ``head[c]`` in issue order.

    Sorted by (client, delivery), the re-tunes' running maximum issue
    position is, per client, the latest issue delivered so far (earlier
    clients' positions are all smaller).  One merged sort of deliveries
    and epoch ends counts the re-tunes each epoch end has seen.
    """
    r = owner.size
    latest = np.maximum.accumulate(np.lexsort((deliveries, owner)))
    # A delivery at exactly an epoch's end counts (kind 0 sorts first).
    merged = np.lexsort(
        (
            np.concatenate((np.zeros(r, np.int8), np.ones(ends.size, np.int8))),
            np.concatenate((deliveries, ends)),
            np.concatenate((owner, epoch_owner)),
        )
    )
    is_end = merged >= r
    epoch = merged[is_end] - r
    last_seen = np.cumsum(~is_end)[is_end] - 1
    delivered = last_seen >= head[epoch_owner[epoch]]
    best = latest[np.where(delivered, last_seen, 0)]
    stale = ~delivered | (regions[best] != answers[epoch])
    return np.bincount(
        epoch_owner[epoch[stale]], minlength=head.size
    ).astype(np.int64)


def _report_mobility(col, session, slack) -> None:
    """The per-client walk's ``mobility.*`` counters, in its order.

    The walk reports each client's counters when its session ends and
    each skip's exit-bound slack as it goes; histograms sum floats in
    that order, so both are observed client by client.
    """
    epochs = session["epochs"]
    skips = epochs - session["retunes"]
    col.count("mobility.clients", int(epochs.size))
    col.count("mobility.epochs", int(epochs.sum()))
    col.count("mobility.retunes", int(session["retunes"].sum()))
    col.count("mobility.skips", int(skips.sum()))
    col.count("mobility.crossings", int(session["crossings"].sum()))
    slack = slack[~np.isnan(slack)]
    if slack.size:
        col.observe_each("mobility.exit_bound_slack", slack.tolist())
    col.observe_each("mobility.skip_ratio", (skips / epochs).tolist())
