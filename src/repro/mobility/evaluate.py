"""Batched evaluation of trajectory workloads.

:func:`evaluate_trajectory_workload` is the mobility analogue of
:func:`repro.engine.evaluate_workload`: it takes a list of
:class:`~repro.mobility.trajectory.Trajectory` objects (or a workload
object with ``.chunk``), runs every client's continuous-query session
against one (paged index, schedule) pair and returns a
:class:`MobilityBatchResult` of per-client arrays — the in-memory shape
for tests and single-machine experiments.  Fleet scale goes through
:func:`repro.fleet.run_fleet` with ``mode="mobility"``, which folds the
same per-chunk evaluation into a streaming
:class:`~repro.mobility.report.MobilityReport`.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

import numpy as np

from repro.broadcast.client import BroadcastClient
from repro.broadcast.schedule import BroadcastSchedule
from repro.errors import BroadcastError, ReproError
from repro.simulation.energy import EnergyModel
from repro.simulation.faults import make_error_model
from repro.mobility.client import (
    ClientOutcome,
    evaluate_trajectory,
)
from repro.mobility.exitbound import RegionBoundaryIndex
from repro.mobility.trajectory import Trajectory
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
        outcomes: Sequence[ClientOutcome],
        energy_joules: np.ndarray,
        epoch_slots: float,
        km_per_unit: float,
    ) -> None:
        n = len(outcomes)
        self.epoch_slots = float(epoch_slots)
        self.km_per_unit = float(km_per_unit)
        self.epochs = np.fromiter(
            (o.epochs for o in outcomes), np.int64, count=n
        )
        self.retunes = np.fromiter(
            (o.retunes for o in outcomes), np.int64, count=n
        )
        self.skips = np.fromiter((o.skips for o in outcomes), np.int64, count=n)
        self.crossings = np.fromiter(
            (o.crossings for o in outcomes), np.int64, count=n
        )
        self.stale_slots = np.fromiter(
            (o.stale_epochs * epoch_slots for o in outcomes),
            np.float64,
            count=n,
        )
        self.attempts = np.fromiter(
            (o.attempts for o in outcomes), np.int64, count=n
        )
        self.losses = np.fromiter(
            (o.losses for o in outcomes), np.int64, count=n
        )
        #: First re-tune's protocol outcome — equals the static engine's
        #: arrays for zero-velocity trajectories (parity contract).
        self.access_latency = np.fromiter(
            (o.first_latency for o in outcomes), np.float64, count=n
        )
        self.index_tuning_time = np.fromiter(
            (o.first_index_tuning for o in outcomes), np.int64, count=n
        )
        self.total_tuning_time = np.fromiter(
            (o.first_tuning for o in outcomes), np.int64, count=n
        )
        self.energy_joules = np.asarray(energy_joules, np.float64)
        self.distance_km = np.fromiter(
            (o.distance_units * km_per_unit for o in outcomes),
            np.float64,
            count=n,
        )
        #: Per-client logical answer sequence (one region id per epoch).
        self.answers: List[np.ndarray] = [o.answers for o in outcomes]
        self.final_answers = np.fromiter(
            (o.answers[-1] for o in outcomes), np.int64, count=n
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

    A positive *error_rate* runs every re-tune through the access
    walker's loss effect (:class:`~repro.broadcast.client.BroadcastClient`); all
    clients of the batch share one error-model stream seeded by
    ``random.Random(f"channel:{seed}")``, the simulator's convention.
    Each client gets a fresh query stack (its own packet cache when
    *cache_packets* is set).
    """
    trajectories = list(trajectories)
    if not trajectories:
        raise ReproError("need at least one trajectory")
    if boundary_index is None:
        if subdivision is None and predictive:
            raise ReproError(
                "predictive evaluation needs subdivision= or boundary_index="
            )
        if subdivision is not None:
            boundary_index = RegionBoundaryIndex(subdivision)
    if schedule is None:
        schedule = BroadcastSchedule(
            index_packet_count=len(paged_index.packets),
            region_ids=list(region_ids),
            params=params,
            m=m,
        )
    elif schedule.index_packet_count != len(paged_index.packets):
        raise BroadcastError(
            "provided schedule was built for a different index size"
        )
    if epoch_slots is None:
        epoch_slots = default_epoch_slots(schedule.cycle_length)
    energy_model = energy_model or EnergyModel()

    channel = None
    if error_rate > 0.0:
        channel = make_error_model(error_model, error_rate, mean_burst)
        channel.reset(random.Random(f"channel:{seed}"))

    outcomes: List[ClientOutcome] = []
    for trajectory in trajectories:
        # A fresh client per trajectory: its cache, when enabled, persists
        # across the client's own re-tunes, never across clients.
        client = BroadcastClient(
            paged_index,
            schedule,
            cache_packets=cache_packets if cache_packets > 0 else None,
            error_model=channel,
            policy=policy,
            energy_model=energy_model if channel is not None else None,
        )
        outcomes.append(
            evaluate_trajectory(
                trajectory,
                client,
                boundary_index,
                epoch_slots,
                predictive=predictive,
                max_epochs=max_epochs,
            )
        )

    # Session energy: every read attempt at receive power, the rest of
    # the session (first epoch through last delivery) dozing.
    spans = np.array(
        [
            max(
                (o.epochs - 1) * epoch_slots + o.last_latency,
                float(o.attempts),
            )
            for o in outcomes
        ]
    )
    attempts = np.array([o.attempts for o in outcomes], np.int64)
    energy = energy_model.batch_joules(
        attempts, spans, params.packet_capacity
    )
    return MobilityBatchResult(
        outcomes, energy, epoch_slots, km_per_unit
    )
