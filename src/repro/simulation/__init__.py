"""repro.simulation — unreliable broadcast channel with fault injection.

The paper evaluates over an error-free channel (§5); this package
relaxes that assumption.  A discrete-event simulator replays the access
protocol while every packet read — probe, index, data — may be lost or
corrupted, under pluggable error models and client recovery policies,
with joule-level energy accounting and tail-percentile reporting:

* :mod:`~repro.simulation.faults` — :class:`BernoulliLoss` (i.i.d.) and
  :class:`GilbertElliott` (two-state bursty) error models, seeded;
* :mod:`~repro.simulation.policies` — ``retry-next-segment``,
  ``retry-next-cycle`` and ``upper-bound-fallback`` recovery;
* :mod:`~repro.simulation.energy` — doze/receive power states, joules;
* :mod:`~repro.simulation.simulator` — the workload driver around the
  access walker's loss effect
  (:class:`~repro.broadcast.client.BroadcastClient`);
* :mod:`~repro.simulation.report` — :class:`SimulationReport` with
  p50/p95/p99 of latency, tuning and energy.

At error rate zero the simulator is bit-for-bit identical to the
batched :class:`~repro.engine.QueryEngine` (property-tested), so every
registered :class:`~repro.engine.AirIndex` family runs under identical
fault schedules with no family-specific code.
"""

from repro.simulation.candidates import (
    CANDIDATE_REGISTRY,
    candidate_provider,
    register_candidate_provider,
)
from repro.simulation.energy import EnergyModel
from repro.simulation.faults import (
    ERROR_MODEL_KINDS,
    BernoulliLoss,
    ErrorModel,
    GilbertElliott,
    PerfectChannel,
    make_error_model,
)
from repro.simulation.policies import (
    RECOVERY_POLICIES,
    RecoveryPolicy,
    RetryNextCycle,
    RetryNextSegment,
    UpperBoundFallback,
    recovery_policy,
)
from repro.simulation.report import SimulationReport, render_reports
from repro.simulation.simulator import ChannelSimulator, simulate_workload

__all__ = [
    "BernoulliLoss",
    "CANDIDATE_REGISTRY",
    "ChannelSimulator",
    "ERROR_MODEL_KINDS",
    "EnergyModel",
    "ErrorModel",
    "GilbertElliott",
    "PerfectChannel",
    "RECOVERY_POLICIES",
    "RecoveryPolicy",
    "RetryNextCycle",
    "RetryNextSegment",
    "SimulationReport",
    "UpperBoundFallback",
    "candidate_provider",
    "make_error_model",
    "recovery_policy",
    "register_candidate_provider",
    "render_reports",
    "simulate_workload",
]
