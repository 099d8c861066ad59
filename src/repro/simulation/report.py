"""Simulation results: per-query arrays reduced to tail percentiles.

Mean latency/tuning — the paper's reporting unit — hides exactly what an
unreliable channel ruins: the tail.  A 1 % loss rate barely moves the
mean but multiplies the p99 latency (one lost index packet costs a
segment or a cycle of extra wait).  :class:`SimulationReport` therefore
keeps the full per-query arrays and reports p50/p95/p99 alongside the
mean, for all three metrics (latency in packets, tuning in read
attempts, energy in joules).

A report is the per-query record of one
:meth:`~repro.simulation.ChannelSimulator.run`, the way
:class:`~repro.broadcast.client.AccessBatch` is for the engine; it is
never merged.
Runs that span chunks fold each chunk into a streaming
:class:`~repro.fleet.report.FleetReport`, whose ``_StreamingReport``
merge is the only report merge in the package.

Reports compare equal exactly (array-for-array), which is what the
deterministic-replay guarantee is asserted against: same seed, same
report.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import BroadcastError

#: The percentiles every metric is summarised at.
PERCENTILES = (50, 95, 99)

#: (per-query metric, summary label) of the per-query summary row.
QUERY_METRICS = (
    ("access_latency", "latency"),
    ("tuning_time", "tuning"),
    ("energy_joules", "energy_j"),
)


def summary_columns(
    pairs: Iterable[Tuple[str, str]],
    mean: Callable[[str], float],
    percentiles: Callable[[str], Dict[str, float]],
) -> Dict[str, float]:
    """``<label>_mean`` and ``<label>_p50/_p95/_p99`` for each
    ``(metric, label)`` pair, from the given per-metric reductions."""
    out: Dict[str, float] = {}
    for metric, label in pairs:
        out[f"{label}_mean"] = mean(metric)
        for key, value in percentiles(metric).items():
            out[f"{label}_{key}"] = value
    return out


def query_summary(
    queries: int,
    losses: int,
    mean_attempts: float,
    mean: Callable[[str], float],
    percentiles: Callable[[str], Dict[str, float]],
) -> Dict[str, float]:
    """The flat per-query summary row the CLI and benchmarks print, for
    both the exact :class:`SimulationReport` and the streaming fleet
    report: counts, then every :data:`QUERY_METRICS` column."""
    return {
        "queries": float(queries),
        "losses": float(losses),
        "mean_attempts": mean_attempts,
        **summary_columns(QUERY_METRICS, mean, percentiles),
    }


class SimulationReport:
    """Outcome of one simulated workload over an unreliable channel."""

    #: The three labels, then the per-query arrays.
    __slots__ = (
        "index_kind",
        "policy",
        "error_model",
        "issue_times",
        "region_ids",
        "access_latency",
        "tuning_time",
        "energy_joules",
        "packet_losses",
        "read_attempts",
    )

    def __init__(
        self,
        index_kind: str,
        policy: str,
        error_model: str,
        issue_times: np.ndarray,
        region_ids: np.ndarray,
        access_latency: np.ndarray,
        tuning_time: np.ndarray,
        energy_joules: np.ndarray,
        packet_losses: np.ndarray,
        read_attempts: np.ndarray,
    ) -> None:
        self.index_kind = index_kind
        self.policy = policy
        #: Repr of the error model the run used (self-describing label).
        self.error_model = error_model
        self.issue_times = issue_times
        self.region_ids = region_ids
        #: Packets from query issue to data fully received.
        self.access_latency = access_latency
        #: Total read attempts per query (probe + index + data; lost
        #: reads included — the radio was on either way).
        self.tuning_time = tuning_time
        self.energy_joules = energy_joules
        self.packet_losses = packet_losses
        self.read_attempts = read_attempts
        # n == 0 is legal: percentiles and summary are NaN-safe on it.
        n = len(region_ids)
        for name in self.__slots__[3:]:
            size = len(getattr(self, name))
            if size != n:
                raise BroadcastError(
                    f"{name} has {size} entries for {n} queries"
                )

    def __len__(self) -> int:
        return len(self.region_ids)

    def __repr__(self) -> str:
        return (
            f"SimulationReport({self.index_kind}, policy={self.policy}, "
            f"model={self.error_model}, n={len(self)}, "
            f"losses={int(self.packet_losses.sum())})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimulationReport):
            return NotImplemented
        labels, arrays = self.__slots__[:3], self.__slots__[3:]
        return all(
            getattr(self, name) == getattr(other, name) for name in labels
        ) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in arrays
        )

    __hash__ = None  # mutable arrays inside

    # -- reductions ---------------------------------------------------------

    @property
    def total_losses(self) -> int:
        """Lost/corrupted reads across the whole workload."""
        return int(self.packet_losses.sum())

    def percentiles(self, metric: str) -> Dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` of one metric array
        (``"access_latency"``, ``"tuning_time"`` or ``"energy_joules"``).

        An empty report has no order statistics: every percentile is NaN
        (``np.percentile`` would raise on the empty array).
        """
        array = getattr(self, metric)
        if len(array) == 0:
            return {f"p{q}": float("nan") for q in PERCENTILES}
        return {
            f"p{q}": float(np.percentile(array, q)) for q in PERCENTILES
        }

    def summary(self) -> Dict[str, float]:
        """Flat dict of means and percentiles for every metric, plus loss
        counts — the row the CLI and benchmarks print.

        NaN-safe on an empty report: counts are 0, every mean and
        percentile is NaN (undefined, not an error)."""
        empty = len(self) == 0
        nan = float("nan")
        return query_summary(
            len(self),
            self.total_losses,
            nan if empty else float(self.read_attempts.mean()),
            lambda m: nan if empty else float(getattr(self, m).mean()),
            self.percentiles,
        )


def render_reports(reports: Sequence[SimulationReport]) -> str:
    """A fixed-width table of report summaries (one row per report)."""
    header = (
        f"{'index':<7} {'policy':<19} {'error model':<28} "
        f"{'lat p50':>8} {'lat p95':>9} {'lat p99':>9} "
        f"{'tune p95':>8} {'mJ p50':>8} {'mJ p99':>8} {'losses':>6}"
    )
    lines: List[str] = [header, "-" * len(header)]
    for report in reports:
        s = report.summary()
        lines.append(
            f"{report.index_kind:<7} {report.policy:<19} "
            f"{report.error_model:<28} "
            f"{s['latency_p50']:>8.1f} {s['latency_p95']:>9.1f} "
            f"{s['latency_p99']:>9.1f} {s['tuning_p95']:>8.1f} "
            f"{s['energy_j_p50'] * 1000:>8.2f} "
            f"{s['energy_j_p99'] * 1000:>8.2f} {int(s['losses']):>6}"
        )
    return "\n".join(lines)
