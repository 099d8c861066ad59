"""Streaming, mergeable mobility reports.

The mobility analogue of :class:`repro.fleet.report.FleetReport`: each
evaluated chunk of trajectories folds into per-metric
:class:`~repro.fleet.report.MetricAggregate` streams (Neumaier sums,
exact min/max, mergeable quantile sketch) plus integer counters, so a
100k-client fleet ships kilobytes per chunk regardless of chunk size.
Merging is the fleet report's own implementation — associative, empty
identity, chunk-ordered folds reproduce the single-worker accumulation
exactly — which is what makes the report worker-count invariant.

The headline metric is **re-tunes per km**: total re-tunes divided by
total distance travelled, the continuous-query cost measure motivated by
the moving-objects literature (PAPERS.md).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.fleet.report import _StreamingReport
from repro.simulation.faults import PerfectChannel, make_error_model
from repro.simulation.report import summary_columns

#: The per-client metrics every mobility report aggregates.
MOBILITY_METRIC_FIELDS = (
    "retunes",
    "crossings",
    "stale_slots",
    "energy_joules",
    "distance_km",
    "retunes_per_km",
)


def channel_label(
    error_model: str, error_rate: float, mean_burst: float
) -> str:
    """The ``error_model`` label of a mobility run: the repr of the
    channel its clients read through (perfect at a zero error rate)."""
    if error_rate <= 0.0:
        return repr(PerfectChannel())
    return repr(make_error_model(error_model, error_rate, mean_burst))


class MobilityReport(_StreamingReport):
    """Aggregated outcome of a mobility fleet run.  ``client`` is
    ``"predictive"`` (scope-exit skipping) or ``"naive"``; the retained
    answers are each client's final-epoch region."""

    LABELS = ("index_kind", "client", "error_model")
    COUNTERS = ("clients", "epochs", "skips", "losses")
    METRICS = MOBILITY_METRIC_FIELDS

    __slots__ = LABELS + COUNTERS

    #: The ``mode`` label of :class:`~repro.fleet.report.FleetReport`.
    mode = "mobility"

    def observe_chunk(
        self, chunk_index: int, batch, keep_answers: bool = True
    ) -> None:
        """Fold one evaluated trajectory chunk (a
        :class:`~repro.mobility.evaluate.MobilityBatchResult`) in."""
        moved = batch.distance_km > 0.0
        self._observe(
            chunk_index,
            batch.final_answers,
            keep_answers,
            counts={
                "clients": int(batch.retunes.size),
                "epochs": int(np.sum(batch.epochs)),
                "skips": int(np.sum(batch.skips)),
                "losses": int(np.sum(batch.losses)),
                "attempts": int(np.sum(batch.attempts)),
            },
            values={
                "retunes": batch.retunes,
                "crossings": batch.crossings,
                "stale_slots": batch.stale_slots,
                "energy_joules": batch.energy_joules,
                "distance_km": batch.distance_km,
                "retunes_per_km": batch.retunes[moved]
                / batch.distance_km[moved],
            },
        )

    @property
    def retunes(self) -> int:
        return int(round(self.metrics["retunes"].total))

    @property
    def crossings(self) -> int:
        return int(round(self.metrics["crossings"].total))

    @property
    def distance_km(self) -> float:
        return self.metrics["distance_km"].total

    @property
    def retunes_per_km(self) -> float:
        """The headline: total re-tunes over total distance."""
        km = self.distance_km
        return self.metrics["retunes"].total / km if km > 0 else float("nan")

    @property
    def skip_ratio(self) -> float:
        return self.skips / self.epochs if self.epochs else float("nan")

    def summary(self) -> Dict[str, float]:
        """Flat summary row (floats only, like the fleet summary)."""
        return {
            "clients": float(self.clients),
            "epochs": float(self.epochs),
            "retunes": self.metrics["retunes"].total,
            "skips": float(self.skips),
            "skip_ratio": self.skip_ratio,
            "crossings": self.metrics["crossings"].total,
            "losses": float(self.losses),
            "distance_km": self.distance_km,
            "retunes_per_km": self.retunes_per_km,
            "stale_slots": self.metrics["stale_slots"].total,
            "energy_j": self.metrics["energy_joules"].total,
            **summary_columns(
                (
                    ("retunes_per_km", "retunes_per_km"),
                    ("stale_slots", "stale_slots"),
                    ("energy_joules", "energy_j"),
                ),
                lambda m: self.metrics[m].mean,
                self.percentiles,
            ),
        }


def render_mobility_report(report: MobilityReport) -> str:
    """Human-readable block for the CLI."""
    lines: List[str] = [
        f"mobility: {report.clients} clients, {report.epochs} epochs "
        f"over {report.chunk_count} chunks "
        f"(index={report.index_kind}, client={report.client})",
        f"  channel: {report.error_model}, losses={report.losses}",
    ]
    if report.elapsed_seconds:
        rate = report.epochs / report.elapsed_seconds
        lines.append(
            f"  elapsed: {report.elapsed_seconds:.2f}s ({rate:,.0f} epochs/s)"
        )
    lines.append(
        f"  retunes: {report.retunes} "
        f"({report.retunes_per_km:.2f}/km over {report.distance_km:.1f} km, "
        f"skip ratio {report.skip_ratio:.1%})"
    )
    lines += [
        f"  crossings: {report.crossings}",
        report.metric_line("stale_slots", "stale", "slots/client"),
        report.metric_line(
            "energy_joules", "energy", "mJ/client", scale=1000.0
        ),
    ]
    return "\n".join(lines)
