"""Streaming, mergeable fleet reports.

A :class:`~repro.simulation.report.SimulationReport` is the per-query
record of one simulator run — the right call for a 10k-query
experiment, fatal for a 10M-query fleet.  The fleet layer instead folds
each chunk into a :class:`FleetReport` the moment it is evaluated:
per-metric counts, compensated sums, exact min/max and a mergeable
quantile sketch, plus the (small) per-query answer array for parity
checking.  A worker ships a few kilobytes back to the parent regardless
of chunk size.

Merge algebra
-------------

``_StreamingReport`` holds the one report merge in the package, shared
by the fleet and the mobility reports.  ``merge`` is associative with
the empty report as identity, and — because chunk results are folded
**in chunk order** and sums use Neumaier-compensated accumulation — a
merged fleet report is exactly equal (counters, sums, sketches) to the
report a single worker would have produced over the same chunking.
Worker count therefore never changes a reported number; see DESIGN.md §12.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.fleet.sketch import QuantileSketch
from repro.simulation.report import PERCENTILES, query_summary

#: The per-query metrics every fleet report aggregates.
METRIC_FIELDS = ("access_latency", "tuning_time", "energy_joules")


class MetricAggregate:
    """Count / compensated sum / min / max / sketch of one metric stream.

    Cross-chunk sums use Neumaier's variant of Kahan summation: each
    chunk contributes one ``np.sum`` (pairwise inside the chunk) and the
    running total carries a compensation term, so a billion-chunk fleet
    sum matches ``math.fsum`` of the chunk sums to the last bit in
    practice and never drifts with the number of chunks or merge order
    (for a fixed fold order).
    """

    __slots__ = ("count", "_sum", "_comp", "minimum", "maximum", "sketch")

    def __init__(self, alpha: float = 0.01) -> None:
        self.count = 0
        self._sum = 0.0
        self._comp = 0.0  # Neumaier compensation (sum of lost low bits)
        self.minimum = math.inf
        self.maximum = -math.inf
        self.sketch = QuantileSketch(alpha=alpha)

    # -- compensated accumulation -------------------------------------------

    def _add(self, value: float) -> None:
        t = self._sum + value
        if abs(self._sum) >= abs(value):
            self._comp += (self._sum - t) + value
        else:
            self._comp += (value - t) + self._sum
        self._sum = t

    def observe_chunk(self, values) -> None:
        """Fold one chunk's values (array) into the aggregate."""
        arr = np.asarray(values, np.float64)
        if arr.size == 0:
            return
        self.count += int(arr.size)
        self.minimum = min(self.minimum, float(arr.min()))
        self.maximum = max(self.maximum, float(arr.max()))
        self._add(float(np.sum(arr)))
        self.sketch.observe_batch(arr)

    def merge(self, other: "MetricAggregate") -> "MetricAggregate":
        """Fold *other* into this aggregate (in place)."""
        self.count += other.count
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        # Fold the other side's compensated pair through the same
        # Neumaier update: for chunk-ordered folds this reproduces the
        # sequential accumulation exactly.
        self._add(other._sum)
        self._add(other._comp)
        self.sketch.merge(other.sketch)
        return self

    # -- reductions ----------------------------------------------------------

    @property
    def total(self) -> float:
        """The compensated sum."""
        return self._sum + self._comp

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def percentile(self, q: float) -> float:
        return self.sketch.quantile(q)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            **{f"p{q}": self.percentile(q) for q in PERCENTILES},
        }

    def __repr__(self) -> str:
        return f"MetricAggregate(n={self.count}, mean={self.mean:.4g})"


class _StreamingReport:
    """The chunk-merge algebra shared by the streaming reports.

    A subclass is declared by three class-level tuples:

    * ``LABELS`` — string labels (``"?"`` until set); a merge keeps
      them when both sides agree or one side is empty, and refuses to
      mix runs otherwise;
    * ``COUNTERS`` — integer totals summed on merge; the first one is
      the report's size, which decides whether a side is empty;
    * ``METRICS`` — one :class:`MetricAggregate` each.

    A subclass also provides ``mode``, as a label or a class attribute;
    it heads :meth:`to_dict`.  Every report also sums ``attempts`` (read attempts, lost reads
    included) and keeps, keyed by chunk index, the per-chunk answer
    arrays — the one per-query artifact, kept so that worker-count
    invariance can be asserted array-exactly.  Merging is associative
    with the all-default report as identity, and a chunk folded twice
    or present on both sides of a merge is refused.
    """

    LABELS: Tuple[str, ...] = ()
    COUNTERS: Tuple[str, ...] = ()
    METRICS: Tuple[str, ...] = ()

    __slots__ = (
        "attempts",
        "metrics",
        "answers",
        "chunk_count",
        "elapsed_seconds",
    )

    def __init__(self, alpha: float = 0.01, **labels: str) -> None:
        unknown = labels.keys() - set(self.LABELS)
        if unknown:
            raise TypeError(
                f"{type(self).__name__} has no label {sorted(unknown)}"
            )
        for name in self.LABELS:
            setattr(self, name, labels.get(name, "?"))
        for name in self.COUNTERS:
            setattr(self, name, 0)
        self.attempts = 0
        self.metrics: Dict[str, MetricAggregate] = {
            name: MetricAggregate(alpha=alpha) for name in self.METRICS
        }
        #: chunk index -> int64 answer array (region ids) for that chunk.
        self.answers: Dict[int, np.ndarray] = {}
        self.chunk_count = 0
        #: Wall-clock of the run; filled by the runner, not part of the
        #: determinism contract.
        self.elapsed_seconds: Optional[float] = None

    # -- recording ------------------------------------------------------------

    def _observe(
        self,
        chunk_index: int,
        answers,
        keep_answers: bool,
        counts: Dict[str, int],
        values: Dict[str, np.ndarray],
    ) -> None:
        """Fold one chunk: add *counts* to the counters, each metric's
        *values* to its aggregate, and keep the chunk's *answers*."""
        if chunk_index in self.answers:
            raise ReproError(f"chunk {chunk_index} folded twice")
        for name, count in counts.items():
            setattr(self, name, getattr(self, name) + count)
        for name, array in values.items():
            self.metrics[name].observe_chunk(array)
        if keep_answers:
            self.answers[chunk_index] = np.asarray(answers, np.int64)
        self.chunk_count += 1

    # -- merging --------------------------------------------------------------

    def _reconcile_label(self, name: str, other: "_StreamingReport") -> str:
        mine = getattr(self, name)
        theirs = getattr(other, name)
        if mine == theirs:
            return mine
        size = self.COUNTERS[0]
        if getattr(self, size) == 0:
            return theirs
        if getattr(other, size) == 0:
            return mine
        raise ReproError(
            f"cannot merge {type(self).__name__}s with different {name}: "
            f"{mine!r} vs {theirs!r}"
        )

    def merge(self, other: "_StreamingReport") -> "_StreamingReport":
        """Fold *other* into this report (in place, associative; an
        all-default report is the identity)."""
        if not isinstance(other, type(self)):
            raise ReproError(
                f"cannot merge {type(self).__name__} with "
                f"{type(other).__name__}"
            )
        labels = {
            name: self._reconcile_label(name, other) for name in self.LABELS
        }
        overlap = self.answers.keys() & other.answers.keys()
        if overlap:
            raise ReproError(
                f"{type(self).__name__}s overlap on chunks {sorted(overlap)}"
            )
        for name, value in labels.items():
            setattr(self, name, value)
        for name in self.COUNTERS + ("attempts",):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in self.METRICS:
            self.metrics[name].merge(other.metrics[name])
        self.answers.update(other.answers)
        self.chunk_count += other.chunk_count
        return self

    # -- reductions ------------------------------------------------------------

    def merged_answers(self) -> np.ndarray:
        """All retained answers concatenated in chunk order — equal to
        the monolithic run's answer array regardless of worker count."""
        if not self.answers:
            return np.zeros(0, np.int64)
        return np.concatenate(
            [self.answers[i] for i in sorted(self.answers)]
        )

    def percentiles(self, metric: str) -> Dict[str, float]:
        """Sketch-backed ``{"p50": ..., "p95": ..., "p99": ...}``."""
        agg = self.metrics[metric]
        return {f"p{q}": agg.percentile(q) for q in PERCENTILES}

    def metric_line(
        self, metric: str, label: str, unit: str, scale: float = 1.0
    ) -> str:
        """One ``label mean= p50= p95= p99= unit`` line of a CLI block,
        every value multiplied by *scale*."""
        mean = self.metrics[metric].mean * scale
        p = self.percentiles(metric)
        return (
            f"  {label:<8} mean={mean:.2f} "
            f"p50={p['p50'] * scale:.2f} p95={p['p95'] * scale:.2f} "
            f"p99={p['p99'] * scale:.2f} {unit}"
        )

    def to_dict(self) -> dict:
        """JSON-ready summary (answers and attempts excluded; answers
        are a parity artifact, not a result)."""
        out = {"mode": self.mode}
        out.update((name, getattr(self, name)) for name in self.LABELS)
        out.update((name, getattr(self, name)) for name in self.COUNTERS)
        out["chunks"] = self.chunk_count
        out["elapsed_seconds"] = self.elapsed_seconds
        out["metrics"] = {
            name: agg.to_dict() for name, agg in self.metrics.items()
        }
        return out

    def __repr__(self) -> str:
        fields = self.LABELS + self.COUNTERS + ("chunk_count",)
        body = ", ".join(f"{name}={getattr(self, name)}" for name in fields)
        return f"{type(self).__name__}({body})"


class FleetReport(_StreamingReport):
    """Aggregated outcome of a fleet run (any number of chunks/workers).

    Per metric a :class:`MetricAggregate`; the query and loss counters;
    per chunk the answer (region id) array, 8 bytes per query.  Answer
    retention can be disabled (``keep_answers=False`` upstream) for
    fleets where even that is too much.  ``mode`` is ``"engine"``
    (error-free batched engine) or ``"simulate"``.
    """

    LABELS = ("mode", "index_kind", "policy", "error_model")
    COUNTERS = ("queries", "losses")
    METRICS = METRIC_FIELDS

    __slots__ = LABELS + COUNTERS

    def observe_chunk(
        self,
        chunk_index: int,
        region_ids: np.ndarray,
        access_latency: np.ndarray,
        tuning_time: np.ndarray,
        energy_joules: np.ndarray,
        losses: int = 0,
        attempts: Optional[int] = None,
        keep_answers: bool = True,
    ) -> None:
        """Fold one evaluated chunk into the report."""
        if attempts is None:
            attempts = np.sum(tuning_time)
        self._observe(
            chunk_index,
            region_ids,
            keep_answers,
            counts={
                "queries": len(region_ids),
                "losses": int(losses),
                "attempts": int(attempts),
            },
            values={
                "access_latency": access_latency,
                "tuning_time": tuning_time,
                "energy_joules": energy_joules,
            },
        )

    def summary(self) -> Dict[str, float]:
        """Flat summary row, the same row as ``SimulationReport.summary()``
        (percentiles come from the sketch, hence within its ~1 %
        relative-accuracy contract of the exact order statistics)."""
        return query_summary(
            self.queries,
            self.losses,
            self.attempts / self.queries if self.queries else float("nan"),
            lambda m: self.metrics[m].mean,
            self.percentiles,
        )


def render_fleet_report(report: FleetReport) -> str:
    """Human-readable block for the CLI."""
    lines: List[str] = [
        f"fleet: {report.queries} queries over {report.chunk_count} chunks "
        f"({report.mode}, index={report.index_kind})",
    ]
    if report.mode == "simulate":
        lines.append(
            f"  channel: {report.error_model}, policy={report.policy}, "
            f"losses={report.losses}"
        )
    if report.elapsed_seconds:
        rate = report.queries / report.elapsed_seconds
        lines.append(
            f"  elapsed: {report.elapsed_seconds:.2f}s "
            f"({rate:,.0f} queries/s)"
        )
    lines += [
        report.metric_line("access_latency", "latency", "packets"),
        report.metric_line("tuning_time", "tuning", "reads"),
        report.metric_line("energy_joules", "energy", "mJ", scale=1000.0),
    ]
    return "\n".join(lines)
