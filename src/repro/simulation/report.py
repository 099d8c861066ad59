"""Simulation results: per-query arrays reduced to tail percentiles.

Mean latency/tuning — the paper's reporting unit — hides exactly what an
unreliable channel ruins: the tail.  A 1 % loss rate barely moves the
mean but multiplies the p99 latency (one lost index packet costs a
segment or a cycle of extra wait).  :class:`SimulationReport` therefore
keeps the full per-query arrays and reports p50/p95/p99 alongside the
mean, for all three metrics (latency in packets, tuning in read
attempts, energy in joules).

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
        # n == 0 is legal: an empty chunk (or an all-filtered workload)
        # produces an empty report, the identity of :meth:`merge`.
        n = len(region_ids)
        for name, array in (
            ("issue_times", issue_times),
            ("access_latency", access_latency),
            ("tuning_time", tuning_time),
            ("energy_joules", energy_joules),
            ("packet_losses", packet_losses),
            ("read_attempts", read_attempts),
        ):
            if len(array) != n:
                raise BroadcastError(
                    f"{name} has {len(array)} entries for {n} queries"
                )
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
        if (
            self.index_kind != other.index_kind
            or self.policy != other.policy
            or self.error_model != other.error_model
        ):
            return False
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in (
                "issue_times",
                "region_ids",
                "access_latency",
                "tuning_time",
                "energy_joules",
                "packet_losses",
                "read_attempts",
            )
        )

    __hash__ = None  # mutable arrays inside

    #: The per-query arrays carried by every report, in declaration order.
    _ARRAY_FIELDS = (
        "issue_times",
        "region_ids",
        "access_latency",
        "tuning_time",
        "energy_joules",
        "packet_losses",
        "read_attempts",
    )

    #: dtype of each per-query array, as the simulator produces them.
    _ARRAY_DTYPES = {
        "issue_times": np.float64,
        "region_ids": np.int64,
        "access_latency": np.float64,
        "tuning_time": np.int64,
        "energy_joules": np.float64,
        "packet_losses": np.int64,
        "read_attempts": np.int64,
    }

    @classmethod
    def empty(
        cls,
        index_kind: str = "?",
        policy: str = "?",
        error_model: str = "?",
    ) -> "SimulationReport":
        """A zero-query report with the simulator's canonical dtypes —
        the identity element of :meth:`merge`."""
        return cls(
            index_kind=index_kind,
            policy=policy,
            error_model=error_model,
            **{
                name: np.zeros(0, dtype)
                for name, dtype in cls._ARRAY_DTYPES.items()
            },
        )

    # -- merging ------------------------------------------------------------

    def merge(self, other: "SimulationReport") -> "SimulationReport":
        """Concatenate two reports into a new one (exact, order-preserving).

        The merge algebra is what fleet fan-out relies on: it is
        associative, has :meth:`empty` as identity, and merging per-chunk
        reports in chunk order reproduces the monolithic run's arrays
        bit for bit (same per-query values, same order).  Labels must
        agree unless one side is empty with placeholder labels, in which
        case the non-empty side's labels win.
        """
        if not isinstance(other, SimulationReport):
            raise BroadcastError(
                f"cannot merge SimulationReport with {type(other).__name__}"
            )
        labels: Dict[str, str] = {}
        for name in ("index_kind", "policy", "error_model"):
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine == theirs:
                labels[name] = mine
            elif len(self) == 0:
                labels[name] = theirs
            elif len(other) == 0:
                labels[name] = mine
            else:
                raise BroadcastError(
                    f"cannot merge reports with different {name}: "
                    f"{mine!r} vs {theirs!r}"
                )
        return SimulationReport(
            **labels,
            **{
                name: np.concatenate(
                    [getattr(self, name), getattr(other, name)]
                )
                for name in self._ARRAY_FIELDS
            },
        )

    # -- (de)serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable dict; :meth:`from_dict` round-trips it to
        an equal report (arrays restored with their original dtypes)."""
        out: Dict[str, object] = {
            "index_kind": self.index_kind,
            "policy": self.policy,
            "error_model": self.error_model,
        }
        for name in self._ARRAY_FIELDS:
            array = getattr(self, name)
            out[name] = array.tolist()
            out[f"{name}_dtype"] = str(array.dtype)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimulationReport":
        """Inverse of :meth:`to_dict`."""
        arrays = {
            name: np.asarray(data[name], dtype=data[f"{name}_dtype"])
            for name in cls._ARRAY_FIELDS
        }
        return cls(
            index_kind=data["index_kind"],
            policy=data["policy"],
            error_model=data["error_model"],
            **arrays,
        )

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
