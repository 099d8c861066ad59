"""Pieces every workload shares: the replay outcome, the oracle check,
digests for bit-for-bit comparison, and the compile probe."""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import SubdivisionError
from repro.geometry.kernels import point_coords
from repro.geometry.point import Point

#: Query coordinates ``(xs, ys)``.
Coords = Tuple[np.ndarray, np.ndarray]

#: Packet capacity of every workload (the paper's 256-byte default).
PACKET_CAPACITY = 256

#: The families in canonical order; per-layer names use these.
KINDS = ("dtree", "rstar", "trap", "trian")

#: One in-area point: the first batched trace compiles the paged index,
#: and a one-point trace is the cheapest call that triggers it.
COMPILE_PROBE = [Point(0.5, 0.5)]


def chunks(total: int, size: int) -> List[Tuple[int, int, int]]:
    """``(chunk index, start, size)`` covering ``[0, total)`` — the
    runner's chunk plan."""
    return [
        (index, start, min(size, total - start))
        for index, start in enumerate(range(0, total, size))
    ]


def engine_obs_names(kind: str) -> Dict[str, str]:
    """``repro.obs`` spans inside ``QueryEngine.run``: the batched trace
    is the family's trace layer, the rest of the call is the timeline."""
    return {
        "engine.trace": f"trace.{kind}",
        "engine.timeline": "timeline",
        "engine.run": "timeline",
    }


def fleet_digest(report) -> List[np.ndarray]:
    """A fleet or mobility report as arrays that must repeat bit for bit:
    its retained answers and every value of its summary row."""
    summary = report.summary()
    return [
        report.merged_answers(),
        np.array([summary[k] for k in sorted(summary)], np.float64),
    ]


def digests_equal(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> bool:
    return len(a) == len(b) and all(
        x.shape == y.shape
        and np.array_equal(x, y, equal_nan=x.dtype.kind == "f")
        for x, y in zip(a, b)
    )


class Outcome:
    """What one replay of a workload delivered.

    ``answers`` counts the location-dependent answers (the throughput
    numerator) and ``seconds`` the wall time of the timed program calls
    that produced them.  ``checks`` holds each answer array with the
    subdivision it must agree with and a thunk for its query coordinates,
    evaluated only after the timed region.  ``digest`` holds every deterministic output, so two
    replays (or a replay and the runner) can be compared bit for bit.
    """

    def __init__(self) -> None:
        self.answers = 0
        self.seconds = 0.0
        self.latency_sum = 0.0
        self.latency_count = 0
        self.tuning_sum = 0.0
        self.refused = 0
        self.checks: List[Tuple[np.ndarray, object, Callable[[], Coords]]] = []
        self.digest: List[np.ndarray] = []
        #: Workload-specific figures: name -> value.
        self.extra: Dict[str, float] = {}

    def check(self, got, subdivision, coords: Callable[[], Coords]) -> None:
        """Register answers for the oracle check; *coords* gives the
        query coordinates later, outside the timed region."""
        self.checks.append((np.asarray(got, np.int64), subdivision, coords))

    def add_fleet_report(self, report) -> None:
        """Fold a :class:`~repro.fleet.FleetReport` in: every query is
        one answer, its reads (retries included) are its tuning."""
        self.answers += report.queries
        self.latency_sum += report.metrics["access_latency"].total
        self.latency_count += report.queries
        self.tuning_sum += report.attempts
        self.digest.extend(fleet_digest(report))

    def add_batch(self, region_ids, latency, tuning) -> None:
        """Fold per-query arrays (a ``BatchResult`` or scalar results)."""
        latency = np.asarray(latency, np.float64)
        tuning = np.asarray(tuning, np.int64)
        self.answers += len(latency)
        self.latency_sum += float(np.sum(latency))
        self.latency_count += len(latency)
        self.tuning_sum += float(np.sum(tuning))
        self.digest.extend([np.asarray(region_ids, np.int64), latency, tuning])

    def mismatches(self) -> int:
        """Answers whose region does not hold the query point.

        The subdivision's locate oracle breaks a tie on a shared
        boundary (within the geometry tolerance) by the lowest region
        id, an index by its own geometry; so an answer that differs from
        the oracle is wrong only when the answered region's polygon does
        not contain the point, boundary included.
        """
        wrong = 0
        for got, subdivision, coords in self.checks:
            xs, ys = coords()
            expected = subdivision.compiled().locate_coords(xs, ys)
            if expected.shape != got.shape:
                wrong += len(got)
                continue
            for i in np.flatnonzero(got != expected):
                wrong += not _holds(subdivision, int(got[i]), xs[i], ys[i])
        return wrong

    @property
    def latency_mean(self) -> float:
        return self.latency_sum / self.latency_count

    @property
    def tuning_mean(self) -> float:
        return self.tuning_sum / self.answers


def coords_of(points) -> Callable[[], Coords]:
    """A coordinates thunk for a point list."""
    return lambda: point_coords(points)


def _holds(subdivision, region_id: int, x: float, y: float) -> bool:
    try:
        region = subdivision.region(region_id)
    except SubdivisionError:
        return False
    return region.polygon.contains_point(Point(float(x), float(y)))
