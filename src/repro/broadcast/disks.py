"""Skewed broadcast scheduling — "broadcast disks" (extension).

The paper assumes a *flat* broadcast: every data instance appears once per
cycle.  Acharya et al.'s broadcast disks (the paper's reference [1]) air
popular items more often, trading cycle length for latency on skewed
workloads.  This module lays out a frequency-scheduled data broadcast as
a :class:`~repro.broadcast.schedule.BroadcastSchedule` table whose
regions air several times per cycle, so any paged index and the
unmodified client run on top of it, batched like the flat program.

Frequencies follow the square-root rule (optimal for mean latency:
broadcast frequency proportional to the square root of access
probability), discretised to small integers, and buckets are laid out with
an urgency scheduler (always air the bucket furthest past its period) —
the classic fair-queuing construction that spaces each item's occurrences
near-evenly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import BroadcastError
from repro.broadcast.params import SystemParameters
from repro.broadcast.schedule import BroadcastSchedule


def square_root_frequencies(
    weights: Mapping[int, float], max_frequency: int = 8
) -> Dict[int, int]:
    """Integer broadcast frequencies from access weights.

    Frequencies are proportional to sqrt(weight), scaled so the rarest
    item airs once per cycle and capped at *max_frequency*.
    """
    if not weights:
        raise BroadcastError("no regions to schedule")
    if max_frequency < 1:
        raise BroadcastError("max_frequency must be >= 1")
    floor = max(min(weights.values()), 1e-12)
    roots = {rid: math.sqrt(max(w, floor) / floor) for rid, w in weights.items()}
    return {
        rid: max(1, min(max_frequency, round(r))) for rid, r in roots.items()
    }


def urgency_sequence(frequencies: Mapping[int, int]) -> List[int]:
    """Bucket order for one cycle: each region appears ``frequency`` times,
    spaced as evenly as the integer slots allow."""
    total = sum(frequencies.values())
    period = {rid: total / f for rid, f in frequencies.items()}
    next_due = {rid: 0.0 for rid in frequencies}
    remaining = dict(frequencies)
    sequence: List[int] = []
    for _ in range(total):
        rid = min(
            (r for r in remaining if remaining[r] > 0),
            key=lambda r: (next_due[r], r),
        )
        sequence.append(rid)
        next_due[rid] += period[rid]
        remaining[rid] -= 1
    return sequence


class SkewedBroadcastSchedule(BroadcastSchedule):
    """A broadcast-disks data program with (1, m) index interleaving.

    The flat program's layout over :attr:`bucket_sequence`, which airs
    each region ``frequencies[region]`` times per cycle: the result is
    the same :class:`~repro.broadcast.schedule.BroadcastSchedule` table,
    with several airings per region in ``bucket_positions``, so the
    access walker reads it as it reads the flat program.
    """

    def __init__(
        self,
        index_packet_count: int,
        region_weights: Mapping[int, float],
        params: SystemParameters,
        m: Optional[int] = None,
        max_frequency: int = 8,
    ) -> None:
        if not region_weights:
            raise BroadcastError("schedule needs at least one data bucket")
        self.frequencies = square_root_frequencies(region_weights, max_frequency)
        self.bucket_sequence = urgency_sequence(self.frequencies)
        self.region_ids = list(self.frequencies)
        self._lay_out(
            index_packet_count,
            self.bucket_sequence,
            params,
            None if m is None else max(1, m),
            version=0,
        )

    @property
    def replication_factor(self) -> float:
        """Mean broadcasts per region per cycle (1.0 = flat)."""
        return len(self.bucket_sequence) / len(self.frequencies)

    def __repr__(self) -> str:
        return (
            f"SkewedBroadcastSchedule(m={self.m}, "
            f"slots={len(self.bucket_sequence)}, "
            f"replication={self.replication_factor:.2f}, "
            f"cycle={self.cycle_length}p)"
        )


def region_weights_from_workload(
    subdivision, points: Sequence, smoothing: float = 0.5
) -> Dict[int, float]:
    """Estimate per-region access weights by locating a query sample.

    ``smoothing`` is an add-constant prior so unseen regions keep a
    nonzero weight (they must still appear in every cycle).
    """
    counts: Dict[int, float] = {
        rid: smoothing for rid in subdivision.region_ids
    }
    for p in points:
        counts[subdivision.locate(p)] += 1.0
    return counts
