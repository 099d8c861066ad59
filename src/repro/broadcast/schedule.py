"""The (1, m) broadcast program of Imielinski et al.

The full index is broadcast m times per cycle, once before every 1/m
fraction of the data.  Each packet carries (conceptually) the offset of the
next index segment, so a client probing at a random instant sleeps until
the next index copy, searches it, then sleeps until its data bucket.

The optimal m for a flat broadcast minimises expected access latency

    L(m) = (I + D / m) / 2        (probe -> next index segment)
         + (m * I + D) / 2        (index segment -> data bucket)

whose real minimiser is m* = sqrt(D / I); we pick the best integer
neighbour exactly.  ``I`` is the index size and ``D`` the data size, both
in packets.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import BroadcastError
from repro.broadcast.params import SystemParameters


def expected_latency_formula(index_packets: int, data_packets: int, m: int) -> float:
    """Analytic expected access latency (packets) for the (1, m) scheme."""
    if m < 1:
        raise BroadcastError(f"m must be >= 1, got {m}")
    probe_wait = (index_packets + data_packets / m) / 2.0
    bcast_wait = (m * index_packets + data_packets) / 2.0
    return probe_wait + bcast_wait


def optimal_m(index_packets: int, data_packets: int) -> int:
    """Best integer replication factor for the (1, m) scheme.

    The data check comes first: a broadcast with no data is an error even
    when there is no index either (``optimal_m(0, 0)`` used to fall into
    the index-free early return and answer 1).
    """
    if data_packets <= 0:
        raise BroadcastError("no data to broadcast")
    if index_packets <= 0:
        return 1
    m_star = math.sqrt(data_packets / index_packets)
    candidates = {max(1, math.floor(m_star)), math.ceil(m_star), 1}
    return min(
        candidates,
        key=lambda m: expected_latency_formula(index_packets, data_packets, m),
    )


class BroadcastSchedule:
    """A concrete packet timeline for one broadcast cycle.

    The cycle consists of m segments; segment j is the full index followed
    by the j-th chunk of the data buckets (flat broadcast, buckets in
    region-id order, chunks as even as possible).
    """

    def __init__(
        self,
        index_packet_count: int,
        region_ids: Sequence[int],
        params: SystemParameters,
        m: int = None,
        *,
        version: int = 0,
    ) -> None:
        if not region_ids:
            raise BroadcastError("schedule needs at least one data bucket")
        if version < 0:
            raise BroadcastError(f"version must be >= 0, got {version}")
        self.params = params
        self.index_packet_count = index_packet_count
        self.region_ids = list(region_ids)
        #: Index version this timeline airs (monotonically increasing in
        #: the dynamic-broadcast service; 0 for static broadcasts).
        self.version = version
        self.bucket_packets = params.data_packets_per_instance
        self.data_packet_count = self.bucket_packets * len(self.region_ids)
        if m is None:
            m = optimal_m(index_packet_count, self.data_packet_count)
        if m < 1:
            raise BroadcastError(f"m must be >= 1, got {m}")
        self.m = min(m, len(self.region_ids))  # no more segments than buckets
        self._build_timeline()

    def _build_timeline(self) -> None:
        """Compute absolute positions of index segments and data buckets."""
        n = len(self.region_ids)
        base, extra = divmod(n, self.m)
        #: (start_position, bucket_count) of each segment's data chunk.
        self.index_segment_starts: List[int] = []
        #: region id -> absolute packet position of its bucket's first packet.
        self.bucket_position: Dict[int, int] = {}
        pos = 0
        next_bucket = 0
        for segment in range(self.m):
            self.index_segment_starts.append(pos)
            pos += self.index_packet_count
            chunk = base + (1 if segment < extra else 0)
            for _ in range(chunk):
                region = self.region_ids[next_bucket]
                self.bucket_position[region] = pos
                pos += self.bucket_packets
                next_bucket += 1
        self.cycle_length = pos
        if next_bucket != n:
            raise BroadcastError("internal error: buckets not fully scheduled")

    # -- timeline queries ---------------------------------------------------

    def next_index_start(self, time: float) -> int:
        """Absolute position of the first index segment starting at or
        after *time* (wrapping into the next cycle when needed).

        ``divmod`` keeps the offset in ``[0, cycle_length)`` even for
        negative *time* (which :meth:`segment_for_offset` produces when
        the cached prefix is longer than the elapsed cycle fraction), so
        the bisect below — first start ``>= offset``, same semantics as
        ``np.searchsorted(side="left")`` in the vectorized twin
        :meth:`next_index_starts` — needs no special cases.
        """
        cycle, offset = divmod(time, self.cycle_length)
        starts = self.index_segment_starts
        idx = bisect.bisect_left(starts, offset)
        if idx == len(starts):
            return (int(cycle) + 1) * self.cycle_length + starts[0]
        return int(cycle) * self.cycle_length + starts[idx]

    def segment_for_offset(self, offset: int, time: float) -> int:
        """Start of the earliest index segment whose *offset*-th packet
        airs at or after *time*.

        A client that already holds the search-path prefix (from a
        packet cache) need not wait for a segment *start* — only for the
        first packet it actually has to read.  ``S + offset >= time``
        iff ``S >= time - offset``, so the answer is the first segment
        start at or after ``time - offset``.
        """
        if offset < 0:
            raise BroadcastError(f"packet offset must be >= 0, got {offset}")
        return self.next_index_start(time - offset)

    def next_bucket_arrival(self, region_id: int, time: float) -> int:
        """Absolute position of the next broadcast of *region_id*'s bucket
        at or after *time*."""
        try:
            in_cycle = self.bucket_position[region_id]
        except KeyError:
            raise BroadcastError(f"region {region_id} not in schedule") from None
        cycle, offset = divmod(time, self.cycle_length)
        if in_cycle >= offset:
            return int(cycle) * self.cycle_length + in_cycle
        return (int(cycle) + 1) * self.cycle_length + in_cycle

    # -- vectorized timeline ------------------------------------------------

    def timeline_arrays(self) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(segment starts, dense region id -> bucket position)`` as
        int64 arrays, memoized once per schedule.  The position map is
        None when a region id is negative (no dense map exists), and
        ``-1`` marks ids the schedule does not air."""
        arrays = getattr(self, "_timeline_arrays", None)
        if arrays is None:
            starts = np.asarray(self.index_segment_starts, np.int64)
            positions = None
            if min(self.region_ids) >= 0:
                positions = np.full(max(self.region_ids) + 1, -1, np.int64)
                for region_id, position in self.bucket_position.items():
                    positions[region_id] = position
            arrays = self._timeline_arrays = (starts, positions)
        return arrays

    def next_index_starts(self, times: np.ndarray) -> np.ndarray:
        """:meth:`next_index_start` over an array of times, negative ones
        included: ``np.divmod`` on floats is CPython's ``divmod``
        (fmod, sign fix-up, floor with the same rounding guard), and
        ``searchsorted(side="left")`` is ``bisect_left``."""
        length = self.cycle_length
        starts = self.timeline_arrays()[0]
        cycles, offsets = np.divmod(times, length)
        idx = np.searchsorted(starts, offsets, side="left")
        wraps = idx == len(starts)
        segment = starts[np.where(wraps, 0, idx)]
        return (cycles.astype(np.int64) + wraps) * length + segment

    def next_bucket_arrivals(
        self, region_ids: np.ndarray, times: np.ndarray
    ) -> np.ndarray:
        """:meth:`next_bucket_arrival` over arrays of regions and (integer
        or float) times; needs the dense position map of
        :meth:`timeline_arrays`."""
        length = self.cycle_length
        table = self.timeline_arrays()[1]
        out_of_range = region_ids >= len(table)
        positions = table[np.where(out_of_range, 0, region_ids)]
        bad = out_of_range | (positions < 0)
        if bad.any():
            missing = int(region_ids[np.argmax(bad)])
            raise BroadcastError(f"region {missing} not in schedule")
        cycles, offsets = np.divmod(times, length)
        cycles = cycles.astype(np.int64)
        return np.where(positions >= offsets, cycles, cycles + 1) * length + positions

    @property
    def index_overhead_packets(self) -> int:
        """Total index packets per cycle (m copies)."""
        return self.m * self.index_packet_count

    def __repr__(self) -> str:
        return (
            f"BroadcastSchedule(m={self.m}, index={self.index_packet_count}p, "
            f"data={self.data_packet_count}p, cycle={self.cycle_length}p)"
        )


def resolve_schedule(
    paged_index,
    region_ids: Sequence[int],
    params: SystemParameters,
    queries: Sequence,
    m: Optional[int] = None,
    schedule=None,
    plan=None,
):
    """The broadcast timeline a workload front door evaluates against.

    Rejects an empty workload (*queries* are its points or trajectories)
    and ``schedule=`` together with ``plan=``; builds the flat (1, m)
    :class:`BroadcastSchedule` when neither is given; rejects a schedule
    (or plan) built for another index size.
    """
    if not queries:
        raise BroadcastError("need at least one query point")
    if plan is not None:
        if schedule is not None:
            raise BroadcastError("pass either schedule= or plan=, not both")
        schedule = plan
    if schedule is None:
        return BroadcastSchedule(
            index_packet_count=len(paged_index.packets),
            region_ids=list(region_ids),
            params=params,
            m=m,
        )
    if schedule.index_packet_count != len(paged_index.packets):
        raise BroadcastError(
            "provided schedule was built for a different index size"
        )
    return schedule
