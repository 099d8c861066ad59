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
import copy
import itertools
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
    """A single-channel broadcast program as one table per cycle.

    The table is all the access walker reads of a program:
    ``index_segment_starts`` (the position of each index copy's first
    packet), ``bucket_positions`` (region id -> the positions of its
    bucket's airings, ascending), ``cycle_length`` and ``region_ids``;
    the cycle repeats for ever, forwards and backwards.  Three
    constructors fill it:

    * this one, the flat (1, m) program: m segments, segment j the full
      index followed by the j-th chunk of the data buckets (one airing
      per region, buckets in region-id order, chunks as even as
      possible);
    * :class:`~repro.broadcast.disks.SkewedBroadcastSchedule`, the same
      layout over a bucket sequence that airs popular regions more often
      (broadcast disks);
    * :meth:`shifted`, a program moved into its slot of a longer cycle
      (one service of a
      :class:`~repro.broadcast.multiplex.MultiplexedBroadcast`).

    Every timeline query answers with the first airing at or after the
    given time, in scalar (list and bisect) and array forms that agree
    exactly.
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
        self.region_ids = list(region_ids)
        self._lay_out(index_packet_count, self.region_ids, params, m, version)

    def _lay_out(
        self,
        index_packet_count: int,
        bucket_sequence: Sequence[int],
        params: SystemParameters,
        m: Optional[int],
        version: int,
    ) -> None:
        """Fill the table: m segments, each the full index followed by the
        next chunk of *bucket_sequence* (chunks as even as possible)."""
        self.params = params
        self.index_packet_count = index_packet_count
        #: Index version this timeline airs (monotonically increasing in
        #: the dynamic-broadcast service; 0 for static broadcasts).
        self.version = version
        self.bucket_packets = params.data_packets_per_instance
        self.data_packet_count = self.bucket_packets * len(bucket_sequence)
        if m is None:
            m = optimal_m(index_packet_count, self.data_packet_count)
        if m < 1:
            raise BroadcastError(f"m must be >= 1, got {m}")
        n = len(bucket_sequence)
        self.m = min(m, n)  # no more segments than buckets
        base, extra = divmod(n, self.m)
        #: Absolute position of each index segment's first packet.
        self.index_segment_starts: List[int] = []
        #: region id -> absolute positions of its bucket's airings.
        self.bucket_positions: Dict[int, List[int]] = {}
        pos = cursor = 0
        for segment in range(self.m):
            self.index_segment_starts.append(pos)
            pos += index_packet_count
            chunk = base + (1 if segment < extra else 0)
            for region in bucket_sequence[cursor : cursor + chunk]:
                self.bucket_positions.setdefault(region, []).append(pos)
                pos += self.bucket_packets
            cursor += chunk
        self.cycle_length = pos
        #: Smallest region id the dense arrays of :meth:`timeline_arrays`
        #: cover (0 unless a region id is negative).
        self._first_id = min(0, min(self.bucket_positions))

    def shifted(self, offset: int, cycle_length: int) -> "BroadcastSchedule":
        """This program airing at *offset* inside a cycle of
        *cycle_length* packets — one service's slot of a multiplexed
        super cycle: the same table with every position moved by
        *offset*."""
        if offset < 0 or offset + self.cycle_length > cycle_length:
            raise BroadcastError(
                f"a {self.cycle_length}-packet program does not fit at "
                f"offset {offset} of a {cycle_length}-packet cycle"
            )
        moved = copy.copy(self)
        moved.__dict__.pop("_timeline_arrays", None)
        moved.index_segment_starts = [
            offset + start for start in self.index_segment_starts
        ]
        moved.bucket_positions = {
            region: [offset + p for p in airings]
            for region, airings in self.bucket_positions.items()
        }
        moved.cycle_length = cycle_length
        return moved

    # -- timeline queries ---------------------------------------------------

    def _next_airing(self, airings: List[int], time: float) -> int:
        """The first of *airings* (ascending positions in the cycle,
        repeated every cycle) at or after *time*.

        ``divmod`` keeps the offset in ``[0, cycle_length]`` even for
        negative *time* (which :meth:`segment_for_offset` produces when
        the cached prefix is longer than the elapsed cycle fraction).
        There the offset is ``fmod + cycle_length``, rounded: rounding up
        never skips an airing (an airing is itself a float nearer the
        true offset), rounding down can land on one that airs before
        *time*, and one step to the next airing mends that.
        """
        length = self.cycle_length
        cycle, offset = divmod(time, length)
        base = int(cycle) * length
        i = bisect.bisect_left(airings, offset)
        if i < len(airings) and base + airings[i] < time:
            i += 1
        if i == len(airings):
            return base + length + airings[0]
        return base + airings[i]

    def next_index_start(self, time: float) -> int:
        """Absolute position of the first index segment starting at or
        after *time* (wrapping into the next cycle when needed)."""
        return self._next_airing(self.index_segment_starts, time)

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
            airings = self.bucket_positions[region_id]
        except KeyError:
            raise BroadcastError(f"region {region_id} not in schedule") from None
        return self._next_airing(airings, time)

    # -- vectorized timeline ------------------------------------------------

    def timeline_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The table as int64 arrays ``(starts, airings)``, memoized once
        per schedule.

        ``starts`` is ``index_segment_starts`` plus the first start one
        cycle later.  ``airings`` has a column per region id from
        ``min(0, smallest id)`` up and a row per airing of the most-aired
        region (one row on a flat program): row *j* holds the region's
        (j+1)-th airing, or its first airing one cycle later once it has
        no more; ``-1`` marks ids the schedule does not air.
        """
        arrays = getattr(self, "_timeline_arrays", None)
        if arrays is None:
            length = self.cycle_length
            starts = self.index_segment_starts
            starts = np.array(starts + [length + starts[0]], np.int64)
            table = self.bucket_positions
            ids = np.fromiter(table, np.int64, len(table)) - self._first_id
            counts = np.fromiter(map(len, table.values()), np.int64, len(table))
            positions = np.fromiter(
                itertools.chain.from_iterable(table.values()),
                np.int64,
                int(counts.sum()),
            )
            firsts = np.cumsum(counts) - counts
            airings = np.full(
                (int(counts.max()), int(ids.max()) + 1), -1, np.int64
            )
            airings[:, ids] = positions[firsts] + length
            airings[
                np.arange(len(positions)) - np.repeat(firsts, counts),
                np.repeat(ids, counts),
            ] = positions
            arrays = self._timeline_arrays = (starts, airings)
        return arrays

    def next_index_starts(self, times: np.ndarray) -> np.ndarray:
        """:meth:`next_index_start` over an array of times, negative ones
        included: ``np.divmod`` on floats is CPython's ``divmod`` (fmod,
        sign fix-up, floor with the same rounding guard),
        ``searchsorted(side="left")`` is ``bisect_left``, the start one
        cycle later takes the wrap, and the same one step mends an offset
        rounded down onto a start before the time."""
        length = self.cycle_length
        starts = self.timeline_arrays()[0]
        cycles, offsets = np.divmod(times, length)
        idx = np.searchsorted(starts, offsets)
        base = cycles.astype(np.int64) * length
        begin = base + starts[idx]
        early = begin < times
        if early.any():
            begin[early] = base[early] + starts[idx[early] + 1]
        return begin

    def next_bucket_arrivals(
        self, region_ids: np.ndarray, times: np.ndarray
    ) -> np.ndarray:
        """:meth:`next_bucket_arrival` over arrays of regions and (integer
        or float) times: each region's first airing in the time's cycle,
        then one round per further airing of the most-aired region (none
        on a flat program), then the first airing a cycle later, each
        taken while the airing so far is before the time.  Only the
        cycle comes from a float division, and every comparison is with
        the time itself, so no rounded offset decides."""
        length = self.cycle_length
        airings = self.timeline_arrays()[1]
        rows = np.asarray(region_ids, np.int64)
        if self._first_id:
            rows = rows - self._first_id
        outside = rows.view(np.uint64) >= airings.shape[1]
        rows = np.where(outside, 0, rows)
        first = airings[0][rows]
        bad = outside | (first < 0)
        if bad.any():
            missing = int(region_ids[np.argmax(bad)])
            raise BroadcastError(f"region {missing} not in schedule")
        base = np.floor_divide(times, length).astype(np.int64) * length
        arrival = base + first
        wrapped = arrival + length
        for later in airings[1:]:
            arrival = np.where(arrival < times, base + later[rows], arrival)
        return np.where(arrival < times, wrapped, arrival)

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
