"""The mobile client: the paper's access protocol (§2) as one walker.

1. *Initial probe* — tune in, learn when the next index segment starts,
   doze until then.
2. *Index search* — selectively read index packets (forward-only: the
   channel is linear, so a pointer to an already-passed packet costs a full
   extra cycle — index broadcast orders are chosen so this never happens,
   and the walker asserts it).
3. *Data retrieval* — doze until the bucket arrives, download it.

:class:`BroadcastClient` walks these steps over any broadcast timeline: a
:class:`~repro.broadcast.schedule.BroadcastSchedule`, a duck-typed
schedule with the same timeline methods (broadcast disks, one service's
slice of a multiplexed channel), a
:class:`~repro.broadcast.plan.BroadcastPlan` (a K=1 plan *is* its single
schedule, bit for bit), or a live timeline that changes between cycles
(:class:`~repro.dynamic.DynamicBroadcastServer`).  Four effects compose
onto the walk; each is off unless asked for, and an absent effect costs
nothing per packet:

* **version stamp** — on a live timeline the probe snapshots the airing
  version; every later read checks the stamp, and a mismatch abandons the
  attempt and retries at the next index segment (``max_attempts``
  attempts; ``on_packet_read(stage, attempt)`` runs before every read);
* **packet cache** (``cache_packets``) — cached index packets cost
  nothing and cannot be lost; the channel wait is anchored at the first
  uncached packet, and a fully cached search skips the probe;
* **channel hop** (a K>1 plan) — each index packet is read on its home
  channel and the bucket on its region's channel; a switch costs
  ``hop_cost`` slots of latency but no tuning;
* **loss and recovery** (``error_model``, ``policy``, ``energy_model``) —
  every read attempt, probe, index or data, may be lost; a lost index
  packet invokes the recovery policy on the schedule being read, a lost
  data packet is re-read one cycle later.

Within one query they apply in that order: the stamp picks the timeline
the attempt walks, the cache decides which packets must be read, the hop
decides where each is read, and loss decides how often.

:meth:`BroadcastClient.run_batch` is the batched front door over a whole
workload, returning an :class:`AccessBatch` of per-query arrays equal to
a loop of :meth:`~BroadcastClient.query`, counters and channel stream
included.  On a flat :class:`~repro.broadcast.schedule.BroadcastSchedule`
(under an error model with a draw layout) and on an error-free K>1 plan
it runs in three layers: the compiled tracers emit each query's packet
path, one vectorised timeline pass turns paths into read slots (hopping
channels on a plan), and the queries whose channel draws show a loss are
replayed one by one through the scalar walk.  Every other configuration
walks query by query.
"""

from __future__ import annotations

import math
import random
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.errors import BroadcastError
from repro.geometry.point import Point
from repro.obs import active_collector
from repro.broadcast.caching import PacketCache
from repro.broadcast.packets import PagedIndex, QueryTrace
from repro.broadcast.schedule import BroadcastSchedule


def run_workload(
    client,
    points: Sequence[Point],
    *,
    issue_times: Optional[Sequence[float]] = None,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> List["AccessResult"]:
    """The workload runner: query each point at a uniform-random instant
    of the broadcast cycle.

    *client* needs only a ``query(point, issue_time)`` method and a
    ``cycle_length``.  Pass *rng* to draw issue times from an externally
    owned stream (one shared across components for reproducible runs);
    otherwise a fresh ``random.Random(seed)`` is used.  Explicit
    *issue_times* bypass the rng entirely.
    """
    if issue_times is not None:
        if len(issue_times) != len(points):
            raise BroadcastError(
                f"{len(issue_times)} issue times for {len(points)} query points"
            )
        return [client.query(p, t) for p, t in zip(points, issue_times)]
    if rng is None:
        rng = random.Random(seed)
    length = client.cycle_length
    return [client.query(p, rng.uniform(0, length)) for p in points]


class AccessResult:
    """The outcome of one query's walk.

    Effects that were off leave their fields at the neutral value: no
    loss means ``packet_losses == 0`` and ``read_attempts ==
    total_tuning_time``; one channel means no hops; a static timeline
    answers under its own version in one attempt.  ``energy_joules`` is
    ``None`` unless the walk priced energy (loss or an energy model).
    """

    __slots__ = (
        "region_id",
        "access_latency",
        "index_tuning_time",
        "total_tuning_time",
        "trace",
        "read_attempts",
        "packet_losses",
        "energy_joules",
        "hops",
        "hop_slots",
        "version",
        "attempts",
        "wasted_tuning",
    )

    def __init__(
        self,
        region_id: int,
        access_latency: float,
        index_tuning_time: int,
        total_tuning_time: int,
        trace: QueryTrace,
        read_attempts: Optional[int] = None,
        packet_losses: int = 0,
        energy_joules: Optional[float] = None,
        hops: int = 0,
        hop_slots: float = 0.0,
        version: int = 0,
        attempts: int = 1,
        wasted_tuning: int = 0,
    ) -> None:
        self.region_id = region_id
        #: Packets elapsed between query issue and end of data download.
        self.access_latency = access_latency
        #: Index-search read attempts (the unit of the paper's Figure 12).
        self.index_tuning_time = index_tuning_time
        #: Every read attempt: probe + index search + data download
        #: (plus reads of abandoned attempts under version skew).
        self.total_tuning_time = total_tuning_time
        self.trace = trace
        #: All read attempts, lost reads included.
        self.read_attempts = (
            total_tuning_time if read_attempts is None else read_attempts
        )
        #: Reads that were lost or received corrupted.
        self.packet_losses = packet_losses
        #: Energy spent on this query (receive + doze), in joules.
        self.energy_joules = energy_joules
        #: Channel switches performed during this query.
        self.hops = hops
        #: Packet slots spent retuning (hops x hop cost): part of the
        #: latency, never of the tuning time.
        self.hop_slots = hop_slots
        #: Index version the answer is exact for.
        self.version = version
        #: Probe attempts used (1 = no version skew encountered).
        self.attempts = attempts
        #: Packets read in abandoned attempts.
        self.wasted_tuning = wasted_tuning

    def __repr__(self) -> str:
        return (
            f"AccessResult(region={self.region_id}, "
            f"latency={self.access_latency:.1f}p, "
            f"index_tuning={self.index_tuning_time}p, "
            f"hops={self.hops}, losses={self.packet_losses}, "
            f"v={self.version})"
        )


class AccessBatch:
    """Per-query arrays of one :meth:`BroadcastClient.run_batch`: the
    :class:`AccessResult` fields of a static timeline, element *i* equal
    to query *i*'s.  ``energy_joules`` is None unless the walk priced
    energy."""

    __slots__ = (
        "region_ids",
        "access_latency",
        "index_tuning_time",
        "total_tuning_time",
        "read_attempts",
        "packet_losses",
        "energy_joules",
        "hops",
        "hop_slots",
    )

    def __init__(self, **arrays) -> None:
        for name in self.__slots__:
            setattr(self, name, arrays[name])

    @classmethod
    def from_results(cls, results: Sequence[AccessResult]) -> "AccessBatch":
        """Stack per-query walk results."""
        n = len(results)

        def column(name, dtype):
            field = _RESULT_FIELD.get(name, name)
            return np.fromiter((getattr(r, field) for r in results), dtype, count=n)

        arrays = {
            name: column(name, np.float64 if name in _FLOAT_FIELDS else np.int64)
            for name in cls.__slots__
            if name != "energy_joules"
        }
        priced = n > 0 and results[0].energy_joules is not None
        arrays["energy_joules"] = (
            column("energy_joules", np.float64) if priced else None
        )
        return cls(**arrays)

    def __len__(self) -> int:
        return len(self.region_ids)


#: The float64 AccessBatch arrays (the others are int64).
_FLOAT_FIELDS = ("access_latency", "energy_joules", "hop_slots")
#: AccessBatch array -> AccessResult attribute, where the names differ.
_RESULT_FIELD = {"region_ids": "region_id"}
#: What a replayed query can change (energy is priced afterwards, and a
#: replay on a flat schedule never hops).
_REPLAYED_FIELDS = (
    "region_ids",
    "access_latency",
    "index_tuning_time",
    "total_tuning_time",
    "read_attempts",
    "packet_losses",
)


class _Skew(Exception):
    """A packet with a foreign version stamp was read; *reads* packets of
    the abandoned attempt were wasted."""

    def __init__(self, reads: int) -> None:
        self.reads = reads


def _random_draws(rng: random.Random, count: int) -> np.ndarray:
    """The next *count* ``rng.random()`` values as an array, leaving
    *rng* exactly where *count* calls would.

    For a plain :class:`random.Random` the words come in bulk from
    ``getrandbits`` (Mersenne Twister outputs in order, least
    significant word first) and are combined as CPython's ``random()``
    combines its two words: ``(a >> 5) * 2**26 + (b >> 6)`` scaled by
    ``2**-53``, exact in float64.  Other generators are called one draw
    at a time.
    """
    if type(rng) is not random.Random:
        draw = rng.random
        return np.fromiter((draw() for _ in range(count)), np.float64, count)
    words = np.frombuffer(
        rng.getrandbits(64 * count).to_bytes(8 * count, "little"), "<u4"
    )
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (
        1.0 / 9007199254740992.0
    )


#: Queries compared per step of the loss-free scan.
_SCAN_WINDOW = 256
#: Queries per loss-free layout (bounds its per-read arrays).
_LAYOUT_QUERIES = 8192


class _DrawStream:
    """An rng's ``random()`` stream pulled ahead in bulk.

    The loss-free scan peeks at upcoming draws and advances ``used``
    past the draws of accepted queries; a replay consumes draws one by
    one through :meth:`random`.  :meth:`settle` leaves the rng exactly
    ``used`` draws past where the stream started.
    """

    #: Fewest draws pulled at a time.
    BLOCK = 4096

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used = 0  # draws consumed, from the start of the stream
        self._base = 0  # stream index of values[0]
        self._values = np.zeros(0, np.float64)
        #: (draws pulled before a block, rng state before that block).
        self._marks: List[tuple] = []

    def _pull(self, needed: int) -> None:
        pulled = self._base + len(self._values)
        self._marks.append((pulled, self.rng.getstate()))
        fresh = _random_draws(self.rng, max(needed, self.BLOCK))
        keep = self._values[self.used - self._base :]
        self._base = self.used
        self._values = np.concatenate((keep, fresh))

    def peek(self, count: int) -> np.ndarray:
        """The next *count* draws, not consumed."""
        start = self.used - self._base
        if start + count > len(self._values):
            self._pull(start + count - len(self._values))
            start = 0
        return self._values[start : start + count]

    def random(self) -> float:
        if self.used - self._base == len(self._values):
            self._pull(1)
        value = self._values.item(self.used - self._base)
        self.used += 1
        return value

    def settle(self) -> None:
        """Rewind the rng to just after the consumed draws."""
        if not self._marks or self.used == self._base + len(self._values):
            return
        for pulled, state in reversed(self._marks):
            if pulled <= self.used:
                break
        self.rng.setstate(state)
        _random_draws(self.rng, self.used - pulled)


def _segment_for_offset(schedule, offset: int, time: float) -> int:
    """Start of the earliest index segment whose *offset*-th packet airs
    at or after *time* (generic over duck-typed schedules)."""
    method = getattr(schedule, "segment_for_offset", None)
    if method is not None:
        return method(offset, time)
    return schedule.next_index_start(time - offset)


class BroadcastClient:
    """The access-protocol walker over one paged index and its timeline.

    *timeline* is a schedule, a :class:`~repro.broadcast.plan.BroadcastPlan`
    or a live timeline (anything with ``paged``, ``schedule`` and
    ``version``, re-read at every probe).  See the module docstring for
    the effects the keyword arguments turn on.
    """

    def __init__(
        self,
        paged_index: PagedIndex,
        timeline,
        *,
        cache_packets: Optional[int] = None,
        start_channel: int = 0,
        error_model=None,
        policy="retry-next-segment",
        energy_model=None,
        max_attempts: int = 16,
        on_packet_read: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        if max_attempts < 1:
            raise BroadcastError(f"max_attempts must be >= 1, got {max_attempts}")
        self.start_channel = start_channel
        self.max_attempts = max_attempts
        self.on_packet_read = on_packet_read
        #: The live timeline (version-stamp effect), or None.
        self.server = None
        if hasattr(timeline, "paged") and hasattr(timeline, "version"):
            self.server = timeline
            paged_index, timeline = timeline.paged, timeline.schedule
        self.error_model = error_model
        self.policy = None
        self.energy_model = energy_model
        if error_model is not None:
            # Imported lazily: repro.simulation builds on this module.
            from repro.simulation.energy import EnergyModel
            from repro.simulation.policies import recovery_policy

            self.policy = (
                recovery_policy(policy) if isinstance(policy, str) else policy
            )
            if energy_model is None:
                self.energy_model = EnergyModel()
        self.cache = (
            PacketCache(cache_packets) if cache_packets is not None else None
        )
        self._candidates = None
        self._bind(paged_index, timeline)

    def _bind(self, paged_index: PagedIndex, timeline) -> None:
        """Attach to one paged index + timeline, keeping the cache object
        (re-keyed to the timeline's version)."""
        from repro.broadcast.plan import BroadcastPlan, single_channel_view

        timeline = single_channel_view(timeline)
        self.plan = timeline if isinstance(timeline, BroadcastPlan) else None
        if len(paged_index.packets) != timeline.index_packet_count:
            raise BroadcastError(
                f"schedule built for {timeline.index_packet_count} index "
                f"packets but the paged index has {len(paged_index.packets)}"
            )
        channels = 1 if self.plan is None else self.plan.num_channels
        if not 0 <= self.start_channel < channels:
            raise BroadcastError(
                f"start channel {self.start_channel} out of range "
                f"(timeline has {channels} channels)"
            )
        self.paged_index = paged_index
        #: The walked timeline: the schedule, or the K>1 plan itself.
        self.schedule = timeline
        self._schedules = (
            [timeline] if self.plan is None
            else [c.schedule for c in self.plan.channels]
        )
        self._hop_cost = 0.0 if self.plan is None else self.plan.hop_cost
        #: Distributed placement: global packet id -> (home channel,
        #: local segment offset); None when every channel reads locally.
        self._homes = None
        if self.plan is not None and self.plan.index_placement == "distributed":
            self._homes = [
                self.plan.index_home(pid, 0)
                for pid in range(self.plan.index_packet_count)
            ]
        self.version = getattr(timeline, "version", 0)
        #: Dense lookup arrays of the batched hop pass (built lazily).
        self._hop_tables = None
        if self.cache is not None:
            self.cache.set_version(self.version)
        # Per-query counters, as each walk has always reported them: the
        # loss effect reports sim.*; stamped walks and single-channel
        # cached walks report none (cache.* lookups aside).
        if self.error_model is not None:
            self._report = self._report_sim
        elif self.server is not None or (
            self.cache is not None and self.plan is None
        ):
            self._report = None
        else:
            self._report = self._report_client

    def rebind(self, paged_index: PagedIndex, timeline) -> None:
        """Point the client at a new paged index + timeline (an index
        update went on the air).  The session's cache object survives,
        re-keyed to the new version, so packets cached under the old
        index can never answer a search over the new one."""
        self._bind(paged_index, timeline)

    @property
    def cycle_length(self) -> int:
        """Issue-time horizon of the (currently airing) timeline."""
        if self.server is not None:
            return self.server.schedule.cycle_length
        return self.schedule.cycle_length

    # -- one query ----------------------------------------------------------

    def query(self, point: Point, issue_time: float) -> AccessResult:
        """Run the access protocol for a query issued at *issue_time*
        (absolute packet slot, channel-independent), reporting its
        per-query counters to an installed collector."""
        if self.server is None:
            # A static timeline never skews: one attempt.
            result = self._attempt(point, issue_time, issue_time, 1, 0)
        else:
            result = self.walk(point, issue_time)
        if self._report is not None:
            col = active_collector()
            if col is not None:
                self._report(col, result)
        return result

    def walk(self, point: Point, issue_time: float) -> AccessResult:
        """:meth:`query` without the per-query counters."""
        t = issue_time
        wasted = 0
        for attempt in range(1, self.max_attempts + 1):
            try:
                return self._attempt(point, issue_time, t, attempt, wasted)
            except _Skew as skew:
                wasted += skew.reads
                # Retry next cycle: doze to the next index segment of
                # whatever cycle is on the air now.
                t = float(self.server.schedule.next_index_start(t) + 1)
        raise BroadcastError(
            f"no consistent cycle within {self.max_attempts} attempts "
            "(server updating faster than the client can read?)"
        )

    def _attempt(
        self,
        point: Point,
        issue_time: float,
        t: float,
        attempt: int,
        wasted: int,
        trace: Optional[QueryTrace] = None,
    ) -> AccessResult:
        """One attempt of the protocol; *trace* (the point's trace, when
        the caller already has it) saves re-tracing the point."""
        server = self.server
        if server is not None:
            # The probe packet carries the version of the cycle airing
            # now: walk that cycle's index and schedule.
            self._notify("probe", attempt)
            self._bind(server.paged, server.schedule)
        model = self.error_model
        per_read = model is not None or server is not None
        if model is not None:
            # Each query models an independent client's read sequence.
            model.start_query()
        if per_read:
            self._reads = 0
            self._index_reads = 0
            self._probe_reads = 0
            self._losses = 0
            self._retries = 0
            self._read_ok: List[int] = []
        self._hops = 0
        self._fell_back = False

        if trace is None:
            trace = self.paged_index.trace(point)
        accessed = trace.packets_accessed
        if accessed != sorted(accessed):
            raise BroadcastError(
                "index traversal moved backwards on the broadcast channel: "
                f"{accessed} — the index broadcast order is invalid"
            )
        if len(set(accessed)) != len(accessed):
            accessed = list(dict.fromkeys(accessed))
        cache = self.cache
        needed = (
            accessed if cache is None
            else [pid for pid in accessed if pid not in cache]
        )
        region = trace.region_id
        channel = self.start_channel
        if cache is not None and not needed:
            # Fully cached search: a warmed client already knows the
            # timing — no probe, doze straight until the data bucket.
            probe = 0
            ready = t
            last_good = None
        else:
            probe = 1
            ready = self._probe(t) if per_read else t
            ready, channel, last_good = self._index_search(
                needed, ready, channel, cache is not None, per_read, attempt
            )
        if self._fell_back:
            finish = self._fallback(region, last_good, ready, channel)
        else:
            finish = self._retrieve(region, ready, channel, attempt)
        if cache is not None:
            read_ok = set(self._read_ok) if self._fell_back else None
            for pid in accessed:
                # After a fallback the tail of the path was never received.
                if read_ok is None or pid not in needed or pid in read_ok:
                    cache.touch(pid)

        access_latency = finish - issue_time
        if model is not None:
            reads = self._reads
            index_tuning = self._index_reads
        else:
            index_tuning = len(needed)
            reads = probe + index_tuning + self.schedule.bucket_packets
        energy = None
        if self.energy_model is not None:
            energy = self.energy_model.query_joules(
                reads, access_latency, self.schedule.params.packet_capacity
            )
        self._needed = needed
        self._accessed = accessed
        self._probe_count = probe
        return AccessResult(
            region,
            access_latency,
            index_tuning,
            wasted + reads,
            trace,
            wasted + reads,
            self._losses if model is not None else 0,
            energy,
            self._hops,
            self._hops * self._hop_cost,
            self.version,
            attempt,
            wasted,
        )

    # -- protocol steps -----------------------------------------------------

    def _notify(self, stage: str, attempt: int) -> None:
        if self.on_packet_read is not None:
            self.on_packet_read(stage, attempt)

    def _read(self, position: int) -> bool:
        """One read attempt at broadcast slot *position*; False if lost."""
        self._reads += 1
        if self.error_model is not None and self.error_model.packet_lost(position):
            self._losses += 1
            return False
        return True

    def _probe(self, t: float) -> float:
        """Step 1: read the packet in flight to learn the broadcast timing;
        on loss, keep reading successive slots until one survives.
        Returns the instant the timing is known."""
        slot = math.floor(t)
        self._probe_reads += 1
        if self._read(slot):
            return t
        while True:
            slot += 1
            self._probe_reads += 1
            if self._read(slot):
                return float(slot + 1)

    def _runs(self, needed: List[int]):
        """Under distributed placement, the search path as ``(channel,
        offsets, packet ids)`` runs of consecutive packets that share a
        home channel.  (With one channel, or a full index copy on every
        channel, the whole path is one run on the current channel.)"""
        homes = self._homes
        runs = []
        for pid in needed:
            chan, offset = homes[pid]
            if runs and runs[-1][0] == chan:
                runs[-1][1].append(offset)
                runs[-1][2].append(pid)
            else:
                runs.append((chan, [offset], [pid]))
        return runs

    def _index_search(
        self,
        needed: List[int],
        t: float,
        channel: int,
        anchored: bool,
        per_read: bool,
        attempt: int,
    ):
        """Step 2: read the search path, hopping to each packet's home
        channel.  Returns ``(ready_time, channel, last_good)``; after a
        fallback (``self._fell_back``) *ready_time* is the instant the
        search was abandoned and *last_good* the last packet received.

        The first read of a cold client waits for a segment *start* (the
        probe points at the next index segment); with a cache the wait is
        anchored at the first packet actually needed.  Within a run on
        one channel every packet airs in the same segment, so only lost
        or version-checked reads are visited one by one.
        """
        if not needed:
            # Empty search path: the search trivially ends one slot into
            # the next index segment.
            return self._schedules[channel].next_index_start(t) + 1, channel, None
        last_good = None
        runs = (
            ((channel, needed, needed),) if self._homes is None
            else self._runs(needed)
        )
        for chan, offsets, pids in runs:
            if chan != channel:
                t += self._hop_cost
                self._hops += 1
                channel = chan
            schedule = self._schedules[chan]
            if anchored:
                base = _segment_for_offset(schedule, offsets[0], t)
            else:
                base = schedule.next_index_start(t)
                anchored = True
            if per_read:
                i = 0
                while i < len(offsets):
                    position = base + offsets[i]
                    self._index_reads += 1
                    if self.server is not None:
                        self._notify("index", attempt)
                        self._check_stamp(pids[i])
                    if self._read(position):
                        self._read_ok.append(pids[i])
                        last_good = pids[i]
                        i += 1
                        continue
                    if self.policy.falls_back:
                        from repro.simulation.policies import record_recovery

                        record_recovery(self.policy)
                        self._fell_back = True
                        return float(position + 1), channel, last_good
                    self._retries += 1
                    base = self.policy.resume_segment_base(
                        schedule, base, position
                    )
            t = base + offsets[-1] + 1
        return float(t), channel, last_good

    def _check_stamp(self, pid: int) -> None:
        """Version check of the index packet just read (``self._reads``
        counts the probe and every index read so far)."""
        live = self.server.paged
        if pid >= len(live.packets) or live.packets[pid].version != self.version:
            raise _Skew(self._reads + 1)

    def _bucket_channel(self, region: int) -> int:
        """Channel index airing *region*'s bucket."""
        return 0 if self.plan is None else self.plan.channel_of_region(region)

    def _retrieve(self, region: int, t: float, channel: int, attempt: int) -> float:
        """Step 3: hop to the bucket's channel, doze until it airs,
        download it.  Returns the completion instant."""
        if self.server is not None:
            # The bucket header carries the stamp too.
            self._notify("data", attempt)
            if self.server.version != self.version:
                raise _Skew(self._reads + 1)
        target = self._bucket_channel(region)
        if target != channel:
            t += self._hop_cost
            self._hops += 1
        schedule = self._schedules[target]
        start = schedule.next_bucket_arrival(region, float(t))
        if self.error_model is None:
            return start + schedule.bucket_packets
        return self._download(schedule, start, first_done=False)

    def _download(self, schedule, start: int, first_done: bool) -> float:
        """Read a bucket's packets from its airing at *start*; packets
        lost in one airing are re-read one cycle later, until all are in.
        ``first_done`` marks the first packet as already received."""
        pending = range(1 if first_done else 0, schedule.bucket_packets)
        finish = float(start + 1) if first_done else float(start)
        base = start
        while pending:
            still_lost = []
            for j in pending:
                if self._read(base + j):
                    finish = max(finish, float(base + j + 1))
                else:
                    still_lost.append(j)
            pending = still_lost
            base += schedule.cycle_length
        return finish

    def _fallback(
        self, true_region: int, last_good: Optional[int], t: float, channel: int
    ) -> float:
        """Upper-bound fallback: inspect candidate buckets in arrival
        order, timeline-wide (a bucket on another channel costs a hop),
        until the query's own region arrives, then download it fully."""
        if self._candidates is None:
            from repro.simulation.candidates import candidate_provider

            self._candidates = candidate_provider(
                self.paged_index, self.schedule.region_ids
            )
        unresolved = set(self._candidates(last_good))
        if true_region not in unresolved:
            raise BroadcastError(
                f"candidate bound for packet {last_good} omits the true "
                f"region {true_region} — the provider is unsound"
            )
        while True:
            best = None
            for r in sorted(unresolved):
                chan = self._bucket_channel(r)
                t_r = t + self._hop_cost if chan != channel else t
                arrival = self._schedules[chan].next_bucket_arrival(
                    r, float(t_r)
                )
                if best is None or arrival < best[1]:
                    best = (r, arrival, chan)
            region, arrival, chan = best
            if chan != channel:
                self._hops += 1
                channel = chan
            if self._read(arrival):
                if region == true_region:
                    return self._download(
                        self._schedules[chan], arrival, first_done=True
                    )
                unresolved.discard(region)
            t = float(arrival + 1)

    # -- the batched front door ---------------------------------------------

    def run_batch(
        self, points: Sequence[Point], issue_times: Sequence[float], trace=None
    ) -> AccessBatch:
        """:meth:`query` for every point at its issue time, as arrays.

        Equal, element by element, to a loop of :meth:`query`: the same
        answers, the same ``client.*``/``sim.*`` counters in query order
        and the same error-model stream afterwards.  Batched on a flat
        :class:`~repro.broadcast.schedule.BroadcastSchedule` under any
        error model with a draw layout
        (:meth:`~repro.simulation.faults.ErrorModel.loss_free_draws`) and
        on an error-free K>1 plan; everything else (a cache, a live
        timeline, duck-typed schedules, a lossy plan, a model without a
        layout) walks query by query.  ``walk.batched_queries`` and
        ``walk.replayed_queries`` count the queries answered by the
        vectorised pass and by the scalar walk.  *trace*, the points'
        :class:`~repro.engine.trace.TraceBatch` when the caller has it,
        saves re-tracing them unless the pass needs packet paths it
        lacks; results are the same without it.
        """
        n = len(points)
        if n == 0:
            raise BroadcastError("need at least one query point")
        if len(issue_times) != n:
            raise BroadcastError(
                f"{len(issue_times)} issue times for {n} query points"
            )
        if trace is not None and len(trace) != n:
            raise BroadcastError(f"{len(trace)} traces for {n} query points")
        times = np.asarray(issue_times, np.float64)
        col = active_collector()
        if not self._batchable():
            batch = AccessBatch.from_results(
                [self.query(p, t) for p, t in zip(points, times.tolist())]
            )
            if col is not None:
                col.count("walk.replayed_queries", n)
            return batch

        from repro.engine.trace import batched_trace

        model = self.error_model
        paths = model is not None or self._homes is not None
        if trace is None or (paths and trace.path_offsets is None):
            trace = batched_trace(self.paged_index, points, paths=paths)
        bucket_packets = self.schedule.bucket_packets
        if self.plan is None:
            hops = np.zeros(n, np.int64)
            base = self.schedule.next_index_starts(times)
            start = self.schedule.next_bucket_arrivals(
                trace.region_ids, base + trace.last_packet + 1
            )
        else:
            hops, start = self._hop_timeline(trace, times)
        tuning = trace.tuning_time
        reads = 1 + tuning + bucket_packets
        batch = AccessBatch(
            region_ids=trace.region_ids,
            access_latency=(start + bucket_packets).astype(np.float64) - times,
            index_tuning_time=tuning,
            total_tuning_time=reads,
            read_attempts=reads.copy(),
            packet_losses=np.zeros(n, np.int64),
            energy_joules=None,
            hops=hops,
            hop_slots=hops * float(self._hop_cost),
        )
        walked, replayed = None, 0
        if model is not None:
            # The loss effect's per-query bookkeeping, for its counters.
            walked = {
                "probe": np.ones(n, np.int64),
                "retries": np.zeros(n, np.int64),
                "fell_back": np.zeros(n, bool),
            }
            offsets, packets = trace.path_offsets, trace.path_packets

            def replay(i: int) -> None:
                t = float(times[i])
                path = packets[offsets[i] : offsets[i + 1]].tolist()
                known = QueryTrace(int(trace.region_ids[i]), path)
                result = self._attempt(points[i], t, t, 1, 0, known)
                for name in _REPLAYED_FIELDS:
                    getattr(batch, name)[i] = getattr(
                        result, _RESULT_FIELD.get(name, name)
                    )
                walked["probe"][i] = self._probe_reads
                walked["retries"][i] = self._retries
                walked["fell_back"][i] = self._fell_back

            for lo in range(0, n, _LAYOUT_QUERIES):
                hi = min(n, lo + _LAYOUT_QUERIES)
                slots, read_offsets = self._read_slots(
                    trace, times, base, start, lo, hi
                )
                replayed += self._replay_losses(
                    *model.loss_free_draws(slots, read_offsets),
                    lambda i, lo=lo: replay(lo + i),
                )
        if self.energy_model is not None:
            # Elementwise query_joules, bit for bit.
            batch.energy_joules = self.energy_model.batch_joules(
                batch.read_attempts, batch.access_latency,
                self.schedule.params.packet_capacity,
            )
        if col is not None:
            self._count_batch(col, batch, walked)
            col.count("walk.batched_queries", n - replayed)
            col.count("walk.replayed_queries", replayed)
        return batch

    def _batchable(self) -> bool:
        """Can :meth:`run_batch` take the vectorised path?"""
        if self.server is not None or self.cache is not None:
            return False
        model = self.error_model
        if model is not None:
            layout = getattr(model, "loss_free_draws", None)
            if self.plan is not None or layout is None or layout(
                np.zeros(0, np.int64), np.zeros(1, np.int64)
            ) is None:
                return False
        return all(
            type(s) is BroadcastSchedule and s.timeline_arrays()[1] is not None
            for s in self._schedules
        )

    def _hop_timeline(self, trace, times: np.ndarray):
        """The hop effect over a whole K>1 workload: ``(hops, bucket
        start)`` per query, step for step :meth:`_index_search` and
        :meth:`_retrieve` without loss.

        The search path splits into runs of packets sharing a home
        channel (one run on the start channel under replicated
        placement).  Runs advance by rank over the whole workload: a
        switch adds ``hop_cost`` to the clock, the first run waits for a
        segment start (``next_index_start(t)``), later runs for the
        segment whose run-first packet airs at or after the clock
        (``next_index_start(t - offset)``), each on its own channel's
        schedule; then the bucket is read on its region's channel.
        """
        plan, hop_cost = self.plan, self._hop_cost
        schedules = self._schedules
        if self._hop_tables is None:
            regions = np.asarray(plan.region_ids, np.int64)
            region_channel = np.full(int(regions.max()) + 1, -1, np.int64)
            region_channel[regions] = [
                plan.channel_of_region(r) for r in plan.region_ids
            ]
            homes = np.asarray(self._homes or [], np.int64).reshape(-1, 2)
            self._hop_tables = (region_channel, homes[:, 0], homes[:, 1])
        region_channel, home_channel, home_offset = self._hop_tables
        n = len(times)
        t = times.copy()
        hops = np.zeros(n, np.int64)
        channel = np.full(n, self.start_channel, np.int64)
        first_schedule = schedules[self.start_channel]
        if self._homes is None:
            # Replicated: the whole path is one run on the start channel.
            t[:] = first_schedule.next_index_starts(t) + trace.last_packet + 1
        else:
            tuning = trace.tuning_time
            empty = np.flatnonzero(tuning == 0)
            t[empty] = first_schedule.next_index_starts(t[empty]) + 1
            packets = trace.path_packets
            chan, offset = home_channel[packets], home_offset[packets]
            owner = np.repeat(np.arange(n, dtype=np.int64), tuning)
            opens = np.ones(len(packets), bool)
            opens[1:] = (chan[1:] != chan[:-1]) | (owner[1:] != owner[:-1])
            run_first = np.flatnonzero(opens)
            run_last = np.append(run_first[1:], len(packets)) - 1
            run_owner = owner[run_first]
            run_chan = chan[run_first]
            rank = np.arange(len(run_first)) - np.searchsorted(run_owner, run_owner)
            for r in range(int(rank.max(initial=-1)) + 1):
                sel = np.flatnonzero(rank == r)
                q, c = run_owner[sel], run_chan[sel]
                switch = q[c != channel[q]]
                t[switch] += hop_cost
                hops[switch] += 1
                channel[q] = c
                wait = t[q] if r == 0 else t[q] - offset[run_first[sel]]
                base = np.empty(len(q), np.int64)
                for k in np.unique(c).tolist():
                    on = c == k
                    base[on] = schedules[k].next_index_starts(wait[on])
                t[q] = base + offset[run_last[sel]] + 1
        regions = trace.region_ids
        target = region_channel[np.minimum(regions, len(region_channel) - 1)]
        unknown = (regions >= len(region_channel)) | (target < 0)
        if unknown.any():
            plan.channel_of_region(int(regions[np.argmax(unknown)]))  # raises
        switch = target != channel
        t[switch] += hop_cost
        hops[switch] += 1
        start = np.empty(n, np.int64)
        for k in np.unique(target).tolist():
            on = target == k
            start[on] = schedules[k].next_bucket_arrivals(regions[on], t[on])
        return hops, start

    def _read_slots(self, trace, times, base, start, lo: int, hi: int):
        """Every read slot of the loss-free walks of queries *lo* to
        *hi* on the flat schedule, as a CSR ``(slots, read_offsets)``:
        the probe, the search path in ``base``'s segment, the bucket
        from ``start``."""
        n = hi - lo
        tuning = trace.tuning_time[lo:hi]
        path_start = trace.path_offsets[lo:hi] - trace.path_offsets[lo]
        path = trace.path_packets[trace.path_offsets[lo] : trace.path_offsets[hi]]
        bucket_packets = self.schedule.bucket_packets
        read_offsets = np.zeros(n + 1, np.int64)
        np.cumsum(1 + tuning + bucket_packets, out=read_offsets[1:])
        slots = np.empty(int(read_offsets[-1]), np.int64)
        first = read_offsets[:-1]
        slots[first] = np.floor(times[lo:hi]).astype(np.int64)
        owner = np.repeat(np.arange(n, dtype=np.int64), tuning)
        within = np.arange(len(path)) - path_start[owner]
        slots[first[owner] + 1 + within] = base[lo:hi][owner] + path
        data = np.arange(bucket_packets)
        slots[(first + 1 + tuning)[:, None] + data] = start[lo:hi, None] + data
        return slots, read_offsets

    def _replay_losses(
        self,
        draw_offsets: np.ndarray,
        thresholds: np.ndarray,
        replay: Callable[[int], None],
    ) -> int:
        """Scan the queries in order against the loss-free layout and
        call ``replay(i)`` for each query whose draws show a loss;
        returns how many were replayed.

        The error model's draws are pulled ahead into a
        :class:`_DrawStream`, which stands in for its rng meanwhile.  A
        window of upcoming draws is compared with the thresholds; the
        clean queries before the first failing draw consume exactly
        their layout, the cursor rewinds to the failing query's first
        draw, and the replay (:meth:`_attempt`) consumes from there what
        the walk really consumes; the scan resumes after it.  At the
        end the rng is rewound (``getstate`` / ``setstate``) to just
        after the consumed draws, so the stream equals the scalar
        walk's.
        """
        n = len(draw_offsets) - 1
        if draw_offsets[-1] == 0:
            return 0
        model = self.error_model
        rng = model._rng
        stream = model._rng = _DrawStream(rng)
        replayed = q = 0
        try:
            while q < n:
                hi = min(n, q + _SCAN_WINDOW)
                lo_d = int(draw_offsets[q])
                count = int(draw_offsets[hi]) - lo_d
                lost = stream.peek(count) < thresholds[lo_d : lo_d + count]
                if not lost.any():
                    stream.used += count
                    q = hi
                    continue
                ends = draw_offsets[q + 1 : hi + 1] - lo_d
                f = q + int(np.searchsorted(ends, int(lost.argmax()), side="right"))
                stream.used += int(draw_offsets[f]) - lo_d
                replay(f)
                replayed += 1
                q = f + 1
        finally:
            model._rng = rng
            stream.settle()
        return replayed

    def _count_batch(self, col, batch: AccessBatch, walked) -> None:
        """The per-query counters of a batched run, in query order."""
        n = len(batch)
        lat = batch.access_latency.tolist()
        hops = batch.hops.tolist()
        hop_slots = batch.hop_slots.tolist()
        index = batch.index_tuning_time.tolist()
        reads = batch.read_attempts.tolist()
        if self.error_model is None:
            for i in range(n):
                self._count_client(
                    col, 1, index[i], lat[i], reads[i], hops[i], hop_slots[i]
                )
            return
        losses = batch.packet_losses.tolist()
        probe = walked["probe"].tolist()
        retries = walked["retries"].tolist()
        fell_back = walked["fell_back"].tolist()
        for i in range(n):
            self._count_sim(
                col, lat[i], reads[i], losses[i], probe[i], index[i],
                retries[i], fell_back[i], hops[i], hop_slots[i],
            )

    # -- counters and workloads ---------------------------------------------

    def _report_client(self, col, result: AccessResult) -> None:
        self._count_client(
            col, self._probe_count, result.index_tuning_time,
            result.access_latency, result.total_tuning_time, result.hops,
            result.hop_slots,
        )

    def _count_client(
        self, col, probes, index_tuning, latency, total_tuning, hops, hop_slots
    ) -> None:
        col.count("client.queries")
        col.count("client.probes", probes)
        col.count("client.packets.index", index_tuning)
        col.count("client.packets.data", self.schedule.bucket_packets)
        if self.plan is not None:
            col.count("client.hops", hops)
            col.count("client.hop_slots", hop_slots)
        col.count("client.doze_slots", latency - total_tuning - hop_slots)

    def _report_sim(self, col, result: AccessResult) -> None:
        """Pure observation: every value is read from the bookkeeping the
        walk already did, so enabled runs stay bit-for-bit identical."""
        self._count_sim(
            col, result.access_latency, result.read_attempts,
            result.packet_losses, self._probe_reads, self._index_reads,
            self._retries, self._fell_back, result.hops, result.hop_slots,
        )
        if self.cache is not None:
            col.count("sim.cache.hits", len(self._accessed) - len(self._needed))
            col.count("sim.cache.misses", len(self._needed))

    def _count_sim(
        self, col, latency, reads, losses, probe_reads, index_reads, retries,
        fell_back, hops, hop_slots,
    ) -> None:
        col.count("sim.queries")
        col.count("sim.losses", losses)
        col.count("sim.read_attempts", reads)
        col.count("sim.reads.probe", probe_reads)
        col.count("sim.reads.index", index_reads)
        col.count("sim.reads.data", reads - probe_reads - index_reads)
        col.count("sim.retries", retries)
        if fell_back:
            col.count("sim.fallbacks")
        if self.plan is not None:
            col.count("sim.hops", hops)
            col.count("sim.hop_slots", hop_slots)
        col.count("sim.doze_slots", max(latency - reads - hop_slots, 0.0))
        receive_j, doze_j = self.energy_model.query_components(
            reads, latency, self.schedule.params.packet_capacity
        )
        col.count("sim.energy.receive_j", receive_j)
        col.count("sim.energy.doze_j", doze_j)

    def run_workload(
        self,
        points: Sequence[Point],
        *,
        issue_times: Optional[Sequence[float]] = None,
        seed: int = 0,
        rng: Optional[random.Random] = None,
    ) -> List[AccessResult]:
        """Query each point at a uniform-random instant in the cycle (see
        the module-level :func:`run_workload`).  A lossy walk draws from
        its error model's current stream — reseed it, or run through
        :class:`~repro.simulation.ChannelSimulator`, for a reproducible
        fault schedule."""
        return run_workload(
            self, points, issue_times=issue_times, seed=seed, rng=rng
        )

    def run_session(
        self, points: Sequence[Point], issue_times: Sequence[float]
    ) -> List[AccessResult]:
        """A sequence of queries sharing the client's cache (a session)."""
        return self.run_workload(points, issue_times=issue_times)
