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
"""

from __future__ import annotations

import math
import random
from typing import Callable, List, Optional, Sequence

from repro.errors import BroadcastError
from repro.geometry.point import Point
from repro.obs import active_collector
from repro.broadcast.caching import PacketCache
from repro.broadcast.packets import PagedIndex, QueryTrace


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


class _Skew(Exception):
    """A packet with a foreign version stamp was read; *reads* packets of
    the abandoned attempt were wasted."""

    def __init__(self, reads: int) -> None:
        self.reads = reads


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
    ) -> AccessResult:
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

    # -- counters and workloads ---------------------------------------------

    def _report_client(self, col, result: AccessResult) -> None:
        col.count("client.queries")
        col.count("client.probes", self._probe_count)
        col.count("client.packets.index", result.index_tuning_time)
        col.count("client.packets.data", self.schedule.bucket_packets)
        if self.plan is not None:
            col.count("client.hops", result.hops)
            col.count("client.hop_slots", result.hop_slots)
        col.count(
            "client.doze_slots",
            result.access_latency - result.total_tuning_time - result.hop_slots,
        )

    def _report_sim(self, col, result: AccessResult) -> None:
        """Pure observation: every value is read from the bookkeeping the
        walk already did, so enabled runs stay bit-for-bit identical."""
        reads = result.read_attempts
        col.count("sim.queries")
        col.count("sim.losses", result.packet_losses)
        col.count("sim.read_attempts", reads)
        col.count("sim.reads.probe", self._probe_reads)
        col.count("sim.reads.index", self._index_reads)
        col.count("sim.reads.data", reads - self._probe_reads - self._index_reads)
        col.count("sim.retries", self._retries)
        if self._fell_back:
            col.count("sim.fallbacks")
        if self.plan is not None:
            col.count("sim.hops", result.hops)
            col.count("sim.hop_slots", result.hop_slots)
        col.count(
            "sim.doze_slots",
            max(result.access_latency - reads - result.hop_slots, 0.0),
        )
        if self.cache is not None:
            col.count("sim.cache.hits", len(self._accessed) - len(self._needed))
            col.count("sim.cache.misses", len(self._needed))
        receive_j, doze_j = self.energy_model.query_components(
            reads, result.access_latency, self.schedule.params.packet_capacity
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
