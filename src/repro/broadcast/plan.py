"""K-channel broadcast plans: sharding one service across parallel channels.

The paper's broadcast program — and everything built on it here — is
hard-wired to a single (1, m) channel.  Real broadcast systems (DAB/DVB
data carousels, XML wireless streams) air several parallel channels; a
:class:`BroadcastPlan` generalizes the single
:class:`~repro.broadcast.schedule.BroadcastSchedule` to K of them:

* the data buckets are *sharded* across channels by a pluggable
  :class:`AllocationStrategy` (``round-robin`` striping or
  ``region-locality`` strips that keep spatially close regions on the
  same channel);
* the air index is either ``replicated`` — every channel interleaves a
  full copy, so a search never hops — or ``distributed`` — each channel
  carries a contiguous chunk of the index packets, shrinking every
  channel's cycle at the price of hopping during the search;
* each channel is an ordinary (1, m) schedule over its own shard, so the
  single-channel machinery (schedules, clients, recovery policies, the
  lossy-channel simulator) applies per channel unchanged.

``K = 1`` is the degenerate plan: one channel holding every region and
the whole index — its schedule is constructed with *exactly* the
arguments of the single-channel path, so plans delegate bit-for-bit to
the existing code (the parity contract of ``tests/test_broadcast_plan.py``).

All channels are slot-synchronous: the packet occupying slot ``t`` on
channel ``c`` airs in the same instant as slot ``t`` on every other
channel, so a client's clock is channel-independent and *hopping*
between channels costs ``hop_cost`` packet slots during which the
receiver is retuning and cannot listen (the hop effect of
:class:`~repro.broadcast.client.BroadcastClient`).

Strategies are looked up by name through :data:`ALLOCATION_REGISTRY`,
mirroring :data:`repro.engine.INDEX_REGISTRY`: registering a new
allocation is a one-file change and the CLI / benchmarks pick it up
automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import BroadcastError
from repro.broadcast.params import SystemParameters
from repro.broadcast.schedule import BroadcastSchedule

#: Where the index packets live: a full copy on every channel, or a
#: contiguous chunk per channel.
INDEX_PLACEMENTS = ("replicated", "distributed")

#: region id -> representative coordinate, used by locality-aware
#: allocation strategies.
Centroids = Mapping[int, Tuple[float, float]]


def _balanced_chunks(n: int, k: int) -> List[int]:
    """Sizes of k contiguous chunks of n items, as even as possible
    (the same ``divmod`` split :class:`BroadcastSchedule` uses for its
    per-segment data chunks)."""
    base, extra = divmod(n, k)
    return [base + (1 if i < extra else 0) for i in range(k)]


def _round_robin(
    region_ids: Sequence[int], k: int, centroids: Optional[Centroids]
) -> List[int]:
    """Stripe regions over channels in region-id order."""
    return [i % k for i in range(len(region_ids))]


def _region_locality(
    region_ids: Sequence[int], k: int, centroids: Optional[Centroids]
) -> List[int]:
    """Contiguous strips of spatially close regions.

    With *centroids*, regions are ordered by (x, y) of their
    representative point and cut into k balanced strips — queries for
    nearby locations then resolve on the same channel, so a roaming
    client mostly stays tuned.  Without geometry the given region order
    is assumed spatially coherent and chunked as-is.
    """
    n = len(region_ids)
    order = list(range(n))
    if centroids is not None:
        missing = [rid for rid in region_ids if rid not in centroids]
        if missing:
            raise BroadcastError(
                f"region-locality allocation is missing centroids for "
                f"regions {missing[:5]}"
            )
        order.sort(key=lambda i: (*centroids[region_ids[i]], region_ids[i]))
    assignment = [0] * n
    position = 0
    for channel, size in enumerate(_balanced_chunks(n, k)):
        for i in order[position : position + size]:
            assignment[i] = channel
        position += size
    return assignment


@dataclass(frozen=True)
class AllocationStrategy:
    """One registered data-sharding strategy.

    ``assign(region_ids, k, centroids)`` returns one channel id (in
    ``0..k-1``) per region, aligned with *region_ids*.  Within a channel,
    regions always keep their original relative order — that is what
    makes the K=1 plan's schedule identical to the single-channel one
    for *every* strategy.
    """

    name: str
    description: str
    assign: Callable[[Sequence[int], int, Optional[Centroids]], List[int]] = field(
        repr=False
    )

    def shard(
        self,
        region_ids: Sequence[int],
        k: int,
        centroids: Optional[Centroids] = None,
    ) -> List[List[int]]:
        """Per-channel region lists (original order preserved)."""
        assignment = self.assign(region_ids, k, centroids)
        if len(assignment) != len(region_ids):
            raise BroadcastError(
                f"allocation {self.name!r} returned {len(assignment)} "
                f"assignments for {len(region_ids)} regions"
            )
        shards: List[List[int]] = [[] for _ in range(k)]
        for region_id, channel in zip(region_ids, assignment):
            if not 0 <= channel < k:
                raise BroadcastError(
                    f"allocation {self.name!r} assigned region {region_id} "
                    f"to channel {channel} (have {k})"
                )
            shards[channel].append(region_id)
        return shards


#: strategy name -> registered strategy, in registration order.
ALLOCATION_REGISTRY: Dict[str, AllocationStrategy] = {}


def register_allocation(
    strategy: AllocationStrategy, replace: bool = False
) -> AllocationStrategy:
    """Register an :class:`AllocationStrategy` under its name (the
    :func:`repro.engine.register_index` convention)."""
    if strategy.name in ALLOCATION_REGISTRY and not replace:
        raise BroadcastError(
            f"allocation strategy {strategy.name!r} is already registered "
            "(pass replace=True to overwrite)"
        )
    ALLOCATION_REGISTRY[strategy.name] = strategy
    return strategy


def allocation_strategy(name: str) -> AllocationStrategy:
    """Look up a registered allocation strategy by name."""
    try:
        return ALLOCATION_REGISTRY[name.lower()]
    except KeyError:
        raise BroadcastError(
            f"unknown allocation strategy {name!r} "
            f"(registered: {', '.join(ALLOCATION_REGISTRY)})"
        ) from None


def available_allocations() -> Tuple[str, ...]:
    """Registered strategy names in registration order."""
    return tuple(ALLOCATION_REGISTRY)


register_allocation(
    AllocationStrategy(
        "round-robin",
        "stripe regions over channels in region-id order",
        _round_robin,
    )
)
register_allocation(
    AllocationStrategy(
        "region-locality",
        "contiguous strips of spatially close regions per channel",
        _region_locality,
    )
)


class Channel:
    """One (1, m) timeline of a multi-channel plan.

    ``index_packet_ids`` maps this channel's local index-segment offsets
    to global packet ids of the paged index: offset ``j`` of every index
    segment on this channel airs global packet ``index_packet_ids[j]``.
    Under replicated placement it is simply ``0..P-1``.
    """

    __slots__ = ("channel_id", "schedule", "index_packet_ids")

    def __init__(
        self,
        channel_id: int,
        schedule: BroadcastSchedule,
        index_packet_ids: Sequence[int],
    ) -> None:
        if len(index_packet_ids) != schedule.index_packet_count:
            raise BroadcastError(
                f"channel {channel_id}: schedule airs "
                f"{schedule.index_packet_count} index packets but "
                f"{len(index_packet_ids)} were assigned"
            )
        self.channel_id = channel_id
        self.schedule = schedule
        self.index_packet_ids: Tuple[int, ...] = tuple(index_packet_ids)

    def __repr__(self) -> str:
        return f"Channel({self.channel_id}, {self.schedule!r})"


class BroadcastPlan:
    """K synchronized (1, m) channels carrying one sharded service.

    Construction mirrors :class:`BroadcastSchedule` — same leading
    arguments — plus the multi-channel knobs.  ``m`` (the index
    replication factor) applies per channel; the default picks each
    channel's own optimal m, exactly like the single-channel schedule.

    ``hop_cost`` is the number of packet slots a client spends retuning
    when it switches channels (latency, not tuning time — see
    :class:`~repro.broadcast.client.AccessResult`).
    """

    def __init__(
        self,
        index_packet_count: int,
        region_ids: Sequence[int],
        params: SystemParameters,
        *,
        channels: int = 1,
        allocation: str = "round-robin",
        index_placement: str = "replicated",
        m: Optional[int] = None,
        hop_cost: float = 1.0,
        centroids: Optional[Centroids] = None,
        version: int = 0,
    ) -> None:
        if not region_ids:
            raise BroadcastError("plan needs at least one data bucket")
        if channels < 1:
            raise BroadcastError(f"channel count must be >= 1, got {channels}")
        if channels > len(region_ids):
            raise BroadcastError(
                f"{channels} channels for {len(region_ids)} regions — every "
                "channel needs at least one data bucket"
            )
        if index_placement not in INDEX_PLACEMENTS:
            raise BroadcastError(
                f"unknown index placement {index_placement!r} "
                f"(use one of {', '.join(INDEX_PLACEMENTS)})"
            )
        if hop_cost < 0:
            raise BroadcastError(f"hop cost must be >= 0, got {hop_cost}")
        if index_packet_count < 0:
            raise BroadcastError(
                f"index packet count must be >= 0, got {index_packet_count}"
            )
        strategy = (
            allocation_strategy(allocation)
            if isinstance(allocation, str)
            else allocation
        )
        if version < 0:
            raise BroadcastError(f"version must be >= 0, got {version}")
        self.params = params
        self.index_packet_count = index_packet_count
        self.region_ids = list(region_ids)
        self.allocation = strategy.name
        self.index_placement = index_placement
        self.hop_cost = hop_cost
        #: Index version every channel of this plan airs (see
        #: :class:`~repro.broadcast.schedule.BroadcastSchedule`).
        self.version = version

        shards = strategy.shard(self.region_ids, channels, centroids)
        empty = [c for c, shard in enumerate(shards) if not shard]
        if empty:
            raise BroadcastError(
                f"allocation {strategy.name!r} left channel(s) {empty} "
                "without data buckets"
            )
        if index_placement == "replicated":
            chunks = [range(index_packet_count)] * channels
        else:
            chunks = []
            position = 0
            for size in _balanced_chunks(index_packet_count, channels):
                chunks.append(range(position, position + size))
                position += size
        self.channels: List[Channel] = [
            Channel(
                c,
                BroadcastSchedule(
                    index_packet_count=len(chunk),
                    region_ids=shard,
                    params=params,
                    m=m,
                    version=version,
                ),
                chunk,
            )
            for c, (shard, chunk) in enumerate(zip(shards, chunks))
        ]
        self._region_channel: Dict[int, int] = {
            rid: c for c, shard in enumerate(shards) for rid in shard
        }
        if index_placement == "distributed":
            #: global packet id -> (home channel, local segment offset).
            self._packet_home: Optional[List[Tuple[int, int]]] = [
                (c, offset)
                for c, chunk in enumerate(chunks)
                for offset, _ in enumerate(chunk)
            ]
        else:
            self._packet_home = None

    # -- directory ----------------------------------------------------------

    @property
    def num_channels(self) -> int:
        return len(self.channels)

    @property
    def is_single_channel(self) -> bool:
        return len(self.channels) == 1

    @property
    def primary_schedule(self) -> BroadcastSchedule:
        """Channel 0's schedule — for K=1 *the* single-channel schedule,
        built with exactly the arguments :class:`BroadcastSchedule`
        would have received."""
        return self.channels[0].schedule

    def channel_of_region(self, region_id: int) -> int:
        """Home channel of *region_id*'s data bucket."""
        try:
            return self._region_channel[region_id]
        except KeyError:
            raise BroadcastError(f"region {region_id} not in plan") from None

    def index_home(self, packet_id: int, preferred_channel: int) -> Tuple[int, int]:
        """Where global index packet *packet_id* can be read: ``(channel,
        local segment offset)``.

        Replicated placement answers on *preferred_channel* (every
        channel has a copy, so the client avoids a hop); distributed
        placement answers with the packet's unique home channel.
        """
        if not 0 <= packet_id < self.index_packet_count:
            raise BroadcastError(
                f"index packet {packet_id} out of range "
                f"(plan has {self.index_packet_count})"
            )
        if self._packet_home is None:
            return preferred_channel, packet_id
        return self._packet_home[packet_id]

    # -- aggregate timeline facts -------------------------------------------

    @property
    def bucket_packets(self) -> int:
        """Packets per data bucket (uniform across channels)."""
        return self.params.data_packets_per_instance

    @property
    def cycle_length(self) -> int:
        """Issue-time horizon: the longest per-channel cycle.  For K=1
        this is exactly the single schedule's cycle length."""
        return max(c.schedule.cycle_length for c in self.channels)

    @property
    def m(self) -> int:
        """Channel 0's index replication factor (the headline m that
        :class:`~repro.broadcast.metrics.MetricsSummary` reports)."""
        return self.channels[0].schedule.m

    @property
    def index_overhead_packets(self) -> int:
        """Total index packets aired per cycle across all channels."""
        return sum(c.schedule.index_overhead_packets for c in self.channels)

    def __repr__(self) -> str:
        return (
            f"BroadcastPlan(K={self.num_channels}, "
            f"allocation={self.allocation!r}, "
            f"index={self.index_placement!r}, "
            f"hop_cost={self.hop_cost:g}, "
            f"cycle<= {self.cycle_length}p)"
        )


def single_channel_view(timeline):
    """*timeline* with a K=1 plan replaced by its one schedule — built
    with exactly the single-channel arguments, so the single-channel path
    runs bit for bit.  Schedules and K>1 plans pass through unchanged."""
    if isinstance(timeline, BroadcastPlan) and timeline.is_single_channel:
        return timeline.primary_schedule
    return timeline
