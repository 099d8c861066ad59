"""The wireless broadcast substrate.

Models everything below the index structures: fixed-capacity packets
(Table 2), the (1, m) index/data interleaving of Imielinski et al. with the
optimal replication factor, the flat data broadcast, and the access
walker implementing the paper's three-step access protocol (initial
probe, index search, data retrieval) over one or K channels.  The walker
produces the paper's three metrics: access latency, tuning time and
indexing efficiency.
"""

from repro.broadcast.params import SystemParameters, PACKET_CAPACITIES
from repro.broadcast.packets import Packet, PacketStore, QueryTrace, PagedIndex
from repro.broadcast.schedule import BroadcastSchedule, optimal_m
from repro.broadcast.client import AccessBatch, AccessResult, BroadcastClient
from repro.broadcast.caching import PacketCache
from repro.broadcast.plan import (
    ALLOCATION_REGISTRY,
    INDEX_PLACEMENTS,
    AllocationStrategy,
    BroadcastPlan,
    Channel,
    allocation_strategy,
    available_allocations,
    register_allocation,
)
from repro.broadcast.disks import (
    SkewedBroadcastSchedule,
    square_root_frequencies,
    urgency_sequence,
    region_weights_from_workload,
)
from repro.broadcast.metrics import (
    MetricsSummary,
    evaluate_index,
    no_index_tuning_time,
    no_index_latency,
    indexing_efficiency,
)

__all__ = [
    "ALLOCATION_REGISTRY",
    "AllocationStrategy",
    "BroadcastPlan",
    "Channel",
    "INDEX_PLACEMENTS",
    "allocation_strategy",
    "available_allocations",
    "register_allocation",
    "SystemParameters",
    "PACKET_CAPACITIES",
    "Packet",
    "PacketStore",
    "QueryTrace",
    "PagedIndex",
    "BroadcastSchedule",
    "optimal_m",
    "BroadcastClient",
    "AccessResult",
    "AccessBatch",
    "PacketCache",
    "SkewedBroadcastSchedule",
    "square_root_frequencies",
    "urgency_sequence",
    "region_weights_from_workload",
    "MetricsSummary",
    "evaluate_index",
    "no_index_tuning_time",
    "no_index_latency",
    "indexing_efficiency",
]
