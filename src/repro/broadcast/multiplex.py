"""Multiplexing several location-dependent services on one channel.

The paper scopes queries to a single data type (§2) — one dataset, one
index, one broadcast program.  A deployed system airs several services
(traffic reports, hospitals, restaurants...) on the same channel.  This
module concatenates each service's own (1, m) program into one super
cycle and lets a client query any service by name; each service keeps its
own index structure, so e.g. a D-tree service and an R*-tree service can
share a channel.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import BroadcastError
from repro.geometry.point import Point
from repro.broadcast.client import AccessResult, BroadcastClient
from repro.broadcast.packets import PagedIndex
from repro.broadcast.params import SystemParameters
from repro.broadcast.plan import single_channel_view
from repro.broadcast.schedule import BroadcastSchedule


class Service:
    """One data type's index and broadcast program.

    ``plan=`` accepts a single-channel
    :class:`~repro.broadcast.plan.BroadcastPlan` in place of the
    schedule parameters (the plan's one timeline is multiplexed).  A
    K>1 plan is rejected: the super cycle lays services end to end on
    *one* channel, so a multi-channel program cannot be multiplexed.
    """

    def __init__(
        self,
        name: str,
        paged_index: PagedIndex,
        region_ids,
        params: SystemParameters,
        m: Optional[int] = None,
        plan=None,
    ) -> None:
        self.name = name
        self.paged_index = paged_index
        if plan is not None:
            if not plan.is_single_channel:
                raise BroadcastError(
                    f"service {name!r}: a multiplexed super cycle airs on "
                    f"one channel; a {plan.num_channels}-channel plan "
                    "cannot be multiplexed"
                )
            self.schedule = single_channel_view(plan)
            if len(paged_index.packets) != self.schedule.index_packet_count:
                raise BroadcastError(
                    f"service {name!r}: plan was built for a different "
                    "index size"
                )
        else:
            self.schedule = BroadcastSchedule(
                index_packet_count=len(paged_index.packets),
                region_ids=list(region_ids),
                params=params,
                m=m,
            )

    def __repr__(self) -> str:
        return f"Service({self.name!r}, {self.schedule!r})"


class MultiplexedBroadcast:
    """Several services laid end to end in one super cycle.

    All services must share the packet capacity (the channel has one frame
    size).  Positions are absolute packet indices in the super cycle.
    """

    def __init__(self, services: List[Service]) -> None:
        if not services:
            raise BroadcastError("need at least one service")
        names = [s.name for s in services]
        if len(set(names)) != len(names):
            raise BroadcastError(f"duplicate service names: {names}")
        capacities = {s.schedule.params.packet_capacity for s in services}
        if len(capacities) != 1:
            raise BroadcastError(
                f"services use different packet capacities: {capacities}"
            )
        self.services: Dict[str, Service] = {}
        self.offsets: Dict[str, int] = {}
        position = 0
        for service in services:
            self.services[service.name] = service
            self.offsets[service.name] = position
            position += service.schedule.cycle_length
        self.cycle_length = position
        self._walkers: Dict[str, BroadcastClient] = {
            name: BroadcastClient(
                service.paged_index,
                service.schedule.shifted(self.offsets[name], position),
            )
            for name, service in self.services.items()
        }

    def service(self, name: str) -> Service:
        try:
            return self.services[name]
        except KeyError:
            raise BroadcastError(
                f"unknown service {name!r}; have {sorted(self.services)}"
            ) from None

    def timeline(self, name: str) -> BroadcastSchedule:
        """*name*'s program shifted into its slot of the super cycle
        (positions are super-cycle absolute): the timeline its clients
        walk."""
        self.service(name)  # raise on unknown names
        return self._walkers[name].schedule

    # -- timeline -----------------------------------------------------------------

    def next_index_start(self, name: str, time: float) -> int:
        """Absolute position of the next index segment of *name*."""
        return self.timeline(name).next_index_start(time)

    def next_bucket_arrival(self, name: str, region_id: int, time: float) -> int:
        return self.timeline(name).next_bucket_arrival(region_id, time)

    # -- client -------------------------------------------------------------------

    def query(self, name: str, point: Point, issue_time: float) -> AccessResult:
        """Full access protocol against one service of the super cycle:
        the access walker over that service's timeline."""
        self.service(name)  # raise on unknown names
        return self._walkers[name].walk(point, issue_time)
