"""The dynamic broadcast service: versioned cycles + skew-recovering clients.

The static substrate broadcasts one frozen index forever.  Here the
server applies region-update batches *between* cycles: the logical index
is maintained (incrementally where the family supports it), re-paged,
and every packet of the new cycle is stamped with a monotonically
increasing **version**.  The schedule and plan carry the same stamp.

A client that started its access protocol under version ``v`` and keeps
reading packets stamped ``v`` is untouched by the update — its answer is
exactly the version-``v`` answer.  The moment it reads a packet with a
different stamp it has *detected skew*: the index it was traversing is
no longer on the air, so pointers it derived are meaningless.  Recovery
is retry-next-cycle — always sound, because the next attempt starts from
a fresh probe against the new cycle.  A client therefore never mixes two
versions inside one answer; the cost of an update shows up as wasted
tuning and extra latency, which the result's ``version``, ``attempts``
and ``wasted_tuning`` report.

:func:`DynamicBroadcastClient` is the access walker
(:class:`~repro.broadcast.client.BroadcastClient`) bound to the server:
with zero updates every version check trivially passes and the walk is
the static client's, packet for packet.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import BroadcastError
from repro.broadcast.client import BroadcastClient
from repro.broadcast.packets import PagedIndex, stamp_version
from repro.broadcast.schedule import BroadcastSchedule
from repro.dynamic.maintain import IndexMaintainer, maintainer_for
from repro.dynamic.updates import UpdateBatch, diff_subdivisions
from repro.engine.protocol import index_family
from repro.tessellation.subdivision import Subdivision


class DynamicBroadcastServer:
    """Owns the evolving index: maintain, re-page, stamp, re-schedule.

    ``history_limit`` bounds how many past epochs are kept in
    :attr:`history` (version -> (subdivision, paged index, schedule));
    ``None`` keeps all of them, which the correctness tests rely on to
    check a client's answer against the exact version it was stamped
    with.
    """

    def __init__(
        self,
        kind: str,
        subdivision: Subdivision,
        *,
        packet_capacity: int = 256,
        seed: int = 0,
        m: Optional[int] = None,
        maintainer: Optional[IndexMaintainer] = None,
        history_limit: Optional[int] = None,
        **maintainer_kwargs,
    ) -> None:
        self.kind = kind
        self.family = index_family(kind)
        self.params = self.family.parameters(packet_capacity)
        if maintainer is None:
            maintainer = maintainer_for(
                kind, params=self.params, seed=seed, **maintainer_kwargs
            )
        elif maintainer_kwargs:
            raise BroadcastError(
                "pass either a maintainer instance or maintainer kwargs, "
                "not both"
            )
        self.maintainer = maintainer
        self.version = 0
        self.subdivision = subdivision
        self.index = maintainer.build(subdivision)
        self._m = m
        self.history: Dict[
            int, Tuple[Subdivision, PagedIndex, BroadcastSchedule]
        ] = {}
        self.history_limit = history_limit
        self._page_and_schedule()

    def _page_and_schedule(self) -> None:
        self.paged = self.index.page(self.params)
        stamp_version(self.paged, self.version)
        self.schedule = BroadcastSchedule(
            len(self.paged.packets),
            self.subdivision.region_ids,
            self.params,
            m=self._m,
            version=self.version,
        )
        self.history[self.version] = (self.subdivision, self.paged, self.schedule)
        if self.history_limit is not None:
            while len(self.history) > self.history_limit:
                del self.history[min(self.history)]

    def apply_updates(
        self,
        new_subdivision: Subdivision,
        batch: Optional[UpdateBatch] = None,
    ) -> UpdateBatch:
        """Apply one update batch and start the next epoch.

        *batch* defaults to the diff between the current and the new
        subdivision.  An empty batch is a no-op: the version does not
        advance and the airing cycle is untouched, so the zero-update
        path stays bit-for-bit static.
        """
        if batch is None:
            batch = diff_subdivisions(self.subdivision, new_subdivision)
        if batch.is_empty:
            return batch
        self.index = self.maintainer.apply(self.index, new_subdivision, batch)
        if new_subdivision is not self.subdivision:
            # History keeps the past version to answer from; its edge
            # table served maintenance only.
            self.subdivision.release_edge_table()
        self.subdivision = new_subdivision
        self.version += 1
        self._page_and_schedule()
        return batch

    def __repr__(self) -> str:
        return (
            f"DynamicBroadcastServer({self.kind}, v={self.version}, "
            f"n={len(self.subdivision)})"
        )


def DynamicBroadcastClient(
    server: DynamicBroadcastServer,
    *,
    max_attempts: int = 16,
    on_packet_read: Optional[Callable[[str, int], None]] = None,
) -> BroadcastClient:
    """The access walker bound to *server*'s live timeline: every probe
    snapshots the airing version, every read is version-checked, and
    skew is recovered by retrying at the next index segment.

    ``on_packet_read(stage, attempt)`` — called immediately *before*
    every packet read (stages ``"probe"``, ``"index"``, ``"data"``) —
    is the interleaving hook: tests apply server updates inside it to
    exercise every possible update/read interleaving.
    """
    return BroadcastClient(
        server.paged,
        server,
        max_attempts=max_attempts,
        on_packet_read=on_packet_read,
    )
