"""Client-side index caching (extension; cf. the paper's reference [11]).

A mobile client that queries repeatedly — a driver re-asking "which
district am I in?" every few minutes — re-reads the same top index packets
each time.  Hambrusch et al. (SSTD 2001) study caching parts of a
broadcast spatial index on the client; :class:`PacketCache` is the LRU
packet cache the access walker
(:class:`~repro.broadcast.client.BroadcastClient` with
``cache_packets=``) keeps in front of any paged index:

* a cached packet costs no tuning time and no channel wait;
* the first *uncached* packet on the search path anchors the wait for the
  next index segment; later misses are read forward as usual;
* a fully cached search skips the index segment altogether and sleeps
  straight until the data bucket.

Entries are keyed by index version, so a cache that survives an index
update never answers from the old index.
"""

from __future__ import annotations

from collections import OrderedDict
from repro.errors import BroadcastError
from repro.obs import active_collector


class PacketCache:
    """A fixed-capacity LRU set of packet ids, keyed by index version.

    Entries are keyed ``(version, packet_id)``: a packet cached under one
    index version can never answer for another — the staleness bug this
    fixes served pre-update search-path packets after the broadcast index
    changed.  :meth:`set_version` is the invalidation hook the dynamic
    broadcast layer calls when the on-air version bumps; stale-version
    entries age out through the ordinary LRU eviction.
    """

    def __init__(self, capacity: int, version: int = 0) -> None:
        if capacity < 0:
            raise BroadcastError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        #: Index version lookups and inserts are keyed under.
        self.version = version
        self._entries: "OrderedDict[tuple, None]" = OrderedDict()

    def set_version(self, version: int) -> None:
        """Re-key the cache to *version* — entries cached under other
        versions become unreachable (and are LRU-evicted over time)."""
        self.version = version

    def __contains__(self, packet_id: int) -> bool:
        hit = (self.version, packet_id) in self._entries
        col = active_collector()
        if col is not None:
            col.count("cache.hit" if hit else "cache.miss")
        return hit

    def __len__(self) -> int:
        return len(self._entries)

    def touch(self, packet_id: int) -> None:
        """Record a use (insert or refresh), evicting LRU on overflow."""
        if self.capacity == 0:
            return
        key = (self.version, packet_id)
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[key] = None
