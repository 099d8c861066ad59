"""Candidate data regions still reachable after a partial index search.

The ``upper-bound-fallback`` recovery policy needs, for the last index
packet a client read successfully, an *upper bound* on the set of data
regions the interrupted search could still have answered with.  The
bound must be sound — the true region is always included, because the
lost packet lay on the query's own trace — but it need not be tight:
a looser bound only makes the fallback download more buckets.

Per-family providers (dispatched on the paged-index class, mirroring
:data:`repro.engine.trace.TRACER_REGISTRY`):

* **D-tree** — the union of subtree regions of every node stored in the
  packet.  The client's last good packet holds a node on its search
  path, and the answer lies in that node's subtree.
* **R*-tree** — every region whose actual-shape packets have not fully
  passed yet (last shape packet at or after the given packet).  The DFS
  broadcast order is forward-only, so the answer's shape packets always
  lie at or after any packet on the trace.
* **anything else** — all regions of the schedule: the no-index worst
  case, always sound.

``candidate_provider`` returns a callable so sparse representations
(the R*-tree rule) need not materialise a per-packet map.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional

#: Given the last good index packet (None = nothing read yet), the
#: regions whose bucket may still answer the query.
CandidateFn = Callable[[Optional[int]], FrozenSet[int]]

#: Paged-index class -> provider builder.  Populated lazily with the
#: built-ins; extended via :func:`register_candidate_provider`.
CANDIDATE_REGISTRY: Dict[type, Callable[[object, FrozenSet[int]], CandidateFn]] = {}
_BUILTINS_LOADED = False


def register_candidate_provider(
    paged_cls: type,
    builder: Callable[[object, FrozenSet[int]], CandidateFn],
) -> None:
    """Register a candidate-set provider for a paged-index class."""
    CANDIDATE_REGISTRY[paged_cls] = builder


def _load_builtin_providers() -> None:
    # Imported lazily: the paged-index modules import the broadcast
    # layer, which would cycle while this package loads.
    global _BUILTINS_LOADED
    from repro.core.paging import PagedDTree
    from repro.rstar.paged import PagedRStarTree

    CANDIDATE_REGISTRY.setdefault(PagedDTree, _dtree_provider)
    CANDIDATE_REGISTRY.setdefault(PagedRStarTree, _rstar_provider)
    _BUILTINS_LOADED = True


def candidate_provider(
    paged_index, all_regions: Iterable[int]
) -> CandidateFn:
    """Build the candidate function for *paged_index*, falling back to
    the all-regions bound for families without a registered provider."""
    if not _BUILTINS_LOADED:
        _load_builtin_providers()
    everything = frozenset(all_regions)
    for cls in type(paged_index).__mro__:
        builder = CANDIDATE_REGISTRY.get(cls)
        if builder is not None:
            return builder(paged_index, everything)
    return lambda last_good: everything


# -- D-tree: packet -> union of subtree regions ------------------------------


def _dtree_provider(paged, everything: FrozenSet[int]) -> CandidateFn:
    tree = paged.tree
    # A child's row comes after its parent's: one backward pass gives
    # every subtree's regions.
    under: List[FrozenSet[int]] = [frozenset()] * len(tree.node_id)
    regions = lambda code: under[code] if code >= 0 else frozenset((~code,))
    packet_regions: Dict[int, set] = {}
    for row in reversed(range(len(under))):
        under[row] = regions(tree.left[row]) | regions(tree.right[row])
        for pid in paged.packets_of_row(row):
            packet_regions.setdefault(pid, set()).update(under[row])
    frozen = {pid: frozenset(rs) for pid, rs in packet_regions.items()}

    def candidates(last_good: Optional[int]) -> FrozenSet[int]:
        if last_good is None:
            return everything
        return frozen.get(last_good, everything)

    return candidates


# -- R*-tree: regions whose shape packets have not fully passed --------------


def _rstar_provider(paged, everything: FrozenSet[int]) -> CandidateFn:
    # A leaf entry's shape packets are consecutive: its last one ends them.
    leaf = paged.entry_child < 0
    last_shape = dict(zip(
        (~paged.entry_child[leaf]).tolist(),
        paged.shape_packets[paged.shape_start[1:][leaf] - 1].tolist(),
    ))

    def candidates(last_good: Optional[int]) -> FrozenSet[int]:
        if last_good is None:
            return everything
        live = frozenset(
            region_id
            for region_id, last in last_shape.items()
            if last >= last_good
        )
        return live or everything

    return candidates
