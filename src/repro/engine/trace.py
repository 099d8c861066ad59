"""Batched traced queries over paged indexes.

The per-query path answers one ``trace(point)`` at a time, walking the
index in pure Python.  The batched tracers here answer a whole workload at
once and return only what the broadcast timeline needs per query — the
containing region, the last index packet read and the tuning time, plus,
on request, the packet path the access walker's batched front door reads
slots from — while guaranteeing results identical to the per-query path:

* **D-tree** — shared traversal: all queries descend the tree together,
  splitting at each node with one
  :class:`~repro.geometry.kernels.CompiledPartition` side test (D1/D3
  exclusive zones plus the vectorized ray-parity test for the
  interlocking zone).  The partitions are compiled to flat segment
  arrays once per paged tree and cached, and queries that follow the
  same packet path share one interned *prefix*, so the per-query Python
  bookkeeping of the scalar path disappears entirely.
* **R*-tree** — batched DFS over the tree flattened to arrays in DFS
  preorder (:class:`_CompiledRStarTree`): MBR containment runs as one
  structure-of-arrays matrix test per node
  (:func:`~repro.geometry.kernels.mbrs_contain_batch`) and the exact
  leaf test uses the region's cached
  :class:`~repro.geometry.kernels.CompiledPolygon`, whose boundary
  semantics equal the scalar predicate bit for bit.
* **trap-tree** — flat-frontier descent over the trapezoidal-map DAG
  compiled to packed structure-of-arrays form
  (:class:`_CompiledTrapTree`): x-node comparisons and y-node
  cross-product tests run vectorized over the whole frontier
  (:func:`~repro.geometry.kernels.cross_batch`), with the degenerate
  ``effective_point`` nudge resolved by a vectorized pre-pass.
* **trian-tree** — level-synchronous descent over the Kirkpatrick
  hierarchy compiled to CSR child arrays in broadcast order
  (:class:`_CompiledTrianTree`): each level expands the frontier's
  candidate children raggedly and picks the first containing triangle
  with one :func:`~repro.geometry.kernels.point_in_triangles_batch`
  sweep, charging the scanned packets incrementally per §4.4.
* **anything else** — a per-point fallback over the index's own
  ``trace``, so third-party families registered via
  :func:`repro.engine.register_index` work unchanged; they can opt into
  batching with :func:`register_tracer`.

The per-point fallback :func:`_trace_batch_generic` is the one oracle:
every compiled tracer is property-tested against it, defers to it to
raise the scalar path's exact error, and is the baseline the
``benchmarks/bench_kernels.py`` speedup assertions compare to.

Every tracer applies the same forward-only channel check as
:class:`repro.broadcast.client.BroadcastClient`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import BroadcastError, QueryError
from repro.obs import active_collector
from repro.broadcast.packets import PagedIndex, dedupe_consecutive
from repro.geometry.kernels import (
    CompiledPartition,
    cross_batch,
    mbrs_contain_batch,
    point_coords,
    ragged_ranges,
)
from repro.geometry.predicates import EPS
from repro.geometry.point import Point


class TraceBatch:
    """Per-query trace outcomes of one batched workload."""

    __slots__ = (
        "region_ids", "last_packet", "tuning_time", "path_offsets", "path_packets"
    )

    def __init__(
        self,
        region_ids: np.ndarray,
        last_packet: np.ndarray,
        tuning_time: np.ndarray,
        path_offsets: Optional[np.ndarray] = None,
        path_packets: Optional[np.ndarray] = None,
    ) -> None:
        #: Data region answering each query.
        self.region_ids = region_ids
        #: Offset of the last index packet read (0 for an empty trace),
        #: i.e. ``accessed[-1] if accessed else 0`` of the scalar path.
        self.last_packet = last_packet
        #: Index-search tuning time in packet accesses (Figure 12 unit).
        self.tuning_time = tuning_time
        #: With ``batched_trace(..., paths=True)``: query *i*'s distinct
        #: index packets in read order are ``path_packets[path_offsets[i]
        #: : path_offsets[i + 1]]`` (the scalar client's
        #: ``list(dict.fromkeys(trace.packets_accessed))``); else None.
        self.path_offsets = path_offsets
        self.path_packets = path_packets

    def __len__(self) -> int:
        return len(self.region_ids)

    def __repr__(self) -> str:
        return f"TraceBatch(n={len(self)})"


Tracer = Callable[[PagedIndex, Sequence[Point]], TraceBatch]

#: Paged-index class -> batched tracer.  Populated lazily with the
#: built-ins; extended via :func:`register_tracer`.
TRACER_REGISTRY: Dict[type, Tracer] = {}
#: Paged-index class -> (family, compile step) of the built-in families;
#: ``_compile_<family>`` caches its result under ``_compiled_<family>``.
_COMPILERS: Dict[type, tuple] = {}
_BUILTINS_LOADED = False


def register_tracer(paged_cls: type, tracer: Tracer) -> None:
    """Register a batched tracer for a paged-index class."""
    TRACER_REGISTRY[paged_cls] = tracer


# -- compiled-cache generations ----------------------------------------------
#
# Every ``_compile_*`` memoizes its compiled SoA form on the paged index.
# The compiled form is a *snapshot*: if the underlying structure mutates
# (the dynamic-update subsystem rebuilds subtrees in place), a cached
# snapshot would keep answering with pre-mutation geometry.  Caches are
# therefore keyed by a structure generation: whoever mutates a paged
# index (or the logical tree under it) calls
# :func:`bump_structure_generation`, and the next trace recompiles.


def structure_generation(paged) -> int:
    """Current structure generation of *paged* (0 until first mutation)."""
    return getattr(paged, "_structure_generation", 0)


def bump_structure_generation(paged) -> int:
    """Invalidate every compiled cache memoized on *paged*.

    Returns the new generation.  Cheap: caches are dropped lazily, at
    the next compile-cache lookup.
    """
    generation = structure_generation(paged) + 1
    paged._structure_generation = generation
    return generation


def _cached_compiled(paged, attr: str, missing):
    """The memoized compiled form under *attr*, or *missing* when absent
    or compiled at a stale structure generation."""
    cached = getattr(paged, attr, missing)
    if cached is missing:
        return missing
    if getattr(paged, attr + "_gen", 0) != structure_generation(paged):
        return missing
    return cached


def _store_compiled(paged, attr: str, value):
    """Memoize *value* under *attr*, stamped with the current generation."""
    setattr(paged, attr, value)
    setattr(paged, attr + "_gen", structure_generation(paged))
    return value


def _load_builtin_tracers() -> None:
    # Imported lazily: the paged-index modules import the broadcast layer,
    # which would cycle if pulled in while this package loads.
    global _BUILTINS_LOADED
    from repro.core.paging import PagedDTree
    from repro.pointloc.kirkpatrick import PagedTrianTree
    from repro.pointloc.trapezoidal import PagedTrapTree
    from repro.rstar.paged import PagedRStarTree

    TRACER_REGISTRY.setdefault(PagedDTree, _trace_batch_dtree)
    TRACER_REGISTRY.setdefault(PagedRStarTree, _trace_batch_rstar)
    TRACER_REGISTRY.setdefault(PagedTrapTree, _trace_batch_trap)
    TRACER_REGISTRY.setdefault(PagedTrianTree, _trace_batch_trian)
    _COMPILERS.update({
        PagedDTree: ("dtree", _compile_dtree),
        PagedRStarTree: ("rstar", _compile_rstar),
        PagedTrapTree: ("trap", _compile_trap),
        PagedTrianTree: ("trian", _compile_trian),
    })
    _BUILTINS_LOADED = True


def compiled_form(paged):
    """``(family, compiled)``: *paged*'s compiled form, cached on it under
    ``"_compiled_" + family``, or None when its class has no compiled
    form or the compile step declines.  Every slot of *compiled* holds
    an ndarray, except scalar ones such as the D-tree's ``root``."""
    if not _BUILTINS_LOADED:
        _load_builtin_tracers()
    for cls in type(paged).__mro__:
        if cls in _COMPILERS:
            family, compile_step = _COMPILERS[cls]
            compiled = compile_step(paged)
            return None if compiled is None else (family, compiled)
    return None


def batched_trace(
    paged_index: PagedIndex, points: Sequence[Point], paths: bool = False
) -> TraceBatch:
    """Trace a whole workload, dispatching on the paged index's class.

    ``paths=True`` also returns each query's packet path as a CSR
    (:attr:`TraceBatch.path_offsets` / :attr:`TraceBatch.path_packets`).
    The D-tree and R*-tree tracers emit it themselves; every other
    family, registered tracers included, takes it from the per-point
    oracle :func:`_trace_batch_generic`.
    """
    if not _BUILTINS_LOADED:
        _load_builtin_tracers()
    for cls in type(paged_index).__mro__:
        tracer = TRACER_REGISTRY.get(cls)
        if tracer is not None:
            break
    else:
        tracer = _trace_batch_generic
    if not paths:
        batch = tracer(paged_index, points)
    elif tracer in _PATH_TRACERS:
        batch = tracer(paged_index, points, paths=True)
    else:
        batch = _trace_batch_generic(paged_index, points, paths=True)
    col = active_collector()
    if col is not None:
        # Per-family packet counters, keyed by the paged-index class.
        family = type(paged_index).__name__
        col.count(f"trace.{family}.queries", len(batch))
        col.count(
            f"trace.{family}.index_packets", int(batch.tuning_time.sum())
        )
    return batch


def _check_forward(accessed: List[int]) -> None:
    """Forward-only channel invariant (same check as the scalar client)."""
    if any(b < a for a, b in zip(accessed, accessed[1:])):
        raise BroadcastError(
            "index traversal moved backwards on the broadcast channel: "
            f"{accessed} — the index broadcast order is invalid"
        )


# -- generic fallback -------------------------------------------------------


def _path_csr(paths: List[List[int]]):
    """``(offsets, packets)`` CSR of per-query packet lists."""
    offsets = np.zeros(len(paths) + 1, np.int64)
    np.cumsum([len(path) for path in paths], out=offsets[1:])
    packets = np.fromiter(
        (pid for path in paths for pid in path), np.int64, count=int(offsets[-1])
    )
    return offsets, packets


def _trace_batch_generic(
    paged_index: PagedIndex, points: Sequence[Point], paths: bool = False
) -> TraceBatch:
    """Per-point fallback over the index's own ``trace``."""
    n = len(points)
    regions = np.empty(n, np.int64)
    last = np.empty(n, np.int64)
    tuning = np.empty(n, np.int64)
    path_lists = []
    for i, p in enumerate(points):
        trace = paged_index.trace(p)
        accessed = trace.packets_accessed
        _check_forward(accessed)
        regions[i] = trace.region_id
        last[i] = accessed[-1] if accessed else 0
        tuning[i] = trace.tuning_time
        if paths:
            path_lists.append(list(dict.fromkeys(accessed)))
    if paths:
        return TraceBatch(regions, last, tuning, *_path_csr(path_lists))
    return TraceBatch(regions, last, tuning)


# -- D-tree: shared prefix traversal over compiled partitions ----------------


class _CompiledDTree:
    """The whole paged D-tree flattened to structure-of-arrays form.

    Every per-node attribute the descent needs — partition bounds,
    partition bucket (dimension x described side), slice of the shared
    segment pool, packet-span charging constants, child codes — lives in
    one array indexed by the node's position in ``node_id`` order, so the
    traversal advances a whole frontier with gathers instead of touching
    Python node objects.  Child codes are the child's position for
    internal children and ``~region_id`` (always negative) for data
    pointers.
    """

    __slots__ = (
        "root",
        "dim_y",
        "described",
        "bucket",
        "first_bound",
        "second_bound",
        "seg_start",
        "seg_count",
        "left_code",
        "right_code",
        "pkt_first",
        "pkt_last",
        "pkt_distinct",
        "multi",
        "span_bad",
        "span_start",
        "span_packets",
        "seg_ax",
        "seg_ay",
        "seg_bx",
        "seg_by",
    )


def _compile_dtree(paged) -> _CompiledDTree:
    """Compile the paged D-tree, built once per paged tree and cached.

    Packet charging is reduced to three constants per node (first
    packet, last packet, distinct-packet count): with the forward-only
    channel invariant, equal packets in a trace are always consecutive,
    so ``len(set(path))`` accumulates as distinct-per-span minus a
    duplicate adjustment where one span's first packet equals the
    previous span's last.  ``span_bad`` marks nodes whose own packet
    span moves backwards; the tracer defers to the per-point path
    (:func:`_trace_batch_generic`) to raise the scalar path's exact
    error.  ``span_packets[span_start[i] : span_start[i + 1]]`` lists
    node *i*'s distinct packets in order, for the packet-path CSR.
    """
    compiled = _cached_compiled(paged, "_compiled_dtree", None)
    if compiled is not None:
        return compiled
    from repro.core.dtree import DTreeNode

    nodes = sorted(paged.tree.iter_nodes(), key=lambda nd: nd.node_id)
    count = len(nodes)
    # Node ids need not be dense (a maintainer splice retires a subtree's
    # ids): the arrays are indexed by each node's position in id order.
    position = {nd.node_id: i for i, nd in enumerate(nodes)}

    ct = _CompiledDTree()
    ct.root = position[paged.tree.root.node_id]
    ct.dim_y = np.empty(count, bool)
    ct.described = np.empty(count, bool)
    ct.bucket = np.empty(count, np.int8)
    ct.first_bound = np.empty(count, np.float64)
    ct.second_bound = np.empty(count, np.float64)
    ct.seg_start = np.empty(count, np.int64)
    ct.seg_count = np.empty(count, np.int64)
    ct.left_code = np.empty(count, np.int64)
    ct.right_code = np.empty(count, np.int64)
    ct.pkt_first = np.empty(count, np.int64)
    ct.pkt_last = np.empty(count, np.int64)
    ct.pkt_distinct = np.empty(count, np.int64)
    ct.multi = np.empty(count, bool)
    ct.span_bad = np.empty(count, bool)
    ct.span_start = np.zeros(count + 1, np.int64)
    span_packets: List[int] = []

    segs: List[List[np.ndarray]] = [[], [], [], []]
    offset = 0
    for i, node in enumerate(nodes):
        partition = CompiledPartition(node.partition)
        ct.dim_y[i] = partition.dim_y
        ct.described[i] = partition.described_first
        ct.bucket[i] = (0 if partition.dim_y else 2) + (
            0 if partition.described_first else 1
        )
        ct.first_bound[i] = partition.first_bound
        ct.second_bound[i] = partition.second_bound
        ct.seg_start[i] = offset
        ct.seg_count[i] = len(partition.ax)
        offset += len(partition.ax)
        for pool, arr in zip(segs, (partition.ax, partition.ay, partition.bx, partition.by)):
            pool.append(arr)
        packets = list(paged._node_packets[node.node_id])
        ct.pkt_first[i] = packets[0]
        ct.pkt_last[i] = packets[-1]
        ct.pkt_distinct[i] = len(set(packets))
        ct.multi[i] = len(packets) > 1
        ct.span_bad[i] = any(b < a for a, b in zip(packets, packets[1:]))
        span_packets.extend(dict.fromkeys(packets))
        ct.span_start[i + 1] = len(span_packets)
        for code_arr, child in ((ct.left_code, node.left), (ct.right_code, node.right)):
            code_arr[i] = (
                position[child.node_id]
                if isinstance(child, DTreeNode)
                else ~int(child)
            )

    ct.span_packets = np.asarray(span_packets, np.int64)
    empty = np.zeros(0, np.float64)
    ct.seg_ax, ct.seg_ay, ct.seg_bx, ct.seg_by = (
        np.concatenate(pool) if pool else empty for pool in segs
    )
    _store_compiled(paged, "_compiled_dtree", ct)
    return ct


def _pair_parity(
    ct: _CompiledDTree,
    bucket: int,
    nd: np.ndarray,
    ex: np.ndarray,
    ey: np.ndarray,
) -> np.ndarray:
    """Ray-parity side decisions for (node, point) pairs of one bucket.

    Each pair expands to its node's slice of the shared segment pool,
    the scalar ``Partition.side_of`` crossing expressions run once over
    the flat pair-segment arrays (identical IEEE-754 operation order),
    and ``reduceat`` folds the hits back per pair.  Returns the boolean
    "first side" answer per pair.
    """
    pair_start = ct.seg_start[nd]
    pair_count = ct.seg_count[nd]
    offsets = np.cumsum(pair_count)
    total = int(offsets[-1])
    edge = np.repeat(pair_start - offsets + pair_count, pair_count) + np.arange(
        total, dtype=np.int64
    )
    rep = np.repeat(np.arange(len(ex), dtype=np.int64), pair_count)
    dim_y = bucket < 2
    described = bucket % 2 == 0
    # Only the few edges whose ray-coordinate range straddles the query
    # contribute a crossing; compress to those before the expensive
    # crossing-abscissa arithmetic (the straddle makes the divisor
    # provably nonzero, so no division guard is needed).
    if dim_y:
        say = ct.seg_ay[edge]
        sby = ct.seg_by[edge]
        er = ey[rep]
        straddle = np.flatnonzero((say > er) != (sby > er))
        say = say[straddle]
        sby = sby[straddle]
        hit_rep = rep[straddle]
        hit_edge = edge[straddle]
        sax = ct.seg_ax[hit_edge]
        sbx = ct.seg_bx[hit_edge]
        eyc = ey[hit_rep]
        t_at = sax + (eyc - say) / (sby - say) * (sbx - sax)
        exc = ex[hit_rep]
        hit = (t_at > exc) if described else (t_at < exc)
    else:
        sax = ct.seg_ax[edge]
        sbx = ct.seg_bx[edge]
        er = ex[rep]
        straddle = np.flatnonzero((sax > er) != (sbx > er))
        sax = sax[straddle]
        sbx = sbx[straddle]
        hit_rep = rep[straddle]
        hit_edge = edge[straddle]
        say = ct.seg_ay[hit_edge]
        sby = ct.seg_by[hit_edge]
        exc = ex[hit_rep]
        t_at = say + (exc - sax) / (sbx - sax) * (sby - say)
        eyc = ey[hit_rep]
        hit = (t_at < eyc) if described else (t_at > eyc)
    crossings = np.bincount(hit_rep[hit], minlength=len(ex))
    odd = (crossings % 2).astype(bool)
    return odd if described else ~odd


def _trace_batch_dtree(
    paged, points: Sequence[Point], paths: bool = False
) -> TraceBatch:
    """Level-synchronous traversal of the paged D-tree.

    The whole frontier advances one tree level per iteration over flat
    per-point state arrays (current node, last packet read, tuning so
    far): the cheap D1/D3 exclusive-zone comparisons decide most points
    with a handful of gathers, and the leftover interlocking-zone (D2)
    points of the entire level are resolved by at most four
    :func:`_pair_parity` ragged kernel calls — one per partition bucket
    — instead of one broadcast per node.  Packet charging follows §4.4:
    the first packet only, unless the node spans several packets and
    the query needs the whole partition (D2, or early termination off);
    tuning accumulates incrementally via the distinct-per-span
    constants of :func:`_compile_dtree`, so unless ``paths=True`` asks
    for them no per-query packet path is materialised.  With it, every
    level emits the packets it charges (the node's distinct span, minus
    a first packet repeating the previous level's last) tagged with the
    query, and one stable sort by query assembles the path CSR.
    """
    tree = paged.tree
    n = len(points)
    if tree.root is None:
        only = tree.subdivision.regions[0].region_id
        zero = np.zeros(n, np.int64)
        batch = TraceBatch(np.full(n, only, np.int64), zero, zero.copy())
        if paths:
            batch.path_offsets = np.zeros(n + 1, np.int64)
            batch.path_packets = np.zeros(0, np.int64)
        return batch

    xs, ys = point_coords(points)
    ct = _compile_dtree(paged)
    early = paged.early_termination
    col = active_collector()
    regions = np.empty(n, np.int64)
    last_out = np.empty(n, np.int64)
    tuning_out = np.empty(n, np.int64)

    apt = np.arange(n)  # active point index
    anode = np.full(n, ct.root, np.int64)  # current node per active point
    alast = np.full(n, -1, np.int64)  # last packet read (-1 = none yet)
    atun = np.zeros(n, np.int64)  # distinct packets read so far
    emitted_by: List[np.ndarray] = []  # packet-path emission: query ...
    emitted: List[np.ndarray] = []  # ... and packet, level by level

    while apt.size:
        nd = anode
        if col is not None:
            col.count("trace.dtree.levels")
            col.observe("trace.dtree.frontier_width", apt.size)
        x = xs[apt]
        y = ys[apt]

        # Early D1/D3 exclusive-zone tests, both dimensions at once.
        dim_y = ct.dim_y[nd]
        first = np.where(dim_y, x <= ct.first_bound[nd], y >= ct.first_bound[nd])
        interlocked = ~first & np.where(
            dim_y, x < ct.second_bound[nd], y > ct.second_bound[nd]
        )

        if interlocked.any():
            seg_count = ct.seg_count[nd]
            zero_seg = interlocked & (seg_count == 0)
            if zero_seg.any():
                # Degenerate partition without boundary segments: the
                # scalar parity test sees zero crossings (odd = False).
                first[zero_seg] = ~ct.described[nd[zero_seg]]
            d2 = np.flatnonzero(interlocked & (seg_count > 0))
            if d2.size:
                buckets = ct.bucket[nd[d2]]
                for bucket in range(4):
                    sel = d2[buckets == bucket]
                    if sel.size:
                        if col is not None:
                            col.observe(
                                "kernels.pair_parity.size", sel.size
                            )
                        first[sel] = _pair_parity(
                            ct, bucket, nd[sel], x[sel], y[sel]
                        )

        # Packet charging (§4.4).
        pf = ct.pkt_first[nd]
        use_long = ct.multi[nd] & interlocked if early else ct.multi[nd]
        if (alast > pf).any() or ct.span_bad[nd].any():
            # Backwards broadcast order: the per-point path rebuilds
            # the offending path and raises the scalar client's error.
            _trace_batch_generic(paged, points)
            raise BroadcastError(
                "index traversal moved backwards on the broadcast channel"
            )
        repeat = alast == pf
        charged = np.where(use_long, ct.pkt_distinct[nd], 1) - repeat
        atun += charged
        alast = np.where(use_long, ct.pkt_last[nd], pf)
        if paths:
            # The charged packets: the node's distinct span (just its
            # first packet when the span is not read), minus a repeat.
            flat, _, _ = ragged_ranges(ct.span_start[nd] + repeat, charged)
            emitted_by.append(np.repeat(apt, charged))
            emitted.append(ct.span_packets[flat])

        # Descend: negative child codes are data pointers (~region_id).
        code = np.where(first, ct.left_code[nd], ct.right_code[nd])
        at_leaf = code < 0
        if at_leaf.any():
            done = apt[at_leaf]
            regions[done] = ~code[at_leaf]
            last_out[done] = alast[at_leaf]
            tuning_out[done] = atun[at_leaf]
            keep = ~at_leaf
            apt = apt[keep]
            anode = code[keep]
            alast = alast[keep]
            atun = atun[keep]
        else:
            anode = code

    batch = TraceBatch(regions, last_out, tuning_out)
    if paths:
        by = np.concatenate(emitted_by or [np.zeros(0, np.int64)])
        order = np.argsort(by, kind="stable")
        batch.path_packets = np.concatenate(emitted or [by])[order]
        batch.path_offsets = np.zeros(n + 1, np.int64)
        np.cumsum(np.bincount(by, minlength=n), out=batch.path_offsets[1:])
    return batch


# -- R*-tree: batched DFS over the flat compiled layout ----------------------


class _CompiledRStarTree:
    """The paged R*-tree flattened to arrays for the batched DFS.

    Nodes are indexed in DFS preorder, root at 0.  ``packet`` is each
    node's broadcast packet and node *i*'s entries are
    ``entry_start[i] : entry_start[i + 1]`` of the per-entry arrays: the
    entry MBR (``min_x`` .. ``max_y``) and ``child``, the child node's
    index for an internal entry or ``~region_id`` (always negative) for a
    leaf entry.  A leaf entry's shape packets are
    ``shape_packets[shape_start[e] : shape_start[e + 1]]`` (an empty
    slice for internal entries).
    """

    __slots__ = (
        "packet",
        "entry_start",
        "min_x",
        "min_y",
        "max_x",
        "max_y",
        "child",
        "shape_start",
        "shape_packets",
    )


def _compile_rstar(paged) -> _CompiledRStarTree:
    """Compile the paged R*-tree, built once and cached on the paged tree."""
    compiled = _cached_compiled(paged, "_compiled_rstar", None)
    if compiled is not None:
        return compiled
    nodes = paged._nodes_preorder()
    position = {id(node): i for i, node in enumerate(nodes)}
    mbrs = []
    child: List[int] = []
    shapes: List[Sequence[int]] = []
    for node in nodes:
        for entry in node.entries:
            mbrs.append(entry.mbr)
            if node.is_leaf:
                child.append(~entry.region_id)
                shapes.append(paged._shape_packets[entry.region_id])
            else:
                child.append(position[id(entry.child)])
                shapes.append(())

    ct = _CompiledRStarTree()
    ct.packet = np.fromiter(
        (paged._node_packet[id(node)] for node in nodes), np.int64, len(nodes)
    )
    ct.entry_start = np.zeros(len(nodes) + 1, np.int64)
    np.cumsum([len(node.entries) for node in nodes], out=ct.entry_start[1:])
    for field in ("min_x", "min_y", "max_x", "max_y"):
        setattr(
            ct,
            field,
            np.fromiter((getattr(m, field) for m in mbrs), np.float64, len(mbrs)),
        )
    ct.child = np.asarray(child, np.int64)
    ct.shape_start, ct.shape_packets = _path_csr(shapes)
    return _store_compiled(paged, "_compiled_rstar", ct)


def _trace_batch_rstar(
    paged, points: Sequence[Point], paths: bool = False
) -> TraceBatch:
    """Batched DFS over the compiled paged R*-tree.

    Point-in-MBR tests run as one structure-of-arrays matrix per node
    over the node's slice of the entry arrays; the exact polygon
    containment at the leaves (boundary semantics included) uses the
    region polygon's cached compiled kernel on the few surviving
    candidates.  The DFS already records every query's packet reads,
    so ``paths=True`` only packs them into the CSR.
    """
    n = len(points)
    xs, ys = point_coords(points)
    ct = _compile_rstar(paged)
    subdivision = paged.tree.subdivision
    node_packet = ct.packet.tolist()
    entry_start = ct.entry_start.tolist()
    child = ct.child.tolist()
    shape_start = ct.shape_start.tolist()
    shape_packets = ct.shape_packets.tolist()
    col = active_collector()
    regions = np.full(n, -1, np.int64)
    accesses: List[List[int]] = [[] for _ in range(n)]

    def search(node: int, idxs: np.ndarray) -> None:
        if col is not None:
            col.count("trace.rstar.nodes_visited")
            col.observe("trace.rstar.node_batch", idxs.size)
        packet = node_packet[node]
        for i in idxs.tolist():
            accesses[i].append(packet)
        lo, hi = entry_start[node], entry_start[node + 1]
        inside = mbrs_contain_batch(
            ct.min_x[lo:hi], ct.min_y[lo:hi], ct.max_x[lo:hi], ct.max_y[lo:hi],
            xs[idxs], ys[idxs],
        )
        unresolved = np.ones(idxs.size, bool)
        for entry in range(lo, hi):
            if not unresolved.any():
                break
            local = np.flatnonzero(inside[entry - lo] & unresolved)
            if local.size == 0:
                continue
            candidates = idxs[local]
            code = child[entry]
            if code < 0:
                shape = shape_packets[shape_start[entry] : shape_start[entry + 1]]
                for qi in candidates.tolist():
                    accesses[qi].extend(shape)
                polygon = subdivision.region(~code).polygon.compiled()
                hits = polygon.contains_batch(xs[candidates], ys[candidates])
                regions[candidates[hits]] = ~code
                unresolved[local[hits]] = False
            else:
                search(code, candidates)
                unresolved[local] = regions[candidates] < 0

    search(0, np.arange(n))
    if (regions < 0).any():
        missing = int(np.argmax(regions < 0))
        raise QueryError(
            f"{points[missing]!r} not found in the paged R*-tree"
        )

    last = np.empty(n, np.int64)
    tuning = np.empty(n, np.int64)
    for i, raw in enumerate(accesses):
        accessed = dedupe_consecutive(raw)
        _check_forward(accessed)
        last[i] = accessed[-1] if accessed else 0
        tuning[i] = len(set(accessed))
        accesses[i] = accessed
    if paths:
        # Forward-only and free of consecutive repeats: already distinct.
        return TraceBatch(regions, last, tuning, *_path_csr(accesses))
    return TraceBatch(regions, last, tuning)


#: Tracers that emit the packet-path CSR themselves (``paths=True``).
_PATH_TRACERS = (_trace_batch_generic, _trace_batch_dtree, _trace_batch_rstar)


# -- trap-tree: flat-frontier descent over the packed DAG --------------------

_UNCOMPILED = object()

_TRAP_XNODE = np.int8(0)
_TRAP_YNODE = np.int8(1)
_TRAP_LEAF = np.int8(2)


class _CompiledTrapTree:
    """The trapezoidal-map search DAG flattened to structure-of-arrays.

    Nodes are indexed in the paged tree's topological (broadcast) order,
    root at index 0.  ``kind`` discriminates x-node / y-node / leaf;
    x-nodes store their vertex in ``ax/ay``, y-nodes their segment in
    ``ax/ay -> bx/by``.  ``on_true``/``on_false`` are the child indices
    for a true/false branch decision (right/left at an x-node,
    above/below at a y-node); ``packet`` is each node's broadcast packet
    and ``region`` the leaf's data region (``-1`` for the uncovered
    slivers outside the subdivision).
    """

    __slots__ = (
        "kind",
        "ax",
        "ay",
        "bx",
        "by",
        "on_true",
        "on_false",
        "packet",
        "region",
    )


def _compile_trap(paged):
    """Compile the paged trap-tree, built once and cached on it.

    Validates at compile time what the incremental §4.4 charging relies
    on: a dense DAG (no dangling children) whose child packets never
    precede a parent's packet — guaranteed by the allocator, which
    places every node at or after its latest parent packet.  Returns
    None (cached) when the invariants do not hold, sending the tracer
    to the per-point path (:func:`_trace_batch_generic`).
    """
    compiled = _cached_compiled(paged, "_compiled_trap", _UNCOMPILED)
    if compiled is not _UNCOMPILED:
        return compiled
    from repro.pointloc.trapezoidal import _Leaf, _XNode

    nodes = paged.tree.nodes_topological()
    count = len(nodes)
    pos = {id(node): i for i, node in enumerate(nodes)}
    kind = np.empty(count, np.int8)
    ax = np.zeros(count, np.float64)
    ay = np.zeros(count, np.float64)
    bx = np.zeros(count, np.float64)
    by = np.zeros(count, np.float64)
    on_true = np.zeros(count, np.int32)
    on_false = np.zeros(count, np.int32)
    packet = np.empty(count, np.int32)
    region = np.full(count, -1, np.int32)

    ok = count > 0 and pos.get(id(paged.tree.root)) == 0
    for i, node in enumerate(nodes):
        if not ok:
            break
        packet[i] = paged._node_packet[id(node)]
        if isinstance(node, _Leaf):
            kind[i] = _TRAP_LEAF
            if node.trap.region is not None:
                region[i] = node.trap.region
        elif isinstance(node, _XNode):
            kind[i] = _TRAP_XNODE
            ax[i] = node.point.x
            ay[i] = node.point.y
            if node.left is None or node.right is None:
                ok = False
                break
            on_true[i] = pos[id(node.right)]
            on_false[i] = pos[id(node.left)]
        else:  # _YNode
            kind[i] = _TRAP_YNODE
            seg = node.seg
            ax[i] = seg.p.x
            ay[i] = seg.p.y
            bx[i] = seg.q.x
            by[i] = seg.q.y
            if node.above is None or node.below is None:
                ok = False
                break
            on_true[i] = pos[id(node.above)]
            on_false[i] = pos[id(node.below)]

    if ok:
        internal = kind != _TRAP_LEAF
        for child in (on_true[internal], on_false[internal]):
            if not (packet[child] >= packet[internal]).all():
                ok = False
                break

    compiled = None
    if ok:
        ct = _CompiledTrapTree()
        ct.kind = kind
        ct.ax = ax
        ct.ay = ay
        ct.bx = bx
        ct.by = by
        ct.on_true = on_true
        ct.on_false = on_false
        ct.packet = packet
        ct.region = region
        compiled = ct
    _store_compiled(paged, "_compiled_trap", compiled)
    return compiled


def _trap_tree_regions(
    ct: _CompiledTrapTree, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """Leaf region per (already sheared) point under the *tree* descent
    rules — ``TrapTree._descend(pt, None)``: x ties go right on the x
    comparison alone, zero cross goes above.  Backs the vectorized
    ``effective_point`` degeneracy check; ``-1`` marks points landing
    in an uncovered sliver."""
    n = len(xs)
    out = np.full(n, -1, np.int64)
    apt = np.arange(n)
    anode = np.zeros(n, np.int64)
    while apt.size:
        nd = anode
        leaf = ct.kind[nd] == _TRAP_LEAF
        if leaf.any():
            out[apt[leaf]] = ct.region[nd[leaf]]
            keep = ~leaf
            apt = apt[keep]
            nd = nd[keep]
            if apt.size == 0:
                break
        x = xs[apt]
        y = ys[apt]
        nax = ct.ax[nd]
        cond = x >= nax
        is_y = ct.kind[nd] == _TRAP_YNODE
        if is_y.any():
            cross = cross_batch(nax, ct.ay[nd], ct.bx[nd], ct.by[nd], x, y)
            cond = np.where(is_y, cross >= 0.0, cond)
        anode = np.where(cond, ct.on_true[nd], ct.on_false[nd]).astype(np.int64)
    return out


def _trace_batch_trap(paged, points: Sequence[Point]) -> TraceBatch:
    """Flat-frontier descent of the paged trap-tree.

    Two vectorized passes over the compiled DAG: first the tree-rule
    descent of the sheared points replicates ``effective_point`` (the
    rare degenerate hits fall back to the scalar nudge loop per point),
    then the paged-trace descent — lexicographic x ties, zero cross
    above — walks all queries level-synchronously, charging each
    visited node's packet incrementally.  The allocator guarantees
    nondecreasing packets along every root-to-leaf path (checked at
    compile time), so distinct-packet tuning time is simply the count
    of packet changes.  Any query ending in an uncovered sliver defers
    to the per-point path, which raises the scalar error for the
    earliest failing point.
    """
    ct = _compile_trap(paged)
    if ct is None:
        return _trace_batch_generic(paged, points)
    from repro.pointloc.trapezoidal import SHEAR

    n = len(points)
    xs, ys = point_coords(points)
    col = active_collector()

    # effective_point, vectorized: shear every point (identical
    # arithmetic to the scalar `_shear`), then nudge the degenerate
    # landings via the scalar fallback — a measure-zero event.
    ex = xs + SHEAR * ys
    ey = ys.copy()
    degenerate = _trap_tree_regions(ct, ex, ey) < 0
    if degenerate.any():
        if col is not None:
            col.count("trace.trap.nudged", int(degenerate.sum()))
        tree = paged.tree
        for i in np.flatnonzero(degenerate).tolist():
            nudged = tree.effective_point(points[i])
            ex[i] = nudged.x
            ey[i] = nudged.y

    regions = np.empty(n, np.int64)
    last_out = np.empty(n, np.int64)
    tuning_out = np.empty(n, np.int64)

    apt = np.arange(n)  # active point index
    anode = np.zeros(n, np.int64)  # current node (root = 0)
    alast = np.full(n, -1, np.int64)  # last packet read (-1 = none yet)
    atun = np.zeros(n, np.int64)  # distinct packets read so far

    while apt.size:
        nd = anode
        if col is not None:
            col.count("trace.trap.levels")
            col.observe("trace.trap.frontier_width", apt.size)
        # Charge the node being read: packets never decrease along a
        # descent, so every packet change is a new distinct packet.
        pkt = ct.packet[nd]
        atun += pkt != alast
        alast = pkt.astype(np.int64)
        leaf = ct.kind[nd] == _TRAP_LEAF
        if leaf.any():
            done = apt[leaf]
            regions[done] = ct.region[nd[leaf]]
            last_out[done] = alast[leaf]
            tuning_out[done] = atun[leaf]
            keep = ~leaf
            apt = apt[keep]
            nd = nd[keep]
            alast = alast[keep]
            atun = atun[keep]
            if apt.size == 0:
                break
        x = ex[apt]
        y = ey[apt]
        nax = ct.ax[nd]
        # Paged-trace x rule: lexicographic (x, y) >= (node.x, node.y).
        cond = (x > nax) | ((x == nax) & (y >= ct.ay[nd]))
        is_y = ct.kind[nd] == _TRAP_YNODE
        if is_y.any():
            cross = cross_batch(nax, ct.ay[nd], ct.bx[nd], ct.by[nd], x, y)
            cond = np.where(is_y, cross >= 0.0, cond)
        anode = np.where(cond, ct.on_true[nd], ct.on_false[nd]).astype(np.int64)

    if (regions < 0).any():
        # Uncovered sliver: the per-point path raises the scalar
        # QueryError for the earliest failing point.
        _trace_batch_generic(paged, points)
        raise QueryError("trap-tree descent failed")  # pragma: no cover
    return TraceBatch(regions, last_out, tuning_out)


# -- trian-tree: level-synchronous descent over CSR child arrays -------------


class _CompiledTrianTree:
    """The Kirkpatrick hierarchy flattened to CSR child arrays.

    Nodes are indexed in the paged tree's level (broadcast) order; a
    synthetic entry at index ``len(region)`` represents the root
    directory, whose children are the coarsest triangles.  Each node's
    children sit in ``child_flat[child_start[i] : child_start[i] +
    child_count[i]]``, sorted stably by packet — the exact scan order
    of the scalar ``_scan``.  ``child_pkt`` mirrors each child's
    packet and ``child_distinct`` the running count of distinct packets
    in the child list's prefix, which turns §4.4 charging of a partial
    scan into one gather.

    The ``ctri_*`` arrays duplicate each child's CCW triangle vertices
    per CSR slot, so the level sweep gathers candidate coordinates
    with one indirection instead of two.
    """

    __slots__ = (
        "region",
        "child_start",
        "child_count",
        "child_flat",
        "child_pkt",
        "child_distinct",
        "ctri_ax",
        "ctri_ay",
        "ctri_bx",
        "ctri_by",
        "ctri_cx",
        "ctri_cy",
    )


def _compile_trian(paged):
    """Compile the paged trian-tree, built once and cached on it.

    Validates the broadcast-order invariants the batched scan charging
    relies on: every child's packet at or after its parent's (the
    greedy level-order allocator guarantees this) and a non-empty root
    level.  Returns None (cached) otherwise, deferring to the
    per-point path (:func:`_trace_batch_generic`).
    """
    compiled = _cached_compiled(paged, "_compiled_trian", _UNCOMPILED)
    if compiled is not _UNCOMPILED:
        return compiled
    order = paged._order
    count = len(order)
    pos = {id(node): i for i, node in enumerate(order)}
    node_pkt = paged._node_packet

    tri_ax = np.empty(count, np.float64)
    tri_ay = np.empty(count, np.float64)
    tri_bx = np.empty(count, np.float64)
    tri_by = np.empty(count, np.float64)
    tri_cx = np.empty(count, np.float64)
    tri_cy = np.empty(count, np.float64)
    region = np.full(count, -1, np.int32)
    child_start = np.zeros(count + 1, np.int64)
    child_count = np.zeros(count + 1, np.int64)
    flat: List[int] = []
    flat_pkt: List[int] = []
    flat_distinct: List[int] = []

    ok = count > 0 and len(paged.tree.roots) > 0

    def append_children(parent_packet: int, children) -> bool:
        # Stable sort by packet — the scalar ``_scan`` candidate order.
        ordered = sorted(children, key=lambda nd: node_pkt[id(nd)])
        distinct = 0
        prev = None
        for child in ordered:
            cpos = pos.get(id(child))
            pkt = node_pkt[id(child)]
            if cpos is None or pkt < parent_packet:
                return False
            if pkt != prev:
                distinct += 1
                prev = pkt
            flat.append(cpos)
            flat_pkt.append(pkt)
            flat_distinct.append(distinct)
        return True

    for i, node in enumerate(order):
        if not ok:
            break
        tri = node.triangle
        tri_ax[i] = tri.a.x
        tri_ay[i] = tri.a.y
        tri_bx[i] = tri.b.x
        tri_by[i] = tri.b.y
        tri_cx[i] = tri.c.x
        tri_cy[i] = tri.c.y
        if node.region_id is not None:
            region[i] = node.region_id
        child_start[i] = len(flat)
        ok = append_children(node_pkt[id(node)], node.children)
        child_count[i] = len(flat) - child_start[i]
    if ok:
        child_start[count] = len(flat)
        ok = append_children(paged._root_dir_packet, paged.tree.roots)
        child_count[count] = len(flat) - child_start[count]

    compiled = None
    if ok:
        ct = _CompiledTrianTree()
        ct.region = region
        ct.child_start = child_start
        ct.child_count = child_count
        ct.child_flat = np.asarray(flat, np.int64)
        ct.child_pkt = np.asarray(flat_pkt, np.int64)
        ct.child_distinct = np.asarray(flat_distinct, np.int64)
        ct.ctri_ax = tri_ax[ct.child_flat]
        ct.ctri_ay = tri_ay[ct.child_flat]
        ct.ctri_bx = tri_bx[ct.child_flat]
        ct.ctri_by = tri_by[ct.child_flat]
        ct.ctri_cx = tri_cx[ct.child_flat]
        ct.ctri_cy = tri_cy[ct.child_flat]
        compiled = ct
    _store_compiled(paged, "_compiled_trian", compiled)
    return compiled


def _trace_batch_trian(paged, points: Sequence[Point]) -> TraceBatch:
    """Level-synchronous descent of the paged trian-tree.

    Every level expands the frontier's candidate children into one
    ragged array, tests them with a single batched point-in-triangle
    sweep over the packed ``scan_pack`` operands (the arithmetic of
    :func:`~repro.geometry.kernels.point_in_triangles_batch`), and
    picks the first containing triangle per point with a
    ``minimum.reduceat`` — the scalar scan order, since children are
    compiled sorted by packet.
    Charging is incremental: a scan through child slots ``0..f`` reads
    ``child_distinct[f]`` distinct packets, minus one when the scan's
    first packet repeats the previous level's last.  A point whose scan
    finds no containing triangle, or which terminates in a gap
    triangle, defers the whole batch to the per-point path to
    raise the scalar error for the earliest failing point.
    """
    ct = _compile_trian(paged)
    if ct is None:
        return _trace_batch_generic(paged, points)
    n = len(points)
    xs, ys = point_coords(points)
    col = active_collector()

    regions = np.empty(n, np.int64)
    last_out = np.empty(n, np.int64)
    tuning_out = np.empty(n, np.int64)

    count = len(ct.region)
    apt = np.arange(n)  # active point index
    anode = np.full(n, count, np.int64)  # synthetic root-directory node
    alast = np.full(n, paged._root_dir_packet, np.int64)
    atun = np.ones(n, np.int64)  # the root directory is always read

    flat_sentinel = np.iinfo(np.int64).max
    while apt.size:
        nd = anode
        if col is not None:
            col.count("trace.trian.levels")
            col.observe("trace.trian.frontier_width", apt.size)
        counts = ct.child_count[nd]
        starts = ct.child_start[nd]
        offsets = np.cumsum(counts)
        total = int(offsets[-1])
        # CSR slot index per (active point, candidate child) pair.
        flat = np.repeat(starts - offsets + counts, counts) + np.arange(
            total, dtype=np.int64
        )
        if col is not None:
            col.observe("trace.trian.scan_width", total)
        rep = np.repeat(apt, counts)
        px = xs[rep]
        py = ys[rep]
        tax = ct.ctri_ax[flat]
        tay = ct.ctri_ay[flat]
        tbx = ct.ctri_bx[flat]
        tby = ct.ctri_by[flat]
        tcx = ct.ctri_cx[flat]
        tcy = ct.ctri_cy[flat]
        # Triangle.contains_point, IEEE-754 expression order verbatim
        # (the arithmetic of point_in_triangles_batch); min(c1, c2, c3)
        # >= -EPS is exactly "all three signs non-negative" — the
        # operands are finite, never NaN.
        c1 = (tbx - tax) * (py - tay) - (tby - tay) * (px - tax)
        c2 = (tcx - tbx) * (py - tby) - (tcy - tby) * (px - tbx)
        c3 = (tax - tcx) * (py - tcy) - (tay - tcy) * (px - tcx)
        contains = np.minimum(np.minimum(c1, c2), c3) >= -EPS
        # First containing child per point: flat indices ascend within a
        # node's slice, so the minimum hit is the scalar scan's choice.
        f = np.minimum.reduceat(
            np.where(contains, flat, flat_sentinel), offsets - counts
        )
        if (f == flat_sentinel).any():
            # No containing child: the per-point path raises the scalar
            # "outside the super-triangle" / "descent lost" error.
            _trace_batch_generic(paged, points)
            raise QueryError("trian-tree descent failed")  # pragma: no cover
        # §4.4: the scan read child slots 0..f, touching
        # child_distinct[f] distinct packets; the first one may repeat
        # the previous level's last packet.
        atun += ct.child_distinct[f] - (ct.child_pkt[starts] == alast)
        alast = ct.child_pkt[f]
        anode = ct.child_flat[f]
        term = ct.child_count[anode] == 0
        if term.any():
            treg = ct.region[anode[term]]
            if (treg < 0).any():
                # Gap triangle: "outside the subdivided area" per point.
                _trace_batch_generic(paged, points)
                raise QueryError("trian-tree descent failed")  # pragma: no cover
            done = apt[term]
            regions[done] = treg
            last_out[done] = alast[term]
            tuning_out[done] = atun[term]
            keep = ~term
            apt = apt[keep]
            anode = anode[keep]
            alast = alast[keep]
            atun = atun[keep]

    return TraceBatch(regions, last_out, tuning_out)
