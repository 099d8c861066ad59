"""Batched traced queries over paged indexes.

The per-query path answers one ``trace(point)`` at a time, walking the
index in pure Python.  The batched tracers here answer a whole workload at
once and return only what the broadcast timeline needs per query — the
containing region, the last index packet read and the tuning time, plus,
on request, the packet path the access walker's batched front door reads
slots from — while guaranteeing results identical to the per-query path:

* **D-tree** — level-synchronous frontier over the tree flattened to
  arrays (:class:`_CompiledDTree`): each level runs the D1/D3
  exclusive-zone comparisons on every live query, and one ray-parity
  pass settles the level's interlocking-zone queries, each expanded
  only into the partition segments of its slab cell.
* **R*-tree** — level-synchronous frontier over the tree flattened to
  arrays in DFS preorder (:class:`_CompiledRStarTree`): each level runs
  the closed MBR test on the frontier's (query, entry) pairs, and every
  leaf candidate of a query block goes through one
  :meth:`~repro.geometry.kernels.RegionEdges.classify_pairs` call, whose
  boundary semantics equal the scalar predicate bit for bit.  The
  scalar DFS's read order and early exit are recovered from preorder
  keys, so no query recurses.
* **trap-tree** — flat-frontier descent over the trapezoidal-map DAG
  compiled to packed structure-of-arrays form
  (:class:`_CompiledTrapTree`): x-node comparisons and y-node
  cross-product tests run vectorized over the whole frontier in one
  paged-rule descent; the degenerate ``effective_point`` nudge is
  checked only for the queries that met an x tie or a sliver.
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
from repro.broadcast.packets import PagedIndex
from repro.geometry.kernels import (
    RegionEdges,
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
# in place, a cached snapshot would keep answering with pre-mutation
# geometry.  Caches are
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

#: Sentinel cached when a compile step declines (the tracer then defers
#: to the per-point path).
_UNCOMPILED = object()


class _CompiledDTree:
    """The whole paged D-tree flattened to structure-of-arrays form.

    Every per-node attribute the descent needs — signed partition
    bounds, ray direction and side flip, slab grid, packet-span
    charging constants, child codes — lives in one array indexed by the
    node's row in the :class:`~repro.core.dtree.DTree` table (rows in
    ``node_id`` order), so the traversal advances a whole frontier with
    gathers.  Child codes are the table's: the child's row for internal
    children and ``~region_id`` (always negative) for data pointers.

    Bounds are signed so one comparison serves both dimensions: the
    tracer tests ``c = x`` (``dim_y`` nodes) or ``c = -y`` (``dim_x``)
    against ``first_bound``/``second_bound`` (negated for ``dim_x``).

    The partition segments sit in one pool in a *ray frame*:
    ``seg_v0``/``seg_v1`` are the straddle coordinate (y for a ``dim_y``
    node, x for a ``dim_x`` one) and ``seg_u0``/``seg_u1`` the compared
    one.  A D2 point's ray crosses a segment when its ``u`` crossing
    beyond the straddle lies above the point's ``u`` (``ray_up``) or
    below it; the side is the crossing parity XOR ``flip``.  Node *i*'s
    ``slab_count[i]`` equal-width slabs start at ``slab_min[i]`` and
    are ``slab_width[i]`` wide; slab *k*'s segments are
    ``cell_seg[cell_start[c] : cell_start[c + 1]]`` with ``c =
    cell_first[i] + k``.
    """

    __slots__ = (
        "root",
        "dim_y",
        "ray_up",
        "flip",
        "first_bound",
        "second_bound",
        "left_code",
        "right_code",
        "pkt_first",
        "pkt_last",
        "pkt_distinct",
        "multi",
        "span_start",
        "span_packets",
        "seg_u0",
        "seg_v0",
        "seg_u1",
        "seg_v1",
        "slab_min",
        "slab_width",
        "slab_count",
        "cell_first",
        "cell_start",
        "cell_seg",
    )


def _slab_index(v, vmin, width, count):
    """Slab of each value *v*: ``clip(floor((v - vmin) / width), 0,
    count - 1)``, monotone in *v* (NaN lands in slab 0).  The one
    expression for segment ends and query points."""
    slab = np.fmin(np.fmax(np.floor((v - vmin) / width), 0.0), count - 1)
    return slab.astype(np.int64)


def _compile_dtree(paged) -> Optional[_CompiledDTree]:
    """Compile the paged D-tree, built once per paged tree and cached.

    Packet charging is reduced to three constants per node (first
    packet, last packet, distinct-packet count): with the forward-only
    channel invariant, equal packets in a trace are always consecutive,
    so ``len(set(path))`` accumulates as distinct-per-span minus a
    duplicate adjustment where one span's first packet equals the
    previous span's last.  That invariant is checked here, once: when a
    node's own packet span moves backwards, or a parent's last packet
    lies past an internal child's first, the compile declines (returns
    None, cached) and the tracer defers to the per-point path
    (:func:`_trace_batch_generic`), which raises the scalar path's exact
    error.  ``span_packets[span_start[i] : span_start[i + 1]]`` lists
    row *i*'s distinct packets in order, for the packet-path CSR.  Every
    array is assembled from the tree's rows and the paging's span CSR.

    The slab cells are built with array operations only: each segment
    is listed in every slab its closed ``v`` range touches, so a query
    in slab *k* finds every segment that can straddle it in cell *k*.
    Segments with ``v0 == v1`` never straddle a ray and are left out.
    """
    compiled = _cached_compiled(paged, "_compiled_dtree", _UNCOMPILED)
    if compiled is not _UNCOMPILED:
        return compiled
    tree = paged.tree
    if tree.root is None:
        return None  # the tracer answers the one region without arrays
    parts = tree.partition
    count = len(parts)
    span_start = np.asarray(paged.span_start, np.int64)
    packets = np.asarray(paged.span_packets, np.int64)
    # Forward-only: no row's own span moves backwards, and no internal
    # child starts before its parent's last packet.
    step = np.diff(packets)
    within = np.ones(step.size, bool)
    within[span_start[1:-1] - 1] = False
    forward = bool((step[within] >= 0).all())
    ct = _CompiledDTree()
    ct.root = tree.root
    ct.left_code = np.asarray(tree.left, np.int64)
    ct.right_code = np.asarray(tree.right, np.int64)
    ct.pkt_first = packets[span_start[:-1]]
    ct.pkt_last = packets[span_start[1:] - 1]
    for code in (ct.left_code, ct.right_code):
        internal = np.flatnonzero(code >= 0)
        forward = forward and bool(
            (ct.pkt_last[internal] <= ct.pkt_first[code[internal]]).all()
        )
    if not forward:
        return _store_compiled(paged, "_compiled_dtree", None)

    # A forward span repeats a packet only consecutively.
    distinct = np.ones(packets.size, bool)
    distinct[1:] = step != 0
    distinct[span_start[:-1]] = True
    ct.span_packets = packets[distinct]
    ct.span_start = np.zeros(count + 1, np.int64)
    ct.span_start[1:] = np.cumsum(distinct)[span_start[1:] - 1]
    ct.pkt_distinct = np.diff(ct.span_start)
    ct.multi = np.diff(span_start) > 1

    dim_y = np.fromiter((p.style.dimension == "y" for p in parts), bool, count)
    described = np.fromiter((p.style.described == "first" for p in parts), bool, count)
    ct.dim_y = dim_y
    # dim_y/first: ray right (u = x above); dim_y/second: left;
    # dim_x/first: down (u = y below); dim_x/second: up.
    ct.ray_up = dim_y == described
    ct.flip = ~described
    for name in ("first_bound", "second_bound"):
        bound = np.fromiter((getattr(p, name) for p in parts), np.float64, count)
        setattr(ct, name, np.where(dim_y, bound, -bound))

    # Segments: consecutive vertices of each polyline, rows in order.
    polylines = [pl for p in parts for pl in p.polylines]
    lengths = np.fromiter((len(pl.vertices) for pl in polylines), np.int64, len(polylines))
    xs, ys = point_coords([v for pl in polylines for v in pl.vertices])
    head = np.ones(xs.size, bool)
    head[np.cumsum(lengths)[lengths > 0] - 1] = False
    a = np.flatnonzero(head)
    ax, ay, bx, by = xs[a], ys[a], xs[a + 1], ys[a + 1]
    pl_row = np.repeat(
        np.arange(count, dtype=np.int64),
        np.fromiter((len(p.polylines) for p in parts), np.int64, count),
    )
    seg_count = np.bincount(
        pl_row, weights=np.maximum(lengths - 1, 0), minlength=count
    ).astype(np.int64)
    seg_node = np.repeat(np.arange(count, dtype=np.int64), seg_count)
    seg_dim_y = dim_y[seg_node]
    ct.seg_u0 = np.where(seg_dim_y, ax, ay)
    ct.seg_v0 = np.where(seg_dim_y, ay, ax)
    ct.seg_u1 = np.where(seg_dim_y, bx, by)
    ct.seg_v1 = np.where(seg_dim_y, by, bx)

    # ceil(c / 2) slabs per node of c segments; a node without segments
    # gets one empty slab, so its D2 points see zero crossings.
    lo_v = np.minimum(ct.seg_v0, ct.seg_v1)
    hi_v = np.maximum(ct.seg_v0, ct.seg_v1)
    has_segs = np.flatnonzero(seg_count > 0)
    seg_first = np.cumsum(seg_count) - seg_count
    vmin = np.zeros(count, np.float64)
    vmax = np.zeros(count, np.float64)
    if has_segs.size:
        vmin[has_segs] = np.minimum.reduceat(lo_v, seg_first[has_segs])
        vmax[has_segs] = np.maximum.reduceat(hi_v, seg_first[has_segs])
    ct.slab_count = np.maximum((seg_count + 1) // 2, 1)
    extent = vmax - vmin
    ct.slab_min = vmin
    ct.slab_width = np.where(extent > 0.0, extent / ct.slab_count, 1.0)
    ct.cell_first = np.cumsum(ct.slab_count) - ct.slab_count
    cells = int(ct.slab_count.sum())

    grid = (ct.slab_min[seg_node], ct.slab_width[seg_node], ct.slab_count[seg_node])
    first_slab = _slab_index(lo_v, *grid)
    spans = np.where(
        ct.seg_v0 == ct.seg_v1, 0, _slab_index(hi_v, *grid) - first_slab + 1
    )
    cell, owner, _ = ragged_ranges(ct.cell_first[seg_node] + first_slab, spans)
    ct.cell_seg = owner[np.argsort(cell, kind="stable")]
    ct.cell_start = np.zeros(cells + 1, np.int64)
    np.cumsum(np.bincount(cell, minlength=cells), out=ct.cell_start[1:])
    return _store_compiled(paged, "_compiled_dtree", ct)


def _slab_parity(
    ct: _CompiledDTree, nd: np.ndarray, vq: np.ndarray, uq: np.ndarray, col
) -> np.ndarray:
    """Ray-parity "first side" answers of interlocked (node, point) pairs.

    Each pair looks up its slab cell and expands only that cell's
    segments; the scalar ``Partition.ray_crossings`` straddle test and
    crossing expression (identical IEEE-754 operation order in the ray
    frame) run once over the flat pair-segment arrays, and ``bincount``
    folds the hits back per pair by ray direction.
    """
    cell = ct.cell_first[nd] + _slab_index(
        vq, ct.slab_min[nd], ct.slab_width[nd], ct.slab_count[nd]
    )
    lo = ct.cell_start[cell]
    flat, owner, _ = ragged_ranges(lo, ct.cell_start[cell + 1] - lo)
    if col is not None:
        col.observe("kernels.pair_parity.size", nd.size)
        col.count("trace.dtree.parity_segments", flat.size)
    seg = ct.cell_seg[flat]
    v0 = ct.seg_v0[seg]
    v1 = ct.seg_v1[seg]
    vr = vq[owner]
    # The straddle makes the divisor provably nonzero.
    straddle = np.flatnonzero((v0 > vr) != (v1 > vr))
    owner = owner[straddle]
    seg = seg[straddle]
    v0 = v0[straddle]
    u0 = ct.seg_u0[seg]
    t_at = u0 + (vq[owner] - v0) / (v1[straddle] - v0) * (ct.seg_u1[seg] - u0)
    ur = uq[owner]
    above = np.bincount(owner[t_at > ur], minlength=nd.size)
    below = np.bincount(owner[t_at < ur], minlength=nd.size)
    crossings = np.where(ct.ray_up[nd], above, below)
    return (crossings % 2 == 1) ^ ct.flip[nd]


def _trace_batch_dtree(
    paged, points: Sequence[Point], paths: bool = False
) -> TraceBatch:
    """Level-synchronous traversal of the paged D-tree.

    The whole frontier advances one tree level per iteration over flat
    per-point state arrays (current node, last packet read, tuning so
    far): the cheap D1/D3 exclusive-zone comparisons (one signed
    comparison pair for both dimensions) decide most points with a
    handful of gathers, and the leftover interlocking-zone (D2) points
    of the entire level are resolved by one :func:`_slab_parity` call,
    which expands each point only into the segments of its slab.
    Packet charging follows §4.4: the first packet only, unless the
    node spans several packets and the query needs the whole partition
    (D2, or early termination off); tuning accumulates incrementally via
    the distinct-per-span constants of :func:`_compile_dtree`, so unless
    ``paths=True`` asks for them no per-query packet path is
    materialised.  With it, every level emits the packets it charges
    (the node's distinct span, minus a first packet repeating the
    previous level's last) tagged with the query, and one stable sort by
    query assembles the path CSR.  A tree whose broadcast order is not
    forward-only (the compile step declines) goes to the per-point path.
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

    ct = _compile_dtree(paged)
    if ct is None:
        return _trace_batch_generic(paged, points, paths=paths)
    xs, ys = point_coords(points)
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
    x = xs  # coordinates per active point
    y = ys

    while apt.size:
        nd = anode
        if col is not None:
            col.count("trace.dtree.levels")
            col.observe("trace.dtree.frontier_width", apt.size)

        # D1/D3 exclusive zones on signed bounds: -y >= -b is y <= b.
        dim_y = ct.dim_y[nd]
        signed = np.where(dim_y, x, -y)
        first = signed <= ct.first_bound[nd]
        interlocked = ~first & (signed < ct.second_bound[nd])
        d2 = np.flatnonzero(interlocked)
        if d2.size:
            # Ray frame: v is the straddle coordinate, u the compared one.
            along_y = dim_y[d2]
            x2 = x[d2]
            y2 = y[d2]
            first[d2] = _slab_parity(
                ct,
                nd[d2],
                np.where(along_y, y2, x2),
                np.where(along_y, x2, y2),
                col,
            )

        # Packet charging (§4.4); forward order was checked at compile.
        pf = ct.pkt_first[nd]
        use_long = ct.multi[nd] & interlocked if early else ct.multi[nd]
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
            x = x[keep]
            y = y[keep]
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


# -- R*-tree: level-synchronous frontier over the flat compiled layout -------

#: Queries per R*-tree frontier block (bounds its (query, entry) pair arrays).
_RSTAR_BLOCK_QUERIES = 2048


class _CompiledRStarTree:
    """The paged R*-tree flattened to arrays for the batched frontier.

    Nodes are indexed in DFS preorder, root at 0.  ``packet`` is each
    node's broadcast packet and node *i*'s entries are
    ``entry_start[i] : entry_start[i + 1]`` of the per-entry arrays: the
    entry's node ``entry_node``, its MBR (``min_x`` .. ``max_y``) and
    ``child``, the child node's index for an internal entry or
    ``~region_id`` (always negative) for a leaf entry.  A leaf entry's
    shape packets are ``shape_packets[shape_start[e] : shape_start[e +
    1]]`` (an empty slice for internal entries).

    The leaf kernel's tables are built once here too: the ``edge_*``
    slots are a :class:`~repro.geometry.kernels.RegionEdges` table with
    one slot per entry, its region's vertex ring (empty for internal
    entries; :func:`_rstar_edges` views them as one), ``ring_min_x`` ..
    ``ring_max_y`` each leaf entry's ring bounding box (bit-equal to
    ``polygon.bbox``, the scalar containment test's gate), and
    ``read_table`` is ``packet`` followed by ``shape_packets``.

    A leaf entry's ``~region_id`` is negative only because region ids
    are ``>= 0`` (:class:`~repro.tessellation.subdivision.Subdivision`
    rejects negative ones): the sign tells a data pointer from a child
    node, here and in the cell table.

    The ``cell_*`` slots are the cell table over the service area
    (:func:`_rstar_cell_table`): ``cell_frame`` and ``cell_side`` as in
    :class:`_CompiledTrapTree`, and per ``(cell, node)`` segment the
    node's entries whose closed MBR meets the cell's box, in entry
    order: segment *s* is ``cell_entry[cell_offsets[s] :
    cell_offsets[s + 1]]``, and the last segment is empty.
    ``cell_root`` is the root's segment in each cell (slot ``side *
    side`` lists every entry of every node) and ``cell_next`` the
    segment of a listed internal entry's child in the same cell.
    """

    __slots__ = (
        "packet",
        "entry_start",
        "entry_node",
        "min_x",
        "min_y",
        "max_x",
        "max_y",
        "child",
        "shape_start",
        "shape_packets",
        "ring_min_x",
        "ring_min_y",
        "ring_max_x",
        "ring_max_y",
        "read_table",
        "cell_frame",
        "cell_side",
        "cell_entry",
        "cell_offsets",
        "cell_root",
        "cell_next",
    ) + tuple("edge_" + name for name in RegionEdges.__slots__)


def _compile_rstar(paged) -> _CompiledRStarTree:
    """Compile the paged R*-tree, built once and cached on the paged tree.

    The node, entry and shape arrays are the paged snapshot's own (the
    MBR slots are the rows of ``entry_boxes``); only the leaf kernel's
    ring tables and the cell table are built here."""
    compiled = _cached_compiled(paged, "_compiled_rstar", None)
    if compiled is not None:
        return compiled
    ct = _CompiledRStarTree()
    ct.packet = paged.node_packet
    ct.entry_start = paged.entry_start
    ct.entry_node = np.repeat(
        np.arange(len(ct.packet), dtype=np.int64), np.diff(ct.entry_start)
    )
    ct.min_x, ct.min_y, ct.max_x, ct.max_y = paged.entry_boxes
    ct.child = paged.entry_child
    ct.shape_start = paged.shape_start
    ct.shape_packets = paged.shape_packets
    region = paged.subdivision.region
    rings = [
        region(~code).polygon.vertices if code < 0 else ()
        for code in ct.child.tolist()
    ]
    ring_x, ring_y = point_coords([p for ring in rings for p in ring])
    edges = RegionEdges(
        ring_x, ring_y, np.fromiter(map(len, rings), np.int64, len(rings))
    )
    for name in RegionEdges.__slots__:
        setattr(ct, "edge_" + name, getattr(edges, name))
    leaf = ct.child < 0
    first = edges.start[:-1][leaf]
    for field, ring, reduce in (
        ("ring_min_x", ring_x, np.minimum),
        ("ring_min_y", ring_y, np.minimum),
        ("ring_max_x", ring_x, np.maximum),
        ("ring_max_y", ring_y, np.maximum),
    ):
        box = np.zeros(len(ct.child), np.float64)
        if first.size:
            box[leaf] = reduce.reduceat(ring, first)
        setattr(ct, field, box)
    ct.read_table = np.concatenate((ct.packet, ct.shape_packets))
    _rstar_cell_table(ct, paged.subdivision.service_area)
    return _store_compiled(paged, "_compiled_rstar", ct)


def _rstar_cell_table(ct: _CompiledRStarTree, area) -> None:
    """Fill *ct*'s cell table over the service *area*.

    The grid is :func:`_cell_grid`'s over the entry count.  Cell ``k``
    along x holds the floats from ``xe[k]`` to the float below
    ``xe[k + 1]``, so an entry's closed MBR meets it exactly when
    ``min_x < xe[k + 1]`` and ``max_x >= xe[k]``: two ``searchsorted``
    calls give each entry's span of cells along each axis, with no
    rounding margin, since the tracer's MBR test is the same float
    comparison.  An entry a cell does not list fails that test for
    every point the lookup maps into the cell.  The spans expand into
    (cell, entry) pairs, sorted by cell and, within a cell, by entry
    (hence by node); slot ``side * side`` lists every entry."""
    nodes = len(ct.packet)
    entries = len(ct.child)
    box = (area.min_x, area.max_x, area.min_y, area.max_y)
    ct.cell_frame, side, xe, ye = _cell_grid(box, entries)
    ct.cell_side = side
    cell = np.zeros(0, np.int64)
    entry = np.zeros(0, np.int64)
    if side:
        x0 = np.searchsorted(xe[1:], ct.min_x, side="right")
        nx = np.searchsorted(xe[:-1], ct.max_x, side="right") - x0
        y0 = np.searchsorted(ye[1:], ct.min_y, side="right")
        ny = np.searchsorted(ye[:-1], ct.max_y, side="right") - y0
        ny = np.where(nx > 0, np.maximum(ny, 0), 0)
        # (entry, row) pairs, then each row's run of cells.
        row, owner, _ = ragged_ranges(y0, ny)
        cell, run, _ = ragged_ranges(row * side + x0[owner], nx[owner])
        entry = owner[run]
        order = np.argsort(cell, kind="stable")
        cell = cell[order]
        entry = entry[order]
    cell = np.append(cell, np.full(entries, side * side, np.int64))
    entry = np.append(entry, np.arange(entries, dtype=np.int64))
    node = ct.entry_node[entry]
    # Segments: the runs of one (cell, node); the empty one closes them.
    head = np.ones(len(cell), bool)
    head[1:] = (cell[1:] != cell[:-1]) | (node[1:] != node[:-1])
    head = np.flatnonzero(head)
    empty = len(head)
    key = cell[head] * nodes + node[head]

    def segment(cells, of):
        want = cells * nodes + of
        s = np.searchsorted(key, want)
        hit = s < empty
        hit[hit] = key[s[hit]] == want[hit]
        return np.where(hit, s, empty)

    child = ct.child[entry]
    ct.cell_entry = entry.astype(np.int32)
    ct.cell_offsets = np.append(head, [len(cell)] * 2).astype(np.int32)
    ct.cell_root = segment(
        np.arange(side * side + 1, dtype=np.int64), 0
    ).astype(np.int32)
    ct.cell_next = np.where(
        child >= 0, segment(cell, np.maximum(child, 0)), empty
    ).astype(np.int32)


def _rstar_edges(ct: _CompiledRStarTree) -> RegionEdges:
    """The leaf kernel's :class:`RegionEdges`, a view of the ``edge_*``
    slots."""
    edges = RegionEdges.__new__(RegionEdges)
    for name in RegionEdges.__slots__:
        setattr(edges, name, getattr(ct, "edge_" + name))
    return edges


def _trace_rstar_block(
    ct: _CompiledRStarTree, edges: RegionEdges, xs, ys, col
):
    """Trace one block of queries down the compiled R*-tree.

    Returns ``(regions, path_query, path_packets)``: each query's region,
    then every query's consecutive-deduplicated packet reads in read
    order, grouped by query.  If any query misses, ``regions`` only
    marks the misses with ``-1`` and both path arrays are None.
    """
    m = len(xs)
    node_q: List[np.ndarray] = []
    node_v: List[np.ndarray] = []
    leaf_q: List[np.ndarray] = []
    leaf_e: List[np.ndarray] = []
    fq = np.arange(m, dtype=np.int64)
    fv = np.zeros(m, np.int64)
    # Each (query, node) pair expands into the node's entries its cell
    # lists (:func:`_rstar_cell_table`), a segment of ``cell_entry``.
    fs = ct.cell_root[_cell_of(ct.cell_frame, ct.cell_side, xs, ys)]
    while fq.size:
        node_q.append(fq)
        node_v.append(fv)
        lo = ct.cell_offsets[fs]
        slot, owner, _ = ragged_ranges(lo, ct.cell_offsets[fs + 1] - lo)
        pe = ct.cell_entry[slot].astype(np.int64)
        if col is not None:
            col.count("trace.rstar.levels")
            col.observe("trace.rstar.frontier_width", fq.size)
            col.count("trace.rstar.pairs", pe.size)
            listed = ct.entry_start[fv + 1] - ct.entry_start[fv]
            col.count("trace.rstar.cell_pruned", int(listed.sum()) - pe.size)
        pq = fq[owner]
        px = xs[pq]
        py = ys[pq]
        inside = np.flatnonzero(
            (ct.min_x[pe] <= px)
            & (px <= ct.max_x[pe])
            & (ct.min_y[pe] <= py)
            & (py <= ct.max_y[pe])
        )
        pe = pe[inside]
        pq = pq[inside]
        slot = slot[inside]
        code = ct.child[pe]
        leaf = code < 0
        leaf_q.append(pq[leaf])
        leaf_e.append(pe[leaf])
        fq = pq[~leaf]
        fv = code[~leaf]
        fs = ct.cell_next[slot[~leaf]]

    # Leaf kernel: every candidate pair inside its polygon's closed
    # bbox (the entry MBR, up to ulps of region drift since insertion)
    # in one ragged polygon test.
    cq = np.concatenate(leaf_q)
    ce = np.concatenate(leaf_e)
    px = xs[cq]
    py = ys[cq]
    gated = np.flatnonzero(
        (ct.ring_min_x[ce] <= px)
        & (px <= ct.ring_max_x[ce])
        & (ct.ring_min_y[ce] <= py)
        & (py <= ct.ring_max_y[ce])
    )
    # Leaf entries follow their node in preorder, so the scalar DFS
    # tests them in entry order and stops at the first hit: the
    # smallest hit entry.
    hit_entry = np.full(m, len(ct.child), np.int64)
    if gated.size:
        on_edge, odd = edges.classify_pairs(
            ce[gated], px[gated], py[gated]
        )[:2]
        hit = gated[on_edge | odd]
        np.minimum.at(hit_entry, cq[hit], ce[hit])
    if col is not None:
        col.count("trace.rstar.leaf_pairs", ce.size)
    if (hit_entry == len(ct.child)).any():
        regions = np.where(hit_entry < len(ct.child), 0, -1)
        return regions, None, None
    regions = ~ct.child[hit_entry]
    hit_node = ct.entry_node[hit_entry]

    # DFS order without recursion: node v is read at key v +
    # entry_start[v] and leaf entry e of node u tested at key u + 1 + e.
    # A query's reads are its events up to its hit, in key order; the
    # events past the hit are the ones the scalar early exit skips.
    nq = np.concatenate(node_q)
    nv = np.concatenate(node_v)
    keep = nv <= hit_node[nq]
    nq = nq[keep]
    nv = nv[keep]
    past = ce > hit_entry[cq]
    if col is not None:
        col.count("trace.rstar.leaf_pairs_past_hit", int(past.sum()))
    cq = cq[~past]
    ce = ce[~past]
    cu = ct.entry_node[ce]
    event_q = np.concatenate((nq, cq))
    key = np.concatenate((nv + ct.entry_start[nv], cu + 1 + ce))
    start = np.concatenate((nv, len(ct.packet) + ct.shape_start[ce]))
    count = np.concatenate(
        (np.ones(nv.size, np.int64), ct.shape_start[ce + 1] - ct.shape_start[ce])
    )
    order = np.argsort(event_q * (len(ct.packet) + len(ct.child) + 1) + key)
    flat, owner, _ = ragged_ranges(start[order], count[order])
    path_q = event_q[order][owner]
    packets = ct.read_table[flat]
    fresh = np.ones(packets.size, bool)
    fresh[1:] = (packets[1:] != packets[:-1]) | (path_q[1:] != path_q[:-1])
    return regions, path_q[fresh], packets[fresh]


def _trace_batch_rstar(
    paged, points: Sequence[Point], paths: bool = False
) -> TraceBatch:
    """Level-synchronous frontier over the compiled paged R*-tree.

    Blocks of at most :data:`_RSTAR_BLOCK_QUERIES` queries descend
    together: each level expands every (query, node) pair of the
    frontier into the node's entries that the query's grid cell lists
    (:func:`_rstar_cell_table`; every entry outside the grid box) with
    :func:`ragged_ranges` and runs the closed MBR test on the pairs; an
    entry a cell leaves out would fail that test, so the survivors are
    the root descent's.  Surviving internal entries form
    the next frontier and surviving leaf entries become candidates.  All
    candidates are then classified in one
    :meth:`~repro.geometry.kernels.RegionEdges.classify_pairs` call,
    boundary semantics included.  The scalar DFS's order and early exit
    are recovered from the preorder layout (see
    :func:`_trace_rstar_block`), so packet reads, tuning time and the
    ``paths=True`` CSR come out of flat arrays.  A miss raises the
    scalar path's :class:`QueryError`; a read moving backwards defers
    to the per-point path for the scalar error.
    """
    ct = _compile_rstar(paged)
    edges = _rstar_edges(ct)
    n = len(points)
    xs, ys = point_coords(points)
    col = active_collector()
    regions = np.empty(n, np.int64)
    last = np.empty(n, np.int64)
    tuning = np.empty(n, np.int64)
    path_blocks: List[np.ndarray] = []
    backwards = False
    for lo in range(0, n, _RSTAR_BLOCK_QUERIES):
        hi = min(n, lo + _RSTAR_BLOCK_QUERIES)
        block_regions, path_q, packets = _trace_rstar_block(
            ct, edges, xs[lo:hi], ys[lo:hi], col
        )
        if path_q is None:
            missing = lo + int(np.argmax(block_regions < 0))
            raise QueryError(
                f"{points[missing]!r} not found in the paged R*-tree"
            )
        same = path_q[1:] == path_q[:-1]
        if backwards or (same & (packets[1:] < packets[:-1])).any():
            # Keep scanning: a later miss still raises its QueryError.
            backwards = True
            continue
        regions[lo:hi] = block_regions
        # Forward-only and free of consecutive repeats: every read is a
        # distinct packet, and a query's last read ends its run.
        tuning[lo:hi] = np.bincount(path_q, minlength=hi - lo)
        last[lo:hi] = packets[np.flatnonzero(np.append(~same, True))]
        if paths:
            path_blocks.append(packets)
    if backwards:
        # The per-point path rebuilds the offending path and raises the
        # scalar client's error.
        _trace_batch_generic(paged, points)
        raise BroadcastError(
            "index traversal moved backwards on the broadcast channel"
        )
    if paths:
        offsets = np.zeros(n + 1, np.int64)
        np.cumsum(tuning, out=offsets[1:])
        packets = np.concatenate(path_blocks or [np.zeros(0, np.int64)])
        return TraceBatch(regions, last, tuning, offsets, packets)
    return TraceBatch(regions, last, tuning)


#: Tracers that emit the packet-path CSR themselves (``paths=True``).
_PATH_TRACERS = (_trace_batch_generic, _trace_batch_dtree, _trace_batch_rstar)


# -- certified cell starts for the single-path descents ----------------------
#
# The trap- and trian-tree tracers follow one path per point, and nearby
# points share its upper part.  A cell table over a uniform grid stores,
# per cell, the descent state (node, last packet, tuning, depth) after
# the levels that every point the lookup maps into the cell provably
# decides alike; the tracers start there.  The proofs are exact: each
# tracer test is monotone in the point's x and in its y *as evaluated
# in floating point* (every IEEE operation is correctly rounded, hence
# monotone in each operand), so its extremes over a cell are its values
# at two box corners, and a cell's box is derived from the lookup
# expression itself.  Slot ``side * side`` holds the root state, the
# start of every point outside the grid box or with a non-finite
# coordinate.


def _cell_side(node_count: int) -> int:
    """Grid side: the power of two at or above ``sqrt(node_count / 2)``."""
    side = 1
    while 2 * side * side < node_count:
        side *= 2
    return side


def _cell_of(frame: np.ndarray, side: int, xs: np.ndarray, ys: np.ndarray):
    """Cell of each point, ``iy * side + ix`` with ``ix = floor((x - lo_x)
    * scale_x)``, or ``side * side`` outside the grid box."""
    if not side:
        return np.zeros(len(xs), np.intp)
    qx = (xs - frame[0]) * frame[2]
    qy = (ys - frame[1]) * frame[3]
    inside = (qx >= 0.0) & (qx < side) & (qy >= 0.0) & (qy < side)
    if inside.all():
        return qy.astype(np.intp) * side + qx.astype(np.intp)
    cell = np.full(len(xs), side * side, np.intp)
    cell[inside] = qy[inside].astype(np.intp) * side + qx[inside].astype(np.intp)
    return cell


_SIGN = np.int64(-(2**63))


def _float_order(v: np.ndarray) -> np.ndarray:
    """Integers in the order of the floats *v* (both zeros map to 0)."""
    bits = v.view(np.int64)
    return np.where(bits < 0, -(bits & ~_SIGN), bits)


def _order_float(i: np.ndarray) -> np.ndarray:
    """The floats of :func:`_float_order` keys."""
    return np.where(i < 0, -i | _SIGN, i).view(np.float64)


def _cell_edges(lo: float, scale: float, side: int) -> Optional[np.ndarray]:
    """``edges[k]``, the least float whose lookup ``(v - lo) * scale``
    is at least ``k``, for ``k = 0 .. side``: cell ``k`` along the axis
    holds exactly the floats from ``edges[k]`` to the float below
    ``edges[k + 1]``.  The lookup is monotone in ``v``, so a bisection
    over the floats around the guess ``lo + k / scale`` finds it; None
    when the guesses for ``k - 1`` and ``k + 1`` do not bracket it (a
    grid finer than the floats)."""
    k = np.arange(side + 1, dtype=np.float64)
    guess = _float_order(lo + k / scale)
    below = guess - 4
    above = guess + 4
    # Where a few ulps around the guess do not bracket the edge, the
    # guesses for the neighbouring lines do.
    wide = ~(
        ((_order_float(below) - lo) * scale < k)
        & ((_order_float(above) - lo) * scale >= k)
    )
    below[wide] = _float_order(lo + (k[wide] - 1) / scale)
    above[wide] = _float_order(lo + (k[wide] + 1) / scale)
    if not (
        ((_order_float(below) - lo) * scale < k).all()
        and ((_order_float(above) - lo) * scale >= k).all()
    ):
        return None
    while True:
        gap = above > below + 1
        if not gap.any():
            return _order_float(above)
        # The floor of the mean, without overflowing int64.
        mid = (below >> 1) + (above >> 1) + (below & above & 1)
        hit = (_order_float(mid) - lo) * scale >= k
        above = np.where(gap & hit, mid, above)
        below = np.where(gap & ~hit, mid, below)


def _cell_boxes(xe: np.ndarray, ye: np.ndarray, n: int):
    """``(lo_x, hi_x, lo_y, hi_y)`` per cell ``cy * n + cx`` of the
    ``n`` x ``n`` stage over the :func:`_cell_edges` *xe*/*ye*: the cell
    covers the fine cells ``[cx * r, (cx + 1) * r)`` along x (likewise
    along y), so its box runs from the first one's least float to the
    float below the next one's."""
    r = (len(xe) - 1) // n
    edge = np.arange(n) * r
    return (
        np.tile(xe[edge], n),
        np.tile(np.nextafter(xe[edge + r], -np.inf), n),
        np.repeat(ye[edge], n),
        np.repeat(np.nextafter(ye[edge + r], -np.inf), n),
    )


def _cell_grid(box, count: int):
    """``(frame, side, xe, ye)``: the grid over the query *box* ``(x_lo,
    x_hi, y_lo, y_hi)`` for a structure of *count* nodes, side
    :func:`_cell_side` of *count*, with its :func:`_cell_edges` along
    each axis.  A degenerate or non-finite box, or a grid finer than
    the floats, gets side 0 (a zero frame, no edges): every point then
    looks up the one slot ``0``."""
    x_lo, x_hi, y_lo, y_hi = box
    side = _cell_side(count)
    if np.isfinite(box).all() and x_hi > x_lo and y_hi > y_lo:
        frame = np.array(
            (x_lo, y_lo, side / (x_hi - x_lo), side / (y_hi - y_lo)), np.float64
        )
        xe = _cell_edges(frame[0], frame[2], side)
        same = frame[1] == frame[0] and frame[3] == frame[2]
        ye = xe if same else _cell_edges(frame[1], frame[3], side)
        if xe is not None and ye is not None:
            return frame, side, xe, ye
    return np.zeros(4, np.float64), 0, None, None


def _build_cell_table(compiled, box, node_count: int, root, step) -> None:
    """Fill *compiled*'s ``cell_*`` slots over the query *box*
    ``(x_lo, x_hi, y_lo, y_hi)``.

    Starts from one cell holding the *root* state ``(node, last,
    tuning, final)``, ``final`` marking a cell that can descend no
    further (at a leaf, or blocked by a gap or sliver leaf), and refines
    every stage's cells into four that inherit their state, until the
    grid side is :func:`_cell_side` of *node_count*.  At every stage
    each cell keeps descending while ``step(node, last, tuning, x_lo,
    x_hi, y_lo, y_hi)`` certifies a move; *step* returns ``(moved,
    final, node, last, tuning)``: which cells moved, which can descend
    no further, and the new state of the moved cells only.  A finer
    cell's box is a union of the lookup's float ranges inside its
    parent's, so what the parent proved holds for it.
    """
    frame, side, xe, ye = _cell_grid(box, node_count)
    state = {
        "node": np.array(root[:1], np.int64),
        "last": np.array(root[1:2], np.int64),
        "tuning": np.array(root[2:3], np.int64),
        "depth": np.zeros(1, np.int64),
        "final": np.array(root[3:], bool),
    }
    n = 1
    while n <= side:
        lo_x, hi_x, lo_y, hi_y = _cell_boxes(xe, ye, n)
        active = np.flatnonzero(~state["final"])
        while active.size:
            moved, final, node, last, tuning = step(
                state["node"][active],
                state["last"][active],
                state["tuning"][active],
                lo_x[active],
                hi_x[active],
                lo_y[active],
                hi_y[active],
            )
            state["final"][active] = final
            active = active[moved]
            state["node"][active] = node
            state["last"][active] = last
            state["tuning"][active] = tuning
            state["depth"][active] += 1
            active = active[~state["final"][active]]
        if n < side:
            for name, values in state.items():
                grid = values.reshape(n, n)
                state[name] = grid.repeat(2, 0).repeat(2, 1).ravel()
        n *= 2
    compiled.cell_frame = frame
    compiled.cell_side = side
    names = ("node", "last", "tuning", "depth")
    for name, root_value in zip(names, root[:3] + (0,)):
        values = state[name] if side else np.zeros(0, np.int64)
        table = np.append(values, root_value).astype(np.int32)
        setattr(compiled, "cell_" + name, table)


def _cross_range(dx, dy, ax, ay, lo_x, hi_x, lo_y, hi_y):
    """Least and greatest ``dx * (y - ay) - dy * (x - ax)`` over the box.

    As rounded, the first product is monotone in ``y`` and the second
    in ``x`` (each IEEE operation is monotone in each operand, and a
    product keeps or flips the order by its fixed factor's sign), so
    each product's extremes are its values at the two ends of its
    interval, and the difference is least with the first product least
    and the second greatest."""
    y0 = dx * (lo_y - ay)
    y1 = dx * (hi_y - ay)
    x0 = dy * (lo_x - ax)
    x1 = dy * (hi_x - ax)
    return (
        np.minimum(y0, y1) - np.maximum(x0, x1),
        np.maximum(y0, y1) - np.minimum(x0, x1),
    )


# -- trap-tree: flat-frontier descent over the packed DAG --------------------

#: ``repro.pointloc.trapezoidal``'s node kinds (X_NODE, Y_NODE, LEAF).
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

    The ``cell_*`` slots are the cell table over the sheared service
    area (:func:`_trap_cell_table`): ``cell_frame`` holds the grid's
    ``(lo_x, lo_y, scale_x, scale_y)`` and ``cell_side`` its side, and
    ``cell_node``/``cell_last``/``cell_tuning``/``cell_depth`` the state
    a descent starts from in each cell.
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
        "cell_frame",
        "cell_side",
        "cell_node",
        "cell_last",
        "cell_tuning",
        "cell_depth",
    )


def _compile_trap(paged):
    """Compile the paged trap-tree, built once and cached on it.

    The tree's node arrays are already in broadcast order, so compiling
    is array assembly.  Validates at compile time what the incremental
    §4.4 charging relies on: every child's ordinal after its parent's
    (so the root is node 0) and child packets never preceding a
    parent's packet — guaranteed by the allocator, which places every
    node at or after its latest parent packet.  Returns None (cached)
    when the invariants do not hold, sending the tracer to the
    per-point path (:func:`_trace_batch_generic`).
    """
    compiled = _cached_compiled(paged, "_compiled_trap", _UNCOMPILED)
    if compiled is not _UNCOMPILED:
        return compiled
    tree = paged.tree
    kind = tree.kind
    is_x = kind == _TRAP_XNODE
    on_true = np.where(is_x, tree.child1, tree.child0)
    on_false = np.where(is_x, tree.child0, tree.child1)
    packet = paged.node_packet

    ok = len(kind) > 0
    if ok:
        internal = np.flatnonzero(kind != _TRAP_LEAF)
        for child in (on_true[internal], on_false[internal]):
            if not (
                (child > internal).all()
                and (packet[child] >= packet[internal]).all()
            ):
                ok = False
                break

    compiled = None
    if ok:
        ct = _CompiledTrapTree()
        ct.kind = kind
        ct.ax = tree.ax
        ct.ay = tree.ay
        ct.bx = tree.bx
        ct.by = tree.by
        ct.on_true = on_true
        ct.on_false = on_false
        ct.packet = packet
        ct.region = tree.region
        _trap_cell_table(ct, tree.subdivision.service_area)
        compiled = ct
    _store_compiled(paged, "_compiled_trap", compiled)
    return compiled


def _trap_cell_table(ct: _CompiledTrapTree, area) -> None:
    """Fill *ct*'s cell table over the sheared image of the service
    *area*.  A cell moves past an x-node only when its whole box lies
    strictly on one side (``lo_x > ax`` or ``hi_x < ax``), so no
    certified prefix holds an x tie and the tracer's ``diverged`` flags
    are unchanged; past a y-node when the tracer's cross product has
    one sign over the whole box (:func:`_cross_range`).  Tuning
    and last packet follow the tracer's charging; a descent stops
    before a sliver leaf."""
    from repro.pointloc.trapezoidal import SHEAR

    xs = np.array([area.min_x, area.max_x, area.min_x, area.max_x], np.float64)
    ys = np.array([area.min_y, area.min_y, area.max_y, area.max_y], np.float64)
    ex = xs + SHEAR * ys
    dx = ct.bx - ct.ax
    dy = ct.by - ct.ay

    def step(node, last, tuning, lo_x, hi_x, lo_y, hi_y):
        ax = ct.ax[node]
        least, greatest = _cross_range(
            dx[node], dy[node], ax, ct.ay[node], lo_x, hi_x, lo_y, hi_y
        )
        is_y = ct.kind[node] == _TRAP_YNODE
        go_true = np.where(is_y, least >= 0.0, lo_x > ax)
        decided = go_true | np.where(is_y, greatest < 0.0, hi_x < ax)
        child = np.where(go_true, ct.on_true[node], ct.on_false[node])
        leaf = decided & (ct.kind[child] == _TRAP_LEAF)
        moved = decided & ~(leaf & (ct.region[child] < 0))
        pkt = ct.packet[node[moved]]
        return moved, leaf, child[moved], pkt, tuning[moved] + (pkt != last[moved])

    root = (0, -1, 0, bool(ct.kind[0] == _TRAP_LEAF))
    box = (ex.min(), ex.max(), ys.min(), ys.max())
    _build_cell_table(ct, box, len(ct.kind), root, step)


def _trap_paged_descent(
    ct: _CompiledTrapTree,
    dx: np.ndarray,
    dy: np.ndarray,
    ex: np.ndarray,
    ey: np.ndarray,
    col,
):
    """Paged-trace descent of (sheared) points: lexicographic x ties,
    zero cross above, each visited node's packet charged incrementally.
    ``dx``/``dy`` are ``bx - ax``/``by - ay`` per node, the first
    operations of the scalar cross product.

    Each point starts at its cell's certified state
    (:func:`_trap_cell_table`).  Returns ``(regions, last, tuning,
    diverged)``; ``diverged`` marks the points that met ``x == ax``
    with ``y < ay`` at an x-node, the one place where the tree descent
    rules (x ties go right) route differently.  The allocator
    guarantees nondecreasing packets along every root-to-leaf path
    (checked at compile time), so distinct-packet tuning time is the
    count of packet changes.
    """
    n = len(ex)
    regions = np.empty(n, np.int64)
    last_out = np.empty(n, np.int64)
    tuning_out = np.empty(n, np.int64)
    diverged = np.zeros(n, bool)

    apt = np.arange(n)  # active point index
    # Each point starts at its cell's certified node, with the packets
    # the skipped levels read (the root, no packet yet, outside the grid).
    cell = _cell_of(ct.cell_frame, ct.cell_side, ex, ey)
    nd = ct.cell_node[cell]  # current node
    alast = ct.cell_last[cell]  # last packet read (-1 = none yet)
    atun = ct.cell_tuning[cell].astype(np.int64)  # distinct packets so far
    if col is not None:
        col.count("trace.trap.cell_skipped", int(ct.cell_depth[cell].sum()))
    x = ex
    y = ey
    # Node k's false and true children at 2k and 2k + 1.
    children = np.stack((ct.on_false, ct.on_true), axis=1).ravel()

    while apt.size:
        if col is not None:
            col.count("trace.trap.levels")
            col.observe("trace.trap.frontier_width", apt.size)
        # Charge the node being read: packets never decrease along a
        # descent, so every packet change is a new distinct packet.
        pkt = ct.packet[nd]
        atun += pkt != alast
        alast = pkt
        kind = ct.kind[nd]
        leaf = kind == _TRAP_LEAF
        if leaf.any():
            at = np.flatnonzero(leaf)
            done = apt[at]
            regions[done] = ct.region[nd[at]]
            last_out[done] = alast[at]
            tuning_out[done] = atun[at]
            keep = ~leaf
            apt = apt[keep]
            nd = nd[keep]
            alast = alast[keep]
            atun = atun[keep]
            kind = kind[keep]
            x = x[keep]
            y = y[keep]
            if apt.size == 0:
                break
        nax = ct.ax[nd]
        nay = ct.ay[nd]
        is_y = kind == _TRAP_YNODE
        # cross_batch's expression, its two subtractions done per node.
        cross = dx[nd] * (y - nay) - dy[nd] * (x - nax)
        # Paged-trace x rule: lexicographic (x, y) >= (node.x, node.y);
        # an x tie is rare, so it is settled on its own points.
        cond = np.where(is_y, cross >= 0.0, x > nax)
        tie = x == nax
        if tie.any():
            tie &= ~is_y
            below = tie & (y < nay)
            cond |= tie & ~below
            diverged[apt[below]] = True
        nd = children[2 * nd + cond]
    return regions, last_out, tuning_out, diverged


def _trace_batch_trap(paged, points: Sequence[Point]) -> TraceBatch:
    """Flat-frontier descent of the paged trap-tree.

    One vectorized paged-trace descent (:func:`_trap_paged_descent`)
    walks all sheared queries level-synchronously.  ``effective_point``
    only nudges points whose *tree*-rule descent ends in an uncovered
    sliver, and that descent equals the paged one except after an x
    tie; so only the points that diverged at a tie or ended in a sliver
    are re-descended under the tree rules (``TrapTree._region_at``, per
    point), and only the degenerate ones among them are nudged by the
    scalar loop and traced again.  Any query still ending in an uncovered
    sliver defers to the per-point path, which raises the scalar error
    for the earliest failing point.
    """
    ct = _compile_trap(paged)
    if ct is None:
        return _trace_batch_generic(paged, points)
    from repro.pointloc.trapezoidal import SHEAR

    xs, ys = point_coords(points)
    col = active_collector()
    # Identical arithmetic to the scalar `_shear`.
    ex = xs + SHEAR * ys
    ey = ys.copy()
    dx = ct.bx - ct.ax
    dy = ct.by - ct.ay
    regions, last_out, tuning_out, diverged = _trap_paged_descent(
        ct, dx, dy, ex, ey, col
    )

    check = np.flatnonzero(diverged | (regions < 0))
    if check.size:
        # effective_point: the rare degenerate landings take the scalar
        # nudge loop per point, then are traced again.
        tree = paged.tree
        degenerate = np.array(
            [i for i in check.tolist() if tree._region_at(ex[i], ey[i]) < 0],
            np.intp,
        )
        if degenerate.size:
            if col is not None:
                col.count("trace.trap.nudged", degenerate.size)
            for i in degenerate.tolist():
                nudged = tree.effective_point(points[i])
                ex[i] = nudged.x
                ey[i] = nudged.y
            (
                regions[degenerate],
                last_out[degenerate],
                tuning_out[degenerate],
                _,
            ) = _trap_paged_descent(
                ct, dx, dy, ex[degenerate], ey[degenerate], None
            )

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

    The ``cell_*`` slots are the cell table over the service area
    (:func:`_trian_cell_table`), laid out as in
    :class:`_CompiledTrapTree`; the root state is the synthetic root
    directory.
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
        "cell_frame",
        "cell_side",
        "cell_node",
        "cell_last",
        "cell_tuning",
        "cell_depth",
    )


def _compile_trian(paged):
    """Compile the paged trian-tree, built once and cached on it.

    The paged tree's scan order is already the child CSR the tracer
    reads, so compiling is array assembly.  Validates the
    broadcast-order invariants the batched scan charging relies on:
    every child's packet at or after its parent's (the greedy
    broadcast-order allocator guarantees this) and a non-empty root
    level.  Returns None (cached) otherwise, deferring to the
    per-point path (:func:`_trace_batch_generic`).
    """
    compiled = _cached_compiled(paged, "_compiled_trian", _UNCOMPILED)
    if compiled is not _UNCOMPILED:
        return compiled
    tree = paged.tree
    start = paged.scan_offsets[:-1]
    count = np.diff(paged.scan_offsets)
    flat = paged.scan.astype(np.int64)
    pkt = paged.node_packet[flat].astype(np.int64)
    parent_pkt = np.append(paged.node_packet, paged._root_dir_packet)
    ok = (
        len(tree.region) > 0
        and len(tree.roots) > 0
        and bool((pkt >= np.repeat(parent_pkt, count)).all())
    )

    compiled = None
    if ok:
        # Running count of distinct packets in each child list's prefix:
        # a list is sorted by packet, so a packet is new where it differs
        # from the slot before it or opens the list.
        new = np.ones(len(flat), bool)
        new[1:] = pkt[1:] != pkt[:-1]
        new[start[count > 0]] = True
        seen = np.cumsum(new)
        ct = _CompiledTrianTree()
        ct.region = tree.region
        ct.child_start = start
        ct.child_count = count
        ct.child_flat = flat
        ct.child_pkt = pkt
        ct.child_distinct = seen - np.repeat(np.append(0, seen)[start], count)
        ct.ctri_ax = tree.x[flat, 0]
        ct.ctri_ay = tree.y[flat, 0]
        ct.ctri_bx = tree.x[flat, 1]
        ct.ctri_by = tree.y[flat, 1]
        ct.ctri_cx = tree.x[flat, 2]
        ct.ctri_cy = tree.y[flat, 2]
        _trian_cell_table(
            ct, tree.subdivision.service_area, paged._root_dir_packet
        )
        compiled = ct
    _store_compiled(paged, "_compiled_trian", compiled)
    return compiled


def _trian_cell_table(ct: _CompiledTrianTree, area, root_packet: int) -> None:
    """Fill *ct*'s cell table over the service *area*.  A cell moves to
    child slot ``f`` when every earlier sibling has an edge whose
    greatest cross product over the box is below ``-EPS`` (no point of
    the cell is in it) and all three of ``f``'s edges have their least
    at or above ``-EPS`` (every point is): the tracer's first containing
    child, for every point of the cell.  Tuning and last packet follow
    the tracer's charging; a descent stops before a gap triangle."""
    # Each slot's three edges as (ax, ay, bx - ax, by - ay): the
    # tracer's c1, c2 and c3 operands.
    edges = [
        (ax, ay, bx - ax, by - ay)
        for ax, ay, bx, by in (
            (ct.ctri_ax, ct.ctri_ay, ct.ctri_bx, ct.ctri_by),
            (ct.ctri_bx, ct.ctri_by, ct.ctri_cx, ct.ctri_cy),
            (ct.ctri_cx, ct.ctri_cy, ct.ctri_ax, ct.ctri_ay),
        )
    ]

    def step(node, last, tuning, lo_x, hi_x, lo_y, hi_y):
        starts = ct.child_start[node]
        flat, owner, first = ragged_ranges(starts, ct.child_count[node])
        box = (lo_x[owner], hi_x[owner], lo_y[owner], hi_y[owner])
        inside = np.ones(flat.size, bool)
        outside = np.zeros(flat.size, bool)
        for ax, ay, dx, dy in edges:
            least, greatest = _cross_range(
                dx[flat], dy[flat], ax[flat], ay[flat], *box
            )
            inside &= least >= -EPS
            outside |= greatest < -EPS
        # First slot that some point of the cell may stop at.
        pos = np.minimum.reduceat(
            np.where(outside, flat.size, np.arange(flat.size)), first
        )
        found = np.flatnonzero(pos < flat.size)
        pos = pos[found]
        f = flat[pos]
        inside = inside[pos]
        moved = np.zeros(node.size, bool)
        leaf = np.zeros(node.size, bool)
        child = ct.child_flat[f]
        leaf[found] = inside & (ct.child_count[child] == 0)
        moved[found] = inside & ~(leaf[found] & (ct.region[child] < 0))
        child = child[moved[found]]
        f = f[moved[found]]
        tuning = (
            tuning[moved]
            + ct.child_distinct[f]
            - (ct.child_pkt[starts[moved]] == last[moved])
        )
        return moved, leaf, child, ct.child_pkt[f], tuning

    box = (area.min_x, area.max_x, area.min_y, area.max_y)
    root = (len(ct.region), root_packet, 1, False)
    _build_cell_table(ct, box, len(ct.region), root, step)


def _trace_batch_trian(paged, points: Sequence[Point]) -> TraceBatch:
    """Level-synchronous descent of the paged trian-tree.

    Each point starts at its grid cell's certified node
    (:func:`_trian_cell_table`).  Every level expands the frontier's
    candidate children into one ragged array, tests them with a single
    batched point-in-triangle sweep over the ``ctri_*`` operands (the
    arithmetic of
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

    apt = np.arange(n)  # active point index
    # Each point starts at its cell's certified node (the synthetic
    # root directory outside the grid), with the packets the skipped
    # scans read; the root directory is always read.
    cell = _cell_of(ct.cell_frame, ct.cell_side, xs, ys)
    anode = ct.cell_node[cell]
    alast = ct.cell_last[cell]
    atun = ct.cell_tuning[cell].astype(np.int64)
    if col is not None:
        col.count("trace.trian.cell_skipped", int(ct.cell_depth[cell].sum()))

    flat_sentinel = np.iinfo(np.int64).max
    while apt.size:
        term = ct.child_count[anode] == 0
        if term.any():
            at = np.flatnonzero(term)
            treg = ct.region[anode[at]]
            if (treg < 0).any():
                # Gap triangle: "outside the subdivided area" per point.
                _trace_batch_generic(paged, points)
                raise QueryError("trian-tree descent failed")  # pragma: no cover
            done = apt[at]
            regions[done] = treg
            last_out[done] = alast[at]
            tuning_out[done] = atun[at]
            keep = ~term
            apt = apt[keep]
            anode = anode[keep]
            alast = alast[keep]
            atun = atun[keep]
            if apt.size == 0:
                break
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

    return TraceBatch(regions, last_out, tuning_out)
