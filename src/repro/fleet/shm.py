"""Zero-copy sharing of compiled index state across worker processes.

Compiling a paged index to its structure-of-arrays form
(:mod:`repro.engine.trace`) is the expensive part of engine start-up,
and the compiled arrays are strictly read-only during evaluation.  The
fleet layer therefore builds them **once** in the parent, copies them
into a single :class:`multiprocessing.shared_memory.SharedMemory` block,
and hands workers a *manifest* — ``name -> (offset, dtype, shape)`` —
from which each worker reconstructs numpy views into the very same
pages.  No per-worker copy, no per-worker recompilation, O(1) attach.

Three groups of arrays travel through the arena:

* ``dtree.*`` — every array slot of
  :class:`~repro.engine.trace._CompiledDTree` (the scalar ``root`` rides
  in the meta dict);
* ``rstar.*`` — the per-entry MBR arrays of all
  :class:`~repro.engine.trace._CompiledRStarNode` nodes pooled in DFS
  preorder (node structure, packet ids and leaf payloads ride in the
  meta dict; leaf polygons are recompiled per worker from the pickled
  subdivision — they are small and their compiled form caches itself);
* ``trap.*`` — every array slot of
  :class:`~repro.engine.trace._CompiledTrapTree` (the flattened
  trapezoidal-map DAG is pure SoA, nothing rides in the meta dict);
* ``trian.*`` — every array slot of
  :class:`~repro.engine.trace._CompiledTrianTree` (the CSR child
  directory plus per-slot triangle vertices; the root-directory packet
  lives on the pickled paged index itself);
* ``schedule.*`` — the engine schedule's memoized timeline arrays
  (:meth:`~repro.broadcast.schedule.BroadcastSchedule.timeline_arrays`:
  index-segment starts, dense region->position map).

All four index families therefore fan out zero-copy.  A paged index
whose compile step declines (``_compile_* -> None``) falls back to the
``generic`` family: workers share the ``schedule.*`` arrays only and
trace through the per-point reference path.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.engine.trace import (
    _CompiledDTree,
    _CompiledRStarNode,
    _CompiledTrapTree,
    _CompiledTrianTree,
    _compile_dtree,
    _compile_rstar,
    _compile_trap,
    _compile_trian,
    _store_compiled,
)

#: Byte alignment of every array inside the arena block.
_ALIGN = 64

#: Manifest entry: (byte offset, dtype string, shape tuple).
ManifestEntry = Tuple[int, str, Tuple[int, ...]]
Manifest = Dict[str, ManifestEntry]

#: Array slots of _CompiledDTree shipped through the arena (everything
#: except the scalar ``root``).
_DTREE_SLOTS = tuple(s for s in _CompiledDTree.__slots__ if s != "root")

#: Array slots of the compiled trap/trian trees — pure SoA, every slot
#: is an ndarray, so the whole compiled object ships through the arena.
_TRAP_SLOTS = tuple(_CompiledTrapTree.__slots__)
_TRIAN_SLOTS = tuple(_CompiledTrianTree.__slots__)


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class ShmArena:
    """One shared-memory block holding many named read-only arrays."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        manifest: Manifest,
        owner: bool,
    ) -> None:
        self.shm = shm
        self.manifest = manifest
        #: Whether this process created (and must unlink) the block.
        self.owner = owner

    @classmethod
    def create(cls, arrays: Dict[str, np.ndarray]) -> "ShmArena":
        """Copy *arrays* into a fresh shared block; returns the arena."""
        manifest: Manifest = {}
        offset = 0
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            offset = _align(offset)
            manifest[name] = (offset, arr.dtype.str, arr.shape)
            offset += arr.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        arena = cls(shm, manifest, owner=True)
        for name, arr in arrays.items():
            view = arena.view(name)
            view[...] = np.ascontiguousarray(arr)
        return arena

    @classmethod
    def attach(cls, name: str, manifest: Manifest) -> "ShmArena":
        """Attach to an existing block by name (zero-copy)."""
        try:
            # track=False (3.13+) keeps the resource tracker from
            # unlinking the parent's block when this attachment closes.
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # pragma: no cover - pre-3.13 signature
            shm = shared_memory.SharedMemory(name=name)
        return cls(shm, manifest, owner=False)

    def view(self, name: str) -> np.ndarray:
        """Numpy view of one named array, backed by the shared pages."""
        entry = self.manifest.get(name)
        if entry is None:
            raise ReproError(f"array {name!r} not in the arena manifest")
        offset, dtype, shape = entry
        return np.ndarray(shape, dtype=dtype, buffer=self.shm.buf, offset=offset)

    def views(self) -> Dict[str, np.ndarray]:
        return {name: self.view(name) for name in self.manifest}

    def close(self) -> None:
        """Detach this process's mapping (views become invalid)."""
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - live views still exported
            pass

    def unlink(self) -> None:
        """Destroy the block (owner only; idempotent)."""
        if self.owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __repr__(self) -> str:
        return (
            f"ShmArena({self.shm.name}, arrays={len(self.manifest)}, "
            f"bytes={self.shm.size})"
        )


# -- compiled-state export / attach ------------------------------------------


def _export_rstar(root: _CompiledRStarNode) -> Tuple[Dict[str, np.ndarray], dict]:
    """Pool the compiled R*-tree's MBR arrays in DFS preorder."""
    nodes: List[_CompiledRStarNode] = []

    def walk(cn: _CompiledRStarNode) -> None:
        nodes.append(cn)
        if not cn.is_leaf:
            for child in cn.children:
                walk(child)

    walk(root)
    counts = [len(cn.min_x) for cn in nodes]
    arrays = {
        f"rstar.{field}": np.concatenate([getattr(cn, field) for cn in nodes])
        for field in ("min_x", "min_y", "max_x", "max_y")
    }
    meta = {
        "entry_counts": counts,
        "is_leaf": [cn.is_leaf for cn in nodes],
        "packets": [cn.packet for cn in nodes],
        "leaf_regions": [cn.region_ids if cn.is_leaf else None for cn in nodes],
        "leaf_shapes": [
            cn.shape_packets if cn.is_leaf else None for cn in nodes
        ],
    }
    return arrays, meta


def _attach_rstar(paged, views: Dict[str, np.ndarray], meta: dict) -> None:
    """Rebuild the compiled R*-tree node graph over shared MBR views."""
    subdivision = paged.tree.subdivision
    counts = meta["entry_counts"]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    cursor = [0]  # preorder index of the next node to materialize

    def build() -> _CompiledRStarNode:
        i = cursor[0]
        cursor[0] += 1
        cn = _CompiledRStarNode()
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        for field in ("min_x", "min_y", "max_x", "max_y"):
            setattr(cn, field, views[f"rstar.{field}"][lo:hi])
        cn.packet = meta["packets"][i]
        cn.is_leaf = meta["is_leaf"][i]
        if cn.is_leaf:
            cn.children = None
            cn.region_ids = meta["leaf_regions"][i]
            cn.shape_packets = meta["leaf_shapes"][i]
            cn.polygons = [
                subdivision.region(rid).polygon.compiled()
                for rid in cn.region_ids
            ]
        else:
            cn.children = [build() for _ in range(hi - lo)]
            cn.region_ids = None
            cn.shape_packets = None
            cn.polygons = None
        return cn

    _store_compiled(paged, "_compiled_rstar", build())


def export_compiled_state(paged, engine) -> Tuple[Dict[str, np.ndarray], dict]:
    """Arrays + meta describing *paged*'s compiled form and *engine*'s
    memoized schedule arrays, ready for :meth:`ShmArena.create`."""
    from repro.core.paging import PagedDTree
    from repro.pointloc.kirkpatrick import PagedTrianTree
    from repro.pointloc.trapezoidal import PagedTrapTree
    from repro.rstar.paged import PagedRStarTree

    arrays: Dict[str, np.ndarray] = {}
    meta: dict = {"family": "generic"}
    if isinstance(paged, PagedDTree):
        ct = _compile_dtree(paged)
        meta = {"family": "dtree", "root": int(ct.root)}
        for slot in _DTREE_SLOTS:
            arrays[f"dtree.{slot}"] = getattr(ct, slot)
    elif isinstance(paged, PagedRStarTree):
        rstar_arrays, rstar_meta = _export_rstar(_compile_rstar(paged))
        arrays.update(rstar_arrays)
        meta = {"family": "rstar", **rstar_meta}
    elif isinstance(paged, PagedTrapTree):
        ct = _compile_trap(paged)
        if ct is not None:
            meta = {"family": "trap"}
            for slot in _TRAP_SLOTS:
                arrays[f"trap.{slot}"] = getattr(ct, slot)
    elif isinstance(paged, PagedTrianTree):
        ct = _compile_trian(paged)
        if ct is not None:
            meta = {"family": "trian"}
            for slot in _TRIAN_SLOTS:
                arrays[f"trian.{slot}"] = getattr(ct, slot)
    if getattr(engine, "_vectorized", False):
        starts, positions = engine.schedule.timeline_arrays()
        arrays["schedule.segment_starts"] = starts
        arrays["schedule.bucket_position"] = positions
    meta["index_version"] = _index_version(paged)
    return arrays, meta


def _index_version(paged) -> int:
    """Version stamp of *paged*'s packets (0 for static indexes)."""
    packets = getattr(paged, "packets", None)
    return int(packets[0].version) if packets else 0


def attach_compiled_state(
    paged, views: Dict[str, np.ndarray], meta: dict, engine=None
) -> None:
    """Install shared-memory views as *paged*'s compiled caches (and the
    engine's schedule arrays), so the worker never recompiles.

    The arena is keyed by index version: attaching compiled state that
    was exported for a different version of the index (the parent
    applied updates after exporting) would silently serve stale answers,
    so a mismatch is an error.
    """
    exported = meta.get("index_version", 0)
    current = _index_version(paged)
    if exported != current:
        raise ReproError(
            f"arena holds compiled state for index version {exported} but "
            f"the paged index is at version {current} — re-export after "
            "applying updates"
        )
    family = meta.get("family")
    if family == "dtree":
        ct = _CompiledDTree()
        ct.root = meta["root"]
        for slot in _DTREE_SLOTS:
            setattr(ct, slot, views[f"dtree.{slot}"])
        _store_compiled(paged, "_compiled_dtree", ct)
    elif family == "rstar":
        _attach_rstar(paged, views, meta)
    elif family == "trap":
        ct = _CompiledTrapTree()
        for slot in _TRAP_SLOTS:
            setattr(ct, slot, views[f"trap.{slot}"])
        _store_compiled(paged, "_compiled_trap", ct)
    elif family == "trian":
        ct = _CompiledTrianTree()
        for slot in _TRIAN_SLOTS:
            setattr(ct, slot, views[f"trian.{slot}"])
        _store_compiled(paged, "_compiled_trian", ct)
    if engine is not None and "schedule.segment_starts" in views:
        engine.schedule._timeline_arrays = (
            views["schedule.segment_starts"],
            views["schedule.bucket_position"],
        )
