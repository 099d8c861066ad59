"""Zero-copy sharing of compiled index state across worker processes.

Compiling a paged index to its structure-of-arrays form
(:mod:`repro.engine.trace`) is the expensive part of engine start-up,
and the compiled arrays are strictly read-only during evaluation.  The
fleet layer therefore builds them **once** in the parent, copies them
into a single :class:`multiprocessing.shared_memory.SharedMemory` block,
and hands workers a *manifest* — ``name -> (offset, dtype, shape)`` —
from which each worker reconstructs numpy views into the very same
pages.  No per-worker copy, no per-worker recompilation, O(1) attach.

Two groups of arrays travel through the arena:

* ``{family}.{slot}`` — every ndarray slot of the paged index's compiled
  form (:func:`~repro.engine.trace.compiled_form`; scalar slots such as
  the D-tree's ``root`` ride in the meta dict).  The compiled forms of
  all four built-in families hold nothing but arrays, so each fans out
  zero-copy and is rebuilt in a worker by setting its slots;
* ``schedule.*`` — the timeline's memoized arrays
  (:meth:`~repro.broadcast.schedule.BroadcastSchedule.timeline_arrays`:
  index-segment starts, dense region->airings table), shipped whenever
  the timeline is a single channel.

A paged index without a compiled form, or whose compile step declines,
falls back to the ``generic`` family: workers share the ``schedule.*``
arrays only and trace through the per-point reference path.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Dict, Tuple

import numpy as np

from repro.errors import ReproError
from repro.broadcast.plan import single_channel_view
from repro.broadcast.schedule import BroadcastSchedule
from repro.engine.trace import _store_compiled, compiled_form

#: Byte alignment of every array inside the arena block.
_ALIGN = 64

#: Manifest entry: (byte offset, dtype string, shape tuple).
ManifestEntry = Tuple[int, str, Tuple[int, ...]]
Manifest = Dict[str, ManifestEntry]


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


def export_compiled_state(paged, schedule) -> Tuple[Dict[str, np.ndarray], dict]:
    """Arrays + meta describing *paged*'s compiled form and *schedule*'s
    memoized timeline arrays, ready for :meth:`ShmArena.create`."""
    arrays: Dict[str, np.ndarray] = {}
    meta: dict = {"family": "generic"}
    form = compiled_form(paged)
    if form is not None:
        family, compiled = form
        meta = {"family": family, "layout": type(compiled)}
        for slot in type(compiled).__slots__:
            value = getattr(compiled, slot)
            target = arrays if isinstance(value, np.ndarray) else meta
            target[f"{family}.{slot}"] = value
    timeline = single_channel_view(schedule)
    if isinstance(timeline, BroadcastSchedule):
        starts, airings = timeline.timeline_arrays()
        arrays["schedule.segment_starts"] = starts
        arrays["schedule.airings"] = airings
    meta["index_version"] = _index_version(paged)
    return arrays, meta


def _index_version(paged) -> int:
    """Version stamp of *paged*'s packets (0 for static indexes)."""
    packets = getattr(paged, "packets", None)
    return int(packets[0].version) if packets else 0


def attach_compiled_state(
    paged, views: Dict[str, np.ndarray], meta: dict, schedule=None
) -> None:
    """Install shared-memory views as *paged*'s compiled cache (and
    *schedule*'s timeline arrays), so the worker never recompiles.

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
    layout = meta.get("layout")
    if layout is not None:
        family = meta["family"]
        compiled = layout.__new__(layout)
        for slot in layout.__slots__:
            key = f"{family}.{slot}"
            setattr(compiled, slot, views[key] if key in views else meta[key])
        _store_compiled(paged, f"_compiled_{family}", compiled)
    if schedule is not None and "schedule.segment_starts" in views:
        single_channel_view(schedule)._timeline_arrays = (
            views["schedule.segment_starts"],
            views["schedule.airings"],
        )
