"""A fixed CPU kernel that measures how fast the host is running now.

The benchmark host shares its cores with other tenants, and their load
changes the speed of all work in this process by up to 2x for minutes
at a time.  The kernel below is timed next to every measured round; it
is independent of the program, so scaling a timing by ``REFERENCE_S /
kernel time`` removes the host's speed from it and leaves the
program's.  The kernel mixes what the workloads do: small-object
churn and attribute access, dict updates, small-array and large-array
numpy calls.
"""

from __future__ import annotations

import random
from time import perf_counter

import numpy as np

#: The kernel's median time on the 2-core host the benchmark was
#: defined on; scaled timings read as if the host ran at that speed.
REFERENCE_S = 0.05

_BIG = np.random.default_rng(0).random(150_000)
_SMALL = np.random.default_rng(1).random((1_000, 8))


class _Cell:
    __slots__ = ("x", "y", "hits")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y
        self.hits = 0


def kernel_seconds() -> float:
    """Time one pass of the kernel."""
    t0 = perf_counter()
    rng = random.Random(0)
    cells = [_Cell(rng.random(), rng.random()) for _ in range(15_000)]
    table = {}
    for i, cell in enumerate(cells * 3):
        key = int(cell.x * 64) ^ int(cell.y * 64)
        table[key] = table.get(key, 0.0) + cell.x * cell.y
        cell.hits += i & 1
    for row in _SMALL:
        np.hypot(row - row.mean(), row[::-1]).min()
    for _ in range(2):
        a = _BIG.copy()
        a.sort()
        np.searchsorted(a, _BIG[:25_000])
        np.cumsum(a)
    return perf_counter() - t0
