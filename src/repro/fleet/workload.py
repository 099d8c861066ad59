"""Chunked fleet workloads with chunk-size-invariant randomness.

The determinism contract of the fleet layer is stronger than "same seed,
same result": results must be **bit-for-bit independent of the chunking
and the worker count**.  A sequential ``Generator`` cannot deliver that —
splitting 1M draws into 4 chunks of 250k changes nothing, but any other
chunking would need the generator state mid-stream.

Philox is a counter-based bit generator: ``Philox.advance(delta)`` jumps
the counter by *delta* 128-bit blocks, each block yielding exactly four
``uint64`` outputs.  :class:`UniformFleetWorkload` charges **one block
per query** (x, y, issue time, one discarded word), so the draws for
queries ``[start, start + m)`` are obtained by advancing a fresh
generator ``start`` blocks — identical to the corresponding slice of the
monolithic stream, for every chunking.  (Three words per query would
cost 25 % less entropy but straddle block boundaries, breaking the
alignment — verified empirically before this layout was chosen.)

Per-chunk *channel* seeds (for lossy simulation) come from
``np.random.SeedSequence(entropy, spawn_key=(chunk,))`` — the documented
way to derive independent child streams without coordination.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ReproError
from repro.geometry.point import PointBatch
from repro.geometry.rect import Rect

#: uint64 outputs per Philox counter block — the advance() unit.
_WORDS_PER_BLOCK = 4


def spawned_seed(entropy: int, key: int) -> int:
    """A deterministic child seed for stream *key* under root *entropy*.

    ``SeedSequence.spawn`` without the statefulness: the same (entropy,
    key) pair always yields the same child, and children of distinct
    keys are independent by SeedSequence's hashing guarantees.
    """
    child = np.random.SeedSequence(entropy=entropy, spawn_key=(key,))
    return int(child.generate_state(2, np.uint64).view(np.uint64)[0])


class UniformFleetWorkload:
    """Uniform point queries over a rectangle, addressable by chunk.

    Picklable by construction (bounds + ints only) so workers can
    regenerate their own chunks instead of receiving point lists.
    """

    def __init__(
        self,
        area: Rect,
        cycle_length: int,
        seed: int = 0,
    ) -> None:
        if cycle_length <= 0:
            raise ReproError(
                f"cycle length must be positive, got {cycle_length}"
            )
        self.area = area
        #: Broadcast-cycle length in packets; issue times are uniform
        #: over one cycle, like the engine's ``_uniform_issue_times``.
        self.cycle_length = cycle_length
        self.seed = seed

    def _generator_at(self, start: int) -> np.random.Generator:
        bg = np.random.Philox(np.random.SeedSequence(self.seed))
        bg.advance(start)  # counts 128-bit blocks == queries
        return np.random.Generator(bg)

    def chunk(self, start: int, size: int) -> Tuple[PointBatch, np.ndarray]:
        """Queries ``[start, start + size)`` of the workload: their points,
        as one array-backed :class:`~repro.geometry.point.PointBatch`, and
        their issue times (float packets within one cycle).

        ``chunk(0, n)`` equals ``chunk(0, k)`` + ``chunk(k, n - k)``
        concatenated, bit for bit, for every split point ``k``.
        """
        if start < 0 or size < 0:
            raise ReproError(
                f"invalid chunk [{start}, {start} + {size})"
            )
        g = self._generator_at(start)
        u = g.random((size, _WORDS_PER_BLOCK))
        xs = self.area.min_x + u[:, 0] * (self.area.max_x - self.area.min_x)
        ys = self.area.min_y + u[:, 1] * (self.area.max_y - self.area.min_y)
        issue_times = u[:, 2] * self.cycle_length
        # u[:, 3] is discarded: the price of block alignment.
        return PointBatch(xs, ys), issue_times

    def __repr__(self) -> str:
        return (
            f"UniformFleetWorkload(area={self.area!r}, "
            f"cycle_length={self.cycle_length}, seed={self.seed})"
        )
