"""Channel error models: who decides that a packet read is lost.

The paper evaluates over an error-free channel (§5); a real wireless
broadcast drops and corrupts packets.  Both failure kinds look the same
to a client — a CRC failure on the received frame — so one predicate
covers them: :meth:`ErrorModel.packet_lost` is asked once per read
attempt, with the absolute packet slot being read.

Two classic models are provided:

* :class:`BernoulliLoss` — i.i.d. loss with a fixed rate (memoryless
  interference);
* :class:`GilbertElliott` — the two-state (good/bad) Markov channel of
  Gilbert (1960) / Elliott (1963), producing *bursty* loss: a client
  caught in a fade loses several consecutive packets.  The chain is
  advanced lazily between reads with the closed-form n-step transition,
  so dozing across half a broadcast cycle costs O(1), not O(cycle).

All randomness flows through one injected ``random.Random`` so a
simulation run is reproducible from a single seed.

Each model also describes, through :meth:`ErrorModel.loss_free_draws`,
the draws a read sequence consumes if none of its reads is lost, and
the threshold each draw must clear for that to hold.  The batched
walker (:meth:`~repro.broadcast.client.BroadcastClient.run_batch`)
checks whole workloads against that layout and walks only the queries
a loss touches, keeping the shared stream bit-identical.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

import numpy as np

from repro.errors import BroadcastError

#: ``(draw_offsets, thresholds)``: query *i* consumes draws
#: ``draw_offsets[i] : draw_offsets[i + 1]`` of the stream, and every
#: draw must be ``>= thresholds[k]`` for its read sequence to be loss-free.
DrawLayout = Tuple[np.ndarray, np.ndarray]


class ErrorModel:
    """Base class: a deterministic (given its rng) loss process.

    Subclasses implement :meth:`packet_lost`; the simulator calls
    :meth:`reset` once per run and :meth:`start_query` once per query
    (each query models an independent client, so channel state does not
    leak between them — only the rng stream is shared).
    """

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self._rng = rng if rng is not None else random.Random(0)

    def reset(self, rng: random.Random) -> None:
        """Rebind the rng (fresh, seeded) for a new simulation run."""
        self._rng = rng

    def start_query(self) -> None:
        """Begin an independent client's read sequence (no-op by default)."""

    def packet_lost(self, slot: int) -> bool:
        """Was the packet occupying broadcast slot *slot* lost/corrupted?

        Within one query, calls arrive with non-decreasing slots (the
        channel is linear in time).
        """
        raise NotImplementedError

    def loss_free_draws(
        self, slots: np.ndarray, read_offsets: np.ndarray
    ) -> Optional[DrawLayout]:
        """The draw layout of loss-free read sequences, or None.

        Query *i* reads broadcast slots ``slots[read_offsets[i] :
        read_offsets[i + 1]]`` in order (one :meth:`start_query`, then
        one :meth:`packet_lost` per slot).  Returns the
        :data:`DrawLayout` under which that sequence consumes exactly
        the given draws and loses nothing.  A subclass that changes
        :meth:`start_query` or :meth:`packet_lost` must override this
        too; the default None makes every query walk one by one.
        """
        return None


class PerfectChannel(ErrorModel):
    """The paper's assumption: every read succeeds."""

    def packet_lost(self, slot: int) -> bool:
        return False

    def loss_free_draws(self, slots, read_offsets) -> DrawLayout:
        """No draws at all."""
        return np.zeros(len(read_offsets), np.int64), np.zeros(0, np.float64)

    def __repr__(self) -> str:
        return "PerfectChannel()"


class BernoulliLoss(ErrorModel):
    """I.i.d. packet loss: each read fails with probability ``rate``."""

    def __init__(self, rate: float, rng: Optional[random.Random] = None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise BroadcastError(f"loss rate must be in [0, 1], got {rate}")
        super().__init__(rng)
        self.rate = rate

    def packet_lost(self, slot: int) -> bool:
        return self._rng.random() < self.rate

    def loss_free_draws(self, slots, read_offsets) -> DrawLayout:
        """One draw per read, each at least ``rate``."""
        return np.array(read_offsets, np.int64), np.full(len(slots), self.rate)

    def __repr__(self) -> str:
        return f"BernoulliLoss(rate={self.rate:g})"


class GilbertElliott(ErrorModel):
    """Two-state bursty loss: a good state and a fade ("bad") state.

    ``p_good_to_bad`` / ``p_bad_to_good`` are per-slot transition
    probabilities; ``loss_good`` / ``loss_bad`` the loss probability
    while in each state.  Mean fade length is ``1 / p_bad_to_good``
    slots and the stationary loss rate is

        rate = loss_good * pi_good + loss_bad * pi_bad,
        pi_bad = p_good_to_bad / (p_good_to_bad + p_bad_to_good).

    Each query starts from the stationary distribution; in between two
    reads of one query the chain is advanced with the exact n-step
    transition probability, so long doze periods are O(1).
    """

    def __init__(
        self,
        p_good_to_bad: float,
        p_bad_to_good: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        for name, value in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= value <= 1.0:
                raise BroadcastError(f"{name} must be in [0, 1], got {value}")
        super().__init__(rng)
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        total = p_good_to_bad + p_bad_to_good
        self._pi_bad = p_good_to_bad / total if total != 0.0 else 0.0
        #: The chain's second eigenvalue, 1 - p_good_to_bad - p_bad_to_good.
        self._lam = 1.0 - p_good_to_bad - p_bad_to_good
        self._bad = False
        self._slot: Optional[int] = None

    @classmethod
    def from_loss_rate(
        cls,
        rate: float,
        mean_burst: float = 4.0,
        rng: Optional[random.Random] = None,
    ) -> "GilbertElliott":
        """A bursty channel with stationary loss probability *rate* and
        mean fade length *mean_burst* slots (fades lose every packet)."""
        if not 0.0 <= rate < 1.0:
            raise BroadcastError(f"loss rate must be in [0, 1), got {rate}")
        if mean_burst < 1.0:
            raise BroadcastError(f"mean burst must be >= 1 slot, got {mean_burst}")
        p_bad_to_good = 1.0 / mean_burst
        p_good_to_bad = rate * p_bad_to_good / (1.0 - rate)
        return cls(p_good_to_bad, p_bad_to_good, rng=rng)

    @property
    def stationary_bad(self) -> float:
        """Stationary probability of the fade state (fixed at
        construction, like the transition probabilities)."""
        return self._pi_bad

    @property
    def stationary_loss_rate(self) -> float:
        """Long-run fraction of lost packets."""
        pi_bad = self.stationary_bad
        return self.loss_good * (1.0 - pi_bad) + self.loss_bad * pi_bad

    def start_query(self) -> None:
        """Draw the fade state from the stationary distribution."""
        self._bad = self._rng.random() < self._pi_bad
        self._slot = None

    def _bad_probability_after(
        self, steps: int, bad: Optional[bool] = None
    ) -> float:
        """P(bad after *steps* slots | state *bad* now, default the
        current state), in closed form: pi_bad + (1{bad} - pi_bad) *
        lambda^steps with lambda = 1 - p_good_to_bad - p_bad_to_good."""
        pi_bad = self._pi_bad
        start = 1.0 if (self._bad if bad is None else bad) else 0.0
        return pi_bad + (start - pi_bad) * self._lam**steps

    def packet_lost(self, slot: int) -> bool:
        if self._slot is not None:
            steps = max(slot - self._slot, 0)
            if steps:
                self._bad = self._rng.random() < self._bad_probability_after(steps)
        self._slot = slot
        loss = self.loss_bad if self._bad else self.loss_good
        return self._rng.random() < loss

    def loss_free_draws(self, slots, read_offsets) -> DrawLayout:
        """The sequences that stay in the good state throughout: a start
        draw of at least ``stationary_bad``; per read after the first
        that moves the clock, a transition draw of at least the
        good-state ``_bad_probability_after(steps)``; per read, a loss
        draw of at least ``loss_good``."""
        read_offsets = np.asarray(read_offsets, np.int64)
        n = len(read_offsets) - 1
        counts = np.diff(read_offsets)
        steps = np.zeros(len(slots), np.int64)
        steps[1:] = np.diff(slots)
        steps[read_offsets[:-1][counts > 0]] = 0  # a query's first read
        moves = steps > 0
        per_read = 1 + moves
        owner = np.repeat(np.arange(n, dtype=np.int64), counts)
        read_draw = np.cumsum(per_read) - per_read + owner + 1
        moved = np.zeros(len(slots) + 1, np.int64)
        np.cumsum(moves, out=moved[1:])
        draw_offsets = read_offsets + moved[read_offsets] + np.arange(n + 1)
        thresholds = np.empty(int(draw_offsets[-1]), np.float64)
        thresholds[draw_offsets[:-1]] = self.stationary_bad
        distinct, inverse = np.unique(steps[moves], return_inverse=True)
        table = np.array(
            [self._bad_probability_after(int(s), False) for s in distinct.tolist()],
            np.float64,
        )
        thresholds[read_draw[moves]] = table[inverse]
        thresholds[read_draw + moves] = self.loss_good
        return draw_offsets, thresholds

    def __repr__(self) -> str:
        return (
            f"GilbertElliott(rate={self.stationary_loss_rate:.4g}, "
            f"burst={1.0 / self.p_bad_to_good if self.p_bad_to_good else float('inf'):.3g})"
        )


#: Factory names accepted by :func:`make_error_model` and the CLI.
ERROR_MODEL_KINDS = ("bernoulli", "gilbert")


def make_error_model(
    kind: str,
    rate: float,
    mean_burst: float = 4.0,
    rng: Optional[random.Random] = None,
) -> ErrorModel:
    """Build an error model by kind name at a target loss rate."""
    kind = kind.lower()
    if kind == "bernoulli":
        return BernoulliLoss(rate, rng=rng)
    if kind == "gilbert":
        return GilbertElliott.from_loss_rate(rate, mean_burst=mean_burst, rng=rng)
    raise BroadcastError(
        f"unknown error model {kind!r} (choose from {', '.join(ERROR_MODEL_KINDS)})"
    )
