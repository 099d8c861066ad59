"""Counters, histograms and spans behind one nullable module handle.

The design constraint is the inertness contract: instrumented code must
be bit-for-bit identical to uninstrumented code when no collector is
installed, and measurably cheap (< 5 % on the batched engine) when one
is.  Three consequences:

* the *only* global state is :data:`_ACTIVE`, read through
  :func:`active_collector` — a plain module-global load plus a ``None``
  check, done once per run/query/kernel call rather than per event;
* recording never touches the observed values beyond reading them
  (no rng, no rounding, no mutation), so enabled runs produce the same
  results as disabled runs;
* spans time with :func:`time.perf_counter` and the disabled path uses
  the shared reusable no-op context manager :data:`NULL_SPAN`, so a
  ``with span(...)`` line costs two trivial method calls when profiling
  is off.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np


class Histogram:
    """A power-of-two bucketed value distribution (count/sum/min/max).

    Buckets are upper-bound inclusive: bucket ``le`` counts values in
    ``(le/2, le]`` (with ``le = 1`` also covering everything at or
    below 1).  Bounded size regardless of how many values land in it,
    which keeps profile documents small for per-level / per-kernel-call
    observations.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: upper bound (power of two) -> number of observations.
        self.buckets: Dict[int, int] = {}

    @staticmethod
    def bucket_of(value: float) -> int:
        """Smallest power-of-two upper bound covering *value*."""
        if value <= 1:
            return 1
        le = 1
        while le < value:
            le <<= 1
        return le

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        le = self.bucket_of(value)
        self.buckets[le] = self.buckets.get(le, 0) + 1

    def observe_many(self, values: Sequence[float]) -> None:
        """:meth:`observe` of every value, in array passes.

        ``total`` is a left-to-right ``np.add.accumulate`` (not a pairwise
        sum), and a bucket is read off ``np.frexp``'s exact exponent, so
        the result is bit-equal to observing the values one by one.
        """
        arr = np.asarray(values, np.float64).ravel()
        if not arr.size:
            return
        self.count += arr.size
        self.total = float(np.add.accumulate(np.r_[self.total, arr])[-1])
        # argmin/argmax return the first extreme, as the strict
        # comparisons of observe() keep it.
        lo = float(arr[arr.argmin()])
        hi = float(arr[arr.argmax()])
        if self.min is None or lo < self.min:
            self.min = lo
        if self.max is None or hi > self.max:
            self.max = hi
        # value = mantissa * 2**exp with mantissa in [0.5, 1): the bound is
        # 2**exp, or 2**(exp - 1) when value is itself a power of two.
        mantissa, exp = np.frexp(arr)
        exp = np.where(arr > 1, exp - (mantissa == 0.5), 0)
        found, counts = np.unique(exp, return_counts=True)
        for e, n in zip(found.tolist(), counts.tolist()):
            le = 1 << e
            self.buckets[le] = self.buckets.get(le, 0) + n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold *other*'s observations into this histogram (in place).

        Merging is exact — the bucket layout is value-determined, not
        data-determined — so a histogram merged from per-worker shards
        equals the histogram of the monolithic observation stream.
        """
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        for le, n in other.buckets.items():
            self.buckets[le] = self.buckets.get(le, 0) + n
        return self

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {str(le): n for le, n in sorted(self.buckets.items())},
        }

    def __repr__(self) -> str:
        return (
            f"Histogram(count={self.count}, mean={self.mean:.2f}, "
            f"max={self.max})"
        )


class SpanRecord:
    """One completed span: what ran, under what, when, for how long."""

    __slots__ = ("name", "parent", "start_s", "elapsed_s")

    def __init__(
        self, name: str, parent: Optional[str], start_s: float, elapsed_s: float
    ) -> None:
        self.name = name
        #: Name of the enclosing span, or None at top level.
        self.parent = parent
        #: Start instant relative to the collector's creation.
        self.start_s = start_s
        self.elapsed_s = elapsed_s

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "parent": self.parent,
            "start_s": self.start_s,
            "elapsed_s": self.elapsed_s,
        }

    def __repr__(self) -> str:
        return f"SpanRecord({self.name!r}, {self.elapsed_s * 1000:.3f}ms)"


class _NullSpan:
    """Reusable no-op context manager — the disabled span path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


#: The shared no-op span; reentrant and stateless.
NULL_SPAN = _NullSpan()


def null_span(name: str) -> _NullSpan:
    """Signature-compatible stand-in for :meth:`Collector.span`."""
    return NULL_SPAN


class _SpanContext:
    """Context manager recording one span into its collector."""

    __slots__ = ("_collector", "_name", "_start")

    def __init__(self, collector: "Collector", name: str) -> None:
        self._collector = collector
        self._name = name

    def __enter__(self) -> "_SpanContext":
        self._collector._stack.append(self._name)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = perf_counter() - self._start
        col = self._collector
        col._stack.pop()
        parent = col._stack[-1] if col._stack else None
        if len(col.spans) < col.max_spans:
            col.spans.append(
                SpanRecord(
                    self._name,
                    parent,
                    self._start - col._t0,
                    elapsed,
                )
            )
        else:
            col.dropped_spans += 1


class Collector:
    """Accumulates counters, histograms and spans for one profiled run."""

    __slots__ = (
        "counters",
        "histograms",
        "spans",
        "max_spans",
        "dropped_spans",
        "_stack",
        "_t0",
    )

    def __init__(self, max_spans: int = 100_000) -> None:
        #: name -> accumulated value (ints stay ints until a float lands).
        self.counters: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.spans: List[SpanRecord] = []
        #: Cap on individual span records (a figure sweep emits many);
        #: overflow is counted in :attr:`dropped_spans`, never raised.
        self.max_spans = max_spans
        self.dropped_spans = 0
        self._stack: List[str] = []
        self._t0 = perf_counter()

    # -- recording ----------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Add *value* to the named counter (creating it at 0)."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + value

    def count_each(self, name: str, values: np.ndarray) -> None:
        """Add every value of a float64 array to the named counter, left
        to right: the sum one :meth:`count` per value would leave, bit
        for bit (a running ``np.add.accumulate``, not ``np.sum``'s
        pairwise order or 3.12+ ``sum()``'s compensated one)."""
        if len(values):
            running = np.concatenate(([self.counters.get(name, 0)], values))
            self.counters[name] = float(np.add.accumulate(running)[-1])

    def observe(self, name: str, value: float) -> None:
        """Record one value into the named histogram."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def observe_each(self, name: str, values: Sequence[float]) -> None:
        """Record every value of a sequence into the named histogram."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe_many(values)

    def span(self, name: str) -> _SpanContext:
        """A ``with``-block span timed with ``perf_counter``."""
        return _SpanContext(self, name)

    # -- merging ------------------------------------------------------------

    def merge(self, other: "Collector") -> "Collector":
        """Fold *other*'s counters, histograms and spans into this
        collector (in place), returning ``self``.

        This is the join step of a multi-process run: each worker records
        into its own fresh collector (ambient installs never cross a
        ``fork``/``spawn`` boundary — see :func:`active_collector`) and the
        parent merges the shards.  Counter merge is plain addition and
        histogram merge is exact, so a merged profile equals the profile
        of a monolithic run when the shards are merged in a deterministic
        order.  Span records keep their per-process relative timestamps;
        overflow past ``max_spans`` is counted, never raised.
        """
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = Histogram()
            mine.merge(hist)
        room = self.max_spans - len(self.spans)
        if room >= len(other.spans):
            self.spans.extend(other.spans)
        else:
            self.spans.extend(other.spans[:max(room, 0)])
            self.dropped_spans += len(other.spans) - max(room, 0)
        self.dropped_spans += other.dropped_spans
        return self

    # -- reductions ---------------------------------------------------------

    def span_totals(self) -> Dict[str, dict]:
        """Per-name aggregate of all recorded spans."""
        totals: Dict[str, dict] = {}
        for record in self.spans:
            agg = totals.get(record.name)
            if agg is None:
                totals[record.name] = {
                    "count": 1,
                    "total_s": record.elapsed_s,
                    "max_s": record.elapsed_s,
                }
            else:
                agg["count"] += 1
                agg["total_s"] += record.elapsed_s
                if record.elapsed_s > agg["max_s"]:
                    agg["max_s"] = record.elapsed_s
        return totals

    def __repr__(self) -> str:
        return (
            f"Collector(counters={len(self.counters)}, "
            f"histograms={len(self.histograms)}, spans={len(self.spans)})"
        )


#: The installed collector, or None (the default: observability off).
_ACTIVE: Optional[Collector] = None


def _reset_in_child() -> None:
    """Drop any installed collector in a freshly forked child.

    The handle is ambient module state: under the ``fork`` start method a
    child would otherwise inherit the parent's collector and record into
    a copy the parent never sees (and whose span stack may be mid-span at
    the fork instant).  Workers that want observability install a fresh
    collector and hand it back for an explicit :meth:`Collector.merge` at
    join — that is the only supported cross-process flow.  ``spawn``
    children are safe by construction (module state starts fresh).
    """
    global _ACTIVE
    _ACTIVE = None


if hasattr(os, "register_at_fork"):  # pragma: no branch - posix
    os.register_at_fork(after_in_child=_reset_in_child)


def active_collector() -> Optional[Collector]:
    """The currently installed collector, or ``None`` when profiling is
    off — the one check every instrumentation point gates on."""
    return _ACTIVE


def install(collector: Collector) -> Optional[Collector]:
    """Install *collector* globally; returns the previously installed
    one (or None) so callers can restore it."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = collector
    return previous


def uninstall() -> Optional[Collector]:
    """Remove the installed collector (no-op when none is installed)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    return previous


@contextmanager
def collecting(collector: Optional[Collector] = None) -> Iterator[Collector]:
    """Install a collector for the ``with`` body, restoring the previous
    handle afterwards (exception-safe, nestable)::

        with collecting() as col:
            evaluate_workload(...)
        print(col.counters["engine.queries"])
    """
    global _ACTIVE
    col = collector if collector is not None else Collector()
    previous = _ACTIVE
    _ACTIVE = col
    try:
        yield col
    finally:
        _ACTIVE = previous
