"""In-memory spans for the traced benchmark run.

The benchmark records spans from its own side of the program boundary:
around each public call it makes into a layer, plus the spans the
program already emits through ``repro.obs`` (imported into the same
timeline), plus timing proxies wrapped around public objects it hands
in.  Nothing under ``src/`` is patched.

A span's self time is its duration minus the time covered by its direct
children.  Children are found by interval containment on one
``perf_counter`` timeline, so spans from all three sources nest without
sharing a parent pointer.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs import Collector, collecting


class Span:
    """One closed interval of work: name, start, end, chunk id."""

    __slots__ = ("name", "start", "end", "chunk")

    def __init__(self, name: str, start: float, end: float, chunk) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.chunk = chunk

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullRecorder:
    """The untraced run: every hook is a no-op."""

    recording = False
    chunk = None

    def span(self, name: str, obs_names: Optional[Dict[str, str]] = None):
        return nullcontext()


NULL = NullRecorder()


class SpanRecorder:
    """Collects spans and ``repro.obs`` counters for one traced run.

    ``span(name, obs_names)`` times the ``with`` body; spans the program
    recorded into the installed collector meanwhile are imported as
    well, renamed through *obs_names* (a name mapped to ``None`` or
    missing from the map is dropped, so only layers the benchmark names
    show up).  ``chunk`` is stamped onto every span opened while it is
    set.
    """

    recording = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.chunk = None
        self.collector = Collector(max_spans=10_000_000)
        # Collector span starts are relative to its creation instant.
        self._obs_t0 = perf_counter()
        self._obs_seen = 0

    @contextmanager
    def observing(self) -> Iterator[Collector]:
        """Install this run's ``repro.obs`` collector for the body."""
        with collecting(self.collector) as col:
            yield col

    @contextmanager
    def span(
        self, name: str, obs_names: Optional[Dict[str, str]] = None
    ) -> Iterator[None]:
        chunk = self.chunk
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            # The innermost open span imports what the program recorded
            # since the last import, so nested spans never import twice.
            fresh = self.collector.spans[self._obs_seen:]
            self._obs_seen = len(self.collector.spans)
            for rec in fresh:
                renamed = (obs_names or {}).get(rec.name)
                if renamed is not None:
                    s = self._obs_t0 + rec.start_s
                    self.spans.append(Span(renamed, s, s + rec.elapsed_s, chunk))
            self.spans.append(Span(name, start, end, chunk))

    # -- reductions ----------------------------------------------------------

    def tree(self) -> List[Tuple[Span, Optional[int], int]]:
        """``(span, parent index, root index)`` in start order; the
        parent is the innermost span whose interval holds this one."""
        order = sorted(self.spans, key=lambda s: (s.start, -s.end))
        out: List[Tuple[Span, Optional[int], int]] = []
        stack: List[int] = []
        for span in order:
            while stack and out[stack[-1]][0].end <= span.start:
                stack.pop()
            parent = stack[-1] if stack else None
            root = out[parent][2] if parent is not None else len(out)
            out.append((span, parent, root))
            stack.append(len(out) - 1)
        return out

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Root name -> span name -> summed self time (seconds)."""
        tree = self.tree()
        child_time = [0.0] * len(tree)
        for span, parent, _ in tree:
            if parent is not None:
                child_time[parent] += span.duration
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (span, _, root) in enumerate(tree):
            out[tree[root][0].name][span.name] += span.duration - child_time[i]
        return out

    def counts(self) -> Dict[str, Dict[str, int]]:
        """Root name -> span name -> number of spans."""
        out: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        tree = self.tree()
        for span, _, root in tree:
            out[tree[root][0].name][span.name] += 1
        return out

    def roots(self, name: str) -> List[Span]:
        return [span for span, parent, _ in self.tree() if parent is None and span.name == name]

    def export(self, limit: int) -> List[dict]:
        """The first *limit* spans as JSON-ready records."""
        tree = self.tree()[:limit]
        return [
            {
                "name": span.name,
                "start_s": span.start,
                "end_s": span.end,
                "parent": parent,
                "chunk": span.chunk,
            }
            for span, parent, _ in tree
        ]


class TimedBoundaryIndex:
    """Timing proxy for a ``RegionBoundaryIndex`` handed to the mobility
    evaluator as ``boundary_index=``: every ``exit_bound`` call becomes
    a span, and the answer is the wrapped index's, unchanged."""

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def exit_bound(self, region_id: int, x: float, y: float) -> float:
        with self._recorder.span("mobility.exit_bound"):
            return self._inner.exit_bound(region_id, x, y)


class TimedMaintainer:
    """Timing proxy for an ``IndexMaintainer`` handed to
    ``DynamicBroadcastServer`` as ``maintainer=``: ``build`` is the
    family's index build, ``apply`` the incremental (or full)
    maintenance of one update batch."""

    def __init__(self, inner, recorder, kind: str) -> None:
        self._inner = inner
        self._recorder = recorder
        self._kind = kind

    def build(self, subdivision):
        with self._recorder.span(f"build.{self._kind}"):
            return self._inner.build(subdivision)

    def apply(self, index, new_subdivision, batch):
        with self._recorder.span("dynamic.maintain"):
            return self._inner.apply(index, new_subdivision, batch)

    def __getattr__(self, name):
        return getattr(self._inner, name)
