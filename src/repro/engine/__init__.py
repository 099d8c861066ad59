"""repro.engine — the unified AirIndex protocol and batched query engine.

Public surface:

* :class:`AirIndex` / :class:`IndexFamily` / :data:`INDEX_REGISTRY` —
  one build/page/locate protocol implemented by all index families, with
  a registry replacing the old per-kind ``if``/``elif`` dispatch;
* :class:`QueryEngine` / :func:`evaluate_workload` — bulk evaluation of
  query workloads, a thin resolver over the access walker's batched
  front door that returns its
  :class:`~repro.broadcast.client.AccessBatch`, bit-for-bit equivalent
  to (and several times faster than) the per-query path;
* :func:`batched_trace` / :func:`register_tracer` — per-family batched
  index traversal, extensible by third-party families.
"""

from repro.engine.protocol import (
    AirIndex,
    IndexFamily,
    INDEX_REGISTRY,
    available_index_kinds,
    index_family,
    register_index,
)
from repro.engine.trace import (
    TraceBatch,
    batched_trace,
    register_tracer,
)
from repro.engine.batch import QueryEngine, evaluate_workload

__all__ = [
    "AirIndex",
    "IndexFamily",
    "INDEX_REGISTRY",
    "available_index_kinds",
    "index_family",
    "register_index",
    "TraceBatch",
    "batched_trace",
    "register_tracer",
    "QueryEngine",
    "evaluate_workload",
    "evaluate_trajectory_workload",
]


def __getattr__(name):
    # Lazy re-export: the mobility evaluator builds on the engine, so a
    # module-level import here would be circular.
    if name == "evaluate_trajectory_workload":
        from repro.mobility.evaluate import evaluate_trajectory_workload

        return evaluate_trajectory_workload
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
