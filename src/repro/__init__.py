"""D-tree air indexing for location-dependent data — ICDE 2003 reproduction.

A complete implementation of "Energy Efficient Index for Querying
Location-Dependent Data in Mobile Broadcast Environments" (Xu, Zheng, Lee,
Lee — ICDE 2003): the D-tree index, the trian-tree / trap-tree / R*-tree
baselines, the wireless broadcast substrate with (1, m) interleaving, the
Voronoi valid-scope construction, and the full evaluation harness.

Quickstart (the :class:`AirIndex` protocol + registry API)::

    from repro import INDEX_REGISTRY, uniform_dataset, uniform_workload
    from repro.broadcast import evaluate_index
    from repro.geometry import Point

    dataset = uniform_dataset(n=500, seed=1)
    family = INDEX_REGISTRY["dtree"]               # or trian/trap/rstar
    tree = family.build(dataset.subdivision)       # logical index
    region = tree.locate(Point(0.3, 0.7))          # logical point query

    params = family.parameters(packet_capacity=256)
    paged = tree.page(params)                      # Algorithm-3 paging
    workload = uniform_workload(dataset.subdivision, n=1000, seed=2)
    metrics = evaluate_index(                      # batched query engine
        paged, dataset.subdivision.region_ids, params, workload.points
    )
"""

from repro.errors import (
    ReproError,
    GeometryError,
    SubdivisionError,
    IndexBuildError,
    PagingError,
    QueryError,
    UpdateError,
    BroadcastError,
)
from repro.geometry import Point, Segment, Polygon, Polyline, Rect
from repro.tessellation import (
    DataRegion,
    Subdivision,
    voronoi_subdivision,
    grid_subdivision,
)
from repro.datasets import (
    Dataset,
    uniform_dataset,
    hospital_dataset,
    park_dataset,
    dataset_by_name,
)
from repro.core import DTree, PagedDTree, SerializedDTree
from repro.pointloc import TrianTree, PagedTrianTree, TrapTree, PagedTrapTree
from repro.rstar import RStarTree, PagedRStarTree
from repro.io import save_subdivision, load_subdivision
from repro.workload import (
    QueryWorkload,
    uniform_workload,
    hotspot_workload,
    zipf_region_workload,
)
from repro.broadcast import (
    SystemParameters,
    BroadcastSchedule,
    BroadcastClient,
    evaluate_index,
    evaluate_index_per_query,
)

# Single source of truth — pyproject.toml reads it via
# ``[tool.setuptools.dynamic] version = {attr = "repro.__version__"}``.
__version__ = "4.1.0"

#: Engine names resolved lazily (PEP 562): ``repro.engine`` imports the
#: index families, which import the broadcast substrate, so an eager
#: import here would cycle during package initialization.
_ENGINE_EXPORTS = (
    "AirIndex",
    "IndexFamily",
    "INDEX_REGISTRY",
    "available_index_kinds",
    "index_family",
    "register_index",
    "BatchResult",
    "QueryEngine",
    "evaluate_workload",
    "TraceBatch",
    "batched_trace",
    "register_tracer",
)

#: Simulation names, lazy for the same reason (the simulator's candidate
#: providers import the paged index classes).
_SIMULATION_EXPORTS = (
    "BernoulliLoss",
    "ChannelSimulator",
    "EnergyModel",
    "ErrorModel",
    "GilbertElliott",
    "PerfectChannel",
    "RecoveryPolicy",
    "SimulationReport",
    "make_error_model",
    "recovery_policy",
    "simulate_workload",
)

#: Dynamic-broadcast names, lazy for the same reason (the maintainers
#: import the index families through the engine registry).
_DYNAMIC_EXPORTS = (
    "DynamicBroadcastClient",
    "DynamicBroadcastServer",
    "RegionUpdate",
    "UpdateBatch",
    "diff_subdivisions",
    "maintainer_for",
    "register_maintainer",
)


def __getattr__(name: str):
    if name in _ENGINE_EXPORTS:
        from repro import engine

        return getattr(engine, name)
    if name in _SIMULATION_EXPORTS:
        from repro import simulation

        return getattr(simulation, name)
    if name in _DYNAMIC_EXPORTS:
        from repro import dynamic

        return getattr(dynamic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ReproError",
    "GeometryError",
    "SubdivisionError",
    "IndexBuildError",
    "PagingError",
    "QueryError",
    "BroadcastError",
    "Point",
    "Segment",
    "Polygon",
    "Polyline",
    "Rect",
    "DataRegion",
    "Subdivision",
    "voronoi_subdivision",
    "grid_subdivision",
    "Dataset",
    "uniform_dataset",
    "hospital_dataset",
    "park_dataset",
    "dataset_by_name",
    "DTree",
    "PagedDTree",
    "SerializedDTree",
    "save_subdivision",
    "load_subdivision",
    "QueryWorkload",
    "uniform_workload",
    "hotspot_workload",
    "zipf_region_workload",
    "TrianTree",
    "PagedTrianTree",
    "TrapTree",
    "PagedTrapTree",
    "RStarTree",
    "PagedRStarTree",
    "SystemParameters",
    "BroadcastSchedule",
    "BroadcastClient",
    "evaluate_index",
    "evaluate_index_per_query",
    "AirIndex",
    "IndexFamily",
    "INDEX_REGISTRY",
    "available_index_kinds",
    "index_family",
    "register_index",
    "BatchResult",
    "QueryEngine",
    "evaluate_workload",
    "TraceBatch",
    "batched_trace",
    "register_tracer",
    "BernoulliLoss",
    "ChannelSimulator",
    "EnergyModel",
    "ErrorModel",
    "GilbertElliott",
    "PerfectChannel",
    "RecoveryPolicy",
    "SimulationReport",
    "make_error_model",
    "recovery_policy",
    "simulate_workload",
    "DynamicBroadcastClient",
    "DynamicBroadcastServer",
    "RegionUpdate",
    "UpdateBatch",
    "diff_subdivisions",
    "maintainer_for",
    "register_maintainer",
    "UpdateError",
    "__version__",
]
