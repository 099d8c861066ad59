"""repro.mobility — moving clients and continuous location-dependent
queries (DESIGN.md §13).

The source paper answers one query for a stationary client; this package
adds the workload class its future work points at — clients that *move*,
whose answers stay valid until a scope boundary is crossed:

* :class:`Trajectory`, the :class:`TrajectoryBatch` of many clients'
  paths, and the chunked Philox workload generators
  (:class:`RandomWaypointWorkload`, :class:`BoundaryHuggingWorkload`);
* sound scope-exit prediction for the continuous-query client
  (:mod:`repro.mobility.exitbound`);
* continuous window / nearest-region variants
  (:mod:`repro.mobility.continuous`);
* :func:`evaluate_trajectory_workload` + the fleet-mergeable
  :class:`MobilityReport` (headline metric: re-tunes per km).
"""

from repro.mobility.trajectory import Trajectory, TrajectoryBatch
from repro.mobility.workloads import (
    BoundaryHuggingWorkload,
    RandomWaypointWorkload,
)
from repro.mobility.exitbound import RegionBoundaryIndex
from repro.mobility.continuous import (
    ContinuousWindowQuery,
    NearestRegionQuery,
    run_continuous_query,
)
from repro.mobility.evaluate import (
    DEFAULT_MAX_EPOCHS,
    MobilityBatchResult,
    default_epoch_slots,
    evaluate_trajectory_workload,
)
from repro.mobility.report import (
    MOBILITY_METRIC_FIELDS,
    MobilityReport,
    render_mobility_report,
)
from repro.mobility.units import DEFAULT_KM_PER_UNIT, units_per_slot

__all__ = [
    "Trajectory",
    "TrajectoryBatch",
    "RandomWaypointWorkload",
    "BoundaryHuggingWorkload",
    "RegionBoundaryIndex",
    "ContinuousWindowQuery",
    "NearestRegionQuery",
    "run_continuous_query",
    "DEFAULT_MAX_EPOCHS",
    "MobilityBatchResult",
    "default_epoch_slots",
    "evaluate_trajectory_workload",
    "MOBILITY_METRIC_FIELDS",
    "MobilityReport",
    "render_mobility_report",
    "DEFAULT_KM_PER_UNIT",
    "units_per_slot",
]
