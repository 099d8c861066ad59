"""Dynamic broadcast: region updates, index maintenance, versioned cycles.

The static substrate answers queries against one frozen subdivision.
This package adds the moving-world half: update batches
(:mod:`~repro.dynamic.updates`), per-family incremental index
maintenance behind one ``apply_updates()`` protocol
(:mod:`~repro.dynamic.maintain`), and the versioned broadcast service
whose clients detect update skew from packet stamps and recover by
retrying next cycle (:mod:`~repro.dynamic.service`).
"""

from repro.dynamic.maintain import (
    DTreeMaintainer,
    IndexMaintainer,
    MAINTAINER_REGISTRY,
    RStarMaintainer,
    maintainer_for,
    register_maintainer,
)
from repro.dynamic.service import (
    DynamicBroadcastClient,
    DynamicBroadcastServer,
)
from repro.dynamic.updates import (
    RegionUpdate,
    UpdateBatch,
    churn_sites,
    diff_subdivisions,
    sites_subdivision,
)

__all__ = [
    "DTreeMaintainer",
    "DynamicBroadcastClient",
    "DynamicBroadcastServer",
    "IndexMaintainer",
    "MAINTAINER_REGISTRY",
    "RStarMaintainer",
    "RegionUpdate",
    "UpdateBatch",
    "churn_sites",
    "diff_subdivisions",
    "maintainer_for",
    "register_maintainer",
    "sites_subdivision",
]
