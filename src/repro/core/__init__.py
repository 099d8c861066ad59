"""The D-tree — the paper's contribution (§4).

The D-tree indexes data regions *directly by the divisions between them*:
it recursively splits a space of regions into two complementary subspaces
of (almost) equal cardinality, storing only the pruned boundary polylines
between them.  Point queries descend the binary tree deciding the side of
each partition via two coordinate comparisons (the exclusive zones D1/D3)
or, inside the interlocking zone D2, a ray-crossing parity test.

Modules:

* :mod:`repro.core.partition` — Algorithm 1 (PartitionSize) over the 4/8
  partition styles with the inter-prob tie-break, for a whole tree level
  in one array pass.
* :mod:`repro.core.dtree` — level-by-level construction of the binary
  D-tree and the logical query procedure (Algorithm 2).
* :mod:`repro.core.paging` — Algorithm 3: top-down packet allocation, leaf
  merging, and the RMC/LMC early-termination layout for large nodes.
"""

from repro.core.partition import (
    PartitionStyle,
    Partition,
    enumerate_styles,
    evaluate_style,
    best_partition,
)
from repro.core.dtree import DTree
from repro.core.paging import PagedDTree
from repro.core.serialize import SerializedDTree, AxisCodec

__all__ = [
    "PartitionStyle",
    "Partition",
    "enumerate_styles",
    "evaluate_style",
    "best_partition",
    "DTree",
    "PagedDTree",
    "SerializedDTree",
    "AxisCodec",
]
