"""Closed-form cost estimates for the paged D-tree.

Three quantities the evaluation measures by simulation can also be
estimated analytically from the index structure alone — useful for sizing
a broadcast system without running workloads, and as a cross-check on the
simulator (the tests pin estimate vs measurement):

* **index size** in bytes — exact (sum of Figure-7 node sizes);
* **expected index tuning time** — visit probabilities from region areas,
  per-node packet costs from the Algorithm-3 layout, and the D2
  (interlocking-zone) probability for multi-packet nodes;
* **expected normalized latency** — the (1, m) formula of Imielinski et
  al. over the paged index size.
"""

from __future__ import annotations

from typing import List

from repro.core.dtree import DTree
from repro.core.paging import PagedDTree
from repro.broadcast.schedule import expected_latency_formula, optimal_m


def dtree_index_bytes(paged: PagedDTree) -> int:
    """Exact serialized index size in bytes (before packet padding)."""
    return paged.index_bytes


def _subtree_areas(tree: DTree) -> List[float]:
    """Per tree row: total region area under the node.

    Region areas come from the subdivision's cached compiled form
    (:meth:`~repro.geometry.kernels.CompiledSubdivision.area_by_id`),
    whose shoelace sums are bit-identical to ``Polygon.area``.  A
    child's row comes after its parent's, so one backward pass sums
    every subtree.
    """
    region_area = tree.subdivision.compiled().area_by_id()
    areas = [0.0] * len(tree.node_id)
    area = lambda code: areas[code] if code >= 0 else region_area[~code]
    for row in reversed(range(len(areas))):
        areas[row] = area(tree.left[row]) + area(tree.right[row])
    return areas


def dtree_expected_tuning(paged: PagedDTree) -> float:
    """Expected index-search packet accesses for a uniform query.

    Per node: the visit probability is its subspace's share of the
    service area; the cost is one packet when the node starts a packet its
    parent did not end in, plus — for multi-packet nodes — the remaining
    span weighted by the probability that the query falls in the
    interlocking zone D2 (where the RMC/LMC early test cannot decide).
    """
    tree = paged.tree
    if tree.root is None:
        return 0.0
    areas = _subtree_areas(tree)
    total_area = max(areas[tree.root], 1e-12)
    # Pre-order visits a parent before its children.
    parent_last = [-1] * len(areas)
    expected = 0.0
    for row in tree.iter_nodes():
        packets = paged.packets_of_row(row)
        p_visit = areas[row] / total_area
        cost = 0.0
        if packets[0] != parent_last[row]:
            cost += 1.0
        if len(packets) > 1:
            extra = len(packets) - 1
            if paged.early_termination:
                cost += tree.partition[row].inter_prob * extra
            else:
                cost += extra
        expected += p_visit * cost
        for code in (tree.left[row], tree.right[row]):
            if code >= 0:
                parent_last[code] = packets[-1]
    return expected


def latency_overhead_estimate(paged: PagedDTree, n_regions: int) -> float:
    """Expected access latency normalized to the optimal (no-index) value,
    from the (1, m) closed form."""
    params = paged.params
    index_packets = len(paged.packets)
    data_packets = n_regions * params.data_packets_per_instance
    m = optimal_m(index_packets, data_packets)
    expected = expected_latency_formula(index_packets, data_packets, m)
    optimal = data_packets / 2.0 + params.data_packets_per_instance
    return expected / optimal
