"""Access-skew-aware D-tree construction (extension; cf. paper ref [6]).

Chen, Yu & Wu's imbalanced index trees shorten the search paths of hot
items at the expense of cold ones.  The same idea transfers to the D-tree:
instead of halving the *region count* at each node (the paper's
height-balancing rule, §4.1 property 3), split at the *weighted median* of
access probability, so that each step halves the probability mass.  A
region with access probability p then sits at depth ~log2(1/p) — a
Shannon-Fano code over the plane — and the expected number of visited
nodes under the weight distribution drops below the balanced tree's.

Everything else (Algorithm 1's extent/pruning machinery, Algorithm 2's
query, Algorithm 3's paging) is reused unchanged: only the ``first_count``
of each candidate style is chosen by weight instead of by count, so the
resulting tree is a plain :class:`~repro.core.dtree.DTree` minus the
height-balance property.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import IndexBuildError
from repro.core.dtree import DTree
from repro.core.partition import PartitionStyle, _sort_regions
from repro.tessellation.subdivision import Subdivision


def build_imbalanced_dtree(
    subdivision: Subdivision,
    weights: Mapping[int, float],
    min_share: float = 0.02,
) -> DTree:
    """Build a D-tree whose splits halve access-probability mass.

    *weights* maps region id to a non-negative access weight (not
    necessarily normalised).  ``min_share`` floors each region's share so
    cold regions cannot be pushed arbitrarily deep (the floor is applied
    per node, relative to a uniform share).
    """
    ids = subdivision.region_ids
    missing = [rid for rid in ids if rid not in weights]
    if missing:
        raise IndexBuildError(f"missing weights for regions {missing[:5]}...")
    if any(weights[rid] < 0 for rid in ids):
        raise IndexBuildError("weights must be non-negative")
    if min_share < 0 or min_share > 1:
        raise IndexBuildError(f"min_share must be in [0, 1], got {min_share}")

    def floored(region_ids: Sequence[int]) -> Dict[int, float]:
        uniform = 1.0 / len(region_ids)
        total = sum(weights[rid] for rid in region_ids) or 1.0
        return {
            rid: max(weights[rid] / total, min_share * uniform)
            for rid in region_ids
        }

    def weighted_first_count(ordered: Sequence[int]) -> int:
        """Regions (in style order) whose cumulative weight reaches half."""
        shares = floored(ordered)
        total = sum(shares.values())
        acc = 0.0
        for i, rid in enumerate(ordered):
            acc += shares[rid]
            if acc >= total / 2.0:
                # At least one region on each side.
                return min(max(i + 1, 1), len(ordered) - 1)
        return len(ordered) - 1

    def styles_for(region_ids: Sequence[int]) -> List[PartitionStyle]:
        styles = []
        for dimension in ("y", "x"):
            for sort_key in ("near", "far"):
                probe = PartitionStyle(dimension, sort_key, 1)
                ordered = _sort_regions(subdivision, region_ids, probe)
                count = weighted_first_count(ordered)
                styles.append(PartitionStyle(dimension, sort_key, count))
        return styles

    return DTree.grow(subdivision, list(ids), styles_for)


def region_depths(tree: DTree) -> Dict[int, int]:
    """Region id -> nodes on the path to its data pointer plus one
    (``leaf_depths() + 1``: a one-node tree reads 2); the single region
    of a rootless tree reads 0."""
    if tree.root is None:
        return tree.leaf_depths()
    return {rid: depth + 1 for rid, depth in tree.leaf_depths().items()}


def expected_depth(
    tree: DTree, weights: Mapping[int, float]
) -> float:
    """Probability-weighted mean lookup depth under *weights*."""
    depths = region_depths(tree)
    total = sum(weights[rid] for rid in depths) or 1.0
    return sum(depths[rid] * weights[rid] for rid in depths) / total
