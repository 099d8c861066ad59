"""The R*-tree baseline (§3.2) — object approximation.

A from-scratch R*-tree (Beckmann & Kriegel 1990): ChooseSubtree with
minimum overlap enlargement at the leaf level, margin-driven axis choice
and minimum-overlap distribution choice for splits, and forced reinsertion
on first overflow per level.  As in the paper, a layer of *shape nodes*
holding the actual region polygons is added below the leaves so the
containment test never touches the (large) data buckets, and the tree is
broadcast in depth-first order to keep backtracking forward-only on the
channel.
"""

from repro.rstar.tree import RStarTree
from repro.rstar.paged import PagedRStarTree

__all__ = ["RStarTree", "PagedRStarTree"]
