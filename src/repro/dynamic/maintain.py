"""Index maintenance across region updates — the ``apply_updates()`` side.

Every family answers the same contract: given the logical index built
over the *old* subdivision, the *new* subdivision and the
:class:`~repro.dynamic.updates.UpdateBatch` between them, return a
logical index over the new subdivision whose answers are exactly those
of a from-scratch build.  How much work that takes is the family's
business:

* **R*-tree** — genuinely incremental: on a copy of the node table,
  delete the old entries of the removed ids (CondenseTree + orphan
  reinsertion), insert the new entries of the added ids.  Cost scales
  with the churn, not the dataset.
* **D-tree** — bounded-staleness subtree rebuild: only the deepest
  subtree containing every changed region is rebuilt and spliced into
  a new tree (the old one stays as paged past versions aired it).
  Sound because the unchanged regions pin the changed area down — the
  union of the changed regions' old polygons equals the union of their
  new polygons, so every ancestor partition keeps partitioning
  correctly.  Repeated splices erode the global optimality of the
  partition choices, so a cumulative *staleness budget* (fraction of
  regions sitting in spliced subtrees) forces a full rebuild when
  exceeded.
* **Trap/Trian trees** — full rebuild: their structure (trapezoidal
  decomposition, triangulation hierarchy) is global, a local splice has
  no meaning.  The fallback still satisfies the protocol.

:data:`MAINTAINER_REGISTRY` maps an index kind to its maintainer class;
:func:`maintainer_for` instantiates one.  Registering a maintainer for a
new family is one call — the dynamic broadcast server picks it up
automatically.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Type

from repro.errors import UpdateError
from repro.broadcast.params import SystemParameters
from repro.core.dtree import DTree, paper_styles
from repro.dynamic.updates import UpdateBatch
from repro.engine.protocol import index_family
from repro.tessellation.subdivision import Subdivision


class IndexMaintainer:
    """Full-rebuild fallback — the contract every maintainer satisfies.

    ``apply(index, new_subdivision, batch)`` returns the maintained
    logical index (*index* itself for an empty batch, else a new one or
    a fresh build) and leaves *index* as it was: a paged past version
    may still hold it.  The counters ``incremental_applies`` / ``full_rebuilds``
    let experiments report how often the cheap path was taken.
    """

    #: Index kind this maintainer serves (set per registration).
    kind: str = "generic"

    def __init__(
        self,
        *,
        params: Optional[SystemParameters] = None,
        seed: int = 0,
    ) -> None:
        self.params = params
        self.seed = seed
        self.incremental_applies = 0
        self.full_rebuilds = 0

    def build(self, subdivision: Subdivision):
        """From-scratch logical build (initial build and rebuild path)."""
        return index_family(self.kind).build(subdivision, seed=self.seed)

    def apply(self, index, new_subdivision: Subdivision, batch: UpdateBatch):
        """Default: any non-empty batch triggers a full rebuild."""
        if batch.is_empty:
            return index
        self.full_rebuilds += 1
        return self.build(new_subdivision)


class RStarMaintainer(IndexMaintainer):
    """Incremental insert/delete through the R* machinery."""

    kind = "rstar"

    def build(self, subdivision: Subdivision):
        # Build at the paged fan-out so page() never has to rebuild —
        # otherwise the incremental maintenance would be thrown away at
        # every paging step.
        from repro.rstar.paged import rstar_fanout
        from repro.rstar.tree import RStarTree

        if self.params is None:
            return RStarTree.build(subdivision, seed=self.seed)
        # The server reads a maintained tree at once, and this build is
        # the from-scratch rebuild incremental maintenance is weighed
        # against (E12): insert now rather than on first read.
        tree = RStarTree.build(subdivision, rstar_fanout(self.params))
        return tree.ensure_built()

    def apply(self, index, new_subdivision: Subdivision, batch: UpdateBatch):
        """The maintained tree: a copy of *index* with the batch's
        deletes and inserts applied (*index* itself, which a paged past
        version may still hold, is not changed)."""
        if batch.is_empty:
            return index
        self.incremental_applies += 1
        index = index.copy()
        index.apply_updates(new_subdivision, batch)
        return index


class DTreeMaintainer(IndexMaintainer):
    """Bounded-staleness subtree rebuild for the binary D-tree.

    *staleness_budget* is the cumulative fraction of regions allowed to
    sit in spliced (locally rebuilt) subtrees before the next update
    forces a full rebuild; the budget resets on every full rebuild.
    ``0.0`` degenerates to always-full-rebuild, ``float("inf")`` to
    never-full-rebuild.
    """

    kind = "dtree"

    def __init__(
        self,
        *,
        params: Optional[SystemParameters] = None,
        seed: int = 0,
        staleness_budget: float = 0.5,
        tie_break_inter_prob: bool = True,
        extended_styles: bool = False,
    ) -> None:
        super().__init__(params=params, seed=seed)
        if staleness_budget < 0:
            raise UpdateError(
                f"staleness budget must be >= 0, got {staleness_budget}"
            )
        self.staleness_budget = staleness_budget
        self.tie_break_inter_prob = tie_break_inter_prob
        self.extended_styles = extended_styles
        #: Cumulative fraction of regions rebuilt in place since the
        #: last full rebuild.
        self.stale_fraction = 0.0

    def build(self, subdivision: Subdivision) -> DTree:
        self.stale_fraction = 0.0
        return DTree.build(
            subdivision,
            tie_break_inter_prob=self.tie_break_inter_prob,
            extended_styles=self.extended_styles,
            seed=self.seed,
        )

    def apply(
        self, index: DTree, new_subdivision: Subdivision, batch: UpdateBatch
    ) -> DTree:
        """The maintained tree: *index* with one subtree rebuilt over the
        new regions, as a new :class:`DTree` (*index* itself, which a
        paged past version may still hold, is not changed), or a full
        rebuild."""
        if batch.is_empty:
            return index
        plan = self._splice_plan(index, new_subdivision, batch)
        if plan is None:
            self.full_rebuilds += 1
            return self.build(new_subdivision)
        parent, side, subtree_ids, level = plan
        grown = self.stale_fraction + len(subtree_ids) / len(
            new_subdivision.regions
        )
        if grown > self.staleness_budget:
            self.full_rebuilds += 1
            return self.build(new_subdivision)
        region_ids = sorted(subtree_ids)
        if not region_ids:
            raise UpdateError("subtree rebuild with no regions")
        if parent is None and len(region_ids) == 1:
            # A one-region root is the degenerate rootless DTree; take
            # the full-rebuild path to produce it.
            self.full_rebuilds += 1
            return self.build(new_subdivision)
        # Fresh ids, above every id in the tree, keep the rows in id
        # order and the packet labels unique.
        subtree = DTree.grow(
            new_subdivision,
            region_ids,
            paper_styles(self.extended_styles),
            self.tie_break_inter_prob,
            first_id=index.node_id[-1] + 1,
            level=level,
        )
        self.stale_fraction = grown
        self.incremental_applies += 1
        return index.splice(new_subdivision, parent, side, subtree, region_ids[0])

    def _splice_plan(
        self, index: DTree, new_subdivision: Subdivision, batch: UpdateBatch
    ):
        """Where to splice: (parent row, side, new subtree ids, level).

        The parent row is None when the root itself is replaced.  Returns
        ``None`` when only a full rebuild is sound: no root to splice
        into, a pure-insert batch (no removed ids to anchor the subtree),
        or mismatched service areas.
        """
        removed = set(batch.removed_ids)
        added = set(batch.added_ids)
        old_area = index.subdivision.service_area
        new_area = new_subdivision.service_area
        if (
            index.root is None
            or not removed
            or (old_area.min_x, old_area.min_y, old_area.max_x, old_area.max_y)
            != (new_area.min_x, new_area.min_y, new_area.max_x, new_area.max_y)
        ):
            return None
        parent: Optional[int] = None
        side: Optional[str] = None
        row = index.root
        while True:
            left, right = index.left[row], index.right[row]
            left_ids = _leaf_ids(index, left)
            right_ids = _leaf_ids(index, right)
            if removed <= left_ids:
                if left >= 0:
                    parent, side, row = row, "left", left
                    continue
                return row, "left", (left_ids - removed) | added, index.level[row] + 1
            if removed <= right_ids:
                if right >= 0:
                    parent, side, row = row, "right", right
                    continue
                return row, "right", (right_ids - removed) | added, index.level[row] + 1
            # Changed regions straddle both children: this node is the
            # deepest subtree containing them all.
            new_ids = ((left_ids | right_ids) - removed) | added
            return parent, side, new_ids, index.level[row]


def _leaf_ids(tree: DTree, code: int) -> Set[int]:
    """Region ids of every data pointer under child code *code*."""
    return {~c for c, _ in tree.walk(code) if c < 0}


#: index kind -> maintainer class.
MAINTAINER_REGISTRY: Dict[str, Type[IndexMaintainer]] = {}


def register_maintainer(
    kind: str, cls: Type[IndexMaintainer], replace: bool = False
) -> Type[IndexMaintainer]:
    """Register *cls* as the maintainer of index kind *kind*."""
    if kind in MAINTAINER_REGISTRY and not replace:
        raise UpdateError(
            f"maintainer for {kind!r} already registered "
            "(pass replace=True to overwrite)"
        )
    cls.kind = kind
    MAINTAINER_REGISTRY[kind] = cls
    return cls


def maintainer_for(kind: str, **kwargs) -> IndexMaintainer:
    """Instantiate the registered maintainer for *kind*.

    Unregistered kinds that exist in the index registry get the
    full-rebuild fallback, so every :class:`~repro.engine.AirIndex`
    family works with the dynamic layer out of the box.
    """
    cls = MAINTAINER_REGISTRY.get(kind)
    if cls is None:
        index_family(kind)  # raises for genuinely unknown kinds
        cls = type(f"{kind.capitalize()}Maintainer", (IndexMaintainer,), {})
        cls.kind = kind
    return cls(**kwargs)


register_maintainer("dtree", DTreeMaintainer)
register_maintainer("rstar", RStarMaintainer)


class _TrapMaintainer(IndexMaintainer):
    kind = "trap"


class _TrianMaintainer(IndexMaintainer):
    kind = "trian"


register_maintainer("trap", _TrapMaintainer)
register_maintainer("trian", _TrianMaintainer)
