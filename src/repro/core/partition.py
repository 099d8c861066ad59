"""Space partitioning — Algorithm 1 (PartitionSize) and style selection.

A *partition style* fixes three choices (§4.2):

* the partition dimension — ``"y"`` (left/right subspaces, regions sorted
  by an x-coordinate) or ``"x"`` (upper/lower subspaces, sorted by a
  y-coordinate);
* the sort key — the regions' near or far bounding coordinate along that
  axis (leftmost/rightmost x, lowest/uppermost y);
* when N is odd, whether the first subspace receives (N+1)/2 or (N-1)/2
  regions.

That yields 4 styles for even N and 8 for odd N.  Each style is evaluated
by the size (coordinate count) of the pruned division it produces; ties are
broken by the lower *inter-prob* — the probability that a uniform query
falls in the interlocking zone D2 shared by both subspaces, where the
cheap D1/D3 early tests cannot decide the side.

Terminology used throughout (generalising the paper's y-dimensional
description):

* the **first** subspace is the lefthand (dimension "y") or upper
  (dimension "x") one — it becomes the left subtree;
* ``first_bound`` bounds the exclusive zone D1 of the first subspace
  (the paper's ``right_lmc`` for dimension "y");
* ``second_bound`` bounds the exclusive zone D3 of the second subspace
  (the paper's ``left_rmc``).

One kernel, :func:`best_partitions`, runs Algorithm 1 for every candidate
style of every node of a tree level in one array pass over the
subdivision's :class:`EdgeTable`; :func:`best_partition` is that kernel
on one node and :func:`evaluate_style` on one style.  The pass:

* sorts the level's rows once per (dimension, sort key) — a segmented
  ``lexsort`` by (node, key, region id) — and every style reuses its
  order: a style's first subspace is a prefix of its node's run;
* bounds D1/D3 and the axis span with ``np.minimum.reduceat`` /
  ``np.maximum.reduceat`` at (start, start + first count, end);
* puts an entry on a style's extent when the other entry of its edge is
  not in the same subspace of the same node (edge cancellation without a
  per-style ``boundary`` call);
* prunes all extents at once, keying each cut point through
  :func:`~repro.tessellation.subdivision.vertex_keys` — Python's
  ``round``, as the table's own vertex ids were keyed;
* sizes each style without chaining: chaining splits the kept segments
  at every vertex whose degree is not 2, so the coordinate count is the
  kept segments plus half the degree sum over those vertices (the open
  chains) plus the closed rings of degree-2 vertices;
* chains only each node's winner, in the order the scalar edge
  cancellation lists the extent, and builds one :class:`Partition`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IndexBuildError, SubdivisionError
from repro.geometry.point import Point
from repro.geometry.polyline import Polyline, chain_keyed, total_coordinate_count
from repro.tessellation.subdivision import EdgeTable, Subdivision, vertex_keys


class PartitionStyle:
    """One of the candidate ways to split a space (§4.2).

    ``described`` is an extension beyond the paper: the stored boundary can
    be the extent of either subspace ("first" — the paper's choice — or
    "second", with the ray-parity test mirrored).  Describing whichever
    subspace has the smaller pruned extent can substantially shrink
    top-level partitions; ``enumerate_styles(extended=True)`` doubles the
    candidate set to exploit this.
    """

    __slots__ = ("dimension", "sort_key", "first_count", "described")

    def __init__(
        self,
        dimension: str,
        sort_key: str,
        first_count: int,
        described: str = "first",
    ) -> None:
        if dimension not in ("x", "y"):
            raise IndexBuildError(f"dimension must be 'x' or 'y', got {dimension!r}")
        if sort_key not in ("near", "far"):
            raise IndexBuildError(f"sort_key must be 'near' or 'far', got {sort_key!r}")
        if described not in ("first", "second"):
            raise IndexBuildError(
                f"described must be 'first' or 'second', got {described!r}"
            )
        self.dimension = dimension
        #: "near"/"far" relative to the first subspace: for dimension "y"
        #: near = leftmost x, far = rightmost x; for dimension "x"
        #: near = uppermost y, far = lowest y.
        self.sort_key = sort_key
        self.first_count = first_count
        #: Which subspace's extent the partition stores.
        self.described = described

    def __repr__(self) -> str:
        return (
            f"PartitionStyle(dim={self.dimension!r}, key={self.sort_key!r}, "
            f"first={self.first_count}, described={self.described!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartitionStyle):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and self.sort_key == other.sort_key
            and self.first_count == other.first_count
            and self.described == other.described
        )

    def __hash__(self) -> int:
        return hash(
            (self.dimension, self.sort_key, self.first_count, self.described)
        )


class Partition:
    """The evaluated division produced by one partition style."""

    __slots__ = (
        "style",
        "first_ids",
        "second_ids",
        "polylines",
        "size",
        "first_bound",
        "second_bound",
        "inter_prob",
    )

    def __init__(
        self,
        style: PartitionStyle,
        first_ids: List[int],
        second_ids: List[int],
        polylines: List[Polyline],
        first_bound: float,
        second_bound: float,
        inter_prob: float,
    ) -> None:
        self.style = style
        self.first_ids = first_ids
        self.second_ids = second_ids
        self.polylines = polylines
        #: Partition size in coordinates — the style-selection criterion.
        self.size = total_coordinate_count(polylines)
        self.first_bound = first_bound
        self.second_bound = second_bound
        self.inter_prob = inter_prob

    def __repr__(self) -> str:
        return (
            f"Partition({self.style!r}, size={self.size}, "
            f"inter_prob={self.inter_prob:.3f})"
        )

    @property
    def dimension(self) -> str:
        return self.style.dimension

    def early_side_of(self, p: Point) -> Optional[str]:
        """D1/D3 exclusive-zone test only — what a client can decide from
        the *first* packet of a multi-packet node, which carries the RMC
        value and the LMC starting point of the partition (§4.4).

        Returns ``"first"``/``"second"``, or None when *p* lies in the
        interlocking zone D2 and the full partition must be read.
        """
        if self.dimension == "y":
            if p.x <= self.first_bound:
                return "first"
            if p.x >= self.second_bound:
                return "second"
            return None
        if p.y >= self.first_bound:
            return "first"
        if p.y <= self.second_bound:
            return "second"
        return None

    def side_of(self, p: Point) -> str:
        """Which subspace contains *p*: ``"first"`` or ``"second"``.

        This is the decision step of Algorithm 2 (lines 4-26): the D1/D3
        exclusive-zone comparisons first, then the ray-parity test for
        queries in the interlocking zone D2.  When the partition describes
        the *second* subspace (extension), the ray is cast toward the
        first subspace's side and odd parity means "second".
        """
        early = self.early_side_of(p)
        if early is not None:
            return early
        crossings = self.ray_crossings(p)
        if self.style.described == "first":
            return "first" if crossings % 2 == 1 else "second"
        return "second" if crossings % 2 == 1 else "first"

    def ray_crossings(self, p: Point) -> int:
        """Crossings of the side-test ray with the stored polylines.

        Ray direction by (dimension, described): y/first -> right,
        y/second -> left, x/first -> down, x/second -> up.
        """
        crossings = 0
        described_first = self.style.described == "first"
        if self.dimension == "y":
            for pl in self.polylines:
                for a, b in pl.segment_endpoints():
                    if (a.y > p.y) != (b.y > p.y):
                        x_at = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x)
                        if described_first:
                            if x_at > p.x:
                                crossings += 1
                        elif x_at < p.x:
                            crossings += 1
        else:
            for pl in self.polylines:
                for a, b in pl.segment_endpoints():
                    if (a.x > p.x) != (b.x > p.x):
                        y_at = a.y + (p.x - a.x) / (b.x - a.x) * (b.y - a.y)
                        if described_first:
                            if y_at < p.y:
                                crossings += 1
                        elif y_at > p.y:
                            crossings += 1
        return crossings


def enumerate_styles(
    n_regions: int, extended: bool = False
) -> List[PartitionStyle]:
    """The 4 (even N) or 8 (odd N) candidate styles of §4.2.

    ``extended=True`` doubles the set with complement-extent variants
    (``described="second"``) — an extension beyond the paper.
    """
    if n_regions < 2:
        raise IndexBuildError("cannot partition fewer than two regions")
    half = n_regions // 2
    counts = [half] if n_regions % 2 == 0 else [half, half + 1]
    described_options = ("first", "second") if extended else ("first",)
    return [
        PartitionStyle(dimension, sort_key, count, described)
        for dimension in ("y", "x")
        for sort_key in ("near", "far")
        for count in counts
        for described in described_options
    ]


#: The (dimension, sort key) orders, in :func:`enumerate_styles` order.
_ORDERS = (("y", "near"), ("y", "far"), ("x", "near"), ("x", "far"))
_ORDER_OF = {order: o for o, order in enumerate(_ORDERS)}


def evaluate_style(
    subdivision: Subdivision,
    region_ids: Sequence[int],
    style: PartitionStyle,
) -> Partition:
    """Algorithm 1 for one style: :func:`best_partitions` on one node with
    one candidate."""
    return best_partitions(subdivision, [region_ids], [[style]])[0]


def best_partition(
    subdivision: Subdivision,
    region_ids: Sequence[int],
    tie_break_inter_prob: bool = True,
    extended_styles: bool = False,
) -> Partition:
    """Evaluate every candidate style and pick the best one (§4.2).

    Primary criterion: smallest partition size (coordinate count).
    Tie-break: lowest inter-prob (disabled for the A1 ablation, which then
    falls back to the deterministic style enumeration order).
    ``extended_styles`` adds the complement-extent variants (extension).
    This is :func:`best_partitions` on one node.
    """
    styles = enumerate_styles(len(region_ids), extended=extended_styles)
    return best_partitions(
        subdivision, [region_ids], [styles], tie_break_inter_prob
    )[0]


def best_partitions(
    subdivision: Subdivision,
    nodes: Sequence[Sequence[int]],
    styles: Sequence[Sequence[PartitionStyle]],
    tie_break_inter_prob: bool = True,
) -> List[Partition]:
    """Algorithm 1 and the §4.2 selection for every node of a tree level.

    ``nodes[g]`` holds the region ids of node ``g`` (the nodes share no
    region) and ``styles[g]`` its candidate styles.  Returns each node's
    winning partition: the smallest size, then, with
    ``tie_break_inter_prob``, the lowest inter-prob, then the earliest
    candidate.  All candidates of all nodes are sized in one array pass
    (see the module docstring); only the winners are chained.
    """
    return _LevelPass(subdivision, nodes, styles).partitions(tie_break_inter_prob)


class _LevelPass:
    """The arrays of one :func:`best_partitions` call.

    Level rows are the nodes' table rows, node after node; a style ``s``
    is one candidate of node ``st_node[s]``, numbered in candidate order.
    """

    def __init__(
        self,
        subdivision: Subdivision,
        nodes: Sequence[Sequence[int]],
        styles: Sequence[Sequence[PartitionStyle]],
    ) -> None:
        ids = [rid for node in nodes for rid in node]
        table, rows = subdivision.edge_rows(ids)
        if len(set(rows)) != len(rows):
            raise IndexBuildError("the nodes of one level must not share regions")
        self.table = table
        self.rows = np.asarray(rows, np.int64)
        self.rids = np.asarray(ids, np.int64)
        self.sizes = np.fromiter(map(len, nodes), np.int64, len(nodes))
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.node_of = np.repeat(np.arange(len(nodes)), self.sizes)
        self.styles = styles
        self._style_table(styles)
        self._sort()
        self._bounds()
        self._prune(*self._extents())
        self._size()

    # -- candidates ------------------------------------------------------------

    def _style_table(self, styles: Sequence[Sequence[PartitionStyle]]) -> None:
        """Flatten the candidates: order, first count, described side and
        layer (how many earlier candidates of the node share the order and
        the described side) of each style."""
        counts = np.fromiter(map(len, styles), np.int64, len(styles))
        if not counts.all():
            raise IndexBuildError("every node needs a candidate style")
        specs = {}
        for node_styles in styles:
            if id(node_styles) not in specs:
                seen: dict = {}
                spec = []
                for style in node_styles:
                    o = _ORDER_OF[(style.dimension, style.sort_key)]
                    second = style.described == "second"
                    layer = seen[o, second] = seen.get((o, second), -1) + 1
                    spec.append((o, style.first_count, second, layer))
                specs[id(node_styles)] = np.array(spec, np.int64).reshape(-1, 4)
        table = np.concatenate([specs[id(node_styles)] for node_styles in styles])
        #: The (order, layer, described second) classes present: one
        #: extent pass each, every node holding at most one style of each.
        self.classes = sorted(
            {
                (o, layer, bool(second))
                for spec in specs.values()
                for o, _, second, layer in spec.tolist()
            }
        )
        self.offsets = np.cumsum(counts) - counts
        self.st_node = np.repeat(np.arange(len(styles)), counts)
        self.st_order, self.st_fc, second, self.st_layer = table.T
        self.st_second = second.astype(bool)
        self.st_dimy = self.st_order < 2
        n = self.sizes[self.st_node]
        bad = np.flatnonzero((self.st_fc < 1) | (self.st_fc >= n))
        if len(bad):
            style = self._style(bad[0])
            raise IndexBuildError(
                f"style {style!r} yields an empty subspace for {n[bad[0]]} regions"
            )

    def _style(self, s: int) -> PartitionStyle:
        g = self.st_node[s]
        return self.styles[g][s - self.offsets[g]]

    # -- phase 1: orders, bounds and extents -----------------------------------

    def _sort(self) -> None:
        """The four region orders: level rows sorted by (node, key, id),
        and each level row's rank within its node."""
        box = self.table.boxes[:, self.rows]
        self.box = box
        keys = (box[0], box[1], -box[3], -box[2])
        rank = np.arange(len(self.rows)) - self.starts[self.node_of]
        self.order = []
        self.rank = []
        for key in keys:
            order = np.lexsort((self.rids, key, self.node_of))
            pos = np.empty_like(rank)
            pos[order] = rank
            self.order.append(order)
            self.rank.append(pos)

    def _bounds(self) -> None:
        """D1/D3 bounds, pruning line and inter-prob of every style.

        The first and second subspaces are the two halves of the node's
        run in the style's order, so one ``reduceat`` over that order,
        at (start, start + first count, end) per style, bounds both."""
        n_styles = len(self.st_node)
        first_bound = np.empty(n_styles)
        second_bound = np.empty(n_styles)
        starts = self.starts
        box = self.box
        for o in range(4):
            sel = np.flatnonzero(self.st_order == o)
            if not len(sel):
                continue
            g = self.st_node[sel]
            cuts = np.stack(
                (starts[g], starts[g] + self.st_fc[sel], starts[g] + self.sizes[g]), 1
            ).ravel()
            order = self.order[o]
            if o < 2:
                # D1: x <= min x of the second subspace; D3: x >= max x
                # of the first.
                of_second, of_first = np.minimum, np.maximum
                second_vals, first_vals = box[0][order], box[1][order]
            else:
                # D1: y >= max y of the second subspace; D3: y <= min y
                # of the first.
                of_second, of_first = np.maximum, np.minimum
                second_vals, first_vals = box[3][order], box[2][order]
            # The padding keeps the last node's end a valid index.
            second_vals = np.append(second_vals, 0.0)
            first_vals = np.append(first_vals, 0.0)
            first_bound[sel] = of_second.reduceat(second_vals, cuts)[1::3]
            second_bound[sel] = of_first.reduceat(first_vals, cuts)[0::3]
        g = self.st_node
        dimy = self.st_dimy
        axis_lo = np.where(
            dimy,
            np.minimum.reduceat(box[0], starts)[g],
            np.minimum.reduceat(box[2], starts)[g],
        )
        axis_hi = np.where(
            dimy,
            np.maximum.reduceat(box[1], starts)[g],
            np.maximum.reduceat(box[3], starts)[g],
        )
        overlap = np.maximum(
            0.0, np.where(dimy, second_bound - first_bound, first_bound - second_bound)
        )
        span = np.maximum(axis_hi - axis_lo, 1e-12)
        self.st_inter_prob = np.minimum(1.0, overlap / span)
        self.st_line = np.where(self.st_second, second_bound, first_bound)

    def _extents(self):
        """Every style's extent, as (table entry, style) pairs.

        A node's entry is on the extent of the subspace it lies in unless
        the other entry of its edge lies in the same subspace of the same
        node.  Each style's entries come in region order, then ring order:
        the order the scalar edge cancellation lists them in.
        """
        table = self.table
        rows = self.rows
        n_entries = table.offsets[rows + 1] - table.offsets[rows]
        partner = self._partners(n_entries)
        entries, owners = [], []
        n_nodes = len(self.sizes)
        for o in range(4):
            wanted = [(layer, second) for k, layer, second in self.classes if k == o]
            if not wanted:
                continue
            order = self.order[o]
            ent = table.entries_of(rows[order])
            lr = np.repeat(order, n_entries[order])
            pos = self.rank[o]
            p = pos[lr]
            node = self.node_of[lr]
            mate = partner[ent]
            has_mate = mate >= 0
            mate_pos = pos[mate]
            for layer, second in wanted:
                sel = np.flatnonzero(
                    (self.st_order == o)
                    & (self.st_layer == layer)
                    & (self.st_second == second)
                )
                fc = np.zeros(n_nodes, np.int64)
                fc[self.st_node[sel]] = self.st_fc[sel]
                style_of = np.full(n_nodes, -1, np.int64)
                style_of[self.st_node[sel]] = sel
                first = fc[node]
                if second:
                    mate_in = has_mate & (mate_pos >= first)
                    mask = (first > 0) & (p >= first) & ~mate_in
                else:
                    mask = (p < first) & ~(has_mate & (mate_pos < first))
                hit = np.flatnonzero(mask)
                entries.append(ent[hit])
                owners.append(style_of[node[hit]])
        return np.concatenate(entries), np.concatenate(owners)

    def _partners(self, n_entries: np.ndarray) -> np.ndarray:
        """For each table entry of the level, the level row holding the
        other entry of its edge within the same node, or -1."""
        table = self.table
        ent = table.entries_of(self.rows)
        lr = np.repeat(np.arange(len(self.rows)), n_entries)
        key = self.node_of[lr] * table.n_edges + table.edge[ent]
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        runs = np.diff(np.r_[starts, len(key)])
        if runs.max(initial=0) > 2:
            raise SubdivisionError(
                "edge shared by more than two regions — regions do not "
                "form an edge-to-edge subdivision"
            )
        pairs = starts[runs == 2]
        a, b = ent[order[pairs]], ent[order[pairs + 1]]
        partner = np.full(len(table.points), -1, np.int64)
        partner[a] = lr[order[pairs + 1]]
        partner[b] = lr[order[pairs]]
        return partner

    # -- phase 2: pruning --------------------------------------------------------

    def _prune(self, ent: np.ndarray, style: np.ndarray) -> None:
        """Algorithm 1 lines 5-16 for every extent entry at once.

        A segment wholly on the kept side of its style's line is kept, one
        wholly beyond it is dropped, and one crossing it is cut at the line
        and kept from the cut point to its far end.  With ``u`` the axis
        the line crosses and ``ge`` the kept side (``u >= line``), the
        four pruning variants are one expression.
        """
        table = self.table
        end = table.succ[ent].astype(np.int64)
        dimy = self.st_dimy[style]
        ge = dimy != self.st_second[style]
        line = self.st_line[style]
        xa, ya, xb, yb = table.xs[ent], table.ys[ent], table.xs[end], table.ys[end]
        au, bu = np.where(dimy, xa, ya), np.where(dimy, xb, yb)
        lo, hi = np.minimum(au, bu), np.maximum(au, bu)
        whole = np.where(ge, lo >= line, hi <= line)
        kept = whole | ~np.where(ge, hi <= line, lo >= line)
        cut = np.flatnonzero(kept & ~whole)
        av, bv = np.where(dimy, ya, xa)[cut], np.where(dimy, yb, xb)[cut]
        au, bu, cut_line = au[cut], bu[cut], line[cut]
        t = (cut_line - au) / (bu - au)
        cut_v = av + t * (bv - av)
        far = np.where(np.where(ge[cut], au > bu, au < bu), ent[cut], end[cut])
        # Segment ``i`` runs from entry ``a[i]`` (-1: the cut point) to
        # entry ``b[i]``; ``ka``/``kb`` are the vertex ids chained on.
        a = ent.copy()
        a[cut] = -1
        b = end
        b[cut] = far
        kb = table.vertex[b].astype(np.int64)
        ka = table.vertex[ent].astype(np.int64)
        ka[cut] = self._cut_ids(dimy[cut], cut_line, cut_v)
        v = np.full(len(ent), np.nan)
        v[cut] = cut_v
        keep = np.flatnonzero(kept)
        self.seg_style = style[keep]
        self.seg_a, self.seg_b = a[keep], b[keep]
        self.seg_ka, self.seg_kb = ka[keep], kb[keep]
        self.seg_v = v[keep]

    def _cut_ids(
        self, dimy: np.ndarray, line: np.ndarray, v: np.ndarray
    ) -> List[int]:
        """Vertex ids of cut points.

        A cut point quantising onto an existing vertex takes that vertex's
        id; any other gets a new id past the table's, equal for equal keys.
        ``n_vertices`` counts the ids then in use.
        """
        vertex_ids = self.table.vertex_ids
        get = vertex_ids.get
        fresh: dict = {}
        base = len(vertex_ids)
        ids = []
        xs = np.where(dimy, line, v).tolist()
        ys = np.where(dimy, v, line).tolist()
        for q in vertex_keys(xs, ys):
            vid = get(q)
            if vid is None:
                vid = fresh.setdefault(q, base + len(fresh))
            ids.append(vid)
        self.n_vertices = base + len(fresh)
        return ids

    # -- sizes without chaining ----------------------------------------------------

    def _size(self) -> None:
        """Each style's size from vertex degrees, as :func:`chain_keyed`
        would count it.

        Chaining splits the kept segments at every vertex whose degree is
        not 2: the pieces are the open chains between such vertices plus
        the closed rings made only of degree-2 vertices.  A chain of ``m``
        segments stores ``m + 1`` coordinates, so the size is the kept
        segments plus the chains: half the degree sum over vertices of
        degree other than 2, plus the rings.
        """
        n_styles = len(self.st_node)
        style = self.seg_style
        n = len(style)
        span = self.n_vertices
        ends = np.concatenate((style, style)) * span + np.concatenate(
            (self.seg_ka, self.seg_kb)
        )
        keys, inverse, degree = np.unique(
            ends, return_inverse=True, return_counts=True
        )
        vertex_style = keys // span
        odd = np.where(degree != 2, degree, 0)
        chains = np.bincount(vertex_style, weights=odd, minlength=n_styles) // 2
        rings = self._rings(vertex_style, inverse[:n], inverse[n:], degree == 2)
        self.st_size = (
            np.bincount(style, minlength=n_styles) + chains.astype(np.int64) + rings
        )

    def _rings(self, vertex_style, a, b, two) -> np.ndarray:
        """Closed rings per style: cycles of segments whose vertices all
        have degree 2.

        Take the segments between two degree-2 vertices; each has two
        ends, and at a vertex its two ends pair up.  Stepping from an end
        to the other end of its segment, then across the vertex to the
        paired end, walks a ring in one direction, so every ring is two
        cycles of steps; a walk that meets an unpaired end is on an open
        chain and stops there.  Pointer doubling finds, for every end,
        whether its walk stops and the least end on it; a ring is counted
        at its least end, once per direction.
        """
        inner = np.flatnonzero(two[a] & two[b])
        at = np.empty(2 * len(inner), np.int64)
        at[0::2], at[1::2] = a[inner], b[inner]
        own = np.arange(len(at))
        order = np.argsort(at, kind="stable")
        pairs = np.flatnonzero(at[order][1:] == at[order][:-1])
        mate = own.copy()
        mate[order[pairs]] = order[pairs + 1]
        mate[order[pairs + 1]] = order[pairs]
        other = own ^ 1
        stops = mate[other] == other
        step = np.where(stops, own, mate[other])
        least = own
        for _ in range(max(len(at) - 1, 0).bit_length()):
            least = np.minimum(least, least[step])
            stops |= stops[step]
            step = step[step]
        ring_ends = at[~stops & (least == own)]
        n_styles = len(self.st_node)
        return np.bincount(vertex_style[ring_ends], minlength=n_styles) // 2

    # -- the winners -----------------------------------------------------------------

    def partitions(self, tie_break_inter_prob: bool) -> List[Partition]:
        """Pick each node's winner and chain its kept segments only."""
        number = np.arange(len(self.st_node))
        if tie_break_inter_prob:
            keys = (number, self.st_inter_prob, self.st_size, self.st_node)
        else:
            keys = (number, self.st_size, self.st_node)
        ranked = np.lexsort(keys)
        node = self.st_node[ranked]
        winners = ranked[np.r_[True, node[1:] != node[:-1]]]
        is_winner = np.zeros(len(number), bool)
        is_winner[winners] = True
        segs = np.flatnonzero(is_winner[self.seg_style])
        seg_node = self.st_node[self.seg_style[segs]]
        segs = segs[np.argsort(seg_node, kind="stable")]
        bounds = np.r_[0, np.cumsum(np.bincount(seg_node, minlength=len(winners)))]
        a_ent = self.seg_a[segs].tolist()
        b_ent = self.seg_b[segs].tolist()
        a_keys = self.seg_ka[segs].tolist()
        b_keys = self.seg_kb[segs].tolist()
        cut_v = self.seg_v[segs].tolist()
        points = self.table.points
        sorted_rows = {}
        out = []
        for g, s in enumerate(winners.tolist()):
            o = int(self.st_order[s])
            if o not in sorted_rows:
                order = self.order[o]
                sorted_rows[o] = (
                    self.rows[order].tolist(),
                    self.rids[order].tolist(),
                )
            rows, rids = sorted_rows[o]
            start = int(self.starts[g])
            split = start + int(self.st_fc[s])
            stop = start + int(self.sizes[g])
            style = self._style(s)
            first_bound, second_bound, inter_prob = _bounds(
                self.table, style.dimension, rows[start:split], rows[split:stop]
            )
            line = second_bound if style.described == "second" else first_bound
            lo, hi = bounds[g], bounds[g + 1]
            a_points = [
                points[e] if e >= 0
                else (Point(line, v) if style.dimension == "y" else Point(v, line))
                for e, v in zip(a_ent[lo:hi], cut_v[lo:hi])
            ]
            b_points = [points[e] for e in b_ent[lo:hi]]
            out.append(
                Partition(
                    style=style,
                    first_ids=rids[start:split],
                    second_ids=rids[split:stop],
                    polylines=chain_keyed(
                        a_points, b_points, a_keys[lo:hi], b_keys[lo:hi]
                    ),
                    first_bound=first_bound,
                    second_bound=second_bound,
                    inter_prob=inter_prob,
                )
            )
        return out


def _bounds(
    table: EdgeTable,
    dimension: str,
    first_rows: Sequence[int],
    second_rows: Sequence[int],
) -> Tuple[float, float, float]:
    """First bound, second bound and inter-prob of one split, read from
    the table's Python floats in region order."""
    all_rows = list(first_rows) + list(second_rows)
    if dimension == "y":
        # D1: x <= first_bound (nothing of the second subspace is there).
        first_bound = min(map(table.min_x.__getitem__, second_rows))
        second_bound = max(map(table.max_x.__getitem__, first_rows))
        axis_lo = min(map(table.min_x.__getitem__, all_rows))
        axis_hi = max(map(table.max_x.__getitem__, all_rows))
        overlap = max(0.0, second_bound - first_bound)
    else:
        # D1: y >= first_bound.
        first_bound = max(map(table.max_y.__getitem__, second_rows))
        second_bound = min(map(table.min_y.__getitem__, first_rows))
        axis_lo = min(map(table.min_y.__getitem__, all_rows))
        axis_hi = max(map(table.max_y.__getitem__, all_rows))
        overlap = max(0.0, first_bound - second_bound)
    span = max(axis_hi - axis_lo, 1e-12)
    return first_bound, second_bound, min(1.0, overlap / span)


def _sort_regions(
    subdivision: Subdivision, region_ids: Sequence[int], style: PartitionStyle
) -> List[int]:
    """Order regions so the first ``first_count`` form the first subspace.

    Dimension "y": ascending x (first = lefthand).  Dimension "x":
    descending y (first = upper).  Region id breaks sort-key ties so the
    construction is deterministic.
    """
    table, rows = subdivision.edge_rows(region_ids)
    if style.dimension == "y":
        values = table.max_x if style.sort_key == "far" else table.min_x
        keyed = [(values[row], rid) for rid, row in zip(region_ids, rows)]
    else:
        values = table.min_y if style.sort_key == "far" else table.max_y
        keyed = [(-values[row], rid) for rid, row in zip(region_ids, rows)]
    keyed.sort()
    return [rid for _, rid in keyed]
