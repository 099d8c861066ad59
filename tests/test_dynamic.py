"""The dynamic-broadcast layer: updates, maintenance, versioned service."""

import random

import pytest

from repro.broadcast.client import BroadcastClient
from repro.broadcast.packets import stamp_version
from repro.datasets.catalog import (
    SERVICE_AREA,
    hospital_dataset,
    park_dataset,
    uniform_dataset,
)
from repro.dynamic import (
    DTreeMaintainer,
    DynamicBroadcastClient,
    DynamicBroadcastServer,
    MAINTAINER_REGISTRY,
    RegionUpdate,
    UpdateBatch,
    churn_sites,
    diff_subdivisions,
    maintainer_for,
    register_maintainer,
    sites_subdivision,
)
from repro.dynamic.maintain import IndexMaintainer, _leaf_ids
from repro.errors import IndexBuildError, ReproError, UpdateError
from repro.geometry.point import Point
from repro.rstar.tree import RStarTree

AREA = SERVICE_AREA
MOVE_SCALE = 0.02 * (AREA.max_x - AREA.min_x)
TOLERANCE = 1e-9 * (AREA.max_x - AREA.min_x)


def _sites(n, seed):
    rng = random.Random(seed)
    return {
        i: Point(
            rng.uniform(AREA.min_x, AREA.max_x),
            rng.uniform(AREA.min_y, AREA.max_y),
        )
        for i in range(n)
    }


def _churn_chain(sites, steps, seed, **kwargs):
    """Successive (subdivision, batch) pairs from churning *sites*."""
    rng = random.Random(seed)
    sub = sites_subdivision(sites, AREA)
    out = []
    for _ in range(steps):
        sites = churn_sites(sites, AREA, rng=rng, **kwargs)
        new = sites_subdivision(sites, AREA)
        out.append((sub, new, diff_subdivisions(sub, new, tolerance=TOLERANCE)))
        sub = new
    return out


class TestUpdateBatch:
    def test_unknown_kind_rejected(self):
        with pytest.raises(UpdateError):
            RegionUpdate("mutate", 3)

    def test_duplicate_region_rejected(self):
        with pytest.raises(UpdateError):
            UpdateBatch([RegionUpdate("delete", 1), RegionUpdate("reshape", 1)])

    def test_removed_and_added_sets(self):
        batch = UpdateBatch(
            [
                RegionUpdate("insert", 9),
                RegionUpdate("delete", 1),
                RegionUpdate("reshape", 2),
            ]
        )
        assert batch.removed_ids == {1, 2}
        assert batch.added_ids == {9, 2}
        assert not batch.is_empty and len(batch) == 3

    def test_diff_subdivisions_classifies(self):
        sites = _sites(30, seed=3)
        sub = sites_subdivision(sites, AREA)
        churned = churn_sites(
            sites, AREA, n_insert=1, n_delete=1, n_move=1,
            move_scale=MOVE_SCALE, seed=5,
        )
        new = sites_subdivision(churned, AREA)
        batch = diff_subdivisions(sub, new, tolerance=TOLERANCE)
        assert batch.inserted_ids == {30}
        assert len(batch.deleted_ids) == 1
        assert batch.reshaped_ids  # neighbours of the changed sites
        batch.validate_against(sub, new, tolerance=TOLERANCE)

    def test_diff_of_identical_is_empty(self):
        sub = sites_subdivision(_sites(12, seed=1), AREA)
        assert diff_subdivisions(sub, sub).is_empty

    def test_tolerance_suppresses_float_noise(self):
        # Re-tessellating after one local move perturbs geometrically
        # untouched cells at the 1e-12 scale; the tolerant diff must
        # report far fewer reshapes than the exact one on a big map.
        sites = _sites(150, seed=9)
        sub = sites_subdivision(sites, AREA)
        churned = churn_sites(
            sites, AREA, n_move=1, move_scale=MOVE_SCALE, seed=2
        )
        new = sites_subdivision(churned, AREA)
        exact = diff_subdivisions(sub, new)
        tolerant = diff_subdivisions(sub, new, tolerance=TOLERANCE)
        assert len(tolerant) <= len(exact)
        assert set(tolerant.updates) <= set(exact.updates)
        assert len(tolerant) < len(sub) / 4  # genuinely local churn

    def test_validate_against_rejects_wrong_batch(self):
        sites = _sites(20, seed=4)
        sub = sites_subdivision(sites, AREA)
        new = sites_subdivision(
            churn_sites(sites, AREA, n_delete=1, seed=8), AREA
        )
        with pytest.raises(UpdateError):
            UpdateBatch([]).validate_against(sub, new)


class TestChurnSites:
    def test_ids_stable_and_fresh(self):
        sites = _sites(10, seed=0)
        churned = churn_sites(sites, AREA, n_insert=2, n_delete=1, seed=1)
        assert set(churned) - set(sites) == {10, 11}
        assert len(set(sites) - set(churned)) == 1
        survivors = set(sites) & set(churned)
        assert all(churned[i] is sites[i] for i in survivors)

    def test_cannot_delete_everything(self):
        with pytest.raises(UpdateError):
            churn_sites(_sites(3, seed=0), AREA, n_delete=3)

    def test_move_scale_bounds_step(self):
        sites = _sites(10, seed=0)
        churned = churn_sites(
            sites, AREA, n_move=10, move_scale=0.01, seed=2
        )
        for rid in sites:
            assert abs(churned[rid].x - sites[rid].x) <= 0.01 + 1e-12
            assert abs(churned[rid].y - sites[rid].y) <= 0.01 + 1e-12

    def test_input_not_modified(self):
        sites = _sites(8, seed=0)
        before = dict(sites)
        churn_sites(sites, AREA, n_insert=1, n_delete=1, n_move=2, seed=3)
        assert sites == before


DATASETS = [
    pytest.param(lambda: uniform_dataset(n=60, seed=42), id="uniform"),
    pytest.param(lambda: hospital_dataset(n=60, seed=185), id="hospital"),
    pytest.param(lambda: park_dataset(n=60, seed=1102), id="park"),
]


class TestRStarIncremental:
    @pytest.mark.parametrize("make_dataset", DATASETS)
    def test_exact_vs_rebuild_on_every_dataset(self, make_dataset):
        """Incrementally maintained tree answers exactly like a
        from-scratch rebuild over the new subdivision."""
        dataset = make_dataset()
        sites = {i: p for i, p in enumerate(dataset.points)}
        tree = RStarTree.build(sites_subdivision(sites, AREA), max_entries=8)
        rng = random.Random(13)
        for step, (old, new, batch) in enumerate(
            _churn_chain(
                sites, steps=2, seed=13,
                n_insert=1, n_delete=1, n_move=1, move_scale=MOVE_SCALE,
            )
        ):
            del old, step
            tree.apply_updates(new, batch)
            tree.check_invariants()
            rebuilt = RStarTree.build(new, max_entries=8)
            points = new.random_points(150, rng)
            got = [tree.locate(p) for p in points]
            want = [rebuilt.locate(p) for p in points]
            assert got == want
            assert got == [new.locate(p) for p in points]

    def test_delete_unknown_region_raises(self, voronoi60):
        tree = RStarTree.build(voronoi60, max_entries=6)
        with pytest.raises(IndexBuildError):
            tree.delete(10_000)

    def test_delete_keeps_invariants_under_heavy_removal(self, voronoi60):
        tree = RStarTree.build(voronoi60, max_entries=4)
        ids = list(voronoi60.region_ids)
        random.Random(5).shuffle(ids)
        for rid in ids[:45]:
            tree.delete(rid, voronoi60.region(rid).polygon.bbox)
            tree.check_invariants()
        remaining = sorted(
            e.region_id
            for n in tree.nodes_depth_first()
            if n.is_leaf
            for e in n.entries
        )
        assert remaining == sorted(set(voronoi60.region_ids) - set(ids[:45]))


class TestDTreeMaintainer:
    def test_exact_over_churn_cycles(self):
        maintainer = DTreeMaintainer(staleness_budget=float("inf"))
        sites = _sites(40, seed=21)
        tree = maintainer.build(sites_subdivision(sites, AREA))
        rng = random.Random(21)
        for _, new, batch in _churn_chain(
            sites, steps=3, seed=21, n_move=1, move_scale=MOVE_SCALE
        ):
            tree = maintainer.apply(tree, new, batch)
            assert tree.subdivision is new
            for p in new.random_points(120, rng):
                assert tree.locate(p) == new.locate(p)
        assert (
            maintainer.incremental_applies + maintainer.full_rebuilds == 3
        )

    def test_splice_rebuilds_only_a_subtree(self):
        """A change confined to one side of the root splices instead of
        rebuilding, and the untouched sibling subtree is preserved."""
        sites = _sites(60, seed=33)
        sub = sites_subdivision(sites, AREA)
        maintainer = DTreeMaintainer(staleness_budget=float("inf"))
        tree = maintainer.build(sub)
        left_ids = _leaf_ids(tree.root.left)
        right_ids = _leaf_ids(tree.root.right)
        # A region whose whole neighbourhood lives inside one side: a
        # small move of its site changes nothing on the other side.
        adjacency = sub.adjacency()
        candidates = [
            rid
            for rid in sorted(left_ids)
            if {rid, *adjacency[rid]} <= left_ids
            and all(set(adjacency[n]) <= left_ids for n in adjacency[rid])
        ]
        assert candidates, "no region buried deep enough in the left subtree"
        target = candidates[0]
        moved = dict(sites)
        p = moved[target]
        cell = sub.region(target).polygon
        width = cell.bbox.max_x - cell.bbox.min_x
        moved[target] = Point(p.x + 0.02 * width, p.y)
        new = sites_subdivision(moved, AREA)
        batch = diff_subdivisions(sub, new, tolerance=TOLERANCE)
        assert batch.removed_ids <= left_ids
        untouched_right = tree.root.right
        tree = maintainer.apply(tree, new, batch)
        assert maintainer.incremental_applies == 1
        assert maintainer.full_rebuilds == 0
        assert tree.root.right is untouched_right
        assert _leaf_ids(tree.root.left) == left_ids
        assert _leaf_ids(tree.root.right) == right_ids
        rng = random.Random(0)
        for p in new.random_points(200, rng):
            assert tree.locate(p) == new.locate(p)

    def test_spliced_node_ids_stay_unique(self):
        sites = _sites(40, seed=21)
        maintainer = DTreeMaintainer(staleness_budget=float("inf"))
        tree = maintainer.build(sites_subdivision(sites, AREA))
        for _, new, batch in _churn_chain(
            sites, steps=3, seed=21, n_move=1, move_scale=MOVE_SCALE
        ):
            tree = maintainer.apply(tree, new, batch)
        ids = [n.node_id for n in tree.iter_nodes()]
        assert len(ids) == len(set(ids))

    def test_spliced_tree_compiles_and_matches_walker(self):
        """Regression: a splice retires node ids, and the engine used to
        refuse to compile the non-dense paged tree.  After every splice
        the batched engine must equal the per-query walker."""
        from repro.engine import QueryEngine

        sites = _sites(40, seed=21)
        server = DynamicBroadcastServer(
            "dtree",
            sites_subdivision(sites, AREA),
            packet_capacity=128,
            staleness_budget=float("inf"),
        )
        rng = random.Random(5)
        for _, new, batch in _churn_chain(
            sites, steps=3, seed=21, n_move=1, move_scale=MOVE_SCALE
        ):
            server.apply_updates(new, batch)
            ids = sorted(n.node_id for n in server.index.iter_nodes())
            points = new.random_points(80, rng)
            times = [rng.uniform(0, server.schedule.cycle_length) for _ in points]
            batch_result = QueryEngine(server.paged, server.schedule).run(
                points, issue_times=times
            )
            walker = BroadcastClient(server.paged, server.schedule)
            for i, (p, t) in enumerate(zip(points, times)):
                r = walker.query(p, t)
                assert (
                    batch_result.region_ids[i],
                    batch_result.access_latency[i],
                    batch_result.index_tuning_time[i],
                    batch_result.total_tuning_time[i],
                ) == (
                    r.region_id,
                    r.access_latency,
                    r.index_tuning_time,
                    r.total_tuning_time,
                )
        assert server.maintainer.incremental_applies == 3
        assert ids != list(range(len(ids)))  # the splices left id gaps

    def test_zero_budget_always_rebuilds(self):
        sites = _sites(30, seed=2)
        maintainer = DTreeMaintainer(staleness_budget=0.0)
        tree = maintainer.build(sites_subdivision(sites, AREA))
        for _, new, batch in _churn_chain(
            sites, steps=2, seed=2, n_move=1, move_scale=MOVE_SCALE
        ):
            tree = maintainer.apply(tree, new, batch)
        assert maintainer.incremental_applies == 0
        assert maintainer.full_rebuilds == 2

    def test_budget_resets_after_full_rebuild(self):
        maintainer = DTreeMaintainer(staleness_budget=0.4)
        maintainer.stale_fraction = 0.39
        sites = _sites(30, seed=6)
        tree = maintainer.build(sites_subdivision(sites, AREA))
        assert maintainer.stale_fraction == 0.0

    def test_empty_batch_is_identity(self):
        sub = sites_subdivision(_sites(20, seed=1), AREA)
        maintainer = DTreeMaintainer()
        tree = maintainer.build(sub)
        assert maintainer.apply(tree, sub, UpdateBatch([])) is tree
        assert maintainer.incremental_applies == 0
        assert maintainer.full_rebuilds == 0


class TestMaintainerRegistry:
    def test_builtin_families_registered(self):
        assert set(MAINTAINER_REGISTRY) >= {"dtree", "rstar", "trap", "trian"}

    def test_duplicate_registration_rejected(self):
        with pytest.raises(UpdateError):
            register_maintainer("rstar", IndexMaintainer)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            maintainer_for("btree")

    def test_full_rebuild_fallback_satisfies_protocol(self):
        sites = _sites(25, seed=7)
        sub = sites_subdivision(sites, AREA)
        maintainer = maintainer_for("trap", seed=3)
        tree = maintainer.build(sub)
        (_, new, batch), = _churn_chain(
            sites, steps=1, seed=7, n_move=1, move_scale=MOVE_SCALE
        )
        tree = maintainer.apply(tree, new, batch)
        assert maintainer.full_rebuilds == 1
        rng = random.Random(1)
        for p in new.random_points(100, rng):
            assert tree.locate(p) == new.locate(p)


@pytest.mark.parametrize("kind", ["dtree", "trian", "trap", "rstar"])
class TestDynamicService:
    def test_zero_update_path_matches_static_client(self, kind):
        """With no updates, the dynamic client is the static client,
        packet for packet."""
        sub = sites_subdivision(_sites(40, seed=11), AREA)
        server = DynamicBroadcastServer(kind, sub, packet_capacity=128)
        dynamic = DynamicBroadcastClient(server)
        static = BroadcastClient(server.paged, server.schedule)
        rng = random.Random(4)
        points = sub.random_points(40, rng)
        times = [rng.uniform(0, server.schedule.cycle_length) for _ in points]
        for p, t in zip(points, times):
            a = dynamic.query(p, t)
            b = static.query(p, t)
            assert a.version == 0
            assert a.attempts == 1 and a.wasted_tuning == 0
            assert (
                a.region_id,
                a.access_latency,
                a.index_tuning_time,
                a.total_tuning_time,
            ) == (
                b.region_id,
                b.access_latency,
                b.index_tuning_time,
                b.total_tuning_time,
            )

    def test_version_stamped_everywhere(self, kind):
        sites = _sites(30, seed=17)
        sub = sites_subdivision(sites, AREA)
        server = DynamicBroadcastServer(kind, sub, packet_capacity=128)
        assert server.version == 0
        assert server.schedule.version == 0
        assert all(p.version == 0 for p in server.paged.packets)
        (_, new, batch), = _churn_chain(
            sites, steps=1, seed=17, n_move=1, move_scale=MOVE_SCALE
        )
        server.apply_updates(new, batch)
        assert server.version == 1
        assert server.schedule.version == 1
        assert all(p.version == 1 for p in server.paged.packets)
        assert 0 in server.history and 1 in server.history

    def test_empty_batch_does_not_advance_version(self, kind):
        sub = sites_subdivision(_sites(20, seed=3), AREA)
        server = DynamicBroadcastServer(kind, sub, packet_capacity=128)
        paged_before = server.paged
        server.apply_updates(sub)
        assert server.version == 0
        assert server.paged is paged_before

    def test_mid_read_update_detected_and_recovered(self, kind):
        """An update landing mid-index-search forces a retry; the final
        answer is exact for the version it is stamped with."""
        sites = _sites(40, seed=23)
        sub = sites_subdivision(sites, AREA)
        (_, new, batch), = _churn_chain(
            sites, steps=1, seed=23,
            n_insert=1, n_delete=1, n_move=1, move_scale=MOVE_SCALE,
        )
        fired = []

        server = DynamicBroadcastServer(kind, sub, packet_capacity=128)

        def interleave(stage, attempt):
            if stage == "index" and not fired:
                fired.append(True)
                server.apply_updates(new, batch)

        client = DynamicBroadcastClient(server, on_packet_read=interleave)
        rng = random.Random(9)
        for p in new.random_points(30, rng):
            result = client.query(p, rng.uniform(0, client.cycle_length))
            expected = server.history[result.version][0]
            assert result.region_id == expected.locate(p)
            if result.attempts > 1:
                assert result.wasted_tuning > 0
        assert fired  # the update really landed mid-read

    def test_history_limit_prunes_old_epochs(self, kind):
        sites = _sites(25, seed=29)
        sub = sites_subdivision(sites, AREA)
        server = DynamicBroadcastServer(
            kind, sub, packet_capacity=128, history_limit=2
        )
        for _, new, batch in _churn_chain(
            sites, steps=3, seed=29, n_move=1, move_scale=MOVE_SCALE
        ):
            server.apply_updates(new, batch)
        assert sorted(server.history) == [2, 3]


class TestShmVersionKeying:
    @staticmethod
    def _stack(subdivision):
        from repro.broadcast.params import SystemParameters
        from repro.broadcast.schedule import BroadcastSchedule
        from repro.core.dtree import DTree
        from repro.core.paging import PagedDTree
        from repro.engine.batch import QueryEngine

        params = SystemParameters.for_index("dtree", 256)
        paged = PagedDTree(DTree.build(subdivision), params)
        schedule = BroadcastSchedule(
            len(paged.packets), subdivision.region_ids, params
        )
        return paged, QueryEngine(paged, schedule)

    def test_attach_rejects_version_mismatch(self, voronoi60):
        from repro.fleet.shm import attach_compiled_state, export_compiled_state

        paged, engine = self._stack(voronoi60)
        arrays, meta = export_compiled_state(paged, engine.schedule)
        assert meta["index_version"] == 0
        stamp_version(paged, 3)  # the index moved on after the export
        with pytest.raises(ReproError, match="index version"):
            attach_compiled_state(paged, arrays, meta)

    def test_attach_accepts_matching_version(self, voronoi60):
        from repro.fleet.shm import attach_compiled_state, export_compiled_state

        paged, engine = self._stack(voronoi60)
        stamp_version(paged, 5)
        arrays, meta = export_compiled_state(paged, engine.schedule)
        assert meta["index_version"] == 5
        attach_compiled_state(paged, arrays, meta)  # no raise
