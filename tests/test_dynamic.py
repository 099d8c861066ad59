"""The dynamic-broadcast layer: updates, maintenance, versioned service."""

import random

import pytest

from repro.broadcast.client import BroadcastClient
from repro.broadcast.packets import stamp_version
from repro.datasets.generators import uniform_points
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
from repro.engine.trace import batched_trace
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

    def test_coincident_sites_rejected_by_name(self):
        """Churn drawing from the stream that placed the sites can land
        an inserted site on an existing one: here site 60 on site 3."""
        churned = churn_sites(
            _sites(60, seed=7), AREA, rng=random.Random(7),
            n_insert=1, n_delete=1, n_move=2, move_scale=MOVE_SCALE,
        )
        assert churned[60] == churned[3]
        with pytest.raises(UpdateError, match="sites 3 and 60 coincide"):
            sites_subdivision(churned, AREA)


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
            region_id
            for node in tree.nodes_depth_first()
            if tree.node_level[node] == 0
            for region_id in tree.node_targets[node]
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
        left_ids = _leaf_ids(tree, tree.left[tree.root])
        right_ids = _leaf_ids(tree, tree.right[tree.root])
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
        def nodes(tree, code):
            return [
                (tree.node_id[row], tree.partition[row])
                for row, _ in tree.walk(code)
                if row >= 0
            ]

        untouched_right = nodes(tree, tree.right[tree.root])
        aired = nodes(tree, tree.root)
        old, tree = tree, maintainer.apply(tree, new, batch)
        assert maintainer.incremental_applies == 1
        assert maintainer.full_rebuilds == 0
        assert nodes(tree, tree.right[tree.root]) == untouched_right
        assert _leaf_ids(tree, tree.left[tree.root]) == left_ids
        assert _leaf_ids(tree, tree.right[tree.root]) == right_ids
        # The splice built a new tree: the old one is as it aired.
        assert tree is not old and nodes(old, old.root) == aired
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
        ids = [tree.node_id[row] for row in tree.iter_nodes()]
        assert len(ids) == len(set(ids))
        assert tree.node_id == sorted(ids)  # rows stay in id order

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
            ids = sorted(server.index.node_id)
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

    def test_update_between_queries_rebinds(self, kind):
        """A client that skips re-binding an unchanged server still
        binds the next version once an update airs between queries."""
        sites = _sites(40, seed=31)
        sub = sites_subdivision(sites, AREA)
        (_, new, batch), = _churn_chain(
            sites, steps=1, seed=31, n_insert=1, n_delete=1, n_move=1,
            move_scale=MOVE_SCALE,
        )
        server = DynamicBroadcastServer(kind, sub, packet_capacity=128)
        client = DynamicBroadcastClient(server)
        p = new.random_points(1, random.Random(2))[0]
        first = client.query(p, 3.0)
        assert first.version == 0 and first.region_id == sub.locate(p)
        server.apply_updates(new, batch)
        second = client.query(p, 3.0)
        assert second.version == 1 and second.attempts == 1
        assert second.region_id == new.locate(p)
        assert client.paged_index is server.paged
        assert client.schedule is server.schedule

    def test_past_versions_answer_as_when_they_aired(self, kind):
        """Version 0, kept in history, traces and batch-traces as it did
        while it aired, however maintenance changed the live index since:
        both when it was compiled before the updates and when its first
        trace comes after them; its logical tree still locates as its
        packets trace.  Five moved sites per step make the D-tree
        rebuild; one makes it splice."""
        for n_move in (5, 1):
            self._check_past_versions(kind, n_move)

    def _check_past_versions(self, kind, n_move):
        initial = dict(enumerate(uniform_points(200, 3, SERVICE_AREA)))
        rng = random.Random(5)
        steps = []
        sites = initial
        for _ in range(4):
            sites = churn_sites(
                sites, AREA, n_move=n_move, move_scale=MOVE_SCALE, rng=rng
            )
            steps.append(sites_subdivision(sites, AREA))

        def serve():
            return DynamicBroadcastServer(
                kind, sites_subdivision(initial, AREA), packet_capacity=256
            )

        def answers(paged, points):
            traces = [(t.region_id, t.packets_accessed) for t in map(paged.trace, points)]
            batch = batched_trace(paged, points, paths=True)
            return traces, [
                column.tolist()
                for column in (
                    batch.region_ids, batch.last_packet, batch.tuning_time,
                    batch.path_offsets, batch.path_packets,
                )
            ]

        compiled_first = serve()
        points = compiled_first.subdivision.random_points(2000, random.Random(6))
        aired = answers(compiled_first.history[0][1], points)
        compiled_last = serve()
        for server in (compiled_first, compiled_last):
            for new in steps:
                server.apply_updates(new)
            assert server.version == len(steps)
            paged = server.history[0][1]
            assert answers(paged, points) == aired
            assert [paged.tree.locate(p) for p in points] == [
                paged.trace(p).region_id for p in points
            ]
            if kind == "dtree" and n_move == 1:
                assert server.maintainer.incremental_applies > 0

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

    def test_past_versions_release_their_edge_tables(self, kind, monkeypatch):
        """A version leaving the current slot drops its edge table (it
        rebuilds on demand); maintenance and answers are unchanged."""
        from repro.engine import QueryEngine
        from repro.tessellation.subdivision import Subdivision

        chain = _churn_chain(
            _sites(60, seed=7), steps=4, seed=8,
            n_insert=1, n_delete=1, n_move=2, move_scale=MOVE_SCALE,
        )
        rng = random.Random(3)
        points = chain[0][0].random_points(80, rng)
        times = [rng.uniform(0, 500.0) for _ in points]

        def replay():
            server = DynamicBroadcastServer(kind, chain[0][0], packet_capacity=128)
            answers = []
            for _, new, batch in chain:
                server.apply_updates(new, batch)
                run = QueryEngine(server.paged, server.schedule).run(
                    points, issue_times=times
                )
                answers.append(
                    [run.region_ids.tolist(), run.access_latency.tolist(),
                     run.total_tuning_time.tolist()]
                )
            maintainer = server.maintainer
            counts = [
                getattr(maintainer, name, None)
                for name in ("full_rebuilds", "incremental_applies")
            ]
            tables = [v for v, h in server.history.items() if h[0]._edges is not None]
            return server, answers, counts, tables

        released, answers, counts, tables = replay()
        with monkeypatch.context() as patch:
            patch.setattr(Subdivision, "release_edge_table", lambda self: None)
            kept, kept_answers, kept_counts, kept_tables = replay()
        assert answers == kept_answers
        assert counts == kept_counts
        assert sorted(released.history) == [0, 1, 2, 3, 4]
        assert tables == [v for v in kept_tables if v == released.version]
        if kind == "dtree":
            assert tables == [4] and kept_tables == [0, 1, 2, 3, 4]
        # A released table rebuilds on demand, equal to the kept one.
        old, held = released.history[1][0], kept.history[1][0]
        assert [(e.a, e.b) for e in old.all_edges()] == [
            (e.a, e.b) for e in held.all_edges()
        ]


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
