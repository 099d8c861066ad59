"""churn-uniform200: the E12 set-up (uniform 200 sites, dtree and rstar)
with one site moved per broadcast cycle.

Each cycle applies the update batch (the write), then reads through a
``QueryEngine`` on the new ``server.paged`` / ``server.schedule`` — one
recompile per cycle — and sends a smaller share of reads through
``DynamicBroadcastClient``.  Throughput counts reads only.

Known failure, kept visible rather than fixed here: after a D-tree
splice the paged node ids are not dense and the engine refuses to
compile (``QueryError``).  Those batches are answered by the per-query
``BroadcastClient`` path instead — the body of
``evaluate_index_per_query``, which returns only a summary — so the work
done stays the same whether or not a later change fixes the refusal.
"""

from __future__ import annotations

import random
from time import perf_counter

import numpy as np

from repro.broadcast.client import BroadcastClient
from repro.datasets.catalog import SERVICE_AREA, uniform_dataset
from repro.dynamic import (
    DynamicBroadcastClient,
    DynamicBroadcastServer,
    churn_sites,
    diff_subdivisions,
    maintainer_for,
    sites_subdivision,
)
from repro.engine import QueryEngine, batched_trace, index_family
from repro.errors import QueryError
from repro.fleet import UniformFleetWorkload

from spans import NULL, TimedMaintainer
from workloads.common import (
    COMPILE_PROBE,
    PACKET_CAPACITY,
    Outcome,
    coords_of,
    engine_obs_names,
)

KINDS = ("dtree", "rstar")
#: E12's D-tree staleness budget.
MAINTAINER_KWARGS = {"dtree": {"staleness_budget": 0.5}, "rstar": {}}
WIDTH = SERVICE_AREA.max_x - SERVICE_AREA.min_x
#: E12's churn seed.
CHURN_SEED = 7


class Inputs:
    """One churn run made up front: the cycles' subdivisions, the update
    batches between them, and each cycle's read points."""

    def __init__(self, sites, subdivisions, batches, reads) -> None:
        self.sites = sites
        self.subdivisions = subdivisions
        self.batches = batches
        self.reads = reads


class State:
    def __init__(self, inputs, servers, index_packets) -> None:
        self.inputs = inputs
        self.servers = servers
        self.index_packets = index_packets


class ChurnUniform200:
    name = "churn-uniform200"
    why = (
        "region updates between cycles: maintenance, re-paging and one "
        "recompile per cycle, plus version-checked client reads"
    )
    setups = 1
    #: Each round mutates its servers, so every round sets up afresh.
    reusable = False

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.cycles = 3 if smoke else 4
        #: Engine reads and version-checked client reads per cycle.
        self.engine_reads = 300 if smoke else 8_000
        self.client_reads = 20 if smoke else 400

    def prepare(self) -> Inputs:
        sites = dict(enumerate(uniform_dataset(n=200, seed=42).points))
        # The churn itself is E12's fixed sequence, so every seed meets
        # the same splices and rebuilds; the seed varies the reads.
        rng = random.Random(CHURN_SEED)
        subdivisions = []
        current = sites
        for _ in range(self.cycles):
            current = churn_sites(
                current, SERVICE_AREA, n_move=1, move_scale=0.02 * WIDTH, rng=rng
            )
            subdivisions.append(sites_subdivision(current, SERVICE_AREA))
        batches = [
            diff_subdivisions(old, new, tolerance=1e-9 * WIDTH)
            for old, new in zip(
                [sites_subdivision(sites, SERVICE_AREA)] + subdivisions[:-1],
                subdivisions,
            )
        ]
        # Issue times are drawn on [0, 1) and scaled by the cycle length
        # on the air when the read is issued.
        per_cycle = self.engine_reads + self.client_reads
        workload = UniformFleetWorkload(SERVICE_AREA, 1, seed=self.seed)
        reads = [
            workload.chunk(c * per_cycle, per_cycle) for c in range(self.cycles)
        ]
        return Inputs(sites, subdivisions, batches, reads)

    def setup(self, inputs: Inputs, rec) -> State:
        with rec.span("tessellation.subdivision"):
            initial = sites_subdivision(inputs.sites, SERVICE_AREA)
        servers = {}
        index_packets = {}
        for kind in KINDS:
            maintainer = maintainer_for(
                kind,
                params=index_family(kind).parameters(PACKET_CAPACITY),
                seed=0,
                **MAINTAINER_KWARGS[kind],
            )
            if rec.recording:
                maintainer = TimedMaintainer(maintainer, rec, kind)
            # Construction is build (the maintainer's span) + page + stamp.
            with rec.span(f"page.{kind}"):
                server = DynamicBroadcastServer(
                    kind,
                    initial,
                    packet_capacity=PACKET_CAPACITY,
                    seed=0,
                    maintainer=maintainer,
                )
            with rec.span(f"compile.{kind}"):
                batched_trace(server.paged, COMPILE_PROBE)
            servers[kind] = server
            index_packets[kind] = len(server.paged.packets)
        return State(inputs, servers, index_packets)

    def replay(self, state: State, rec) -> Outcome:
        """Apply every cycle's batch, then read; only reads are timed
        into ``seconds``, the writes into ``update_s``."""
        out = Outcome()
        inputs = state.inputs
        update_s = 0.0
        refused_batches = 0
        for kind, server in state.servers.items():
            for cycle, (subdivision, batch) in enumerate(
                zip(inputs.subdivisions, inputs.batches)
            ):
                rec.chunk = f"{kind}:{cycle}"
                t0 = perf_counter()
                with rec.span("dynamic.apply"):
                    server.apply_updates(subdivision, batch)
                update_s += perf_counter() - t0
                points, unit_times = inputs.reads[cycle]
                times = unit_times * server.schedule.cycle_length
                n = self.engine_reads
                engine_points, client_points = points[:n], points[n:]
                engine_times, client_times = times[:n], times[n:].tolist()

                t0 = perf_counter()
                try:
                    with rec.span("dynamic.recompile"):
                        batched_trace(server.paged, COMPILE_PROBE)
                except QueryError:
                    with rec.span("dynamic.fallback_read"):
                        results = BroadcastClient(
                            server.paged, server.schedule
                        ).run_workload(engine_points, issue_times=engine_times.tolist())
                else:
                    with rec.span("timeline", engine_obs_names(kind)):
                        result = QueryEngine(server.paged, server.schedule).run(
                            engine_points, issue_times=engine_times
                        )
                    results = None
                client = DynamicBroadcastClient(server)
                with rec.span("dynamic.client_read"):
                    client_results = [
                        client.query(p, t) for p, t in zip(client_points, client_times)
                    ]
                out.seconds += perf_counter() - t0

                if results is None:
                    out.add_batch(
                        result.region_ids,
                        result.access_latency,
                        result.total_tuning_time,
                    )
                    answers = result.region_ids
                else:
                    refused_batches += 1
                    out.refused += len(results)
                    answers = _add_scalar(out, results)
                out.check(answers, subdivision, coords_of(engine_points))
                # A version-checked answer is exact for the version stamped
                # on it, so each answer is checked against that version.
                _add_scalar(out, client_results)
                versions = np.array([r.version for r in client_results], np.int64)
                out.digest.append(versions)
                for version in np.unique(versions):
                    picked = np.flatnonzero(versions == version)
                    out.check(
                        [client_results[i].region_id for i in picked],
                        server.history[int(version)][0],
                        coords_of([client_points[i] for i in picked]),
                    )
            rec.chunk = None
        out.extra["dynamic.update_s"] = update_s
        out.extra["dynamic.batches"] = len(state.servers) * self.cycles
        out.extra["dynamic.refused_batches"] = refused_batches
        out.extra["dynamic.incremental_applies"] = sum(
            s.maintainer.incremental_applies for s in state.servers.values()
        )
        out.extra["dynamic.full_rebuilds"] = sum(
            s.maintainer.full_rebuilds for s in state.servers.values()
        )
        return out

    def timed_round(self, state: State) -> Outcome:
        return self.replay(state, NULL)


def _add_scalar(out: Outcome, results) -> np.ndarray:
    """Fold per-query access results into *out*; returns the answers."""
    answers = np.array([r.region_id for r in results], np.int64)
    out.add_batch(
        answers,
        [r.access_latency for r in results],
        [r.total_tuning_time for r in results],
    )
    return answers
