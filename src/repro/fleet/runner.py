"""Fleet simulation: millions of clients, bounded memory, many cores.

:class:`FleetRunner` evaluates an arbitrarily large stream of point
queries against one (paged index, schedule) pair without ever holding
more than one chunk of per-query state:

* the workload is *generated* chunk by chunk
  (:class:`~repro.fleet.workload.UniformFleetWorkload` — chunk-size
  invariant by construction), never materialized whole;
* each chunk runs through the batched
  :class:`~repro.engine.QueryEngine` (error-free ``"engine"`` mode), the
  lossy :class:`~repro.simulation.ChannelSimulator` (``"simulate"``
  mode) or the continuous-query mobility evaluator (``"mobility"``
  mode — chunks of trajectories folded into a
  :class:`~repro.mobility.report.MobilityReport`) and is immediately
  folded into the mode's streaming report;
* with ``workers > 1`` chunks fan out over a
  :class:`~concurrent.futures.ProcessPoolExecutor` whose workers attach
  the parent's compiled index/schedule arrays zero-copy from a
  :class:`~repro.fleet.shm.ShmArena`.

Determinism contract (tested in ``tests/test_fleet.py``):

* ``"engine"`` mode results are bit-for-bit independent of **both** the
  worker count and the chunk size;
* ``"simulate"`` mode results are deterministic for a given
  ``(seed, chunk_size)`` and independent of the worker count (each
  chunk's channel stream is seeded by
  :func:`~repro.fleet.workload.spawned_seed`, so chunks never share
  channel state — which also means the chunk size is part of the fault
  schedule's identity);
* chunk results are folded **in chunk order** in the parent, so the
  report's compensated sums, sketches and counters are identical for
  every worker count.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.obs import Collector, active_collector, collecting
from repro.broadcast.schedule import BroadcastSchedule
from repro.engine import QueryEngine, index_family
from repro.simulation.energy import EnergyModel
from repro.simulation.faults import make_error_model
from repro.simulation.simulator import ChannelSimulator
from repro.fleet.report import FleetReport
from repro.fleet.shm import ShmArena, attach_compiled_state, export_compiled_state
from repro.fleet.workload import UniformFleetWorkload, spawned_seed

#: Default queries per chunk — small enough that per-chunk arrays are a
#: few MB, large enough that numpy batching dominates Python overhead.
DEFAULT_CHUNK_SIZE = 50_000


class FleetSpec:
    """Everything a worker needs to evaluate chunks, picklable whole.

    ``mode="mobility"`` interprets the workload as *trajectories* (its
    ``chunk`` returns a :class:`~repro.mobility.trajectory.TrajectoryBatch`)
    and folds chunks into a
    :class:`~repro.mobility.report.MobilityReport`; the mobility-only
    fields (``boundary_index``, ``epoch_slots``, ``max_epochs``,
    ``predictive``, ``km_per_unit``) are ignored by the other modes.
    """

    __slots__ = (
        "paged_index",
        "schedule",
        "params",
        "workload",
        "mode",
        "index_kind",
        "error_model_name",
        "error_rate",
        "mean_burst",
        "policy",
        "cache_packets",
        "energy_model",
        "alpha",
        "keep_answers",
        "boundary_index",
        "epoch_slots",
        "max_epochs",
        "predictive",
        "km_per_unit",
    )

    def __init__(
        self,
        paged_index,
        schedule,
        params,
        workload: UniformFleetWorkload,
        mode: str,
        index_kind: str = "?",
        error_model_name: str = "bernoulli",
        error_rate: float = 0.0,
        mean_burst: float = 4.0,
        policy: str = "retry-next-segment",
        cache_packets: int = 0,
        energy_model: Optional[EnergyModel] = None,
        alpha: float = 0.01,
        keep_answers: bool = True,
        boundary_index=None,
        epoch_slots: Optional[float] = None,
        max_epochs: int = 32,
        predictive: bool = True,
        km_per_unit: float = 10.0,
    ) -> None:
        if mode not in ("engine", "simulate", "mobility"):
            raise ReproError(f"unknown fleet mode {mode!r}")
        if mode == "mobility" and predictive and boundary_index is None:
            raise ReproError(
                "mobility mode with predictive clients needs a "
                "boundary_index (RegionBoundaryIndex of the subdivision)"
            )
        self.paged_index = paged_index
        self.schedule = schedule
        self.params = params
        self.workload = workload
        self.mode = mode
        self.index_kind = index_kind
        self.error_model_name = error_model_name
        self.error_rate = error_rate
        self.mean_burst = mean_burst
        self.policy = policy
        self.cache_packets = cache_packets
        self.energy_model = energy_model or EnergyModel()
        self.alpha = alpha
        self.keep_answers = keep_answers
        self.boundary_index = boundary_index
        self.epoch_slots = epoch_slots
        self.max_epochs = max_epochs
        self.predictive = predictive
        self.km_per_unit = km_per_unit

    def empty_report(self):
        """The identity report chunk results fold into (mode-typed)."""
        if self.mode == "mobility":
            # Imported lazily: repro.mobility builds on repro.fleet, so a
            # module-level import here would be circular.
            from repro.mobility.report import MobilityReport

            return MobilityReport(alpha=self.alpha)
        return FleetReport(alpha=self.alpha)

    def __getstate__(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)


class _WorkerState:
    """Per-process evaluation state, built once per worker."""

    def __init__(
        self,
        spec: FleetSpec,
        arena: Optional[ShmArena],
        meta: Optional[dict],
    ) -> None:
        self.spec = spec
        self.arena = arena  # held so the mapping outlives the views
        if arena is not None:
            attach_compiled_state(
                spec.paged_index, arena.views(), meta, spec.schedule
            )
        self.engine = None
        self.simulator = None
        if spec.mode == "engine":
            self.engine = QueryEngine(spec.paged_index, spec.schedule)
        elif spec.mode == "simulate":
            self.simulator = ChannelSimulator(
                spec.paged_index,
                spec.schedule,
                error_model=make_error_model(
                    spec.error_model_name, spec.error_rate, spec.mean_burst
                ),
                policy=spec.policy,
                energy_model=spec.energy_model,
                cache_packets=spec.cache_packets,
                index_kind=spec.index_kind,
            )

    def labels(self) -> Dict[str, str]:
        """The fleet report labels of an engine or simulate worker."""
        policy, error_model = "none", "error-free"
        if self.simulator is not None:
            client = self.simulator.client
            policy, error_model = client.policy.name, repr(client.error_model)
        return {
            "mode": self.spec.mode,
            "index_kind": self.spec.index_kind,
            "policy": policy,
            "error_model": error_model,
        }

    def _evaluate_mobility(
        self, chunk_index: int, start: int, size: int, channel_seed: int
    ):
        """Evaluate one trajectory chunk into a
        :class:`~repro.mobility.report.MobilityReport`."""
        from repro.mobility.evaluate import evaluate_trajectory_workload
        from repro.mobility.report import MobilityReport, channel_label

        spec = self.spec
        report = MobilityReport(
            index_kind=spec.index_kind,
            client="predictive" if spec.predictive else "naive",
            error_model=channel_label(
                spec.error_model_name, spec.error_rate, spec.mean_burst
            ),
            alpha=spec.alpha,
        )
        if size == 0:
            return report
        trajectories = spec.workload.chunk(start, size)
        batch = evaluate_trajectory_workload(
            spec.paged_index,
            [],
            spec.params,
            trajectories,
            boundary_index=spec.boundary_index,
            predictive=spec.predictive,
            epoch_slots=spec.epoch_slots,
            max_epochs=spec.max_epochs,
            cache_packets=spec.cache_packets,
            error_rate=spec.error_rate,
            error_model=spec.error_model_name,
            mean_burst=spec.mean_burst,
            policy=spec.policy,
            energy_model=spec.energy_model,
            seed=channel_seed,
            schedule=spec.schedule,
            km_per_unit=spec.km_per_unit,
        )
        report.observe_chunk(
            chunk_index, batch, keep_answers=spec.keep_answers
        )
        return report

    def evaluate(
        self, chunk_index: int, start: int, size: int, channel_seed: int
    ) -> FleetReport:
        """Evaluate one chunk into a single-chunk fleet report."""
        spec = self.spec
        if spec.mode == "mobility":
            return self._evaluate_mobility(
                chunk_index, start, size, channel_seed
            )
        report = FleetReport(alpha=spec.alpha, **self.labels())
        if size == 0:
            return report
        points, issue_times = spec.workload.chunk(start, size)
        if spec.mode == "engine":
            result = self.engine.run(points, issue_times=issue_times)
            tuning = result.total_tuning_time
            energy = spec.energy_model.batch_joules(
                tuning, result.access_latency, spec.params.packet_capacity
            )
            losses, attempts = 0, tuning
        else:
            result = self.simulator.run(
                points, issue_times=issue_times, seed=channel_seed
            )
            tuning, energy = result.tuning_time, result.energy_joules
            losses, attempts = result.total_losses, result.read_attempts
        report.observe_chunk(
            chunk_index,
            result.region_ids,
            result.access_latency,
            tuning,
            energy,
            losses=losses,
            attempts=int(np.sum(attempts)),
            keep_answers=spec.keep_answers,
        )
        return report


#: The per-process worker state (populated by the pool initializer).
_WORKER: Optional[_WorkerState] = None

#: One chunk task: (chunk index, start query, size, channel seed, profile).
_ChunkTask = Tuple[int, int, int, int, bool]


def _init_worker(
    spec_bytes: bytes, shm_name: Optional[str], manifest, meta
) -> None:
    global _WORKER
    spec = pickle.loads(spec_bytes)
    arena = (
        ShmArena.attach(shm_name, manifest) if shm_name is not None else None
    )
    _WORKER = _WorkerState(spec, arena, meta)


def _evaluate_task(state: _WorkerState, task: _ChunkTask):
    """Evaluate one chunk task: ``(chunk index, report, collector)``.

    The inline path and the pool workers both run chunks through here.
    With profiling on, each chunk gets a fresh collector, shipped back
    for an explicit merge at join — ambient collectors never cross
    process boundaries.  A failing chunk raises a :class:`ReproError`
    naming its identity (index, start, size, channel seed), enough to
    replay it inline, chained to the original exception.
    """
    chunk_index, start, size, channel_seed, profile = task
    try:
        with collecting() if profile else nullcontext() as col:
            report = state.evaluate(chunk_index, start, size, channel_seed)
    except Exception as exc:
        raise ReproError(
            f"fleet chunk {chunk_index} (start {start}, size {size}, "
            f"channel seed {channel_seed}) failed: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    return chunk_index, report, col


def _run_chunk(task: _ChunkTask):
    """Pool task: evaluate one chunk in this worker."""
    return _evaluate_task(_WORKER, task)


class FleetRunner:
    """Chunked, optionally multi-process evaluation of one fleet spec."""

    def __init__(
        self,
        spec: FleetSpec,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        workers: int = 1,
        start_method: Optional[str] = None,
    ) -> None:
        if chunk_size <= 0:
            raise ReproError(f"chunk size must be positive, got {chunk_size}")
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        self.spec = spec
        self.chunk_size = chunk_size
        self.workers = workers
        self.start_method = start_method

    def _chunk_plan(self, total: int) -> List[_ChunkTask]:
        profile = active_collector() is not None
        seed = self.spec.workload.seed
        tasks: List[_ChunkTask] = []
        start = 0
        index = 0
        while start < total:
            size = min(self.chunk_size, total - start)
            tasks.append(
                (index, start, size, spawned_seed(seed, index), profile)
            )
            start += size
            index += 1
        return tasks

    def run(self, total_queries: int) -> FleetReport:
        """Evaluate *total_queries* and return the merged fleet report."""
        if total_queries < 0:
            raise ReproError(
                f"total queries must be >= 0, got {total_queries}"
            )
        col = active_collector()
        tasks = self._chunk_plan(total_queries)
        started = time.perf_counter()
        if self.workers == 1 or len(tasks) <= 1:
            outcomes = self._run_inline(tasks)
        else:
            outcomes = self._run_pool(tasks)

        # Fold in chunk order — the fixed fold order is what makes the
        # compensated sums (and therefore every reported number)
        # independent of the worker count.
        report = self.spec.empty_report()
        for _, chunk_report, chunk_col in sorted(outcomes, key=lambda o: o[0]):
            report.merge(chunk_report)
            if chunk_col is not None and col is not None:
                col.merge(chunk_col)
        report.elapsed_seconds = time.perf_counter() - started
        if col is not None:
            col.count("fleet.runs")
            col.count("fleet.queries", total_queries)
            col.count("fleet.chunks", len(tasks))
            col.observe("fleet.chunk_size", self.chunk_size)
            col.observe("fleet.workers", self.workers)
        return report

    def _run_inline(self, tasks: List[_ChunkTask]) -> List[tuple]:
        """Single-process path — also the oracle the fan-out is tested
        against.  Runs the identical per-chunk evaluation code."""
        state = _WorkerState(self.spec, arena=None, meta=None)
        return [_evaluate_task(state, task) for task in tasks]

    def _run_pool(self, tasks: List[_ChunkTask]) -> List[tuple]:
        """Fan chunks out over a process pool with shared compiled state.

        A worker that dies breaks the pool; that surfaces as a
        :class:`ReproError` naming the chunks still in flight, and the
        arena is unlinked either way.
        """
        import multiprocessing as mp

        spec = self.spec
        # Compile once in the parent; workers reattach the arrays.
        arrays, meta = export_compiled_state(spec.paged_index, spec.schedule)
        arena = ShmArena.create(arrays) if arrays else None
        spec_bytes = pickle.dumps(spec)
        outcomes: List[tuple] = []
        try:
            pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=mp.get_context(self.start_method),
                initializer=_init_worker,
                initargs=(
                    spec_bytes,
                    arena.shm.name if arena is not None else None,
                    arena.manifest if arena is not None else None,
                    meta,
                ),
            )
            try:
                futures = [pool.submit(_run_chunk, task) for task in tasks]
                for future in as_completed(futures):
                    outcomes.append(future.result())
            except BrokenProcessPool as exc:
                finished = {outcome[0] for outcome in outcomes}
                unfinished = [t[0] for t in tasks if t[0] not in finished]
                raise ReproError(
                    "a fleet worker process died; chunks "
                    f"{unfinished} were still in flight"
                ) from exc
            finally:
                pool.shutdown(cancel_futures=True)
        finally:
            if arena is not None:
                arena.close()
                arena.unlink()
        return outcomes


def run_fleet(
    total_queries: int,
    *,
    index_kind: str = "dtree",
    regions: int = 200,
    packet_capacity: int = 256,
    mode: str = "engine",
    error_rate: float = 0.0,
    error_model: str = "bernoulli",
    mean_burst: float = 4.0,
    policy: str = "retry-next-segment",
    cache_packets: int = 0,
    seed: int = 0,
    m: Optional[int] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
    start_method: Optional[str] = None,
    keep_answers: bool = True,
    alpha: float = 0.01,
    dataset=None,
    mobility_workload: str = "random-waypoint",
    waypoints: int = 3,
    speed_kmh: Tuple[float, float] = (30.0, 90.0),
    hug_offset: float = 0.01,
    predictive: bool = True,
    epoch_slots: Optional[float] = None,
    max_epochs: int = 32,
    km_per_unit: Optional[float] = None,
):
    """Build a standard fleet scenario and run it end to end.

    Constructs a uniform dataset (or uses *dataset*), builds and pages
    the requested index family, derives the flat (1, m) schedule and a
    chunked workload over the service area, then runs
    :class:`FleetRunner` with the given chunking and worker count.

    ``mode="mobility"`` runs *total_queries* moving clients instead of
    point queries: a trajectory workload (``mobility_workload`` is
    ``"random-waypoint"`` or ``"boundary-hugging"``, speeds drawn
    uniformly from the ``speed_kmh`` range) evaluated by predictive or
    naive continuous-query clients into a
    :class:`~repro.mobility.report.MobilityReport`.
    """
    from repro.datasets.catalog import SERVICE_AREA, uniform_dataset

    if dataset is None:
        dataset = uniform_dataset(n=regions, seed=seed)
    subdivision = dataset.subdivision
    family = index_family(index_kind)
    params = family.parameters(packet_capacity)
    paged = family.build(subdivision, seed=seed).page(params)
    schedule = BroadcastSchedule(
        index_packet_count=len(paged.packets),
        region_ids=list(subdivision.region_ids),
        params=params,
        m=m,
    )
    boundary_index = None
    if mode == "mobility":
        from repro.mobility import RegionBoundaryIndex
        from repro.mobility.units import DEFAULT_KM_PER_UNIT
        from repro.mobility.workloads import trajectory_workload

        if km_per_unit is None:
            km_per_unit = DEFAULT_KM_PER_UNIT
        workload = trajectory_workload(
            mobility_workload,
            subdivision,
            schedule.cycle_length,
            packet_capacity,
            waypoints=waypoints,
            speed_kmh=speed_kmh,
            km_per_unit=km_per_unit,
            hug_offset=hug_offset,
            seed=seed,
        )
        if predictive:
            boundary_index = RegionBoundaryIndex(subdivision)
    else:
        workload = UniformFleetWorkload(
            SERVICE_AREA, schedule.cycle_length, seed=seed
        )
    spec = FleetSpec(
        paged_index=paged,
        schedule=schedule,
        params=params,
        workload=workload,
        mode=mode,
        index_kind=index_kind,
        error_model_name=error_model,
        error_rate=error_rate,
        mean_burst=mean_burst,
        policy=policy,
        cache_packets=cache_packets,
        alpha=alpha,
        keep_answers=keep_answers,
        boundary_index=boundary_index,
        epoch_slots=epoch_slots,
        max_epochs=max_epochs,
        predictive=predictive,
        km_per_unit=km_per_unit if km_per_unit is not None else 10.0,
    )
    runner = FleetRunner(
        spec,
        chunk_size=chunk_size,
        workers=workers,
        start_method=start_method,
    )
    return runner.run(total_queries)
