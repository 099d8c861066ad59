"""Command-line experiment driver: ``python -m repro <command> [options]``.

Subcommands::

    python -m repro run figure10 --scale quick
    python -m repro run figure12 --scale paper --queries 2000
    python -m repro run all --scale quick
    python -m repro run ablations
    python -m repro indexes
    python -m repro simulate --queries 200 --error-rate 0.1 --seed 7
    python -m repro simulate --profile trace.json
    python -m repro broadcast --channels 4 --index-placement distributed
    python -m repro broadcast --list-allocations
    python -m repro fleet --queries 1000000 --workers 8
    python -m repro fleet --mode simulate --error-rate 0.05 --workers 4
    python -m repro mobility --clients 20000 --compare --workers 4
    python -m repro mobility --workload boundary-hugging --error-rate 0.05

``--profile [PATH]`` (valid after any subcommand) installs a
:class:`repro.obs.Collector` around the run and writes its
counters/histograms/spans as one JSON document (plus a flat CSV next to
it) — see DESIGN.md §10 for the counter taxonomy.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.experiments.ablations import (
    ablation_early_termination,
    ablation_extended_styles,
    ablation_interleaving,
    ablation_tie_break,
    ablation_top_down_paging,
)
from repro.experiments.charts import render_figure_charts
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import figure10, figure11, figure12, figure13
from repro.experiments.report import render_matrix
from repro.experiments.runner import ExperimentMatrix
from repro.simulation.faults import ERROR_MODEL_KINDS
from repro.simulation.policies import RECOVERY_POLICIES

_FIGURES = {
    "figure10": figure10,
    "figure11": figure11,
    "figure12": figure12,
    "figure13": figure13,
}

def _config_for(scale: str, queries: Optional[int], seed: int) -> ExperimentConfig:
    if scale == "paper":
        return ExperimentConfig.paper(queries=queries or 2000, seed=seed)
    if scale == "quick":
        return ExperimentConfig.quick(queries=queries or 400, seed=seed)
    raise SystemExit(f"unknown scale {scale!r} (use 'paper' or 'quick')")


def _cmd_indexes(args) -> int:
    """Print the registered index families (the AirIndex registry)."""
    from repro.engine import INDEX_REGISTRY

    print(f"{'kind':<8} {'class':<12} {'display':<12} header  pointer")
    for kind, family in INDEX_REGISTRY.items():
        print(
            f"{kind:<8} {family.index_cls.__name__:<12} "
            f"{family.display_name:<12} {family.header_size:>5}B "
            f"{family.pointer_size:>6}B"
        )
    return 0


def _cmd_simulate(args) -> int:
    """Simulate every selected index family on a lossy channel and print
    the tail-percentile table."""
    from repro.datasets.catalog import uniform_dataset
    from repro.engine import available_index_kinds
    from repro.experiments.runner import run_faulty_cell
    from repro.simulation import render_reports

    kinds = (
        available_index_kinds() if args.index == "all" else [args.index]
    )
    dataset = uniform_dataset(n=args.regions, seed=args.seed)
    queries = args.queries or 400
    reports = [
        run_faulty_cell(
            dataset,
            kind,
            args.capacity,
            queries=queries,
            seed=args.seed,
            error_rate=args.error_rate,
            error_model=args.error_model,
            mean_burst=args.burst,
            policy=args.policy,
            cache_packets=args.cache,
        )
        for kind in kinds
    ]
    print(
        f"# {queries} queries, {args.regions} regions, "
        f"{args.capacity}B packets, error rate {args.error_rate:g} "
        f"({args.error_model}), policy {args.policy}, seed {args.seed}"
    )
    print(render_reports(reports))
    return 0


def _cmd_broadcast(args) -> int:
    """Evaluate a multi-channel :class:`~repro.broadcast.plan.BroadcastPlan`
    against the single-channel (1, m) baseline."""
    import numpy as np

    from repro.broadcast.plan import ALLOCATION_REGISTRY
    from repro.datasets.catalog import uniform_dataset
    from repro.engine import available_index_kinds
    from repro.experiments.runner import run_multichannel_cell

    if args.list_allocations:
        print(f"{'allocation':<18} description")
        for name, strategy in ALLOCATION_REGISTRY.items():
            print(f"{name:<18} {strategy.description}")
        return 0

    kinds = (
        available_index_kinds() if args.index == "all" else [args.index]
    )
    dataset = uniform_dataset(n=args.regions, seed=args.seed)
    queries = args.queries or 400
    print(
        f"# {queries} queries, {args.regions} regions, "
        f"{args.capacity}B packets, K={args.channels} "
        f"({args.allocation}, {args.index_placement} index, "
        f"hop cost {args.hop_cost:g}), seed {args.seed}"
    )
    print(
        f"{'index':<8} {'K':>2} {'m':>3} {'cycle':>6}  "
        f"{'latency mean':>12} {'p50':>8}  {'tuning':>7}"
    )
    for kind in kinds:
        base_plan, base = run_multichannel_cell(
            dataset, kind, args.capacity, queries=queries, seed=args.seed,
            channels=1,
        )
        rows = [(base_plan, base)]
        if args.channels > 1:
            rows.append(
                run_multichannel_cell(
                    dataset, kind, args.capacity,
                    queries=queries, seed=args.seed,
                    channels=args.channels,
                    allocation=args.allocation,
                    index_placement=args.index_placement,
                    hop_cost=args.hop_cost,
                )
            )
        for plan, result in rows:
            latency = np.asarray(result.access_latency, float)
            tuning = np.asarray(result.total_tuning_time, float)
            print(
                f"{kind:<8} {plan.num_channels:>2} {plan.m:>3} "
                f"{plan.cycle_length:>6}  "
                f"{latency.mean():>12.1f} {np.percentile(latency, 50):>8.1f}  "
                f"{tuning.mean():>7.2f}"
            )
    return 0


def _cmd_fleet(args) -> int:
    """Run a (potentially huge) fleet of point queries through the
    batched engine or the lossy simulator, chunked and optionally
    fanned out over worker processes (DESIGN.md §12)."""
    from repro.fleet import run_fleet
    from repro.fleet.report import render_fleet_report

    report = run_fleet(
        args.queries,
        index_kind=args.index,
        regions=args.regions,
        packet_capacity=args.capacity,
        mode=args.mode,
        error_rate=args.error_rate,
        error_model=args.error_model,
        mean_burst=args.burst,
        policy=args.policy,
        cache_packets=args.cache,
        seed=args.seed,
        chunk_size=args.chunk_size,
        workers=args.workers,
        start_method=args.start_method,
        keep_answers=not args.drop_answers,
    )
    print(render_fleet_report(report))
    return 0


def _cmd_mobility(args) -> int:
    """Run a fleet of moving clients with continuous queries and
    scope-exit prediction (DESIGN.md §13)."""
    from repro.fleet import run_fleet
    from repro.mobility import render_mobility_report

    def _run(predictive: bool):
        return run_fleet(
            args.clients,
            index_kind=args.index,
            regions=args.regions,
            packet_capacity=args.capacity,
            mode="mobility",
            error_rate=args.error_rate,
            error_model=args.error_model,
            mean_burst=args.burst,
            policy=args.policy,
            cache_packets=args.cache,
            seed=args.seed,
            chunk_size=args.chunk_size,
            workers=args.workers,
            start_method=args.start_method,
            keep_answers=not args.drop_answers,
            mobility_workload=args.workload,
            waypoints=args.waypoints,
            speed_kmh=(args.speed_min, args.speed_max),
            predictive=predictive,
            epoch_slots=args.epoch_slots,
            max_epochs=args.max_epochs,
        )

    report = _run(not args.naive)
    print(render_mobility_report(report))
    if args.compare and not args.naive:
        naive = _run(False)
        print()
        print(render_mobility_report(naive))
        ratio = naive.retunes_per_km / report.retunes_per_km
        print(
            f"\nprediction saves {ratio:.2f}x re-tunes/km "
            f"({naive.retunes_per_km:.2f} naive vs "
            f"{report.retunes_per_km:.2f} predictive)"
        )
    return 0


def _cmd_dynamic(args) -> int:
    """Run the E12 update-churn experiment: region updates between
    broadcast cycles, incremental maintenance vs full rebuild."""
    from repro.datasets.catalog import uniform_dataset
    from repro.engine import available_index_kinds
    from repro.experiments.extensions import run_dynamic_cell

    kinds = (
        available_index_kinds() if args.index == "all" else [args.index]
    )
    dataset = uniform_dataset(n=args.regions, seed=args.seed)
    print(
        f"# {args.regions} regions, {args.capacity}B packets, "
        f"{args.cycles} update cycles x {args.moves} moved sites, "
        f"{args.queries or 40} queries/cycle, seed {args.seed}"
    )
    print(
        f"{'index':<8} {'churn':>6} {'maintain':>10} {'rebuild':>10} "
        f"{'speedup':>8}  {'inc/full':>8} {'wasted':>7}"
    )
    for kind in kinds:
        cell = run_dynamic_cell(
            dataset,
            kind,
            args.capacity,
            cycles=args.cycles,
            moves_per_cycle=args.moves,
            queries_per_cycle=args.queries or 40,
            seed=args.seed,
        )
        print(
            f"{kind:<8} {cell['churn_fraction']:>6.1%} "
            f"{cell['maintain_s'] * 1000:>8.1f}ms "
            f"{cell['rebuild_s'] * 1000:>8.1f}ms "
            f"{cell['maintain_speedup_x']:>7.2f}x  "
            f"{cell['incremental_applies']:.0f}/"
            f"{cell['full_rebuilds']:.0f}".ljust(8)
            + f" {cell['mean_wasted_tuning']:>6.2f}p"
        )
    return 0


def _cmd_run(args) -> int:
    """Regenerate figures (or the ablation suite)."""
    if args.target == "ablations":
        print("== A1: inter-prob tie-break (mean index tuning, packets) ==")
        for label, row in ablation_tie_break().items():
            print(f"  {label:<22} {row}")
        print("== A2: RMC/LMC early termination (mean index tuning, packets) ==")
        for label, row in ablation_early_termination().items():
            print(f"  {label:<22} {row}")
        print("== A3: top-down paging (index packets / tuning) ==")
        for label, row in ablation_top_down_paging().items():
            print(f"  {label:<22} {row}")
        print("== A4: (1, m) interleaving (normalized latency) ==")
        for label, row in ablation_interleaving().items():
            print(f"  {label:<22} {row}")
        print("== A5 (extension): complement-extent styles (packets / tuning) ==")
        for label, row in ablation_extended_styles().items():
            print(f"  {label:<22} {row}")
        return 0

    config = _config_for(args.scale, args.queries, args.seed)
    matrix = ExperimentMatrix(config)
    targets = sorted(_FIGURES) if args.target == "all" else [args.target]
    for name in targets:
        start = time.time()
        result = _FIGURES[name](matrix=matrix)
        print(render_matrix(result))
        if args.chart:
            print()
            print(render_figure_charts(result))
        if args.csv_dir:
            import pathlib

            out_dir = pathlib.Path(args.csv_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            out_file = out_dir / f"{name}.csv"
            out_file.write_text(result.to_csv())
            print(f"[wrote {out_file}]")
        print(f"[{name} done in {time.time() - start:.1f}s]\n")
    return 0


def _add_channel_options(parser: argparse.ArgumentParser) -> None:
    """The lossy-channel and packet-cache options of ``simulate``,
    ``fleet`` and ``mobility``: loss-free and uncached unless the
    subcommand's ``set_defaults`` says otherwise."""
    parser.add_argument(
        "--error-rate",
        type=float,
        default=0.0,
        help="packet loss probability (long-run rate for both models)",
    )
    parser.add_argument(
        "--error-model",
        default="bernoulli",
        choices=ERROR_MODEL_KINDS,
        help="i.i.d. loss or Gilbert-Elliott bursty loss",
    )
    parser.add_argument(
        "--policy",
        default="retry-next-segment",
        choices=tuple(RECOVERY_POLICIES),
        help="client recovery policy for lost index packets",
    )
    parser.add_argument(
        "--burst",
        type=float,
        default=4.0,
        help="mean burst length for the gilbert model, packets",
    )
    parser.add_argument(
        "--cache",
        type=int,
        default=0,
        help="client LRU packet-cache capacity (0 = no cache)",
    )


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--profile",
        nargs="?",
        const="profile.json",
        default=None,
        metavar="PATH",
        help="collect counters/spans for the run and write them as JSON "
        "to PATH (default profile.json; a flat CSV lands next to it)",
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the D-tree paper's figures (ICDE 2003).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        parents=[common],
        help="regenerate figures or the ablation suite",
    )
    run.add_argument(
        "target",
        choices=sorted(_FIGURES) + ["all", "ablations"],
        help="which figure(s) to regenerate, or 'ablations'",
    )
    run.add_argument(
        "--scale",
        default="quick",
        choices=("quick", "paper"),
        help="dataset scale: 'paper' = N of the original evaluation",
    )
    run.add_argument("--queries", type=int, default=None)
    run.add_argument("--seed", type=int, default=7)
    run.add_argument(
        "--chart",
        action="store_true",
        help="also render each figure as an ASCII chart",
    )
    run.add_argument(
        "--csv-dir",
        default=None,
        help="also write each figure's series as CSV into this directory",
    )
    run.set_defaults(func=_cmd_run)

    indexes = sub.add_parser(
        "indexes",
        parents=[common],
        help="list the registered AirIndex families",
    )
    indexes.set_defaults(func=_cmd_indexes)

    simulate = sub.add_parser(
        "simulate",
        parents=[common],
        help="run the faulty-channel simulator",
    )
    simulate.add_argument("--queries", type=int, default=None)
    simulate.add_argument("--seed", type=int, default=7)
    _add_channel_options(simulate)
    simulate.add_argument(
        "--index",
        default="all",
        help="one registered index kind, or 'all' (default)",
    )
    simulate.add_argument(
        "--regions",
        type=int,
        default=60,
        help="service-area regions in the simulated dataset",
    )
    simulate.add_argument(
        "--capacity", type=int, default=256, help="packet capacity, bytes"
    )
    simulate.set_defaults(func=_cmd_simulate, error_rate=0.05)

    fleet = sub.add_parser(
        "fleet",
        parents=[common],
        help="run a chunked, multi-process fleet of point queries",
    )
    fleet.add_argument(
        "--queries",
        type=int,
        default=1_000_000,
        help="total fleet queries to evaluate (streamed, never "
        "materialized whole)",
    )
    fleet.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes; results are identical for every count",
    )
    fleet.add_argument(
        "--chunk-size",
        type=int,
        default=50_000,
        help="queries per chunk (memory bound per worker)",
    )
    fleet.add_argument(
        "--start-method",
        default=None,
        choices=("fork", "spawn", "forkserver"),
        help="multiprocessing start method (default: platform default)",
    )
    fleet.add_argument(
        "--mode",
        default="engine",
        choices=("engine", "simulate"),
        help="error-free batched engine, or the lossy channel simulator",
    )
    fleet.add_argument(
        "--index",
        default="dtree",
        help="one registered index kind (default dtree)",
    )
    fleet.add_argument("--regions", type=int, default=200)
    fleet.add_argument(
        "--capacity", type=int, default=256, help="packet capacity, bytes"
    )
    fleet.add_argument("--seed", type=int, default=7)
    _add_channel_options(fleet)
    fleet.add_argument(
        "--drop-answers",
        action="store_true",
        help="do not retain per-query answer arrays (lowest memory)",
    )
    fleet.set_defaults(func=_cmd_fleet)

    mobility = sub.add_parser(
        "mobility",
        parents=[common],
        help="run a fleet of moving clients with scope-exit prediction",
    )
    mobility.add_argument(
        "--clients",
        type=int,
        default=10_000,
        help="moving clients to simulate (streamed in chunks)",
    )
    mobility.add_argument(
        "--workload",
        default="random-waypoint",
        choices=("random-waypoint", "boundary-hugging"),
        help="trajectory model (boundary-hugging is the adversarial one)",
    )
    mobility.add_argument(
        "--waypoints",
        type=int,
        default=3,
        help="waypoints per trajectory",
    )
    mobility.add_argument(
        "--speed-min",
        type=float,
        default=30.0,
        help="minimum client speed, km/h",
    )
    mobility.add_argument(
        "--speed-max",
        type=float,
        default=90.0,
        help="maximum client speed, km/h",
    )
    mobility.add_argument(
        "--epoch-slots",
        type=float,
        default=None,
        help="continuous-query refresh period in packet slots "
        "(default: a quarter broadcast cycle)",
    )
    mobility.add_argument(
        "--max-epochs",
        type=int,
        default=32,
        help="cap on epochs per client (0 = ride out the trajectory)",
    )
    mobility.add_argument(
        "--naive",
        action="store_true",
        help="re-tune every epoch instead of predicting scope exits",
    )
    mobility.add_argument(
        "--compare",
        action="store_true",
        help="also run the naive client and print the re-tunes/km ratio",
    )
    mobility.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes; results are identical for every count",
    )
    mobility.add_argument(
        "--chunk-size",
        type=int,
        default=50_000,
        help="clients per chunk (memory bound per worker)",
    )
    mobility.add_argument(
        "--start-method",
        default=None,
        choices=("fork", "spawn", "forkserver"),
    )
    mobility.add_argument(
        "--index",
        default="dtree",
        help="one registered index kind (default dtree)",
    )
    mobility.add_argument("--regions", type=int, default=200)
    mobility.add_argument(
        "--capacity", type=int, default=256, help="packet capacity, bytes"
    )
    mobility.add_argument("--seed", type=int, default=7)
    _add_channel_options(mobility)
    mobility.add_argument(
        "--drop-answers",
        action="store_true",
        help="do not retain per-client answer arrays (lowest memory)",
    )
    mobility.set_defaults(func=_cmd_mobility)

    broadcast = sub.add_parser(
        "broadcast",
        parents=[common],
        help="evaluate a K-channel broadcast plan vs the (1, m) baseline",
    )
    broadcast.add_argument(
        "--channels",
        "-K",
        type=int,
        default=4,
        help="number of parallel broadcast channels",
    )
    broadcast.add_argument(
        "--allocation",
        default="round-robin",
        help="registered data-sharding strategy "
        "(see --list-allocations)",
    )
    broadcast.add_argument(
        "--index-placement",
        default="replicated",
        choices=("replicated", "distributed"),
        help="full index copy per channel, or a contiguous chunk each",
    )
    broadcast.add_argument(
        "--hop-cost",
        type=float,
        default=1.0,
        help="packet slots a client spends retuning per channel switch",
    )
    broadcast.add_argument(
        "--list-allocations",
        action="store_true",
        help="list registered allocation strategies and exit",
    )
    broadcast.add_argument("--queries", type=int, default=None)
    broadcast.add_argument("--seed", type=int, default=7)
    broadcast.add_argument(
        "--index",
        default="all",
        help="one registered index kind, or 'all' (default)",
    )
    broadcast.add_argument(
        "--regions",
        type=int,
        default=60,
        help="service-area regions in the evaluated dataset",
    )
    broadcast.add_argument(
        "--capacity", type=int, default=256, help="packet capacity, bytes"
    )
    broadcast.set_defaults(func=_cmd_broadcast)

    dynamic = sub.add_parser(
        "dynamic",
        parents=[common],
        help="run update churn between broadcast cycles (E12): "
        "incremental index maintenance vs full rebuild",
    )
    dynamic.add_argument(
        "--index",
        default="all",
        help="one registered index kind, or 'all' (default)",
    )
    dynamic.add_argument("--regions", type=int, default=200)
    dynamic.add_argument(
        "--capacity", type=int, default=256, help="packet capacity, bytes"
    )
    dynamic.add_argument(
        "--cycles", type=int, default=4, help="update cycles to run"
    )
    dynamic.add_argument(
        "--moves",
        type=int,
        default=1,
        help="Voronoi sites moved per cycle (each move reshapes the "
        "moved cell and its neighbours)",
    )
    dynamic.add_argument(
        "--queries",
        type=int,
        default=None,
        help="client queries per cycle (default 40), answers checked "
        "against the stamped version's oracle",
    )
    dynamic.add_argument("--seed", type=int, default=7)
    dynamic.set_defaults(func=_cmd_dynamic)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _build_parser().parse_args(argv)

    if args.profile:
        from repro.obs import collecting, write_profile

        with collecting() as col:
            status = args.func(args)
        path = write_profile(col, args.profile)
        print(f"[profile written to {path} and {path.with_suffix('.csv')}]")
        return status
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
