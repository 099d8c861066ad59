"""The repository benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload static-park --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no ``repro.obs``
collector installed; ``--trace 1`` is the separate traced run that
reports the per-layer breakdown.  Every metric is printed by name with
its unit, and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Spans and run
metadata are written to ``.perfbench_out/`` under the root.

The benchmark builds nothing: it imports the program from ``src/`` and
exits non-zero without a result when that is missing.  See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import REFERENCE_S, kernel_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END = [
    ("throughput_qps", "answers/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("latency_packets_mean", "packets"),
    ("tuning_packets_mean", "packets"),
]

#: Timed rounds a run makes even when ``--seconds`` runs out first.
MIN_ROUNDS = 5
#: Coverage the traced run must reach: spans outside any named layer.
MAX_UNATTRIBUTED_PCT = 10.0
#: Spans written out per traced run (the first set-up and round).
SPAN_EXPORT_LIMIT = 20_000


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument(
        "--force",
        action="store_true",
        help="measure even when src/ or perfbench/ has uncommitted changes",
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="tiny inputs, for the benchmark's self-test only",
    )
    return p.parse_args(argv)


def _git(*args: str) -> str:
    done = subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    if done.returncode != 0:
        raise OSError(done.stderr.strip())
    return done.stdout.strip()


def git_sha() -> str:
    """The commit measured, ``-dirty`` when the program or benchmark has
    uncommitted changes, ``unknown`` outside a git checkout of the root."""
    try:
        if Path(_git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return "unknown"
        sha = _git("rev-parse", "HEAD")
        dirty = _git("status", "--porcelain", "--", "src", "perfbench", "BENCHMARK.json")
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return sha + ("-dirty" if dirty else "")


def metadata(args, sha: str) -> dict:
    import numpy

    return {
        "git_sha": sha,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Answers attempted and answers wrong, across every replay and round."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def verify(self, outcome) -> None:
        """The oracle check of one replay (outside any timed region)."""
        self.attempted += outcome.answers
        self.failed += outcome.mismatches()

    def compare(self, outcome, reference) -> bool:
        """A round must repeat the verified replay bit for bit; if it
        does not, all of its answers count as failed."""
        from workloads.common import digests_equal

        self.attempted += outcome.answers
        same = digests_equal(outcome.digest, reference.digest)
        if not same:
            self.failed += outcome.answers
        return same


def host_scale() -> float:
    """Collect garbage left by earlier work (so a measurement does not
    pay for its predecessors), then time the calibration kernel: the
    factor that turns a timing made now into one at the reference host
    speed (see ``calibrate.py``)."""
    gc.collect()
    return REFERENCE_S / kernel_seconds()


def untraced(wl, seconds: float):
    from spans import NULL

    tally = Tally()
    setups, raw_setups, scales = [], [], []

    def timed_setup(inputs):
        scale = host_scale()
        t0 = perf_counter()
        state = wl.setup(inputs, NULL)
        raw_setups.append(perf_counter() - t0)
        setups.append(raw_setups[-1] * scale)
        return state

    inputs = wl.prepare()
    for _ in range(wl.setups):
        state = timed_setup(inputs)
    reference = wl.replay(state, NULL)
    tally.verify(reference)

    rates, raw_rates = [], []
    refused = reference.refused
    update_s = batches = 0.0
    deadline = perf_counter() + seconds
    while len(rates) < MIN_ROUNDS or perf_counter() < deadline:
        if not wl.reusable:
            inputs = wl.prepare()
            state = timed_setup(inputs)
        scales.append(host_scale())
        outcome = wl.timed_round(state)
        tally.compare(outcome, reference)
        raw_rates.append(outcome.answers / outcome.seconds)
        rates.append(raw_rates[-1] / scales[-1])
        refused += outcome.refused
        update_s += outcome.extra.get("dynamic.update_s", 0.0) * scales[-1]
        batches += outcome.extra.get("dynamic.batches", 0)

    metrics = {
        "throughput_qps": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "latency_packets_mean": reference.latency_mean,
        "tuning_packets_mean": reference.tuning_mean,
    }
    notes = {
        "rounds": len(rates),
        "setups": len(setups),
        "host_speed": statistics.median(scales),
        "throughput_unscaled_qps": statistics.median(raw_rates),
        "setup_unscaled_s": statistics.median(raw_setups),
        "failed_fraction": (refused + tally.failed) / tally.attempted,
        "refused_answers": refused,
        **{k: v for k, v in reference.extra.items() if k != "dynamic.update_s"},
    }
    if batches:
        notes["update_ms_mean"] = 1000.0 * update_s / batches
    notes["round_rates"] = rates
    notes["round_scales"] = scales
    return tally, metrics, notes, None


def traced(wl, seconds: float):
    from layers import layer_metrics
    from spans import NULL, SpanRecorder

    tally = Tally()
    rec = SpanRecorder()
    setups = 0

    def fresh(recorder):
        nonlocal setups
        inputs = wl.prepare()
        if recorder is NULL:
            return wl.setup(inputs, NULL)
        setups += 1
        with rec.span("setup"):
            return wl.setup(inputs, rec)

    # A reusable state is set up once (traced); otherwise every replay
    # sets up afresh, traced only when the replay is.
    state = fresh(rec) if wl.reusable else None

    def state_for(recorder):
        return state if wl.reusable else fresh(recorder)

    first_state = state_for(NULL)
    first = wl.replay(first_state, NULL)
    tally.verify(first)
    index_packets = first_state.index_packets

    scales = []

    def plain():
        start = state_for(NULL)
        scales.append(host_scale())
        t0 = perf_counter()
        outcome = wl.replay(start, NULL)
        return outcome, perf_counter() - t0

    def traced_replay():
        start = state_for(rec)
        scales.append(host_scale())
        with rec.observing():
            t0 = perf_counter()
            with rec.span("round"):
                outcome = wl.replay(start, rec)
            return outcome, perf_counter() - t0

    references, outcomes, overheads = [first], [], []
    inert = True
    deadline = perf_counter() + seconds
    while not outcomes or perf_counter() < deadline:
        # Alternate which side of a pair runs first, so drift in the
        # machine's speed does not land on one side.
        if len(outcomes) % 2:
            (reference, plain_s), (outcome, traced_s) = plain(), traced_replay()
        else:
            (outcome, traced_s), (reference, plain_s) = traced_replay(), plain()
        references.append(reference)
        outcomes.append(outcome)
        inert &= tally.compare(reference, first)
        inert &= tally.compare(outcome, first)
        overheads.append(100.0 * (traced_s / plain_s - 1.0))

    metrics = layer_metrics(
        rec,
        setups,
        outcomes,
        references,
        index_packets,
        overheads,
        statistics.median(scales),
    )
    unattributed_ok = metrics["obs.unattributed_pct"] <= MAX_UNATTRIBUTED_PCT
    notes = {
        "rounds": len(outcomes),
        "setups": setups,
        "host_speed": statistics.median(scales),
        "inert": inert,
        "unattributed_ok": unattributed_ok,
    }
    spans = rec.export(SPAN_EXPORT_LIMIT)
    return tally, metrics, notes, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from layers import PER_LAYER
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(one of {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    sha = git_sha()
    if sha.endswith("-dirty") and not args.force:
        print(
            f"perfbench: refusing to measure a dirty tree ({sha}); "
            "commit first or pass --force",
            file=sys.stderr,
        )
        return 3

    wl = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    run = traced if args.trace else untraced
    tally, values, notes, spans = run(wl, args.seconds)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in units.items()
    }
    correct = tally.failed == 0 and notes.get("inert", True) and notes.get(
        "unattributed_ok", True
    )
    meta = metadata(args, sha)

    print(f"perfbench {wl.name}: {wl.why}")
    print("  " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for name, metric in metrics.items():
        print(f"  {name:<32} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in notes.items():
        if not isinstance(value, list):
            print(f"  ({name} = {value})")

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(
        json.dumps(
            {"metadata": meta, "metrics": metrics, "notes": notes, "spans": spans},
            indent=1,
            default=float,
        )
    )
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(tally.attempted),
                "failed": int(tally.failed),
                "metrics": metrics,
            },
            default=float,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
