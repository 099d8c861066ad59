"""Self-test of the benchmark at smoke size.

Run from the repository root (takes about a minute)::

    python3 perfbench/selftest.py

It checks that

* every workload, untraced and traced, ends its output with the result
  object, answers correctly, and names every metric with its unit —
  both in that object and in the printed lines;
* ``BENCHMARK.json`` lists exactly the workloads and metrics the code
  emits;
* a deliberately wrong answer fed through the oracle check is counted,
  so ``failed`` and the failed fraction rise;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  command exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

failures = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", "3",
            "--seconds", "0.2",
            "--trace", str(trace),
            "--smoke",
            "--force",
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
    )


def check_outputs(workloads, end_to_end, per_layer) -> None:
    for workload in workloads:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            label = f"{workload} --trace {trace}"
            done = run(ROOT, workload, trace)
            if done.returncode != 0:
                failures.append(f"{label}: exit {done.returncode}: {done.stderr[-800:]}")
                continue
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{label}: result keys {sorted(result)}",
            )
            expect(result["correct"] is True, f"{label}: not correct")
            expect(result["failed"] == 0, f"{label}: {result['failed']} failed")
            expect(result["attempted"] >= 1, f"{label}: nothing attempted")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == dict(expected), f"{label}: metrics {got}")
            printed = "\n".join(lines[:-1])
            for name, unit in expected:
                expect(
                    any(
                        line.split()[:1] == [name] and line.split()[-1] == unit
                        for line in printed.splitlines()
                    ),
                    f"{label}: {name} [{unit}] not printed",
                )


def check_manifest(workloads, end_to_end, per_layer) -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        {w["name"]: w["why"] for w in manifest["workloads"]}
        == {name: cls.why for name, cls in workloads.items()},
        "BENCHMARK.json workloads differ from the code's",
    )
    for key, expected in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        listed = [(m["name"], m["unit"]) for m in manifest[key]]
        expect(listed == list(expected), f"BENCHMARK.json {key} differs from the code's")


def check_wrong_answer_counted() -> None:
    from repro.geometry.point import Point
    from run import Tally
    from spans import NULL
    from workloads import WORKLOADS

    wl = WORKLOADS["static-park"](3, smoke=True)
    state = wl.setup(wl.prepare(), NULL)
    outcome = wl.replay(state, NULL)
    honest = Tally()
    honest.verify(outcome)
    expect(honest.failed == 0, f"honest replay: {honest.failed} failed")

    got, subdivision, coords = outcome.checks[0]
    xs, ys = coords()
    point = Point(float(xs[0]), float(ys[0]))
    wrong = next(
        rid
        for rid in subdivision.region_ids
        if not subdivision.region(rid).polygon.contains_point(point)
    )
    corrupted = got.copy()
    corrupted[0] = wrong
    outcome.checks[0] = (corrupted, subdivision, coords)
    tally = Tally()
    tally.verify(outcome)
    expect(tally.failed == 1, f"one wrong answer counted as {tally.failed}")
    expect(
        tally.failed / tally.attempted > honest.failed / honest.attempted,
        "failed fraction did not rise",
    )


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "static-park", 0)
        expect(done.returncode != 0, "bare directory: exit 0")
        expect('"metrics"' not in done.stdout, "bare directory: printed a result")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from layers import PER_LAYER
    from run import END_TO_END
    from workloads import WORKLOADS

    check_manifest(WORKLOADS, END_TO_END, PER_LAYER)
    check_wrong_answer_counted()
    check_bare_directory()
    check_outputs(WORKLOADS, END_TO_END, PER_LAYER)
    for message in failures:
        print("FAIL", message)
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
