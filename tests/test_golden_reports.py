"""Golden outputs of the streaming fleet and mobility reports.

One fixture (``tests/data/golden_reports.json``) holds, for a fixed seed
grid, every number a streaming report publishes:

* ``summary()``, ``to_dict()`` (without the wall-clock
  ``elapsed_seconds``) and ``merged_answers()`` for fleet
  engine mode, fleet simulate mode (Gilbert loss, every recovery policy)
  and predictive and naive mobility, each at workers=1 and workers=2;
* the rendered CLI text of ``fleet`` (engine and simulate) and
  ``mobility --compare``, with the wall-clock ``elapsed:`` line removed.

Every value must match bit for bit.  The worker-count invariance suites
compare runs with each other; this fixture pins them to recorded
numbers, so it stays meaningful when the report implementations merge.

Regenerate (only when a change is *meant* to move a number, and say so
in the change log) with::

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.fleet import run_fleet
from repro.simulation.policies import RECOVERY_POLICIES

FIXTURE = Path(__file__).parent / "data" / "golden_reports.json"
FLEET = dict(regions=20, index_kind="dtree", seed=7)
MOBILITY = dict(FLEET, mode="mobility", chunk_size=15, max_epochs=16)
CLI = {
    "fleet-engine": [
        "fleet", "--queries", "600", "--chunk-size", "200", "--regions", "20",
    ],
    "fleet-simulate": [
        "fleet", "--queries", "300", "--chunk-size", "100", "--regions", "20",
        "--mode", "simulate", "--error-model", "gilbert",
        "--error-rate", "0.1",
    ],
    "mobility-compare": [
        "mobility", "--clients", "40", "--chunk-size", "15",
        "--regions", "20", "--max-epochs", "16", "--compare",
    ],
}


def _record(report):
    doc = report.to_dict()
    del doc["elapsed_seconds"]
    return {
        "summary": report.summary(),
        "to_dict": doc,
        "answers": report.merged_answers().tolist(),
    }


def _case_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return [
        line
        for line in out.getvalue().splitlines()
        if not line.lstrip().startswith("elapsed:")
    ]


def _cases():
    """name -> zero-argument recorder, over the whole seed grid."""
    cases = {}
    for workers in (1, 2):
        cases[f"fleet/engine/w{workers}"] = (
            lambda w=workers: _record(
                run_fleet(600, chunk_size=200, workers=w, **FLEET)
            )
        )
        for policy in RECOVERY_POLICIES:
            cases[f"fleet/simulate/gilbert/{policy}/w{workers}"] = (
                lambda p=policy, w=workers: _record(
                    run_fleet(
                        300, chunk_size=100, workers=w, mode="simulate",
                        error_model="gilbert", error_rate=0.1, policy=p,
                        **FLEET,
                    )
                )
            )
        for client in ("predictive", "naive"):
            cases[f"mobility/{client}/w{workers}"] = (
                lambda c=client, w=workers: _record(
                    run_fleet(
                        40, workers=w, predictive=c == "predictive",
                        **MOBILITY,
                    )
                )
            )
    for name, argv in CLI.items():
        cases[f"cli/{name}"] = lambda a=argv: _case_cli(a)
    return cases


CASES = _cases()


@pytest.fixture(scope="module")
def golden():
    with FIXTURE.open() as fh:
        return json.load(fh)


def _canonical(value):
    # JSON text compares NaN equal to NaN and keeps floats exact.
    return json.dumps(value, sort_keys=True)


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(golden, name):
    assert _canonical(CASES[name]()) == _canonical(golden[name])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_golden_reports.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    data = {name: record() for name, record in CASES.items()}
    FIXTURE.write_text(json.dumps(data, separators=(",", ":"), sort_keys=True))
    print(f"wrote {len(data)} cases to {FIXTURE}")
