"""Golden CLI text of ``run``, ``simulate`` and ``dynamic``.

One fixture (``tests/data/golden_cli.json``) holds the rendered standard
output of each command on a fixed seed grid.  Wall-clock figures are
removed before comparison, and nothing else is:

* ``run`` drops its ``[<figure> done in <t>s]`` lines;
* ``dynamic`` masks its ``maintain`` / ``rebuild`` / ``speedup``
  columns, which time the maintenance, to ``<timing>``;
* any ``elapsed:`` line is dropped, as in ``tests/test_golden_reports.py``.

Every other character must match, so report refactors keep the text
byte-identical.  Regenerate (only when a change is *meant* to move the
text, and say so in the change log) with::

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from repro.cli import main

FIXTURE = Path(__file__).parent / "data" / "golden_cli.json"
CLI = {
    "run-all": ["run", "all", "--scale", "quick", "--queries", "20"],
    "simulate-bernoulli": [
        "simulate", "--queries", "100", "--regions", "30",
        "--error-rate", "0.05",
    ],
    "simulate-gilbert-cached": [
        "simulate", "--queries", "80", "--regions", "30",
        "--error-model", "gilbert", "--error-rate", "0.1",
        "--policy", "upper-bound-fallback", "--cache", "8",
    ],
    "dynamic": [
        "dynamic", "--regions", "30", "--cycles", "3", "--moves", "2",
        "--queries", "20",
    ],
}

#: Lines that carry nothing but a wall-clock figure.
_CLOCK_LINE = re.compile(r"^\s*(elapsed:|\[\S+ done in )")
#: The dynamic table's timing columns: maintain, rebuild, speedup.
_DYNAMIC_TIMINGS = re.compile(r"\s+\S+ms\s+\S+ms\s+\S+x ")


def _case_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return [
        _DYNAMIC_TIMINGS.sub(" <timing> ", line)
        for line in out.getvalue().splitlines()
        if not _CLOCK_LINE.match(line)
    ]


CASES = {f"cli/{name}": (lambda a=argv: _case_cli(a)) for name, argv in CLI.items()}


@pytest.fixture(scope="module")
def golden():
    with FIXTURE.open() as fh:
        return json.load(fh)


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_text_matches_golden(golden, name):
    assert CASES[name]() == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_golden_cli.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    data = {name: record() for name, record in CASES.items()}
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {FIXTURE}")
