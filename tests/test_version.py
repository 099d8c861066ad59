"""The package version has one source of truth: ``repro.__version__``.

pyproject.toml declares ``dynamic = ["version"]`` and points setuptools
at the attribute, so the two can never skew again (they did once:
pyproject said 1.0.0 while the package said 1.3.0).  These tests pin
the contract without requiring the package to be *installed* — they
parse pyproject.toml directly.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _load_pyproject() -> dict:
    try:
        import tomllib  # Python >= 3.11
    except ImportError:
        return {}
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)


def test_version_is_pep440_like():
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)


def test_pyproject_version_is_dynamic():
    """pyproject must not carry its own version literal."""
    text = PYPROJECT.read_text()
    assert 'dynamic = ["version"]' in text
    assert re.search(r'^version\s*=\s*"', text, re.MULTILINE) is None


def test_pyproject_points_at_package_attribute():
    text = PYPROJECT.read_text()
    assert 'version = {attr = "repro.__version__"}' in text
    data = _load_pyproject()
    if data:  # tomllib available (py >= 3.11): check the parsed structure
        assert "version" in data["project"]["dynamic"]
        assert "version" not in data["project"]
        attr = data["tool"]["setuptools"]["dynamic"]["version"]["attr"]
        assert attr == "repro.__version__"


def test_current_version():
    assert repro.__version__ == "4.1.0"
