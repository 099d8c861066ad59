"""The public API contract: everything exported exists and is documented."""

import importlib
import subprocess
import sys

import pytest

import repro

SUBPACKAGES = [
    "repro.geometry",
    "repro.tessellation",
    "repro.datasets",
    "repro.core",
    "repro.pointloc",
    "repro.rstar",
    "repro.broadcast",
    "repro.engine",
    "repro.workload",
    "repro.experiments",
    "repro.analysis",
    "repro.simulation",
    "repro.fleet",
    "repro.mobility",
    "repro.dynamic",
    "repro.obs",
]


class TestTopLevel:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_format(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_module_docstring_mentions_paper(self):
        assert "ICDE 2003" in repro.__doc__

    def test_access_batch_is_the_one_batched_record(self):
        # 5.0.0 folded the engine's BatchResult into AccessBatch.
        assert repro.AccessBatch is repro.broadcast.AccessBatch
        assert "BatchResult" not in repro.__all__
        assert not hasattr(repro, "BatchResult")
        assert not hasattr(importlib.import_module("repro.engine"), "BatchResult")

    def test_oracles_and_alias_doors_are_not_exported(self):
        # 7.0.0 moved the per-query oracles into tests/oracles.py and
        # removed the list door beside run_batch.
        broadcast = importlib.import_module("repro.broadcast")
        mobility = importlib.import_module("repro.mobility")
        for module, name in (
            (repro, "evaluate_index_per_query"),
            (broadcast, "evaluate_index_per_query"),
            (broadcast, "run_workload"),
            (importlib.import_module("repro.broadcast.client"), "run_workload"),
            (repro.BroadcastClient, "run_session"),
            (repro.ChannelSimulator, "run_workload"),
            (mobility, "evaluate_trajectory"),
            (mobility, "ClientOutcome"),
        ):
            assert name not in getattr(module, "__all__", ()), name
            assert not hasattr(module, name), name
        with pytest.raises(ImportError):
            importlib.import_module("repro.mobility.client")


@pytest.mark.parametrize("module_name", SUBPACKAGES)
class TestSubpackages:
    def test_importable_with_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20

    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"


class TestPublicCallablesAreDocumented:
    def test_every_public_symbol_has_a_docstring(self):
        missing = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not (obj.__doc__ or "").strip():
                missing.append(name)
        assert not missing, f"undocumented public symbols: {missing}"


class TestImportIsWarningFree:
    def test_importing_repro_emits_no_deprecation_warning(self):
        """Every module imports clean even under
        -W error::DeprecationWarning."""
        code = (
            "import repro, repro.cli, repro.experiments.runner, "
            "repro.broadcast.client, repro.fleet, repro.mobility"
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-c", code],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
