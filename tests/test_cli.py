"""Tests for the command-line driver."""

import json

import pytest

from repro.cli import main


class TestCli:
    def test_requires_target(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_target(self):
        with pytest.raises(SystemExit):
            main(["figure99"])

    def test_unknown_scale(self):
        with pytest.raises(SystemExit):
            main(["run", "figure10", "--scale", "huge"])

    def test_legacy_spelling_rejected(self, capsys):
        # The pre-subcommand `repro figure10` spelling was removed in 2.0.
        with pytest.raises(SystemExit):
            main(["figure10", "--scale", "quick"])
        assert "run" in capsys.readouterr().err

    def test_figure11_quick_runs(self, capsys, monkeypatch):
        # Shrink the quick config further so the CLI test stays fast.
        from repro.experiments import config as config_mod
        from repro.datasets.catalog import uniform_dataset

        def tiny_quick(cls=None, queries=60, seed=7):
            cfg = config_mod.ExperimentConfig(
                datasets={"UNIFORM": uniform_dataset(n=30, seed=42)},
                queries=60,
                seed=7,
            )
            cfg.packet_capacities = (128, 512)
            return cfg

        monkeypatch.setattr(
            config_mod.ExperimentConfig, "quick", classmethod(
                lambda cls, queries=60, seed=7: tiny_quick()
            )
        )
        import repro.cli as cli_mod

        monkeypatch.setattr(
            cli_mod.ExperimentConfig, "quick", config_mod.ExperimentConfig.quick
        )
        assert main(["run", "figure11", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out
        assert "dtree" in out

    def test_broadcast_list_allocations(self, capsys):
        assert main(["broadcast", "--list-allocations"]) == 0
        out = capsys.readouterr().out
        assert "round-robin" in out
        assert "region-locality" in out

    def test_broadcast_multichannel_table(self, capsys):
        status = main(
            [
                "broadcast",
                "--channels",
                "3",
                "--index",
                "dtree",
                "--regions",
                "20",
                "--queries",
                "40",
                "--index-placement",
                "distributed",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        # One baseline row (K=1) and one plan row (K=3) for the family.
        assert "K=3" in out
        lines = [l for l in out.splitlines() if l.startswith("dtree")]
        assert len(lines) == 2

    def test_simulate_with_profile(self, capsys, tmp_path):
        from repro.obs import active_collector, validate_profile

        target = tmp_path / "trace.json"
        status = main(
            [
                "simulate",
                "--index",
                "dtree",
                "--regions",
                "20",
                "--queries",
                "30",
                "--error-rate",
                "0.1",
                "--profile",
                str(target),
            ]
        )
        assert status == 0
        assert active_collector() is None  # uninstalled after the run
        doc = json.loads(target.read_text())
        assert validate_profile(doc)
        assert doc["counters"]["sim.queries"] == 30
        assert target.with_suffix(".csv").exists()
        out = capsys.readouterr().out
        assert "profile written" in out

    def test_profile_off_by_default(self, tmp_path, monkeypatch):
        # Without --profile no profile.json appears in the cwd.
        monkeypatch.chdir(tmp_path)
        main(
            [
                "simulate",
                "--index",
                "dtree",
                "--regions",
                "20",
                "--queries",
                "10",
            ]
        )
        assert not (tmp_path / "profile.json").exists()

    def test_fleet_engine_mode(self, capsys):
        status = main(
            [
                "fleet",
                "--queries",
                "600",
                "--chunk-size",
                "200",
                "--regions",
                "20",
                "--index",
                "dtree",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "fleet: 600 queries over 3 chunks" in out
        assert "latency" in out and "energy" in out

    def test_mobility_unbounded_epoch_grid_rejected(self):
        # Slow clients with no epoch cap would need ~4e8 epochs each.
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="max_epochs"):
            main(
                [
                    "mobility", "--clients", "2", "--regions", "30",
                    "--speed-min", "0.0001", "--speed-max", "0.0002",
                    "--max-epochs", "0",
                ]
            )

    def test_fleet_simulate_with_profile(self, capsys, tmp_path):
        from repro.obs import validate_profile

        target = tmp_path / "fleet.json"
        status = main(
            [
                "fleet",
                "--queries",
                "300",
                "--chunk-size",
                "150",
                "--regions",
                "20",
                "--mode",
                "simulate",
                "--error-rate",
                "0.1",
                "--profile",
                str(target),
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "channel:" in out
        doc = json.loads(target.read_text())
        assert validate_profile(doc)
        assert doc["counters"]["fleet.queries"] == 300
        assert doc["counters"]["sim.queries"] == 300


#: Every default of the subcommands that take the channel options.
CHANNEL_DEFAULTS = {
    "simulate": {
        "command": "simulate", "profile": None, "queries": None, "seed": 7,
        "error_rate": 0.05, "error_model": "bernoulli",
        "policy": "retry-next-segment", "index": "all", "regions": 60,
        "capacity": 256, "cache": 0, "burst": 4.0,
    },
    "fleet": {
        "command": "fleet", "profile": None, "queries": 1_000_000,
        "workers": 1, "chunk_size": 50_000, "start_method": None,
        "mode": "engine", "index": "dtree", "regions": 200, "capacity": 256,
        "seed": 7, "error_rate": 0.0, "error_model": "bernoulli",
        "policy": "retry-next-segment", "cache": 0, "burst": 4.0,
        "drop_answers": False,
    },
    "mobility": {
        "command": "mobility", "profile": None, "clients": 10_000,
        "workload": "random-waypoint", "waypoints": 3, "speed_min": 30.0,
        "speed_max": 90.0, "epoch_slots": None, "max_epochs": 32,
        "naive": False, "compare": False, "workers": 1, "chunk_size": 50_000,
        "start_method": None, "index": "dtree", "regions": 200,
        "capacity": 256, "seed": 7, "error_rate": 0.0,
        "error_model": "bernoulli", "policy": "retry-next-segment",
        "cache": 0, "burst": 4.0, "drop_answers": False,
    },
}


class TestChannelOptions:
    """``simulate``, ``fleet`` and ``mobility`` share the channel options
    (``--error-rate/--error-model/--policy/--burst/--cache``), each with
    its own defaults."""

    @pytest.mark.parametrize("command", sorted(CHANNEL_DEFAULTS))
    def test_default_namespace(self, command):
        import repro.cli as cli_mod

        parsed = vars(cli_mod._build_parser().parse_args([command]))
        assert parsed.pop("func") is getattr(cli_mod, f"_cmd_{command}")
        assert parsed == CHANNEL_DEFAULTS[command]
        assert [type(parsed[k]) for k in sorted(parsed)] == [
            type(CHANNEL_DEFAULTS[command][k]) for k in sorted(parsed)
        ]

    @pytest.mark.parametrize("command", sorted(CHANNEL_DEFAULTS))
    def test_choices_come_from_the_registries(self, command):
        from repro.cli import _build_parser
        from repro.simulation.faults import ERROR_MODEL_KINDS
        from repro.simulation.policies import RECOVERY_POLICIES

        parser = _build_parser()
        for policy in RECOVERY_POLICIES:
            assert parser.parse_args([command, "--policy", policy]).policy == policy
        for kind in ERROR_MODEL_KINDS:
            parsed = parser.parse_args([command, "--error-model", kind])
            assert parsed.error_model == kind
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--policy", "retry-never"])
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--error-model", "erasure"])
