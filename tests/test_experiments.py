"""Tests for the experiment harness (runner, figures, ablations, report)."""

import pytest

from repro.errors import ReproError
from repro.datasets.catalog import uniform_dataset
from repro.experiments.ablations import (
    ablation_early_termination,
    ablation_interleaving,
    ablation_tie_break,
    ablation_top_down_paging,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import figure10, figure11, figure12, figure13
from repro.experiments.report import render_matrix, render_series
from repro.experiments.runner import (
    INDEX_KINDS,
    ExperimentMatrix,
    run_cell,
)
from repro.engine import index_family


@pytest.fixture(scope="module")
def tiny_config():
    cfg = ExperimentConfig.single(n=40, queries=120, seed=3)
    cfg.packet_capacities = (64, 256, 1024)
    return cfg


@pytest.fixture(scope="module")
def tiny_matrix(tiny_config):
    return ExperimentMatrix(tiny_config)


class TestRunner:
    def test_build_index_kinds(self, voronoi60):
        for kind in INDEX_KINDS:
            assert index_family(kind).build(voronoi60) is not None

    def test_unknown_kind(self, voronoi60):
        with pytest.raises(ReproError):
            index_family("btree")

    def test_run_cell_smoke(self):
        ds = uniform_dataset(n=30, seed=1)
        cell = run_cell(ds, "dtree", 256, queries=60, seed=2)
        assert cell.index_kind == "dtree"
        assert cell.metrics.queries == 60
        assert cell.metrics.normalized_latency > 1.0

    def test_matrix_caches_cells(self, tiny_matrix):
        a = tiny_matrix.cell("UNIFORM", "dtree", 256)
        b = tiny_matrix.cell("UNIFORM", "dtree", 256)
        assert a is b

    def test_sweep_covers_all_capacities(self, tiny_matrix, tiny_config):
        cells = tiny_matrix.sweep("UNIFORM", "dtree")
        assert [c.packet_capacity for c in cells] == list(
            tiny_config.packet_capacities
        )


class TestFigures:
    def test_figure10_structure(self, tiny_matrix):
        result = figure10(matrix=tiny_matrix)
        assert set(result.series) == {"UNIFORM"}
        assert set(result.series["UNIFORM"]) == set(INDEX_KINDS)
        assert all(
            len(vals) == len(result.capacities)
            for vals in result.series["UNIFORM"].values()
        )

    def test_figure10_latency_above_optimal(self, tiny_matrix):
        result = figure10(matrix=tiny_matrix)
        for values in result.series["UNIFORM"].values():
            assert all(v > 1.0 for v in values)

    def test_figure11_single_dataset(self, tiny_matrix):
        result = figure11(matrix=tiny_matrix)
        assert len(result.series) == 1

    def test_figure12_tuning_positive(self, tiny_matrix):
        result = figure12(matrix=tiny_matrix)
        for values in result.series["UNIFORM"].values():
            assert all(v >= 1.0 for v in values)

    def test_figure13_efficiency(self, tiny_matrix):
        result = figure13(matrix=tiny_matrix)
        for values in result.series["UNIFORM"].values():
            assert all(v == v for v in values)  # finite, no NaN

    def test_value_accessor(self, tiny_matrix):
        result = figure10(matrix=tiny_matrix)
        v = result.value("UNIFORM", "dtree", 256)
        assert v == result.series["UNIFORM"]["dtree"][1]


class TestPaperShapes:
    """The qualitative findings of §5 on a scaled-down dataset."""

    def test_trap_index_largest(self, tiny_matrix):
        result = figure11(matrix=tiny_matrix)
        [rows] = result.series.values()
        for i in range(len(result.capacities)):
            assert rows["trap"][i] == max(rows[k][i] for k in INDEX_KINDS)

    def test_dtree_latency_best_or_close(self, tiny_matrix):
        result = figure10(matrix=tiny_matrix)
        rows = result.series["UNIFORM"]
        for i in range(len(result.capacities)):
            assert rows["dtree"][i] <= rows["trap"][i]
            assert rows["dtree"][i] <= rows["trian"][i]
            assert rows["dtree"][i] <= rows["rstar"][i] * 1.15

    def test_dtree_efficiency_best_or_close(self, tiny_matrix):
        result = figure13(matrix=tiny_matrix)
        rows = result.series["UNIFORM"]
        for i in range(len(result.capacities)):
            best = max(rows[k][i] for k in INDEX_KINDS)
            assert rows["dtree"][i] >= 0.75 * best

    def test_dtree_tuning_beats_trian_everywhere(self, tiny_matrix):
        result = figure12(matrix=tiny_matrix)
        rows = result.series["UNIFORM"]
        for i in range(len(result.capacities)):
            assert rows["dtree"][i] < rows["trian"][i]


class TestAblations:
    DATASET = None

    @classmethod
    def dataset(cls):
        if cls.DATASET is None:
            cls.DATASET = uniform_dataset(n=40, seed=2)
        return cls.DATASET

    def test_tie_break(self):
        out = ablation_tie_break(self.dataset(), capacities=(64,), queries=100)
        assert set(out) == {"tie_break_on", "tie_break_off"}

    def test_early_termination_helps(self):
        out = ablation_early_termination(
            self.dataset(), capacities=(64,), queries=150
        )
        assert out["early_term_on"][64] <= out["early_term_off"][64]

    def test_top_down_paging_helps(self):
        out = ablation_top_down_paging(
            self.dataset(), capacities=(1024,), queries=150
        )
        assert (
            out["top_down"][1024]["tuning"]
            <= out["one_node_per_packet"][1024]["tuning"]
        )
        assert (
            out["top_down"][1024]["index_packets"]
            <= out["one_node_per_packet"][1024]["index_packets"]
        )

    def test_optimal_m_beats_m1(self):
        out = ablation_interleaving(
            self.dataset(), capacities=(1024,), queries=200
        )
        assert out["optimal_m"][1024] <= out["m_1"][1024] + 1e-9


class TestReport:
    def test_render_series(self):
        text = render_series("t", (64, 128), {"dtree": [1.0, 2.0]})
        assert "dtree" in text and "64" in text

    def test_render_matrix(self, tiny_matrix):
        text = render_matrix(figure10(matrix=tiny_matrix))
        assert "Figure 10" in text
        assert "UNIFORM" in text
        for kind in INDEX_KINDS:
            assert kind in text
