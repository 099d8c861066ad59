"""Unit tests for :class:`repro.simulation.report.SimulationReport`:
single-query and zero-query degenerate arrays, equality semantics."""

import numpy as np
import pytest

from repro.simulation.report import PERCENTILES, SimulationReport, render_reports


def _report(n=1, latency=40.0, seed_offset=0.0, kind="dtree"):
    return SimulationReport(
        index_kind=kind,
        policy="retry-next-segment",
        error_model="Bernoulli(p=0.05)",
        issue_times=np.arange(n, dtype=np.float64) + seed_offset,
        region_ids=np.arange(n, dtype=np.int64),
        access_latency=np.full(n, latency, np.float64),
        tuning_time=np.full(n, 7.0, np.float64),
        energy_joules=np.full(n, 0.0123, np.float64),
        packet_losses=np.zeros(n, np.int64),
        read_attempts=np.full(n, 9, np.int64),
    )


class TestSingleQuery:
    def test_length_one_report_is_valid(self):
        report = _report(n=1)
        assert len(report) == 1
        assert report.total_losses == 0

    def test_percentiles_of_length_one_arrays_are_the_value(self):
        report = _report(n=1, latency=42.5)
        pct = report.percentiles("access_latency")
        assert set(pct) == {f"p{q}" for q in PERCENTILES}
        for value in pct.values():
            assert value == 42.5

    def test_summary_of_single_query(self):
        report = _report(n=1, latency=42.5)
        s = report.summary()
        assert s["queries"] == 1.0
        assert s["latency_mean"] == 42.5
        assert s["latency_p50"] == s["latency_p99"] == 42.5
        assert s["mean_attempts"] == 9.0

    def test_render_single_query_report(self):
        table = render_reports([_report(n=1)])
        assert "dtree" in table
        assert "retry-next-segment" in table

class TestEmptyReport:
    """Regression: a zero-query report used to raise on construction."""

    def test_empty_report_constructible(self):
        report = _report(n=0)
        assert len(report) == 0
        assert report.total_losses == 0

    def test_empty_percentiles_are_nan(self):
        report = _report(n=0)
        for metric in ("access_latency", "tuning_time", "energy_joules"):
            pct = report.percentiles(metric)
            assert set(pct) == {f"p{q}" for q in PERCENTILES}
            assert all(np.isnan(v) for v in pct.values())

    def test_empty_summary_nan_safe(self):
        s = _report(n=0).summary()
        assert s["queries"] == 0.0
        assert s["losses"] == 0.0
        assert np.isnan(s["mean_attempts"])
        assert np.isnan(s["latency_mean"])
        assert np.isnan(s["energy_j_p99"])


class TestEquality:
    def test_equal_to_identical_twin(self):
        assert _report(n=3) == _report(n=3)

    def test_unequal_on_array_difference(self):
        assert _report(n=3, latency=40.0) != _report(n=3, latency=41.0)

    def test_unequal_on_label_difference(self):
        assert _report(n=3, kind="dtree") != _report(n=3, kind="rstar")

    def test_unequal_on_issue_times(self):
        assert _report(n=3) != _report(n=3, seed_offset=0.5)

    def test_not_equal_to_other_types(self):
        report = _report(n=2)
        assert report != "not a report"
        assert (report == object()) is False

    def test_reports_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(_report(n=1))
