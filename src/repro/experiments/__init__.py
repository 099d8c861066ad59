"""Experiment harness: one entry point per paper table/figure (§5).

Each ``figureNN`` function sweeps the packet capacity for every index
structure over the requested datasets and returns the exact series the
corresponding figure plots; :mod:`repro.experiments.report` renders them as
text tables.  :mod:`repro.experiments.ablations` measures the design
choices the paper motivates qualitatively (inter-prob tie-break, the
RMC/LMC early-termination layout, top-down paging, the (1, m) scheme).
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    INDEX_KINDS,
    run_cell,
    CellResult,
    ExperimentMatrix,
)
from repro.experiments.figures import figure10, figure11, figure12, figure13
from repro.experiments.ablations import (
    ablation_tie_break,
    ablation_early_termination,
    ablation_top_down_paging,
    ablation_interleaving,
    ablation_extended_styles,
)
from repro.experiments.report import render_matrix, render_series

__all__ = [
    "ExperimentConfig",
    "INDEX_KINDS",
    "run_cell",
    "CellResult",
    "ExperimentMatrix",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "ablation_tie_break",
    "ablation_early_termination",
    "ablation_top_down_paging",
    "ablation_interleaving",
    "ablation_extended_styles",
    "render_matrix",
    "render_series",
]
