"""``repro.experiments`` — workload builders and table/figure harnesses.

The bridge between the library and the paper's evaluation: pre-scaled
workloads for the seven Table 1 models, trainer runners for Egeria and every
baseline, and one ``run_*`` function per table/figure (used by the
``benchmarks/`` suite and the examples).
"""

from .figures import (
    run_fig1_pwcca_convergence,
    run_fig2_premature_freezing,
    run_fig4_plasticity_trends,
    run_fig8_end_to_end,
    run_fig9_breakdown,
    run_fig10_distributed,
    run_fig11_freezing_decisions,
    run_fig12_hyperparameters,
    run_overhead_analysis,
    run_table1_tta,
    run_table2_reference_precision,
)
from .runners import SYSTEMS, ComparisonRow, build_trainer, compare_systems, format_rows, run_trainer
from .workloads import SCALES, Workload, available_workloads, build_workload

__all__ = [
    "Workload",
    "SCALES",
    "build_workload",
    "available_workloads",
    "SYSTEMS",
    "ComparisonRow",
    "build_trainer",
    "run_trainer",
    "compare_systems",
    "format_rows",
    "run_table1_tta",
    "run_table2_reference_precision",
    "run_fig1_pwcca_convergence",
    "run_fig2_premature_freezing",
    "run_fig4_plasticity_trends",
    "run_fig8_end_to_end",
    "run_fig9_breakdown",
    "run_fig10_distributed",
    "run_fig11_freezing_decisions",
    "run_fig12_hyperparameters",
    "run_overhead_analysis",
]
