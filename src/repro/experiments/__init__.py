"""Experiment harness regenerating the paper's evaluation (Section VI).

- :mod:`repro.experiments.fig4` — both panels of Fig. 4;
- :mod:`repro.experiments.dual` — the problem statement's second
  optimization mode (minimal ε for a quality requirement);
- :mod:`repro.experiments.ablations` — sweeps over the design knobs
  (α, pattern length, overlap, Algorithm 1 step size, history volume);
- :mod:`repro.experiments.runner` — mechanism construction/calibration
  and quality measurement shared by all of the above.
"""

from repro.experiments.ablations import (
    sweep_alpha,
    sweep_conversion_mode,
    sweep_history_size,
    sweep_overlap,
    sweep_pattern_length,
    sweep_step_size,
)
from repro.experiments.config import (
    ALL_MECHANISMS,
    DEFAULT_EPSILON_GRID,
    FIG4_MECHANISMS,
    ExperimentConfig,
)
from repro.experiments.dual import (
    DualModeResult,
    compare_budget_needs,
    min_epsilon_for_quality,
)
from repro.experiments.fig4 import (
    Fig4Result,
    Fig4Series,
    run_fig4_on_workload,
    run_fig4_synthetic,
    run_fig4_taxi,
)
from repro.experiments.reporting import (
    fig4_ascii_chart,
    fig4_markdown_section,
    fig4_wide_table,
    results_to_table,
    table_to_markdown,
)
from repro.experiments.runner import (
    EvaluationResult,
    evaluate_mechanism,
    measure_quality,
    sweep,
)

__all__ = [
    "ALL_MECHANISMS",
    "DEFAULT_EPSILON_GRID",
    "DualModeResult",
    "EvaluationResult",
    "ExperimentConfig",
    "FIG4_MECHANISMS",
    "Fig4Result",
    "Fig4Series",
    "compare_budget_needs",
    "evaluate_mechanism",
    "fig4_ascii_chart",
    "fig4_markdown_section",
    "fig4_wide_table",
    "measure_quality",
    "min_epsilon_for_quality",
    "results_to_table",
    "run_fig4_on_workload",
    "run_fig4_synthetic",
    "run_fig4_taxi",
    "sweep",
    "sweep_alpha",
    "sweep_conversion_mode",
    "sweep_history_size",
    "sweep_overlap",
    "sweep_pattern_length",
    "sweep_step_size",
    "table_to_markdown",
]
