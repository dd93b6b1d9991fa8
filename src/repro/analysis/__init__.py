"""Analysis helpers: model fits, improvement CDFs, multi-seed statistics.

Experiment grids are declared and run with :mod:`repro.exp`
(``ExperimentSpec`` + ``run_experiment``); ``repeat_runs`` is one such
grid.
"""

from repro.analysis.correlation import (
    ModelFitResult,
    aggregate_per_workload,
    evaluate_stall_model,
)
from repro.analysis.improvement import (
    ImprovementSummary,
    pooled_improvements,
    summarize_improvements,
)
from repro.analysis.repeat import RepeatedResult, repeat_runs, significantly_better

__all__ = [
    "ImprovementSummary",
    "ModelFitResult",
    "RepeatedResult",
    "aggregate_per_workload",
    "evaluate_stall_model",
    "pooled_improvements",
    "repeat_runs",
    "significantly_better",
    "summarize_improvements",
]
