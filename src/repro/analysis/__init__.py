"""Experiment harness: one runner per paper table/figure, shared
experiment context (trained agents), and plain-text reporting."""

from .context import ExperimentContext, make_context
from .experiments import (
    fig01_search_space,
    fig02_log_curves,
    fig08_discovery,
    fig08c_kernel_similarity,
    fig09_impact_first,
    fig10_early_stopping,
    fig11_pipeline,
    fig12_lifecycle,
)
from .reporting import (
    ComparisonRow,
    ascii_chart,
    format_comparison,
    format_series,
    format_table,
)

__all__ = [
    "ExperimentContext",
    "make_context",
    "fig01_search_space",
    "fig02_log_curves",
    "fig08_discovery",
    "fig08c_kernel_similarity",
    "fig09_impact_first",
    "fig10_early_stopping",
    "fig11_pipeline",
    "fig12_lifecycle",
    "ComparisonRow",
    "ascii_chart",
    "format_comparison",
    "format_series",
    "format_table",
]
