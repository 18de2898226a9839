"""Reproduction drivers: one function per table/figure of the paper,
each followed by the shape claims its result is checked against."""

from repro.experiments.config import ExperimentScale
from repro.experiments.figures import (
    ALL_EXPERIMENTS,
    CLAIMS,
    claims_for,
    fig3a,
    fig3b,
    fig4,
    fig5,
    fig6,
    fig7,
    fig11,
    fig12,
    lean_camp,
    run_all,
    table2,
)
from repro.experiments.reporting import (
    ascii_chart,
    format_series,
    format_table,
    print_result,
)
from repro.experiments.runner import (
    STREAMS,
    Claim,
    ExperimentResult,
    StreamCache,
)

__all__ = [
    "ALL_EXPERIMENTS",
    "CLAIMS",
    "Claim",
    "ExperimentResult",
    "ExperimentScale",
    "STREAMS",
    "StreamCache",
    "ascii_chart",
    "claims_for",
    "fig11",
    "fig12",
    "fig3a",
    "fig3b",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "format_series",
    "format_table",
    "lean_camp",
    "print_result",
    "run_all",
    "table2",
]
