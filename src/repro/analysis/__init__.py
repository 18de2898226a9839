"""Accuracy and profiling analysis utilities."""

from repro.analysis.accuracy import (
    SetAccuracy,
    average_relative_error,
    frequent_accuracy,
    set_accuracy,
    top_k_accuracy,
)
from repro.analysis.profiling import (
    FIG4_CATEGORIES,
    FIG5_CATEGORIES,
    as_percentages,
    independent_profile,
    shared_profile,
)

__all__ = [
    "FIG4_CATEGORIES",
    "FIG5_CATEGORIES",
    "SetAccuracy",
    "as_percentages",
    "average_relative_error",
    "frequent_accuracy",
    "independent_profile",
    "set_accuracy",
    "shared_profile",
    "top_k_accuracy",
]
