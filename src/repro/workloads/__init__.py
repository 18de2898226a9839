"""Synthetic stream workloads and partitioning utilities."""

from repro.workloads.generators import (
    bursty_stream,
    churn_stream,
    drift_stream,
    flash_crowd_stream,
    hot_set_churn_stream,
    interleave,
    uniform_stream,
    weighted_stream,
)
from repro.workloads.partition import (
    block_partition,
    chunked,
)
from repro.workloads.zipf import (
    ZipfStreamSpec,
    expected_frequency,
    paper_scaled_spec,
    zipf_stream,
    zipf_weights,
)

__all__ = [
    "ZipfStreamSpec",
    "block_partition",
    "bursty_stream",
    "chunked",
    "churn_stream",
    "drift_stream",
    "expected_frequency",
    "flash_crowd_stream",
    "hot_set_churn_stream",
    "interleave",
    "paper_scaled_spec",
    "uniform_stream",
    "weighted_stream",
    "zipf_stream",
    "zipf_weights",
]
