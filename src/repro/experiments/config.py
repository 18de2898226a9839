"""Experiment scales.

The paper's workloads (streams of 1M-100M elements over a 5M alphabet)
are far beyond what a pure-Python discrete-event simulation can replay,
so every experiment is shrunk by a preset *scale* that keeps the ratios
the paper's effects depend on:

* query/merge interval stays at 1% of the stream (50000 of 5M);
* the size sweep keeps the paper's ×1, ×2, ×4, ×8, ×16 multipliers;
* the alphabet tracks the base stream length (paper: 5M alphabet for a
  5M-element profiling stream);
* counter capacity keeps roughly the paper-scale churn behaviour.

``tiny`` exists for the test-suite (seconds), ``default`` regenerates
every figure in a few minutes, ``large`` is closer to the paper's sweep
granularity for patient runs.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from repro.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class ExperimentScale:
    """All knobs that size the reproduction experiments."""

    name: str
    profile_stream: int            #: Figs 3-5 stream length (paper: 5M)
    sweep_base: int                #: Figs 6/7/12 base length (paper: 1M)
    fig11_stream: int              #: Fig 11 stream length (paper: 1M)
    table2_stream: int             #: Table 2 stream length (paper: 16M)
    capacity: int                  #: Space Saving counter budget
    naive_threads: Tuple[int, ...]     #: Figs 3-7 thread sweep (paper: 1-32)
    cots_threads: Tuple[int, ...]      #: Figs 11/12 sweep (paper: 4-256)
    size_multipliers: Tuple[int, ...] = (1, 2, 4, 8, 16)
    alphas_naive: Tuple[float, ...] = (2.0, 2.5, 3.0)
    alphas_cots: Tuple[float, ...] = (1.5, 2.0, 2.5, 3.0)
    query_fraction: float = 0.01   #: queries every 1% of the stream
    seed: int = 7
    #: tiny smoke runs are too short for some asymptotic shapes (e.g. the
    #: CoTS-beats-sequential crossover needs enough stream for delegation
    #: chains to form); strict-only claims are skipped when not strict
    strict: bool = True

    def __post_init__(self) -> None:
        for field in ("profile_stream", "sweep_base", "fig11_stream",
                      "table2_stream", "capacity"):
            if getattr(self, field) < 1:
                raise ConfigurationError(f"{field} must be >= 1")
        if not 0 < self.query_fraction <= 1:
            raise ConfigurationError(
                f"query_fraction must be in (0, 1], got {self.query_fraction}"
            )

    @property
    def alphabet(self) -> int:
        """Alphabet size (tracks the profiling stream, like the paper)."""
        return self.profile_stream

    def query_interval(self, stream_length: int) -> int:
        """The query/merge interval for a given stream length."""
        return max(1, int(stream_length * self.query_fraction))

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @staticmethod
    def tiny() -> "ExperimentScale":
        """Seconds-fast preset for the test-suite."""
        return ExperimentScale(
            name="tiny",
            profile_stream=1_500,
            sweep_base=600,
            fig11_stream=2_000,
            table2_stream=4_000,
            capacity=64,
            naive_threads=(1, 2, 4, 8),
            cots_threads=(4, 16, 64),
            size_multipliers=(1, 2, 4),
            alphas_naive=(2.0, 3.0),
            alphas_cots=(1.5, 2.0, 3.0),
            strict=False,
        )

    @staticmethod
    def default() -> "ExperimentScale":
        """Regenerates every figure in minutes; the benchmark preset."""
        return ExperimentScale(
            name="default",
            profile_stream=6_000,
            sweep_base=1_500,
            fig11_stream=12_000,
            table2_stream=24_000,
            capacity=128,
            naive_threads=(1, 2, 4, 8, 16, 32),
            cots_threads=(4, 8, 16, 32, 64, 128, 256),
        )

    @staticmethod
    def large() -> "ExperimentScale":
        """Closer to the paper's sweep granularity (tens of minutes)."""
        return ExperimentScale(
            name="large",
            profile_stream=20_000,
            sweep_base=4_000,
            fig11_stream=20_000,
            table2_stream=64_000,
            capacity=200,
            naive_threads=(1, 2, 4, 8, 16, 32),
            cots_threads=(4, 8, 16, 32, 64, 128, 256),
        )
