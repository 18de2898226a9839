"""One driver per table/figure of the paper's evaluation.

Every function takes an :class:`~repro.experiments.config.
ExperimentScale` and returns an :class:`~repro.experiments.runner.
ExperimentResult` whose rows carry the same quantities the paper plots
(speedups, execution times, percentage breakdowns).  Absolute numbers
are simulated seconds — the *shapes* are the reproduction target
(see EXPERIMENTS.md for the paper-vs-measured record).

Each driver is followed by the shapes the paper reports for it, as
:class:`~repro.experiments.runner.Claim` predicates registered with
:func:`claim`; ``python -m repro experiment`` checks them after every
table and exits non-zero when one fails.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.analysis.profiling import (
    as_percentages,
    independent_profile,
    shared_profile,
)
from repro.cots.framework import CoTSRunConfig, run_cots
from repro.experiments.config import ExperimentScale
from repro.experiments.runner import STREAMS, Claim, ExperimentResult
from repro.parallel.base import SchemeConfig
from repro.parallel.independent import run_independent
from repro.parallel.sequential import run_sequential
from repro.parallel.shared import run_shared
from repro.simcore.costs import CostModel
from repro.simcore.machine import MachineSpec


def _scheme_config(scale: ExperimentScale, threads: int) -> SchemeConfig:
    return SchemeConfig(
        threads=threads,
        capacity=scale.capacity,
        machine=MachineSpec(),
        costs=CostModel(),
    )


def _cots_config(scale: ExperimentScale, threads: int) -> CoTSRunConfig:
    return CoTSRunConfig(
        threads=threads,
        capacity=scale.capacity,
        machine=MachineSpec(),
        costs=CostModel(),
    )


#: every shape claim, in registration order (grouped by experiment)
CLAIMS: List[Claim] = []


def claim(experiment_id: str, figure: str, strict_only: bool = False):
    """Register the decorated predicate as a shape claim of an experiment."""

    def register(holds: Callable) -> Callable:
        CLAIMS.append(Claim(experiment_id, figure, holds, strict_only))
        return holds

    return register


def claims_for(experiment_id: str) -> List[Claim]:
    """The claims checked against one experiment's result."""
    return [c for c in CLAIMS if c.experiment_id == experiment_id]


def _series(
    result: ExperimentResult, alphas, column: str, order: str = "threads",
    **criteria,
) -> Dict[float, List]:
    """Per alpha: one column of the matching rows, sorted by ``order``."""
    return {
        alpha: [
            row[column]
            for row in sorted(
                result.filtered(alpha=alpha, **criteria),
                key=lambda r: r[order],
            )
        ]
        for alpha in alphas
    }


# ----------------------------------------------------------------------
# Figure 3(a): Independent Structures speedup (query every 1% of stream)
# ----------------------------------------------------------------------
def fig3a(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Speedup of Independent Structures vs threads, serial merge."""
    scale = scale or ExperimentScale.default()
    length = scale.profile_stream
    interval = scale.query_interval(length)
    rows: List[Dict] = []
    for alpha in scale.alphas_naive:
        stream = STREAMS.get(length, scale.alphabet, alpha, scale.seed)
        single = None
        for threads in scale.naive_threads:
            result = run_independent(
                stream,
                _scheme_config(scale, threads),
                merge_every=interval,
                strategy="serial",
            )
            if single is None:
                single = result.seconds
            rows.append(
                {
                    "alpha": alpha,
                    "threads": threads,
                    "seconds": result.seconds,
                    "speedup": single / result.seconds,
                }
            )
    return ExperimentResult(
        experiment_id="fig3a",
        title=(
            "Figure 3(a): Independent Structures speedup "
            f"(N={length}, query every {interval})"
        ),
        columns=["alpha", "threads", "seconds", "speedup"],
        rows=rows,
        notes="Speedup relative to the scheme's own 1-thread run.",
    )


@claim("fig3a", "Fig. 3(a)")
def fig3a_no_useful_scaling(result, scale):
    """The best speedup stays below half the largest thread count."""
    series = _series(result, scale.alphas_naive, "speedup")
    return all(max(s) < max(scale.naive_threads) / 2 for s in series.values())


@claim("fig3a", "Fig. 3(a)")
def fig3a_many_threads_no_better(result, scale):
    """The largest thread count is no faster than the best one."""
    series = _series(result, scale.alphas_naive, "speedup")
    return all(s[-1] <= max(s) for s in series.values())


# ----------------------------------------------------------------------
# Figure 3(b): Shared Structure speedup (pthread-style mutexes)
# ----------------------------------------------------------------------
def fig3b(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Speedup of the mutex-synchronized Shared Structure vs threads."""
    scale = scale or ExperimentScale.default()
    length = scale.profile_stream
    rows: List[Dict] = []
    for alpha in scale.alphas_naive:
        stream = STREAMS.get(length, scale.alphabet, alpha, scale.seed)
        single = None
        for threads in scale.naive_threads:
            result = run_shared(
                stream, _scheme_config(scale, threads), lock_kind="mutex"
            )
            if single is None:
                single = result.seconds
            rows.append(
                {
                    "alpha": alpha,
                    "threads": threads,
                    "seconds": result.seconds,
                    "speedup": single / result.seconds,
                }
            )
    return ExperimentResult(
        experiment_id="fig3b",
        title=f"Figure 3(b): Shared Structure speedup (N={length}, mutex)",
        columns=["alpha", "threads", "seconds", "speedup"],
        rows=rows,
        notes="Speedup relative to the scheme's own 1-thread run.",
    )


def _speedup_by_threads(result, scale) -> List[Dict[int, float]]:
    return [
        {row["threads"]: row["speedup"] for row in result.filtered(alpha=alpha)}
        for alpha in scale.alphas_naive
    ]


@claim("fig3b", "Fig. 3(b)")
def fig3b_degrades_to_core_count(result, scale):
    """Going from 1 to 4 threads (the core count) loses speed."""
    cores = MachineSpec().cores
    return all(
        s[cores] < 1.0 for s in _speedup_by_threads(result, scale) if cores in s
    )


@claim("fig3b", "Fig. 3(b)")
def fig3b_flat_beyond_cores(result, scale):
    """Beyond the core count the speedups stay within 3x of each other."""
    cores = MachineSpec().cores
    beyond = [
        [v for t, v in s.items() if t >= cores]
        for s in _speedup_by_threads(result, scale)
    ]
    return all(max(b) <= 3 * min(b) for b in beyond if len(b) >= 2)


# ----------------------------------------------------------------------
# Figure 4: profiling of Independent Structures (Counting vs Merge)
# ----------------------------------------------------------------------
def fig4(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """% time in Counting vs Merge for the Independent design."""
    scale = scale or ExperimentScale.default()
    length = scale.profile_stream
    interval = scale.query_interval(length)
    rows: List[Dict] = []
    for alpha in scale.alphas_naive:
        stream = STREAMS.get(length, scale.alphabet, alpha, scale.seed)
        for threads in scale.naive_threads:
            result = run_independent(
                stream,
                _scheme_config(scale, threads),
                merge_every=interval,
                strategy="serial",
            )
            profile = as_percentages(independent_profile(result.breakdown()))
            rows.append(
                {
                    "alpha": alpha,
                    "threads": threads,
                    "counting_pct": profile.get("Counting", 0.0),
                    "merge_pct": profile.get("Merge", 0.0),
                    "rest_pct": profile.get("Rest", 0.0),
                }
            )
    return ExperimentResult(
        experiment_id="fig4",
        title=(
            "Figure 4: Independent Structures time breakdown "
            f"(N={length}, query every {interval})"
        ),
        columns=["alpha", "threads", "counting_pct", "merge_pct", "rest_pct"],
        rows=rows,
        notes="Merge share grows with the number of threads.",
    )


@claim("fig4", "Fig. 4")
def fig4_merge_share_grows(result, scale):
    """The merge share at the most threads exceeds the 1-thread share."""
    series = _series(result, scale.alphas_naive, "merge_pct")
    return all(s[-1] > s[0] for s in series.values())


@claim("fig4", "Fig. 4")
def fig4_percentages_sum(result, scale):
    """Counting + merge + rest sum to 100% (within 1) on every row."""
    return all(
        99.0 <= row["counting_pct"] + row["merge_pct"] + row["rest_pct"]
        <= 101.0
        for row in result.rows
    )


# ----------------------------------------------------------------------
# Figure 5: profiling of the Shared Structure
# ----------------------------------------------------------------------
def fig5(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """% time per synchronization category for the Shared design."""
    scale = scale or ExperimentScale.default()
    length = scale.profile_stream
    rows: List[Dict] = []
    for alpha in scale.alphas_naive:
        stream = STREAMS.get(length, scale.alphabet, alpha, scale.seed)
        for threads in scale.naive_threads:
            result = run_shared(
                stream, _scheme_config(scale, threads), lock_kind="mutex"
            )
            profile = as_percentages(shared_profile(result.breakdown()))
            rows.append(
                {
                    "alpha": alpha,
                    "threads": threads,
                    "hash_pct": profile.get("Hash Opns", 0.0),
                    "structure_pct": profile.get("Structure Opns", 0.0),
                    "minmax_pct": profile.get("Min-Max Locks", 0.0),
                    "bucket_pct": profile.get("Bucket Locks", 0.0),
                    "rest_pct": profile.get("Rest", 0.0),
                }
            )
    return ExperimentResult(
        experiment_id="fig5",
        title=f"Figure 5: Shared Structure time breakdown (N={length})",
        columns=[
            "alpha",
            "threads",
            "hash_pct",
            "structure_pct",
            "minmax_pct",
            "bucket_pct",
            "rest_pct",
        ],
        rows=rows,
        notes=(
            "Hash (element-level blocking) share grows with threads, and "
            "faster for more skewed streams."
        ),
    )


@claim("fig5", "Fig. 5")
def fig5_hash_share_grows(result, scale):
    """The hash-ops share at the most threads exceeds the 1-thread share."""
    series = _series(result, scale.alphas_naive, "hash_pct")
    return all(s[-1] > s[0] for s in series.values())


@claim("fig5", "Fig. 5")
def fig5_percentages_sum(result, scale):
    """The five categories sum to 100% (within 1) on every row."""
    parts = ("hash_pct", "structure_pct", "minmax_pct", "bucket_pct",
             "rest_pct")
    return all(
        99.0 <= sum(row[part] for part in parts) <= 101.0
        for row in result.rows
    )


@claim("fig5", "Fig. 5")
def fig5_skew_raises_hash_share(result, scale):
    """At the most threads, the most skewed stream's hash share is at
    least 0.8x the least skewed one's."""
    series = _series(result, scale.alphas_naive, "hash_pct")
    low, high = min(series), max(series)
    return series[high][-1] >= series[low][-1] * 0.8


# ----------------------------------------------------------------------
# Figures 6 and 7: execution-time surfaces over input size x threads
# ----------------------------------------------------------------------
def _size_sweep(
    scale: ExperimentScale, scheme: str
) -> List[Dict]:
    # The paper keeps the query interval at an absolute 50000 elements
    # while the stream grows 1M -> 16M, so larger inputs need *more*
    # merges; the scaled equivalent is 1% of the profiling stream.
    interval = scale.query_interval(scale.profile_stream)
    rows: List[Dict] = []
    for alpha in scale.alphas_naive:
        for multiplier in scale.size_multipliers:
            length = scale.sweep_base * multiplier
            stream = STREAMS.get(length, scale.alphabet, alpha, scale.seed)
            for threads in scale.naive_threads:
                config = _scheme_config(scale, threads)
                if scheme == "independent":
                    result = run_independent(
                        stream,
                        config,
                        merge_every=interval,
                        strategy="serial",
                    )
                else:
                    result = run_shared(stream, config, lock_kind="mutex")
                rows.append(
                    {
                        "alpha": alpha,
                        "multiplier": multiplier,
                        "elements": length,
                        "threads": threads,
                        "seconds": result.seconds,
                        "avg_thread_completion": (
                            result.execution.average_completion()
                            / result.execution.clock_hz
                        ),
                    }
                )
    return rows


def fig6(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Independent Structures: time over input size × threads."""
    scale = scale or ExperimentScale.default()
    rows = _size_sweep(scale, "independent")
    return ExperimentResult(
        experiment_id="fig6",
        title=(
            "Figure 6: Independent Structures execution time over "
            f"size (x{scale.sweep_base}) and threads, query every 1%"
        ),
        columns=[
            "alpha",
            "multiplier",
            "elements",
            "threads",
            "seconds",
            "avg_thread_completion",
        ],
        rows=rows,
        notes="Time grows with threads; worse for larger inputs.",
    )


@claim("fig6", "Fig. 6")
def fig6_threads_hurt_at_largest_input(result, scale):
    """At the largest input the most threads are slower than the fewest."""
    series = _series(result, scale.alphas_naive, "seconds",
                     multiplier=max(scale.size_multipliers))
    return all(t[-1] > t[0] for t in series.values())


@claim("fig6", "Fig. 6", strict_only=True)
def fig6_time_grows_with_size(result, scale):
    """At the most threads, time grows monotonically with input size."""
    series = _series(result, scale.alphas_naive, "seconds",
                     order="multiplier", threads=max(scale.naive_threads))
    return all(t == sorted(t) for t in series.values())


def fig7(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Shared Structure: time over input size × threads."""
    scale = scale or ExperimentScale.default()
    rows = _size_sweep(scale, "shared")
    return ExperimentResult(
        experiment_id="fig7",
        title=(
            "Figure 7: Shared Structure execution time over "
            f"size (x{scale.sweep_base}) and threads"
        ),
        columns=[
            "alpha",
            "multiplier",
            "elements",
            "threads",
            "seconds",
            "avg_thread_completion",
        ],
        rows=rows,
        notes="Time linear in input size; no improvement from threads.",
    )


@claim("fig7", "Fig. 7")
def fig7_linear_in_size(result, scale):
    """At 4 threads, time grows with size within 0.6-1.6x of linear."""
    for alpha in scale.alphas_naive:
        rows = sorted(
            result.filtered(alpha=alpha, threads=4),
            key=lambda r: r["multiplier"],
        )
        if len(rows) < 2:
            continue
        first, last = rows[0], rows[-1]
        ratio = last["seconds"] / first["seconds"]
        size_ratio = last["multiplier"] / first["multiplier"]
        if not 0.6 * size_ratio <= ratio <= 1.6 * size_ratio:
            return False
    return True


@claim("fig7", "Fig. 7")
def fig7_threads_never_help(result, scale):
    """At the largest input, the 1-thread run is the fastest."""
    largest = max(scale.size_multipliers)
    for alpha in scale.alphas_naive:
        per_thread = {
            row["threads"]: row["seconds"]
            for row in result.filtered(alpha=alpha, multiplier=largest)
        }
        if per_thread[min(per_thread)] != min(per_thread.values()):
            return False
    return True


# ----------------------------------------------------------------------
# Figure 11: CoTS speedup with increasing threads (baseline: 4 threads)
# ----------------------------------------------------------------------
def fig11(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """CoTS speedup vs threads, relative to the 4-thread run."""
    scale = scale or ExperimentScale.default()
    length = scale.fig11_stream
    rows: List[Dict] = []
    for alpha in scale.alphas_cots:
        stream = STREAMS.get(length, scale.alphabet, alpha, scale.seed)
        base = None
        for threads in scale.cots_threads:
            result = run_cots(stream, _cots_config(scale, threads))
            if base is None:
                base = result.seconds
            rows.append(
                {
                    "alpha": alpha,
                    "threads": threads,
                    "seconds": result.seconds,
                    "speedup": base / result.seconds,
                    "throughput_meps": result.throughput / 1e6,
                }
            )
    return ExperimentResult(
        experiment_id="fig11",
        title=f"Figure 11: CoTS scalability (N={length}, baseline 4 threads)",
        columns=["alpha", "threads", "seconds", "speedup", "throughput_meps"],
        rows=rows,
        notes=(
            "Near-monotone growth for skewed streams; alpha=1.5 saturates "
            "around 8-16 threads (limited by the summary structure)."
        ),
    )


@claim("fig11", "Fig. 11")
def fig11_grows_beyond_baseline(result, scale):
    """Every alpha peaks above 1.5x its 4-thread baseline."""
    series = _series(result, scale.alphas_cots, "speedup")
    return all(max(s) > 1.5 for s in series.values())


@claim("fig11", "Fig. 11")
def fig11_skewed_keep_improving(result, scale):
    """For alpha >= 2.0 the most threads keep at least 0.7x the peak."""
    series = _series(result, scale.alphas_cots, "speedup")
    return all(
        s[-1] >= 0.7 * max(s) for alpha, s in series.items() if alpha >= 2.0
    )


@claim("fig11", "Fig. 11")
def fig11_skew_pays(result, scale):
    """The most skewed stream peaks higher than the least skewed one."""
    series = _series(result, scale.alphas_cots, "speedup")
    return max(series[max(series)]) > max(series[min(series)])


# ----------------------------------------------------------------------
# Figure 12: CoTS execution time over input size x threads
# ----------------------------------------------------------------------
def fig12(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """CoTS: time over input size × threads (skewed alphas only)."""
    scale = scale or ExperimentScale.default()
    rows: List[Dict] = []
    for alpha in scale.alphas_naive:
        for multiplier in scale.size_multipliers:
            length = scale.sweep_base * multiplier
            stream = STREAMS.get(length, scale.alphabet, alpha, scale.seed)
            for threads in scale.cots_threads:
                result = run_cots(stream, _cots_config(scale, threads))
                rows.append(
                    {
                        "alpha": alpha,
                        "multiplier": multiplier,
                        "elements": length,
                        "threads": threads,
                        "seconds": result.seconds,
                    }
                )
    return ExperimentResult(
        experiment_id="fig12",
        title=(
            "Figure 12: CoTS execution time over "
            f"size (x{scale.sweep_base}) and threads"
        ),
        columns=["alpha", "multiplier", "elements", "threads", "seconds"],
        rows=rows,
        notes="Time linear in input length; scaling independent of size.",
    )


@claim("fig12", "Fig. 12")
def fig12_time_grows_with_size(result, scale):
    """At the most threads, time grows monotonically with input size."""
    series = _series(result, scale.alphas_naive, "seconds",
                     order="multiplier", threads=max(scale.cots_threads))
    return all(t == sorted(t) for t in series.values())


@claim("fig12", "Fig. 12")
def fig12_roughly_linear(result, scale):
    """At the most threads, time per element stays within 2.5x across
    the larger sizes (multiplier >= largest / 4)."""
    # the smallest sizes give each of the many threads only a handful of
    # elements, so startup dominates there
    floor = max(scale.size_multipliers) // 4
    for alpha in scale.alphas_naive:
        per_element = [
            row["seconds"] / row["elements"]
            for row in result.filtered(
                alpha=alpha, threads=max(scale.cots_threads)
            )
            if row["multiplier"] >= floor
        ]
        if max(per_element) > 2.5 * min(per_element):
            return False
    return True


@claim("fig12", "Fig. 12")
def fig12_scaling_size_independent(result, scale):
    """The most threads beat the fewest at every input size."""
    def seconds(alpha, threads, multiplier):
        return result.filtered(
            alpha=alpha, threads=threads, multiplier=multiplier
        )[0]["seconds"]

    return all(
        seconds(alpha, max(scale.cots_threads), multiplier)
        < seconds(alpha, min(scale.cots_threads), multiplier)
        for alpha in scale.alphas_naive
        for multiplier in scale.size_multipliers
    )


# ----------------------------------------------------------------------
# Table 2: best-case absolute times, Sequential vs Shared vs CoTS
# ----------------------------------------------------------------------
def table2(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Best-case execution times of Sequential, Shared and CoTS."""
    scale = scale or ExperimentScale.default()
    length = scale.table2_stream
    # "best case" among genuinely parallel shared configurations — with a
    # single thread the shared design degenerates to sequential-plus-lock
    # overhead, which is not the design the paper benchmarks
    shared_threads = [t for t in scale.naive_threads if 2 <= t <= 4] or [
        max(scale.naive_threads)
    ]
    cots_threads = list(scale.cots_threads)[-2:]
    rows: List[Dict] = []
    for alpha in scale.alphas_naive:
        stream = STREAMS.get(length, scale.alphabet, alpha, scale.seed)
        sequential = run_sequential(stream, _scheme_config(scale, 1))
        shared_best = min(
            run_shared(
                stream, _scheme_config(scale, threads), lock_kind="mutex"
            ).seconds
            for threads in shared_threads
        )
        cots_runs = {
            threads: run_cots(stream, _cots_config(scale, threads))
            for threads in cots_threads
        }
        cots_best_threads = min(cots_runs, key=lambda t: cots_runs[t].seconds)
        cots_best = cots_runs[cots_best_threads]
        rows.append(
            {
                "alpha": alpha,
                "sequential_s": sequential.seconds,
                "shared_s": shared_best,
                "cots_s": cots_best.seconds,
                "cots_threads": cots_best_threads,
                "shared_vs_seq": shared_best / sequential.seconds,
                "cots_speedup_vs_seq": sequential.seconds / cots_best.seconds,
                "cots_peak_meps": cots_best.throughput / 1e6,
            }
        )
    return ExperimentResult(
        experiment_id="table2",
        title=f"Table 2: best-case execution time comparison (N={length})",
        columns=[
            "alpha",
            "sequential_s",
            "shared_s",
            "cots_s",
            "cots_threads",
            "shared_vs_seq",
            "cots_speedup_vs_seq",
            "cots_peak_meps",
        ],
        rows=rows,
        notes=(
            "Shared is an order of magnitude worse than Sequential; CoTS "
            "trails Sequential at alpha=2.0 and beats it at 2.5/3.0."
        ),
    )


def _cots_wins(result) -> List[float]:
    """CoTS speedup over Sequential, from the least to the most skew."""
    return [row["cots_speedup_vs_seq"]
            for row in sorted(result.rows, key=lambda r: r["alpha"])]


@claim("table2", "Table 2")
def table2_shared_far_worse(result, scale):
    """Shared is more than 4x slower than Sequential at every alpha."""
    return all(row["shared_vs_seq"] > 4.0 for row in result.rows)


@claim("table2", "Table 2")
def table2_cots_trails_at_low_skew(result, scale):
    """At the lowest alpha CoTS loses to Sequential or roughly ties
    (speedup < 1.3)."""
    return _cots_wins(result)[0] < 1.3


@claim("table2", "Table 2", strict_only=True)
def table2_cots_wins_at_high_skew(result, scale):
    """At the highest alpha CoTS beats Sequential by more than 1.5x."""
    # needs full-scale streams for the delegation chains to pay off
    return _cots_wins(result)[-1] > 1.5


@claim("table2", "Table 2")
def table2_win_ordered_by_skew(result, scale):
    """CoTS's win at the highest alpha is at least its win at the lowest."""
    wins = _cots_wins(result)
    return wins[-1] >= wins[0]


@claim("table2", "Table 2")
def table2_cots_peak_meps(result, scale):
    """Peak CoTS throughput exceeds 10M elements/s."""
    return max(row["cots_peak_meps"] for row in result.rows) > 10.0


# ----------------------------------------------------------------------
# Supplementary: the paper's §7 future work — CoTS on a "lean camp" CMP
# ----------------------------------------------------------------------
def lean_camp(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """CoTS scalability on an UltraSPARC-T2-like machine (64 contexts).

    The paper defers this evaluation to future work ("we plan to analyze
    the performance of the CoTS framework on the 'lean camp' CMP
    architectures"); the simulator can run it today.  The lean machine
    trades clock speed (1.2 vs 2.4 GHz) for 16x the hardware contexts,
    so the latency-hiding that needed heavy oversubscription on the fat
    camp is natively covered by hardware threads.
    """
    scale = scale or ExperimentScale.default()
    length = scale.fig11_stream
    machines = {
        "fat-camp (4x2.4GHz)": MachineSpec.fat_camp(),
        "lean-camp (64x1.2GHz)": MachineSpec.lean_camp(),
    }
    rows: List[Dict] = []
    for alpha in scale.alphas_naive:
        stream = STREAMS.get(length, scale.alphabet, alpha, scale.seed)
        for label, machine in machines.items():
            for threads in scale.cots_threads:
                config = CoTSRunConfig(
                    threads=threads,
                    capacity=scale.capacity,
                    machine=machine,
                    costs=CostModel(),
                )
                result = run_cots(stream, config)
                rows.append(
                    {
                        "alpha": alpha,
                        "machine": label,
                        "threads": threads,
                        "seconds": result.seconds,
                        "throughput_meps": result.throughput / 1e6,
                    }
                )
    return ExperimentResult(
        experiment_id="lean_camp",
        title=(
            "Supplementary (paper §7 future work): CoTS on fat- vs "
            f"lean-camp machines (N={length})"
        ),
        columns=["alpha", "machine", "threads", "seconds", "throughput_meps"],
        rows=rows,
        notes=(
            "The lean camp reaches its peak at far lower software-thread "
            "counts: 64 hardware contexts natively hide the per-element "
            "latency that the fat camp needs oversubscription for."
        ),
    )


def _lean_camp_seconds(result, machine: str, alpha, threads) -> float:
    return [
        row["seconds"]
        for row in result.filtered(alpha=alpha, threads=threads)
        if machine in row["machine"]
    ][0]


@claim("lean_camp", "§7", strict_only=True)
def lean_camp_keeps_scaling(result, scale):
    """At the highest alpha the lean camp gains more than the fat camp
    from the fewest to the most threads."""
    # tiny streams reach neither machine's saturation
    alpha = max(scale.alphas_naive)
    low, high = min(scale.cots_threads), max(scale.cots_threads)

    def growth(machine):
        return (_lean_camp_seconds(result, machine, alpha, low)
                / _lean_camp_seconds(result, machine, alpha, high))

    return growth("lean") > growth("fat")


@claim("lean_camp", "§7", strict_only=True)
def lean_camp_wins_crossing_heavy(result, scale):
    """At the lowest alpha and the most threads the lean camp is faster."""
    alpha, high = min(scale.alphas_naive), max(scale.cots_threads)
    return (_lean_camp_seconds(result, "lean", alpha, high)
            < _lean_camp_seconds(result, "fat", alpha, high))


@claim("lean_camp", "§7", strict_only=True)
def lean_camp_fat_wins_hot_chain(result, scale):
    """At the highest alpha and the most threads the fat camp's clock
    wins."""
    alpha, high = max(scale.alphas_naive), max(scale.cots_threads)
    return (_lean_camp_seconds(result, "fat", alpha, high)
            < _lean_camp_seconds(result, "lean", alpha, high))


#: every reproduced experiment, keyed by id
ALL_EXPERIMENTS = {
    "fig3a": fig3a,
    "fig3b": fig3b,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig11": fig11,
    "fig12": fig12,
    "table2": table2,
    "lean_camp": lean_camp,
}


def run_all(scale: Optional[ExperimentScale] = None) -> Dict[str, ExperimentResult]:
    """Regenerate every table and figure; returns id → result."""
    scale = scale or ExperimentScale.default()
    return {name: fn(scale) for name, fn in ALL_EXPERIMENTS.items()}
