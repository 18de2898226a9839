"""Shared pieces of the benchmark: paths, statistics, process probes,
the freshness estimator and the correctness audit.

Everything here is measurement plumbing that sits *outside* the system
under test: the library is only ever reached through its public
functions (``repro.backend``, ``repro.core``, ``repro.serve.protocol``,
``repro.scenarios.audit``, ``repro.obs``).
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: the checkout the benchmark runs in; the library is built from its src/
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: where traced runs leave their Chrome traces (ignored by git)
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Space Saving counter budget shared by every workload
CAPACITY = 256

#: the ROADMAP re-anchor stream: zipf alpha 1.1 over a 50k alphabet
ZIPF_ALPHA = 1.1
ZIPF_ALPHABET = 50_000


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (e.g. the library is missing)."""


def require_library() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    The benchmark only runs against the source tree it ships with; an
    installed copy elsewhere must never stand in for it.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: always one of the measured values."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(round(fraction * len(ordered), 9)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def tail_fraction(samples: int) -> float:
    """p99, or the highest percentile with ten samples beyond it."""
    return max(0.5, min(0.99, 1.0 - 10.0 / samples)) if samples else 0.5


def tail(values: Sequence[float]) -> float:
    return percentile(values, tail_fraction(len(values)))


# ----------------------------------------------------------------------
# Host and process probes (Linux /proc; read-only)
# ----------------------------------------------------------------------
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def host_cores() -> int:
    """CPUs this process may run on (what ``nproc`` reports)."""
    return len(os.sched_getaffinity(0))


def host_info(seed: int, workers: int = 0) -> Dict[str, object]:
    info: Dict[str, object] = {
        "host_cores": host_cores(),
        "python": sys.version.split()[0],
        "seed": seed,
    }
    if workers:
        info["workers"] = workers
    return info


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of another process (clock-tick resolution)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def proc_memory_mb(pid: int, field: str) -> float:
    """One ``Vm*`` line of ``/proc/<pid>/status`` in MiB (VmRSS, VmHWM)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(field)


def now() -> float:
    return time.perf_counter()


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def inputs_digest(batches: Iterable[Sequence]) -> str:
    """A hash of the exact inputs, to prove seeding is deterministic."""
    digest = hashlib.sha256()
    for batch in batches:
        digest.update(repr(list(batch)).encode())
    return digest.hexdigest()


def dotted_quad(key: int) -> str:
    """An IPv4-style string key (the network-monitoring shape)."""
    return f"{key >> 24}.{(key >> 16) & 255}.{(key >> 8) & 255}.{key & 255}"


# ----------------------------------------------------------------------
# Freshness: ack-to-visible time
# ----------------------------------------------------------------------
def ack_to_visible(
    acks: Sequence[Tuple[float, int]],
    answers: Sequence[Tuple[float, int]],
) -> Tuple[List[float], int]:
    """Ack-to-visible seconds for each acknowledged write.

    ``acks`` holds ``(ack_time, cumulative_acked_events)`` in ack order;
    ``answers`` holds ``(receive_time, processed)`` for query answers in
    receive order.  An ack becomes visible at the first answer received
    at or after it whose ``processed`` covers the cumulative acked
    events.  Returns the freshness samples and the number of acks that
    never became visible.  The resolution is the spacing of the answers.

    ``processed`` must never go backwards across answers (a view that
    regresses is itself a correctness failure); the scan relies on it.
    """
    samples: List[float] = []
    first_at = 0        # first answer received at or after the ack
    cursor = 0          # first answer covering the ack's events
    for ack_time, needed in acks:
        while first_at < len(answers) and answers[first_at][0] < ack_time:
            first_at += 1
        cursor = max(cursor, first_at)
        while cursor < len(answers) and answers[cursor][1] < needed:
            cursor += 1
        if cursor == len(answers):
            break
        samples.append(answers[cursor][0] - ack_time)
    return samples, len(acks) - len(samples)


def regressions(answers: Sequence[Tuple[float, int]]) -> int:
    """How many answers report fewer processed events than the one before."""
    return sum(
        1 for before, after in zip(answers, answers[1:]) if after[1] < before[1]
    )


# ----------------------------------------------------------------------
# Correctness audit
# ----------------------------------------------------------------------
def repeated_keys(truth: Mapping) -> Dict:
    """The part of ``truth`` the audit scans: keys seen more than once.

    :func:`score_accuracy` ranks every truth key for recall and scans
    every key for unmonitored heavy hitters; keys seen once are neither
    (a heavy hitter has count > N/capacity), so dropping them keeps the
    score identical while a churn stream's million one-off keys stop
    dominating the audit time.  Monitored keys are added back per answer.
    The exact top-10 must lie among the kept keys, so a truth with fewer
    than ten repeated keys is kept whole.
    """
    repeated = {key: count for key, count in truth.items() if count > 1}
    return repeated if len(repeated) >= 10 else dict(truth)


def audit_summary(
    entries, processed: int, truth: Mapping, repeated: Mapping,
    expected: int, merged: bool,
) -> int:
    """Guarantee violations of one final answer (0 = correct).

    Rebuilds the answer as a Space Saving summary and scores it with
    :func:`repro.scenarios.audit.score_accuracy` (merged semantics for
    sharded backends), plus exactly-once accounting: ``processed`` must
    equal the events fed in.  ``repeated`` is :func:`repeated_keys` of
    ``truth``.
    """
    from repro.core.space_saving import SpaceSaving
    from repro.scenarios.audit import score_accuracy

    entries = list(entries)
    view = dict(repeated)
    for entry in entries:
        view[entry.element] = truth.get(entry.element, 0)
    counter = SpaceSaving.from_entries(CAPACITY, entries, processed)
    report = score_accuracy(counter, view, k=10, merged=merged)
    return report.guarantee_violations + (processed != expected)


def audit_point(
    count: int, monitored: bool, true_count: int, bound: float
) -> int:
    """One point answer against the truth of the prefix it reflects.

    A monitored estimate must upper-bound the truth within the ε·N
    ``bound``; an unmonitored element must have truth at or below it.
    """
    if monitored:
        return int(count < true_count or count - true_count > bound)
    return int(true_count > bound)
