"""Run-report comparison: ``python -m repro report --diff A B``.

Turns two run reports (bench reports with a ``results`` list, or
single-run documents with a ``metrics`` block) into a per-entry,
per-metric delta table — and into a *gate*: metrics whose
:class:`~repro.obs.schema.MetricSpec` declares a bad direction
(``worse="up"`` / ``"down"``) flag a **regression** when their relative
change exceeds the spec's tolerance, and the CLI exits non-zero when any
entry flags.  That turns the committed ``BENCH_core.json`` /
``BENCH_mp.json`` trajectories into something CI can hold a fresh run
against instead of an archive nobody reads.

Three layers of data are compared for every entry matched by name:

1. **bench scalars** — ``wall_seconds``, ``throughput_eps``, ... with
   their own directions/tolerances (:data:`BENCH_FIELD_SPECS`; host
   wall-clock numbers are noisy, so their default slack is generous);
2. **counters and gauges** from the entry's metrics snapshot;
3. **histograms** — compared on observation count and mean.

Entries present on only one side, metrics that appear/disappear, and
entries without metrics blocks (pre-metrics reports) are reported as
notes, never as regressions — a diff against an old report must degrade
to "nothing comparable", not crash.

``tolerance`` overrides every per-spec tolerance with one number — the
CI smoke job passes a deliberately generous value so only catastrophic
regressions (the injected 2x kind the tests exercise) fail the build.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.report import iter_entry_metrics
from repro.obs.schema import MetricSpec, lookup


@dataclasses.dataclass(frozen=True)
class FieldSpec:
    """Direction + slack for one top-level bench entry field."""

    name: str
    worse: Optional[str]      #: 'up' | 'down' | None
    tolerance: float
    unit: str


#: bench entry scalars the comparator understands.  Wall-clock numbers
#: jitter run to run, so the time/throughput slack is deliberately wide;
#: simulated cycles are deterministic and get a tight bound.
BENCH_FIELD_SPECS: Tuple[FieldSpec, ...] = (
    FieldSpec("wall_seconds", "up", 0.75, "seconds"),
    FieldSpec("throughput_eps", "down", 0.50, "elements/s"),
    FieldSpec("sim_cycles", "up", 0.10, "cycles"),
    FieldSpec("speedup_vs_sequential", "down", 0.50, "ratio"),
    FieldSpec("peak_rss_kb", "up", 0.75, "kB"),
    FieldSpec("elements", None, 0.0, "elements"),
    # scenario-suite accuracy (BENCH_scenarios.json): any violation is
    # a regression
    FieldSpec("guarantee_violations", "up", 0.0, "violations"),
)


@dataclasses.dataclass
class DiffLine:
    """One compared value (a bench field, metric, or histogram stat)."""

    entry: str                  #: report entry the value belongs to
    metric: str                 #: field / metric name (with .count/.mean)
    before: Optional[float]
    after: Optional[float]
    regression: bool = False
    gated: bool = False         #: spec declares a bad direction
    tolerance: float = 0.0      #: slack the comparison ran with
    note: str = ""              #: appeared / disappeared / no metrics ...

    @property
    def delta(self) -> Optional[float]:
        """Absolute change (``after - before``), when both sides exist."""
        if self.before is None or self.after is None:
            return None
        return self.after - self.before

    @property
    def relative(self) -> Optional[float]:
        """Relative change vs before (None for a zero/missing baseline)."""
        if self.before is None or self.after is None or self.before == 0:
            return None
        return (self.after - self.before) / abs(self.before)


@dataclasses.dataclass
class DiffResult:
    """Outcome of comparing two run reports."""

    lines: List[DiffLine]
    notes: List[str]            #: entry-level mismatches (one side only)

    @property
    def regressions(self) -> List[DiffLine]:
        return [line for line in self.lines if line.regression]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        """Human-readable delta table, regressions marked."""
        out = [
            f"report diff: {len(self.lines)} compared values, "
            f"{len(self.regressions)} regressions"
        ]
        out.extend(f"note: {note}" for note in self.notes)
        entry = None
        for line in self.lines:
            if line.entry != entry:
                entry = line.entry
                out.append(f"entry {entry}")
            before = "-" if line.before is None else f"{line.before:.6g}"
            after = "-" if line.after is None else f"{line.after:.6g}"
            rel = line.relative
            rel_text = "" if rel is None else f" ({rel:+.1%})"
            flag = "  REGRESSION" if line.regression else ""
            note = f"  [{line.note}]" if line.note else ""
            out.append(
                f"  {line.metric:44s} {before:>12s} -> {after:>12s}"
                f"{rel_text}{flag}{note}"
            )
        return "\n".join(out)

    def to_json(self) -> Dict[str, Any]:
        """Machine form (mirrors ``report --json``'s schema style)."""
        return {
            "regressions": len(self.regressions),
            "notes": list(self.notes),
            "lines": [
                {
                    "entry": line.entry,
                    "metric": line.metric,
                    "before": line.before,
                    "after": line.after,
                    "delta": line.delta,
                    "relative": line.relative,
                    "regression": line.regression,
                    "note": line.note,
                }
                for line in self.lines
            ],
        }


def _is_regression(
    before: Optional[float],
    after: Optional[float],
    worse: Optional[str],
    tolerance: float,
) -> bool:
    if worse is None or before is None or after is None or before == 0:
        return False
    relative = (after - before) / abs(before)
    if worse == "up":
        return relative > tolerance
    if worse == "down":
        return relative < -tolerance
    raise ConfigurationError(f"unknown worse direction {worse!r}")


def _spec_gate(
    spec: Optional[MetricSpec], override: Optional[float]
) -> Tuple[Optional[str], float]:
    """(worse, tolerance) for a metric spec under a CLI override."""
    if spec is None or spec.worse is None:
        return None, 0.0
    return spec.worse, override if override is not None else spec.tolerance


def _histogram_stats(hist: Dict[str, Any]) -> Dict[str, float]:
    count = hist.get("count", 0)
    total = hist.get("sum", 0.0)
    return {"count": count, "mean": total / count if count else 0.0}


def _diff_snapshot(
    entry: str,
    before: Dict[str, Any],
    after: Dict[str, Any],
    override: Optional[float],
    lines: List[DiffLine],
) -> None:
    for family in ("counters", "gauges"):
        names = sorted(
            set(before.get(family, {})) | set(after.get(family, {}))
        )
        for name in names:
            old = before.get(family, {}).get(name)
            new = after.get(family, {}).get(name)
            worse, tolerance = _spec_gate(lookup(name), override)
            lines.append(DiffLine(
                entry=entry,
                metric=name,
                before=old,
                after=new,
                regression=_is_regression(old, new, worse, tolerance),
                gated=worse is not None,
                tolerance=tolerance,
                note="appeared" if old is None else
                     "disappeared" if new is None else "",
            ))
    names = sorted(
        set(before.get("histograms", {})) | set(after.get("histograms", {}))
    )
    for name in names:
        old_hist = before.get("histograms", {}).get(name)
        new_hist = after.get("histograms", {}).get(name)
        worse, tolerance = _spec_gate(lookup(name), override)
        for stat in ("count", "mean"):
            old = _histogram_stats(old_hist)[stat] if old_hist else None
            new = _histogram_stats(new_hist)[stat] if new_hist else None
            lines.append(DiffLine(
                entry=entry,
                metric=f"{name}.{stat}",
                before=old,
                after=new,
                # only the mean is gated: observation counts track run
                # shape (batches, chunks), not cost
                regression=(
                    stat == "mean"
                    and _is_regression(old, new, worse, tolerance)
                ),
                gated=worse is not None and stat == "mean",
                tolerance=tolerance,
                note="appeared" if old_hist is None else
                     "disappeared" if new_hist is None else "",
            ))


def _entry_fields(report: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """name -> raw entry dict (empty for single-run metric documents)."""
    if "results" not in report:
        return {}
    return {
        item.get("name", "?"): item
        for item in report["results"]
        if isinstance(item, dict)
    }


def diff_reports(
    before: Dict[str, Any],
    after: Dict[str, Any],
    tolerance: Optional[float] = None,
    entry: Optional[str] = None,
) -> DiffResult:
    """Compare two run reports; see the module docstring for semantics.

    ``tolerance`` overrides every per-spec/per-field tolerance.
    ``entry`` restricts the comparison to entries whose name contains
    the substring.
    """
    if tolerance is not None and tolerance < 0:
        raise ConfigurationError(
            f"tolerance must be >= 0, got {tolerance}"
        )
    before_metrics = dict(iter_entry_metrics(before))
    after_metrics = dict(iter_entry_metrics(after))
    before_fields = _entry_fields(before)
    after_fields = _entry_fields(after)
    names = [name for name in before_metrics if name in after_metrics]
    if entry is not None:
        names = [name for name in names if entry in name]
        if not names:
            known = ", ".join(sorted(set(before_metrics) & set(after_metrics)))
            raise ConfigurationError(
                f"no common entry matching {entry!r}; common entries: "
                f"{known or '(none)'}"
            )
    notes = [
        f"entry {name!r} only in {side} report"
        for side, only in (
            ("before", [n for n in before_metrics if n not in after_metrics]),
            ("after", [n for n in after_metrics if n not in before_metrics]),
        )
        for name in only
    ]
    lines: List[DiffLine] = []
    for name in names:
        old_entry = before_fields.get(name, {})
        new_entry = after_fields.get(name, {})
        for field in BENCH_FIELD_SPECS:
            old = old_entry.get(field.name)
            new = new_entry.get(field.name)
            if old is None and new is None:
                continue
            slack = tolerance if tolerance is not None else field.tolerance
            lines.append(DiffLine(
                entry=name,
                metric=field.name,
                before=old,
                after=new,
                regression=_is_regression(old, new, field.worse, slack),
                gated=field.worse is not None,
                tolerance=slack,
                note="appeared" if old is None else
                     "disappeared" if new is None else "",
            ))
        old_snapshot = before_metrics[name]
        new_snapshot = after_metrics[name]
        if not old_snapshot and not new_snapshot:
            # pre-metrics entries (old reports): nothing to compare, and
            # that must not be an error
            lines.append(DiffLine(
                entry=name, metric="(metrics)", before=None, after=None,
                note="no metrics on either side",
            ))
            continue
        _diff_snapshot(name, old_snapshot, new_snapshot, tolerance, lines)
    if not names:
        notes.append("no common entries: nothing compared")
    return DiffResult(lines=lines, notes=notes)
