"""Plain-text rendering of experiment results.

``python -m repro experiment`` prints the same rows/series the paper
reports; these helpers format :class:`~repro.experiments.runner.ExperimentResult`
objects as aligned ASCII tables and per-alpha series.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.experiments.runner import ExperimentResult


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.0001:
            return f"{value:.3e}"
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(result: ExperimentResult) -> str:
    """Render a result as an aligned ASCII table with a title line."""
    headers = result.columns
    body = [
        [_format_cell(row.get(column)) for column in headers]
        for row in result.rows
    ]
    widths = [
        max(len(header), *(len(line[i]) for line in body)) if body else len(header)
        for i, header in enumerate(headers)
    ]
    lines = [result.title]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for line in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(line, widths)))
    if result.notes:
        lines.append(f"note: {result.notes}")
    return "\n".join(lines)


def format_series(
    result: ExperimentResult,
    x: str,
    y: str,
    group_by: str = "alpha",
) -> str:
    """Render one line per group (e.g. one speedup series per alpha)."""
    groups: Dict[Any, List[str]] = {}
    xs: Dict[Any, List[str]] = {}
    for row in result.rows:
        key = row.get(group_by)
        groups.setdefault(key, []).append(_format_cell(row.get(y)))
        xs.setdefault(key, []).append(_format_cell(row.get(x)))
    lines = [result.title]
    for key in sorted(groups):
        axis = ", ".join(xs[key])
        values = ", ".join(groups[key])
        lines.append(f"  {group_by}={key}: {x}=[{axis}] {y}=[{values}]")
    return "\n".join(lines)


def ascii_chart(
    result: ExperimentResult,
    x: str,
    y: str,
    group_by: str = "alpha",
    width: int = 48,
    height: int = 12,
) -> str:
    """A crude terminal scatter/line chart of ``y`` against ``x``.

    One symbol per group (``a`` for the first group, ``b`` for the
    second, ...); axes are linear; collisions show the later group.
    Good enough to eyeball a speedup curve from the CLI.
    """
    points: Dict[Any, List[Any]] = {}
    for row in result.rows:
        points.setdefault(row.get(group_by), []).append(
            (float(row.get(x)), float(row.get(y)))
        )
    if not points or width < 2 or height < 2:
        return "(nothing to plot)"
    all_x = [px for series in points.values() for px, _ in series]
    all_y = [py for series in points.values() for _, py in series]
    x_min, x_max = min(all_x), max(all_x)
    y_min, y_max = min(all_y), max(all_y)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    grid = [[" "] * width for _ in range(height)]
    symbols = "abcdefghijklmnopqrstuvwxyz"
    legend = []
    for index, key in enumerate(sorted(points)):
        symbol = symbols[index % len(symbols)]
        legend.append(f"{symbol}={group_by}:{key}")
        for px, py in points[key]:
            column = round((px - x_min) / x_span * (width - 1))
            row_i = height - 1 - round((py - y_min) / y_span * (height - 1))
            grid[row_i][column] = symbol
    lines = [f"{result.title}  [{', '.join(legend)}]"]
    for row_cells in grid:
        lines.append("|" + "".join(row_cells))
    lines.append("+" + "-" * width)
    lines.append(
        f" {x}: {_format_cell(x_min)} .. {_format_cell(x_max)}   "
        f"{y}: {_format_cell(y_min)} .. {_format_cell(y_max)}"
    )
    return "\n".join(lines)


def print_result(result: ExperimentResult) -> None:
    """Print the full table for a result."""
    print(format_table(result))
    print()
