"""Plain-text reporting helpers for the experiment harness.

The benchmark suite prints each figure's rows/series the way the paper
reports them; these helpers keep the formatting consistent: aligned
tables, series sparklines, and paper-vs-measured comparison rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["format_table", "format_series", "ComparisonRow", "format_comparison", "ascii_chart"]


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None
) -> str:
    """Render an aligned plain-text table."""
    str_rows = [[_cell(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e6 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:,.2f}"
    return str(value)


def format_series(label: str, values: Sequence[float]) -> str:
    """One labelled numeric series, downsampled to about 16 points."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return f"{label}: (empty)"
    step = max(1, arr.size // 16)
    shown = " ".join(f"{v:.2f}" for v in arr[::step])
    return f"{label:28s} [{arr.size} pts] {shown}"


@dataclass(frozen=True)
class ComparisonRow:
    """One paper-vs-measured metric."""

    metric: str
    paper: float | str
    measured: float | str
    note: str = ""


def format_comparison(rows: Sequence[ComparisonRow], title: str) -> str:
    """Render the paper-vs-measured table used in EXPERIMENTS.md."""
    return format_table(
        ["metric", "paper", "measured", "note"],
        [[r.metric, r.paper, r.measured, r.note] for r in rows],
        title=title,
    )


#: Rows and columns of an :func:`ascii_chart` plot area.
CHART_HEIGHT = 12
CHART_WIDTH = 70


def ascii_chart(series: dict[str, Sequence[float]], ylabel: str = "") -> str:
    """Render one or more numeric series as a
    :data:`CHART_HEIGHT` x :data:`CHART_WIDTH` ASCII line chart.

    Each series gets its own marker; the y-axis is shared.  Used by the
    experiment reports so the regenerated "figures" read as figures in a
    terminal or in EXPERIMENTS.md.
    """
    if not series:
        return "(no data)"
    arrays = {k: np.asarray(v, dtype=float) for k, v in series.items()}
    arrays = {k: v for k, v in arrays.items() if v.size > 0}
    if not arrays:
        return "(no data)"
    lo = min(float(v.min()) for v in arrays.values())
    hi = max(float(v.max()) for v in arrays.values())
    if hi <= lo:
        hi = lo + 1.0
    height, width = CHART_HEIGHT, CHART_WIDTH
    markers = "*o+x#@%&"
    grid = [[" "] * width for _ in range(height)]

    def col_of(i: int, n: int) -> int:
        return 0 if n <= 1 else round(i * (width - 1) / (n - 1))

    def row_of(value: float) -> int:
        frac = (value - lo) / (hi - lo)
        return (height - 1) - round(frac * (height - 1))

    for marker, (_, values) in zip(markers, arrays.items()):
        for i, value in enumerate(values):
            grid[row_of(float(value))][col_of(i, values.size)] = marker

    lines = []
    for r, row in enumerate(grid):
        if r == 0:
            label = f"{hi:10.2f} |"
        elif r == height - 1:
            label = f"{lo:10.2f} |"
        else:
            label = " " * 10 + " |"
        lines.append(label + "".join(row))
    lines.append(" " * 11 + "+" + "-" * width)
    n_max = max(v.size for v in arrays.values())
    lines.append(" " * 12 + f"iteration 0 .. {n_max - 1}" + (f"   [{ylabel}]" if ylabel else ""))
    legend = "   ".join(
        f"{marker} {name}" for marker, name in zip(markers, arrays)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)
