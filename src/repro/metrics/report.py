"""Plain-text reporting: tables and ASCII plots for bench output."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:
    from .timeseries import TimeSeries


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: str = "",
) -> str:
    """Render an aligned plain-text table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.2f}"
    return str(cell)


def ascii_plot(
    series: Sequence[TimeSeries],
    width: int = 72,
    height: int = 14,
    title: str = "",
    labels: Optional[Sequence[str]] = None,
) -> str:
    """Plot one or more time series as ASCII art (for bench stdout)."""
    series = [s for s in series if len(s)]
    if not series:
        return f"{title}\n(no data)"
    marks = "*o+x#@%&"
    t_min = min(s.times.min() for s in series)
    t_max = max(s.times.max() for s in series)
    v_min = min(s.values.min() for s in series)
    v_max = max(s.values.max() for s in series)
    if v_max == v_min:
        v_max = v_min + 1.0
    if t_max == t_min:
        t_max = t_min + 1.0
    grid = [[" "] * width for _ in range(height)]
    for idx, s in enumerate(series):
        mark = marks[idx % len(marks)]
        for t, v in zip(s.times, s.values):
            col = int((t - t_min) / (t_max - t_min) * (width - 1))
            row = int((v - v_min) / (v_max - v_min) * (height - 1))
            grid[height - 1 - row][col] = mark
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{v_max:10.3f} ┤" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 10 + " │" + "".join(row))
    lines.append(f"{v_min:10.3f} ┤" + "".join(grid[-1]))
    lines.append(
        " " * 12 + f"t: {t_min:.0f} .. {t_max:.0f} s"
    )
    if labels:
        legend = "  ".join(
            f"{marks[i % len(marks)]}={label}"
            for i, label in enumerate(labels)
        )
        lines.append(" " * 12 + legend)
    return "\n".join(lines)
