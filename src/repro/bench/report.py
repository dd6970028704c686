"""Plain-text reporting for benchmark results (paper-style tables/bars).

The paper presents its evaluation as bar charts (Figs. 2-7) and grouped
bars per FFT pattern (Figs. 9-12).  The benchmark harness regenerates
the same *series* as text: one table per figure, plus ASCII bars so the
orderings are visible at a glance in CI logs.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..units import fmt_time

__all__ = ["format_table", "format_bars", "format_series"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned plain-text table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_bars(values: Mapping[str, float],
                title: Optional[str] = None) -> str:
    """Render a labelled horizontal bar chart of times (lower = better),
    the longest bar 46 characters, the best time marked."""
    if not values:
        return title or ""
    vmax = max(values.values())
    best = min(values, key=values.get)
    label_w = max(len(k) for k in values)
    lines = []
    if title:
        lines.append(title)
    for name, v in values.items():
        bar = "#" * max(1, round(46 * v / vmax)) if vmax > 0 else ""
        star = "  <-- best" if name == best else ""
        lines.append(f"  {name.ljust(label_w)} {fmt_time(v):>12} {bar}{star}")
    return "\n".join(lines)


def format_series(
    x_label: str,
    xs: Sequence[object],
    series: Mapping[str, Sequence[float]],
    title: Optional[str] = None,
) -> str:
    """Render one-row-per-x multi-series data (a figure's line chart)."""
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(xs):
        row = [x] + [fmt_time(series[name][i]) for name in series]
        rows.append(row)
    return format_table(headers, rows, title=title)
