"""Terminal plots: CDFs, time series, heat maps and schedule timelines.

Everything renders to plain monospace text so examples and benchmark logs
can show the *shape* of a distribution or schedule without a plotting
stack.  The schedule timeline mirrors the paper's Fig. 7(c): one row per
operator (grouped by stage), one column per time bucket, a mark wherever a
message started executing.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

_SHADES = " .:-=+*#%@"


def ascii_cdf(
    samples: Sequence[float],
    width: int = 60,
    height: int = 12,
    unit: str = "s",
    title: str = "",
) -> str:
    """Empirical CDF rendered as a monospace plot."""
    values = np.sort(np.asarray(samples, dtype=np.float64))
    if values.size == 0:
        return "(no samples)"
    low, high = float(values[0]), float(values[-1])
    span = (high - low) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for column in range(width):
        x = low + span * column / (width - 1 if width > 1 else 1)
        fraction = float(np.searchsorted(values, x, side="right")) / values.size
        row = min(height - 1, int((1.0 - fraction) * (height - 1)))
        grid[row][column] = "*"
    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(grid):
        y = 1.0 - i / (height - 1 if height > 1 else 1)
        lines.append(f"{y:4.2f} |" + "".join(row))
    lines.append("     +" + "-" * width)
    lines.append(f"      {low:.4g}{unit}" + " " * max(1, width - 18) + f"{high:.4g}{unit}")
    return "\n".join(lines)


def ascii_series(
    points: Sequence[tuple[float, float]],
    width: int = 70,
    height: int = 12,
    title: str = "",
) -> str:
    """(x, y) series as a scatter plot (e.g. latency timelines, Fig. 9)."""
    if not points:
        return "(no points)"
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    x_span = (xs.max() - xs.min()) or 1.0
    y_span = (ys.max() - ys.min()) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in zip(xs, ys):
        column = min(width - 1, int((x - xs.min()) / x_span * (width - 1)))
        row = min(height - 1, int((1.0 - (y - ys.min()) / y_span) * (height - 1)))
        grid[row][column] = "*"
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{ys.max():10.4g} ┐")
    for row in grid:
        lines.append(" " * 10 + " |" + "".join(row))
    lines.append(f"{ys.min():10.4g} +" + "-" * width)
    lines.append(" " * 12 + f"{xs.min():.4g} .. {xs.max():.4g}")
    return "\n".join(lines)


def ascii_heatmap(matrix, title: str = "", shades: str = _SHADES) -> str:
    """2D intensity map (e.g. the ingestion heat map of Fig. 2c)."""
    array = np.asarray(matrix, dtype=np.float64)
    if array.ndim != 2 or array.size == 0:
        return "(empty heatmap)"
    peak = array.max() or 1.0
    lines = [title] if title else []
    for row in array:
        cells = [shades[min(len(shades) - 1, int(v / peak * (len(shades) - 1)))]
                 for v in row]
        lines.append("".join(cells))
    lines.append(f"scale: ' '=0 .. '{shades[-1]}'={peak:.4g}")
    return "\n".join(lines)


def ascii_schedule(
    timeline: Iterable[tuple],
    start: float,
    end: float,
    width: int = 80,
    stage_order: Optional[Sequence[str]] = None,
    window: Optional[float] = None,
) -> str:
    """Operator schedule timeline in the style of Fig. 7(c).

    ``timeline`` holds ``MetricsHub.timeline`` records, ``(finished, job,
    stage, index, msg_id, started)``.  One row per (stage, operator index);
    columns are time buckets; a stage mark is drawn at every bucket in
    which the operator started a message.  With ``window`` given, columns
    at window boundaries are drawn as ``|`` when empty, mirroring the red
    separators of the paper's figure.
    """
    points = [(entry[5], entry[2], entry[3]) for entry in timeline
              if start <= entry[5] < end]
    if not points:
        return "(no schedule points in range)"
    stages = (list(stage_order) if stage_order
              else sorted({stage for _, stage, _ in points}))
    stage_mark = {stage: str(i) for i, stage in enumerate(stages)}
    rows: dict[tuple[int, int], list[str]] = {}
    span = end - start
    for started, stage, index in points:
        if stage not in stage_mark:
            continue
        row = rows.setdefault((stages.index(stage), index), [" "] * width)
        column = min(width - 1, int((started - start) / span * width))
        row[column] = stage_mark[stage]
    boundary_columns = set()
    if window:
        boundary = math.ceil(start / window) * window
        while boundary < end:
            boundary_columns.add(min(width - 1, int((boundary - start) / span * width)))
            boundary += window
    lines = [f"operator schedule {start:.2f}s .. {end:.2f}s "
             f"(rows: stage[index]; marks: stage number)"]
    for (stage_index, op_index), row in sorted(rows.items()):
        for column in boundary_columns:
            if row[column] == " ":
                row[column] = "|"
        label = f"{stages[stage_index][:10]:>10}[{op_index:02d}] "
        lines.append(label + "".join(row))
    return "\n".join(lines)
