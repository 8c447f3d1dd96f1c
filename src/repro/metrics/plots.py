"""Terminal plots: CDFs and schedule timelines.

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
