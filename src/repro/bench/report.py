"""Report formatting for the benchmark harness.

The benchmarks print plain-text tables whose rows mirror the series of
the paper's figures (one row per SNAP trace, one column per system).
Nothing here depends on matplotlib — the harness is expected to run in
headless CI; the data behind the tables is ``REPRODUCTION.json``, which
a notebook can plot.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned plain-text table."""
    materialized = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[index]) for index, header in enumerate(headers)),
        "  ".join("-" * widths[index] for index in range(len(headers))),
    ]
    for row in materialized:
        lines.append(
            "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row))
        )
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3e}"
        return f"{cell:.3f}"
    return str(cell)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (0.0 for an empty input)."""
    values = [value for value in values if value > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))
