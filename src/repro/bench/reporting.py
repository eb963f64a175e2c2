"""Plain-text reporting helpers shared by the benchmark harness.

The paper presents its results as figures; the reproduction prints the same
series as aligned text tables so that ``pytest benchmarks/ --benchmark-only``
output can be compared against the paper directly (``docs/paper_map.md``
maps each benchmark to its figure).

Because pytest captures stdout of passing tests, :func:`print_experiment`
additionally appends every table to the file named by the
``REPRO_BENCH_REPORT`` environment variable (the benchmark conftest points it
at ``bench_report.txt`` in the repository root by default), so a full run
leaves a readable report on disk regardless of capture settings.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Sequence, Union

__all__ = ["format_table", "print_experiment"]

Cell = Union[str, int, float]


def _format_cell(value: Cell) -> str:
    """Format one table cell: floats get 4 significant digits."""
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.4g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Cell]]) -> str:
    """Render an aligned text table.

    >>> print(format_table(["a", "b"], [[1, 2.5], [10, 0.125]]))
    a   | b
    ----+------
    1   | 2.5
    10  | 0.125
    """
    materialised: List[List[str]] = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    header_line = " | ".join(
        header.ljust(widths[index]) for index, header in enumerate(headers)
    ).rstrip()
    separator = "-+-".join("-" * width for width in widths)
    body_lines = [
        " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)).rstrip()
        for row in materialised
    ]
    return "\n".join([header_line, separator] + body_lines)


def print_experiment(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    notes: str = "",
) -> str:
    """Print (and return) a titled experiment table.

    Benchmarks call this so their console output mirrors the paper's
    figures/tables; returning the string also lets tests assert on content.
    """
    table = format_table(headers, rows)
    banner = "=" * max(len(title), 8)
    text = f"\n{banner}\n{title}\n{banner}\n{table}"
    if notes:
        text += f"\n  note: {notes}"
    print(text)
    report_path = os.environ.get("REPRO_BENCH_REPORT")
    if report_path:
        with open(report_path, "at", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return text
