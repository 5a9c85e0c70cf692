"""Plain-text tables for ``examples/scalability_study.py``, whose
output is directly comparable with EXPERIMENTS.md (S1, S3).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence


def format_table(title: str, columns: Sequence[str],
                 rows: Iterable[Sequence[Any]]) -> str:
    """Render an aligned text table with a title rule."""
    materialized = [[_cell(value) for value in row] for row in rows]
    widths = [len(str(column)) for column in columns]
    for row in materialized:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    header = " | ".join(str(column).ljust(width)
                        for column, width in zip(columns, widths))
    rule = "-+-".join("-" * width for width in widths)
    body = [" | ".join(value.ljust(width)
                       for value, width in zip(row, widths))
            for row in materialized]
    top = f"== {title} =="
    return "\n".join([top, header, rule, *body])


def print_table(title: str, columns: Sequence[str],
                rows: Iterable[Sequence[Any]]) -> None:
    """Print a table, flushed so it interleaves predictably with other
    output."""
    print()
    print(format_table(title, columns, rows), flush=True)


def _cell(value: Any) -> str:
    if isinstance(value, float):
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.2f}"
    return str(value)


def ratio(numerator: float, denominator: float) -> float:
    """Safe ratio for speedup columns."""
    return numerator / denominator if denominator else float("inf")
