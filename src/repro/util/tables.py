"""Plain-text table rendering for experiment outputs.

The experiment tables, audit reports and ablation benchmarks print the
same rows the paper's tables report; this module renders them as aligned
ASCII so the output is directly comparable to the paper (and diff-able
between runs).
"""

from __future__ import annotations

from typing import Sequence


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "",
                 right_align: Sequence[int] = ()) -> str:
    """Render rows as an aligned ASCII table.

    All cells are stringified; column widths fit the widest cell.  Raises if
    any row length disagrees with the header length, which catches analysis
    bugs early rather than mis-aligning output.

    *right_align* lists column indices to right-justify (headers included)
    so numeric columns line up on the decimal point; the default keeps
    every column left-aligned, preserving existing golden outputs.
    """
    cells = [[str(cell) for cell in row] for row in rows]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}: {row!r}")
    righted = set(right_align)
    if not all(0 <= index < len(headers) for index in righted):
        raise ValueError(
            f"right_align indices {sorted(righted)!r} out of range for "
            f"{len(headers)} columns")
    widths = [len(header) for header in headers]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def fmt(row: Sequence[str]) -> str:
        return " | ".join(
            cell.rjust(width) if index in righted else cell.ljust(width)
            for index, (cell, width) in enumerate(zip(row, widths)))

    rule = "-+-".join("-" * width for width in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(list(headers)))
    lines.append(rule)
    lines.extend(fmt(row) for row in cells)
    return "\n".join(lines)
