"""Plain-text tables for benchmark output.

Every benchmark prints the rows it measured in the same format they
are recorded in ``EXPERIMENTS.md``, so regenerating the document is a
matter of re-running ``pytest benchmarks/ -s``.
"""

from __future__ import annotations

from typing import List, Sequence


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render an aligned monospace table with a header rule.

    >>> print(format_table(["n", "t"], [[10, 0.5], [100, 5.0]]))
    n    t
    ---  ----
    10   0.5
    100  5.00
    """
    rendered: List[List[str]] = [[str(h) for h in headers]]
    rendered.extend([_cell(value) for value in row] for row in rows)
    widths = [
        max(len(row[column]) for row in rendered)
        for column in range(len(headers))
    ]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(rendered[0], widths)).rstrip(),
        "  ".join("-" * width for width in widths),
    ]
    for row in rendered[1:]:
        lines.append(
            "  ".join(
                cell.ljust(width) for cell, width in zip(row, widths)
            ).rstrip()
        )
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4g}"
    return str(value)
