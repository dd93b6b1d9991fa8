"""Plain-text table and series rendering for the benchmark harness.

The benches print rows shaped like the paper's tables and figures;
these helpers keep the formatting consistent across all of them.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a monospace table with one separator line under the header."""
    str_rows: List[List[str]] = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
            else:
                widths.append(len(cell))
    lines = [_render_row(headers, widths)]
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(_render_row(row, widths))
    return "\n".join(lines)


def format_series(label: str, xs: Sequence[object], ys: Sequence[float], unit: str = "") -> str:
    """Render an (x, y) series as aligned columns, one point per line."""
    lines = [f"# series: {label}" + (f" ({unit})" if unit else "")]
    for x, y in zip(xs, ys):
        lines.append(f"  {_cell(x):>12}  {y:12.4f}")
    return "\n".join(lines)


def format_count(n: float) -> str:
    """Human-readable count formatting in the paper's style (550K, 1.2M)."""
    n = float(n)
    if n >= 1e9:
        return f"{n / 1e9:.1f}B"
    if n >= 1e6:
        return f"{n / 1e6:.1f}M"
    if n >= 1e3:
        return f"{n / 1e3:.0f}K"
    return f"{n:.0f}"


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _render_row(cells: Sequence[str], widths: Sequence[int]) -> str:
    padded = [str(c).ljust(w) for c, w in zip(cells, widths)]
    return " | ".join(padded).rstrip()
