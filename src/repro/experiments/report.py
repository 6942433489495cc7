"""Plain-text rendering of tables and figures.

The harness prints the same rows/series the paper reports, as aligned
ASCII tables, heat-shaded grids (Tables 3/4) and horizontal bar charts
(the figure reproductions).  Everything returns strings so the examples
and benchmarks can both print and assert on them.
"""

from __future__ import annotations

from typing import Sequence

#: shading ramp used for heatmap cells (low -> high).
_SHADES = " .:-=+*#%@"


def format_table(rows: Sequence[Sequence[str]], pad: int = 2) -> str:
    """Align a list of string rows into a fixed-width table."""
    if not rows:
        return ""
    ncol = max(len(r) for r in rows)
    widths = [0] * ncol
    for r in rows:
        for i, cell in enumerate(r):
            widths[i] = max(widths[i], len(str(cell)))
    sep = " " * pad
    lines = []
    for idx, r in enumerate(rows):
        line = sep.join(str(c).ljust(widths[i]) for i, c in enumerate(r)).rstrip()
        lines.append(line)
        if idx == 0:
            lines.append("-" * len(line))
    return "\n".join(lines)


def shade(value: float, lo: float, hi: float) -> str:
    """One shading character for a heat cell."""
    if hi <= lo:
        return _SHADES[0]
    t = max(0.0, min(1.0, (value - lo) / (hi - lo)))
    return _SHADES[int(round(t * (len(_SHADES) - 1)))]


def format_heatmap(xs: Sequence, ys: Sequence, values: dict,
                   fmt: str = "{:.1f}") -> str:
    """Render ``values[(y, x)]`` as a shaded grid (rows = ys)."""
    flat = [values[(y, x)] for y in ys for x in xs]
    lo, hi = min(flat), max(flat)
    rows = [[""] + [str(x) for x in xs]]
    for y in ys:
        cells = []
        for x in xs:
            v = values[(y, x)]
            cells.append(f"{fmt.format(v)} {shade(v, lo, hi)}")
        rows.append([str(y)] + cells)
    return format_table(rows)


def format_series_barchart(series_obj, width: int = 40) -> str:
    """Render a figures.Series as grouped bars per x value."""
    lines = [series_obj.title, ""]
    peak = max(max(v) for v in series_obj.series.values())
    lw = max(len(k) for k in series_obj.series)
    for i, x in enumerate(series_obj.xs):
        lines.append(f"{series_obj.xlabel} = {x}")
        for label, vals in series_obj.series.items():
            v = vals[i]
            bar = "#" * max(0, int(round(width * v / peak))) if peak else ""
            lines.append(f"  {label.ljust(lw)}  {bar} {v:.4g}")
    return "\n".join(lines)


def render(obj) -> str:
    """Render any tables/figures result object."""
    if hasattr(obj, "rows"):
        body = format_table(obj.rows())
        title = getattr(obj, "title", None)
        return f"{title}\n{body}" if title else body
    raise TypeError(f"cannot render {type(obj).__name__}")
