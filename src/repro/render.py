"""One shared plain-text rendering module for every report surface.

Tables, ASCII bar series, counter digests and timeline lines used to
be re-implemented ad hoc in the analysis package and each ``telemetry``
log; they live here now so every benchmark table, lint summary,
validation digest and fault timeline prints through one consistent,
diffable formatter.
"""

import math
from typing import List, Mapping, Optional, Sequence


class Table:
    """A fixed-width text table."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append([_fmt(c) for c in cells])

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, sep]
        lines.append(" | ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
        lines.append(sep)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.3f}"
    return str(cell)


def bar(value: float, scale: float, width: int = 40, char: str = "#") -> str:
    """An ASCII bar of ``value`` against full-scale ``scale``."""
    if scale <= 0:
        return ""
    n = int(round(min(max(value / scale, 0.0), 1.0) * width))
    return char * n


def format_series(
    title: str,
    labels: Sequence[str],
    values: Sequence[float],
    unit: str = "",
    log: bool = False,
    width: int = 40,
) -> str:
    """Render one figure series as labelled ASCII bars."""
    if len(labels) != len(values):
        raise ValueError("labels/values length mismatch")
    lines = [title]
    if not values:
        return title
    if log:
        floor = 1.0
        shown = [math.log10(max(v, floor)) for v in values]
        scale = max(shown) or 1.0
    else:
        shown = list(values)
        scale = max(shown) or 1.0
    label_w = max(len(l) for l in labels)
    for label, value, s in zip(labels, values, shown):
        lines.append(
            f"  {label.ljust(label_w)} {value:12.4g}{unit} |{bar(s, scale, width)}"
        )
    return "\n".join(lines)


def counter_digest(counts: Mapping, empty: str = "none") -> str:
    """``{"a": 2, "b": 1}`` -> ``"a:2, b:1"`` — the one-line counter
    format shared by the lint, validation and run summaries."""
    body = ", ".join(
        f"{name}:{count}" for name, count in sorted(counts.items())
    )
    return body or empty


def timeline_line(
    time: float, kind: str, node: Optional[str] = None, detail: str = ""
) -> str:
    """One aligned, timestamped event line (fault traces et al.)."""
    where = f" {node}" if node else ""
    tail = f": {detail}" if detail else ""
    return f"t={time:10.3f}s  {kind:<17}{where}{tail}"
