"""Plain-text rendering of tables and series.

Fixed-width ASCII tables, unicode sparklines for load/capacity curves,
and the "paper vs measured" claims block every paper artefact's report
ends with (``ExperimentDef.render``), plus the marker-block splice that
``pstore paper --update`` uses to keep EXPERIMENTS.md generated.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import SimulationError

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def ascii_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a fixed-width table with a header rule."""
    if not headers:
        raise SimulationError("table needs headers")
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise SimulationError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def sparkline(values: Sequence[float], width: int = 72) -> str:
    """Down-sample a series into a one-line unicode sparkline."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise SimulationError("cannot sparkline an empty series")
    if arr.size > width:
        edges = np.linspace(0, arr.size, width + 1).astype(int)
        arr = np.array([arr[a:b].mean() for a, b in zip(edges, edges[1:]) if b > a])
    lo, hi = float(arr.min()), float(arr.max())
    if hi - lo < 1e-12:
        return _SPARK_LEVELS[0] * arr.size
    scaled = (arr - lo) / (hi - lo) * (len(_SPARK_LEVELS) - 1)
    return "".join(_SPARK_LEVELS[int(round(s))] for s in scaled)


def series_block(
    label: str, values: Sequence[float], unit: str = "", width: int = 72
) -> str:
    """A labelled sparkline with min/mean/max annotations."""
    arr = np.asarray(values, dtype=float)
    return (
        f"{label:<28} {sparkline(arr, width)}\n"
        f"{'':<28} min={arr.min():,.0f}{unit} "
        f"mean={arr.mean():,.0f}{unit} max={arr.max():,.0f}{unit}"
    )


def claim(metric, paper, measured, holds=None, note="") -> Dict[str, object]:
    """One row of a paper artefact's ``claims``: what the paper says,
    what was measured, and whether the claim holds (None = the row only
    informs)."""
    return {
        "metric": metric,
        "paper": paper,
        "measured": measured,
        "holds": None if holds is None else bool(holds),
        "note": note,
    }


_HOLDS = {True: "yes", False: "no", None: "-"}


def paper_vs_measured(
    rows: Sequence[Dict[str, object]],
    title: str = "paper vs measured",
) -> str:
    """Render an artefact's claims as its comparison block.

    Each row needs keys ``metric``, ``paper`` and ``measured``;
    ``holds`` is True / False, or None (absent) for a purely informative
    row; an optional ``note`` explains a scale difference or deviation.
    """
    table = ascii_table(
        ["metric", "paper", "measured", "holds", "note"],
        [
            [
                row["metric"],
                row["paper"],
                row["measured"],
                _HOLDS[row.get("holds")],
                row.get("note", ""),
            ]
            for row in rows
        ],
        title=title,
    )
    # An empty note pads to the column width; keep the block free of
    # trailing blanks so it survives editors once spliced into a doc.
    return "\n".join(line.rstrip() for line in table.splitlines())


_BLOCK_END = "<!-- /pstore paper -->"


def splice_report(doc: str, name: str, report: str) -> str:
    """Replace the body of ``name``'s marker block in a document.

    A block is everything between ``<!-- pstore paper: NAME -->`` and the
    next ``<!-- /pstore paper -->``; the report goes in as a fenced
    ``text`` block.  A missing or unclosed marker is an error — the
    caller must not write a half-updated document.
    """
    begin = f"<!-- pstore paper: {name} -->\n"
    start = doc.find(begin)
    if start < 0:
        raise SimulationError(f"no '{begin.strip()}' marker")
    body = start + len(begin)
    end = doc.find(_BLOCK_END, body)
    if end < 0 or "<!-- pstore paper:" in doc[body:end]:
        raise SimulationError(
            f"'{begin.strip()}' is not closed by '{_BLOCK_END}'"
        )
    return f"{doc[:body]}```text\n{report}\n```\n{doc[end:]}"
