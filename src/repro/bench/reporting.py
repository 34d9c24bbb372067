"""Plain-text reporting of tables and figure series.

Every benchmark in ``benchmarks/`` prints the rows/series of the paper's
table or figure it regenerates; the helpers here keep that output uniform
and readable in a terminal.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

#: The MLPerf training benchmark list of Table 1 (static reference data),
#: used to motivate the staleness problem Mystique addresses.
MLPERF_TRAINING_BENCHMARKS: List[Dict[str, str]] = [
    {"area": "Vision", "model": "ResNet-50", "last_updated": "May 17, 2021"},
    {"area": "Vision", "model": "3D U-Net", "last_updated": "Apr 14, 2021"},
    {"area": "Vision", "model": "Mask R-CNN", "last_updated": "Mar 5, 2021"},
    {"area": "Language", "model": "RNN-T", "last_updated": "Apr 7, 2021"},
    {"area": "Language", "model": "BERT-large", "last_updated": "May 14, 2021"},
    {"area": "Commerce", "model": "DLRM", "last_updated": "Feb 9, 2021"},
    {"area": "Research", "model": "Mini Go", "last_updated": "Jun 19, 2020"},
]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Render a fixed-width text table."""
    str_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append(render_row(["-" * width for width in widths]))
    lines.extend(render_row(row) for row in str_rows)
    return "\n".join(lines)


def format_series(series: Mapping[str, Mapping[object, float]], x_label: str = "x", title: str = "") -> str:
    """Render one or more named (x → y) series as a text table.

    Used for figure-style outputs (power sweeps, cross-platform bars) where
    each series is a line/bar group in the paper's plot.
    """
    x_values: List[object] = []
    for values in series.values():
        for x in values:
            if x not in x_values:
                x_values.append(x)
    headers = [x_label, *series.keys()]
    rows = []
    for x in x_values:
        rows.append([x, *(values.get(x, float("nan")) for values in series.values())])
    return format_table(headers, rows, title=title)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
