"""Terminal plotting: line charts and boxplots in plain ASCII.

The benchmark harness runs in environments without a display, yet the
paper's figures are curves and boxplots.  These renderers draw them as
text so every experiment report can *show* its figure, not just list
numbers.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

import numpy as np

from ..sim.monitor import SummaryStats

__all__ = ["line_plot", "box_plot", "sparkline"]

_MARKERS = "ox+*#@%&"
_SPARK_LEVELS = " .:-=+*#%@"


def sparkline(values: Sequence[float], width: int = 40) -> str:
    """A one-line intensity strip of ``values`` resampled to ``width``."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        return ""
    if width < 1:
        raise ValueError("width must be >= 1")
    resampled = np.interp(
        np.linspace(0, data.size - 1, width), np.arange(data.size), data
    )
    lo, hi = float(resampled.min()), float(resampled.max())
    span = hi - lo
    chars = []
    for v in resampled:
        level = 0 if span <= 0 else int((v - lo) / span * (len(_SPARK_LEVELS) - 1))
        chars.append(_SPARK_LEVELS[level])
    return "".join(chars)


def line_plot(
    x: Sequence[float],
    series: Mapping[str, Sequence[float]],
    width: int = 64,
    height: int = 16,
    x_label: str = "",
    y_label: str = "",
) -> List[str]:
    """Render one or more y(x) series on a shared character canvas.

    Returns the plot as a list of text lines (no trailing newline),
    with a legend mapping markers to series names.
    """
    xs = np.asarray(list(x), dtype=float)
    if xs.size < 2:
        raise ValueError("need at least two x points")
    if width < 8 or height < 4:
        raise ValueError("canvas too small")
    ys = {name: np.asarray(list(v), dtype=float) for name, v in series.items()}
    for name, arr in ys.items():
        if arr.shape != xs.shape:
            raise ValueError(f"series {name!r} length mismatch")
    if not ys:
        raise ValueError("no series given")

    y_all = np.concatenate(list(ys.values()))
    y_lo, y_hi = float(y_all.min()), float(y_all.max())
    if y_hi - y_lo <= 0:
        y_hi = y_lo + 1.0
    x_lo, x_hi = float(xs.min()), float(xs.max())

    canvas = [[" "] * width for _ in range(height)]
    for k, (name, arr) in enumerate(ys.items()):
        marker = _MARKERS[k % len(_MARKERS)]
        for xv, yv in zip(xs, arr):
            col = int(round((xv - x_lo) / (x_hi - x_lo) * (width - 1)))
            row = int(round((yv - y_lo) / (y_hi - y_lo) * (height - 1)))
            canvas[height - 1 - row][col] = marker

    lines: List[str] = []
    if y_label:
        lines.append(y_label)
    for i, row in enumerate(canvas):
        if i == 0:
            label = f"{y_hi:8.3g} |"
        elif i == height - 1:
            label = f"{y_lo:8.3g} |"
        else:
            label = " " * 8 + " |"
        lines.append(label + "".join(row))
    lines.append(" " * 9 + "+" + "-" * (width - 1))
    left = f"{x_lo:g}"
    right = f"{x_hi:g}"
    pad = max(1, width - len(left) - len(right))
    lines.append(" " * 10 + left + " " * pad + right)
    if x_label:
        lines.append(" " * 10 + x_label.center(width))
    legend = "   ".join(
        f"{_MARKERS[k % len(_MARKERS)]} {name}" for k, name in enumerate(ys)
    )
    lines.append("legend: " + legend)
    return lines


def box_plot(
    stats_by_key: Mapping[float, SummaryStats],
    width: int = 60,
    value_format: str = "{:.0f}",
) -> List[str]:
    """Render horizontal boxplots, one row per key.

    Layout per row: ``key |----[ Q1 | median | Q3 ]----|`` scaled to a
    shared axis spanning all whiskers.
    """
    if not stats_by_key:
        raise ValueError("no statistics given")
    if width < 20:
        raise ValueError("width must be >= 20")
    lo = min(s.whisker_low for s in stats_by_key.values())
    hi = max(s.whisker_high for s in stats_by_key.values())
    if hi - lo <= 0:
        hi = lo + 1.0

    def col(value: float) -> int:
        return int(round((value - lo) / (hi - lo) * (width - 1)))

    lines: List[str] = []
    for key in sorted(stats_by_key):
        stats = stats_by_key[key]
        row = [" "] * width
        for i in range(col(stats.whisker_low), col(stats.whisker_high) + 1):
            row[i] = "-"
        for i in range(col(stats.q1), col(stats.q3) + 1):
            row[i] = "="
        row[col(stats.whisker_low)] = "|"
        row[col(stats.whisker_high)] = "|"
        row[col(stats.median)] = "#"
        label = value_format.format(key)
        lines.append(f"{label:>8} {''.join(row)}")
    lines.append(
        f"{'':>8} {'':{width}}".rstrip()
    )
    lines.append(f"{'':>9}{lo:.3g}{'':>{max(1, width - 14)}}{hi:.3g}")
    lines.append("          (| whisker, = IQR, # median)")
    return lines
