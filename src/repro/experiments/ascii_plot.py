"""Terminal line charts for experiment output (no plotting dependencies).

Renders accuracy curves as fixed-width character grids so the CLI and
examples can show training dynamics directly in a terminal or log file.
"""

from __future__ import annotations

from typing import Dict, List

from ..common.errors import ConfigurationError

__all__ = ["ascii_curves"]

_MARKERS = "ox+*#@%&"


def _scale(value: float, low: float, high: float, size: int) -> int:
    if high <= low:
        return 0
    position = (value - low) / (high - low)
    return min(int(position * (size - 1) + 0.5), size - 1)


def ascii_curves(series: Dict[str, "tuple[List[float], List[float]]"], *,
                 width: int = 60, height: int = 12,
                 y_min: float = None, y_max: float = None) -> str:
    """Render several ``label -> (xs, ys)`` series on one shared grid.

    Each series gets its own marker; the legend maps markers to labels.
    Axes are annotated with the data ranges.
    """
    if not series:
        raise ConfigurationError("need at least one series")
    if width < 10 or height < 4:
        raise ConfigurationError(
            f"grid too small: width={width}, height={height}"
        )
    if len(series) > len(_MARKERS):
        raise ConfigurationError(
            f"at most {len(_MARKERS)} series supported, got {len(series)}"
        )
    all_xs = [x for xs, _ in series.values() for x in xs]
    all_ys = [y for _, ys in series.values() for y in ys]
    if not all_xs:
        raise ConfigurationError("series contain no points")
    for label, (xs, ys) in series.items():
        if len(xs) != len(ys):
            raise ConfigurationError(
                f"series {label!r}: {len(xs)} x values but {len(ys)} y values"
            )
    x_low, x_high = min(all_xs), max(all_xs)
    y_low = y_min if y_min is not None else min(all_ys)
    y_high = y_max if y_max is not None else max(all_ys)
    if y_high == y_low:
        y_high = y_low + 1.0

    grid = [[" "] * width for _ in range(height)]
    for marker, (label, (xs, ys)) in zip(_MARKERS, series.items()):
        for x, y in zip(xs, ys):
            column = _scale(x, x_low, x_high, width)
            row = height - 1 - _scale(
                min(max(y, y_low), y_high), y_low, y_high, height
            )
            grid[row][column] = marker

    lines = []
    for index, row in enumerate(grid):
        if index == 0:
            axis_label = f"{y_high:8.3f} |"
        elif index == height - 1:
            axis_label = f"{y_low:8.3f} |"
        else:
            axis_label = "         |"
        lines.append(axis_label + "".join(row))
    lines.append("         +" + "-" * width)
    lines.append(f"          {x_low:<10.4g}"
                 + " " * max(width - 22, 1)
                 + f"{x_high:>10.4g}")
    legend = "   ".join(
        f"{marker}={label}" for marker, label in zip(_MARKERS, series)
    )
    lines.append(f"          {legend}")
    return "\n".join(lines)
