"""Plain-text rendering of figure results (the benchmark harness's output)."""

from __future__ import annotations

from typing import List

from .results import FigureResult

__all__ = ["format_curves", "format_rows", "format_figure"]


def format_curves(result: FigureResult) -> str:
    """Render accuracy curves as an aligned text table, one row per round."""
    if not result.curves:
        return "(no curves)"
    labels = [curve.label for curve in result.curves]
    rounds = result.curves[0].rounds
    header = ["round"] + labels
    lines = ["  ".join(f"{h:>14s}" for h in header)]
    for index, round_index in enumerate(rounds):
        cells = [f"{round_index:>14d}"]
        for curve in result.curves:
            if index < len(curve.accuracies):
                cells.append(f"{curve.accuracies[index]:>14.3f}")
            else:
                cells.append(f"{'-':>14s}")
        lines.append("  ".join(cells))
    finals = "  ".join(
        f"{curve.label}={curve.final_accuracy:.3f}" for curve in result.curves
    )
    lines.append(f"final: {finals}")
    return "\n".join(lines)


def format_rows(result: FigureResult) -> str:
    """Render row-style results (Fig. 4, comm cost, ablations) as a table:
    one column per scalar field of the first row."""
    if not result.rows:
        return "(no rows)"
    keys: List[str] = [
        key for key in result.rows[0] if not isinstance(result.rows[0][key],
                                                        (list, dict))
    ]
    lines = ["  ".join(f"{key:>22s}" for key in keys)]
    for row in result.rows:
        cells = []
        for key in keys:
            value = row.get(key, "")
            if isinstance(value, float):
                cells.append(f"{value:>22.4g}")
            else:
                cells.append(f"{str(value):>22s}")
        lines.append("  ".join(cells))
    return "\n".join(lines)


def format_figure(result: FigureResult) -> str:
    """Full text report for one reproduced figure."""
    parts = [f"=== {result.figure_id} ===",
             f"params: {result.params}"]
    if result.curves:
        parts.append(format_curves(result))
    if result.rows:
        parts.append(format_rows(result))
    if result.notes:
        parts.append(f"note: {result.notes}")
    return "\n".join(parts)
