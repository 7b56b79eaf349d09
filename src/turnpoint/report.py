"""Report emission: aggregate CSV, per-metric SVG curves, and a summary
with the turning-point readout per category."""

from __future__ import annotations

import os

from .harness import METRIC_FIELDS, AggregateRow, CsvRows
from .svgchart import line_chart

__all__ = ["PLOT_METRICS", "TURNING_THRESHOLD", "turning_point", "emit_report"]

PLOT_METRICS = ("ta1", "ta2", "ta_mean", "ic", "bc", "occupancy2")
TURNING_THRESHOLD = 0.9

AGGREGATES_CSV_COLUMNS = ("mode", "category", "x", "setting", "n") + tuple(
    f"{m}_{suffix}" for m in METRIC_FIELDS for suffix in ("mean", "std")
)


def turning_point(points: list[tuple[float, float]]) -> float | None:
    """Largest grid ratio whose mean stays within :data:`TURNING_THRESHOLD`
    of the value at the smallest ratio (the pure-second-event control).

    ``points`` holds (x, mean) pairs; returns None when fewer than two
    ratios are present.
    """
    if len(points) < 2:
        return None
    points = sorted(points)
    reference = points[0][1]
    kept = [x for x, mean in points if mean >= TURNING_THRESHOLD * reference]
    return max(kept) if kept else points[0][0]


def _write_aggregates_csv(aggregates: list[AggregateRow], path: str) -> None:
    rows = CsvRows()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows.header(AGGREGATES_CSV_COLUMNS))
        fh.writelines(map(rows.aggregate_line, aggregates))


def _series_label(category: str, setting: int | None) -> str:
    return category if setting is None else f"{category} / setting {setting}"


def _points(rows: list[AggregateRow], metric: str) -> list[tuple[float, float]]:
    """The (x, mean) points of ``metric`` on the curve of ``rows``."""
    return [(row.x, row.stats[metric][0]) for row in rows if row.stats.get(metric) is not None]


def emit_report(aggregates: list[AggregateRow], out_dir: str) -> None:
    """Write ``aggregates.csv``, one SVG per (metric, mode), and
    ``summary.md`` into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    aggregates = list(aggregates)
    _write_aggregates_csv(aggregates, os.path.join(out_dir, "aggregates.csv"))

    summary = ["# Sweep summary", ""]
    if not aggregates:
        summary.append("No data: the sweep produced no successful runs.")

    # each mode's curves: the rows of one (category, setting), in row order
    modes: dict[str, dict[tuple, list[AggregateRow]]] = {}
    for row in aggregates:
        modes.setdefault(row.mode, {}).setdefault((row.category, row.setting), []).append(row)
    for mode in sorted(modes):
        curves = modes[mode]
        curve_keys = sorted(curves, key=lambda k: (k[0], k[1] if k[1] is not None else -1))
        for metric in PLOT_METRICS:
            series = []
            for category, setting in curve_keys:
                pts = _points(curves[category, setting], metric)
                if pts:
                    series.append((_series_label(category, setting), sorted(pts)))
            if not series:
                continue
            svg = line_chart(f"{metric} vs split ratio ({mode})", series,
                             x_label="split ratio x", y_label=metric, y_range=(0.0, 1.05))
            with open(
                os.path.join(out_dir, f"{metric}_{mode}.svg"), "w", encoding="utf-8"
            ) as fh:
                fh.write(svg)

        summary.append(f"## Mode: {mode}")
        summary.append("")
        summary.append(
            f"Turning point = largest ratio x whose mean ta2 stays within "
            f"{TURNING_THRESHOLD:.0%} of its value at the smallest ratio."
        )
        summary.append("")
        summary.append("| category | setting | runs | turning point (ta2) |")
        summary.append("| --- | --- | --- | --- |")
        for category, setting in curve_keys:
            rows = curves[category, setting]
            n_runs = sum(row.n for row in rows)
            tp = turning_point(_points(rows, "ta2"))
            tp_text = "n/a" if tp is None else f"{tp:g}"
            setting_text = "-" if setting is None else str(setting)
            summary.append(
                f"| {category} | {setting_text} | {n_runs} | {tp_text} |"
            )
        summary.append("")

    with open(os.path.join(out_dir, "summary.md"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(summary) + "\n")
