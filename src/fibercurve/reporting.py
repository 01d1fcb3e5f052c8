"""Serialization of traced curves: CSV table, JSON report, SVG diagram.

Everything here is deterministic for a fixed input: JSON is dumped with
sorted keys and fixed indentation, floats go through repr (shortest
round-trip form), and the SVG carries no timestamps.  Wall-clock timings are
isolated under the single top-level report key "timing_seconds" so byte
comparison of two runs only has to ignore that subtree.
"""

from __future__ import annotations

import json
import math
from typing import Mapping, Sequence

import numpy as np

from .curve_tracer import EnergyCurve

__all__ = [
    "CSV_COLUMNS",
    "build_report",
    "curve_rows",
    "render_diagram_svg",
    "write_curves_csv",
    "write_diagram_svg",
    "write_report_json",
]

CSV_COLUMNS = (
    "branch",
    "k",
    "c",
    "lambda",
    "t_root",
    "residual_grad",
    "energy_defect",
    "converged",
    "flags",
)


def curve_rows(curves: Sequence[EnergyCurve]) -> list[dict]:
    """One dict per curve point: the CSV_COLUMNS, and the descents the
    point's multistart ran and merged (starts, merged_starts; 0 for
    surrogates), which only the JSON report carries.  flags is derived:
    "surrogate" for k >= 2, "not_converged" for an unconverged ground
    level, empty otherwise."""
    rows = []
    for curve in curves:
        for p in curve.points:
            rows.append(
                {
                    "branch": p.branch,
                    "k": p.k,
                    "c": p.c,
                    "lambda": p.lam,
                    "t_root": p.t_root,
                    "residual_grad": p.residual_grad,
                    "energy_defect": p.energy_defect,
                    "converged": p.converged,
                    "flags": "surrogate" if p.k >= 2 else "" if p.converged else "not_converged",
                    "starts": p.starts,
                    "merged_starts": p.merged_starts,
                }
            )
    return rows


def _cell(value) -> str:
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, (float, np.floating)):
        # repr of a numpy scalar names its type under numpy 2 (np.float64(0.5))
        return repr(float(value))
    return str(value)


def write_curves_csv(path, curves: Sequence[EnergyCurve]) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for row in curve_rows(curves):
        lines.append(",".join(_cell(row[col]) for col in CSV_COLUMNS))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _sanitize(obj):
    """Make an object JSON-serializable and strictly-valid (no NaN literals)."""
    if isinstance(obj, Mapping):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def build_report(
    config: Mapping,
    curves: Sequence[EnergyCurve] = (),
    thresholds: Mapping | None = None,
    verdicts: Mapping | None = None,
    extras: Mapping | None = None,
    timing_seconds: Mapping | None = None,
) -> dict:
    """Assemble the run report; curve points inline the CSV fields and the
    multistart counts (curve_rows).  The dict is not strict JSON: it can hold
    numpy arrays, non-finite floats and non-str keys, which write_report_json
    converts when it writes the report."""
    curve_block = {}
    for curve in curves:
        key = f"{curve.branch}_k{curve.k}"
        curve_block[key] = {
            "branch": curve.branch,
            "k": curve.k,
            "points": curve_rows([curve]),
            "verdicts": dict(curve.verdicts),
            "truncation_reason": curve.truncation_reason,
        }
    report = {
        "config": dict(config),
        "curves": curve_block,
        "thresholds": dict(thresholds or {}),
        "verdicts": dict(verdicts or {}),
        "timing_seconds": dict(timing_seconds or {}),
    }
    if extras:
        report.update(extras)
    return report


def write_report_json(path, report: Mapping) -> None:
    """Write the report as strict JSON: arrays as lists, non-finite floats as
    their repr strings."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_sanitize(report), fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# SVG diagram


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_SVG_SIZE = (640, 480)
_SVG_TITLE = "level curves"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _axis_range(values: list[float]) -> tuple[float, float]:
    """The drawn range of one axis: the values' span, padded by 6% at each
    end.  A span below 1e-12 is first widened at each end by 1, or by
    |value| 2**-50 (at least 4 spacings of the doubles) where that is
    larger, so that the axis ticks differ."""
    lo, hi = min(values), max(values)
    if hi - lo < 1e-12:
        widen = max(1.0, abs(lo) * 2.0**-50)
        lo, hi = lo - widen, hi + widen
    pad = 0.06 * (hi - lo)
    return lo - pad, hi + pad


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def render_diagram_svg(
    curves: Sequence[EnergyCurve],
    c_star: float | None = None,
    c_star_star: float | None = None,
) -> str:
    """Draw lambda (horizontal) against c (vertical) for every traced curve.

    Thresholds appear as dashed horizontal lines with labels; each (branch, k)
    curve gets its own color, point markers, and a legend entry.
    """
    lams: list[float] = []
    cs: list[float] = []
    for curve in curves:
        for p in curve.points:
            lams.append(p.lam)
            cs.append(p.c)
    for threshold in (c_star, c_star_star):
        if threshold is not None:
            cs.append(float(threshold))
    if not lams:
        lams = [0.0, 1.0]
    if not cs:
        cs = [0.0, 1.0]

    lam_lo, lam_hi = _axis_range(lams)
    c_lo, c_hi = _axis_range(cs)

    width, height = _SVG_SIZE
    ml, mr, mt, mb = 74, 20, 34, 52
    pw, ph = width - ml - mr, height - mt - mb

    def sx(lam: float) -> float:
        return ml + (lam - lam_lo) / (lam_hi - lam_lo) * pw

    def sy(c: float) -> float:
        return mt + (c_hi - c) / (c_hi - c_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml + pw / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_SVG_TITLE}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#333" stroke-width="1"/>',
    ]

    for tick in _ticks(lam_lo, lam_hi):
        x = sx(tick)
        out.append(
            f'<line x1="{x:.2f}" y1="{mt + ph}" x2="{x:.2f}" y2="{mt + ph + 5}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{mt + ph + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
    for tick in _ticks(c_lo, c_hi):
        y = sy(tick)
        out.append(f'<line x1="{ml - 5}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" stroke="#333"/>')
        out.append(
            f'<text x="{ml - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
    out.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">lambda</text>'
    )
    out.append(
        f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {mt + ph / 2:.1f})">c</text>'
    )

    for label, threshold in (("c*", c_star), ("c**", c_star_star)):
        if threshold is None:
            continue
        y = sy(float(threshold))
        out.append(
            f'<line x1="{ml}" y1="{y:.2f}" x2="{ml + pw}" y2="{y:.2f}" '
            f'stroke="#777" stroke-width="1" stroke-dasharray="6 4"/>'
        )
        out.append(
            f'<text x="{ml + pw - 4}" y="{y - 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="#555">{label}</text>'
        )

    legend_y = mt + 14
    for i, curve in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(p.lam):.2f},{sy(p.c):.2f}" for p in curve.points)
        if pts:
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>'
            )
        for p in curve.points:
            out.append(
                f'<circle cx="{sx(p.lam):.2f}" cy="{sy(p.c):.2f}" r="2.5" fill="{color}"/>'
            )
        label = f"{curve.branch} k={curve.k}"
        out.append(
            f'<line x1="{ml + pw - 120}" y1="{legend_y - 4}" x2="{ml + pw - 100}" '
            f'y2="{legend_y - 4}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{ml + pw - 94}" y="{legend_y}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
        legend_y += 16

    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_diagram_svg(path, curves, c_star=None, c_star_star=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_diagram_svg(curves, c_star=c_star, c_star_star=c_star_star))
