"""Deterministic SVG charts of final regret versus batch size.

One chart per environment, one series per policy, error bars at two
standard errors.  The SVG is assembled from fixed-format strings so a
rerun with identical inputs is byte-identical; no plotting library or
external renderer is involved.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .environments import DataError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

CHART_W = 640
CHART_H = 300
MARGIN_L = 70
MARGIN_R = 150
MARGIN_T = 40
MARGIN_B = 50


@dataclass(frozen=True)
class PlotPoint:
    b: int
    mean: float
    stderr: float


def _group(points):
    """env -> policy -> points sorted by ``b``, from ``(env, policy, point)``
    triples; envs and policies keep their first-seen order."""
    groups: dict = {}
    for env, policy, point in points:
        groups.setdefault(env, {}).setdefault(policy, []).append(point)
    for series in groups.values():
        for policy, pts in series.items():
            series[policy] = sorted(pts, key=lambda p: p.b)
    return groups


def table_to_plot_data(table):
    """Group a RegretTable into env -> policy -> sorted points."""
    return _group(
        (r.env, r.policy, PlotPoint(r.b, r.mean_final, r.stderr_final))
        for r in table.rows
    )


def curves_csv_to_plot_data(path):
    """Read a long-format curves.csv and keep each cell's final point.

    Rows are ``cell,t,mean,stderr`` with a pipe-separated cell key
    ``env|policy|spec|b``; the largest ``t`` per cell is the final regret.
    Malformed rows raise ``DataError`` naming the 1-based row number.
    """
    finals: dict = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError("row 1: file is empty")
        if header != ["cell", "t", "mean", "stderr"]:
            raise DataError(f"row 1: expected header cell,t,mean,stderr, got {header}")
        for idx, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise DataError(f"row {idx}: expected 4 columns, got {len(row)}")
            parts = row[0].split("|")
            if len(parts) != 4:
                raise DataError(f"row {idx}: cell key {row[0]!r} is not env|policy|spec|b")
            env, policy, _spec, b_str = parts
            try:
                b = int(b_str)
                t = int(row[1])
                mean = float(row[2])
                stderr = float(row[3])
            except ValueError as exc:
                raise DataError(f"row {idx}: {exc}") from exc
            key = (env, policy, b)
            prev = finals.get(key)
            if prev is None or t > prev[0]:
                finals[key] = (t, mean, stderr)
    if not finals:
        raise DataError("row 2: no data rows")
    return _group(
        (env, policy, PlotPoint(b, mean, stderr))
        for (env, policy, b), (_t, mean, stderr) in finals.items()
    )


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:g}"


def render_svg(groups) -> str:
    """Render grouped plot data to an SVG document string."""
    if not groups:
        raise DataError("nothing to plot")
    n_charts = len(groups)
    total_h = n_charts * CHART_H + MARGIN_T
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CHART_W}" '
        f'height="{total_h}" font-family="sans-serif" font-size="12">',
        f'<rect width="{CHART_W}" height="{total_h}" fill="white"/>',
    ]
    for ci, (env, series) in enumerate(groups.items()):
        out.append(_render_chart(env, series, y_offset=MARGIN_T + ci * CHART_H))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _render_chart(env: str, series: dict, y_offset: int) -> str:
    bs = sorted({p.b for pts in series.values() for p in pts})
    y_max = max((p.mean + 2 * p.stderr) for pts in series.values() for p in pts)
    if y_max <= 0.0:
        y_max = 1.0
    x0, x1 = MARGIN_L, CHART_W - MARGIN_R
    y0, y1 = y_offset + CHART_H - MARGIN_B, y_offset + 20

    def x_pos(b: int) -> float:
        if len(bs) == 1:
            return (x0 + x1) / 2
        return x0 + (x1 - x0) * bs.index(b) / (len(bs) - 1)

    def y_pos(v: float) -> float:
        return y0 - (y0 - y1) * v / y_max

    parts = [
        f'<text x="{x0}" y="{y_offset + 12}" font-weight="bold">{env}</text>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) // 2}" y="{y0 + 35}" text-anchor="middle">'
        "batch size b</text>",
        f'<text x="{x0 - 55}" y="{(y0 + y1) // 2}" '
        f'transform="rotate(-90 {x0 - 55} {(y0 + y1) // 2})" '
        'text-anchor="middle">mean final regret</text>',
    ]
    for b in bs:
        xp = x_pos(b)
        parts.append(
            f'<line x1="{_fmt(xp)}" y1="{y0}" x2="{_fmt(xp)}" y2="{y0 + 4}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(xp)}" y="{y0 + 18}" text-anchor="middle">{b}</text>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = y_max * frac
        yp = y_pos(v)
        parts.append(
            f'<line x1="{x0 - 4}" y1="{_fmt(yp)}" x2="{x0}" y2="{_fmt(yp)}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{_fmt(yp + 4)}" text-anchor="end">'
            f"{_tick_label(v)}</text>"
        )
    for si, (policy, pts) in enumerate(series.items()):
        color = PALETTE[si % len(PALETTE)]
        coords = [(x_pos(p.b), y_pos(p.mean)) for p in pts]
        if len(coords) > 1:
            path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in coords)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
        for p, (xp, yp) in zip(pts, coords):
            lo = y_pos(max(0.0, p.mean - 2 * p.stderr))
            hi = y_pos(p.mean + 2 * p.stderr)
            parts.append(
                f'<line x1="{_fmt(xp)}" y1="{_fmt(lo)}" x2="{_fmt(xp)}" '
                f'y2="{_fmt(hi)}" stroke="{color}"/>'
            )
            parts.append(
                f'<circle cx="{_fmt(xp)}" cy="{_fmt(yp)}" r="3" fill="{color}"/>'
            )
        ly = y1 + 15 * si
        parts.append(
            f'<line x1="{x1 + 10}" y1="{ly}" x2="{x1 + 30}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{x1 + 35}" y="{ly + 4}">{policy}</text>')
    return "\n".join(parts)


def write_plot_svg(groups, path) -> None:
    with open(path, "w") as fh:
        fh.write(render_svg(groups))
