"""Minimal static SVG renderings of step curves and smooth overlays."""

from __future__ import annotations

import numpy as np

from .nonparametric import StepCurve

_WIDTH, _HEIGHT, _MARGIN = 640, 400, 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def _step_polyline(curve: StepCurve, t_max: float):
    """Vertex list tracing the right-continuous step path from 0 to t_max."""
    xs, ys = [0.0], [curve.initial_value]
    for t, v in zip(curve.times, curve.values):
        if t > t_max:
            break
        xs.extend([t, t])
        ys.extend([ys[-1], v])
    xs.append(t_max)
    ys.append(ys[-1])
    return np.array(xs), np.array(ys)


def render_curves(path, curves: dict) -> None:
    """Write labelled curves to one SVG; values are (StepCurve | (x, y) arrays).
    The time axis ends at the last time of any curve."""
    series = []
    for label, item in curves.items():
        if isinstance(item, StepCurve):
            series.append((label, item, None))
        else:
            x, y = item
            series.append((label, None, (np.asarray(x, float), np.asarray(y, float))))
    spans = [c.times[-1] if c is not None and c.times.size else 0.0 for _, c, _ in series]
    spans += [xy[0][-1] for _, _, xy in series if xy is not None and xy[0].size]
    t_max = max(max(spans) if spans else 1.0, 1e-12)
    polylines = []
    y_top = 1.0
    for label, curve, xy in series:
        x, y = _step_polyline(curve, t_max) if curve is not None else xy
        polylines.append((label, x, y))
        if y.size:
            y_top = max(y_top, float(np.max(y[np.isfinite(y)], initial=0.0)))

    def sx(x):
        return _MARGIN + (x / t_max) * (_WIDTH - 2 * _MARGIN)

    def sy(y):
        return _HEIGHT - _MARGIN - (y / y_top) * (_HEIGHT - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 12}" font-size="12" '
        f'text-anchor="middle">time (max {t_max:.4g})</text>',
    ]
    for k, (label, x, y) in enumerate(polylines):
        finite = np.isfinite(x) & np.isfinite(y)
        points = " ".join(
            f"{sx(xi):.2f},{sy(yi):.2f}" for xi, yi in zip(x[finite], y[finite])
        )
        color = _COLORS[k % len(_COLORS)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        # the label is text content, so only &, < and > need escaping
        text = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{_WIDTH - _MARGIN - 4}" y="{_MARGIN + 16 * (k + 1)}" '
            f'font-size="12" text-anchor="end" fill="{color}">{text}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
