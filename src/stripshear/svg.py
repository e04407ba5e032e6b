"""Minimal deterministic SVG line plots (no plotting dependency).

Only what the CLI artifacts need: a framed axes box, a linear or log10
x scale, tick labels, legended polylines.  Output is a plain string built
in a fixed order so identical inputs give byte-identical files.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["render_line_plot"]

_WIDTH, _HEIGHT = 640.0, 480.0
_LEFT, _RIGHT, _TOP, _BOTTOM = 72.0, 24.0, 42.0, 58.0
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _transform(v: np.ndarray, log: bool) -> np.ndarray:
    return np.log10(v) if log else v


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    """Five evenly spaced ticks in scale coordinates, decades when log."""
    if log:
        d0, d1 = math.ceil(lo - 1e-9), math.floor(hi + 1e-9)
        if d1 - d0 >= 1:
            step = max(1, (d1 - d0) // 4)
            return [float(d) for d in range(d0, d1 + 1, step)]
    return [lo + k * (hi - lo) / 4.0 for k in range(5)]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def render_line_plot(
    series: Sequence[tuple[str, np.ndarray, np.ndarray]],
    title: str,
    xlabel: str,
    ylabel: str,
    logx: bool = False,
    dashed: Sequence[str] = (),
) -> str:
    """Render (label, x, y) series to an SVG document string.

    Non-finite points (and non-positive x on a log axis) are dropped per
    series before plotting.
    """
    cleaned = []
    for label, x, y in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        if logx:
            keep &= x > 0.0
        if np.any(keep):
            cleaned.append((label, x[keep], y[keep]))
    if not cleaned:
        raise ValueError("no finite data to plot")

    tx = [_transform(x, logx) for _, x, _ in cleaned]
    x_lo = min(float(np.min(v)) for v in tx)
    x_hi = max(float(np.max(v)) for v in tx)
    y_lo = min(float(np.min(y)) for _, _, y in cleaned)
    y_hi = max(float(np.max(y)) for _, _, y in cleaned)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_y = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    px0, px1 = _LEFT, _WIDTH - _RIGHT
    py0, py1 = _HEIGHT - _BOTTOM, _TOP

    def to_px(vx: np.ndarray, vy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        fx = (vx - x_lo) / (x_hi - x_lo)
        fy = (vy - y_lo) / (y_hi - y_lo)
        return px0 + fx * (px1 - px0), py0 + fy * (py1 - py0)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}" '
        f'font-family="sans-serif" font-size="13">',
        f'<rect x="0" y="0" width="{_WIDTH:g}" height="{_HEIGHT:g}" fill="white"/>',
        f'<rect x="{px0:g}" y="{py1:g}" width="{px1 - px0:g}" height="{py0 - py1:g}" '
        f'fill="none" stroke="black"/>',
        f'<text x="{(px0 + px1) / 2:.2f}" y="24" text-anchor="middle" '
        f'font-size="16">{title}</text>',
        f'<text x="{(px0 + px1) / 2:.2f}" y="{_HEIGHT - 12:.2f}" '
        f'text-anchor="middle">{xlabel}</text>',
        f'<text x="20" y="{(py0 + py1) / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {(py0 + py1) / 2:.2f})">{ylabel}</text>',
    ]

    for t in _ticks(x_lo, x_hi, logx):
        px, _ = to_px(np.array([t]), np.array([y_lo]))
        label = _fmt(10.0**t) if logx else _fmt(t)
        out.append(
            f'<line x1="{px[0]:.2f}" y1="{py0:.2f}" x2="{px[0]:.2f}" '
            f'y2="{py0 + 5:.2f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{px[0]:.2f}" y="{py0 + 20:.2f}" text-anchor="middle">{label}</text>'
        )
    for t in _ticks(y_lo, y_hi, False):
        _, py = to_px(np.array([x_lo]), np.array([t]))
        label = _fmt(t)
        out.append(
            f'<line x1="{px0 - 5:.2f}" y1="{py[0]:.2f}" x2="{px0:.2f}" '
            f'y2="{py[0]:.2f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{px0 - 8:.2f}" y="{py[0] + 4:.2f}" text-anchor="end">{label}</text>'
        )

    for k, (label, x, y) in enumerate(cleaned):
        px, py = to_px(_transform(x, logx), y)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        color = _PALETTE[k % len(_PALETTE)]
        dash = ' stroke-dasharray="6,4"' if label in dashed else ""
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"{dash}/>'
        )
        ly = py1 + 16 + 18 * k
        out.append(
            f'<line x1="{px1 - 150:.2f}" y1="{ly:.2f}" x2="{px1 - 126:.2f}" '
            f'y2="{ly:.2f}" stroke="{color}" stroke-width="1.5"{dash}/>'
        )
        out.append(f'<text x="{px1 - 120:.2f}" y="{ly + 4:.2f}">{label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
