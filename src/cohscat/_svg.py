"""Tiny dependency-free SVG line/scatter renderer for the CLI outputs.

These plots are convenience artifacts: the CSV files carry the data of
record. Axes are linear with simple min/max framing. Pixel coordinates are
written with one decimal place, points with a non-finite x or y are
dropped, and series take their colours in the order given.

Point coordinates go through `_text.pixels`: the text is
``format(v, ".1f")`` of each pixel value, byte for byte. Non-finite pixels,
|v| >= 1e5 and values within 1e-9 of an inexact .x5 tie take Python's
formatter itself.
"""

from __future__ import annotations

import math

import numpy as np

from . import _text

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 55
_TICKS = 6  # target number of tick intervals per axis


def _ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / _TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    # on a subnormal span mag can underflow to 0; raw itself is then the step
    step = min((s * mag for s in (1, 2, 5, 10) if s * mag >= raw), default=raw)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        if t + step == t:  # a step below half an ulp of t never gets to hi
            break
        t += step
    return ticks


def render_lines(path, series, title="", xlabel="", ylabel="", scatter=False):
    """Write an SVG plot of {label: (x, y)} series.

    Each series becomes one polyline (or, with scatter, one circle per
    point) in the i-th colour of a fixed palette, plus a legend entry.
    Coordinates are pixels to one decimal place; points whose x or y is
    not finite are left out, and the axis ranges come from the finite
    values alone.
    """
    xs = np.concatenate([np.asarray(x, float) for x, _ in series.values()])
    ys = np.concatenate([np.asarray(y, float) for _, y in series.values()])
    xs = xs[np.isfinite(xs)]
    ys = ys[np.isfinite(ys)]
    x_lo, x_hi = (float(xs.min()), float(xs.max())) if len(xs) else (0.0, 1.0)
    y_lo, y_hi = (float(ys.min()), float(ys.max())) if len(ys) else (0.0, 1.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
    ]
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(t):.1f}" y1="{_H - _MB}" x2="{px(t):.1f}" y2="{_H - _MB + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(t):.1f}" y="{_H - _MB + 18}" text-anchor="middle">{t:g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_ML - 5}" y1="{py(t):.1f}" x2="{_ML}" y2="{py(t):.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{py(t) + 4:.1f}" text-anchor="end">{t:g}</text>'
        )
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="black"/>'
    )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 14}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(_MT + _H - _MB) / 2:.1f})">{ylabel}</text>'
    )
    for i, (label, (x, y)) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        ok = np.isfinite(x) & np.isfinite(y)
        cx, cy = _text.pixels(px(x[ok])), _text.pixels(py(y[ok]))
        if scatter:
            if ok.any():
                circle = f'" r="2" fill="{color}"/>\n'.encode()
                parts.append(_text.rows([b'<circle cx="', cx, b'" cy="', cy, circle])[:-1])
        else:
            pts = _text.rows([cx, b",", cy, b" "])[:-1]
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_W - 170}" y1="{ly - 4}" x2="{_W - 146}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_W - 140}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
