"""Minimal self-contained SVG line charts for diagnostics and error curves."""

from __future__ import annotations

import math

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _span(lo: float, hi: float) -> tuple:
    """The axis range; one within rounding of its magnitude is drawn flat, as
    [lo, lo + max(1, |lo|)], since ticks could not step through it (a width
    of 1 is lost to rounding once |lo| >= 2**53)."""
    if hi - lo <= 1e-12 * max(abs(lo), abs(hi)):
        return lo, lo + max(1.0, abs(lo))
    return lo, hi


def _ticks(lo: float, hi: float, count: int = 5):
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / count))
    for m in (1, 2, 5, 10):
        if span / (step * m) <= count:
            step *= m
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * span:
        ticks.append(t)
        t += step
    return ticks


def line_chart(series: dict, title: str = "", xlabel: str = "", ylabel: str = "",
               logy: bool = False, logx: bool = False) -> str:
    """Render named (x, y) series as one SVG document string.

    On a log axis a point with a nonpositive coordinate is left out.  Each
    series is filtered and transformed once, into the (log10) coordinates
    its polyline draws; the ticks are placed by the same mapping.
    """
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    curves = [[(math.log10(x) if logx else x, math.log10(y) if logy else y)
               for x, y in zip(xs, ys) if not ((logx and x <= 0) or (logy and y <= 0))]
              for xs, ys in series.values()]
    xs, ys = zip(*([p for curve in curves for p in curve] or [(0.0, 0.0), (1.0, 1.0)]))
    x0, x1 = _span(min(xs), max(xs))
    y0, y1 = _span(min(ys), max(ys))
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(v):
        return _ML + (v - x0) / (x1 - x0) * pw

    def py(v):
        return _MT + ph - (v - y0) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="18" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#333"/>',
    ]
    for t in _ticks(x0, x1):
        xp = px(t)
        label = f"1e{t:.0f}" if logx else f"{t:g}"
        parts.append(f'<line x1="{xp:.1f}" y1="{_MT + ph}" x2="{xp:.1f}" '
                     f'y2="{_MT + ph + 5}" stroke="#333"/>')
        parts.append(f'<text x="{xp:.1f}" y="{_MT + ph + 18}" text-anchor="middle" '
                     f'font-size="11">{label}</text>')
    for t in _ticks(y0, y1):
        yp = py(t)
        label = f"1e{t:.0f}" if logy else f"{t:g}"
        parts.append(f'<line x1="{_ML - 5}" y1="{yp:.1f}" x2="{_ML}" '
                     f'y2="{yp:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{_ML - 8}" y="{yp:.1f}" text-anchor="end" '
                     f'font-size="11">{label}</text>')
    parts.append(f'<text x="{_W / 2}" y="{_H - 8}" text-anchor="middle" '
                 f'font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{_H / 2}" text-anchor="middle" font-size="12" '
                 f'transform="rotate(-90 16 {_H / 2})">{ylabel}</text>')

    for idx, (name, curve) in enumerate(zip(series, curves)):
        color = palette[idx % len(palette)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in curve)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = _MT + 16 + 16 * idx
        parts.append(f'<line x1="{_ML + 10}" y1="{ly}" x2="{_ML + 34}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_ML + 40}" y="{ly + 4}" font-size="11">{name}</text>')

    parts.append("</svg>")
    return "\n".join(parts)
