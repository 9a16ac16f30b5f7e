"""Minimal static SVG line charts (no plotting dependency, deterministic)."""

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")
#: chart width and height in pixels, most points drawn per series (a longer
#: series is strided down to it) and grid lines per axis
_WIDTH, _HEIGHT, _MAX_POINTS, _TICKS = 920, 360, 2000, 6


def _ticks(lo, hi):
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, _TICKS)


def _fmt(v):
    return f"{v:.4g}"


def line_chart(path, t, series, title="", y_label=""):
    """Write a polyline chart of ``series`` (label -> 1-D array) vs time
    ``t`` in seconds."""
    t = np.asarray(t, dtype=float)
    items = list(series.items())
    stride = max(1, int(np.ceil(t.size / _MAX_POINTS)))
    tt = t[::stride]
    data = [(label, np.asarray(y, dtype=float).ravel()[::stride])
            for label, y in items]
    y_lo = min((y.min() for _, y in data if y.size), default=0.0)
    y_hi = max((y.max() for _, y in data if y.size), default=1.0)
    pad = 0.05 * max(y_hi - y_lo, 1e-12)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    x_lo, x_hi = float(tt[0]), float(tt[-1]) if tt.size > 1 else \
        (float(tt[0]) + 1.0)
    ml, mr, mt, mb = 70, 160, 34, 44
    pw, ph = _WIDTH - ml - mr, _HEIGHT - mt - mb

    def sx(x):
        return ml + pw * (x - x_lo) / max(x_hi - x_lo, 1e-300)

    def sy(y):
        return mt + ph * (1.0 - (y - y_lo) / max(y_hi - y_lo, 1e-300))

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
           f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
           f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
           f'<text x="{ml}" y="20" font-family="monospace" font-size="13" '
           f'fill="#333">{title}</text>']
    # axes and grid
    for xv in _ticks(x_lo, x_hi):
        xs = sx(xv)
        out.append(f'<line x1="{xs:.1f}" y1="{mt}" x2="{xs:.1f}" '
                   f'y2="{mt + ph}" stroke="#ddd" stroke-width="1"/>')
        out.append(f'<text x="{xs:.1f}" y="{mt + ph + 16}" '
                   f'font-family="monospace" font-size="10" fill="#555" '
                   f'text-anchor="middle">{_fmt(xv)}</text>')
    for yv in _ticks(y_lo, y_hi):
        ys = sy(yv)
        out.append(f'<line x1="{ml}" y1="{ys:.1f}" x2="{ml + pw}" '
                   f'y2="{ys:.1f}" stroke="#ddd" stroke-width="1"/>')
        out.append(f'<text x="{ml - 6}" y="{ys + 3:.1f}" '
                   f'font-family="monospace" font-size="10" fill="#555" '
                   f'text-anchor="end">{_fmt(yv)}</text>')
    out.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
               f'fill="none" stroke="#333" stroke-width="1"/>')
    out.append(f'<text x="{ml + pw / 2:.1f}" y="{_HEIGHT - 8}" '
               f'font-family="monospace" font-size="11" fill="#333" '
               f'text-anchor="middle">t [s]</text>')
    if y_label:
        out.append(f'<text x="16" y="{mt + ph / 2:.1f}" '
                   f'font-family="monospace" font-size="11" fill="#333" '
                   f'text-anchor="middle" '
                   f'transform="rotate(-90 16 {mt + ph / 2:.1f})">'
                   f'{y_label}</text>')
    xs = sx(tt)
    for k, (label, y) in enumerate(data):
        color = _PALETTE[k % len(_PALETTE)]
        # whole-array scaling, then one template over plain floats: the
        # same numbers and digits as formatting point by point
        m = min(xs.size, y.size)
        xy = np.column_stack([xs[:m], sy(y[:m])]).ravel().tolist()
        pts = " ".join(["%.2f,%.2f"] * m) % tuple(xy)
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.3"/>')
        ly = mt + 14 + 16 * k
        out.append(f'<line x1="{ml + pw + 10}" y1="{ly - 4}" '
                   f'x2="{ml + pw + 30}" y2="{ly - 4}" stroke="{color}" '
                   f'stroke-width="2"/>')
        out.append(f'<text x="{ml + pw + 34}" y="{ly}" '
                   f'font-family="monospace" font-size="10" fill="#333">'
                   f'{label}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
    return path
