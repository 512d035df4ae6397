"""Minimal SVG rendering of trajectory CSVs.

Hand-rolled on purpose: the output bytes are a pure function of the input
data (no timestamps, ids, or library version strings), so plots can be
diffed and golden-tested. Three panels: planar path, states against time,
controls against time.

It computes on plain floats, point by point, so it imports no numpy: a
`plot` process never loads it.
"""

import math

from gradflow.simulator import replacing

PANEL_W = 420.0
PANEL_H = 420.0
MARGIN = 52.0
GAP = 26.0

STATE_STYLES = (("x1 (m)", "#1f77b4"), ("x2 (m)", "#d62728"), ("x3 (rad)", "#2ca02c"))
CONTROL_STYLES = (("u1 (m/s)", "#1f77b4"), ("u2 (rad/s)", "#d62728"))

# keep SVGs a sane size for long runs; rendering-only, the data is not touched
MAX_POLYLINE_POINTS = 4000


def _fmt(v: float) -> str:
    return format(float(v), ".6g")


def _limits(values) -> tuple[float, float]:
    lo, hi = float(min(values)), float(max(values))
    if lo == hi:
        # 1 either side; past 2^53, where 1 rounds away, one ulp, so that
        # the panel still has a width to divide by
        lo -= max(1.0, math.ulp(lo))
        hi += max(1.0, math.ulp(hi))
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _decimate(n: int) -> list[int]:
    """Every ceil(n / MAX_POLYLINE_POINTS)-th row index, and the last."""
    idx = list(range(0, n, -(-n // MAX_POLYLINE_POINTS)))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return idx


class _Panel:
    def __init__(self, x0: float, xlim, ylim, title: str, xlabel: str, ylabel: str):
        self.x0 = x0
        self.xlim = xlim
        self.ylim = ylim
        self.parts = ['<g class="panel">']
        self.parts.append(
            f'<rect x="{_fmt(x0 + MARGIN)}" y="{_fmt(MARGIN)}" '
            f'width="{_fmt(PANEL_W - 2 * MARGIN)}" height="{_fmt(PANEL_H - 2 * MARGIN)}" '
            f'fill="none" stroke="#333" stroke-width="1"/>'
        )
        cx = x0 + PANEL_W / 2
        self.parts.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(MARGIN - 16)}" text-anchor="middle" '
            f'font-size="15" font-family="sans-serif">{title}</text>'
        )
        self.parts.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(PANEL_H - 10)}" text-anchor="middle" '
            f'font-size="13" font-family="sans-serif">{xlabel}</text>'
        )
        self.parts.append(
            f'<text x="{_fmt(x0 + 14)}" y="{_fmt(PANEL_H / 2)}" text-anchor="middle" '
            f'font-size="13" font-family="sans-serif" '
            f'transform="rotate(-90 {_fmt(x0 + 14)} {_fmt(PANEL_H / 2)})">{ylabel}</text>'
        )
        for val, anchor, px, py in (
            (self.xlim[0], "start", x0 + MARGIN, PANEL_H - MARGIN + 16),
            (self.xlim[1], "end", x0 + PANEL_W - MARGIN, PANEL_H - MARGIN + 16),
        ):
            self.parts.append(
                f'<text x="{_fmt(px)}" y="{_fmt(py)}" text-anchor="{anchor}" '
                f'font-size="11" font-family="sans-serif">{_fmt(val)}</text>'
            )
        for val, py in ((self.ylim[0], PANEL_H - MARGIN), (self.ylim[1], MARGIN + 4)):
            self.parts.append(
                f'<text x="{_fmt(x0 + MARGIN - 4)}" y="{_fmt(py)}" text-anchor="end" '
                f'font-size="11" font-family="sans-serif">{_fmt(val)}</text>'
            )

    def _map(self, xs, ys) -> list[float]:
        """The points (xs[i], ys[i]) in SVG coordinates, x and y interleaved."""
        x0, x1 = self.xlim
        y0, y1 = self.ylim
        points = []
        for x, y in zip(xs, ys):
            points.append(self.x0 + MARGIN + (x - x0) / (x1 - x0) * (PANEL_W - 2 * MARGIN))
            points.append(PANEL_H - MARGIN - (y - y0) / (y1 - y0) * (PANEL_H - 2 * MARGIN))
        return points

    def polyline(self, xs, ys, color: str):
        points = self._map(xs, ys)
        # "%.6g" writes what _fmt does, in one operation for the whole line
        pts = " ".join(["%.6g,%.6g"] * (len(points) // 2)) % tuple(points)
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>'
        )

    def legend(self, entries):
        lx = self.x0 + MARGIN + 8
        for i, (label, color) in enumerate(entries):
            ly = MARGIN + 14 + 16 * i
            self.parts.append(
                f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 18)}" '
                f'y2="{_fmt(ly - 4)}" stroke="{color}" stroke-width="2"/>'
            )
            self.parts.append(
                f'<text x="{_fmt(lx + 23)}" y="{_fmt(ly)}" font-size="11" '
                f'font-family="sans-serif">{label}</text>'
            )

    def close(self) -> str:
        self.parts.append("</g>")
        return "\n".join(self.parts)


def render_trajectory_svg(data, path) -> None:
    """Render trajectory data (simulator column layout) to an SVG file.

    data is a 2-D float64 memoryview, as `load_trajectory_csv` returns, or an
    ndarray; either is read element by element. The file is written through
    `simulator.replacing`, so a failed render leaves an existing `path` as
    it was.
    """
    if data.ndim != 2 or data.shape[1] < 6 or data.shape[0] < 1:
        raise ValueError("trajectory data must have rows and at least 6 columns")
    idx = _decimate(data.shape[0])
    t, x1, x2, x3, u1, u2 = ([data[i, j] for i in idx] for j in range(6))

    width = 3 * PANEL_W + 2 * GAP
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(PANEL_H)}" viewBox="0 0 {_fmt(width)} {_fmt(PANEL_H)}">',
        f'<rect width="{_fmt(width)}" height="{_fmt(PANEL_H)}" fill="#ffffff"/>',
    ]

    p1 = _Panel(0.0, _limits(x1), _limits(x2), "planar path", "x1 (m)", "x2 (m)")
    p1.polyline(x1, x2, "#1f77b4")
    parts.append(p1.close())

    tlim = _limits(t)
    p2 = _Panel(PANEL_W + GAP, tlim, _limits(x1 + x2 + x3), "states", "t (s)", "state")
    for (_, color), ys in zip(STATE_STYLES, (x1, x2, x3)):
        p2.polyline(t, ys, color)
    p2.legend(STATE_STYLES)
    parts.append(p2.close())

    p3 = _Panel(2 * (PANEL_W + GAP), tlim, _limits(u1 + u2), "controls", "t (s)", "control")
    for (_, color), ys in zip(CONTROL_STYLES, (u1, u2)):
        p3.polyline(t, ys, color)
    p3.legend(CONTROL_STYLES)
    parts.append(p3.close())

    parts.append("</svg>")
    with replacing(path) as f:
        f.write(("\n".join(parts) + "\n").encode())
