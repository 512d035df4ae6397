"""Minimal SVG rendering of trajectory CSVs.

Hand-rolled on purpose: the output bytes are a pure function of the input
data (no timestamps, ids, or library version strings), so plots can be
diffed and golden-tested. Three panels: planar path, states against time,
controls against time.

numpy is imported by the functions that use it, when they run.
"""

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


def _limits(arr) -> tuple[float, float]:
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        lo -= 1.0
        hi += 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _decimate(n: int):
    import numpy as np

    if n <= MAX_POLYLINE_POINTS:
        return np.arange(n)
    idx = np.arange(0, n, int(np.ceil(n / MAX_POLYLINE_POINTS)))
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
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

    def _map(self, xs, ys):
        x0, x1 = self.xlim
        y0, y1 = self.ylim
        px = self.x0 + MARGIN + (xs - x0) / (x1 - x0) * (PANEL_W - 2 * MARGIN)
        py = PANEL_H - MARGIN - (ys - y0) / (y1 - y0) * (PANEL_H - 2 * MARGIN)
        return px, py

    def polyline(self, xs, ys, color: str):
        import numpy as np

        px, py = self._map(np.asarray(xs), np.asarray(ys))
        pts = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(px, py))
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
    """Render a trajectory data ndarray (simulator column layout) to an SVG file."""
    import numpy as np

    if data.ndim != 2 or data.shape[1] < 6 or data.shape[0] < 1:
        raise ValueError("trajectory data must have rows and at least 6 columns")
    idx = _decimate(data.shape[0])
    t = data[idx, 0]
    x1, x2, x3 = data[idx, 1], data[idx, 2], data[idx, 3]
    u1, u2 = data[idx, 4], data[idx, 5]

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
    states = np.concatenate([x1, x2, x3])
    p2 = _Panel(PANEL_W + GAP, tlim, _limits(states), "states", "t (s)", "state")
    for (_, color), ys in zip(STATE_STYLES, (x1, x2, x3)):
        p2.polyline(t, ys, color)
    p2.legend(STATE_STYLES)
    parts.append(p2.close())

    controls = np.concatenate([u1, u2])
    p3 = _Panel(2 * (PANEL_W + GAP), tlim, _limits(controls), "controls", "t (s)", "control")
    for (_, color), ys in zip(CONTROL_STYLES, (u1, u2)):
        p3.polyline(t, ys, color)
    p3.legend(CONTROL_STYLES)
    parts.append(p3.close())

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(parts) + "\n")
