"""Hand-emitted SVG polyline plots (no plotting dependency).

CSV files are the ground truth; these plots exist for eyeballing branch
structure.  Output is deterministic: fixed viewBox, fixed tick layout,
fixed numeric formatting.
"""

from __future__ import annotations

from html import escape

__all__ = ["branches_svg"]

_W, _H = 800, 560
_ML, _MR, _MT, _MB = 70, 20, 40, 50

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
]


def _ticks(lo: float, hi: float, n: int = 7) -> list[float]:
    span = hi - lo
    step = span / (n - 1)
    return [lo + i * step for i in range(n)]


def branches_svg(
    branches,
    zeta_range: tuple[float, float],
    window: tuple[float, float],
    title: str,
) -> str:
    """Render tracked branches as polylines; returns the SVG text."""
    z0, z1 = zeta_range
    e0, e1 = window

    def px(z: float) -> float:
        return _ML + (z - z0) / (z1 - z0) * (_W - _ML - _MR)

    def py(mu: float) -> float:
        return _H - _MB - (mu - e0) / (e1 - e0) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}" '
        f'font-family="sans-serif" font-size="13">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="24" text-anchor="middle" font-size="16">{escape(title)}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="black"/>',
    ]
    for t in _ticks(z0, z1):
        x = px(t)
        parts.append(f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{_H - _MB + 20}" text-anchor="middle">{t:.3g}</text>')
    for t in _ticks(e0, e1):
        y = py(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end">{t:.3g}</text>')
    parts.append(
        f'<text x="{_W / 2:.0f}" y="{_H - 10}" text-anchor="middle">transverse momentum</text>'
    )
    for i, b in enumerate(branches):
        pts = " ".join(f"{px(z):.2f},{py(mu):.2f}" for z, mu in zip(b.zetas, b.mus))
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
