"""Minimal SVG line charts emitted as direct markup."""

from __future__ import annotations

__all__ = ["line_chart"]

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)
WIDTH, HEIGHT = 640, 420  # the plot and its margins; the legend adds rows below


def escape(text: str) -> str:
    """What ``xml.sax.saxutils.escape`` does, without importing the network stack."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _ticks(lo: float, hi: float) -> list[float]:
    step = (hi - lo) / 4
    return [lo + i * step for i in range(5)]


def line_chart(
    title: str,
    series: list[tuple[str, list[tuple[float, float]]]],
    x_label: str,
    y_label: str,
    y_range: tuple[float, float],
) -> str:
    """Named series of (x, y) points, each non-empty and in x order, as an SVG document."""
    margin_l, margin_r, margin_t, margin_b = 56, 16, 36, 44
    legend_h = 18 * len(series)
    plot_w = WIDTH - margin_l - margin_r
    plot_h = HEIGHT - margin_t - margin_b
    xs = [x for _, pts in series for x, _ in pts]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi <= x_lo:  # a one-ratio grid
        x_hi = x_lo + 1.0
    y_lo, y_hi = y_range

    def sx(x: float) -> float:
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return margin_t + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT + legend_h}" viewBox="0 0 {WIDTH} {HEIGHT + legend_h}">',
        f'<rect width="{WIDTH}" height="{HEIGHT + legend_h}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(title)}</text>',
    ]
    # axes and gridlines
    for yt in _ticks(y_lo, y_hi):
        py = sy(yt)
        out.append(
            f'<line x1="{margin_l}" y1="{py:.1f}" x2="{margin_l + plot_w}" '
            f'y2="{py:.1f}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{margin_l - 6}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yt:.2f}</text>'
        )
    for xt in _ticks(x_lo, x_hi):
        px = sx(xt)
        out.append(
            f'<line x1="{px:.1f}" y1="{margin_t}" x2="{px:.1f}" '
            f'y2="{margin_t + plot_h}" stroke="#eeeeee" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px:.1f}" y="{margin_t + plot_h + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xt:.2f}</text>'
        )
    out.append(
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{margin_l + plot_w / 2:.1f}" y="{margin_t + plot_h + 34}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        f"{escape(x_label)}</text>"
    )
    out.append(
        f'<text x="16" y="{margin_t + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {margin_t + plot_h / 2:.1f})">'
        f"{escape(y_label)}</text>"
    )
    for idx, (label, pts) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        # each point's coordinates, formatted once for the line and its marker
        coords = [(f"{sx(x):.2f}", f"{sy(y):.2f}") for x, y in pts]
        path = " ".join(f"{cx},{cy}" for cx, cy in coords)
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.8" '
            f'points="{path}"/>'
        )
        out.extend(
            f'<circle cx="{cx}" cy="{cy}" r="2.4" fill="{color}"/>' for cx, cy in coords
        )
        ly = HEIGHT + 14 + 18 * idx
        out.append(
            f'<line x1="{margin_l}" y1="{ly - 4}" x2="{margin_l + 24}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{margin_l + 30}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{escape(label)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out)
