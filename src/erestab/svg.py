"""Deterministic SVG scatter/curve charts for scan output.

Pure string assembly on a fixed 900x600 canvas; byte-identical output for
identical input, no plotting dependencies.
"""

from __future__ import annotations

from typing import Iterable, Sequence

WIDTH, HEIGHT = 900, 600
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 70, 160, 40, 50

CLASS_COLORS = {
    "StronglyLinearlyStable": "#1a9850",
    "LinearlyStable": "#91cf60",
    "SpectrallyStableNotLinear": "#fee08b",
    "Hyperbolic": "#d73027",
    "Unstable": "#fc8d59",
    "Error": "#999999",
}
CURVE_COLORS = ["#000000", "#404040", "#808080"]


def _fnum(x: float) -> str:
    return f"{x:.2f}"


def _tick(x: float) -> str:
    return f"{x:.4g}"


def _text(x, y, body: str, size: int, anchor: str = "", extra: str = "") -> str:
    """One sans-serif label; ``extra`` holds attributes written after the font size."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    extra = f" {extra}" if extra else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{extra}>{body}</text>')


def emit_svg(
    points: Iterable[tuple[float, float, str]],
    curves: Iterable[tuple[str, Sequence[tuple[float, float]]]] = (),
    title: str = "",
    xlabel: str = "x",
    ylabel: str = "y",
) -> str:
    """Render class-colored points plus labeled polyline curves.

    ``points`` yields (x, y, class_name); unknown class names fall back to
    the Error color.  An empty point and curve set still produces a valid
    chart with axes and a warning annotation.
    """
    points = list(points)
    curves = [(name, list(path)) for name, path in curves]
    colors = {cls: CLASS_COLORS.get(cls, CLASS_COLORS["Error"]) for _, _, cls in points}

    xs = [p[0] for p in points] + [q[0] for _, path in curves for q in path]
    ys = [p[1] for p in points] + [q[1] for _, path in curves for q in path]
    xlim = (min(xs), max(xs)) if xs else (0.0, 1.0)
    ylim = (min(ys), max(ys)) if ys else (0.0, 1.0)
    if xlim[0] == xlim[1]:
        xlim = (xlim[0] - 0.5, xlim[1] + 0.5)
    if ylim[0] == ylim[1]:
        ylim = (ylim[0] - 0.5, ylim[1] + 0.5)

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    mid_x = f"{MARGIN_LEFT + plot_w / 2:.1f}"
    mid_y = f"{MARGIN_TOP + plot_h / 2:.1f}"

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - xlim[0]) / (xlim[1] - xlim[0]) * plot_w

    def py(y: float) -> float:
        return HEIGHT - MARGIN_BOTTOM - (y - ylim[0]) / (ylim[1] - ylim[0]) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#000000" stroke-width="1"/>',
    ]
    if title:
        out.append(_text(WIDTH // 2, 24, title, 16, "middle"))
    out.append(_text(mid_x, HEIGHT - 12, xlabel, 13, "middle"))
    out.append(_text(18, mid_y, ylabel, 13, "middle", f'transform="rotate(-90 18 {mid_y})"'))
    for i in range(6):
        fx = xlim[0] + i * (xlim[1] - xlim[0]) / 5
        fy = ylim[0] + i * (ylim[1] - ylim[0]) / 5
        out.append(
            f'<line x1="{_fnum(px(fx))}" y1="{HEIGHT - MARGIN_BOTTOM}" '
            f'x2="{_fnum(px(fx))}" y2="{HEIGHT - MARGIN_BOTTOM + 5}" stroke="#000000"/>'
        )
        out.append(_text(_fnum(px(fx)), HEIGHT - MARGIN_BOTTOM + 18, _tick(fx), 11, "middle"))
        out.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{_fnum(py(fy))}" '
            f'x2="{MARGIN_LEFT}" y2="{_fnum(py(fy))}" stroke="#000000"/>'
        )
        out.append(_text(MARGIN_LEFT - 8, _fnum(py(fy) + 4), _tick(fy), 11, "end"))

    if not points and not curves:
        out.append(_text(mid_x, mid_y, "warning: no data", 14, "middle", 'fill="#b00000"'))

    for x, y, cls in points:
        out.append(
            f'<rect x="{_fnum(px(x) - 2)}" y="{_fnum(py(y) - 2)}" width="4" height="4" '
            f'fill="{colors[cls]}" class="{cls}"/>'
        )

    for i, (name, path) in enumerate(curves):
        if not path:
            continue
        color = CURVE_COLORS[i % len(CURVE_COLORS)]
        coords = " ".join(f"{_fnum(px(x))},{_fnum(py(y))}" for x, y in path)
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="2" class="{name}"/>'
        )
        lx, ly = path[-1]
        out.append(_text(_fnum(px(lx) + 4), _fnum(py(ly)), name, 12, extra=f'fill="{color}"'))

    legend_x = WIDTH - MARGIN_RIGHT + 14
    for i, cls in enumerate(sorted(colors)):
        y0 = MARGIN_TOP + 10 + 20 * i
        out.append(f'<rect x="{legend_x}" y="{y0}" width="10" height="10" fill="{colors[cls]}"/>')
        out.append(_text(legend_x + 16, y0 + 9, cls, 11))
    out.append("</svg>")
    return "\n".join(out) + "\n"
