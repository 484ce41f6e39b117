"""Minimal SVG output for locus curves with optional ellipse overlays."""

from __future__ import annotations

import math


def fmt(x: float) -> str:
    """Shortest round-trip text of a float, as written to CSV and SVG output."""
    return repr(float(x))


def _ellipse_path(a: float, b: float) -> str:
    pts = [
        (a * math.cos(2 * math.pi * k / 256), -b * math.sin(2 * math.pi * k / 256))
        for k in range(256)
    ]
    body = " L".join(f"{fmt(x)} {fmt(y)}" for x, y in pts)
    return f"M{body} Z"


def render_svg(points, overlays: list[tuple[float, float]] | None = None) -> str:
    """SVG document, 720 wide, with the points as a polyline, y axis upward, 1:1 aspect.

    ``overlays`` is a list of (semi_axis_x, semi_axis_y) ellipses drawn
    dashed and centered on the origin.  The view box fits the data and
    overlays with a 5% margin.
    """
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    for (oa, ob) in overlays or []:
        xs.extend([-oa, oa])
        ys.extend([-ob, ob])
    if not xs:
        xs = ys = [-1.0, 1.0]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    margin = 0.05 * max(xmax - xmin, ymax - ymin, 1e-9)
    xmin, xmax = xmin - margin, xmax + margin
    ymin, ymax = ymin - margin, ymax + margin
    w, h = xmax - xmin, ymax - ymin
    height = int(round(720 * h / w))
    stroke = 0.004 * max(w, h)
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="720" height="{height}" '
        f'viewBox="{fmt(xmin)} {fmt(-ymax)} {fmt(w)} {fmt(h)}">',
    ]
    for (oa, ob) in overlays or []:
        lines.append(
            f'<path d="{_ellipse_path(oa, ob)}" fill="none" stroke="black" '
            f'stroke-width="{fmt(stroke)}" stroke-dasharray="{fmt(3 * stroke)},{fmt(2 * stroke)}"/>'
        )
    if points:
        body = " ".join(f"{fmt(p[0])},{fmt(-p[1])}" for p in points)
        lines.append(
            f'<polyline points="{body}" fill="none" stroke="crimson" '
            f'stroke-width="{fmt(stroke)}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
