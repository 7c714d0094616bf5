"""Deterministic SVG rendering of the polygon and its two images.

One figure shows the unit polygon (solid outline, light gray fill), the
A~-image (dashed) and the B~-image (dash-dotted), the twelve labeled
vertices, and all 24 image points.  Output is plain SVG 1.1 text with
fixed-precision coordinates, so identical inputs give identical bytes.
"""

from __future__ import annotations

from .matrix2 import Vec2
from .polytope import ImagePoints, Polygon
from .scalar import Record

__all__ = ["FigureSpec", "render", "render_string"]

# The square canvas side in pixels, and the margin as a share of the span.
_CANVAS = 800
_PADDING = 0.10
_STYLE_POLYGON = (
    'fill="#808080" fill-opacity="0.2" stroke="#000000" stroke-width="2"'
)
_STYLE_A_IMAGE = (
    'fill="none" stroke="#1f5fbf" stroke-width="1.5" stroke-dasharray="6 3"'
)
_STYLE_B_IMAGE = (
    'fill="none" stroke="#bf3f1f" stroke-width="1.5" stroke-dasharray="6 3 1 3"'
)


class FigureSpec(Record):
    __slots__ = ("polygon", "images")

    def __init__(self, polygon: Polygon, images: ImagePoints):
        self._init(polygon, images)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


class _CanvasMap:
    """Uniform world-to-canvas affine map with a 10% margin and y flipped."""

    def __init__(self, points: list[tuple[float, float]]):
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        min_x, max_x = min(xs), max(xs)
        min_y, max_y = min(ys), max(ys)
        span = max(max_x - min_x, max_y - min_y) or 1.0
        pad = span * _PADDING
        self.scale = _CANVAS / (span + 2 * pad)
        self.cx = (min_x + max_x) / 2
        self.cy = (min_y + max_y) / 2
        self.half = _CANVAS / 2

    def __call__(self, p: tuple[float, float]) -> tuple[float, float]:
        return (
            self.half + (p[0] - self.cx) * self.scale,
            self.half - (p[1] - self.cy) * self.scale,
        )


def _xy(v: Vec2) -> tuple[float, float]:
    return (float(v.x1), float(v.x2))


def _polygon_element(points, mapper, style: str) -> str:
    coords = " ".join(
        f"{_fmt(x)},{_fmt(y)}" for x, y in (mapper(p) for p in points)
    )
    return f'<polygon points="{coords}" {style}/>'


def render_string(spec: FigureSpec) -> str:
    """The complete SVG document as a string."""
    poly_pts = [_xy(v) for v in spec.polygon.vertices]
    a_pts = [_xy(v) for v in spec.images.a]
    b_pts = [_xy(v) for v in spec.images.b]
    mapper = _CanvasMap(poly_pts + a_pts + b_pts)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_CANVAS}" height="{_CANVAS}" '
        f'viewBox="0 0 {_CANVAS} {_CANVAS}">',
        _polygon_element(poly_pts, mapper, _STYLE_POLYGON),
        _polygon_element(a_pts, mapper, _STYLE_A_IMAGE),
        _polygon_element(b_pts, mapper, _STYLE_B_IMAGE),
    ]
    for idx, p in enumerate(poly_pts, start=1):
        x, y = mapper(p)
        lines.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="#000000"/>'
        )
        lines.append(
            f'<text x="{_fmt(x + 8)}" y="{_fmt(y - 8)}" '
            f'font-family="sans-serif" font-size="14">v{idx}</text>'
        )
    for label, pts, color in (("a", a_pts, "#1f5fbf"), ("b", b_pts, "#bf3f1f")):
        for idx, p in enumerate(pts, start=1):
            x, y = mapper(p)
            lines.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" '
                f'fill="{color}"><title>{label}{idx}</title></circle>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render(spec: FigureSpec, path) -> None:
    """Write the figure to a file; byte-deterministic for fixed inputs."""
    svg = render_string(spec)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
