"""Deterministic SVG 1.1 rendering of sketches and reconstruction grids.

Every stroke becomes one polyline path. Output formatting is fixed
(two-decimal coordinates, stable attribute order) so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .sketch import Sketch

__all__ = ["PALETTE", "DEFAULT_COLOR", "render_sketch", "render_grid"]

# Fixed label palette; classes map to colors by sorted class-list order.
PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)
DEFAULT_COLOR = "#222222"

PANEL = 300.0
MARGIN = 16.0
EXTENT = 255.0


def _fmt(v: float) -> str:
    return f"{v:.2f}"

def _path(points: np.ndarray, color: str, offset_x: float, offset_y: float) -> str:
    scale = (PANEL - 2 * MARGIN) / EXTENT
    cmds = []
    for i, (x, y) in enumerate(points):
        op = "M" if i == 0 else "L"
        cmds.append(f"{op} {_fmt(offset_x + MARGIN + x * scale)} "
                    f"{_fmt(offset_y + MARGIN + y * scale)}")
    d = " ".join(cmds)
    return (f'<path d="{d}" fill="none" stroke="{color}" '
            f'stroke-width="1.5" stroke-linecap="round"/>')


def _panel(sketch: Sketch, colors: list, offset_x: float, offset_y: float,
           title: str | None) -> list:
    parts = [f'<rect x="{_fmt(offset_x)}" y="{_fmt(offset_y)}" '
             f'width="{_fmt(PANEL)}" height="{_fmt(PANEL)}" '
             f'fill="white" stroke="#cccccc" stroke-width="1"/>']
    for stroke, color in zip(sketch.strokes, colors):
        parts.append(_path(stroke.points, color, offset_x, offset_y))
    if title:
        parts.append(f'<text x="{_fmt(offset_x + PANEL / 2)}" '
                     f'y="{_fmt(offset_y + PANEL - 4)}" '
                     f'font-family="monospace" font-size="12" '
                     f'text-anchor="middle">{title}</text>')
    return parts


def _document(width: float, height: float, body: list) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(width)}" height="{_fmt(height)}" '
            f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _stroke_colors(sketch: Sketch, classes: list | None):
    labels = [s.label for s in sketch.strokes]
    if not any(lb is not None for lb in labels):
        return [DEFAULT_COLOR] * len(labels), {}
    if classes is None:
        classes = sorted({lb for lb in labels if lb is not None})
    color_of = {c: PALETTE[i % len(PALETTE)] for i, c in enumerate(classes)}
    unknown = [lb for lb in labels if lb is not None and lb not in color_of]
    if unknown:
        raise ValueError(f"label {unknown[0]!r} not in class list {classes}")
    return [color_of.get(lb, DEFAULT_COLOR) for lb in labels], color_of


def render_sketch(sketch: Sketch, classes: list | None = None) -> str:
    """One sketch as an SVG document; labeled strokes colored, legend added."""
    colors, color_of = _stroke_colors(sketch, classes)
    body = _panel(sketch, colors, 0.0, 0.0, None)
    height = PANEL
    if color_of:
        y = PANEL + 8.0
        for name in sorted(color_of):
            body.append(f'<rect x="{_fmt(MARGIN)}" y="{_fmt(y)}" width="12" '
                        f'height="12" fill="{color_of[name]}"/>')
            body.append(f'<text x="{_fmt(MARGIN + 18)}" y="{_fmt(y + 10)}" '
                        f'font-family="monospace" font-size="12">{name}</text>')
            y += 18.0
        height = y + 8.0
    return _document(PANEL, height, body)


def render_grid(panels) -> str:
    """Row of (sketch, title) panels left to right in one SVG document."""
    panels = list(panels)
    body = []
    for i, (sketch, title) in enumerate(panels):
        colors, _ = _stroke_colors(sketch, None)
        body.extend(_panel(sketch, colors, i * PANEL, 0.0, title))
    return _document(PANEL * max(len(panels), 1), PANEL, body)
