"""Orientation-map appearance features for baseline stroke segmentation.

A stroke rasterizes onto five 12x12 maps: responses against the reference
angles 0, 45, 90, 135 degrees plus an endpoint map, linearized in that
order into 720 values. Variants append the start/end/centroid coordinates
(726) and the whole-symbol maps for context (1446).
"""

from __future__ import annotations

import numpy as np

from .sketch import BBox, Sketch, Stroke, padded_square

__all__ = [
    "GRID", "REFERENCE_ANGLES", "compute_idm", "spatial_features",
    "idm_feature", "symbol_idm", "context_feature", "segmentation_feature",
    "FEATURE_VARIANTS",
]

GRID = 12
REFERENCE_ANGLES = (0.0, 45.0, 90.0, 135.0)
FEATURE_VARIANTS = ("idm", "idm-spt", "idm-spt-con")


def _tangent_angles(points: np.ndarray) -> np.ndarray:
    """Per-point tangent orientation in [0, 180): central differences at
    interior points, one-sided at the endpoints."""
    n = len(points)
    diffs = np.empty_like(points)
    diffs[0] = points[1] - points[0]
    diffs[-1] = points[-1] - points[-2]
    if n > 2:
        diffs[1:-1] = points[2:] - points[:-2]
    angles = np.degrees(np.arctan2(diffs[:, 1], diffs[:, 0]))
    return np.mod(angles, 180.0)


def _angular_difference(angle: np.ndarray, reference) -> np.ndarray:
    """Distance between orientations, modulo 180 degrees (broadcasting)."""
    d = np.abs(np.mod(angle - reference, 180.0))
    return np.minimum(d, 180.0 - d)


def _grid_coords(points: np.ndarray, canvas: BBox) -> np.ndarray:
    """Map points into continuous [0, GRID-1] cell coordinates."""
    w = canvas.width if canvas.width > 0 else 1.0
    h = canvas.height if canvas.height > 0 else 1.0
    gx = (points[:, 0] - canvas.x_min) / w * (GRID - 1)
    gy = (points[:, 1] - canvas.y_min) / h * (GRID - 1)
    return np.clip(np.column_stack([gx, gy]), 0.0, GRID - 1)


def _splat_max(maps: np.ndarray, coords: np.ndarray, values: np.ndarray) -> None:
    """Bilinear accumulation with per-cell max.

    `values` is (K, N): row k holds the N points' values for maps[k]. Each
    positive value lands on its point's four neighbouring cells as
    (value * wx) * wy; that product order keeps the maps bit-identical to a
    point-by-point splat.
    """
    x0 = np.floor(coords[:, 0]).astype(np.intp)
    y0 = np.floor(coords[:, 1]).astype(np.intp)
    fx, fy = coords[:, 0] - x0, coords[:, 1] - y0
    for cx, wx in ((x0, 1.0 - fx), (x0 + 1, fx)):
        for cy, wy in ((y0, 1.0 - fy), (y0 + 1, fy)):
            inside = (cx < GRID) & (cy < GRID) & (wx * wy > 0)
            k, n = np.nonzero((values > 0) & inside)
            np.maximum.at(maps, (k, cy[n], cx[n]), (values[k, n] * wx[n]) * wy[n])


def compute_idm(points, canvas: BBox) -> np.ndarray:
    """720-value appearance feature of a polyline on the given canvas.

    Per point, the tangent orientation (mod 180) scores each reference angle
    with response = 1 - diff/45 when the angular difference is within 45
    degrees, else 0; responses land on the grids by bilinear max. The fifth
    map sets the cells nearest the two endpoints to 1.
    """
    points = np.asarray(points, dtype=np.float64)
    if len(points) < 2:
        raise ValueError("orientation features need at least 2 points")
    angles = _tangent_angles(points)
    coords = _grid_coords(points, canvas)
    maps = np.zeros((5, GRID, GRID))
    diff = _angular_difference(angles, np.array(REFERENCE_ANGLES)[:, None])
    _splat_max(maps, coords, np.clip(1.0 - diff / 45.0, 0.0, 1.0))
    for gx, gy in coords[[0, -1]]:
        maps[4, int(round(gy)), int(round(gx))] = 1.0
    return maps.reshape(-1)


def idm_feature(stroke: Stroke) -> np.ndarray:
    """Stroke appearance feature on the padded square of its own bounds."""
    return compute_idm(stroke.points, padded_square(BBox.of_points(stroke.points)))


def symbol_idm(symbol: Sketch) -> np.ndarray:
    """Whole-symbol appearance: per-cell max over all strokes' maps, drawn
    on the padded square of the symbol bounds."""
    canvas = padded_square(BBox.of_points(symbol.all_points()))
    out = np.zeros(5 * GRID * GRID)
    for stroke in symbol.strokes:
        out = np.maximum(out, compute_idm(stroke.points, canvas))
    return out


def spatial_features(stroke: Stroke, canvas: BBox) -> np.ndarray:
    """Six location values: first point, last point, centroid, each (x, y)
    normalized to [0, 1] by the canvas extent."""
    w = canvas.width if canvas.width > 0 else 1.0
    h = canvas.height if canvas.height > 0 else 1.0
    pts = stroke.points
    spots = np.array([pts[0], pts[-1], pts.mean(axis=0)])
    normalized = (spots - [canvas.x_min, canvas.y_min]) / [w, h]
    return normalized.reshape(-1)


def context_feature(symbol: Sketch, stroke: Stroke, canvas: BBox) -> np.ndarray:
    """1446 values: [stroke maps (720); symbol maps (720); spatial (6)]."""
    return np.concatenate([
        idm_feature(stroke),
        symbol_idm(symbol),
        spatial_features(stroke, canvas),
    ])


def segmentation_feature(symbol: Sketch, stroke: Stroke, canvas: BBox,
                         variant: str) -> np.ndarray:
    """Assemble the requested baseline feature variant for one stroke."""
    if variant == "idm":
        return idm_feature(stroke)
    if variant == "idm-spt":
        return np.concatenate([idm_feature(stroke),
                               spatial_features(stroke, canvas)])
    if variant == "idm-spt-con":
        return context_feature(symbol, stroke, canvas)
    raise ValueError(f"unknown feature variant {variant!r}")
