"""Sketch preprocessing: normalize, resample, simplify, drop tiny strokes.

The pipeline is normalize -> resample(1 px) -> rdp(epsilon) ->
remove_tiny(min_length), applied in that order and deterministic.
"""

from __future__ import annotations

import numpy as np

from .sketch import Sketch, Stroke

__all__ = [
    "normalize_sketch", "resample_stroke", "rdp_simplify",
    "remove_tiny_strokes", "preprocess_sketch",
]


def normalize_sketch(sketch: Sketch, extent: float = 255.0) -> Sketch:
    """Uniformly scale and translate so coordinates span [0, extent].

    One shared scale for both axes keeps the aspect ratio; the pooled
    minimum over both axes maps to 0 and the pooled maximum to extent.
    """
    pts = sketch.all_points()
    if len(pts) == 0:
        raise ValueError("cannot normalize an empty sketch")
    lo = pts.min()
    hi = pts.max()
    if hi - lo <= 0:
        raise ValueError("degenerate sketch: all coordinates identical")
    # Divide before scaling: (hi - lo) / (hi - lo) is exactly 1, so the
    # maximum lands on extent exactly; a precomputed extent / (hi - lo)
    # factor can round past it.
    strokes = [Stroke(points=(s.points - lo) / (hi - lo) * extent, label=s.label)
               for s in sketch.strokes]
    return Sketch(strokes=strokes, category=sketch.category)


def resample_stroke(stroke: Stroke, spacing: float = 1.0) -> Stroke:
    """Resample to points `spacing` apart along the polyline arc length.

    The first and last original points are always kept, even when the final
    interval comes out short.
    """
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    pts = stroke.points
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    if total <= 0:
        return Stroke(points=pts[[0, -1]].copy(), label=stroke.label)
    targets = np.arange(0.0, total, spacing)
    xs = np.interp(targets, cum, pts[:, 0])
    ys = np.interp(targets, cum, pts[:, 1])
    out = np.column_stack([xs, ys])
    if total - targets[-1] > 1e-9:
        out = np.vstack([out, pts[-1]])
    else:
        out[-1] = pts[-1]
    return Stroke(points=out, label=stroke.label)


def _point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = np.clip(float((p - a) @ ab) / denom, 0.0, 1.0)
    return float(np.linalg.norm(p - (a + t * ab)))


def rdp_simplify(stroke: Stroke, epsilon: float = 2.0) -> Stroke:
    """Ramer-Douglas-Peucker polyline simplification.

    Recursively keeps the point farthest from the current chord whenever its
    distance exceeds epsilon. The output is a subsequence of the input that
    always contains both endpoints.

    Each chord's interior distances come from one numpy expression, which
    can differ from `_point_segment_distance` in the last bits. The choice
    is still the scalar one: every point within `tol` of the vectorized
    maximum is re-measured with `_point_segment_distance` unless a single
    point leads by more than `tol` and sits more than `tol` from epsilon.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    pts = stroke.points
    n = len(pts)
    x, y = pts[:, 0], pts[:, 1]
    # over 100x the largest gap between the two distance formulas, which is
    # a few ulps of the largest coordinate
    tol = 1e-12 * max(1.0, float(np.abs(pts).max()))
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        abx, aby = x[hi] - x[lo], y[hi] - y[lo]
        px, py = x[lo + 1:hi], y[lo + 1:hi]
        denom = abx * abx + aby * aby
        t = (np.clip(((px - x[lo]) * abx + (py - y[lo]) * aby) / denom, 0.0, 1.0)
             if denom else 0.0)
        dist = np.sqrt((px - (x[lo] + t * abx)) ** 2 + (py - (y[lo] + t * aby)) ** 2)
        dmax = dist.max()
        # written as "not below" so that a NaN (from overflow) sends every
        # point to the scalar check
        cand = np.flatnonzero(~(dist < dmax - tol))
        if len(cand) == 1 and abs(dmax - epsilon) > tol:
            k, far = int(cand[0]), bool(dmax > epsilon)
        else:
            exact = [_point_segment_distance(pts[lo + 1 + i], pts[lo], pts[hi])
                     for i in cand]
            j = int(np.argmax(exact))
            k, far = int(cand[j]), exact[j] > epsilon
        if far:
            split = lo + 1 + k
            keep[split] = True
            stack.append((lo, split))
            stack.append((split, hi))
    return Stroke(points=pts[keep].copy(), label=stroke.label)


def remove_tiny_strokes(sketch: Sketch, min_length: float = 15.0) -> Sketch:
    """Drop strokes whose arc length is below min_length, keeping order."""
    if min_length < 0:
        raise ValueError("min_length must be nonnegative")
    kept = [s for s in sketch.strokes if s.arc_length >= min_length]
    if not kept:
        raise ValueError("all strokes below the minimum length")
    return Sketch(strokes=kept, category=sketch.category)


def preprocess_sketch(sketch: Sketch, epsilon: float = 2.0,
                      min_length: float = 15.0) -> Sketch:
    """Full pipeline. Strokes that simplify to zero length are dropped."""
    out = normalize_sketch(sketch)
    strokes = []
    for s in out.strokes:
        s = resample_stroke(s)
        s = rdp_simplify(s, epsilon=epsilon)
        if s.arc_length > 0:
            strokes.append(s)
    if not strokes:
        raise ValueError("no strokes survive preprocessing")
    return remove_tiny_strokes(Sketch(strokes=strokes, category=out.category),
                               min_length=min_length)
