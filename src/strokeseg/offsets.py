"""Displacement (Point5) encoding and temporal-order stroke batching.

Each stroke becomes a sequence of [dx, dy, p1, p2, p3] rows: p1 while the
pen keeps drawing, p2 on the stroke's last point, p3 on padding. Batches
group the k-th strokes of a window of sketches, right-padded with
[0, 0, 0, 0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sketch import Sketch, Stroke

__all__ = [
    "PEN_DRAW", "PEN_UP", "PEN_END", "PADDING_ROW", "START_ROW",
    "to_offsets", "StrokeBatch", "make_stroke_batches",
    "augment_scale",
]

PEN_DRAW = 0  # p1: pen stays down
PEN_UP = 1    # p2: last point of the stroke
PEN_END = 2   # p3: drawing over / padding

PADDING_ROW = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
START_ROW = np.array([0.0, 0.0, 1.0, 0.0, 0.0])


def to_offsets(stroke: Stroke, origin=(0.0, 0.0)) -> np.ndarray:
    """Encode a stroke as (L, 5) displacement rows.

    The first row's (dx, dy) is the first point minus `origin`; later rows
    are within-stroke differences. All rows carry pen state p1 except the
    last, which carries p2.
    """
    pts = stroke.points
    if len(pts) < 2:
        raise ValueError("stroke needs at least 2 points")
    deltas = np.empty_like(pts)
    deltas[0] = pts[0] - np.asarray(origin, dtype=np.float64)
    deltas[1:] = np.diff(pts, axis=0)
    out = np.zeros((len(pts), 5))
    out[:, :2] = deltas
    out[:-1, 2 + PEN_DRAW] = 1.0
    out[-1, 2 + PEN_UP] = 1.0
    return out


@dataclass
class StrokeBatch:
    """Equal-length Point5 sequences for one stroke ordinal of a sketch window.

    sequences: (B, L, 5); mask: (B, L) bool, True on real steps;
    temporal_index: which stroke ordinal (0-based) this batch holds.
    """

    sequences: np.ndarray
    mask: np.ndarray
    temporal_index: int

    def __post_init__(self):
        if self.sequences.shape[:2] != self.mask.shape:
            raise ValueError("mask shape must match sequences")
        padded = self.sequences[~self.mask.astype(bool)]
        if padded.size and not np.array_equal(
                padded, np.tile(PADDING_ROW, (len(padded), 1))):
            raise ValueError("padded steps must be exactly [0 0 0 0 1]")


def make_stroke_batches(sketches, batch_size: int) -> list:
    """Group sketches into windows of `batch_size` and batch strokes by order.

    Batch k of a window holds each sketch's k-th stroke, right-padded with
    [0,0,0,0,1] to the window's longest k-th stroke; sketches with fewer
    than k+1 strokes contribute pure-padding rows.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    batches = []
    for start in range(0, len(sketches), batch_size):
        window = sketches[start:start + batch_size]
        max_strokes = max(len(sk.strokes) for sk in window)
        for k in range(max_strokes):
            rows = []
            for sk in window:
                if k < len(sk.strokes):
                    rows.append(to_offsets(sk.strokes[k]))
                else:
                    rows.append(np.zeros((0, 5)))
            length = max(len(r) for r in rows)
            seqs = np.tile(PADDING_ROW, (len(rows), length, 1))
            mask = np.zeros((len(rows), length), dtype=bool)
            for i, r in enumerate(rows):
                seqs[i, :len(r)] = r
                mask[i, :len(r)] = True
            batches.append(StrokeBatch(sequences=seqs, mask=mask, temporal_index=k))
    return batches


def augment_scale(rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Scale dx by one U(0.9, 1.1) draw and dy by an independent one.

    Pen-state columns pass through untouched.
    """
    rows = np.asarray(rows, dtype=np.float64)
    out = rows.copy()
    out[..., 0] = rows[..., 0] * rng.uniform(0.9, 1.1)
    out[..., 1] = rows[..., 1] * rng.uniform(0.9, 1.1)
    return out
