"""Seeded input generation for the strokeseg benchmark.

The sketches the program reads during a benchmark run are made here from
the workload seed: raw curvy multi-stroke sketches (the `preprocess`
input) and labelled chairs (the `eval-seg` input). The same seed always
gives byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# Raw sketches: 5 strokes each, 126 points per stroke, on a 0-255 canvas
# that each sketch spans exactly, so preprocessing does not rescale it and
# the work per sketch does not hang on its extent. After 1 px resampling a
# stroke has about 240 points; after RDP (eps 2) about 22 on average and
# up to about 53.
STROKES_PER_SKETCH = 5
RAW_POINTS = 126
LONG_EVERY = 8     # every 8th stroke is a long one
CANVAS = 255.0
CHAIR_STEP_PX = 5.0


def _curvy_stroke(rng: np.random.Generator, long: bool) -> np.ndarray:
    """A smooth pen path whose heading follows three sinusoids, with its
    bounding box at the origin.

    `long` strokes are longer and wigglier; they set the padded length of
    a training batch, so they are all one shape, turned and placed at random.
    """
    if long:
        arc, freqs, amps = 420.0, np.array([13.0, 14.5, 16.0]), np.array([1.0, 0.9, 0.8])
        phases = np.array([2.0, 0.0, 4.0])
    else:
        arc = rng.uniform(180.0, 240.0)
        freqs = rng.uniform(0.5, 1.5, size=3) * rng.uniform(2.6, 3.4)
        amps = rng.uniform(0.6, 1.2, size=3)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
    t = np.linspace(0.0, 1.0, RAW_POINTS)
    heading = rng.uniform(0.0, 2.0 * np.pi) + sum(
        a * np.sin(2.0 * np.pi * f * t + p) for a, f, p in zip(amps, freqs, phases))
    step = arc / (RAW_POINTS - 1)
    deltas = step * np.column_stack([np.cos(heading), np.sin(heading)])
    deltas[0] = 0.0
    pts = np.cumsum(deltas, axis=0)
    pts += rng.normal(0.0, 0.15, size=pts.shape)  # hand tremor
    pts -= pts.min(axis=0)
    span = pts.max()
    return pts * (CANVAS / span) if span > CANVAS else pts


def raw_sketches(n: int, rng: np.random.Generator) -> list:
    """`n` unlabelled sketches as line-JSON dicts.

    Every LONG_EVERY-th stroke overall is a long one, so every batch of
    stroke ordinals holds the same number of long strokes. The first stroke
    touches the canvas's top-left corner and the second its bottom-right
    one; the rest lie anywhere on it.
    """
    out, count = [], 0
    for _ in range(n):
        drawing = []
        for k in range(STROKES_PER_SKETCH):
            pts = _curvy_stroke(rng, long=(count % LONG_EVERY == 0))
            count += 1
            room = CANVAS - pts.max(axis=0)
            corner = {0: 0.0, 1: 1.0}.get(k)
            pts += room * (rng.uniform(0.0, 1.0, size=2) if corner is None else corner)
            drawing.append([pts[:, 0].round(2).tolist(), pts[:, 1].round(2).tolist()])
        out.append({"drawing": drawing})
    return out


def _line(p0, p1, rng: np.random.Generator) -> np.ndarray:
    """A hand-drawn straight line: points CHAIR_STEP_PX apart with a
    little sideways wobble, exact at both ends."""
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    length = float(np.linalg.norm(p1 - p0))
    n = max(int(length / CHAIR_STEP_PX), 2)
    t = np.linspace(0.0, 1.0, n + 1)[:, None]
    direction = (p1 - p0) / length
    normal = np.array([-direction[1], direction[0]])
    wobble = rng.normal(0.0, 0.6, size=(n + 1, 1))
    wobble[0] = wobble[-1] = 0.0
    return p0 + t * (p1 - p0) + wobble * normal


def annotated_chairs(n: int, rng: np.random.Generator) -> list:
    """`n` front-view chairs: a back post, a seat, then four legs.

    Back and legs are both near-vertical lines, so their appearance alone
    does not separate them; their place on the page does.
    """
    out = []
    for _ in range(n):
        # Sizes vary little, so the work per eval-seg hardly moves with the seed.
        cx = rng.uniform(80.0, 170.0)
        top = rng.uniform(10.0, 20.0)
        seat_y = rng.uniform(110.0, 120.0)
        floor = seat_y + rng.uniform(95.0, 105.0)
        half = rng.uniform(50.0, 60.0)

        def jit():
            return rng.uniform(-3.0, 3.0)

        strokes = [_line((cx + jit(), top + jit()), (cx + jit(), seat_y + jit()), rng),
                   _line((cx - half + jit(), seat_y + jit()),
                         (cx + half + jit(), seat_y + jit()), rng)]
        labels = ["back", "seat"]
        for fx in (-0.9, -0.35, 0.35, 0.9):
            x = cx + fx * half
            strokes.append(_line((x + jit(), seat_y + jit()),
                                 (x + jit(), floor + jit()), rng))
            labels.append("leg")
        out.append({
            "drawing": [[np.round(s[:, 0], 2).tolist(), np.round(s[:, 1], 2).tolist()]
                        for s in strokes],
            "category": "chair",
            "labels": labels,
        })
    return out


def write_ndjson(path: Path, records: list) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
