"""Sketch data model and line-oriented JSON parsing.

A sketch is an ordered list of strokes; a stroke is an ordered polyline of
absolute (x, y) points. Files hold one JSON object per line with a
"drawing" key mapping to [[xs, ys], ...]; annotated files add a "label"
per stroke and a "category" naming the label set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Stroke", "Sketch", "BBox", "padded_square", "ParseError",
    "CATEGORY_CLASSES", "parse_quickdraw", "parse_annotated", "write_sketches",
]

# Closed per-category label sets; stroke labels outside the set are errors.
CATEGORY_CLASSES = {
    "airplane": ["body", "tail", "window", "wing"],
    "cat": ["body", "ear", "eye", "head", "leg", "mouth", "nose", "tail", "whisker"],
    "chair": ["back", "leg", "seat"],
    "firetruck": ["body", "cab", "ladder", "light", "water hose", "wheel", "window"],
    "flower": ["core", "leaves", "petals", "stem"],
}


class ParseError(ValueError):
    """Raised on malformed sketch input, carrying the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass
class Stroke:
    points: np.ndarray  # (N, 2) float64 absolute coordinates
    label: str | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("stroke points must be (N, 2)")
        if len(self.points) < 2:
            raise ValueError("stroke needs at least 2 points")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("stroke coordinates must be finite")

    @property
    def arc_length(self) -> float:
        return float(np.sum(np.linalg.norm(np.diff(self.points, axis=0), axis=1)))


@dataclass
class Sketch:
    strokes: list = field(default_factory=list)
    category: str | None = None

    def __post_init__(self):
        if not self.strokes:
            raise ValueError("sketch needs at least 1 stroke")

    def __len__(self) -> int:
        return len(self.strokes)

    def all_points(self) -> np.ndarray:
        return np.vstack([s.points for s in self.strokes])


@dataclass(frozen=True)
class BBox:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @classmethod
    def of_points(cls, points: np.ndarray) -> "BBox":
        points = np.asarray(points, dtype=np.float64)
        if len(points) == 0:
            raise ValueError("bounding box of no points")
        return cls(points[:, 0].min(), points[:, 1].min(),
                   points[:, 0].max(), points[:, 1].max())


def padded_square(box: BBox) -> BBox:
    """Expand the short side symmetrically so the box becomes square."""
    side = max(box.width, box.height)
    pad_x = (side - box.width) / 2.0
    pad_y = (side - box.height) / 2.0
    return BBox(box.x_min - pad_x, box.y_min - pad_y,
                box.x_min - pad_x + side, box.y_min - pad_y + side)


def _stroke_from_drawing(entry, line_number: int, index: int) -> Stroke:
    if (not isinstance(entry, (list, tuple)) or len(entry) != 2
            or len(entry[0]) != len(entry[1])):
        raise ParseError(line_number, f"stroke {index} is not an [xs, ys] pair")
    if len(entry[0]) == 0:
        raise ParseError(line_number, f"stroke {index} is empty")
    try:
        return Stroke(points=np.column_stack([entry[0], entry[1]]).astype(np.float64))
    except ValueError as e:
        raise ParseError(line_number, f"stroke {index}: {e}") from e


def _parse_line(line: str, line_number: int, annotated: bool) -> Sketch:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise ParseError(line_number, f"invalid JSON ({e.msg})") from e
    if not isinstance(obj, dict) or "drawing" not in obj:
        raise ParseError(line_number, "missing 'drawing' key")
    drawing = obj["drawing"]
    if not isinstance(drawing, list) or not drawing:
        raise ParseError(line_number, "'drawing' must be a non-empty list")
    strokes = [_stroke_from_drawing(entry, line_number, i)
               for i, entry in enumerate(drawing)]
    category = obj.get("category")
    if annotated:
        if category not in CATEGORY_CLASSES:
            raise ParseError(line_number, f"unknown category {category!r}")
        labels = obj.get("labels")
        if not isinstance(labels, list) or len(labels) != len(strokes):
            raise ParseError(line_number, "'labels' must match stroke count")
        allowed = CATEGORY_CLASSES[category]
        for stroke, label in zip(strokes, labels):
            if label not in allowed:
                raise ParseError(
                    line_number, f"label {label!r} not in {category} classes")
            stroke.label = label
    return Sketch(strokes=strokes, category=category)


def _parse_file(path, annotated: bool) -> list:
    with open(path, encoding="utf-8") as fh:
        return [_parse_line(line, i, annotated)
                for i, line in enumerate(fh, start=1) if line.strip()]


def parse_quickdraw(path) -> list:
    """Parse an unlabeled line-JSON sketch file."""
    return _parse_file(path, annotated=False)


def parse_annotated(path) -> list:
    """Parse a labeled line-JSON sketch file, validating labels per category."""
    return _parse_file(path, annotated=True)


def write_sketches(path, sketches) -> None:
    """Write sketches as line JSON, inverse of the parsers."""
    with open(path, "w", encoding="utf-8") as fh:
        for sk in sketches:
            drawing = [[s.points[:, 0].tolist(), s.points[:, 1].tolist()]
                       for s in sk.strokes]
            obj = {"drawing": drawing}
            if sk.category is not None:
                obj["category"] = sk.category
            labels = [s.label for s in sk.strokes]
            if any(lb is not None for lb in labels):
                obj["labels"] = labels
            fh.write(json.dumps(obj) + "\n")
