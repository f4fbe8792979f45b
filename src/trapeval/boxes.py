"""Axis-aligned box geometry shared by the loss family and the evaluator.

Boxes are kept in corner form (x1, y1, x2, y2); size views are derived on
demand. Degenerate (zero-area) boxes are legal everywhere: IoU with a
degenerate union is 0 by convention. All arithmetic is double precision.

The records are named tuples, since one is built per box, detection and
ground truth: immutable, equal and hashed by their fields, and cheap to
build. Change one with ``_replace``.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ConfigError


class BoundingBox(NamedTuple):
    x1: float
    y1: float
    x2: float
    y2: float

    def normalized(self) -> "BoundingBox":
        """Return the same region with corners ordered (x1 <= x2, y1 <= y2)."""
        x1, x2 = sorted((float(self.x1), float(self.x2)))
        y1, y2 = sorted((float(self.y1), float(self.y2)))
        return BoundingBox(x1, y1, x2, y2)

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def corners(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)

    def translated(self, dx: float, dy: float) -> "BoundingBox":
        return BoundingBox(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)


class GroundTruth(NamedTuple):
    box: BoundingBox
    category_id: int
    image_id: str = ""


class _DetectionFields(NamedTuple):
    box: BoundingBox
    category_id: int
    confidence: float
    image_id: str = ""


class Detection(_DetectionFields):
    """A scored box. Every path that builds one checks that the confidence
    lies in [0, 1]: the constructor, ``_make`` and ``_replace`` (which goes
    through ``_make``)."""

    __slots__ = ()

    def __new__(cls, box: BoundingBox, category_id: int, confidence: float, image_id: str = ""):
        if not 0.0 <= confidence <= 1.0:
            raise ConfigError(f"confidence {confidence} outside [0, 1]")
        return tuple.__new__(cls, (box, category_id, confidence, image_id))

    @classmethod
    def _make(cls, iterable) -> "Detection":
        # The base _make checks the length but builds through tuple.__new__,
        # which skips the check above.
        return cls(*super()._make(iterable))


def intersection_area(a: BoundingBox, b: BoundingBox) -> float:
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    return iw * ih


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union; 0 when the union has no area."""
    inter = intersection_area(a, b)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def center_distance_sq(a: BoundingBox, b: BoundingBox) -> float:
    dx = (a.x1 + a.x2) / 2.0 - (b.x1 + b.x2) / 2.0
    dy = (a.y1 + a.y2) / 2.0 - (b.y1 + b.y2) / 2.0
    return dx**2 + dy**2
