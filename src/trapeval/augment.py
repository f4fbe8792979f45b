"""Geometric and photometric augmentation of an annotated image, with the
boxes kept in step: nearest-neighbour resizing, exact quarter turns, scale,
brightness and contrast.

No command calls these; they live apart from ``trapeval.dataset`` so that
reading and splitting annotations loads no numpy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .boxes import BoundingBox, GroundTruth
from .dataset import ImageRecord, _clamp_box
from .errors import ConfigError, FormatError
from .tensor import Tensor3


def _resize_nearest(data: np.ndarray, height: int, width: int) -> np.ndarray:
    """Nearest-neighbour resample of a (C, H, W) array to height x width."""
    rows = (np.arange(height) * data.shape[1]) // height
    cols = (np.arange(width) * data.shape[2]) // width
    return data[:, rows][:, :, cols]


def resize_with_boxes(
    record: ImageRecord, raster: Tensor3, target: int
) -> tuple[ImageRecord, Tensor3]:
    """Nearest-neighbour resize to target x target with box rescaling."""
    if (record.height, record.width) != (raster.height, raster.width):
        raise FormatError(
            f"record {record.image_id}: raster {raster.height}x{raster.width} "
            f"does not match declared {record.height}x{record.width}"
        )
    if target < 1:
        raise ConfigError("target must be >= 1")
    resized = Tensor3(_resize_nearest(raster.data, target, target))
    sx = target / record.width
    sy = target / record.height
    annotations = tuple(
        gt._replace(
            box=BoundingBox(
                *_clamp_box(gt.box.x1 * sx, gt.box.y1 * sy, gt.box.x2 * sx, gt.box.y2 * sy, target, target)
            ),
        )
        for gt in record.annotations
    )
    return (
        record._replace(width=target, height=target, annotations=annotations),
        resized,
    )


AUGMENT_RANGES = {"scale": (0.5, 1.5), "brightness": (-64.0, 64.0), "contrast": (0.5, 1.5)}


@dataclass(frozen=True)
class AugmentOp:
    kind: str  # rotate90 | scale | brightness | contrast
    value: float | None = None  # None: sampled from the documented range

    def __post_init__(self):
        if self.kind not in ("rotate90", "scale", "brightness", "contrast"):
            raise ConfigError(f"unknown augmentation {self.kind!r}")
        if self.value is not None and self.kind in AUGMENT_RANGES:
            lo, hi = AUGMENT_RANGES[self.kind]
            if not lo <= self.value <= hi:
                raise ConfigError(f"{self.kind} value {self.value} outside [{lo}, {hi}]")


def _rotate90_box(box: BoundingBox, width: float) -> BoundingBox:
    # Continuous-coordinate quarter turn: (x, y) -> (y, width - x).
    return BoundingBox(box.y1, width - box.x2, box.y2, width - box.x1)


def augment(
    record: ImageRecord,
    raster: Tensor3,
    ops: Iterable[AugmentOp],
    seed: int = 0,
) -> tuple[ImageRecord, Tensor3]:
    """Apply pixel transforms and mirror the geometry onto the boxes.

    Rotation is restricted to quarter turns so box updates stay exact.
    Transformed boxes are clamped to the new bounds and dropped below 1 px^2.
    """
    if (record.height, record.width) != (raster.height, raster.width):
        raise FormatError(
            f"record {record.image_id}: raster does not match declared size"
        )
    rng = random.Random(seed)
    data = raster.data
    boxes = [gt.box for gt in record.annotations]
    categories = [gt.category_id for gt in record.annotations]
    width, height = float(record.width), float(record.height)

    for op in ops:
        if op.kind == "rotate90":
            turns = int(op.value) if op.value is not None else rng.choice((1, 2, 3))
            for _ in range(turns % 4):
                data = np.rot90(data, 1, axes=(1, 2)).copy()
                boxes = [_rotate90_box(b, width) for b in boxes]
                width, height = height, width
        elif op.kind == "scale":
            s = op.value if op.value is not None else rng.uniform(*AUGMENT_RANGES["scale"])
            new_w = max(1, int(round(width * s)))
            new_h = max(1, int(round(height * s)))
            data = _resize_nearest(data, new_h, new_w)
            rx, ry = new_w / width, new_h / height
            boxes = [
                BoundingBox(b.x1 * rx, b.y1 * ry, b.x2 * rx, b.y2 * ry) for b in boxes
            ]
            width, height = float(new_w), float(new_h)
        elif op.kind == "brightness":
            b = op.value if op.value is not None else rng.uniform(*AUGMENT_RANGES["brightness"])
            data = np.clip(data + b, 0.0, 255.0)
        elif op.kind == "contrast":
            c = op.value if op.value is not None else rng.uniform(*AUGMENT_RANGES["contrast"])
            data = np.clip((data - 128.0) * c + 128.0, 0.0, 255.0)

    kept: list[GroundTruth] = []
    for box, category in zip(boxes, categories):
        clamped = BoundingBox(*_clamp_box(box.x1, box.y1, box.x2, box.y2, int(width), int(height)))
        if clamped.area >= 1.0:
            kept.append(GroundTruth(clamped, category, record.image_id))
    new_record = record._replace(
        width=int(width),
        height=int(height),
        annotations=tuple(kept),
    )
    return new_record, Tensor3(data)
