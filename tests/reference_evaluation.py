"""The detections CSV reader of trapeval.evaluation as it was before its rows
were read in one tight loop with the cyclic collector paused.

Kept verbatim as the definition-level oracle for
``test_evaluation_reference.py``: the reader must return the same detections
(every corner equal by ``float.hex``) or raise the same ``FormatError``
message. Types and the header come from the package.
"""

from __future__ import annotations

import csv
import math
from typing import IO

from trapeval.boxes import BoundingBox, Detection
from trapeval.errors import FormatError
from trapeval.evaluation import DETECTIONS_CSV_HEADER


def read_detections_csv(stream: IO[str]) -> list[Detection]:
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("detections CSV is empty (missing header)")
    if [h.strip() for h in header] != DETECTIONS_CSV_HEADER:
        raise FormatError(
            f"detections CSV header {header!r} != {DETECTIONS_CSV_HEADER!r}"
        )
    detections = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 7:
            raise FormatError(f"line {lineno}: expected 7 fields, got {len(row)}")
        try:
            image_id = row[0]
            category_id = int(row[1])
            confidence = float(row[2])
            x1, y1, x2, y2 = (float(v) for v in row[3:7])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        if not 0.0 <= confidence <= 1.0:
            raise FormatError(f"line {lineno}: confidence {confidence} outside [0, 1]")
        if not all(map(math.isfinite, (x1, y1, x2, y2))):
            raise FormatError(f"line {lineno}: non-finite coordinate")
        # Corners in order as BoundingBox.normalized() puts them, one box built.
        x1, x2 = (x2, x1) if x2 < x1 else (x1, x2)
        y1, y2 = (y2, y1) if y2 < y1 else (y1, y2)
        detections.append(
            Detection(
                box=BoundingBox(x1, y1, x2, y2),
                category_id=category_id,
                confidence=confidence,
                image_id=image_id,
            )
        )
    return detections
