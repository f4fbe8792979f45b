"""Two pieces of trapeval.evaluation as they were before their fast paths,
kept verbatim as definition-level oracles:

- the detections CSV reader as it was before its rows were read in one
  tight loop with the cyclic collector paused. ``test_evaluation_reference.py``
  checks that the readers return the same detections (every corner equal
  by ``float.hex``) or raise the same ``FormatError`` message. Where this
  reader lets a ``csv.Error`` out, they raise a ``FormatError`` with the
  same text after the line number. One change since: a message names the
  physical line where its record starts (``csv.reader.line_num``), not the
  record's count, which a quoted field holding a line break put behind;
- ``_greedy``, one Python step per candidate pair, which ``evaluate_corpus``
  ran once per block and pass before each block's eleven passes were
  resolved together as arrays (``evaluation._resolve``).

Types and the header come from the package.
"""

from __future__ import annotations

import csv
import math
from typing import IO

import numpy as np

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
    end = reader.line_num
    for row in reader:
        lineno, end = end + 1, reader.line_num
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


def _greedy(
    candidates: np.ndarray, pair_det: np.ndarray, pair_gt: np.ndarray, overlap: np.ndarray
) -> np.ndarray:
    """The ``candidates`` (indices into a block's pairs, each at or above
    the IoU threshold) that ``match_detections``' greedy rule takes. They
    come by detection in processing order, ground truths ascending; each
    detection takes the still-free ground truth of highest IoU, the first
    on ties."""
    taken: set[int] = set()
    picked: list[int] = []
    current = best = best_gt = -1
    best_iou = 0.0
    for k, d, g, o in zip(
        candidates.tolist(),
        pair_det[candidates].tolist(),
        pair_gt[candidates].tolist(),
        overlap[candidates].tolist(),
    ):
        if d != current:
            if best >= 0:
                taken.add(best_gt)
                picked.append(best)
            current, best, best_iou = d, -1, 0.0
        if o > best_iou and g not in taken:
            best, best_gt, best_iou = k, g, o
    if best >= 0:
        picked.append(best)
    return np.array(picked, dtype=np.intp)
