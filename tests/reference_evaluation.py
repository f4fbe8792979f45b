"""Pieces of trapeval.evaluation as they were before their fast paths,
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
  resolved together as arrays (``evaluation._resolve``);
- the per-image greedy matching: ``match_detections``, one Python loop
  over an image's detections and its free ground truths, and
  ``match_corpus``, which runs it on each image;
- the per-image AP definition: ``pr_curve`` matches each image with
  ``match_detections`` and sorts the flags, ``per_category_ap`` runs it per
  category and ``map_over_iou_range`` per threshold, and
  ``average_precision`` reads the envelope ``_envelope`` builds, as
  ``interpolate_precision`` does.

The package runs all of these on one blockwise engine instead
(``evaluation._evaluate``), and its ``average_precision`` on the engine's
areas; ``test_evaluation.py`` checks them against these, value for value.
The float sums are left-to-right additions, as the package's are. Types,
the header and ``mean_average_precision`` come from the package.
"""

from __future__ import annotations

import bisect
import csv
import math
from collections import defaultdict
from dataclasses import replace
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from trapeval.boxes import BoundingBox, Detection, GroundTruth, iou
from trapeval.errors import CategoryError, ConfigError, EvalError, FormatError
from trapeval.evaluation import (
    DETECTIONS_CSV_HEADER,
    MAP_RANGE_THRESHOLDS,
    RECALL_GRID,
    DetectionFlag,
    MatchConfig,
    MatchOutcome,
    PrPoint,
    mean_average_precision,
    precision,
)


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


def match_detections(
    detections: Sequence[Detection],
    ground_truths: Sequence[GroundTruth],
    config: MatchConfig | None = None,
    categories: Iterable[int] | None = None,
) -> MatchOutcome:
    """Greedy one-image matching per the confusion-matrix flow.

    Detections below the confidence threshold are discarded; the rest are
    processed in decreasing confidence (ties by input order), each consuming
    the still-unmatched ground truth with the highest IoU at or above the IoU
    threshold. Same category => TP, otherwise FP.
    """
    config = config or MatchConfig()
    if categories is not None:
        known = set(categories)
        for d in detections:
            if d.category_id not in known:
                raise CategoryError(f"detection references unknown category {d.category_id}")
        for g in ground_truths:
            if g.category_id not in known:
                raise CategoryError(f"ground truth references unknown category {g.category_id}")

    retained = [
        (i, d) for i, d in enumerate(detections) if d.confidence >= config.confidence_threshold
    ]
    retained.sort(key=lambda item: -item[1].confidence)

    available = set(range(len(ground_truths)))
    flags: list[DetectionFlag] = []
    for det_index, det in retained:
        best_gt = None
        best_iou = 0.0
        for gi in sorted(available):
            overlap = iou(det.box, ground_truths[gi].box)
            if overlap >= config.iou_threshold and overlap > best_iou:
                best_iou = overlap
                best_gt = gi
        if best_gt is None:
            flags.append(DetectionFlag(det_index, False, None))
        else:
            available.discard(best_gt)
            correct = ground_truths[best_gt].category_id == det.category_id
            flags.append(DetectionFlag(det_index, correct, best_gt))
    return MatchOutcome(
        detections=tuple(detections),
        ground_truths=tuple(ground_truths),
        flags=tuple(flags),
        unmatched_gt_indices=tuple(sorted(available)),
    )


def match_corpus(
    detections: Sequence[Detection],
    ground_truths: Sequence[GroundTruth],
    config: MatchConfig | None = None,
    categories: Iterable[int] | None = None,
) -> list[MatchOutcome]:
    """Per-image matching over a corpus, in image id order."""
    config = config or MatchConfig()
    grouped: dict[str, tuple[list[Detection], list[GroundTruth]]] = defaultdict(lambda: ([], []))
    for d in detections:
        grouped[d.image_id][0].append(d)
    for g in ground_truths:
        grouped[g.image_id][1].append(g)
    cats = tuple(categories) if categories is not None else None
    return [match_detections(*grouped[i], config, cats) for i in sorted(grouped)]


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


def _group_by_image(
    detections: Sequence[Detection], ground_truths: Sequence[GroundTruth]
) -> dict[str, tuple[list[Detection], list[GroundTruth]]]:
    grouped: dict[str, tuple[list[Detection], list[GroundTruth]]] = defaultdict(
        lambda: ([], [])
    )
    for d in detections:
        grouped[d.image_id][0].append(d)
    for g in ground_truths:
        grouped[g.image_id][1].append(g)
    return dict(grouped)


def pr_curve(
    detections: Sequence[Detection],
    ground_truths: Sequence[GroundTruth],
    config: MatchConfig | None = None,
) -> list[PrPoint]:
    """Cumulative precision/recall table for one category across the corpus.

    Inputs must already be restricted to a single category. The confidence
    threshold is deliberately ignored: the curve itself sweeps confidence.
    """
    config = config or MatchConfig()
    categories = {g.category_id for g in ground_truths} | {
        d.category_id for d in detections
    }
    if len(categories) > 1:
        raise EvalError(f"pr_curve expects one category, got {sorted(categories)}")
    if not ground_truths:
        raise EvalError("no ground truths for the category; AP undefined")

    sweep = replace(config, confidence_threshold=0.0)
    grouped = _group_by_image(detections, ground_truths)
    scored: list[tuple[float, int, bool]] = []
    position = 0
    for image_id in sorted(grouped):
        dets, gts = grouped[image_id]
        outcome = match_detections(dets, gts, sweep)
        for flag in outcome.flags:
            scored.append(
                (outcome.detections[flag.detection_index].confidence, position, flag.is_tp)
            )
            position += 1
    scored.sort(key=lambda item: (-item[0], item[1]))

    n_gt = len(ground_truths)
    points: list[PrPoint] = []
    cum_tp = cum_fp = 0
    for confidence, _, is_tp in scored:
        cum_tp += 1 if is_tp else 0
        cum_fp += 0 if is_tp else 1
        points.append(
            PrPoint(
                confidence=confidence,
                cum_tp=cum_tp,
                cum_fp=cum_fp,
                precision=precision(cum_tp, cum_fp),
                recall=cum_tp / n_gt,
            )
        )
    return points


def _envelope(recalls: Sequence[float], precisions: Sequence[float]) -> Callable[[float], float]:
    """p(r) over points already sorted by recall: the max precision over
    points whose recall is >= r, 0 beyond the highest recall."""
    suffix_max: list[float] = [0.0] * len(recalls)
    running = 0.0
    for i in range(len(recalls) - 1, -1, -1):
        running = max(running, precisions[i])
        suffix_max[i] = running

    def interpolated(r: float) -> float:
        i = bisect.bisect_left(recalls, r)
        if i >= len(recalls):
            return 0.0
        return suffix_max[i]

    return interpolated


def average_precision(curve: Sequence[PrPoint], mode: str = "grid101") -> float:
    """Area-style summary of the interpolated PR envelope; 0.0 for an empty
    curve.

    ``grid101``: mean interpolated precision over recalls 0.00..1.00 step
    0.01 (primary). ``trapezoid``: trapezoidal area under the envelope over
    the achieved recall breakpoints (secondary).
    """
    by_recall = sorted(curve, key=lambda p: p.recall)
    recalls = [p.recall for p in by_recall]
    interp = _envelope(recalls, [p.precision for p in by_recall])
    if mode == "grid101":
        total = 0.0
        for r in RECALL_GRID:
            total += interp(r)
        return total / len(RECALL_GRID)
    if mode == "trapezoid":
        knots = sorted({0.0, 1.0, *recalls})
        area = 0.0
        for lo, hi in zip(knots, knots[1:]):
            area += (hi - lo) * (interp(lo) + interp(hi)) / 2.0
        return area
    raise ConfigError(f"unknown AP mode {mode!r}")


def interpolate_precision(curve: Sequence[PrPoint]) -> Callable[[float], float]:
    """p(r) = max precision over curve points whose recall is >= r.

    Monotonically non-increasing in r; 0 beyond the highest achieved recall.
    """
    if not curve:
        raise ConfigError("curve must be non-empty")
    by_recall = sorted(curve, key=lambda p: p.recall)
    return _envelope([p.recall for p in by_recall], [p.precision for p in by_recall])


def per_category_ap(
    detections: Sequence[Detection],
    ground_truths: Sequence[GroundTruth],
    config: MatchConfig | None = None,
    categories: Iterable[int] | None = None,
    mode: str = "grid101",
) -> dict[int, float]:
    """AP per category with at least one ground truth; others are excluded."""
    config = config or MatchConfig()
    result: dict[int, float] = {}
    if categories is not None:
        cats = sorted(set(categories))
    else:
        cats = sorted({g.category_id for g in ground_truths}.union(d.category_id for d in detections))
    for cat in cats:
        cat_gts = [g for g in ground_truths if g.category_id == cat]
        if not cat_gts:
            continue
        cat_dets = [d for d in detections if d.category_id == cat]
        curve = pr_curve(cat_dets, cat_gts, config)
        result[cat] = average_precision(curve, mode=mode)
    return result


def map_over_iou_range(
    detections: Sequence[Detection],
    ground_truths: Sequence[GroundTruth],
    thresholds: Sequence[float] = MAP_RANGE_THRESHOLDS,
    config: MatchConfig | None = None,
    categories: Iterable[int] | None = None,
) -> float:
    """Mean of mAP evaluated at each IoU threshold (default 0.50..0.95)."""
    if not thresholds:
        raise ConfigError("thresholds must be non-empty")
    for t in thresholds:
        if not 0.0 < t < 1.0:
            raise ConfigError(f"IoU threshold {t} outside (0, 1)")
    config = config or MatchConfig()
    total = 0.0
    for t in thresholds:
        aps = per_category_ap(
            detections, ground_truths, replace(config, iou_threshold=t), categories
        )
        total += mean_average_precision(aps)
    return total / len(thresholds)
