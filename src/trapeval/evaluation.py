"""Detection evaluation: matching, precision/recall, PR curves, AP and mAP.

Matching is greedy by descending confidence with best-IoU assignment and
one-to-one ground-truth consumption. IoU gating happens before the category
check, so a detection may consume a ground truth of another category; that
pair lands in the corresponding confusion-matrix cross cell and counts as a
false positive for precision/recall purposes.

Two false-negative notions coexist and are kept separate on purpose:

- reporting FN (per-category tp/fp/fn, recall): ground truths not *correctly*
  detected, i.e. total minus TP, so per-category TP + FN sums to the number
  of ground truths;
- confusion-matrix background column: ground truths no detection consumed at
  all (cross-matched ones sit in their cross cell instead).

PR curves sweep the full confidence range, so the configured confidence
threshold applies only to operating-point reporting, never to curves or AP.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import IO, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .boxes import BoundingBox, Detection, GroundTruth, iou  # noqa: F401 (re-exported)
from .dataset import AnnotationColumns, collector_paused
from .errors import CategoryError, ConfigError, EvalError, FormatError

DEFAULT_IOU_THRESHOLD = 0.45
DEFAULT_CONFIDENCE_THRESHOLD = 0.25
MAP_RANGE_THRESHOLDS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))
RECALL_GRID = tuple(k / 100.0 for k in range(101))
_GRID = np.array(RECALL_GRID)


@dataclass(frozen=True)
class MatchConfig:
    iou_threshold: float = DEFAULT_IOU_THRESHOLD
    confidence_threshold: float = DEFAULT_CONFIDENCE_THRESHOLD

    def __post_init__(self):
        if not 0.0 < self.iou_threshold < 1.0:
            raise ConfigError(f"iou_threshold {self.iou_threshold} must be in (0, 1)")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ConfigError(
                f"confidence_threshold {self.confidence_threshold} must be in [0, 1]"
            )


@dataclass(frozen=True)
class DetectionFlag:
    detection_index: int
    is_tp: bool
    matched_gt_index: int | None


@dataclass(frozen=True)
class MatchOutcome:
    """Result of matching one image's detections against its ground truths.

    ``flags`` covers retained detections in processing order (descending
    confidence); ``unmatched_gt_indices`` lists ground truths no detection
    consumed.
    """

    detections: tuple[Detection, ...]
    ground_truths: tuple[GroundTruth, ...]
    flags: tuple[DetectionFlag, ...]
    unmatched_gt_indices: tuple[int, ...]


def match_detections(
    detections: Sequence[Detection],
    ground_truths: Sequence[GroundTruth],
    config: MatchConfig | None = None,
    categories: Iterable[int] | None = None,
) -> MatchOutcome:
    """Greedy matching of records read as one image, whatever their ids:
    the engine's operating-point pass (see ``evaluate_corpus``).

    Detections below the confidence threshold are discarded; the rest are
    processed in decreasing confidence (ties by input order), each consuming
    the still-unmatched ground truth with the highest IoU at or above the IoU
    threshold, the first on ties. Same category => TP, otherwise FP.
    """
    config = config or MatchConfig()
    *_, matched = _evaluate(detections, ground_truths, config, categories, (), one_image=True)
    return _outcome(detections, ground_truths, matched.tolist(), config.confidence_threshold)


def _outcome(
    detections: Sequence[Detection],
    ground_truths: Sequence[GroundTruth],
    matched: list[int],
    confidence_threshold: float,
) -> MatchOutcome:
    """One image's outcome, from the index of the ground truth each
    detection took, -1 for none."""
    retained = [i for i, d in enumerate(detections) if d.confidence >= confidence_threshold]
    retained.sort(key=lambda i: -detections[i].confidence)
    flags = []
    for i in retained:
        j = matched[i]
        correct = j >= 0 and ground_truths[j].category_id == detections[i].category_id
        flags.append(DetectionFlag(i, correct, j if j >= 0 else None))
    unmatched = tuple(sorted(set(range(len(ground_truths))).difference(matched)))
    return MatchOutcome(tuple(detections), tuple(ground_truths), tuple(flags), unmatched)


def precision(tp: int, fp: int) -> float:
    """tp / (tp + fp); vacuously 1.0 when there are no predictions."""
    if tp < 0 or fp < 0:
        raise ConfigError("counts must be >= 0")
    if tp + fp == 0:
        return 1.0
    return tp / (tp + fp)


def recall(tp: int, fn: int) -> float:
    """tp / (tp + fn); 0.0 when there are no ground truths."""
    if tp < 0 or fn < 0:
        raise ConfigError("counts must be >= 0")
    if tp + fn == 0:
        return 0.0
    return tp / (tp + fn)


@dataclass(frozen=True)
class PrPoint:
    confidence: float
    cum_tp: int
    cum_fp: int
    precision: float
    recall: float


def _running_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0, as ``sum`` adds floats
    before Python 3.12, which compensates: the same AP on every Python."""
    total = 0.0
    for value in values:
        total += value
    return total


def _ap_areas(recalls: np.ndarray, precisions: np.ndarray) -> tuple[tuple[float, ...], float]:
    """The grid101 AP of each row of a curve's recall and precision
    columns, and the trapezoid AP of its first row. Each row's points
    ascend in recall within [0, 1]. The envelope p(r) is the max precision
    over the points whose recall is >= r, 0 past the last point."""
    envelope = np.zeros((recalls.shape[0], recalls.shape[1] + 1))
    envelope[:, :-1] = np.maximum.accumulate(precisions[:, ::-1], axis=1)[:, ::-1]
    aps = tuple(
        _running_sum(env[np.searchsorted(r, _GRID)].tolist()) / len(RECALL_GRID)
        for r, env in zip(recalls, envelope)
    )
    # sorted({0.0, 1.0, *recalls[0]}), as the recalls ascend within [0, 1]
    # (and np.unique would import numpy.ma, 0.6 MiB).
    knots = np.concatenate(([0.0], recalls[0], [1.0]))
    knots = knots[np.append(True, knots[1:] != knots[:-1])]
    at = envelope[0][np.searchsorted(recalls[0], knots)]
    return aps, _running_sum(((knots[1:] - knots[:-1]) * (at[:-1] + at[1:]) / 2.0).tolist())


def average_precision(curve: Sequence[PrPoint], mode: str = "grid101") -> float:
    """Area-style summary of the interpolated PR envelope of a curve whose
    points come in any order; 0.0 for an empty curve. A point whose recall
    or precision is NaN or outside [0, 1] raises EvalError naming it.

    ``grid101``: mean interpolated precision over recalls 0.00..1.00 step
    0.01 (primary). ``trapezoid``: trapezoidal area under the envelope over
    the achieved recall breakpoints (secondary).
    """
    if mode not in ("grid101", "trapezoid"):
        raise ConfigError(f"unknown AP mode {mode!r}")
    for i, p in enumerate(curve):
        if not (0.0 <= p.recall <= 1.0 and 0.0 <= p.precision <= 1.0):
            raise EvalError(
                f"curve point {i}: recall {p.recall!r} and precision {p.precision!r} must lie in [0, 1]"
            )
    recalls = np.array([p.recall for p in curve], dtype=np.float64)
    order = np.argsort(recalls, kind="stable")
    precisions = np.array([p.precision for p in curve], dtype=np.float64)[order]
    aps, trapezoid = _ap_areas(recalls[order][None], precisions[None])
    return aps[0] if mode == "grid101" else trapezoid


def mean_average_precision(per_category_ap: Mapping[int, float]) -> float:
    """Unweighted mean over categories that have a defined AP."""
    if not per_category_ap:
        raise EvalError("mean average precision over an empty category map")
    return _running_sum(per_category_ap.values()) / len(per_category_ap)


@dataclass(frozen=True)
class CategoryMetrics:
    category_id: int
    ap: float
    ap_trapezoid: float
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float


@dataclass(frozen=True)
class ConfusionMatrix:
    """Square count grid over (true category, predicted category).

    The trailing row/column is background: unmatched detections land in the
    background row, completely-unmatched ground truths in the background
    column.
    """

    categories: tuple[int, ...]
    grid: tuple[tuple[int, ...], ...]

    def cell(self, true_category: int | None, predicted_category: int | None) -> int:
        labels = (*self.categories, None)  # None is the background
        for category in (true_category, predicted_category):
            if category not in labels:
                raise CategoryError(
                    f"category {category!r} is not in the confusion matrix {self.categories}"
                )
        return self.grid[labels.index(true_category)][labels.index(predicted_category)]

    def write_csv(self, stream: IO[str]) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        labels = [str(c) for c in self.categories] + ["background"]
        writer.writerow(["true\\pred"] + labels)
        for label, row in zip(labels, self.grid):
            writer.writerow([label] + list(row))


def confusion_matrix(
    outcomes: Iterable[MatchOutcome], categories: Sequence[int]
) -> ConfusionMatrix:
    cats = tuple(sorted(categories))
    index = {c: i for i, c in enumerate(cats)}
    n = len(cats)
    grid = [[0] * (n + 1) for _ in range(n + 1)]
    for outcome in outcomes:
        for flag in outcome.flags:
            det = outcome.detections[flag.detection_index]
            if det.category_id not in index:
                raise CategoryError(f"detection category {det.category_id} not configured")
            col = index[det.category_id]
            if flag.matched_gt_index is None:
                grid[n][col] += 1
            else:
                grid[_row(index, outcome.ground_truths[flag.matched_gt_index])][col] += 1
        for gi in outcome.unmatched_gt_indices:
            grid[_row(index, outcome.ground_truths[gi])][n] += 1
    return ConfusionMatrix(cats, tuple(tuple(row) for row in grid))


def _row(index: Mapping[int, int], gt: GroundTruth) -> int:
    """The confusion-grid row of a ground truth's category."""
    if gt.category_id not in index:
        raise CategoryError(f"ground-truth category {gt.category_id} not configured")
    return index[gt.category_id]


def match_corpus(
    detections: Sequence[Detection],
    ground_truths: Sequence[GroundTruth],
    config: MatchConfig | None = None,
    categories: Iterable[int] | None = None,
) -> list[MatchOutcome]:
    """``match_detections`` on each image, in image id order, from one
    engine run over the corpus."""
    config = config or MatchConfig()
    *_, matched = _evaluate(detections, ground_truths, config, categories, ())
    images = defaultdict(lambda: ([], []))
    for i, d in enumerate(detections):
        images[d.image_id][0].append(i)
    for j, g in enumerate(ground_truths):
        images[g.image_id][1].append(j)
    outcomes = []
    for dets, gts in map(images.get, sorted(images)):
        local = {j: k for k, j in enumerate(gts)}  # corpus index -> index in the image
        took = [local.get(j, -1) for j in matched[dets].tolist()]
        dets, gts = [detections[i] for i in dets], [ground_truths[j] for j in gts]
        outcomes.append(_outcome(dets, gts, took, config.confidence_threshold))
    return outcomes


@dataclass(frozen=True)
class PrCurve:
    """One category's IoU-0.5 curve: the recall and precision columns of
    ``pr_curve``, point for point."""

    category_id: int
    recall: tuple[float, ...]
    precision: tuple[float, ...]


@dataclass(frozen=True)
class CorpusMetrics:
    per_category: tuple[CategoryMetrics, ...]
    map50: float
    map50_95: float
    confusion: ConfusionMatrix
    pr_curves: tuple[PrCurve, ...]  # categories with ground truths, ascending


# Same-image detection x ground-truth pairs per IoU block: a block's arrays
# stay a few hundred KiB whatever the size of the corpus.
_BLOCK_PAIRS = 4096


def _double(value) -> float:
    """``value`` as a double; NaN for an int past the double range."""
    try:
        return float(value)
    except OverflowError:
        return math.nan


class BoxColumns(NamedTuple):
    """Detections or ground truths as columns, row i for record i: image
    ids, category ids, (n, 4) corner rows as doubles and, for detections,
    confidences."""

    image_id: list[str]
    category_id: np.ndarray
    corners: np.ndarray
    confidence: np.ndarray | None = None

    @classmethod
    def from_records(
        cls, records: Sequence[Detection] | Sequence[GroundTruth], scored: bool = False
    ) -> "BoxColumns":
        """The columns of ``records``; with ``scored``, their confidences too.
        An int corner past the double range reads as NaN."""
        boxes = [r.box for r in records]
        # A box is already its corner row: the rows are read as one flat run.
        try:
            corners = np.fromiter(chain.from_iterable(boxes), np.float64, 4 * len(boxes))
        except OverflowError:
            corners = np.fromiter(map(_double, chain.from_iterable(boxes)), np.float64)
        return cls(
            [r.image_id for r in records],
            np.array([r.category_id for r in records]),
            corners.reshape(-1, 4),
            np.array([r.confidence for r in records], dtype=np.float64) if scored else None,
        )

    @classmethod
    def from_annotations(cls, annotations: AnnotationColumns) -> "BoxColumns":
        """The ground truths of ``dataset.read_annotation_columns``, in
        file order: the columns of its records, whose clamped corners are
        finite doubles, without building them; the corners are copied from
        the reader's ``array('d')`` buffer."""
        return cls(
            annotations.image_id,
            np.array(annotations.category_id),
            np.array(annotations.corners, dtype=np.float64).reshape(-1, 4),
        )


def _image_codes(det_ids: list[str], gt_ids: list[str]) -> tuple[np.ndarray, np.ndarray, int]:
    """Each row's image as its rank among the distinct image ids of both
    lists, in ``sorted`` order, and the number of distinct ids."""
    ids = sorted(set(det_ids).union(gt_ids))
    rank = dict(zip(ids, range(len(ids))))
    return (
        np.fromiter(map(rank.__getitem__, det_ids), np.intp, len(det_ids)),
        np.fromiter(map(rank.__getitem__, gt_ids), np.intp, len(gt_ids)),
        len(ids),
    )


def _walk(dets: BoxColumns, gts: BoxColumns, codes: tuple[np.ndarray, np.ndarray, int]):
    """The images in the order of their ``_image_codes``, gathered until a
    block holds ``_BLOCK_PAIRS`` same-image pairs. Yields per block the rows
    of its detections, in processing order (descending confidence, ties in
    input order), and of its ground truths, in input order, image after
    image; the index arrays into those of its pairs, listed by detection,
    ground truths ascending; and each pair's IoU."""
    det_code, gt_code, n_images = codes
    det_rows = np.lexsort((-dets.confidence, det_code))
    gt_rows = np.argsort(gt_code, kind="stable")
    a, b = dets.corners[det_rows], gts.corners[gt_rows]
    n_det = np.bincount(det_code, minlength=n_images)
    n_gt = np.bincount(gt_code, minlength=n_images)
    # Per image, the pairs, detections and ground truths of the images before it.
    pairs_before = np.concatenate(([0], np.cumsum(n_det * n_gt)))
    det_before = [0, *np.cumsum(n_det).tolist()]
    gt_before = [0, *np.cumsum(n_gt).tolist()]
    start = 0
    while start < n_images:
        # The block ends with the image at which its pairs reach the budget.
        stop = int(np.searchsorted(pairs_before, pairs_before[start] + _BLOCK_PAIRS))
        stop = min(stop, n_images)
        d0, d1, g0, g1 = det_before[start], det_before[stop], gt_before[start], gt_before[stop]
        pair_det, pair_gt = _pairs(n_det[start:stop], n_gt[start:stop])
        overlap = _block_iou(a[d0:d1], b[g0:g1], pair_det, pair_gt)
        yield det_rows[d0:d1], gt_rows[g0:g1], pair_det, pair_gt, overlap
        start = stop


def _pairs(n_det: np.ndarray, n_gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(detection, ground truth) indices of every same-image pair of images
    holding ``n_det`` detections and ``n_gt`` ground truths each."""
    per_det = np.repeat(n_gt, n_det)  # the ground truths beside each detection
    first_gt = np.repeat(np.cumsum(n_gt) - n_gt, n_det)
    pair_det = np.repeat(np.arange(per_det.size), per_det)
    offset = np.arange(pair_det.size) - np.repeat(np.cumsum(per_det) - per_det, per_det)
    return pair_det, first_gt[pair_det] + offset


def _block_iou(
    a: np.ndarray, b: np.ndarray, pair_det: np.ndarray, pair_gt: np.ndarray
) -> np.ndarray:
    """``iou`` of corner rows ``a[i]`` and ``b[j]`` for each pair (i, j), bit
    for bit for finite corners, overflows to infinity included: ``boxes.iou``'s
    operations in its order, each one array pass."""
    ax1, ay1, ax2, ay2 = a.T
    bx1, by1, bx2, by2 = b.T
    with np.errstate(over="ignore", invalid="ignore"):
        iw = np.minimum(ax2[pair_det], bx2[pair_gt]) - np.maximum(ax1[pair_det], bx1[pair_gt])
        ih = np.minimum(ay2[pair_det], by2[pair_gt]) - np.maximum(ay1[pair_det], by1[pair_gt])
        inter = np.where((iw <= 0.0) | (ih <= 0.0), 0.0, iw * ih)
        union = ((ax2 - ax1) * (ay2 - ay1))[pair_det] + ((bx2 - bx1) * (by2 - by1))[pair_gt] - inter
        return np.divide(inter, union, out=np.zeros_like(union), where=~(union <= 0.0))


def _resolve(det_key: np.ndarray, gt_key: np.ndarray, overlap: np.ndarray) -> np.ndarray:
    """The positions of the candidate pairs that the greedy rule takes:
    each detection takes the still-free ground truth of highest IoU, the
    first on ties. The pairs come by detection key, in
    processing order, ground truths ascending, each at or above its IoU
    threshold. Each round resolves every detection that no earlier
    unresolved one contends with for any of its ground truths, then drops
    the ground truths taken; the first unresolved one always resolves."""
    live, won = np.arange(det_key.size), [np.empty(0, dtype=np.intp)]
    first = np.empty(int(gt_key.max(initial=-1)) + 1, dtype=det_key.dtype)
    free = np.ones(first.size, dtype=bool)
    while live.size:
        d, g = det_key[live], gt_key[live]
        first[g] = d[-1]  # then the first detection still holding each ground truth
        np.minimum.at(first, g, d)
        blocked = np.zeros(d[-1] + 1, dtype=bool)
        blocked[d[first[g] < d]] = True
        final = ~blocked[d]
        # Per final detection, its first pair at its highest IoU.
        fd, fo = d[final], overlap[live[final]]
        top = np.zeros(d[-1] + 1)
        np.maximum.at(top, fd, fo)
        best = np.flatnonzero(fo == top[fd])
        won.append(live[final][best[np.append(True, fd[best[1:]] != fd[best[:-1]])]])
        free[gt_key[won[-1]]] = False
        live = live[~final & free[g]]
    return np.concatenate(won)


@dataclass(frozen=True)
class _CategorySweep:
    """One category's grid101 AP at each threshold of an engine run and, at
    its first threshold, its trapezoid AP and ``pr_curve``'s columns."""

    aps: tuple[float, ...]
    trapezoid: float
    confidence: np.ndarray  # the detections' confidences, in pr_curve's order
    cum_tp: np.ndarray
    curve: PrCurve


def _sweep(category_id: int, hits: np.ndarray, confidence: np.ndarray, n_gt: int) -> _CategorySweep:
    """``average_precision`` of one category's curve at each threshold, from
    its detections' TP flags (a row per threshold, a column per detection)
    and confidences in ``pr_curve``'s order."""
    cum_tp = np.cumsum(hits, axis=1)
    recalls = cum_tp / n_gt
    precisions = cum_tp / np.arange(1, hits.shape[1] + 1)  # precision(cum_tp, rank - cum_tp)
    aps, trapezoid = _ap_areas(recalls, precisions)
    curve = PrCurve(category_id, tuple(recalls[0].tolist()), tuple(precisions[0].tolist()))
    return _CategorySweep(aps, trapezoid, confidence, cum_tp[0], curve)


def _evaluate(
    detections: Sequence[Detection] | BoxColumns,
    ground_truths: Sequence[GroundTruth] | BoxColumns,
    config: MatchConfig,
    categories: Iterable[int] | None,
    thresholds: tuple[float, ...],
    one_image: bool = False,
) -> tuple[tuple[int, ...], list[list[int]], dict[int, _CategorySweep], np.ndarray]:
    """The one matching pass behind every count and AP: the categories, the
    confusion grid at ``config``'s operating point, for each category with
    ground truths, ascending, its sweep over ``thresholds`` (any number, in
    any order; none skips the sweeps) and per detection the
    ground truth the operating point gave it, -1 for none. ``one_image``
    reads all records as one image. See ``evaluate_corpus``."""
    if not isinstance(detections, BoxColumns):
        detections = BoxColumns.from_records(detections, scored=True)
    gts = ground_truths
    if not isinstance(gts, BoxColumns):
        gts = BoxColumns.from_records(gts)
    ids = detections.image_id, gts.image_id
    codes = _image_codes(*([0] * len(i) for i in ids) if one_image else ids)
    det_cats, gt_cats = detections.category_id.tolist(), gts.category_id.tolist()
    known = set(categories) if categories is not None else set(gt_cats).union(det_cats)
    cats = tuple(sorted(known))
    if not (known.issuperset(det_cats) and known.issuperset(gt_cats)):
        # The walk's image order; in each image the detections ("detection"
        # sorts first), then the ground truths, each in input order (min
        # keeps the first of equal keys).
        listed = [(im, "detection", c) for im, c in zip(codes[0].tolist(), det_cats)]
        listed += [(im, "ground truth", c) for im, c in zip(codes[1].tolist(), gt_cats)]
        _, what, cat = min((r for r in listed if r[2] not in known), key=lambda r: r[:2])
        raise CategoryError(f"{what} references unknown category {cat}")
    _require_finite("detection", detections)
    _require_finite("ground truth", gts)
    n = len(cats)
    cat_ids = np.array(cats)
    det_index = np.searchsorted(cat_ids, detections.category_id)
    gt_index = np.searchsorted(cat_ids, gts.category_id)
    grid = np.zeros((n + 1) * (n + 1), dtype=np.int64)
    # Per detection in walk order; empty starts, so an empty corpus concatenates.
    confidences = [np.empty(0)]
    walk_cats = [np.empty(0, dtype=np.intp)]
    det_hits = [np.empty((len(thresholds), 0), dtype=bool)]
    matched = np.full(len(detections.image_id), -1)
    for det_rows, gt_rows, pair_det, pair_gt, overlap in _walk(detections, gts, codes):
        conf = detections.confidence[det_rows]
        dcat = det_index[det_rows]
        gcat = gt_index[gt_rows]

        # Greedy passes, each with its own detection and ground-truth keys:
        # the operating point (any-category pairs of the retained
        # detections), then the same-category pairs at each threshold, each
        # filtered from all of them, as the thresholds need not ascend.
        retained = conf >= config.confidence_threshold
        candidates = [np.flatnonzero((overlap >= config.iou_threshold) & retained[pair_det])]
        same = np.flatnonzero(dcat[pair_det] == gcat[pair_gt])
        same_overlap = overlap[same]
        candidates += [same[same_overlap >= threshold] for threshold in thresholds]
        passes = np.repeat(np.arange(len(candidates)), [c.size for c in candidates])
        pairs = np.concatenate(candidates)
        det_key = passes * det_rows.size + pair_det[pairs]
        won = _resolve(det_key, passes * gt_rows.size + pair_gt[pairs], overlap[pairs])
        hits = pairs[won[passes[won] == 0]]
        matched[det_rows[pair_det[hits]]] = gt_rows[pair_gt[hits]]
        true_row = np.full(det_rows.size, n)  # background unless matched
        true_row[pair_det[hits]] = gcat[pair_gt[hits]]
        free = np.ones(gt_rows.size, dtype=bool)
        free[pair_gt[hits]] = False
        cells = np.concatenate(
            (true_row[retained] * (n + 1) + dcat[retained], gcat[free] * (n + 1) + n)
        )
        np.add.at(grid, cells, 1)  # no grid-sized temporary per block

        # AP sweep: per threshold, whether each detection is a TP at it.
        hit = np.zeros((len(thresholds), det_rows.size), dtype=bool)
        swept = won[passes[won] > 0]
        hit[passes[swept] - 1, pair_det[pairs[swept]]] = True
        confidences.append(conf)
        walk_cats.append(dcat)
        det_hits.append(hit)

    counts = grid.reshape(n + 1, n + 1).tolist()
    dcat = np.concatenate(walk_cats)
    confidence = np.concatenate(confidences)
    # pr_curve's order per category: descending confidence, ties in walk order.
    order = np.lexsort((-confidence, dcat))
    hits, confidence = np.concatenate(det_hits, axis=1)[:, order], confidence[order]
    bounds = [0, *np.cumsum(np.bincount(dcat, minlength=n)).tolist()]
    sweeps = {}
    for c, cat in enumerate(cats):
        lo, hi, n_gt = bounds[c], bounds[c + 1], sum(counts[c])
        if n_gt and thresholds:
            sweeps[cat] = _sweep(cat, hits[:, lo:hi], confidence[lo:hi], n_gt)
    return cats, counts, sweeps, matched


def _require_finite(what: str, columns: BoxColumns) -> None:
    """EvalError naming the first row of ``columns`` with a corner that is
    not a finite double."""
    bad = np.flatnonzero(~np.isfinite(columns.corners).all(axis=1)).tolist()
    if bad:
        i = bad[0]
        raise EvalError(f"{what} {i} in image {columns.image_id[i]!r}: a corner is not a finite double")


def evaluate_corpus(
    detections: Sequence[Detection] | BoxColumns,
    ground_truths: Sequence[GroundTruth] | BoxColumns,
    config: MatchConfig | None = None,
    categories: Iterable[int] | None = None,
) -> CorpusMetrics:
    """Full evaluation: per-category AP and operating-point counts, mAP50,
    mAP50-95, the confusion matrix and the IoU-0.5 PR curves. The
    detections come as records or as the columns ``read_detection_columns``
    gives, the ground truths as records or as the columns
    ``BoxColumns.from_annotations`` gives; records are turned into the same
    columns. The metrics depend only on the order of the ground truths
    within each image.

    It runs the engine, ``_evaluate``, at MAP_RANGE_THRESHOLDS. One walk
    over the images in sorted id order, in blocks, computes each same-image
    detection x ground-truth IoU once, and ``_resolve`` matches a block's
    greedy passes at once. The operating point at ``config`` fills the
    confusion grid, whose diagonal and margins give the tp/fp/fn counts.
    The same-category pairs, one pass per threshold, give each detection a
    TP flag per threshold, from which ``_sweep`` takes AP, mAP and the
    curves. Greedy matching never lets two images or two categories share
    a ground truth, so one pass over a block equals one per (image,
    category).

    ``match_detections``, ``match_corpus``, ``pr_curve``,
    ``per_category_ap`` and ``map_over_iou_range`` run on the same engine,
    and ``average_precision`` on ``_sweep``'s ``_ap_areas``. The per-image
    greedy loop and AP definition are the test oracle in
    ``tests/reference_evaluation.py``; the engine equals it, value for
    value, on the boxes as doubles. Raises the oracle's CategoryError, then
    EvalError for the first detection, else ground truth, with a corner
    that is not a finite double.
    """
    cats, counts, sweeps, _ = _evaluate(
        detections, ground_truths, config or MatchConfig(), categories, MAP_RANGE_THRESHOLDS
    )
    retained_total = [sum(column) for column in zip(*counts)]
    rows = []
    for c, cat in enumerate(cats):
        tp = counts[c][c]
        fp = retained_total[c] - tp
        fn = sum(counts[c]) - tp
        if not (tp or fp or fn):
            continue
        sweep = sweeps.get(cat)
        rows.append(
            CategoryMetrics(
                category_id=cat,
                ap=sweep.aps[0] if sweep else 0.0,
                ap_trapezoid=sweep.trapezoid if sweep else 0.0,
                tp=tp,
                fp=fp,
                fn=fn,
                precision=precision(tp, fp),
                recall=recall(tp, fn),
            )
        )
    map50 = map50_95 = 0.0
    if sweeps:
        per_threshold = [
            mean_average_precision({cat: s.aps[i] for cat, s in sweeps.items()})
            for i in range(len(MAP_RANGE_THRESHOLDS))
        ]
        map50 = per_threshold[0]
        map50_95 = _running_sum(per_threshold) / len(per_threshold)
    return CorpusMetrics(
        per_category=tuple(rows),
        map50=map50,
        map50_95=map50_95,
        confusion=ConfusionMatrix(cats, tuple(map(tuple, counts))),
        pr_curves=tuple(s.curve for s in sweeps.values()),
    )


def pr_curve(
    detections: Sequence[Detection],
    ground_truths: Sequence[GroundTruth],
    config: MatchConfig | None = None,
) -> list[PrPoint]:
    """Cumulative precision/recall table for one category across the
    corpus, a point per detection by descending confidence (ties in image
    id order, then input order): the engine at ``config``'s IoU threshold.

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
    _, _, sweeps, _ = _evaluate(detections, ground_truths, config, None, (config.iou_threshold,))
    (sweep,) = sweeps.values()
    curve = sweep.curve
    columns = zip(sweep.confidence.tolist(), sweep.cum_tp.tolist(), curve.precision, curve.recall)
    return [PrPoint(c, tp, rank - tp, p, r) for rank, (c, tp, p, r) in enumerate(columns, 1)]


def per_category_ap(
    detections: Sequence[Detection],
    ground_truths: Sequence[GroundTruth],
    config: MatchConfig | None = None,
    mode: str = "grid101",
) -> dict[int, float]:
    """AP per category with at least one ground truth, at ``config``'s IoU
    threshold; others are excluded."""
    if mode not in ("grid101", "trapezoid"):
        raise ConfigError(f"unknown AP mode {mode!r}")
    config = config or MatchConfig()
    _, _, sweeps, _ = _evaluate(detections, ground_truths, config, None, (config.iou_threshold,))
    return {cat: s.aps[0] if mode == "grid101" else s.trapezoid for cat, s in sweeps.items()}


def map_over_iou_range(
    detections: Sequence[Detection],
    ground_truths: Sequence[GroundTruth],
    thresholds: Sequence[float] = MAP_RANGE_THRESHOLDS,
    config: MatchConfig | None = None,
) -> float:
    """Mean of mAP evaluated at each IoU threshold (default 0.50..0.95), in
    the order given, from one engine run. The run keeps a TP flag per
    detection and threshold, so its memory per block grows with the number
    of thresholds: ten by default, as in ``evaluate_corpus``."""
    if not thresholds:
        raise ConfigError("thresholds must be non-empty")
    for t in thresholds:
        if not 0.0 < t < 1.0:
            raise ConfigError(f"IoU threshold {t} outside (0, 1)")
    thresholds = tuple(thresholds)
    _, _, sweeps, _ = _evaluate(detections, ground_truths, config or MatchConfig(), None, thresholds)
    values = [
        mean_average_precision({cat: s.aps[i] for cat, s in sweeps.items()})
        for i in range(len(thresholds))
    ]
    return _running_sum(values) / len(values)


DETECTIONS_CSV_HEADER = ["image_id", "category_id", "confidence", "x1", "y1", "x2", "y2"]


def read_detections_csv(stream: IO[str]) -> list[Detection]:
    reader = csv.reader(stream)
    # One pass, each row checked in order: its field count, then the
    # conversions (category, confidence, x1, y1, x2, y2), the confidence
    # range and the finite corners. The detections and their boxes are tens
    # of thousands of objects with no reference cycles.
    detections: list[Detection] = []
    append = detections.append
    isfinite = math.isfinite
    try:
        header = next(reader, None)
        if header is None:
            raise FormatError("detections CSV is empty (missing header)")
        if [h.strip() for h in header] != DETECTIONS_CSV_HEADER:
            raise FormatError(f"detections CSV header {header!r} != {DETECTIONS_CSV_HEADER!r}")
        end = reader.line_num  # the last line read
        with collector_paused():
            for row in reader:
                # A message names the line where the record starts: a quoted
                # field may hold line breaks.
                lineno, end = end + 1, reader.line_num
                if not row:
                    continue
                try:
                    image_id, category_id, confidence, x1, y1, x2, y2 = row
                except ValueError:
                    raise FormatError(f"line {lineno}: expected 7 fields, got {len(row)}") from None
                try:
                    category_id = int(category_id)
                    confidence = float(confidence)
                    x1 = float(x1)
                    y1 = float(y1)
                    x2 = float(x2)
                    y2 = float(y2)
                except ValueError as exc:
                    raise FormatError(f"line {lineno}: {exc}") from exc
                if not 0.0 <= confidence <= 1.0:
                    raise FormatError(f"line {lineno}: confidence {confidence} outside [0, 1]")
                # A finite sum means four finite corners; four finite ones can
                # still overflow it, so only then is each corner checked.
                if not isfinite(x1 + y1 + x2 + y2) and not (
                    isfinite(x1) and isfinite(y1) and isfinite(x2) and isfinite(y2)
                ):
                    raise FormatError(f"line {lineno}: non-finite coordinate")
                # Corners in order as BoundingBox.normalized() puts them, one box built.
                if x2 < x1:
                    x1, x2 = x2, x1
                if y2 < y1:
                    y1, y2 = y2, y1
                append(Detection(BoundingBox(x1, y1, x2, y2), category_id, confidence, image_id))
    except csv.Error as exc:  # a field past csv's size limit, a lone CR, ...
        raise FormatError(f"line {reader.line_num}: {exc}") from None
    return detections


# A row as loadtxt reads it. The id leads the row, as bytes (the text is
# ASCII), and loadtxt cuts it at _ID_WIDTH.
_ID_WIDTH = 32
_CSV_ROW = np.dtype(
    [
        ("image_id", f"S{_ID_WIDTH}"),
        ("category_id", "i8"),
        ("confidence", "f8"),
        ("corners", "f8", (4,)),
    ]
)
# Characters loadtxt reads otherwise than the row loop: a quote (loadtxt
# knows no CSV quoting), a NUL (it ends an id) and the separators
# \x1c-\x1f (whitespace to loadtxt, not to int() and float()). Non-ASCII
# text goes the row loop too: loadtxt takes digits such as "①" that int()
# rejects.
_ROW_LOOP_ONLY = '"\x00\x1c\x1d\x1e\x1f'


def read_detection_columns(stream: IO[str]) -> BoxColumns:
    """``read_detections_csv`` as columns, from the stream's text read
    whole and split into lines as ``newline=""`` splits them.

    After the header check, ``np.loadtxt`` parses the body, and the
    confidence range, the finite corners and the id width are checked as
    array passes. Text that loadtxt could read otherwise than the row loop,
    a loadtxt error and a row that fails a check all send the text through
    ``read_detections_csv``, which stays the definition and gives every
    error message."""
    text = stream.read()
    columns = _loadtxt_columns(text)
    if columns is None:
        detections = read_detections_csv(io.StringIO(text, newline=""))
        columns = BoxColumns.from_records(detections, scored=True)
    return columns


def _loadtxt_columns(text: str) -> BoxColumns | None:
    header, _, body = text.partition("\n")
    if not (
        text.isascii()
        and not any(c in text for c in _ROW_LOOP_ONLY)
        and "\r" not in header[:-1]  # csv ends the header at a CR, unless a CRLF
        and body.strip("\r\n")  # loadtxt warns on a body without rows
        and [h.strip() for h in header.split(",")] == DETECTIONS_CSV_HEADER
    ):
        return None
    try:
        # numpy 1.x reads an integer written as a float ("1.0", "2.5") by
        # truncating it, with a DeprecationWarning; int() rejects it.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            # From bytes: a str stream would hold the body as 4-byte code points.
            rows = np.loadtxt(
                io.BytesIO(body.encode()),
                dtype=_CSV_ROW,
                delimiter=",",
                comments=None,
                quotechar=None,
                ndmin=1,
            )
    except (ValueError, DeprecationWarning):
        return None
    confidence, corners = rows["confidence"], rows["corners"]
    # An id of _ID_WIDTH characters may have been cut: its last byte is not NUL.
    cut = rows.view(np.uint8).reshape(rows.size, -1)[:, _ID_WIDTH - 1].any()
    in_range = ((confidence >= 0.0) & (confidence <= 1.0)).all()
    if cut or not in_range or not np.isfinite(corners).all():
        return None
    # The row loop's corner order: a pair is swapped only where x2 < x1
    # (y2 < y1), so a -0.0 stays where it was read.
    first, second = corners[:, :2], corners[:, 2:]
    swap = second < first
    ordered = np.hstack((np.where(swap, second, first), np.where(swap, first, second)))
    ids = list(map(bytes.decode, rows["image_id"].tolist()))
    return BoxColumns(ids, rows["category_id"], ordered, confidence)


def write_metrics_csv(metrics: CorpusMetrics, stream: IO[str]) -> None:
    """Per-category rows then the mAP summary lines."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["category_id", "ap", "precision", "recall", "tp", "fp", "fn"])
    for row in metrics.per_category:
        writer.writerow(
            [
                row.category_id,
                f"{row.ap:.12g}",
                f"{row.precision:.12g}",
                f"{row.recall:.12g}",
                row.tp,
                row.fp,
                row.fn,
            ]
        )
    writer.writerow(["mAP50", f"{metrics.map50:.12g}"])
    writer.writerow(["mAP50-95", f"{metrics.map50_95:.12g}"])


def write_ap_modes_csv(metrics: CorpusMetrics, stream: IO[str]) -> None:
    """Primary (101-point) vs secondary (trapezoidal) AP, side by side."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["category_id", "ap_grid101", "ap_trapezoid"])
    for row in metrics.per_category:
        writer.writerow([row.category_id, f"{row.ap:.12g}", f"{row.ap_trapezoid:.12g}"])
