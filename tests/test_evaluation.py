import builtins
import csv
import gc
import io
import math
import random
from collections import Counter, defaultdict

import pytest
import reference_evaluation as ref
from hypothesis import given, settings

from trapeval import evaluation
from trapeval.boxes import BoundingBox, Detection, GroundTruth, iou
from trapeval.errors import CategoryError, EvalError, FormatError, TrapevalError
from trapeval.dataset import parse_annotations, read_annotation_columns
from trapeval.evaluation import (
    BoxColumns,
    ConfusionMatrix,
    MatchConfig,
    average_precision,
    confusion_matrix,
    evaluate_corpus,
    map_over_iou_range,
    match_corpus,
    match_detections,
    mean_average_precision,
    per_category_ap,
    pr_curve,
    precision,
    read_detection_columns,
    read_detections_csv,
    recall,
    write_metrics_csv,
    PrPoint,
)

from conftest import mutants, random_box, synthetic_instance

B = BoundingBox


def det(box, cat=0, conf=0.9, image="im0"):
    return Detection(box, cat, conf, image)


def gt(box, cat=0, image="im0"):
    return GroundTruth(box, cat, image)


def tp_fp(outcome):
    """The outcome's true and false positive counts."""
    tp = sum(f.is_tp for f in outcome.flags)
    return tp, len(outcome.flags) - tp


# --- matching -------------------------------------------------------------------

def test_match_single_true_positive():
    outcome = match_detections([det(B(0, 0, 2, 2))], [gt(B(0, 0, 2, 2))])
    assert tp_fp(outcome) == (1, 0)
    assert outcome.unmatched_gt_indices == ()


def test_match_no_detections_all_fn():
    outcome = match_detections([], [gt(B(0, 0, 1, 1)), gt(B(2, 2, 3, 3))])
    assert tp_fp(outcome) == (0, 0)
    assert outcome.unmatched_gt_indices == (0, 1)


def test_match_discards_low_confidence():
    outcome = match_detections(
        [det(B(0, 0, 2, 2), conf=0.1)], [gt(B(0, 0, 2, 2))], MatchConfig(0.45, 0.25)
    )
    assert outcome.flags == ()
    assert outcome.unmatched_gt_indices == (0,)


def test_match_cross_category_counts_fp_but_consumes_gt():
    outcome = match_detections([det(B(0, 0, 2, 2), cat=1)], [gt(B(0, 0, 2, 2), cat=2)])
    assert tp_fp(outcome) == (0, 1)
    assert outcome.flags[0].matched_gt_index == 0
    assert outcome.unmatched_gt_indices == ()


def test_match_one_to_one_consumption():
    detections = [det(B(0, 0, 2, 2), conf=0.9), det(B(0, 0, 2, 2), conf=0.8)]
    outcome = match_detections(detections, [gt(B(0, 0, 2, 2))])
    assert tp_fp(outcome) == (1, 1)


def test_match_unknown_category_rejected():
    with pytest.raises(CategoryError):
        match_detections([det(B(0, 0, 1, 1), cat=9)], [], categories=[0, 1])
    with pytest.raises(CategoryError):
        match_detections([], [gt(B(0, 0, 1, 1), cat=9)], categories=[0, 1])


def _slow_iou(a, b):
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (a.x2 - a.x1) * (a.y2 - a.y1) + (b.x2 - b.x1) * (b.y2 - b.y1) - inter
    return inter / union if union > 0 else 0.0


def _slow_match(detections, ground_truths, config):
    """Independent re-statement of the greedy rule with plain loops."""
    order = sorted(
        [i for i, d in enumerate(detections) if d.confidence >= config.confidence_threshold],
        key=lambda i: (-detections[i].confidence, i),
    )
    taken = [False] * len(ground_truths)
    flags = []
    for i in order:
        best, best_iou = None, 0.0
        for j, g in enumerate(ground_truths):
            if taken[j]:
                continue
            value = _slow_iou(detections[i].box, g.box)
            if value >= config.iou_threshold and value > best_iou:
                best, best_iou = j, value
        if best is None:
            flags.append((i, False, None))
        else:
            taken[best] = True
            flags.append((i, detections[i].category_id == ground_truths[best].category_id, best))
    fn = tuple(j for j, used in enumerate(taken) if not used)
    return flags, fn


def test_match_agrees_with_exhaustive_oracle():
    rng = random.Random(2024)
    config = MatchConfig(0.45, 0.25)
    for _ in range(300):
        dets, gts = synthetic_instance(rng, images=1)
        outcome = match_detections(dets, gts, config)
        flags, fn = _slow_match(dets, gts, config)
        assert [(f.detection_index, f.is_tp, f.matched_gt_index) for f in outcome.flags] == flags
        assert outcome.unmatched_gt_indices == fn


# --- precision / recall -----------------------------------------------------------

@pytest.mark.parametrize(
    "tp,fp,expected", [(2, 0, 1.0), (0, 5, 0.0), (3, 1, 0.75), (0, 0, 1.0)]
)
def test_precision_values(tp, fp, expected):
    assert precision(tp, fp) == expected


@pytest.mark.parametrize(
    "tp,fn,expected", [(2, 0, 1.0), (0, 4, 0.0), (3, 1, 0.75), (0, 0, 0.0)]
)
def test_recall_values(tp, fn, expected):
    assert recall(tp, fn) == expected


def test_counts_must_be_nonnegative():
    with pytest.raises(ValueError):
        precision(-1, 0)
    with pytest.raises(ValueError):
        recall(0, -2)


# --- PR curve ----------------------------------------------------------------------

def test_pr_curve_single_true_positive():
    curve = pr_curve([det(B(0, 0, 2, 2), conf=0.8)], [gt(B(0, 0, 2, 2))])
    assert len(curve) == 1
    point = curve[0]
    assert (point.precision, point.recall) == (1.0, 1.0)
    assert (point.cum_tp, point.cum_fp) == (1, 0)


def test_pr_curve_all_false_positives():
    detections = [det(B(10, 10, 11, 11), conf=c) for c in (0.9, 0.5, 0.3)]
    curve = pr_curve(detections, [gt(B(0, 0, 1, 1))])
    assert all(p.precision == 0.0 for p in curve)
    assert all(p.recall == 0.0 for p in curve)


def test_pr_curve_ignores_confidence_threshold():
    detections = [det(B(0, 0, 2, 2), conf=0.05)]
    curve = pr_curve(detections, [gt(B(0, 0, 2, 2))], MatchConfig(0.45, 0.9))
    assert len(curve) == 1 and curve[0].cum_tp == 1


def test_pr_curve_requires_ground_truth_and_one_category():
    with pytest.raises(EvalError):
        pr_curve([det(B(0, 0, 1, 1))], [])
    with pytest.raises(EvalError):
        pr_curve([det(B(0, 0, 1, 1), cat=0)], [gt(B(0, 0, 1, 1), cat=1)])


def test_pr_curve_cumulative_columns_match_running_sums():
    rng = random.Random(7)
    for _ in range(50):
        dets, gts = synthetic_instance(rng, max_categories=1, images=3)
        if not gts:
            continue
        curve = pr_curve(dets, gts, MatchConfig(0.45, 0.25))
        # spreadsheet-style recompute: flags sorted by confidence
        tp = fp = 0
        assert [p.confidence for p in curve] == sorted(
            (p.confidence for p in curve), reverse=True
        )
        for point in curve:
            delta_tp = point.cum_tp - tp
            delta_fp = point.cum_fp - fp
            assert (delta_tp, delta_fp) in ((1, 0), (0, 1))
            tp, fp = point.cum_tp, point.cum_fp
            assert point.precision == pytest.approx(tp / (tp + fp))
            assert point.recall == pytest.approx(tp / len(gts))


def test_recall_non_decreasing_as_confidence_drops():
    rng = random.Random(11)
    for _ in range(30):
        dets, gts = synthetic_instance(rng, max_categories=1, images=2)
        if not gts or not dets:
            continue
        curve = pr_curve(dets, gts)
        recalls = [p.recall for p in curve]
        assert recalls == sorted(recalls)


# --- interpolation and AP -------------------------------------------------------------

def point(recall_value, precision_value):
    return PrPoint(0.5, 0, 0, precision_value, recall_value)


def test_interpolated_precision_example():
    curve = [point(0.2, 1.0), point(0.5, 0.6), point(0.5, 0.8)]
    interp = ref.interpolate_precision(curve)
    assert interp(0.3) == 0.8
    assert interp(0.0) == 1.0
    assert interp(0.51) == 0.0


def test_interpolation_envelope_non_increasing():
    curve = [point(r / 10, p) for r, p in enumerate((1.0, 0.4, 0.9, 0.2, 0.7, 0.1))]
    interp = ref.interpolate_precision(curve)
    samples = [interp(r / 100) for r in range(101)]
    assert samples == sorted(samples, reverse=True)


def test_interpolation_requires_points():
    with pytest.raises(ValueError):
        ref.interpolate_precision([])


def test_average_precision_perfect_and_zero():
    perfect = pr_curve([det(B(0, 0, 2, 2), conf=1.0)], [gt(B(0, 0, 2, 2))])
    assert average_precision(perfect) == 1.0
    assert average_precision(perfect, mode="trapezoid") == 1.0
    missed = pr_curve([det(B(9, 9, 10, 10), conf=0.8)], [gt(B(0, 0, 1, 1))])
    assert average_precision(missed) == 0.0
    assert average_precision([]) == 0.0
    with pytest.raises(ValueError):
        average_precision(perfect, mode="simpson")


def _oracle_ap_from_curve(curve):
    total = 0.0
    for k in range(101):
        r = k / 100.0
        best = 0.0
        for p in curve:
            if p.recall >= r and p.precision > best:
                best = p.precision
        total += best
    return total / 101.0


def test_average_precision_matches_definition_scan():
    rng = random.Random(99)
    checked = 0
    while checked < 100:
        dets, gts = synthetic_instance(rng, max_categories=1, images=2)
        if not gts:
            continue
        curve = pr_curve(dets, gts)
        assert average_precision(curve) == pytest.approx(
            _oracle_ap_from_curve(curve), abs=1e-12
        )
        checked += 1


def test_average_precision_invariant_under_order_preserving_rescale():
    rng = random.Random(13)
    for _ in range(40):
        dets, gts = synthetic_instance(rng, max_categories=1, images=2)
        if not gts or len(dets) < 2:
            continue
        confidences = sorted({d.confidence for d in dets}, reverse=True)
        rank = {c: i for i, c in enumerate(confidences)}
        squeezed = [
            Detection(d.box, d.category_id, 1.0 - rank[d.confidence] * (0.5 / len(dets)), d.image_id)
            for d in dets
        ]
        original = average_precision(pr_curve(dets, gts))
        rescaled = average_precision(pr_curve(squeezed, gts))
        assert rescaled == pytest.approx(original, abs=1e-12)


# --- mAP -------------------------------------------------------------------------------

def test_mean_average_precision_examples():
    assert mean_average_precision({1: 1.0}) == 1.0
    assert mean_average_precision({1: 1.0, 2: 0.0}) == 0.5
    synthetic = {c: (c % 5) / 4 for c in range(16)}
    assert mean_average_precision(synthetic) == pytest.approx(
        sum(synthetic.values()) / 16
    )
    with pytest.raises(EvalError):
        mean_average_precision({})


def test_per_category_ap_excludes_categories_without_ground_truth():
    dets = [det(B(0, 0, 2, 2), cat=1, conf=0.9), det(B(5, 5, 6, 6), cat=2, conf=0.8)]
    gts = [gt(B(0, 0, 2, 2), cat=1)]
    aps = per_category_ap(dets, gts, MatchConfig(0.5, 0.25))
    assert set(aps) == {1}
    assert aps[1] == 1.0


def test_map_over_iou_range_perfect_detector():
    dets = [det(B(0, 0, 2, 2), cat=1, conf=1.0)]
    gts = [gt(B(0, 0, 2, 2), cat=1)]
    assert map_over_iou_range(dets, gts) == 1.0
    assert map_over_iou_range(dets, gts, thresholds=[0.5]) == mean_average_precision(
        per_category_ap(dets, gts, MatchConfig(0.5, 0.25))
    )
    with pytest.raises(ValueError):
        map_over_iou_range(dets, gts, thresholds=[])
    with pytest.raises(ValueError):
        map_over_iou_range(dets, gts, thresholds=[1.5])


def test_map_over_iou_range_steps_with_overlap_quality():
    # detection boxes overlap their targets at IoU exactly 0.6
    gts = [gt(B(0, 0, 10, 10), cat=0, image=f"im{i}") for i in range(3)]
    dets = [det(B(0, 0, 10, 6), cat=0, conf=0.9, image=f"im{i}") for i in range(3)]
    ap50 = mean_average_precision(per_category_ap(dets, gts, MatchConfig(0.5, 0.25)))
    value = map_over_iou_range(dets, gts)
    assert value == pytest.approx(0.3 * ap50, abs=1e-12)


# --- confusion matrix ---------------------------------------------------------------

def test_confusion_matrix_perfect_corpus():
    dets = [det(B(0, 0, 2, 2), cat=1), det(B(4, 4, 6, 6), cat=2, conf=0.8)]
    gts = [gt(B(0, 0, 2, 2), cat=1), gt(B(4, 4, 6, 6), cat=2)]
    outcomes = match_corpus(dets, gts)
    matrix = confusion_matrix(outcomes, [1, 2])
    assert matrix.cell(1, 1) == 1 and matrix.cell(2, 2) == 1
    assert matrix.cell(None, 1) == 0 and matrix.cell(1, None) == 0


def test_confusion_matrix_cell_names_a_category_it_does_not_hold():
    matrix = ConfusionMatrix((1, 2), ((0,) * 3,) * 3)
    for true_category, predicted in ((99, None), (None, 99), (1, 99)):
        with pytest.raises(CategoryError, match=r"^category 99 is not in the confusion matrix \(1, 2\)$"):
            matrix.cell(true_category, predicted)


def test_confusion_matrix_names_a_category_it_was_not_given():
    dets = [det(B(0, 0, 2, 2), cat=1), det(B(4, 4, 6, 6), cat=2, conf=0.8)]
    gts = [gt(B(0, 0, 2, 2), cat=1), gt(B(8, 8, 9, 9), cat=3)]
    outcomes = match_corpus(dets, gts)
    with pytest.raises(CategoryError, match=r"^detection category 2 not configured$"):
        confusion_matrix(outcomes, [1, 3])
    with pytest.raises(CategoryError, match=r"^ground-truth category 3 not configured$"):
        confusion_matrix(outcomes, [1, 2])
    # A detection that took a ground truth of an unconfigured category.
    matched = match_corpus([Detection(B(0, 0, 2, 2), 1, 0.9, "a")], [GroundTruth(B(0, 0, 2, 2), 3, "a")])
    assert matched[0].flags[0].matched_gt_index == 0
    with pytest.raises(CategoryError, match=r"^ground-truth category 3 not configured$"):
        confusion_matrix(matched, [1])


def test_confusion_matrix_no_detections():
    gts = [gt(B(0, 0, 2, 2), cat=1), gt(B(4, 4, 6, 6), cat=2)]
    matrix = confusion_matrix(match_corpus([], gts), [1, 2])
    assert matrix.cell(1, None) == 1 and matrix.cell(2, None) == 1
    assert sum(matrix.grid[0][:2] + matrix.grid[1][:2]) == 0


def test_confusion_matrix_hand_tally():
    # image a: cat-1 gt matched by cat-1 det (TP); a cat-2 stray det (FP).
    # image b: cat-2 gt matched by cat-1 det (cross cell).
    # image c: cat-1 gt missed (FN column).
    dets = [
        det(B(0, 0, 2, 2), cat=1, conf=0.9, image="a"),
        det(B(8, 8, 9, 9), cat=2, conf=0.8, image="a"),
        det(B(0, 0, 2, 2), cat=1, conf=0.7, image="b"),
    ]
    gts = [
        gt(B(0, 0, 2, 2), cat=1, image="a"),
        gt(B(0, 0, 2, 2), cat=2, image="b"),
        gt(B(5, 5, 7, 7), cat=1, image="c"),
    ]
    matrix = confusion_matrix(match_corpus(dets, gts), [1, 2])
    assert matrix.cell(1, 1) == 1  # diagonal TP
    assert matrix.cell(2, 1) == 1  # cross cell: true 2 predicted 1
    assert matrix.cell(None, 2) == 1  # background row: unmatched cat-2 det
    assert matrix.cell(1, None) == 1  # background column: missed cat-1 gt
    assert matrix.cell(2, None) == 0
    buffer = io.StringIO()
    matrix.write_csv(buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "true\\pred,1,2,background"
    assert len(lines) == 4


def test_corpus_count_invariants():
    rng = random.Random(5)
    for _ in range(40):
        dets, gts = synthetic_instance(rng, images=3)
        config = MatchConfig(0.45, 0.25)
        metrics = evaluate_corpus(dets, gts, config)
        total_tp = sum(r.tp for r in metrics.per_category)
        total_fp = sum(r.fp for r in metrics.per_category)
        total_fn = sum(r.fn for r in metrics.per_category)
        retained = sum(1 for d in dets if d.confidence >= config.confidence_threshold)
        assert total_tp + total_fn == len(gts)
        assert total_tp + total_fp == retained
        # confusion row sums equal per-category ground-truth counts
        per_cat_gt = defaultdict(int)
        for g in gts:
            per_cat_gt[g.category_id] += 1
        matrix = metrics.confusion
        for i, cat in enumerate(matrix.categories):
            assert sum(matrix.grid[i]) == per_cat_gt[cat]


def test_confidence_threshold_monotonicity():
    rng = random.Random(17)
    for _ in range(30):
        dets, gts = synthetic_instance(rng, images=2)
        counts = []
        for threshold in (0.0, 0.25, 0.5, 0.75):
            pairs = [tp_fp(o) for o in match_corpus(dets, gts, MatchConfig(0.45, threshold))]
            counts.append((sum(tp for tp, _ in pairs), sum(fp for _, fp in pairs)))
        for (tp_low, fp_low), (tp_high, fp_high) in zip(counts, counts[1:]):
            assert tp_high <= tp_low
            assert fp_high <= fp_low


def test_identity_predictor_is_perfect():
    rng = random.Random(21)
    gts = []
    for i in range(12):
        _, instance_gts = synthetic_instance(rng, images=1)
        gts.extend(GroundTruth(g.box, g.category_id, f"im{i}") for g in instance_gts)
    dets = [Detection(g.box, g.category_id, 1.0, g.image_id) for g in gts]
    metrics = evaluate_corpus(dets, gts)
    assert metrics.map50 == 1.0
    assert metrics.map50_95 == 1.0


# --- one-pass AP core against the per-category definition --------------------------

def _edge_case_corpus(rng):
    """Random corpus rich in the cases where a shortcut could drift from the
    definition: confidence ties within and across images, duplicate
    detections, zero-area boxes, IoUs landing exactly on a threshold
    ([0,0,k,1] vs [0,0,20,1] has IoU k/20), category 3 with ground truths
    only and category 4 with detections only. Image ids sort differently as
    strings and as numbers."""
    images = ("im2", "im10", "im1", "a")
    ground_truths = []
    for _ in range(rng.randint(0, 12)):
        style = rng.random()
        if style < 0.3:
            box = B(0, 0, rng.choice((10, 11, 19, 20)), 1)
        elif style < 0.4:
            box = B(1, 1, 1, 3)
        else:
            box = random_box(rng, 0, 6)
        ground_truths.append(GroundTruth(box, rng.choice((0, 1, 2, 3)), rng.choice(images)))
    detections = []
    for _ in range(rng.randint(0, 25)):
        style = rng.random()
        if detections and style < 0.15:
            detections.append(rng.choice(detections))
            continue
        if ground_truths and style < 0.55:
            base = rng.choice(ground_truths).box
            jitter = rng.choice((0.0, 0.0, 0.3, 1.0))
            box = B(
                base.x1 + rng.uniform(-jitter, jitter),
                base.y1 + rng.uniform(-jitter, jitter),
                base.x2 + rng.uniform(-jitter, jitter),
                base.y2 + rng.uniform(-jitter, jitter),
            ).normalized()
        elif style < 0.75:
            box = B(0, 0, rng.randint(9, 20), 1)
        elif style < 0.8:
            box = B(2, 2, 4, 2)
        else:
            box = random_box(rng, 0, 6)
        if rng.random() < 0.6:
            confidence = rng.choice((0.3, 0.5, 0.5, 0.9, 1.0))
        else:
            confidence = round(rng.random(), 2)
        detections.append(
            Detection(box, rng.choice((0, 1, 2, 4)), confidence, rng.choice(images))
        )
    return detections, ground_truths


def _result(function, *args, **kwargs):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return function(*args, **kwargs)
    except TrapevalError as exc:
        return type(exc), str(exc)


def _in_categories(categories, detections, ground_truths):
    """The detections and ground truths whose category is in
    ``categories``; all of them for None."""
    if categories is None:
        return detections, ground_truths
    known = set(categories)
    return [d for d in detections if d.category_id in known], [g for g in ground_truths if g.category_id in known]


def _assert_matches_definition(detections, ground_truths, categories=None):
    """evaluate_corpus, per_category_ap, map_over_iou_range and pr_curve,
    which all run on the engine, equal the per-image definition value for
    value, or raise its error. The AP functions get the records of
    ``categories``; the definition filters them itself."""
    metrics = evaluate_corpus(detections, ground_truths, MatchConfig(0.45, 0.25), categories)
    cats = sorted(
        set(categories)
        if categories is not None
        else {g.category_id for g in ground_truths} | {d.category_id for d in detections}
    )
    within = _in_categories(categories, detections, ground_truths)
    config50 = MatchConfig(0.5, 0.25)
    aps = ref.per_category_ap(detections, ground_truths, config50, cats)
    traps = ref.per_category_ap(detections, ground_truths, config50, cats, mode="trapezoid")
    assert per_category_ap(*within, config50) == aps
    assert per_category_ap(*within, config50, mode="trapezoid") == traps
    for row in metrics.per_category:
        assert row.ap == aps.get(row.category_id, 0.0)
        assert row.ap_trapezoid == traps.get(row.category_id, 0.0)
    assert metrics.map50 == (mean_average_precision(aps) if aps else 0.0)
    expected = _result(ref.map_over_iou_range, detections, ground_truths, categories=cats)
    assert _result(map_over_iou_range, *within) == expected
    assert metrics.map50_95 == (expected if aps else 0.0)
    assert [c.category_id for c in metrics.pr_curves] == list(aps)
    for curve in metrics.pr_curves:
        cat = curve.category_id
        records = (
            [d for d in detections if d.category_id == cat],
            [g for g in ground_truths if g.category_id == cat],
            config50,
        )
        oracle = ref.pr_curve(*records)
        assert pr_curve(*records) == oracle
        assert list(curve.recall) == [p.recall for p in oracle]
        assert list(curve.precision) == [p.precision for p in oracle]
    return metrics


def test_evaluate_corpus_equals_per_category_definition():
    rng = random.Random(3141)
    for _ in range(400):
        detections, ground_truths = _edge_case_corpus(rng)
        _assert_matches_definition(detections, ground_truths)
        _assert_matches_definition(detections, ground_truths, categories=range(7))
    for _ in range(100):
        detections, ground_truths = synthetic_instance(rng, max_detections=30, images=4)
        _assert_matches_definition(detections, ground_truths)


def test_evaluate_corpus_edge_cases_equal_definition():
    # IoU exactly 0.5: a TP at the first threshold only.
    metrics = _assert_matches_definition([det(B(0, 0, 2, 1))], [gt(B(0, 0, 1, 1))])
    assert metrics.map50 == 1.0 and metrics.map50_95 == pytest.approx(0.1)
    # Two ground truths tie on IoU 0.6: the lower index is consumed, which
    # leaves the later exact detection without a partner.
    _assert_matches_definition(
        [det(B(0.5, 0, 2.5, 1), conf=0.9), det(B(0, 0, 2, 1), conf=0.8)],
        [gt(B(0, 0, 2, 1)), gt(B(1, 0, 3, 1))],
    )
    # No detections at all, and a category with detections only.
    metrics = _assert_matches_definition([], [gt(B(0, 0, 1, 1), cat=0), gt(B(0, 0, 1, 1), cat=1)])
    assert metrics.map50 == 0.0 and all(c.recall == () for c in metrics.pr_curves)
    _assert_matches_definition([det(B(0, 0, 1, 1), cat=1)], [gt(B(0, 0, 1, 1), cat=0)])
    # No ground truths at all: AP undefined everywhere, reported as 0.
    metrics = _assert_matches_definition([det(B(0, 0, 1, 1))], [])
    assert metrics.pr_curves == () and metrics.map50_95 == 0.0


# The package's per-image names, which the engine reaches none of; the
# oracle runs its own copies of the matching and the area.
DEFINITION = ("match_detections", "match_corpus", "iou", "confusion_matrix", "average_precision")


def _unreachable(*args, **kwargs):
    raise AssertionError("the engine called a definition function")


def test_evaluate_corpus_reaches_no_definition_function(monkeypatch):
    detections, ground_truths = synthetic_instance(
        random.Random(8), max_detections=40, max_ground_truths=12, images=3
    )
    # Scaled by 2**25 (exact in doubles), every corner lies past 2**24.
    scaled = [r._replace(box=B(*(2**25 * v for v in r.box))) for r in detections + ground_truths]
    corpora = [(detections, ground_truths), (scaled[: len(detections)], scaled[len(detections) :])]
    expected = [evaluate_corpus(*corpus, MatchConfig(0.45, 0.25)) for corpus in corpora]
    for name in DEFINITION:
        monkeypatch.setattr(evaluation, name, _unreachable)
    assert [evaluate_corpus(*corpus, MatchConfig(0.45, 0.25)) for corpus in corpora] == expected
    assert expected[0] == expected[1]


def _ap_calls(detections, ground_truths):
    """The AP functions on a corpus: their values, or their errors."""
    curves = [
        _result(
            pr_curve,
            [d for d in detections if d.category_id == cat],
            [g for g in ground_truths if g.category_id == cat],
            MatchConfig(0.6),
        )
        for cat in sorted({g.category_id for g in ground_truths})
    ]
    return [
        _result(per_category_ap, detections, ground_truths),
        _result(per_category_ap, *_in_categories(range(3), detections, ground_truths), mode="trapezoid"),
        _result(map_over_iou_range, detections, ground_truths, (0.9, 0.5)),
        curves,
    ]


def test_the_ap_functions_reach_no_definition_function(monkeypatch):
    rng = random.Random(29)
    corpora = [_edge_case_corpus(rng) for _ in range(30)]
    expected = [_ap_calls(*corpus) for corpus in corpora]
    assert any(isinstance(value[0], dict) and value[0] for value in expected)
    oracle = ref.per_category_ap(*corpora[0])
    for name in DEFINITION:
        monkeypatch.setattr(evaluation, name, _unreachable)
    assert ref.per_category_ap(*corpora[0]) == oracle  # the oracle reaches none of them either
    assert [_ap_calls(*corpus) for corpus in corpora] == expected


def test_map_over_iou_range_equals_the_definition_in_any_threshold_order():
    rng = random.Random(4242)
    levels = (0.05, 0.3, 0.45, 0.5, 0.55, 0.6, 0.75, 0.9, 0.95)
    fixed = [(0.9, 0.5), (0.95, 0.5, 0.7), (0.5, 0.5), (0.75, 0.55, 0.6, 0.3)]
    for i in range(200):
        detections, ground_truths = _edge_case_corpus(rng)
        if i < len(fixed):
            thresholds = fixed[i]
        else:
            thresholds = tuple(rng.choice(levels) for _ in range(rng.randint(1, 5)))
        for categories in (None, range(3)):  # categories 3 and 4 fall outside range(3)
            within = _in_categories(categories, detections, ground_truths)
            config = MatchConfig(0.45, 0.25)
            assert _result(map_over_iou_range, *within, list(thresholds), config) == _result(
                ref.map_over_iou_range, detections, ground_truths, list(thresholds), config, categories
            )
            config = MatchConfig(thresholds[0])
            assert _result(per_category_ap, *within, config) == _result(
                ref.per_category_ap, detections, ground_truths, config, categories
            )


def test_map_over_iou_range_takes_more_thresholds_than_one_engine_run():
    # One detection at IoU 0.87: a TP at the 64 thresholds below it, not at the 6 above.
    thresholds = tuple(0.3 + 0.009 * i for i in range(70))
    detections, ground_truths = [det(B(0, 0, 87, 1))], [gt(B(0, 0, 100, 1))]
    expected = ref.map_over_iou_range(detections, ground_truths, thresholds)
    assert expected == pytest.approx(64 / 70)
    assert map_over_iou_range(detections, ground_truths, thresholds) == expected
    rng = random.Random(64)
    levels = (0.05, 0.3, 0.45, 0.5, 0.55, 0.6, 0.75, 0.9, 0.95)
    for _ in range(8):
        detections, ground_truths = _edge_case_corpus(rng)
        thresholds = [rng.choice(levels) for _ in range(rng.randint(64, 130))]
        call = (detections, ground_truths, thresholds)
        assert _result(map_over_iou_range, *call) == _result(ref.map_over_iou_range, *call)


def test_pr_curve_names_a_corner_that_is_not_a_finite_double():
    # The per-image definition read a NaN corner as an IoU below every
    # threshold and returned a false positive; the engine raises.
    with pytest.raises(EvalError, match=r"^detection 0 in image 'im0': a corner is not a finite double$"):
        pr_curve([det(B(math.nan, 0, 1, 1))], [gt(B(0, 0, 1, 1))])


def _annotation_file_corpus(rng):
    """An annotation payload whose annotations come out of image order and
    interleaved, with boxes across the image edge and a last image without
    any; and detections near its boxes, on a 0.05 confidence grid."""
    images = [
        {"id": f"im{i}", "width": 60, "height": 40, "location": 0, "date": "2023-06-01"}
        for i in range(rng.randint(2, 6))
    ]
    annotations = []
    for n in range(rng.randint(1, 30)):
        box = [rng.uniform(-10, 55), rng.uniform(-10, 35), rng.uniform(1, 25), rng.uniform(1, 25)]
        image_id = rng.choice(images[:-1])["id"]
        annotations.append({"id": n, "image_id": image_id, "category_id": rng.randint(1, 3), "bbox": box})
    detections = []
    for _ in range(rng.randint(0, 40)):
        ann = rng.choice(annotations)
        x, y, w, h = ann["bbox"]
        jitter = [rng.gauss(0, 2) for _ in range(4)]
        box = B(x + jitter[0], y + jitter[1], x + w + jitter[2], y + h + jitter[3]).normalized()
        image_id = ann["image_id"] if rng.random() < 0.9 else images[-1]["id"]
        detections.append(Detection(box, rng.randint(1, 3), rng.randrange(21) / 20, image_id))
    payload = {
        "images": images,
        "annotations": annotations,
        "categories": [{"id": c, "name": f"species{c}"} for c in (1, 2, 3)],
    }
    return payload, detections


def test_evaluate_corpus_on_annotation_columns_equals_it_on_the_records(annotation_file):
    rng = random.Random(26)
    seen = Counter()
    for i in range(200):
        payload, detections = _annotation_file_corpus(rng)
        path = annotation_file(payload, f"ann{i}.json")
        data = parse_annotations(path)
        records = [gt for record in data.records for gt in record.annotations]
        read = read_annotation_columns(path)
        columns = BoxColumns.from_annotations(read)
        categories = sorted(read.categories)
        for dets in (detections, BoxColumns.from_records(detections, scored=True)):
            for config in (MatchConfig(0.45, 0.25), MatchConfig(0.6, 0.1)):
                expected = evaluate_corpus(detections, records, config, categories)
                assert evaluate_corpus(dets, columns, config, categories) == expected
        seen["out of image order"] += read.image_id != [gt.image_id for gt in records]
        seen["clamped"] += any(
            x < 0 or y < 0 or x + w > 60 or y + h > 40 for x, y, w, h in (a["bbox"] for a in payload["annotations"])
        )
        seen["matched"] += any(row.tp for row in expected.per_category)
    assert min(seen.values()) > 100, seen


# --- the blockwise IoU table and the operating point against the definition -------

# Finite corners where array arithmetic could part from the scalar iou:
# corners out of order (a negative area, so a negative union), differences
# and areas that overflow (up to the largest double), subnormals, -0.0, and
# integers whose areas pass 2**53, which the columns read as their doubles.
ODD_BOXES = (
    B(3, 0, 1, 2),
    B(1e300, 0, 1.5e300, 1e300),
    B(-1.7976931348623157e308, 0, 1.7976931348623157e308, 1),
    B(5e-324, 0, 1.5e-323, 5e-324),
    B(0, -5e-324, 2.2250738585072014e-308, 0),
    B(0, 0, 3 * 2**40, 2**40 + 1),
    B(2**25, 2**25, 2**25 + 3, 2**26),
    B(-0.0, 0, 1, 1),
)
# Corners that are not finite doubles: NaN, the infinities, and an int past
# the double range.
NON_FINITE_BOXES = (
    B(math.nan, 0, 2, 1),
    B(0, 0, 2, math.nan),
    B(0, 0, math.inf, 1),
    B(-math.inf, 0, 1, 1),
    B(0, 0, 2**1024, 1),
)


def _odd_corner_corpus(rng, boxes=ODD_BOXES):
    detections, ground_truths = _edge_case_corpus(rng)
    detections = [
        d._replace(box=rng.choice(boxes)) if rng.random() < 0.2 else d for d in detections
    ]
    ground_truths = [
        g._replace(box=rng.choice(boxes)) if rng.random() < 0.2 else g for g in ground_truths
    ]
    return detections, ground_truths


def _as_doubles(records):
    """The records with each corner as its double."""
    return [r._replace(box=B(*map(float, r.box))) for r in records]


def _assert_operating_point_matches_definition(detections, ground_truths, categories=None):
    config = MatchConfig(0.45, 0.25)
    metrics = evaluate_corpus(detections, ground_truths, config, categories)
    cats = sorted(
        set(categories)
        if categories is not None
        else {g.category_id for g in ground_truths} | {d.category_id for d in detections}
    )
    outcomes = ref.match_corpus(detections, ground_truths, config, cats)
    assert match_corpus(detections, ground_truths, config, cats) == outcomes
    expected = ref.match_detections(detections, ground_truths, config, cats)
    assert match_detections(detections, ground_truths, config, cats) == expected
    assert metrics.confusion == confusion_matrix(outcomes, cats)
    tp, fp = Counter(), Counter()
    for outcome in outcomes:
        for flag in outcome.flags:
            (tp if flag.is_tp else fp)[outcome.detections[flag.detection_index].category_id] += 1
    totals = Counter(g.category_id for g in ground_truths)
    assert [(r.category_id, r.tp, r.fp, r.fn) for r in metrics.per_category] == [
        (c, tp[c], fp[c], totals[c] - tp[c]) for c in cats if totals[c] or tp[c] or fp[c]
    ]


def _walk_table(detections, ground_truths):
    """(detection index, ground-truth index, IoU hex) of every pair the
    columnar walk visits, in its order."""
    dets = evaluation.BoxColumns.from_records(detections, scored=True)
    gts = evaluation.BoxColumns.from_records(ground_truths)
    table = []
    codes = evaluation._image_codes(dets.image_id, gts.image_id)
    for det_rows, gt_rows, pair_det, pair_gt, overlap in evaluation._walk(dets, gts, codes):
        rows_d, rows_g = det_rows.tolist(), gt_rows.tolist()
        table += [
            (rows_d[i], rows_g[j], value.hex())
            for i, j, value in zip(pair_det.tolist(), pair_gt.tolist(), overlap.tolist())
        ]
    return table


@pytest.mark.parametrize("budget", [1, 5, 10**9])
def test_block_iou_table_equals_scalar_iou_bitwise(monkeypatch, budget):
    monkeypatch.setattr(evaluation, "_BLOCK_PAIRS", budget)
    rng = random.Random(2718)
    for corpus in (_edge_case_corpus, _odd_corner_corpus) * 150:
        detections, ground_truths = corpus(rng)
        # The definition's walk: images in sorted id order; in each, the
        # detections by descending confidence (ties in input order), then
        # every ground truth in input order.
        images = defaultdict(lambda: ([], []))
        by_confidence = sorted(range(len(detections)), key=lambda i: -detections[i].confidence)
        for i in by_confidence:
            images[detections[i].image_id][0].append(i)
        for j, g in enumerate(ground_truths):
            images[g.image_id][1].append(j)
        pairs = [(i, j) for dets, gts in map(images.get, sorted(images)) for i in dets for j in gts]
        # The scalar iou on the corners as doubles, as the columns hold them.
        dets, gts = _as_doubles(detections), _as_doubles(ground_truths)
        expected = [(i, j, iou(dets[i].box, gts[j].box).hex()) for i, j in pairs]
        assert _walk_table(detections, ground_truths) == expected


def test_block_iou_reads_int_corners_as_their_doubles():
    # Int corners whose areas pass 2**53: as doubles they give another IoU.
    a, b = B(0, 0, 85261181, 1099511628553), B(0, 0, 90002594, 1099511627818)
    doubles = iou(B(*map(float, a)), B(*map(float, b)))
    assert iou(a, b) != doubles
    assert _walk_table([det(a)], [gt(b)]) == [(0, 0, doubles.hex())]


@pytest.mark.parametrize("budget", [1, 10**9])
def test_evaluate_corpus_equals_the_definition_at_any_block_size(monkeypatch, budget):
    monkeypatch.setattr(evaluation, "_BLOCK_PAIRS", budget)
    rng = random.Random(1618)
    for _ in range(150):
        detections, ground_truths = _edge_case_corpus(rng)
        for categories in (None, range(7)):
            _assert_matches_definition(detections, ground_truths, categories)
            _assert_operating_point_matches_definition(detections, ground_truths, categories)


def test_evaluate_corpus_with_extreme_finite_corners_equals_the_definition_on_doubles():
    rng = random.Random(577)
    for _ in range(150):
        detections, ground_truths = _odd_corner_corpus(rng)
        doubles = _as_doubles(detections), _as_doubles(ground_truths)
        metrics = _assert_matches_definition(*doubles)
        assert evaluate_corpus(detections, ground_truths, MatchConfig(0.45, 0.25)) == metrics
        _assert_operating_point_matches_definition(*doubles)


def _finite_double(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the double range
        return False


def test_evaluate_corpus_names_the_first_corner_that_is_not_a_finite_double():
    rng = random.Random(31)
    raised = set()
    for _ in range(300):
        detections, ground_truths = _odd_corner_corpus(rng, ODD_BOXES + NON_FINITE_BOXES)
        lists = (("detection", detections), ("ground truth", ground_truths))
        first = next(
            (
                f"{what} {i} in image {r.image_id!r}: a corner is not a finite double"
                for what, records in lists
                for i, r in enumerate(records)
                if not all(map(_finite_double, r.box))
            ),
            None,
        )
        if first is None:
            evaluate_corpus(detections, ground_truths)
            continue
        with pytest.raises(EvalError) as info:
            evaluate_corpus(detections, ground_truths)
        assert str(info.value) == first
        raised.add(first.split(" ")[0])
        # The same from columns, as the CLI passes the detections.
        columns = evaluation.BoxColumns.from_records(detections, scored=True)
        with pytest.raises(EvalError) as info:
            evaluate_corpus(columns, ground_truths)
        assert str(info.value) == first
    assert raised == {"detection", "ground"}
    # The unknown category is named before the corner.
    with pytest.raises(CategoryError, match="^ground truth references unknown category 9$"):
        evaluate_corpus([det(B(math.nan, 0, 1, 1))], [gt(B(0, 0, 1, 1), cat=9)], categories=[0])


def test_evaluate_corpus_raises_the_definitions_category_error():
    box = B(0, 0, 1, 1)
    cases = [
        # "im10" sorts before "im2": its ground truth is checked first.
        ([det(box, cat=7, image="im2")], [gt(box, cat=8, image="im10")]),
        # In one image: detections before ground truths, in input order.
        ([det(box, cat=5, conf=0.1), det(box, cat=6, conf=0.9)], [gt(box, cat=8)]),
    ]
    rng = random.Random(99)
    cases += [_edge_case_corpus(rng) for _ in range(200)]  # categories 3 and 4 are unknown
    raised = set()
    for detections, ground_truths in cases:
        try:
            ref.match_corpus(detections, ground_truths, MatchConfig(), range(3))
        except CategoryError as exc:
            for function in (evaluate_corpus, match_corpus):
                with pytest.raises(CategoryError) as info:
                    function(detections, ground_truths, MatchConfig(), range(3))
                assert str(info.value) == str(exc)
            raised.add(str(exc).split(" references")[0])
        else:
            evaluate_corpus(detections, ground_truths, MatchConfig(), range(3))
    assert raised == {"detection", "ground truth"}


# --- the package's matching and area against the per-image oracle ----------------------

def test_match_corpus_and_match_detections_equal_the_per_image_loop():
    rng = random.Random(1729)
    configs = (MatchConfig(0.45, 0.25), MatchConfig(0.5, 0.0), MatchConfig(0.75, 0.5))
    seen = Counter()
    for i in range(400):
        detections, ground_truths = _edge_case_corpus(rng)
        config = configs[i % len(configs)]
        for categories in (None, range(3)):  # categories 3 and 4 fall outside range(3)
            call = (detections, ground_truths, config, categories)
            expected = _result(ref.match_corpus, *call)
            assert _result(match_corpus, *call) == expected
            # match_detections reads every record as one image, whatever its id.
            assert _result(match_detections, *call) == _result(ref.match_detections, *call)
            if isinstance(expected, list):
                seen["images"] += len(expected) > 1
                flags = [f for outcome in expected for f in outcome.flags]
                seen["tp"] += any(f.is_tp for f in flags)
                seen["cross"] += any(not f.is_tp and f.matched_gt_index is not None for f in flags)
            else:
                seen["error"] += 1
    assert min(seen.values()) > 50, seen


def test_matching_names_a_corner_that_is_not_a_finite_double():
    # The per-image loop read a NaN corner as an IoU below every threshold
    # and returned a false positive; the engine raises.
    detections = [det(B(0, 0, 1, 1)), det(B(0, 0, 1, 1), image="im1"), det(B(math.nan, 0, 1, 1), image="im1")]
    ground_truths = [gt(B(0, 0, 1, 1)), gt(B(0, 0, 1, 1), image="im1")]
    assert [tp_fp(o)[1] for o in ref.match_corpus(detections, ground_truths)] == [0, 1]
    message = r"^detection 2 in image 'im1': a corner is not a finite double$"
    for function in (match_corpus, match_detections):
        with pytest.raises(EvalError, match=message):
            function(detections, ground_truths)
    ground_truths[1] = gt(B(0, 0, math.inf, 1), image="im1")
    with pytest.raises(EvalError, match=r"^ground truth 1 in image 'im1': a corner is not a finite double$"):
        match_detections(detections[:2], ground_truths)


def _random_curve(rng):
    """Up to 12 points in any order: recalls and precisions on a coarse
    grid (so recalls tie), -0.0 among them, or drawn from [0, 1]."""
    grid = (0.0, -0.0, 0.25, 0.5, 0.5, 1 / 3, 2 / 3, 1.0)
    points = []
    for _ in range(rng.randint(0, 12)):
        r = rng.choice(grid) if rng.random() < 0.6 else rng.random()
        p = rng.choice(grid) if rng.random() < 0.4 else rng.random()
        points.append(PrPoint(rng.random(), 0, 0, p, r))
    return points


def test_average_precision_equals_the_envelope_definition_bit_for_bit():
    rng = random.Random(3000)
    for _ in range(3000):
        curve = _random_curve(rng)
        for mode in ("grid101", "trapezoid"):
            assert average_precision(curve, mode).hex() == ref.average_precision(curve, mode).hex()


@pytest.mark.parametrize(
    "recall_value,precision_value",
    [(math.nan, 0.5), (0.5, math.nan), (1.5, 0.5), (-0.25, 0.5), (math.inf, 0.5), (0.5, 1.0000000000000002), (0.5, -1.0)],
)
def test_average_precision_names_a_point_outside_the_unit_square(recall_value, precision_value):
    # The envelope returned a number for such a curve.
    curve = [point(0.2, 1.0), point(recall_value, precision_value), point(math.nan, math.nan)]
    for mode in ("grid101", "trapezoid"):
        with pytest.raises(EvalError) as info:
            average_precision(curve, mode)
        assert str(info.value) == (
            f"curve point 1: recall {recall_value!r} and precision {precision_value!r} must lie in [0, 1]"
        )


def _compensated_sum(values, start=0):
    """``sum`` as Python 3.12 and later add floats, here rounded once
    (``math.fsum``); any other values as the builtin adds them."""
    values = list(values)
    if any(isinstance(v, float) for v in values):
        return math.fsum(values) + start
    return builtins.sum(values, start)


def test_ap_and_map_do_not_depend_on_how_sum_adds_floats(monkeypatch):
    rng = random.Random(1312)
    corpora = [synthetic_instance(rng, max_detections=40, images=4) for _ in range(40)]

    def results():
        return [
            (
                evaluate_corpus(dets, gts),
                per_category_ap(dets, gts),
                per_category_ap(dets, gts, mode="trapezoid"),
                map_over_iou_range(dets, gts),
            )
            for dets, gts in corpora
            if gts
        ]

    expected = results()
    monkeypatch.setattr(evaluation, "sum", _compensated_sum, raising=False)
    assert results() == expected


def test_per_category_ap_numbers_a_corner_among_all_the_records_given():
    # Detection 0 is of a category no ground truth has; it still counts.
    detections = [Detection(B(0, 0, 1, 1), 5, 0.9, "a"), Detection(B(math.nan, 0, 1, 1), 1, 0.9, "b")]
    ground_truths = [GroundTruth(B(0, 0, 1, 1), 1, "b")]
    with pytest.raises(EvalError, match=r"^detection 1 in image 'b': a corner is not a finite double$"):
        per_category_ap(detections, ground_truths)
    assert per_category_ap(detections[:1], ground_truths) == {1: 0.0}


def test_map_over_iou_range_numbers_a_corner_among_all_the_records_given():
    detections = [Detection(B(0, 0, 1, 1), 1, 0.9, "b")]
    ground_truths = [GroundTruth(B(0, 0, 1, 1), 7, "a"), GroundTruth(B(0, 0, math.inf, 1), 1, "b")]
    with pytest.raises(EvalError, match=r"^ground truth 1 in image 'b': a corner is not a finite double$"):
        map_over_iou_range(detections, ground_truths)
    assert map_over_iou_range(detections, ground_truths[:1]) == 0.0


# --- CSV interfaces --------------------------------------------------------------------

def test_detections_csv_round_trip():
    dets = [
        Detection(B(0, 0, 2.5, 2.5), 1, 0.875, "im0"),
        Detection(B(1, 1, 3, 4), 2, 0.25, "im1"),
    ]
    text = (
        "image_id,category_id,confidence,x1,y1,x2,y2\n"
        "im0,1,0.875,0,0,2.5,2.5\n"
        "im1,2,0.25,1,1,3,4\n"
    )
    assert read_detections_csv(io.StringIO(text, newline="")) == dets


def test_detections_csv_rejects_bad_input():
    with pytest.raises(FormatError):
        read_detections_csv(io.StringIO(""))
    with pytest.raises(FormatError):
        read_detections_csv(io.StringIO("image,who,knows\n"))
    header = "image_id,category_id,confidence,x1,y1,x2,y2\n"
    with pytest.raises(FormatError):
        read_detections_csv(io.StringIO(header + "im0,1,nope,0,0,1,1\n"))
    with pytest.raises(FormatError):
        read_detections_csv(io.StringIO(header + "im0,1,1.5,0,0,1,1\n"))
    with pytest.raises(FormatError):
        read_detections_csv(io.StringIO(header + "im0,1,0.5,0,0,1\n"))


def test_detection_columns_reject_a_lone_cr_inside_the_header():
    # csv ends the header at the CR: its fields are only the first two.
    text = "image_id,category_id\r ,confidence,x1,y1,x2,y2\nim0,1,0.5,0,0,1,1\n"
    message = r"detections CSV header \['image_id', 'category_id'\] != \['image_id', 'category_id', 'confidence'"
    with pytest.raises(FormatError, match=message):
        read_detection_columns(io.StringIO(text, newline=""))


VALID_CSV = (
    "image_id,category_id,confidence,x1,y1,x2,y2\n"
    "im0,1,0.875,0,0,2.5,2.5\n"
    "im1,2,0.25,4,3,1,1\n"
)
CSV_SYMBOLS = tuple('0123456789,.-+e_"\n\r \x00nai\u00e9\u0661')


@given(mutants(VALID_CSV, CSV_SYMBOLS))
@settings(max_examples=150, deadline=None)
def test_mutated_detections_csv_parses_or_raises_a_trapeval_error(text):
    try:
        read_detections_csv(io.StringIO(text, newline=""))  # as the CLI opens it
    except TrapevalError:
        pass


class LineProbe:
    """Lines of a text, noting whether the cyclic collector was enabled as
    each one was read."""

    def __init__(self, text):
        self.lines = io.StringIO(text, newline="")
        self.enabled = []

    def __iter__(self):
        return self

    def __next__(self):
        line = next(self.lines)
        self.enabled.append(gc.isenabled())
        return line


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("valid", [True, False])
def test_detections_csv_pauses_the_cyclic_gc_and_restores_it(enabled, valid):
    rows = ["im0,1,0.5,0,0,1,1", "im1,2,0.25,4,3,1,1", "im2,0,0.75,1,1,2,2"]
    if not valid:
        rows[1] = "im1,2,1.5,4,3,1,1"
    probe = LineProbe("image_id,category_id,confidence,x1,y1,x2,y2\n" + "\n".join(rows) + "\n")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if valid:
            assert len(read_detections_csv(probe)) == 3
        else:
            with pytest.raises(FormatError, match="line 3: confidence 1.5"):
                read_detections_csv(probe)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert probe.enabled[0] == enabled  # the header
    assert probe.enabled[1:] == [False] * (3 if valid else 2)  # every row read


def test_metrics_csv_contains_summary_lines():
    dets = [det(B(0, 0, 2, 2), cat=1, conf=1.0)]
    gts = [gt(B(0, 0, 2, 2), cat=1)]
    metrics = evaluate_corpus(dets, gts)
    buffer = io.StringIO()
    write_metrics_csv(metrics, buffer)
    rows = list(csv.reader(io.StringIO(buffer.getvalue())))
    assert rows[0] == ["category_id", "ap", "precision", "recall", "tp", "fp", "fn"]
    assert ["mAP50", "1"] in rows
    assert ["mAP50-95", "1"] in rows


def test_detections_csv_orders_corners_as_normalized_does():
    corners = [(3.0, 4.0, 1.0, 2.0), (-0.0, 0.0, 0.0, -0.0), (0.0, -0.0, -0.0, 0.0), (1.0, 1.0, 1.0, 1.0)]
    text = "image_id,category_id,confidence,x1,y1,x2,y2\n" + "".join(
        f"im0,1,0.5,{x1},{y1},{x2},{y2}\n" for x1, y1, x2, y2 in corners
    )
    for parsed, raw in zip(read_detections_csv(io.StringIO(text)), corners):
        expected = B(*raw).normalized()
        assert [v.hex() for v in parsed.box.corners()] == [v.hex() for v in expected.corners()]


@pytest.mark.parametrize(
    "row,message",
    [
        ("im0,1,0.5,0,0,1", "line 2: expected 7 fields, got 6"),
        ("im0,x,nope,0,0,1,1", "line 2: invalid literal for int() with base 10: 'x'"),
        ("im0,1,0.5,0,0,one,1", "line 2: could not convert string to float: 'one'"),
        ("im0,1,1.5,nan,0,1,1", "line 2: confidence 1.5 outside [0, 1]"),
        ("im0,1,0.5,0,inf,1,1", "line 2: non-finite coordinate"),
    ],
)
def test_detections_csv_names_the_first_failed_check(row, message):
    with pytest.raises(FormatError) as info:
        read_detections_csv(io.StringIO("image_id,category_id,confidence,x1,y1,x2,y2\n" + row + "\n"))
    assert str(info.value) == message
