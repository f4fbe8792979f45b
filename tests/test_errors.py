"""Every check on a value a caller passes in raises a TrapevalError, so one
``except TrapevalError`` (the CLI's) catches each of them."""

import datetime as dt

import numpy as np
import pytest

from trapeval.augment import AugmentOp, resize_with_boxes
from trapeval.boxes import BoundingBox, Detection
from trapeval.dataset import ImageRecord
from trapeval.errors import TrapevalError
from trapeval.evaluation import (
    ConfusionMatrix,
    PrPoint,
    average_precision,
    map_over_iou_range,
    per_category_ap,
    precision,
    recall,
)
from trapeval.losses import LossKind, WiouState, finite_diff_grad, focusing_coefficient, outlier_degree
from trapeval.svg import LineChart
from trapeval.tensor import Tensor3, concat_forward

UNIT = BoundingBox(0, 0, 1, 1)

BAD_CALLS = {
    "precision": lambda: precision(-1, 0),
    "recall": lambda: recall(0, -1),
    "average_precision-mode": lambda: average_precision([PrPoint(0.9, 1, 0, 1.0, 1.0)], mode="nope"),
    "average_precision-mode-empty": lambda: average_precision([], mode="nope"),
    "per_category_ap-mode-empty": lambda: per_category_ap([], [], mode="nope"),
    "ConfusionMatrix.cell-category": lambda: ConfusionMatrix((1, 2), ((0,) * 3,) * 3).cell(99, None),
    "map_over_iou_range-no-thresholds": lambda: map_over_iou_range([], [], thresholds=()),
    "map_over_iou_range-threshold": lambda: map_over_iou_range([], [], thresholds=(1.0,)),
    "LineChart.add_series-lengths": lambda: LineChart("t", "x", "y").add_series("s", [0.0], []),
    "concat_forward-empty": lambda: concat_forward([]),
    "Detection-confidence": lambda: Detection(UNIT, 0, 1.5),
    "resize_with_boxes-target": lambda: resize_with_boxes(
        ImageRecord("a", 0, dt.date(2023, 1, 1), 2, 2), Tensor3(np.zeros((3, 2, 2))), 0
    ),
    "AugmentOp-kind": lambda: AugmentOp("flip"),
    "AugmentOp-range": lambda: AugmentOp("scale", 3.0),
    "outlier_degree-mean": lambda: outlier_degree(0.5, WiouState(mean_iou_loss=0.0, sample_count=1)),
    "focusing_coefficient-beta": lambda: focusing_coefficient(-1.0),
    "finite_diff_grad-step": lambda: finite_diff_grad(LossKind.IOU, UNIT, UNIT, h=0.0),
}


@pytest.mark.parametrize("site", BAD_CALLS)
def test_argument_checks_raise_a_trapeval_error(site):
    with pytest.raises(TrapevalError):
        BAD_CALLS[site]()
