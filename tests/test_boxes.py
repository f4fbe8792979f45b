import datetime as dt
import math
import random

import pytest
from hypothesis import given, strategies as st

from trapeval.boxes import (
    BoundingBox,
    Detection,
    GroundTruth,
    center_distance_sq,
    intersection_area,
    iou,
)
from trapeval.dataset import ImageRecord
from trapeval.errors import ConfigError
from trapeval.losses import _Geom

from conftest import assert_value_record

coords = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
sides = st.floats(0.1, 20, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw):
    x1, y1 = draw(coords), draw(coords)
    return BoundingBox(x1, y1, x1 + draw(sides), y1 + draw(sides))


def test_iou_identity():
    b = BoundingBox(0, 0, 2, 2)
    assert iou(b, b) == 1.0


def test_iou_disjoint():
    assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(5, 5, 6, 6)) == 0.0


def test_iou_partial_overlap():
    # inter 1, union 4 + 4 - 1 = 7
    assert iou(BoundingBox(0, 0, 2, 2), BoundingBox(1, 1, 3, 3)) == pytest.approx(1 / 7)


def test_iou_degenerate_pair_is_zero():
    point = BoundingBox(1, 1, 1, 1)
    assert iou(point, point) == 0.0


def enclosing_box(a, b):
    """(width, height, area) of the enclosing hull the loss family computes."""
    g = _Geom(a, b)
    return g.hull_w, g.hull_h, g.hull_area


def test_enclosing_box_examples():
    assert enclosing_box(BoundingBox(0, 0, 1, 1), BoundingBox(2, 2, 3, 3)) == (3.0, 3.0, 9.0)
    b = BoundingBox(1, 2, 3, 4)
    assert enclosing_box(b, b) == (b.width, b.height, b.area)
    assert enclosing_box(BoundingBox(0, 0, 4, 4), BoundingBox(1, 1, 2, 2)) == (4.0, 4.0, 16.0)


def test_center_distance_examples():
    b = BoundingBox(0, 0, 1, 1)
    assert center_distance_sq(b, b) == 0.0
    assert center_distance_sq(BoundingBox(0, 0, 1, 1), BoundingBox(2, 2, 3, 3)) == pytest.approx(8.0)


@given(boxes(), boxes(), st.floats(-30, 30), st.floats(-30, 30))
def test_center_distance_translation_invariant(a, b, tx, ty):
    d0 = center_distance_sq(a, b)
    d1 = center_distance_sq(a.translated(tx, ty), b.translated(tx, ty))
    assert d1 == pytest.approx(d0, abs=1e-6)


@given(boxes(), boxes())
def test_iou_symmetric_and_bounded(a, b):
    ab = iou(a, b)
    assert ab == iou(b, a)
    assert 0.0 <= ab <= 1.0


@given(boxes(), boxes(), st.floats(0.1, 10))
def test_iou_scale_invariant(a, b, s):
    sa = BoundingBox(a.x1 * s, a.y1 * s, a.x2 * s, a.y2 * s)
    sb = BoundingBox(b.x1 * s, b.y1 * s, b.x2 * s, b.y2 * s)
    assert iou(sa, sb) == pytest.approx(iou(a, b), abs=1e-9)


@given(boxes(), boxes())
def test_iou_one_only_for_identical(a, b):
    if iou(a, b) == 1.0:
        assert intersection_area(a, b) == pytest.approx(a.area)
        assert intersection_area(a, b) == pytest.approx(b.area)


@given(boxes(), boxes())
def test_enclosing_box_contains_and_dominates(a, b):
    hull_w, hull_h, hull_area = enclosing_box(a, b)
    assert hull_w == max(a.x2, b.x2) - min(a.x1, b.x1)
    assert hull_h == max(a.y2, b.y2) - min(a.y1, b.y1)
    assert hull_area >= max(a.area, b.area) - 1e-12
    union = a.area + b.area - intersection_area(a, b)
    assert hull_area >= union - 1e-9


def test_iou_matches_monte_carlo_membership():
    rng = random.Random(20240901)
    for _ in range(20):
        x1, y1 = rng.uniform(0, 4), rng.uniform(0, 4)
        a = BoundingBox(x1, y1, x1 + rng.uniform(0.5, 4), y1 + rng.uniform(0.5, 4))
        x1, y1 = rng.uniform(0, 4), rng.uniform(0, 4)
        b = BoundingBox(x1, y1, x1 + rng.uniform(0.5, 4), y1 + rng.uniform(0.5, 4))
        in_union = in_inter = 0
        for _ in range(10_000):
            px = rng.uniform(min(a.x1, b.x1), max(a.x2, b.x2))
            py = rng.uniform(min(a.y1, b.y1), max(a.y2, b.y2))
            inside_a = a.x1 <= px <= a.x2 and a.y1 <= py <= a.y2
            inside_b = b.x1 <= px <= b.x2 and b.y1 <= py <= b.y2
            in_union += inside_a or inside_b
            in_inter += inside_a and inside_b
        estimate = in_inter / in_union
        assert estimate == pytest.approx(iou(a, b), abs=0.02)


def test_normalized_reorders_corners():
    assert BoundingBox(3, 4, 1, 2).normalized() == BoundingBox(1, 2, 3, 4)


def test_detection_confidence_validated():
    box = BoundingBox(0, 0, 1, 1)
    with pytest.raises(ConfigError):
        Detection(box, 0, 1.5, "im")
    with pytest.raises(ConfigError):
        Detection(box, 0, -0.1, "im")


@pytest.mark.parametrize("confidence", [1.5, -0.1, math.nan])
def test_every_path_that_builds_a_detection_checks_its_confidence(confidence):
    box = BoundingBox(0, 0, 1, 1)
    message = f"confidence {confidence} outside \\[0, 1\\]"
    with pytest.raises(ConfigError, match=message):
        Detection(box, 0, confidence, "im")
    with pytest.raises(ConfigError, match=message):
        Detection(box, 0, 0.5, "im")._replace(confidence=confidence)
    with pytest.raises(ConfigError, match=message):
        Detection._make((box, 0, confidence, "im"))
    assert Detection._make((box, 0, 1.0, "im")) == Detection(box, 0, 1.0, "im")
    with pytest.raises(TypeError):
        Detection._make((box, 0, 0.5))  # every field, as a named tuple's _make wants


UNIT = BoundingBox(0, 0, 1, 1)
UNIT_TEXT = "BoundingBox(x1=0, y1=0, x2=1, y2=1)"


@pytest.mark.parametrize(
    "cls, fields, text, defaults",
    [
        (BoundingBox, dict(x1=0, y1=0, x2=1, y2=1), UNIT_TEXT, {}),
        (
            BoundingBox,
            dict(x1=1e200, y1=-0.0, x2=math.inf, y2=2.5),
            "BoundingBox(x1=1e+200, y1=-0.0, x2=inf, y2=2.5)",
            {},
        ),
        (
            GroundTruth,
            dict(box=UNIT, category_id=3, image_id="im"),
            f"GroundTruth(box={UNIT_TEXT}, category_id=3, image_id='im')",
            {"image_id": ""},
        ),
        (
            Detection,
            dict(box=UNIT, category_id=3, confidence=0.25, image_id="im"),
            f"Detection(box={UNIT_TEXT}, category_id=3, confidence=0.25, image_id='im')",
            {"image_id": ""},
        ),
        (
            ImageRecord,
            dict(
                image_id="im",
                location_id=7,
                capture_date=dt.date(2024, 5, 1),
                width=640,
                height=480,
                file_name="a.jpg",
                annotations=(GroundTruth(UNIT, 3, "im"),),
            ),
            "ImageRecord(image_id='im', location_id=7, capture_date=datetime.date(2024, 5, 1), "
            f"width=640, height=480, file_name='a.jpg', annotations=(GroundTruth(box={UNIT_TEXT}, "
            "category_id=3, image_id='im'),))",
            {"file_name": "", "annotations": ()},
        ),
    ],
    ids=["box", "odd-box", "ground-truth", "detection", "image-record"],
)
def test_records_are_immutable_equal_by_value_and_print_as_before(cls, fields, text, defaults):
    assert_value_record(cls, fields, text, defaults)
