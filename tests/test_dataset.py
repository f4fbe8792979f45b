import copy
import datetime as dt
import enum
import gc
import hashlib
import itertools
import json
import math
import random
import re
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from trapeval.augment import AugmentOp, augment, resize_with_boxes
from trapeval.boxes import BoundingBox, GroundTruth
import trapeval.dataset as ds
from trapeval.dataset import (
    Dataset,
    ImageRecord,
    ImageRow,
    SplitConfig,
    REFERENCE_SPLIT_COUNTS,
    filter_empty,
    parse_annotations,
    read_annotation_columns,
    split_cis_trans,
    split_report,
    verify_split,
    write_annotation_rows,
    write_annotations,
    _clamp_box,
)
from trapeval.errors import FormatError, SplitError, TrapevalError
from trapeval.ppm import read_ppm, write_pgm, write_ppm
from trapeval.tensor import Tensor3

from conftest import awkward_split_payload, make_annotation_payload, mutants


def record(image_id="im0", location=0, date=dt.date(2023, 5, 4), size=(100, 80), boxes=()):
    return ImageRecord(
        image_id=image_id,
        location_id=location,
        capture_date=date,
        width=size[0],
        height=size[1],
        annotations=tuple(
            GroundTruth(BoundingBox(*b), cat, image_id) for b, cat in boxes
        ),
    )


# --- parsing -------------------------------------------------------------------

def test_parse_empty_images_array(annotation_file):
    path = annotation_file({"images": [], "annotations": [], "categories": []})
    data = parse_annotations(path)
    assert data.records == ()


def test_parse_attaches_annotations(annotation_file):
    payload = {
        "images": [
            {"id": "a", "width": 50, "height": 40, "location": 3, "date": "2023-04-05"}
        ],
        "annotations": [
            {"id": 1, "image_id": "a", "category_id": 1, "bbox": [1, 2, 10, 12]},
            {"id": 2, "image_id": "a", "category_id": 2, "bbox": [5, 5, 8, 8]},
        ],
        "categories": [{"id": 1, "name": "bobcat"}, {"id": 2, "name": "dog"}],
    }
    data = parse_annotations(annotation_file(payload))
    assert len(data.records) == 1
    rec = data.records[0]
    assert rec.location_id == 3 and rec.capture_date == dt.date(2023, 4, 5)
    assert len(rec.annotations) == 2
    assert rec.annotations[0].box == BoundingBox(1, 2, 11, 14)
    assert type(rec) is ImageRecord
    assert {type(gt) for gt in rec.annotations} == {GroundTruth}
    assert {type(gt.box) for gt in rec.annotations} == {BoundingBox}


def test_parse_round_trip(tmp_path, annotation_file):
    payload = make_annotation_payload(num_images=100, seed=5)
    data = parse_annotations(annotation_file(payload))
    out = tmp_path / "rewritten.json"
    write_annotations(data, out)
    again = parse_annotations(out)
    assert again.records == data.records
    assert again.categories == data.categories


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda p: p["images"][0].pop("date"), "missing field 'date'"),
        (lambda p: p["images"][0].update(date="not-a-date"), "bad date"),
        (lambda p: p["annotations"][0].update(category_id=99), "unknown category"),
        (lambda p: p["annotations"][0].update(image_id="ghost"), "unknown image"),
        (lambda p: p["annotations"][0].update(bbox=[1, 2, 3]), "bbox"),
        (lambda p: p["images"].append(dict(p["images"][0])), "duplicate image"),
        # A second id 1 would rename 'bobcat' to 'coyote' and hide its images.
        (lambda p: p["categories"][1].update(id=1), r"^categories\[1\]: duplicate category id 1$"),
        (lambda p: p["categories"][0].update(id="cat"), r"categories\[0\]: id 'cat'"),
        (lambda p: p["images"][0].update(location="here"), r"images\[0\]: location 'here'"),
        (lambda p: p["images"][1].update(width=None), r"images\[1\]: width None"),
        (lambda p: p["images"][2].update(height=[80]), r"images\[2\]: height \[80\]"),
        (lambda p: p["annotations"][1].update(category_id="one"), r"annotations\[1\]: category_id"),
        (lambda p: p["annotations"][0].update(bbox=["x", 1, 2, 3]), r"annotations\[0\]: bbox \['x'"),
        (lambda p: p["annotations"][0].update(bbox=[1, 2, 3, 10**400]), r"annotations\[0\]: bbox \[1, 2"),
        (lambda p: p["annotations"][2].update(bbox=[math.nan, 1, 2, 3]), r"annotations\[2\]: bbox \[nan"),
        (lambda p: p["annotations"][1].update(bbox=[0, 0, math.inf, 3]), r"annotations\[1\]: bbox .*inf"),
        (lambda p: p["annotations"][0].update(category_id=1.7), r"annotations\[0\]: category_id 1.7 is not an integer"),
        (lambda p: p["images"][0].update(width=10.9), r"images\[0\]: width 10.9 is not an integer"),
        (lambda p: p["images"][1].update(height=-0.5), r"images\[1\]: height -0.5 is not an integer"),
        (lambda p: p["images"][2].update(location=3.25), r"images\[2\]: location 3.25 is not an integer"),
        (lambda p: p["categories"][1].update(id=2.5), r"categories\[1\]: id 2.5 is not an integer"),
        (lambda p: p["images"][0].update(width=math.nan), r"images\[0\]: width nan is not a number"),
        (lambda p: p["images"].__setitem__(0, 5), r"images\[0\]: must be an object, got 5"),
        (lambda p: p["annotations"].append("box"), r"annotations\[\d+\]: must be an object, got 'box'"),
        (lambda p: p["categories"].insert(0, [1, "deer"]), r"categories\[0\]: must be an object"),
        (lambda p: p.update(categories=3), r"categories must be a list, got 3"),
        (lambda p: p.update(images={"id": "a"}), r"images must be a list, got \{'id'"),
        # int() and float() read a JSON boolean as 1 or 0.
        (lambda p: p["images"][0].update(location=True), r"images\[0\]: location True is not a number"),
        (lambda p: p["images"][1].update(height=True), r"images\[1\]: height True is not a number"),
        (lambda p: p["images"][2].update(width=False), r"images\[2\]: width False is not a number"),
        (lambda p: p["categories"][1].update(id=True), r"categories\[1\]: id True is not a number"),
        (lambda p: p["annotations"][0].update(category_id=True), r"annotations\[0\]: category_id True is not a number"),
        (lambda p: p["annotations"][1].update(bbox=[True, 0, 5, False]),
         r"annotations\[1\]: bbox \[True, 0, 5, False\] has a non-numeric value"),
        (lambda p: p["annotations"][2].update(bbox=[1, 2, 3, False]),
         r"annotations\[2\]: bbox \[1, 2, 3, False\] has a non-numeric value"),
        # int() and float() read a string such as "1_00" or " 7 " as a number.
        (lambda p: p["images"][0].update(width="1_00"), r"images\[0\]: width '1_00' is not a number"),
        (lambda p: p["images"][1].update(location=" 7 "), r"images\[1\]: location ' 7 ' is not a number"),
        (lambda p: p["images"][2].update(height="80"), r"images\[2\]: height '80' is not a number"),
        (lambda p: p["categories"][0].update(id="1"), r"categories\[0\]: id '1' is not a number"),
        (lambda p: p["annotations"][0].update(category_id="2"), r"annotations\[0\]: category_id '2' is not a number"),
        (lambda p: p["annotations"][1].update(bbox=["1_0", " 2", "3e0", "4"]),
         r"annotations\[1\]: bbox \['1_0', ' 2', '3e0', '4'\] has a non-numeric value"),
        (lambda p: p["annotations"][2].update(bbox=[1, 2, 3, "4"]),
         r"annotations\[2\]: bbox \[1, 2, 3, '4'\] has a non-numeric value"),
    ],
)
def test_parse_rejects_malformed_input(annotation_file, mutate, fragment):
    payload = make_annotation_payload(num_images=3)
    mutate(payload)
    with pytest.raises(FormatError, match=fragment):
        parse_annotations(annotation_file(payload))


# (date as written, the day it names, or None where it is a bad date). The
# accepted texts read alike on Python 3.10 and later; 3.11's
# date.fromisoformat reads "20230504", "2023-W18-4" and the int 20230504 too.
DATES = [
    ("2023-05-04", dt.date(2023, 5, 4)),
    ("2023-05-04T08:15", dt.date(2023, 5, 4)),
    ("2023-05-04 08:15:00", dt.date(2023, 5, 4)),
    ("2023-05-04T08:15:00.123456Z", dt.date(2023, 5, 4)),
    ("2023-05-04T00:00:00+02:00", dt.date(2023, 5, 4)),
    ("2024-02-29T23:59:59-23:59", dt.date(2024, 2, 29)),
    ("0001-01-01", dt.date(1, 1, 1)),
    ("2023-05-04 not a date at all", None),
    ("20230504", None),
    ("2023-W18-4", None),
    (20230504, None),
    ("2023-5-4", None),
    ("2023-02-29", None),
    ("0000-01-01", None),
    ("2023-05-04Z", None),
    ("2023-05-04T08", None),
    ("2023-05-04T24:00", None),
    ("2023-05-04T08:60", None),
    ("2023-05-04T08:15:60", None),
    ("2023-05-04T08:15:00.123", None),
    ("2023-05-04T08:15:00,123456", None),
    ("2023-05-04T08:15+24:00", None),
    ("2023-05-04T08:15+01:60", None),
    ("2023-05-04T08:15+0200", None),
    ("2023-05-04  08:15", None),
    ("2023-05-04\n", None),
    ("\uff12\uff10\uff12\uff13-05-04", None),  # fullwidth digits
]


@pytest.mark.parametrize("raw,day", DATES)
def test_a_date_reads_the_same_on_every_interpreter(annotation_file, raw, day):
    payload = make_annotation_payload(num_images=3)
    payload["images"][1]["date"] = raw
    path = annotation_file(payload)
    image_id = payload["images"][1]["id"]
    reads = (
        lambda: parse_annotations(path).records[1].capture_date,
        lambda: read_annotation_columns(path).images[image_id][1],
        lambda: parse_annotations_definition(path).records[1].capture_date,
    )
    for read in reads:
        if day is None:
            with pytest.raises(FormatError, match=re.escape(f"images[1]: bad date {raw!r}")):
                read()
        else:
            assert read() == day


def test_parse_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(FormatError):
        parse_annotations(path)
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(FormatError):
        parse_annotations(path)


@pytest.mark.parametrize(
    "text,cause",
    [
        ('{"images": [{"width": ' + "9" * 5000 + "}]}", "Exceeds the limit (4300 digits)"),
        ("[" * 100_000, "maximum recursion depth exceeded"),
    ],
    ids=["5000-digit-int", "nested-100000-deep"],
)
@pytest.mark.parametrize("read", [read_annotation_columns, parse_annotations])
def test_read_rejects_json_that_python_cannot_hold(tmp_path, read, text, cause):
    """JSON that keeps to the grammar but not to Python's limits on integer
    digits and nesting is a FormatError naming the file, like any bad JSON."""
    path = tmp_path / "limits.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as info:
        read(path)
    assert str(info.value).startswith(f"{path}: invalid JSON ({cause}")



def assert_read_pauses_the_cyclic_gc(monkeypatch, annotation_file, read, enabled, valid):
    """``read`` loads the JSON with the collector paused and leaves it as it
    found it, also when the file is rejected."""
    payload = make_annotation_payload(num_images=3)
    if not valid:
        payload["annotations"][0]["bbox"] = ["x", 1, 2, 3]
    path = annotation_file(payload)
    seen = []
    load = json.load
    monkeypatch.setattr(json, "load", lambda stream: seen.append(gc.isenabled()) or load(stream))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if valid:
            assert read(path)
        else:
            with pytest.raises(FormatError, match="non-numeric"):
                read(path)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("valid", [True, False])
def test_parse_pauses_the_cyclic_gc_and_restores_it(monkeypatch, annotation_file, enabled, valid):
    def read(path):
        return len(parse_annotations(path).records) == 3

    assert_read_pauses_the_cyclic_gc(monkeypatch, annotation_file, read, enabled, valid)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("valid", [True, False])
def test_read_annotation_columns_pauses_the_cyclic_gc_and_restores_it(monkeypatch, annotation_file, enabled, valid):
    def read(path):
        return len(read_annotation_columns(path).images) == 3

    assert_read_pauses_the_cyclic_gc(monkeypatch, annotation_file, read, enabled, valid)


def test_the_columns_hold_only_exact_json_types(tmp_path):
    """``write_annotation_rows`` prints what ``read_annotation_columns``
    returns with no type test, so the columns hold exact types only: str
    ids, file names and category names, non-bool int sizes, locations and
    category ids, and finite float or int corners. Checked on seeded awkward
    files, some fields written as integral floats or image ids as numbers,
    which the reader takes through its checked path."""
    rng = random.Random(34)
    for i in range(40):
        payload = awkward_split_payload(rng.randrange(10**6), rng.randint(5, 40))
        for element in payload["categories"] + payload["images"] + payload["annotations"]:
            for key in ("id", "location", "width", "height", "category_id"):
                if type(element.get(key)) is int and rng.random() < 0.3:
                    element[key] = float(element[key])
        for image in rng.sample(payload["images"], 2):  # a number as image id, in every reference
            number = rng.choice((rng.randrange(10**6), rng.randrange(100) + 0.5))
            for ann in payload["annotations"]:
                if ann["image_id"] == image["id"]:
                    ann["image_id"] = number
            image["id"] = number
        path = tmp_path / f"awkward{i}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        read = read_annotation_columns(path)
        assert {type(k) for k in read.categories} | {type(n) for n in read.categories.values()} == {int, str}
        for image_id, (location, capture_date, width, height, file_name) in read.images.items():
            assert (type(image_id), type(location), type(width), type(height)) == (str, int, int, int)
            assert (type(capture_date), type(file_name)) == (dt.date, str)
        assert all(type(image_id) is str for image_id in read.image_id)
        assert all(type(category_id) is int for category_id in read.category_id)
        assert all(type(c) in (float, int) and math.isfinite(c) for c in read.corners)
        assert len(read.corners) == 4 * len(read.image_id) == 4 * len(payload["annotations"])
        # Nothing the parser made for the annotations is kept: the corners are
        # doubles in a buffer, and each image id is its image's key object.
        assert type(read.corners) is array and read.corners.typecode == "d"
        keys = {id(image_id) for image_id in read.images}
        assert all(id(image_id) in keys for image_id in read.image_id)


def test_parse_accepts_integral_numbers(annotation_file):
    payload = make_annotation_payload(num_images=3)
    as_floats = copy.deepcopy(payload)
    for element in as_floats["categories"] + as_floats["images"] + as_floats["annotations"]:
        for key in ("id", "location", "width", "height", "category_id"):
            if isinstance(element.get(key), int):
                element[key] = float(element[key])
    data = parse_annotations(annotation_file(as_floats, "floats.json"))
    assert data == parse_annotations(annotation_file(payload))
    numbers = [*data.categories]
    for rec in data.records:
        numbers += [rec.location_id, rec.width, rec.height]
        numbers += [gt.category_id for gt in rec.annotations]
    assert {type(n) for n in numbers} == {int}


def clamp_box_definition(x1, y1, x2, y2, width, height):
    return BoundingBox(
        min(max(x1, 0.0), width),
        min(max(y1, 0.0), height),
        min(max(x2, 0.0), width),
        min(max(y2, 0.0), height),
    ).normalized()


def exact(box):
    """Corners compared by type and repr, so -0.0 and NaN count."""
    return [(type(v), repr(v)) for v in box.corners()]


def test_clamp_box_equals_its_definition():
    values = (-5.0, -0.0, 0.0, 2, 3.5, 8.0, 10, 12.25, math.nan, math.inf, -math.inf)
    for width, height in ((10, 8), (0, 0)):
        for corners in itertools.product(values, repeat=4):
            expected = clamp_box_definition(*corners, width, height)
            assert exact(BoundingBox(*_clamp_box(*corners, width, height))) == exact(expected), corners


# --- the reader against its definition ---------------------------------------

def _require_definition(mapping, key, context):
    if key not in mapping:
        raise FormatError(f"{context}: missing field {key!r}")
    return mapping[key]


def _integer_definition(mapping, key, context):
    value = _require_definition(mapping, key, context)
    if isinstance(value, (bool, str)):
        raise FormatError(f"{context}: {key} {value!r} is not a number")
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{context}: {key} {value!r} is not a number") from exc
    if number != value and isinstance(value, float):
        raise FormatError(f"{context}: {key} {value!r} is not an integer")
    return number


# Every text a date may be: an ASCII digit at each 9, the other characters as
# they stand.
DATE_SHAPES = {"9999-99-99"} | {
    f"9999-99-99{sep}{clock}{zone}"
    for sep in "T "
    for clock in ("99:99", "99:99:99", "99:99:99.999999")
    for zone in ("", "Z", "+99:99", "-99:99")
}


def date_definition(raw_date, context):
    """The day a JSON date string of one of DATE_SHAPES names, its time of
    day and offset in range. Every shape is one that date.fromisoformat reads
    on Python 3.10 as on later versions, once a Z reads as +00:00."""
    try:
        if not isinstance(raw_date, str) or "".join(
            "9" if c in "0123456789" else c for c in raw_date
        ) not in DATE_SHAPES:
            raise ValueError("not a date of a documented shape")
        text = raw_date.removesuffix("Z")
        if len(text) > 10 and text[-6] in "+-":
            if int(text[-5:-3]) > 23 or int(text[-2:]) > 59:
                raise ValueError("offset out of range")
            text = text[:-6]
        return dt.datetime.fromisoformat(text).date()
    except ValueError as exc:
        raise FormatError(f"{context}: bad date {raw_date!r}") from exc


def _objects_definition(payload, section, path):
    elements = payload.get(section, [])
    if not isinstance(elements, list):
        raise FormatError(f"{path}: {section} must be a list, got {elements!r:.40}")
    for i, element in enumerate(elements):
        context = f"{section}[{i}]"
        if not isinstance(element, dict):
            raise FormatError(f"{context}: must be an object, got {element!r:.40}")
        yield context, element


def read_annotations_definition(path):
    """What read_annotation_columns reads: every element through every
    check, in order, with the first failing check naming the element. The
    categories, the images' fields by id and the ground truths in file
    order."""
    try:
        with open(path, "r", encoding="utf-8") as stream:
            payload = json.load(stream)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: top level must be an object")

    categories = {}
    for context, cat in _objects_definition(payload, "categories", path):
        cid = _integer_definition(cat, "id", context)
        if cid in categories:
            raise FormatError(f"{context}: duplicate category id {cid}")
        categories[cid] = str(_require_definition(cat, "name", context))

    images = {}
    for context, img in _objects_definition(payload, "images", path):
        image_id = str(_require_definition(img, "id", context))
        if image_id in images:
            raise FormatError(f"{context}: duplicate image id {image_id!r}")
        capture_date = date_definition(_require_definition(img, "date", context), context)
        images[image_id] = (
            _integer_definition(img, "location", context),
            capture_date,
            _integer_definition(img, "width", context),
            _integer_definition(img, "height", context),
            str(img.get("file_name", "")),
        )

    ground_truths = []
    for context, ann in _objects_definition(payload, "annotations", path):
        image_id = str(_require_definition(ann, "image_id", context))
        if image_id not in images:
            raise FormatError(f"{context}: unknown image id {image_id!r}")
        category_id = _integer_definition(ann, "category_id", context)
        if category_id not in categories:
            raise FormatError(f"{context}: unknown category id {category_id}")
        bbox = _require_definition(ann, "bbox", context)
        if not isinstance(bbox, (list, tuple)) or len(bbox) != 4:
            raise FormatError(f"{context}: bbox must be [x, y, w, h]")
        try:
            if any(isinstance(v, (bool, str)) for v in bbox):
                raise TypeError("a boolean or a string is not a number")
            x, y, w, h = map(float, bbox)
        except (TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{context}: bbox {bbox!r} has a non-numeric value") from exc
        if not all(map(math.isfinite, (x, y, w, h))):
            raise FormatError(f"{context}: bbox {bbox!r} has a non-finite value")
        _, _, width, height, _ = images[image_id]
        box = clamp_box_definition(x, y, x + w, y + h, width, height)
        ground_truths.append(GroundTruth(box, category_id, image_id))
    return categories, images, ground_truths


def parse_annotations_definition(path) -> Dataset:
    """What parse_annotations reads: one record per image, in file order,
    with its ground truths in file order."""
    categories, images, ground_truths = read_annotations_definition(path)
    annotations = {image_id: [] for image_id in images}
    for gt in ground_truths:
        annotations[gt.image_id].append(gt)
    records = tuple(
        ImageRecord(image_id, *fields, annotations=tuple(annotations[image_id]))
        for image_id, fields in images.items()
    )
    return Dataset(records, categories)


def leaf(value):
    return type(value), repr(value)


def exact_dataset(dataset: Dataset) -> list:
    """Every field of every record and category, by type and repr."""
    records = [
        [leaf(getattr(rec, name)) for name in ("image_id", "location_id", "capture_date", "width", "height", "file_name")]
        + [[leaf(gt.category_id), leaf(gt.image_id), exact(gt.box)] for gt in rec.annotations]
        for rec in dataset.records
    ]
    return [records, [(leaf(cid), leaf(name)) for cid, name in dataset.categories.items()]]


def exact_read(categories, images, ground_truths) -> list:
    """A read as ``read_annotations_definition`` gives it, every field by
    type and repr, the ground truths in file order."""
    return [
        [(leaf(cid), leaf(name)) for cid, name in categories.items()],
        [(leaf(image_id), [leaf(f) for f in fields]) for image_id, fields in images.items()],
        [[leaf(gt.image_id), leaf(gt.category_id), exact(gt.box)] for gt in ground_truths],
    ]


def exact_columns(read) -> list:
    """``read_annotation_columns``' result in ``exact_read``'s form."""
    quads = iter(read.corners)
    ground_truths = [
        GroundTruth(BoundingBox(*box), category_id, image_id)
        for image_id, category_id, box in zip(read.image_id, read.category_id, zip(quads, quads, quads, quads))
    ]
    assert len(read.corners) == 4 * len(read.image_id) == 4 * len(read.category_id)
    return exact_read(read.categories, read.images, ground_truths)


def read_outcome(parse, path, exact_form=exact_dataset):
    try:
        return "records", exact_form(parse(path))
    except FormatError as exc:
        return "error", str(exc)


FIELDS = {
    "categories": ("id", "name"),
    "images": ("id", "date", "location", "width", "height", "file_name"),
    "annotations": ("id", "image_id", "category_id", "bbox"),
}
HUGE = "@1e400@"  # written into the JSON text as the literal 1e400


def retyped(value, rng: random.Random):
    """The value as a bool, an integral or non-integral float, a digit
    string, null, a list or an object."""
    kind = rng.randrange(7)
    number = value if type(value) in (int, float) else rng.randrange(1, 5)
    if kind == 0:
        return rng.random() < 0.5
    if kind == 1:
        return float(int(number))
    if kind == 2:
        return number + rng.choice((0.5, -0.25, 1e-9))
    if kind == 3:  # a list (a box) becomes four digits; a number, a string int() or float() reads
        return "1234" if isinstance(value, list) else rng.choice((str(number), f" {number} ", "1_0", "3e0"))
    if kind == 4:
        return None
    if kind == 5:
        return [value]
    if isinstance(value, list):  # an object with four digit keys
        return {str(i): v for i, v in enumerate(value)}
    return {"value": value}


def mutate_annotations(payload: dict, rng: random.Random) -> None:
    """One seeded fault, or an unusual but valid value, in a payload."""

    def objects(section):  # the section's elements that are still objects
        value = payload.get(section)
        return [e for e in value if isinstance(e, dict)] if isinstance(value, list) else []

    images, annotations = objects("images"), objects("annotations")
    boxes = [ann["bbox"] for ann in annotations if isinstance(ann.get("bbox"), list)]
    op = rng.randrange(14)
    if op == 12 and annotations:
        ann = rng.choice(annotations)
        ann["bbox"] = retyped(ann.get("bbox"), rng)
    elif op == 13 and boxes and len(box := rng.choice(boxes)) == 4:  # a negative width or height
        i = rng.choice((2, 3))
        box[i] = -box[i] if type(box[i]) in (int, float) else box[i]
    elif op in (0, 1) and objects(section := rng.choice(tuple(FIELDS))):  # a field dropped or retyped
        element = rng.choice(objects(section))
        key = rng.choice(FIELDS[section])
        if op == 0:
            element.pop(key, None)
        else:
            element[key] = retyped(element.get(key), rng)
    elif op == 2 and boxes:  # bbox arity 3 or 5
        box = rng.choice(boxes)
        box[:] = (box + [1.5])[: rng.choice((3, 5))]
    elif op == 3 and boxes and (box := rng.choice(boxes)):  # one unusual box value
        box[rng.randrange(len(box))] = rng.choice(
            (math.nan, math.inf, -math.inf, HUGE, -0.0, 10**400, -5.5, 1000.25, True, "7", " 2", "1_0", "3e0",
             0, 60.0, 80, 99.5)  # the last four place a box on or across the image edge
        )
    elif op == 4 and annotations and images:
        rng.choice(annotations)["image_id"] = rng.choice(("ghost", f"{images[0].get('id')} "))
    elif op == 5 and annotations:
        rng.choice(annotations)["category_id"] = rng.choice((99, -1, 0))
    elif op == 6 and images:
        rng.choice(images)["id"] = rng.choice(images).get("id")
    elif op == 7 and isinstance(section := payload.get(rng.choice(tuple(FIELDS))), list) and section:
        section[rng.randrange(len(section))] = rng.choice((5, "box", [1, 2], None, True))
    elif op in (8, 9) and images:  # another image's date, or its own, with a time suffix
        day = rng.choice(images).get("date")
        if isinstance(day, str):
            suffix = rng.choice(("T12:00:00", "T00:00:00+02:00", " junk", "Z", ""))
            rng.choice(images)["date"] = day + suffix
    elif op == 10 and images:
        rng.choice(images)["date"] = rng.choice(
            ("2023-13-01", "2023-02-30", "not-a-date", "", "2023-13-01T10:00:00",
             "2023-02-30 noon", "20230504", "2023-W01-1", "2023-5-4")
        )
    elif op == 11:  # a section that is not a list, or missing
        section = rng.choice(tuple(FIELDS))
        if rng.random() < 0.5:
            payload[section] = rng.choice((3, "x", {"id": 1}, None))
        else:
            payload.pop(section, None)


def test_parse_equals_its_definition_on_mutated_files(tmp_path):
    rng = random.Random(20)
    outcomes = set()
    for i in range(2100):
        payload = make_annotation_payload(
            num_images=rng.randint(1, 5), num_locations=3, seed=rng.randrange(10**6)
        )
        for _ in range(rng.choice((0, 1, 1, 1, 2, 3))):
            mutate_annotations(payload, rng)
        path = tmp_path / f"mutant{i}.json"
        path.write_text(json.dumps(payload).replace(f'"{HUGE}"', "1e400"), encoding="utf-8")
        expected = read_outcome(parse_annotations_definition, path)
        assert read_outcome(parse_annotations, path) == expected, path.read_text()
        # The columns are the same read: the ground truths flattened in file order.
        columns = read_outcome(read_annotation_columns, path, exact_columns)
        assert columns == read_outcome(read_annotations_definition, path, lambda r: exact_read(*r))
        outcomes.add(expected[0] if expected[0] == "records" else expected[1].split(": ")[-1][:12])
    assert len(outcomes) > 20  # both outcomes, and many kinds of error


# --- writing ---------------------------------------------------------------------

def write_annotations_definition(dataset: Dataset) -> str:
    """What write_annotations writes: its payload through json.dumps."""
    images = []
    annotations = []
    ann_id = 1
    for rec in dataset.records:
        images.append(
            {
                "id": rec.image_id,
                "width": rec.width,
                "height": rec.height,
                "location": rec.location_id,
                "date": rec.capture_date.isoformat(),
                "file_name": rec.file_name,
            }
        )
        for gt in rec.annotations:
            b = gt.box
            annotations.append(
                {
                    "id": ann_id,
                    "image_id": rec.image_id,
                    "category_id": gt.category_id,
                    "bbox": [b.x1, b.y1, b.width, b.height],
                }
            )
            ann_id += 1
    payload = {
        "images": images,
        "annotations": annotations,
        "categories": [{"id": cid, "name": name} for cid, name in sorted(dataset.categories.items())],
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


AWKWARD_TEXT = (
    "plain", "", "caf\u00e9", "\u96ea\u8c79", "\U0001f98a fox", 'say "cheese"', "back\\slash",
    "tab\there", "line\nbreak", "\x00\x1f\x7f", "</script>", "\u2028",
)
AWKWARD_NUMBERS = (
    0.0, -0.0, 1.5, -3.25, 0.1 + 0.2, 1e-300, 5e-324, 1.7976931348623157e308,
    math.nan, math.inf, -math.inf, 0, 7, -2, 10**20,
)


def awkward_dataset(rng: random.Random) -> Dataset:
    """Names with non-ASCII, quote, backslash and control characters; boxes
    with NaN, infinities, -0.0, integer corners and finite floats."""
    categories = {
        rng.randrange(-5, 100): rng.choice(AWKWARD_TEXT) for _ in range(rng.randrange(4))
    }
    records = []
    for i in range(rng.randrange(6)):
        image_id = f"{rng.choice(AWKWARD_TEXT)}{i}"
        boxes = [
            BoundingBox(*(
                rng.choice(AWKWARD_NUMBERS) if rng.random() < 0.4 else rng.uniform(-1e3, 1e3)
                for _ in range(4)
            ))
            for _ in range(rng.randrange(4))
        ]
        records.append(
            ImageRecord(
                image_id=image_id,
                location_id=rng.randrange(-3, 50),
                capture_date=dt.date(rng.randrange(1, 10000), rng.randrange(1, 13), rng.randrange(1, 29)),
                width=rng.choice((0, 1, 640, 4096)),
                height=rng.choice((0, 1, 480, 3072)),
                file_name=rng.choice(AWKWARD_TEXT),
                annotations=tuple(
                    GroundTruth(box, rng.choice([*categories, 3]), image_id) for box in boxes
                ),
            )
        )
    return Dataset(tuple(records), categories)


class Species(enum.IntEnum):
    BOBCAT = 1
    COYOTE = 40


def inexact_dataset(rng: random.Random) -> Dataset:
    """Fields that are not exact str, int or float: bool and IntEnum
    locations, sizes and category ids, numpy.float64 and int corners, a
    datetime capture date, and non-str file names and image ids."""
    def integer():
        return rng.choice((3, True, False, Species.BOBCAT, Species.COYOTE))

    def corner():
        return rng.choice((2.5, -0.0, 7, -3, np.float64(1.25), np.float64(-0.0), np.float64(math.nan)))

    records = []
    for i in range(rng.randrange(1, 4)):
        image_id = rng.choice((f"im{i}", i, float(i)))
        records.append(
            ImageRecord(
                image_id=image_id,
                location_id=integer(),
                capture_date=rng.choice((dt.date(2023, 5, 4), dt.datetime(2023, 5, 4, 12, 30, 1))),
                width=integer(),
                height=integer(),
                file_name=rng.choice(("a.jpg", 7, None, 1.5, True)),
                annotations=tuple(
                    GroundTruth(BoundingBox(*(corner() for _ in range(4))), integer(), image_id)
                    for _ in range(rng.randrange(3))
                ),
            )
        )
    return Dataset(tuple(records), {Species.BOBCAT: "bobcat", 3: "deer"})


def test_write_annotations_equals_json_dump(tmp_path, annotation_file):
    parsed = parse_annotations(annotation_file(make_annotation_payload(num_images=100, seed=5)))
    cases = [
        parsed,
        Dataset((), {}),
        Dataset((), {1: "bobcat"}),
        Dataset((record("bare"),), {}),
        Dataset((record("a", boxes=[((0, 0, 10, 10), 1)]), record("b")), {1: "bobcat"}),
    ]
    cases += [awkward_dataset(random.Random(seed)) for seed in range(300)]
    cases += [inexact_dataset(random.Random(seed)) for seed in range(200)]
    for i, dataset in enumerate(cases):
        out = tmp_path / f"written{i}.json"
        write_annotations(dataset, out)
        assert out.read_bytes() == write_annotations_definition(dataset).encode("ascii")


def test_write_annotations_rejects_a_value_as_json_dump_does(tmp_path):
    dataset = Dataset((record("a")._replace(location_id=np.int64(3)),), {})
    with pytest.raises(TypeError) as written:
        write_annotations(dataset, tmp_path / "out.json")
    with pytest.raises(TypeError) as dumped:
        write_annotations_definition(dataset)
    assert str(written.value) == str(dumped.value) == "Object of type int64 is not JSON serializable"
    assert not (tmp_path / "out.json").exists()


def batch_payload(annotations: int, bare_images: int, categories: bool = True) -> dict:
    """Images with two annotations each (the last maybe one), then images
    with none; boxes inside, across and past the image edge."""
    rng = random.Random(annotations * 1000 + bare_images)
    count = (annotations + 1) // 2 + bare_images
    images = [
        {"id": f"im\u00e9{i}", "width": 640, "height": 480, "location": i % 12,
         "date": f"2023-{1 + i % 12:02d}-{1 + i % 28:02d}", "file_name": f"d/{i}.jpg"}
        for i in range(count)
    ]
    return {
        "images": images,
        "annotations": [
            {"image_id": f"im\u00e9{j // 2}", "category_id": rng.choice((1, 2, 3)),
             "bbox": [rng.uniform(-20, 640), rng.uniform(-20, 480), rng.uniform(1, 300), rng.uniform(1, 300)]}
            for j in range(annotations)
        ],
        "categories": [{"id": 1, "name": "bobcat"}, {"id": 2, "name": "coyote"}, {"id": 3, "name": "empty"}]
        if categories else [],
    }


def all_rows(read) -> list[ImageRow]:
    """Every image of the columns, those with no annotation too."""
    numbers = {image_id: [] for image_id in read.images}
    for row, image_id in enumerate(read.image_id):
        numbers[image_id].append(row)
    return [ImageRow(image_id, *fields, numbers[image_id]) for image_id, fields in read.images.items()]


@pytest.mark.parametrize(
    "annotations,bare_images,categories",
    [(0, 0, True), (1, 0, True), (511, 0, True), (512, 0, True), (513, 0, True), (1025, 0, True),
     (0, 3, True), (700, 600, True), (0, 5, False), (0, 0, False)],
)
def test_write_annotation_rows_writes_json_dump_bytes_across_batches(
    tmp_path, annotation_file, annotations, bare_images, categories
):
    """Parts of 0, 1, 511, 512, 513 and 1,025 annotations, images with no
    annotation, and no categories: each of the three lists is written in
    batches of ``_BATCH`` elements, and the bytes are ``json.dumps``'."""
    assert ds._BATCH == 512
    path = annotation_file(batch_payload(annotations, bare_images, categories))
    read = read_annotation_columns(path)
    out = tmp_path / "part.json"
    write_annotation_rows(all_rows(read), read, out)
    assert out.read_bytes() == write_annotations_definition(parse_annotations(path)).encode("ascii")


def test_write_annotation_rows_memory_does_not_grow_with_the_part(tmp_path, annotation_file):
    """The writer holds one batch of elements, never a part's text: its
    traced peak for 4,000 rows is within 0.5 MiB of its peak for 1,000."""
    read = read_annotation_columns(annotation_file(batch_payload(8000, 0)))
    rows = all_rows(read)
    assert len(rows) == 4000
    peaks = []
    for count in (1000, 4000):
        tracemalloc.start()
        try:
            write_annotation_rows(rows[:count], read, tmp_path / f"part{count}.json")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 0.5 * 2**20, peaks


# --- empty filtering -------------------------------------------------------------

def test_filter_empty_cases():
    categories = {1: "bobcat", 2: "empty"}
    animal = record("a", boxes=([(0, 0, 10, 10), 1],))
    nothing = record("b")
    labeled_empty = record("c", boxes=([(0, 0, 5, 5), 2],))
    mixed = record("d", boxes=([(0, 0, 5, 5), 2], [(1, 1, 4, 4), 1]))
    data = Dataset((animal, nothing, labeled_empty, mixed), categories)
    kept = filter_empty(data)
    assert [r.image_id for r in kept.records] == ["a", "d"]
    assert filter_empty(kept).records == kept.records  # idempotent
    all_empty = Dataset((nothing, labeled_empty), categories)
    assert filter_empty(all_empty).records == ()
    no_empty = Dataset((animal, mixed), categories)
    assert filter_empty(no_empty).records == (animal, mixed)


def test_filter_empty_count_bookkeeping(annotation_file):
    payload = make_annotation_payload(num_images=135, seed=9, empty_every=10)
    data = parse_annotations(annotation_file(payload))
    empties = sum(
        1
        for r in data.records
        if all(data.categories[g.category_id] == "empty" for g in r.annotations)
    )
    kept = filter_empty(data)
    assert len(kept.records) == len(data.records) - empties
    assert empties == 14  # images 0, 10, ..., 130


# --- split protocol ----------------------------------------------------------------

def synthetic_records(num=400, locations=20, seed=0):
    rng = random.Random(seed)
    records = []
    for i in range(num):
        records.append(
            record(
                image_id=f"r{i:04d}",
                location=i % locations,
                date=dt.date(2023, rng.randint(1, 12), rng.randint(1, 28)),
                boxes=([(0, 0, 10, 10), 1],),
            )
        )
    return records


def make_config(seed=0, **kwargs):
    return SplitConfig(
        trans_test_locations=tuple(range(9)),
        trans_val_location=9,
        seed=seed,
        **kwargs,
    )


def test_split_partitions_locations():
    records = synthetic_records()
    result = split_cis_trans(records, make_config())
    assert verify_split(result) == []
    trans_locs = {r.location_id for r in result.trans_test}
    assert trans_locs == set(range(9))
    assert {r.location_id for r in result.trans_val} == {9}
    cis_locs = {
        r.location_id for r in result.train + result.cis_val + result.cis_test
    }
    assert cis_locs == set(range(10, 20))
    total = sum(len(p) for p in result.all_parts().values())
    assert total == len(records)


def test_split_day_parity():
    result = split_cis_trans(synthetic_records(seed=3), make_config())
    assert all(r.capture_date.day % 2 == 1 for r in result.cis_test)
    assert all(r.capture_date.day % 2 == 0 for r in result.train)
    assert all(r.capture_date.day % 2 == 0 for r in result.cis_val)


def test_split_all_odd_days_leaves_training_empty():
    records = [
        record(f"o{i}", location=i % 20, date=dt.date(2023, 1, 1 + 2 * (i % 14)))
        for i in range(100)
    ]
    assert all(r.capture_date.day % 2 == 1 for r in records)
    result = split_cis_trans(records, make_config())
    assert result.train == () and result.cis_val == ()
    assert len(result.cis_test) > 0


def test_split_deterministic_per_seed():
    records = synthetic_records(seed=4)
    a = split_cis_trans(records, make_config(seed=11))
    b = split_cis_trans(records, make_config(seed=11))
    c = split_cis_trans(records, make_config(seed=12))
    assert a == b
    assert {r.image_id for r in a.cis_val} != {r.image_id for r in c.cis_val}


def test_split_validates_inputs():
    with pytest.raises(SplitError, match="^need >= 10 locations, have 8$"):
        split_cis_trans(synthetic_records(locations=8), make_config())
    missing = SplitConfig(trans_test_locations=(50, 51, 52), trans_val_location=53)
    with pytest.raises(SplitError):
        split_cis_trans(synthetic_records(), missing)
    with pytest.raises(SplitError):
        SplitConfig(trans_test_locations=(), trans_val_location=1)
    with pytest.raises(SplitError):
        SplitConfig(trans_test_locations=(1,), trans_val_location=1)
    with pytest.raises(SplitError):
        make_config(cis_val_fraction=1.0)
    with pytest.raises(SplitError):
        make_config(day_basis="weekday")


def test_split_day_of_year_basis():
    # Feb 2nd: even day-of-month but odd day-of-year (33)
    records = synthetic_records()
    records.append(record("edge", location=15, date=dt.date(2023, 2, 2)))
    by_month = split_cis_trans(records, make_config())
    by_year = split_cis_trans(records, make_config(day_basis="day_of_year"))
    month_side = "edge" in {r.image_id for r in by_month.cis_test}
    year_side = "edge" in {r.image_id for r in by_year.cis_test}
    assert not month_side and year_side
    assert verify_split(by_year) == []


def test_verify_split_catches_violations():
    result = split_cis_trans(synthetic_records(), make_config())
    # graft a trans-location image into the training set
    bad = ImageRecord(
        image_id="intruder",
        location_id=0,
        capture_date=dt.date(2023, 1, 2),
        width=10,
        height=10,
    )
    tampered = type(result)(
        train=result.train + (bad,),
        cis_val=result.cis_val,
        cis_test=result.cis_test,
        trans_val=result.trans_val,
        trans_test=result.trans_test,
        config=result.config,
    )
    problems = verify_split(tampered)
    assert any("overlap" in p for p in problems)
    duplicated = type(result)(
        train=result.train,
        cis_val=result.cis_val,
        cis_test=result.cis_test + (result.cis_test[0],),
        trans_val=result.trans_val,
        trans_test=result.trans_test,
        config=result.config,
    )
    assert any("appears in both" in p for p in verify_split(duplicated))
    swapped = type(result)(
        train=result.cis_test[:1],
        cis_val=result.cis_test[1:2],
        cis_test=result.train[:1],
        trans_val=(),
        trans_test=(),
        config=result.config,
    )
    assert verify_split(swapped) == [
        f"cis_test image {result.train[0].image_id} not on an odd day",
        f"train image {result.cis_test[0].image_id} not on an even day",
        f"cis_val image {result.cis_test[1].image_id} not on an even day",
    ]


def test_split_report_includes_expected_diff():
    result = split_cis_trans(synthetic_records(), make_config())
    report = split_report(result, REFERENCE_SPLIT_COUNTS)
    assert "split,expected,actual,delta" in report
    assert "train,12099," in report
    assert "location,split,images" in report


# --- resize and augmentation ----------------------------------------------------------

def checkerboard(width, height):
    grid = np.indices((height, width)).sum(axis=0) % 2
    return Tensor3(np.stack([grid * 255.0] * 3))


def test_resize_identity():
    rec = record(size=(64, 64), boxes=([(0, 0, 64, 64), 1],))
    raster = checkerboard(64, 64)
    out_rec, out_raster = resize_with_boxes(rec, raster, 64)
    assert np.array_equal(out_raster.data, raster.data)
    assert out_rec.annotations[0].box == BoundingBox(0, 0, 64, 64)


def test_resize_halves_x_for_wide_image():
    rec = record(size=(1280, 640), boxes=([(100, 100, 300, 200), 1],))
    raster = Tensor3(np.zeros((3, 640, 1280)))
    out_rec, out_raster = resize_with_boxes(rec, raster, 640)
    assert out_raster.shape == (3, 640, 640)
    assert out_rec.annotations[0].box == BoundingBox(50, 100, 150, 200)
    full = record(size=(1280, 640), boxes=([(0, 0, 1280, 640), 1],))
    out_rec, _ = resize_with_boxes(full, raster, 640)
    assert out_rec.annotations[0].box == BoundingBox(0, 0, 640, 640)


def test_resize_validates_dimensions():
    rec = record(size=(10, 10))
    with pytest.raises(FormatError):
        resize_with_boxes(rec, Tensor3(np.zeros((3, 5, 5))), 8)


def test_rotate90_box_fixture():
    rec = record(size=(100, 100), boxes=([(10, 20, 30, 40), 1],))
    raster = checkerboard(100, 100)
    out_rec, _ = augment(rec, raster, [AugmentOp("rotate90", 1)])
    assert out_rec.annotations[0].box == BoundingBox(20, 70, 40, 90)


def test_rotate90_four_times_is_identity():
    rec = record(size=(60, 40), boxes=([(5, 8, 20, 30), 1],))
    rng = np.random.default_rng(0)
    raster = Tensor3(rng.integers(0, 256, (3, 40, 60)).astype(float))
    out_rec, out_raster = augment(rec, raster, [AugmentOp("rotate90", 4)])
    assert np.array_equal(out_raster.data, raster.data)
    assert out_rec.annotations[0].box == rec.annotations[0].box
    assert (out_rec.width, out_rec.height) == (60, 40)


def test_rotate90_matches_pixel_mapping():
    rec = record(size=(4, 3))
    raster = Tensor3(np.arange(12, dtype=float).reshape(1, 3, 4).repeat(3, axis=0))
    _, out = augment(rec, raster, [AugmentOp("rotate90", 1)])
    # pixel (ix, iy) moves to (iy, W-1-ix)
    for iy in range(3):
        for ix in range(4):
            assert out.data[0, 4 - 1 - ix, iy] == raster.data[0, iy, ix]


def test_identity_parameters_change_nothing():
    rec = record(size=(32, 32), boxes=([(4, 4, 20, 20), 1],))
    raster = checkerboard(32, 32)
    ops = [AugmentOp("scale", 1.0), AugmentOp("brightness", 0.0), AugmentOp("contrast", 1.0)]
    out_rec, out_raster = augment(rec, raster, ops)
    assert np.array_equal(out_raster.data, raster.data)
    assert out_rec.annotations == rec.annotations


def test_brightness_and_contrast_clamp():
    rec = record(size=(2, 2))
    raster = Tensor3(np.full((3, 2, 2), 250.0))
    _, bright = augment(rec, raster, [AugmentOp("brightness", 64)])
    assert np.all(bright.data == 255.0)
    _, dark = augment(rec, Tensor3(np.full((3, 2, 2), 10.0)), [AugmentOp("brightness", -64)])
    assert np.all(dark.data == 0.0)
    _, contrasted = augment(rec, Tensor3(np.full((3, 2, 2), 64.0)), [AugmentOp("contrast", 1.5)])
    assert np.all(contrasted.data == (64 - 128) * 1.5 + 128)


def test_scale_updates_boxes_and_drops_slivers():
    rec = record(size=(100, 100), boxes=([(10, 10, 50, 50), 1], [(0, 0, 1.5, 1.2), 2]))
    raster = checkerboard(100, 100)
    out_rec, out_raster = augment(rec, raster, [AugmentOp("scale", 0.5)])
    assert out_raster.shape == (3, 50, 50)
    assert len(out_rec.annotations) == 1  # the sliver fell below 1 px^2
    assert out_rec.annotations[0].box == BoundingBox(5, 5, 25, 25)


def test_augment_validates_parameters():
    with pytest.raises(ValueError):
        AugmentOp("scale", 2.0)
    with pytest.raises(ValueError):
        AugmentOp("brightness", 100.0)
    with pytest.raises(ValueError):
        AugmentOp("warp")
    rec = record(size=(4, 4))
    with pytest.raises(FormatError):
        augment(rec, Tensor3(np.zeros((3, 8, 8))), [AugmentOp("brightness", 1.0)])


def test_augment_sampled_parameters_are_seeded():
    rec = record(size=(16, 16), boxes=([(2, 2, 10, 10), 1],))
    raster = checkerboard(16, 16)
    ops = [AugmentOp("rotate90"), AugmentOp("brightness"), AugmentOp("contrast")]
    a_rec, a_raster = augment(rec, raster, ops, seed=42)
    b_rec, b_raster = augment(rec, raster, ops, seed=42)
    c_rec, c_raster = augment(rec, raster, ops, seed=43)
    assert np.array_equal(a_raster.data, b_raster.data)
    assert a_rec == b_rec
    assert not np.array_equal(a_raster.data, c_raster.data)


def test_boxes_stay_inside_bounds_after_augmentation():
    rng = random.Random(12)
    for trial in range(25):
        w, h = rng.randint(8, 40), rng.randint(8, 40)
        boxes = [
            ((rng.uniform(0, w - 2), rng.uniform(0, h - 2), rng.uniform(2, w), rng.uniform(2, h)), 1)
        ]
        rec = record(size=(w, h), boxes=boxes)
        raster = Tensor3(np.zeros((3, h, w)))
        ops = [AugmentOp("rotate90", rng.randint(0, 3)), AugmentOp("scale", rng.uniform(0.5, 1.5))]
        out_rec, out_raster = augment(rec, raster, ops, seed=trial)
        for gt in out_rec.annotations:
            assert 0 <= gt.box.x1 <= gt.box.x2 <= out_rec.width
            assert 0 <= gt.box.y1 <= gt.box.y2 <= out_rec.height


AUGMENT_KINDS = ("rotate90", "scale", "brightness", "contrast")
AUGMENT_OPS = {
    "given": [AugmentOp("rotate90", 3), AugmentOp("scale", 0.75), AugmentOp("brightness", -20.5),
              AugmentOp("contrast", 1.25), AugmentOp("rotate90", 1), AugmentOp("scale", 1.5),
              AugmentOp("brightness", 64.0), AugmentOp("contrast", 0.5)],
    "sampled": [AugmentOp(kind) for kind in AUGMENT_KINDS * 2],
}
# sha256 of augment's record (its repr, every float exact) and raster (dtype,
# shape and bytes) on a seeded raster with seeded boxes; frozen before the
# range re-checks of the given and sampled values left augment.
AUGMENT_PINS = {
    ("given", 0): "b1e3dbfe1bda6daea8de18bf78e7574cb0e6b1aa6a4bf68ea35240cf0bed3de8",
    ("given", 1): "c5fdc6bf0cba0d6498d41ce75be110a08f67018fce55a98dda15463a4a75cbab",
    ("given", 2): "afa403d719e97975f9fbb7a547d989d0a8a9f59ebf2bfb6718f78471087a3d61",
    ("sampled", 0): "f2b7864f2fb7159a2748ac0d78b3214416184e308cc31a1c407e1e228918e64d",
    ("sampled", 1): "699d9ba7b836602e00b285c07c6e5800adf1d984acb0b28afdbdca9f7e105c37",
    ("sampled", 2): "df9ce9342074b5fc9a8447878e1f148f72b359de3495a8609ad25ea17c9b638a",
}


def augment_digest(ops: str, seed: int) -> str:
    rng = np.random.default_rng(seed)
    w, h = 23 + seed, 17 + 2 * seed
    xs = np.sort(rng.uniform(0, w, (4, 2))).tolist()
    ys = np.sort(rng.uniform(0, h, (4, 2))).tolist()
    boxes = [((x1, y1, x2, y2), i + 1) for i, ((x1, x2), (y1, y2)) in enumerate(zip(xs, ys))]
    rec = record(size=(w, h), boxes=boxes)
    raster = Tensor3(rng.integers(0, 256, (3, h, w)).astype(float))
    out_rec, out_raster = augment(rec, raster, AUGMENT_OPS[ops], seed=seed)
    digest = hashlib.sha256(repr(out_rec).encode())
    for part in (out_raster.data.dtype.str, repr(out_raster.shape)):
        digest.update(part.encode())
    digest.update(out_raster.data.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("ops,seed", list(AUGMENT_PINS))
def test_augment_bytes_are_pinned(ops, seed):
    assert augment_digest(ops, seed) == AUGMENT_PINS[ops, seed]


# --- raster I/O --------------------------------------------------------------------------

def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    tensor = Tensor3(rng.integers(0, 256, (3, 7, 5)).astype(float))
    path = tmp_path / "img.ppm"
    write_ppm(tensor, path)
    assert np.array_equal(read_ppm(path).data, tensor.data)


def test_ppm_single_red_pixel_bytes(tmp_path):
    path = tmp_path / "red.ppm"
    write_ppm(Tensor3(np.array([[[255.0]], [[0.0]], [[0.0]]])), path)
    assert path.read_bytes() == b"P6\n1 1\n255\n\xff\x00\x00"


def test_ppm_header_comments(tmp_path):
    path = tmp_path / "commented.ppm"
    path.write_bytes(b"P6\n# a comment\n2 1\n# another\n255\n" + bytes([1, 2, 3, 4, 5, 6]))
    tensor = read_ppm(path)
    assert tensor.shape == (3, 1, 2)
    assert tensor.data[0, 0, 0] == 1.0 and tensor.data[2, 0, 1] == 6.0


@pytest.mark.parametrize(
    "payload,message",
    [
        (b"P5\n1 1\n255\n\x00", "bad magic b'P5', expected b'P6'"),
        (b"P6\n1 1\n65535\n\x00\x00\x00", "unsupported maxval 65535"),
        (b"P6\n2 2\n255\n\x00\x00\x00", "truncated pixel data: got 3 of 12 bytes"),
        (b"P6\nx 1\n255\n\x00\x00\x00", "non-numeric header field"),
        (b"P6\n0 5\n255\n", "bad dimensions 0x5"),
        (b"P6\n5 -1\n255\n", "bad dimensions 5x-1"),
    ],
)
def test_ppm_rejects_malformed(tmp_path, payload, message):
    path = tmp_path / "bad.ppm"
    path.write_bytes(payload)
    with pytest.raises(FormatError, match=message):
        read_ppm(path)


@pytest.mark.parametrize("magic,read", [(b"P6", read_ppm)])
@pytest.mark.parametrize("side", [100_000, 10_000_000_000])
def test_raster_readers_reject_sizes_beyond_the_file(tmp_path, magic, read, side):
    """The header's size is not allocated up front: a 30 GB or
    past-sys.maxsize claim on a 3-byte payload reads as truncated."""
    path = tmp_path / "huge.img"
    path.write_bytes(magic + f"\n{side} {side}\n255\n".encode("ascii") + b"abc")
    expected = 3 * side * side
    with pytest.raises(FormatError, match=f"truncated pixel data: got 3 of {expected} bytes"):
        read(path)


VALID_PPM = b"P6\n# comment\n3 2\n255\n" + bytes(range(0, 180, 10))
PPM_SYMBOLS = tuple(bytes([c]) for c in b"0123456789 \t\n#P56+-a\x00\xff")


@given(data=mutants(VALID_PPM, PPM_SYMBOLS))
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_mutated_ppm_reads_or_raises_a_trapeval_error(tmp_path, data):
    path = tmp_path / "mutant.ppm"  # each example writes it anew
    path.write_bytes(data)
    try:
        read_ppm(path)
    except TrapevalError:
        pass


def test_ppm_write_validation(tmp_path):
    with pytest.raises(FormatError):
        write_ppm(Tensor3(np.zeros((1, 2, 2))), tmp_path / "x.ppm")
    with pytest.raises(FormatError):
        write_ppm(Tensor3(np.full((3, 2, 2), 300.0)), tmp_path / "x.ppm")
    with pytest.raises(FormatError, match=r"^PGM needs a 2-dim grid, got shape \(3, 2, 2\)$"):
        write_pgm(np.zeros((3, 2, 2)), tmp_path / "x.pgm")
    assert not any(tmp_path.iterdir())


def test_raster_writers_reject_nan_before_opening_the_file(tmp_path):
    values = np.full((3, 2, 2), 7.0)
    values[1, 0, 1] = math.nan
    with pytest.raises(FormatError, match=r"PPM pixel values must lie in \[0, 255\]"):
        write_ppm(Tensor3(values), tmp_path / "x.ppm")
    with pytest.raises(FormatError, match=r"PGM pixel values must lie in \[0, 255\]"):
        write_pgm(values[1], tmp_path / "x.pgm")
    assert not any(tmp_path.iterdir())


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    values = rng.integers(0, 256, (4, 6)).astype(float)
    path = tmp_path / "gray.pgm"
    write_pgm(values, path)
    assert path.read_bytes() == b"P5\n6 4\n255\n" + values.astype(np.uint8).tobytes()
