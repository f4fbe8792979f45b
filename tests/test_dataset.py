import copy
import datetime as dt
import itertools
import json
import math
import random

import numpy as np
import pytest

from trapeval.boxes import BoundingBox, GroundTruth
from trapeval.dataset import (
    AugmentOp,
    Dataset,
    ImageRecord,
    SplitConfig,
    REFERENCE_SPLIT_COUNTS,
    augment,
    class_distribution,
    filter_empty,
    parse_annotations,
    resize_with_boxes,
    split_cis_trans,
    split_report,
    verify_split,
    write_annotations,
    write_distribution_csv,
    _clamp_box,
)
from trapeval.errors import FormatError, SplitError
from trapeval.ppm import read_ppm, read_pgm, write_pgm, write_ppm
from trapeval.tensor import Tensor3

from conftest import make_annotation_payload


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
    ],
)
def test_parse_rejects_malformed_input(annotation_file, mutate, fragment):
    payload = make_annotation_payload(num_images=3)
    mutate(payload)
    with pytest.raises(FormatError, match=fragment):
        parse_annotations(annotation_file(payload))


def test_parse_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(FormatError):
        parse_annotations(path)
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(FormatError):
        parse_annotations(path)


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
            assert exact(_clamp_box(*corners, width, height)) == exact(expected), corners


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
    for i, dataset in enumerate(cases):
        out = tmp_path / f"written{i}.json"
        write_annotations(dataset, out)
        assert out.read_bytes() == write_annotations_definition(dataset).encode("ascii")


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
    with pytest.raises(SplitError):
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


# --- distribution ----------------------------------------------------------------------

def test_class_distribution():
    assert class_distribution([]) == {}
    rec = record(boxes=([(0, 0, 5, 5), 3], [(1, 1, 4, 4), 3], [(2, 2, 3, 3), 3]))
    assert class_distribution([rec]) == {3: 3}
    rng = random.Random(8)
    counts = {1: 0, 2: 0}
    records = []
    for i in range(50):
        cat = rng.choice([1, 2])
        counts[cat] += 1
        records.append(record(f"x{i}", boxes=([(0, 0, 5, 5), cat],)))
    assert class_distribution(records) == counts


def test_distribution_csv(tmp_path):
    out = tmp_path / "dist.csv"
    with open(out, "w", encoding="utf-8") as stream:
        write_distribution_csv({1: 4, 2: 7}, {1: "bobcat", 2: "dog"}, stream)
    assert out.read_text(encoding="utf-8") == "category_id,name,count\n1,bobcat,4\n2,dog,7\n"


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
    "payload",
    [
        b"P5\n1 1\n255\n\x00",  # wrong magic for ppm
        b"P6\n1 1\n65535\n\x00\x00\x00",  # bad maxval
        b"P6\n2 2\n255\n\x00\x00\x00",  # truncated
        b"P6\nx 1\n255\n\x00\x00\x00",  # non-numeric
    ],
)
def test_ppm_rejects_malformed(tmp_path, payload):
    path = tmp_path / "bad.ppm"
    path.write_bytes(payload)
    with pytest.raises(FormatError):
        read_ppm(path)


def test_ppm_write_validation(tmp_path):
    with pytest.raises(FormatError):
        write_ppm(Tensor3(np.zeros((1, 2, 2))), tmp_path / "x.ppm")
    with pytest.raises(FormatError):
        write_ppm(Tensor3(np.full((3, 2, 2), 300.0)), tmp_path / "x.ppm")


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    values = rng.integers(0, 256, (4, 6)).astype(float)
    path = tmp_path / "gray.pgm"
    write_pgm(values, path)
    assert np.array_equal(read_pgm(path), values)
    assert path.read_bytes().startswith(b"P5\n6 4\n255\n")
