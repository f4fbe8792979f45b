"""Camera-trap annotation ingestion, empty-frame filtering, the
location-based cis/trans split protocol, geometric augmentation with box
updates, and category-distribution reporting.

Annotations are COCO-style JSON with per-image ``location`` and ``date``
fields; boxes are stored as [x, y, w, h] and converted to corner form on
ingest (clamped to the image bounds).

Split protocol: the configured trans locations are carved out first (test
set plus one validation location); within the remaining cis locations,
odd-day captures form the cis test set while even-day captures are split
into training data and a small randomly sampled validation share, so
training and validation never share a capture day.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .boxes import BoundingBox, GroundTruth
from .errors import FormatError, SplitError
from .tensor import Tensor3

EMPTY_CATEGORY_NAME = "empty"


@dataclass(frozen=True)
class ImageRecord:
    image_id: str
    location_id: int
    capture_date: dt.date
    width: int
    height: int
    file_name: str = ""
    annotations: tuple[GroundTruth, ...] = ()


@dataclass(frozen=True)
class Dataset:
    records: tuple[ImageRecord, ...]
    categories: dict[int, str] = field(default_factory=dict)

    def category_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.categories))


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise FormatError(f"{context}: missing field {key!r}")
    return mapping[key]


def _clamp_box(x1: float, y1: float, x2: float, y2: float, width: int, height: int) -> BoundingBox:
    """Corners clamped to the image as floats, each pair in ascending order:
    ``BoundingBox(min(max(x1, 0.0), width), ...).normalized()`` with the
    ``min``/``max`` and two-value ``sorted`` calls spelled out (-0.0 and NaN
    land where those put them)."""
    x1 = 0.0 if 0.0 > x1 else x1
    y1 = 0.0 if 0.0 > y1 else y1
    x2 = 0.0 if 0.0 > x2 else x2
    y2 = 0.0 if 0.0 > y2 else y2
    x1 = float(width if width < x1 else x1)
    y1 = float(height if height < y1 else y1)
    x2 = float(width if width < x2 else x2)
    y2 = float(height if height < y2 else y2)
    x1, x2 = (x2, x1) if x2 < x1 else (x1, x2)
    y1, y2 = (y2, y1) if y2 < y1 else (y1, y2)
    return BoundingBox(x1, y1, x2, y2)


def _integer(mapping: dict, key: str, context: str) -> int:
    value = _require(mapping, key, context)
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{context}: {key} {value!r} is not a number") from exc
    if number != value and isinstance(value, float):
        raise FormatError(f"{context}: {key} {value!r} is not an integer")
    return number


def parse_annotations(path: "str | Path") -> Dataset:
    """Read an annotation file into one record per image.

    Annotations attach by image id; unknown category or image references,
    non-numeric fields, non-integral ids, sizes and locations, and
    non-finite boxes are rejected with the offending element named.
    """
    try:
        with open(path, "r", encoding="utf-8") as stream:
            payload = json.load(stream)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: top level must be an object")

    categories: dict[int, str] = {}
    for i, cat in enumerate(payload.get("categories", [])):
        context = f"categories[{i}]"
        cid = _integer(cat, "id", context)
        categories[cid] = str(_require(cat, "name", context))

    # image id -> (location, date, width, height, file name), in file order
    images: dict[str, tuple[int, dt.date, int, int, str]] = {}
    for i, img in enumerate(payload.get("images", [])):
        context = f"images[{i}]"
        image_id = str(_require(img, "id", context))
        if image_id in images:
            raise FormatError(f"{context}: duplicate image id {image_id!r}")
        raw_date = _require(img, "date", context)
        try:
            capture_date = dt.date.fromisoformat(str(raw_date)[:10])
        except ValueError as exc:
            raise FormatError(f"{context}: bad date {raw_date!r}") from exc
        images[image_id] = (
            _integer(img, "location", context),
            capture_date,
            _integer(img, "width", context),
            _integer(img, "height", context),
            str(img.get("file_name", "")),
        )

    annotations: dict[str, list[GroundTruth]] = {image_id: [] for image_id in images}
    isfinite = math.isfinite
    for i, ann in enumerate(payload.get("annotations", [])):
        context = f"annotations[{i}]"
        image_id = str(_require(ann, "image_id", context))
        attached = annotations.get(image_id)
        if attached is None:
            raise FormatError(f"{context}: unknown image id {image_id!r}")
        category_id = _integer(ann, "category_id", context)
        if category_id not in categories:
            raise FormatError(f"{context}: unknown category id {category_id}")
        bbox = _require(ann, "bbox", context)
        if not isinstance(bbox, (list, tuple)) or len(bbox) != 4:
            raise FormatError(f"{context}: bbox must be [x, y, w, h]")
        try:
            x, y, w, h = map(float, bbox)
        except (TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{context}: bbox {bbox!r} has a non-numeric value") from exc
        if not (isfinite(x) and isfinite(y) and isfinite(w) and isfinite(h)):
            raise FormatError(f"{context}: bbox {bbox!r} has a non-finite value")
        _, _, width, height, _ = images[image_id]
        attached.append(
            GroundTruth(_clamp_box(x, y, x + w, y + h, width, height), category_id, image_id)
        )
    del payload  # free the parsed JSON before the records are built: a lower peak

    records = tuple(
        ImageRecord(image_id, *fields, annotations=tuple(annotations[image_id]))
        for image_id, fields in images.items()
    )
    return Dataset(records, categories)


_json_string = json.encoder.encode_basestring_ascii


def _json_scalar(value) -> str:
    """One value as ``json.dump`` writes it by default: strings ASCII-escaped,
    NaN and the infinities allowed."""
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_list(items: list[str]) -> str:
    """A list of elements already written at depth 2, as ``json.dump`` with
    ``indent=1`` closes it at depth 1."""
    return "[\n" + ",\n".join(items) + "\n ]" if items else "[]"


def write_annotations(dataset: Dataset, path: "str | Path") -> None:
    """Inverse of parse_annotations (boxes back to [x, y, w, h]).

    The bytes are those of ``json.dump(payload, stream, indent=1,
    sort_keys=True)`` plus a newline, for the payload of "images",
    "annotations" (ids from 1 in record order) and "categories" (by id);
    each element is written from a template with its keys in sorted order.
    """
    images = []
    annotations = []
    ann_id = 0
    for record in dataset.records:
        image_id = _json_scalar(record.image_id)
        images.append(
            f"""  {{
   "date": {_json_string(record.capture_date.isoformat())},
   "file_name": {_json_scalar(record.file_name)},
   "height": {_json_scalar(record.height)},
   "id": {image_id},
   "location": {_json_scalar(record.location_id)},
   "width": {_json_scalar(record.width)}
  }}"""
        )
        for gt in record.annotations:
            ann_id += 1
            b = gt.box
            coords = x, y, w, h = b.x1, b.y1, b.width, b.height
            # Finite floats (a finite sum implies them) print as their repr.
            if float is type(x) is type(y) is type(w) is type(h) and math.isfinite(x + y + w + h):
                bbox = f"{x!r},\n    {y!r},\n    {w!r},\n    {h!r}"
            else:
                bbox = ",\n    ".join(map(_json_scalar, coords))
            annotations.append(
                f"""  {{
   "bbox": [
    {bbox}
   ],
   "category_id": {_json_scalar(gt.category_id)},
   "id": {ann_id},
   "image_id": {image_id}
  }}"""
            )
    categories = [
        f"""  {{
   "id": {_json_scalar(cid)},
   "name": {_json_scalar(name)}
  }}"""
        for cid, name in sorted(dataset.categories.items())
    ]
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(
            f"""{{
 "annotations": {_json_list(annotations)},
 "categories": {_json_list(categories)},
 "images": {_json_list(images)}
}}
"""
        )


def filter_empty(dataset: Dataset) -> Dataset:
    """Drop records with no annotations, or annotated only as 'empty'."""
    empty_ids = {cid for cid, name in dataset.categories.items() if name == EMPTY_CATEGORY_NAME}
    kept = tuple(
        record
        for record in dataset.records
        if any(gt.category_id not in empty_ids for gt in record.annotations)
    )
    return Dataset(kept, dict(dataset.categories))


@dataclass(frozen=True)
class SplitConfig:
    trans_test_locations: tuple[int, ...]
    trans_val_location: int
    cis_val_fraction: float = 0.05
    seed: int = 0
    day_basis: str = "day_of_month"  # or "day_of_year"

    def __post_init__(self):
        if not self.trans_test_locations:
            raise SplitError("trans_test_locations must not be empty")
        if self.trans_val_location in self.trans_test_locations:
            raise SplitError("trans validation location overlaps trans test locations")
        if not 0.0 <= self.cis_val_fraction < 1.0:
            raise SplitError(f"cis_val_fraction {self.cis_val_fraction} outside [0, 1)")
        if self.day_basis not in ("day_of_month", "day_of_year"):
            raise SplitError(f"unknown day basis {self.day_basis!r}")


@dataclass(frozen=True)
class SplitResult:
    train: tuple[ImageRecord, ...]
    cis_val: tuple[ImageRecord, ...]
    cis_test: tuple[ImageRecord, ...]
    trans_val: tuple[ImageRecord, ...]
    trans_test: tuple[ImageRecord, ...]
    config: SplitConfig

    def all_parts(self) -> dict[str, tuple[ImageRecord, ...]]:
        return {
            "train": self.train,
            "cis_val": self.cis_val,
            "cis_test": self.cis_test,
            "trans_val": self.trans_val,
            "trans_test": self.trans_test,
        }


def _day_number(record: ImageRecord, basis: str) -> int:
    if basis == "day_of_year":
        return record.capture_date.timetuple().tm_yday
    return record.capture_date.day


def split_cis_trans(records: Sequence[ImageRecord], config: SplitConfig) -> SplitResult:
    """Apply the location / day-parity split protocol under the config seed."""
    locations = {r.location_id for r in records}
    if len(locations) < 10:
        raise SplitError(f"need >= 10 distinct locations, got {len(locations)}")
    trans_locations = set(config.trans_test_locations) | {config.trans_val_location}
    missing = trans_locations - locations
    if missing:
        raise SplitError(f"configured trans locations absent from data: {sorted(missing)}")
    if not locations - trans_locations:
        raise SplitError("no cis locations remain after removing trans locations")

    trans_test = tuple(r for r in records if r.location_id in config.trans_test_locations)
    trans_val = tuple(r for r in records if r.location_id == config.trans_val_location)

    cis = [r for r in records if r.location_id not in trans_locations]
    cis_test = tuple(r for r in cis if _day_number(r, config.day_basis) % 2 == 1)
    even = [r for r in cis if _day_number(r, config.day_basis) % 2 == 0]

    even_sorted = sorted(even, key=lambda r: r.image_id)
    n_val = int(round(config.cis_val_fraction * len(even_sorted)))
    rng = random.Random(config.seed)
    val_ids = set()
    if n_val > 0:
        val_ids = {r.image_id for r in rng.sample(even_sorted, n_val)}
    cis_val = tuple(r for r in even if r.image_id in val_ids)
    train = tuple(r for r in even if r.image_id not in val_ids)
    return SplitResult(train, cis_val, cis_test, trans_val, trans_test, config)


def verify_split(result: SplitResult) -> list[str]:
    """Check split invariants; returns human-readable violations (empty = ok)."""
    problems: list[str] = []
    config = result.config
    cis_parts = result.train + result.cis_val + result.cis_test
    trans_parts = result.trans_val + result.trans_test
    cis_locs = {r.location_id for r in cis_parts}
    trans_locs = {r.location_id for r in trans_parts}
    overlap = cis_locs & trans_locs
    if overlap:
        problems.append(f"cis and trans location sets overlap: {sorted(overlap)}")
    for r in result.cis_test:
        if _day_number(r, config.day_basis) % 2 != 1:
            problems.append(f"cis_test image {r.image_id} not on an odd day")
    for name, part in (("train", result.train), ("cis_val", result.cis_val)):
        for r in part:
            if _day_number(r, config.day_basis) % 2 != 0:
                problems.append(f"{name} image {r.image_id} not on an even day")
    seen: dict[str, str] = {}
    for name, part in result.all_parts().items():
        for r in part:
            if r.image_id in seen:
                problems.append(
                    f"image {r.image_id} appears in both {seen[r.image_id]} and {name}"
                )
            seen[r.image_id] = name
    return problems


# Published per-split image counts for the full benchmark corpus, offered as
# an optional comparison target when splitting the real metadata.
REFERENCE_SPLIT_COUNTS = {"train": 12099, "cis_val": 1665, "cis_test": 12691, "trans_test": 18033}


def split_report(result: SplitResult, expected: dict[str, int] | None = None) -> str:
    """Count summary per split, per-location table, optional expected diff."""
    lines = ["split,images,annotations"]
    for name, part in result.all_parts().items():
        lines.append(f"{name},{len(part)},{sum(len(r.annotations) for r in part)}")
    lines.append("")
    lines.append("location,split,images")
    by_loc: dict[tuple[int, str], int] = {}
    for name, part in result.all_parts().items():
        for r in part:
            by_loc[(r.location_id, name)] = by_loc.get((r.location_id, name), 0) + 1
    for (loc, name), count in sorted(by_loc.items()):
        lines.append(f"{loc},{name},{count}")
    if expected is not None:
        lines.append("")
        lines.append("split,expected,actual,delta")
        for name, want in expected.items():
            got = len(result.all_parts()[name])
            lines.append(f"{name},{want},{got},{got - want}")
    return "\n".join(lines) + "\n"


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
        raise ValueError("target must be >= 1")
    rows = (np.arange(target) * record.height) // target
    cols = (np.arange(target) * record.width) // target
    resized = Tensor3(raster.data[:, rows][:, :, cols])
    sx = target / record.width
    sy = target / record.height
    annotations = tuple(
        replace(
            gt,
            box=_clamp_box(
                gt.box.x1 * sx, gt.box.y1 * sy, gt.box.x2 * sx, gt.box.y2 * sy, target, target
            ),
        )
        for gt in record.annotations
    )
    return (
        replace(record, width=target, height=target, annotations=annotations),
        resized,
    )


AUGMENT_RANGES = {"scale": (0.5, 1.5), "brightness": (-64.0, 64.0), "contrast": (0.5, 1.5)}


@dataclass(frozen=True)
class AugmentOp:
    kind: str  # rotate90 | scale | brightness | contrast
    value: float | None = None  # None: sampled from the documented range

    def __post_init__(self):
        if self.kind not in ("rotate90", "scale", "brightness", "contrast"):
            raise ValueError(f"unknown augmentation {self.kind!r}")
        if self.value is not None and self.kind in AUGMENT_RANGES:
            lo, hi = AUGMENT_RANGES[self.kind]
            if not lo <= self.value <= hi:
                raise ValueError(f"{self.kind} value {self.value} outside [{lo}, {hi}]")


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
            AugmentOp("scale", s)  # re-validate sampled or given value
            new_w = max(1, int(round(width * s)))
            new_h = max(1, int(round(height * s)))
            rows = (np.arange(new_h) * int(height)) // new_h
            cols = (np.arange(new_w) * int(width)) // new_w
            data = data[:, rows][:, :, cols]
            rx, ry = new_w / width, new_h / height
            boxes = [
                BoundingBox(b.x1 * rx, b.y1 * ry, b.x2 * rx, b.y2 * ry) for b in boxes
            ]
            width, height = float(new_w), float(new_h)
        elif op.kind == "brightness":
            b = op.value if op.value is not None else rng.uniform(*AUGMENT_RANGES["brightness"])
            AugmentOp("brightness", b)
            data = np.clip(data + b, 0.0, 255.0)
        elif op.kind == "contrast":
            c = op.value if op.value is not None else rng.uniform(*AUGMENT_RANGES["contrast"])
            AugmentOp("contrast", c)
            data = np.clip((data - 128.0) * c + 128.0, 0.0, 255.0)

    kept: list[GroundTruth] = []
    for box, category in zip(boxes, categories):
        clamped = _clamp_box(box.x1, box.y1, box.x2, box.y2, int(width), int(height))
        if clamped.area >= 1.0:
            kept.append(GroundTruth(clamped, category, record.image_id))
    new_record = replace(
        record,
        width=int(width),
        height=int(height),
        annotations=tuple(kept),
    )
    return new_record, Tensor3(data)


def class_distribution(records: Iterable[ImageRecord]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for record in records:
        for gt in record.annotations:
            counts[gt.category_id] = counts.get(gt.category_id, 0) + 1
    return counts


def write_distribution_csv(
    distribution: dict[int, int], categories: dict[int, str], stream
) -> None:
    stream.write("category_id,name,count\n")
    for cid in sorted(distribution):
        name = categories.get(cid, "")
        stream.write(f"{cid},{name},{distribution[cid]}\n")
