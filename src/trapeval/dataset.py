"""Camera-trap annotation ingestion, empty-frame filtering and the
location-based cis/trans split protocol. Augmentation lives in
``trapeval.augment``.

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
import gc
import json
import math
import random
import re
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from itertools import islice
from pathlib import Path
from typing import IO, Iterator, NamedTuple, Sequence

from .boxes import BoundingBox, GroundTruth
from .errors import FormatError, SplitError

EMPTY_CATEGORY_NAME = "empty"


class ImageRecord(NamedTuple):
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


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise FormatError(f"{context}: missing field {key!r}")
    return mapping[key]


def _clamp_box(
    x1: float, y1: float, x2: float, y2: float, width: int, height: int
) -> tuple[float, float, float, float]:
    """Corners clamped to the image as floats, each pair in ascending order:
    the corners of ``BoundingBox(min(max(x1, 0.0), width), ...).normalized()``
    with the ``min``/``max`` and two-value ``sorted`` calls spelled out (-0.0
    and NaN land where those put them)."""
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
    return x1, y1, x2, y2


def _integer(mapping: dict, key: str, context: str) -> int:
    value = _require(mapping, key, context)
    # int() would read a JSON boolean as 1 or 0, and a string such as " 7 " as 7
    if value is True or value is False or isinstance(value, str):
        raise FormatError(f"{context}: {key} {value!r} is not a number")
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{context}: {key} {value!r} is not a number") from exc
    if number != value and isinstance(value, float):
        raise FormatError(f"{context}: {key} {value!r} is not an integer")
    return number


def _section(payload: dict, section: str, path: "str | Path") -> list:
    elements = payload.get(section, [])
    if not isinstance(elements, list):
        raise FormatError(f"{path}: {section} must be a list, got {elements!r:.40}")
    return elements


def _object(element, context: str) -> dict:
    if not isinstance(element, dict):
        raise FormatError(f"{context}: must be an object, got {element!r:.40}")
    return element


# YYYY-MM-DD, optionally followed by T or one space, HH:MM[:SS[.ffffff]] and
# an optional Z or +-HH:MM; ASCII digits only.
_DATE = re.compile(
    r"([0-9]{4})-([0-9]{2})-([0-9]{2})"
    r"(?:[T ]([0-9]{2}):([0-9]{2})(?::([0-9]{2})(?:\.([0-9]{6}))?)?(?:Z|[+-]([0-9]{2}):([0-9]{2}))?)?"
)


def _date(raw_date, context: str) -> dt.date:
    """The day a JSON date string names; a time of day is checked, then
    dropped. Read by one pattern, not date.fromisoformat, whose grammar
    differs between Python versions."""
    match = _DATE.fullmatch(raw_date) if isinstance(raw_date, str) else None
    try:
        if match is None:
            raise ValueError("not YYYY-MM-DD[(T| )HH:MM[:SS[.ffffff]][Z|+-HH:MM]]")
        year, month, day, hour, minute, second, micro, zone_h, zone_m = match.groups()
        if hour is not None:
            dt.time(int(hour), int(minute), int(second or 0), int(micro or 0))
        if zone_h is not None and (int(zone_h) > 23 or int(zone_m) > 59):
            raise ValueError(f"offset {zone_h}:{zone_m} out of range")
        return dt.date(int(year), int(month), int(day))
    except ValueError as exc:
        raise FormatError(f"{context}: bad date {raw_date!r}") from exc


def _image(img, context: str, images: dict) -> tuple[str, tuple[int, dt.date, int, int, str]]:
    """(image id, fields) of one element of "images", every check in order."""
    img = _object(img, context)
    image_id = str(_require(img, "id", context))
    if image_id in images:
        raise FormatError(f"{context}: duplicate image id {image_id!r}")
    capture_date = _date(_require(img, "date", context), context)
    return image_id, (
        _integer(img, "location", context),
        capture_date,
        _integer(img, "width", context),
        _integer(img, "height", context),
        str(img.get("file_name", "")),
    )


def _coordinate(value) -> float:
    """A bbox value as a float; float() would read a JSON boolean as 1.0 or
    0.0, and a string such as "1_0" as 10.0."""
    if value is True or value is False or isinstance(value, str):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _annotation(ann, context: str, images: dict, categories: dict) -> tuple:
    """(image id, category id, x, y, w, h) of one element of "annotations",
    every check in order."""
    ann = _object(ann, context)
    image_id = str(_require(ann, "image_id", context))
    if image_id not in images:
        raise FormatError(f"{context}: unknown image id {image_id!r}")
    category_id = _integer(ann, "category_id", context)
    if category_id not in categories:
        raise FormatError(f"{context}: unknown category id {category_id}")
    bbox = _require(ann, "bbox", context)
    if not isinstance(bbox, (list, tuple)) or len(bbox) != 4:
        raise FormatError(f"{context}: bbox must be [x, y, w, h]")
    try:
        x, y, w, h = map(_coordinate, bbox)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{context}: bbox {bbox!r} has a non-numeric value") from exc
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(w) and math.isfinite(h)):
        raise FormatError(f"{context}: bbox {bbox!r} has a non-finite value")
    return image_id, category_id, x, y, w, h


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector for the block and restore it as it
    was found, also when the block raises. For readers that build many
    containers with no reference cycles, which the collector would walk
    again and again while they are built."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class AnnotationColumns(NamedTuple):
    """An annotation file as read: its categories, its images' fields by
    image id in file order and, per annotation in file order, its image id,
    its category id and the four clamped corners of its box, one flat
    ``array('d')`` (x1, y1, x2, y2 of each annotation in turn).

    Each annotation's image id is the str object that keys its image in
    ``images``, and the corners are doubles in a buffer, so none of the
    strings and floats the JSON parser made for the annotations outlives
    the read."""

    categories: dict[int, str]
    images: dict[str, tuple[int, dt.date, int, int, str]]
    image_id: list[str]
    category_id: list[int]
    corners: array


def read_annotation_columns(path: "str | Path") -> AnnotationColumns:
    """Read and check an annotation file without building a record.

    Annotations attach by image id; unknown category or image references,
    non-numeric fields (JSON booleans and strings included), non-integral
    ids, sizes and locations, and non-finite boxes are rejected with the
    offending element named.
    """
    # The parsed JSON is a few hundred thousand containers.
    with collector_paused():
        try:
            with open(path, "r", encoding="utf-8") as stream:
                payload = json.load(stream)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 ({exc})") from exc
        # ValueError: bad JSON, or an integer past Python's digit limit;
        # RecursionError: arrays or objects nested past the recursion limit.
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(payload, dict):
            raise FormatError(f"{path}: top level must be an object")

        categories: dict[int, str] = {}
        for i, cat in enumerate(_section(payload, "categories", path)):
            context = f"categories[{i}]"
            cat = _object(cat, context)
            cid = _integer(cat, "id", context)
            if cid in categories:
                raise FormatError(f"{context}: duplicate category id {cid}")
            categories[cid] = str(_require(cat, "name", context))

        # An element whose fields have exact JSON types (str ids, dates and file
        # names, int sizes, locations and category ids, a list box of numbers)
        # and pass every check is read directly; any other element goes through
        # _image or _annotation, which run the checks in order and name it in
        # any error.
        # image id -> (location, date, width, height, file name), in file order
        images: dict[str, tuple[int, dt.date, int, int, str]] = {}
        dates: dict[str, dt.date] = {}  # each distinct date string, parsed once
        for i, img in enumerate(_section(payload, "images", path)):
            try:
                image_id, raw_date = img["id"], img["date"]
                location, width, height = img["location"], img["width"], img["height"]
                file_name = img.get("file_name", "")
            except (KeyError, TypeError):  # not an object, or a field missing
                image_id = None
            if (
                type(image_id) is str
                and type(raw_date) is str
                and type(location) is int
                and type(width) is int
                and type(height) is int
                and type(file_name) is str
                and image_id not in images
            ):
                capture_date = dates.get(raw_date)
                if capture_date is None:
                    capture_date = dates[raw_date] = _date(raw_date, f"images[{i}]")
                images[image_id] = (location, capture_date, width, height, file_name)
            else:
                image_id, fields = _image(img, f"images[{i}]", images)
                images[image_id] = fields

        image_ids: list[str] = []
        category_ids: list[int] = []
        corners = array("d")
        isfinite = math.isfinite
        for i, ann in enumerate(_section(payload, "annotations", path)):
            try:
                image_id, category_id, bbox = ann["image_id"], ann["category_id"], ann["bbox"]
                fields = images.get(image_id)  # None unless a known (str) image id
                bx, by, bw, bh = bbox
                x, y, w, h = float(bx), float(by), float(bw), float(bh)
            except (KeyError, TypeError, ValueError, OverflowError):  # as above, or a bad box
                fields = None
            if not (
                fields is not None
                and type(category_id) is int
                and category_id in categories
                and type(bbox) is list
                # as _coordinate converts them: JSON numbers, no boolean or string
                and (type(bx) is float or type(bx) is int)
                and (type(by) is float or type(by) is int)
                and (type(bw) is float or type(bw) is int)
                and (type(bh) is float or type(bh) is int)
                and isfinite(x + y + w + h)  # all four are finite
            ):
                image_id, category_id, x, y, w, h = _annotation(
                    ann, f"annotations[{i}]", images, categories
                )
                fields = images[image_id]
            _, _, width, height, _ = fields
            x2, y2 = x + w, y + h
            image_ids.append(image_id)
            category_ids.append(category_id)
            # _clamp_box leaves a box that lies inside the image as it is.
            if not (0.0 <= x <= x2 <= width and 0.0 <= y <= y2 <= height):
                try:
                    x, y, x2, y2 = _clamp_box(x, y, x2, y2, width, height)
                except OverflowError:  # x + w or y + h overflowed, and float(size) would
                    bbox = ann["bbox"]
                    raise FormatError(f"annotations[{i}]: bbox {bbox!r} ends past the double range") from None
            corners.fromlist([x, y, x2, y2])  # twice as fast as extend() on a tuple
        del payload  # freed while the collector is paused, so it never walks it
        # Each annotation's image id becomes the str that keys its image, so the
        # parser's copies go too. Mapped only now, with the payload gone, so the
        # mapping never adds to the read's peak.
        keys = {image_id: image_id for image_id in images}
        image_ids = [keys[image_id] for image_id in image_ids]
        return AnnotationColumns(categories, images, image_ids, category_ids, corners)


def parse_annotations(path: "str | Path") -> Dataset:
    """Read an annotation file into one record per image, its annotations
    in file order: ``read_annotation_columns``, whose checks and errors
    these are."""
    read = read_annotation_columns(path)
    quads = iter(read.corners)
    annotations: dict[str, list[GroundTruth]] = {image_id: [] for image_id in read.images}
    for image_id, category_id, *corners in zip(read.image_id, read.category_id, quads, quads, quads, quads):
        annotations[image_id].append(GroundTruth(BoundingBox(*corners), category_id, image_id))
    records = tuple(
        ImageRecord(image_id, *fields, tuple(annotations[image_id]))
        for image_id, fields in read.images.items()
    )
    return Dataset(records, read.categories)


class ImageRow(NamedTuple):
    """An image as ``split`` reads it: an ``ImageRecord``'s fields, with the
    row numbers of its annotations in the columns it was read from, in file
    order, in place of its ground truths."""

    image_id: str
    location_id: int
    capture_date: dt.date
    width: int
    height: int
    file_name: str
    annotations: list[int]


def nonempty_rows(read: AnnotationColumns) -> list[ImageRow]:
    """``filter_empty`` on the columns: in file order, a row for each image
    with an annotation of a category other than 'empty'."""
    empty_ids = {cid for cid, name in read.categories.items() if name == EMPTY_CATEGORY_NAME}
    new = tuple.__new__
    # The rows and their lists are tens of thousands of containers.
    with collector_paused():
        annotations: dict[str, list[int]] = {image_id: [] for image_id in read.images}
        for row, image_id in enumerate(read.image_id):
            annotations[image_id].append(row)
        kept = {
            image_id
            for image_id, category_id in zip(read.image_id, read.category_id)
            if category_id not in empty_ids
        }
        return [
            new(ImageRow, (image_id, *fields, annotations[image_id]))
            for image_id, fields in read.images.items()
            if image_id in kept
        ]


_json_string = json.encoder.encode_basestring_ascii

# Elements rendered per write: a part's text is never held whole, only this
# many of its elements and their joined text.
_BATCH = 512


def _write_list(stream: IO[str], elements: Iterator[str]) -> None:
    """Write elements already rendered at depth 2 as a list that
    ``json.dump`` with ``indent=1`` closes at depth 1, ``_BATCH`` at a time."""
    batch = ",\n".join(islice(elements, _BATCH))
    if not batch:
        stream.write("[]")
        return
    stream.write("[\n" + batch)
    while batch := ",\n".join(islice(elements, _BATCH)):
        stream.write(",\n" + batch)
    stream.write("\n ]")


def write_annotations(dataset: Dataset, path: "str | Path") -> None:
    """Inverse of parse_annotations (boxes back to [x, y, w, h]): the
    payload of "images", "annotations" (ids from 1 in record order) and
    "categories" (by id) through ``json.dumps(payload, indent=1,
    sort_keys=True)``, plus a newline. A value that ``json.dumps`` rejects
    raises its ``TypeError`` before the file is opened."""
    images = []
    annotations = []
    for rec in dataset.records:
        images.append(
            {"id": rec.image_id, "width": rec.width, "height": rec.height, "location": rec.location_id,
             "date": rec.capture_date.isoformat(), "file_name": rec.file_name}
        )
        for gt in rec.annotations:
            b = gt.box
            annotations.append(
                {"id": len(annotations) + 1, "image_id": rec.image_id, "category_id": gt.category_id,
                 "bbox": [b.x1, b.y1, b.width, b.height]}
            )
    payload = {
        "images": images,
        "annotations": annotations,
        "categories": [{"id": cid, "name": name} for cid, name in sorted(dataset.categories.items())],
    }
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(text)


def write_annotation_rows(rows: "Sequence[ImageRow]", read: AnnotationColumns, path: "str | Path") -> None:
    """Write images read by ``read_annotation_columns`` and their
    annotations as an annotation file: each row's fields, and for each of
    its annotation row numbers ``r`` the category ``read.category_id[r]``
    and the box with corners ``read.corners[4 * r : 4 * r + 4]`` back as
    [x, y, w, h].

    The bytes are those ``write_annotations`` writes for the same images;
    each element is written from a template with its keys in sorted order.
    The reader's types make that exact: str ids, file names and names
    (ASCII-escaped here), int sizes, locations and category ids, and finite
    float corners, each printed as its repr.

    Each of the three lists is rendered by a generator and written
    ``_BATCH`` elements at a time, so memory does not grow with the part.
    A write that raises leaves its partial file: the CLI writes staged paths.
    """
    category_id, corners = read.category_id, read.corners

    def annotations() -> Iterator[str]:
        ann_id = 0
        for image_id, _, _, _, _, _, numbers in rows:
            image_id = _json_string(image_id)
            for r in numbers:
                ann_id += 1
                i = 4 * r
                x, y, x2, y2 = corners[i], corners[i + 1], corners[i + 2], corners[i + 3]
                yield f"""  {{
   "bbox": [
    {x!r},
    {y!r},
    {x2 - x!r},
    {y2 - y!r}
   ],
   "category_id": {category_id[r]!r},
   "id": {ann_id},
   "image_id": {image_id}
  }}"""

    categories = (
        f"""  {{
   "id": {cid!r},
   "name": {_json_string(name)}
  }}"""
        for cid, name in sorted(read.categories.items())
    )

    def images() -> Iterator[str]:
        dates: dict[dt.date, str] = {}  # each distinct date, rendered once
        for image_id, location_id, capture_date, width, height, file_name, _ in rows:
            date = dates.get(capture_date)
            if date is None:
                date = dates[capture_date] = _json_string(capture_date.isoformat())
            yield f"""  {{
   "date": {date},
   "file_name": {_json_string(file_name)},
   "height": {height!r},
   "id": {_json_string(image_id)},
   "location": {location_id!r},
   "width": {width!r}
  }}"""

    with open(path, "w", encoding="utf-8") as stream:
        stream.write('{\n "annotations": ')
        _write_list(stream, annotations())
        stream.write(',\n "categories": ')
        _write_list(stream, categories)
        stream.write(',\n "images": ')
        _write_list(stream, images())
        stream.write("\n}\n")


def filter_empty(dataset: Dataset) -> Dataset:
    """Drop records with no annotations, or annotated only as 'empty'."""
    empty_ids = {cid for cid, name in dataset.categories.items() if name == EMPTY_CATEGORY_NAME}
    kept = []
    for record in dataset.records:
        for gt in record.annotations:
            if gt.category_id not in empty_ids:
                kept.append(record)
                break
    return Dataset(tuple(kept), dict(dataset.categories))


def check_val_fraction(fraction: float) -> None:
    """The cis validation share must lie in [0, 1)."""
    if not 0.0 <= fraction < 1.0:
        raise SplitError(f"cis_val_fraction {fraction} outside [0, 1)")


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
        check_val_fraction(self.cis_val_fraction)
        if self.day_basis not in ("day_of_month", "day_of_year"):
            raise SplitError(f"unknown day basis {self.day_basis!r}")


# What the split protocol takes: an ImageRecord or an ImageRow, of which it
# reads only the image id, location, capture date and annotation count.
SplitRow = ImageRecord | ImageRow


@dataclass(frozen=True)
class SplitResult:
    train: tuple[SplitRow, ...]
    cis_val: tuple[SplitRow, ...]
    cis_test: tuple[SplitRow, ...]
    trans_val: tuple[SplitRow, ...]
    trans_test: tuple[SplitRow, ...]
    config: SplitConfig

    def all_parts(self) -> dict[str, tuple[SplitRow, ...]]:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "config"}


def _day_number(record: SplitRow, basis: str) -> int:
    if basis == "day_of_year":
        return record.capture_date.timetuple().tm_yday
    return record.capture_date.day


def split_locations(records: Sequence[SplitRow]) -> list[int]:
    """The records' distinct locations, sorted; a split needs ten of them.
    Reads only each record's location."""
    locations = sorted({r.location_id for r in records})
    if len(locations) < 10:
        raise SplitError(f"need >= 10 locations, have {len(locations)}")
    return locations


def split_cis_trans(records: Sequence[SplitRow], config: SplitConfig) -> SplitResult:
    """Apply the location / day-parity split protocol under the config seed.
    Reads only each record's image id, location and capture date; the parts
    hold the records themselves, in the order given."""
    locations = set(split_locations(records))
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
    """Check split invariants; returns human-readable violations (empty = ok).
    Reads only each record's image id, location and capture date."""
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
    """Count summary per split, per-location table, optional expected diff.
    Reads only each record's location and annotation count."""
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
