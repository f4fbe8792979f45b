"""Shared generators: well-conditioned random box pairs for gradient checks,
synthetic detection corpora, and small annotation files."""

from __future__ import annotations

import datetime as dt
import json
import random
import sys
import warnings

import pytest
from hypothesis import settings, strategies as st

from trapeval.boxes import BoundingBox, Detection, GroundTruth

# Property tests draw their examples from a fixed seed, so every run checks
# the same inputs; explicit per-test settings still apply on top.
settings.register_profile("trapeval", derandomize=True)
settings.load_profile("trapeval")

# When a property test fails, hypothesis imports its patch writer, whose
# libcst import warns DeprecationWarning (mypy_extensions.TypedDict). Under
# the error filter in pyproject.toml that warning ends the whole session in
# INTERNALERROR; imported once here with it ignored, a failure is reported
# as FAILED and the session goes on.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

# Central differences use h = 1e-6; pairs are rejected while any min/max tie
# or overlap boundary sits close enough to a kink (or an ill-conditioned
# near-zero overlap) to poison the comparison.
FD_STEP = 1e-6
TIE_MARGIN = 10 * FD_STEP
OVERLAP_MARGIN = 1e-3


def random_box(rng: random.Random, lo: float = 0.0, hi: float = 8.0) -> BoundingBox:
    x1 = rng.uniform(lo, hi)
    y1 = rng.uniform(lo, hi)
    return BoundingBox(x1, y1, x1 + rng.uniform(0.3, 5.0), y1 + rng.uniform(0.3, 5.0))


def well_conditioned(pred: BoundingBox, gt: BoundingBox) -> bool:
    ties = (
        abs(pred.x1 - gt.x1),
        abs(pred.y1 - gt.y1),
        abs(pred.x2 - gt.x2),
        abs(pred.y2 - gt.y2),
    )
    if min(ties) <= TIE_MARGIN:
        return False
    iw = min(pred.x2, gt.x2) - max(pred.x1, gt.x1)
    ih = min(pred.y2, gt.y2) - max(pred.y1, gt.y1)
    for margin in (iw, ih):
        if -OVERLAP_MARGIN < margin < OVERLAP_MARGIN:
            return False
    if iw > 0 and ih > 0 and iw * ih < OVERLAP_MARGIN:
        return False
    return True


def gradient_pairs(seed: int, count: int) -> list[tuple[BoundingBox, BoundingBox]]:
    """Deterministic mix of overlapping, disjoint and contained pairs, all
    safely away from gradient kinks."""
    rng = random.Random(seed)
    pairs: list[tuple[BoundingBox, BoundingBox]] = []
    while len(pairs) < count:
        style = len(pairs) % 3
        gt = random_box(rng)
        if style == 0:  # natural mix of overlap/disjoint
            pred = random_box(rng)
        elif style == 1:  # contained
            dx = rng.uniform(0.05, 0.3) * gt.width
            dy = rng.uniform(0.05, 0.3) * gt.height
            pred = BoundingBox(gt.x1 + dx, gt.y1 + dy, gt.x2 - dx, gt.y2 - dy)
        else:  # forced disjoint
            shift = gt.width + gt.height + rng.uniform(0.5, 3.0)
            pred = random_box(rng).translated(shift + 8.0, shift + 8.0)
        if pred.area <= 0:
            continue
        if well_conditioned(pred, gt):
            pairs.append((pred, gt))
    return pairs


def synthetic_instance(
    rng: random.Random,
    max_detections: int = 6,
    max_ground_truths: int = 4,
    max_categories: int = 3,
    images: int = 2,
) -> tuple[list[Detection], list[GroundTruth]]:
    """Small random evaluation instance spread over a few images."""
    detections: list[Detection] = []
    ground_truths: list[GroundTruth] = []
    for g in range(rng.randint(1, max_ground_truths)):
        image_id = f"im{rng.randrange(images)}"
        box = random_box(rng, 0, 6)
        ground_truths.append(
            GroundTruth(box, rng.randrange(max_categories), image_id)
        )
    for d in range(rng.randint(0, max_detections)):
        image_id = f"im{rng.randrange(images)}"
        if ground_truths and rng.random() < 0.7:
            base = rng.choice(ground_truths).box
            jitter = rng.uniform(0.0, 1.5)
            box = BoundingBox(
                base.x1 + rng.uniform(-jitter, jitter),
                base.y1 + rng.uniform(-jitter, jitter),
                base.x2 + rng.uniform(-jitter, jitter),
                base.y2 + rng.uniform(-jitter, jitter),
            ).normalized()
            if box.area == 0:
                box = random_box(rng, 0, 6)
        else:
            box = random_box(rng, 0, 6)
        detections.append(
            Detection(
                box,
                rng.randrange(max_categories),
                round(rng.random(), 3),
                image_id,
            )
        )
    return detections, ground_truths


def make_annotation_payload(
    num_images: int = 20,
    num_locations: int = 20,
    seed: int = 0,
    categories: dict[int, str] | None = None,
    empty_every: int = 0,
) -> dict:
    """COCO-style payload with location/date extensions for split tests."""
    categories = categories or {1: "bobcat", 2: "coyote", 3: "empty"}
    rng = random.Random(seed)
    images = []
    annotations = []
    ann_id = 0
    for i in range(num_images):
        day = rng.randint(1, 28)
        images.append(
            {
                "id": f"img{i:04d}",
                "width": 100,
                "height": 80,
                "location": i % num_locations,
                "date": dt.date(2023, rng.randint(1, 12), day).isoformat(),
                "file_name": f"img{i:04d}.jpg",
            }
        )
        if empty_every and i % empty_every == 0:
            category = next(c for c, n in categories.items() if n == "empty")
        else:
            non_empty = [c for c, n in categories.items() if n != "empty"]
            category = rng.choice(non_empty)
        annotations.append(
            {
                "id": ann_id,
                "image_id": f"img{i:04d}",
                "category_id": category,
                "bbox": [rng.uniform(0, 50), rng.uniform(0, 40), 20, 15],
            }
        )
        ann_id += 1
    return {
        "images": images,
        "annotations": annotations,
        "categories": [{"id": c, "name": n} for c, n in categories.items()],
    }


AWKWARD_NAMES = ("caf\u00e9", 'say "cheese"', "it's", "\u96ea\u8c79", "\U0001f98a fox", "back\\slash", "plain")


def awkward_split_payload(seed: int, num_images: int = 60, num_locations: int = 12) -> dict:
    """A split input with what ``make_annotation_payload`` never has: images
    with 2-5 annotations, listed out of image order and interleaved; images
    with no annotation, with only an 'empty' one, and with an 'empty' and an
    animal one; boxes past the image edge and int-valued bbox entries; ids
    and file names with non-ASCII characters and quotes; dates with a time
    suffix; a missing file name; and a category that no annotation uses."""
    rng = random.Random(seed)
    categories = {7: "bobcat", 2: "coyote \u00e9", 3: "empty", 11: 'unused "owl"'}
    images = []
    annotations = []
    for i in range(num_images):
        image_id = f"{rng.choice(AWKWARD_NAMES)}{i}"
        width, height = rng.choice(((640, 480), (100, 80), (1920, 1080)))
        date = dt.date(2023, 1, 1) + dt.timedelta(days=rng.randrange(365))
        image = {
            "id": image_id,
            "width": width,
            "height": height,
            "location": rng.randrange(num_locations),
            "date": date.isoformat() + rng.choice(("", "", "", "T08:15:00")),
            "file_name": f"{rng.choice(AWKWARD_NAMES)}/{i}.jpg",
        }
        if rng.random() < 0.1:
            del image["file_name"]
        images.append(image)
        kind = rng.random()
        if kind < 0.1:
            continue  # no annotation
        if kind < 0.2:
            labels = [3]
        elif kind < 0.35:
            labels = rng.sample([3, rng.choice((7, 2))], 2)
        else:
            labels = [rng.choice((7, 2)) for _ in range(rng.choice((1, 2, 3, 4, 5)))]
        for category in labels:
            x, y = rng.uniform(-0.1 * width, width), rng.uniform(-0.1 * height, height)
            box = [x, y, rng.uniform(1.0, 0.6 * width), rng.uniform(1.0, 0.6 * height)]
            if rng.random() < 0.3:
                box = [round(v) for v in box]
            annotations.append({"image_id": image_id, "category_id": category, "bbox": box})
    rng.shuffle(annotations)
    for n, annotation in enumerate(annotations):
        annotation["id"] = rng.randrange(10**6) if n % 5 else f"a{n}"
    return {
        "categories": [{"id": c, "name": n} for c, n in categories.items()],
        "annotations": annotations,
        "images": images,
    }


def forget_lazy_cli_names() -> None:
    """Drop from ``trapeval.cli`` the lazy names (``cli._LAZY``) that a
    setattr wrote into its namespace: the benchmark tracer's uninstall and a
    monkeypatch undo both restore a name that way. The module's
    ``__getattr__`` then reads each from its home module again, so a patch
    there reaches the command."""
    cli = sys.modules.get("trapeval.cli")
    if cli is not None:
        for name in cli._LAZY:
            vars(cli).pop(name, None)


@pytest.fixture(autouse=True)
def _lazy_cli_names():
    """No test sees the lazy names an earlier test left in ``trapeval.cli``."""
    yield
    forget_lazy_cli_names()


@pytest.fixture
def annotation_file(tmp_path):
    def write(payload: dict, name: str = "annotations.json") -> str:
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return write


def mutants(valid, alphabet, max_edits: int = 4):
    """Strategy: ``valid`` (a str or bytes) after 1 to ``max_edits`` edits,
    each an insertion, deletion or replacement of one symbol drawn from
    ``alphabet`` (symbols of the same type), or a truncation."""
    symbols = [valid[i : i + 1] for i in range(len(valid))]
    edit = st.tuples(
        st.sampled_from(("insert", "delete", "replace", "truncate")),
        st.integers(0, len(valid)),
        st.sampled_from(alphabet),
    )

    def apply(edits) -> str | bytes:
        parts = list(symbols)
        for op, at, symbol in edits:
            at %= len(parts) + 1
            if op == "insert":
                parts.insert(at, symbol)
            elif op == "truncate":
                del parts[at:]
            elif at < len(parts):
                if op == "delete":
                    del parts[at]
                else:
                    parts[at] = symbol
        return valid[:0].join(parts)

    return st.lists(edit, min_size=1, max_size=max_edits).map(apply)


class Drawn:
    """A weight tensor given as an array, which ``nn`` ops read as they read
    an ``nn.Pending``: through ``draw``."""

    def __init__(self, array):
        self.array = array

    def draw(self):
        return self.array


def weight_tensors(module):
    """The weight tensors of a module (or of a list of them, such as a
    detect layer's branches), nested blocks' included, in declaration order."""
    for item in module if isinstance(module, list) else [module]:
        for key, value in vars(item).items():
            if key in ("weights", "w1", "w2"):
                yield value
            elif isinstance(value, list) or hasattr(value, "backward"):
                yield from weight_tensors(value)


def assert_value_record(cls, fields: dict, text: str, defaults: dict) -> None:
    """A record built from ``fields`` (by name, in order) is immutable,
    equal to and hashed as another built from the same values (the hash of
    the field tuple), prints as ``text``, and fills ``defaults`` when they
    are left out."""
    record = cls(*fields.values())
    assert repr(record) == text
    twin = cls(**fields)
    assert record == twin and record is not twin
    assert hash(record) == hash(twin) == hash(tuple(fields.values()))
    for name, value in fields.items():
        assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    required = [value for name, value in fields.items() if name not in defaults]
    assert cls(*required) == cls(*required, *defaults.values())
    for name, value in defaults.items():
        assert getattr(cls(*required), name) == value
