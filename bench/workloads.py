"""Seeded input generators, CLI argument lists and output invariants for the
four benchmark workloads.

Every input is derived from the workload seed with Python's ``random``
module, whose streams are stable across Python and numpy versions, so one
seed always gives the same bytes. Generation is never timed.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracing import LOSS_KINDS

EVAL_IMAGES = 2000
EVAL_CATEGORIES = 16
EVAL_IMAGE_SIZE = 640
RELABEL_FRACTION = 0.2
CONF_THRESHOLD = 0.25  # the CLI default the eval workload runs at

CAM_SIZE = 320
CAM_LAYER = "l2"
CAM_CATEGORY = 3

SPLIT_IMAGES = 20_000
SPLIT_LOCATIONS = 40
SPLIT_SPECIES = 15
SPLIT_EMPTY_FRACTION = 0.1
SPLIT_YEAR = 2023


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int, Path], dict]
    """Writes the inputs for a seed into a directory; returns the argument
    list (without ``--out-dir``) and the expectations the checks need."""
    check: Callable[[Path, str, dict], list[str]]
    """Checks one operation's outputs and stdout; returns problems."""
    seeded: bool = True
    """False when the inputs do not depend on the seed."""


# --- eval-2k -----------------------------------------------------------------


@dataclass(frozen=True)
class EvalCorpus:
    images: int
    # (image_id, category_id, x, y, w, h)
    ground_truths: tuple[tuple[str, int, float, float, float, float], ...]
    # (image_id, category_id, confidence, x1, y1, x2, y2, ground-truth index)
    detections: tuple[tuple[str, int, float, float, float, float, float, int], ...]


def _r2(value: float) -> float:
    return round(value, 2)


def make_eval_corpus(seed: int, images: int = EVAL_IMAGES) -> EvalCorpus:
    """1-4 ground truths per image over 16 categories, 0-5 jittered
    detections per ground truth, about 20% of them relabelled to another
    category, confidences uniform on [0, 1]."""
    rng = random.Random(seed)
    size = float(EVAL_IMAGE_SIZE)
    gts = []
    dets = []
    for i in range(images):
        image_id = f"img{i:05d}"
        for _ in range(rng.randint(1, 4)):
            w = rng.uniform(16.0, 160.0)
            h = rng.uniform(16.0, 160.0)
            x = rng.uniform(0.0, size - w)
            y = rng.uniform(0.0, size - h)
            category = rng.randint(1, EVAL_CATEGORIES)
            gt_index = len(gts)
            gts.append((image_id, category, _r2(x), _r2(y), _r2(w), _r2(h)))
            for _ in range(rng.randint(0, 5)):
                # Per-detection jitter scale spreads IoUs across the whole
                # 0.50-0.95 sweep instead of piling them up at one threshold.
                spread = rng.uniform(0.0, 0.3)
                x1 = min(max(x + rng.gauss(0.0, spread * w), 0.0), size)
                y1 = min(max(y + rng.gauss(0.0, spread * h), 0.0), size)
                x2 = min(max(x + w + rng.gauss(0.0, spread * w), 0.0), size)
                y2 = min(max(y + h + rng.gauss(0.0, spread * h), 0.0), size)
                label = category
                if rng.random() < RELABEL_FRACTION:
                    label = rng.randint(1, EVAL_CATEGORIES - 1)
                    if label >= category:
                        label += 1
                confidence = round(rng.random(), 4)
                dets.append(
                    (
                        image_id,
                        label,
                        confidence,
                        _r2(min(x1, x2)),
                        _r2(min(y1, y2)),
                        _r2(max(x1, x2)),
                        _r2(max(y1, y2)),
                        gt_index,
                    )
                )
    return EvalCorpus(images, tuple(gts), tuple(dets))


def eval_files(corpus: EvalCorpus) -> dict[str, bytes]:
    """The detections CSV and the annotation JSON the CLI reads."""
    rows = ["image_id,category_id,confidence,x1,y1,x2,y2"]
    for image_id, category, conf, x1, y1, x2, y2, _ in corpus.detections:
        rows.append(f"{image_id},{category},{conf:.4f},{x1:.2f},{y1:.2f},{x2:.2f},{y2:.2f}")
    payload = {
        "images": [
            {
                "id": f"img{i:05d}",
                "width": EVAL_IMAGE_SIZE,
                "height": EVAL_IMAGE_SIZE,
                "location": i % 10,
                "date": "2023-06-01",
                "file_name": f"img{i:05d}.jpg",
            }
            for i in range(corpus.images)
        ],
        "annotations": [
            {"id": n + 1, "image_id": image_id, "category_id": category, "bbox": [x, y, w, h]}
            for n, (image_id, category, x, y, w, h) in enumerate(corpus.ground_truths)
        ],
        "categories": [{"id": c, "name": f"species{c}"} for c in range(1, EVAL_CATEGORIES + 1)],
    }
    return {
        "det.csv": ("\n".join(rows) + "\n").encode("utf-8"),
        "ann.json": json.dumps(payload, separators=(",", ":")).encode("utf-8"),
    }


def _generate_eval(seed: int, work: Path) -> dict:
    corpus = make_eval_corpus(seed)
    _write_all(work, eval_files(corpus))
    gt_per_cat: dict[int, int] = {}
    for _, category, *_rest in corpus.ground_truths:
        gt_per_cat[category] = gt_per_cat.get(category, 0) + 1
    retained_per_cat: dict[int, int] = {}
    for _, category, conf, *_rest in corpus.detections:
        if conf >= CONF_THRESHOLD:
            retained_per_cat[category] = retained_per_cat.get(category, 0) + 1
    return {
        "argv": ["eval", str(work / "det.csv"), str(work / "ann.json")],
        "gt_per_category": {str(k): v for k, v in sorted(gt_per_cat.items())},
        "retained_per_category": {str(k): v for k, v in sorted(retained_per_cat.items())},
    }


def _check_eval(out: Path, stdout: str, expect: dict) -> list[str]:
    problems = []
    lines = stdout.splitlines()
    if len(lines) != 2 or not lines[0].startswith("mAP50,") or not lines[1].startswith("mAP50-95,"):
        return [f"unexpected eval stdout {stdout!r}"]
    for line in lines:
        value = float(line.split(",")[1])
        if not 0.0 <= value <= 1.0:
            problems.append(f"{line} outside [0, 1]")
    with open(out / "metrics.csv", encoding="utf-8") as stream:
        rows = [r for r in csv.reader(stream)][1:-2]
    seen = set()
    for category_id, _ap, _p, _r, tp, fp, fn in rows:
        seen.add(category_id)
        if int(tp) + int(fn) != expect["gt_per_category"].get(category_id, 0):
            problems.append(f"category {category_id}: tp + fn != ground truths")
        if int(tp) + int(fp) != expect["retained_per_category"].get(category_id, 0):
            problems.append(f"category {category_id}: tp + fp != retained detections")
    if seen != set(expect["gt_per_category"]):
        problems.append(f"metrics.csv covers categories {sorted(seen)}")
    for category_id in expect["gt_per_category"]:
        if not (out / f"pr_curve_cat{category_id}.svg").is_file():
            problems.append(f"missing pr_curve_cat{category_id}.svg")
    return problems


# --- cam-320 -----------------------------------------------------------------


def cam_files(seed: int, size: int = CAM_SIZE) -> dict[str, bytes]:
    """The improved topology with layer seeds derived from the workload
    seed, and a seeded square binary PPM of the same size."""
    from trapeval.graph import build_graph, write_graph_text

    text = io.StringIO()
    write_graph_text(build_graph("improved", size, seed=seed), text)
    pixels = random.Random(seed).randbytes(3 * size * size)
    header = f"P6\n{size} {size}\n255\n".encode("ascii")
    return {"graph.txt": text.getvalue().encode("utf-8"), "img.ppm": header + pixels}


def _generate_cam(seed: int, work: Path) -> dict:
    _write_all(work, cam_files(seed))
    argv = ["gradcam", str(work / "graph.txt"), str(work / "img.ppm"),
            "--layer", CAM_LAYER, "--category", str(CAM_CATEGORY), "--pgm"]
    return {"argv": argv}


def _raster_header(path: Path) -> bytes:
    with open(path, "rb") as stream:
        return stream.read(15)


def _check_cam(out: Path, stdout: str, expect: dict) -> list[str]:
    problems = []
    lines = stdout.splitlines()
    if len(lines) != 1 or not lines[0].startswith("score,") or not math.isfinite(float(lines[0][6:])):
        problems.append(f"unexpected gradcam stdout {stdout!r}")
    size = f"{CAM_SIZE} {CAM_SIZE}\n255\n".encode("ascii")
    for name, magic, channels in (("heatmap.ppm", b"P6\n", 3), ("overlay.ppm", b"P6\n", 3), ("heatmap.pgm", b"P5\n", 1)):
        path = out / name
        if not path.is_file():
            problems.append(f"missing {name}")
            continue
        if _raster_header(path) != magic + size:
            problems.append(f"{name}: unexpected header")
        if path.stat().st_size != len(magic + size) + channels * CAM_SIZE * CAM_SIZE:
            problems.append(f"{name}: unexpected size")
    pgm = out / "heatmap.pgm"
    # Max-normalized, or all zero when the rectified map is (a defined case).
    if pgm.is_file() and max(pgm.read_bytes()[len(b"P5\n" + size):]) not in (0, 255):
        problems.append("heatmap.pgm is neither max-normalized nor all zero")
    return problems


# --- split-20k ---------------------------------------------------------------


def split_payload(seed: int, images: int = SPLIT_IMAGES) -> dict:
    """Camera-trap annotations over 40 locations and one year of dates.
    About 10% of frames are empty: half carry no annotation, half one
    annotation of the 'empty' category. The rest have 1-4 boxes."""
    rng = random.Random(seed)
    sizes = ((2048, 1536), (1920, 1080), (1280, 720))
    empty_id = SPLIT_SPECIES + 1
    start = dt.date(SPLIT_YEAR, 1, 1)
    image_rows = []
    annotations = []
    for i in range(images):
        image_id = f"frame{i:06d}"
        width, height = sizes[rng.randrange(len(sizes))]
        date = start + dt.timedelta(days=rng.randrange(365))
        image_rows.append(
            {
                "id": image_id,
                "width": width,
                "height": height,
                "location": rng.randrange(SPLIT_LOCATIONS),
                "date": date.isoformat(),
                "file_name": f"{image_id}.jpg",
            }
        )
        if rng.random() < SPLIT_EMPTY_FRACTION:
            if rng.random() < 0.5:
                annotations.append((image_id, empty_id, [0, 0, 0, 0]))
            continue
        for _ in range(rng.randint(1, 4)):
            w = rng.uniform(20.0, width / 3)
            h = rng.uniform(20.0, height / 3)
            box = [_r2(rng.uniform(0.0, width - w)), _r2(rng.uniform(0.0, height - h)), _r2(w), _r2(h)]
            annotations.append((image_id, rng.randint(1, SPLIT_SPECIES), box))
    categories = [{"id": c, "name": f"species{c}"} for c in range(1, SPLIT_SPECIES + 1)]
    categories.append({"id": empty_id, "name": "empty"})
    return {
        "images": image_rows,
        "annotations": [
            {"id": n + 1, "image_id": image_id, "category_id": c, "bbox": box}
            for n, (image_id, c, box) in enumerate(annotations)
        ],
        "categories": categories,
    }


def _generate_split(seed: int, work: Path) -> dict:
    payload = split_payload(seed)
    _write_all(work, {"ann.json": json.dumps(payload, separators=(",", ":")).encode("utf-8")})
    empty_id = SPLIT_SPECIES + 1
    per_image: dict[str, int] = {}
    for ann in payload["annotations"]:
        if ann["category_id"] != empty_id:
            per_image[ann["image_id"]] = per_image.get(ann["image_id"], 0) + 1
    argv = ["split", str(work / "ann.json"), "--seed", str(seed), "--check-reference-counts"]
    return {"argv": argv, "kept_images": len(per_image), "kept_annotations": sum(per_image.values())}


SPLIT_NAMES = ("train", "cis_val", "cis_test", "trans_val", "trans_test")


def _check_split(out: Path, stdout: str, expect: dict) -> list[str]:
    problems = []
    report = out / "report.csv"
    if not report.is_file() or report.read_text(encoding="utf-8") != stdout:
        problems.append("report.csv missing or different from stdout")
    lines = stdout.splitlines()
    if not lines or lines[0] != "split,images,annotations":
        return problems + [f"unexpected split report head {lines[:1]!r}"]
    counts = [line.split(",") for line in lines[1:6]]
    if [c[0] for c in counts] != list(SPLIT_NAMES):
        return problems + ["split report does not list the five splits"]
    if sum(int(c[1]) for c in counts) != expect["kept_images"]:
        problems.append("split image counts do not sum to the non-empty images")
    if sum(int(c[2]) for c in counts) != expect["kept_annotations"]:
        problems.append("split annotation counts do not sum to the non-empty annotations")
    if "split,expected,actual,delta" not in lines:
        problems.append("reference-count comparison missing")
    for name in SPLIT_NAMES:
        if not (out / f"{name}.json").is_file():
            problems.append(f"missing {name}.json")
    return problems


# --- losslab -----------------------------------------------------------------

LOSSLAB_ITERS = 500


def _generate_losslab(seed: int, work: Path) -> dict:
    # The documented defaults are the whole input: the seed changes nothing.
    return {"argv": ["losslab"]}


def _check_losslab(out: Path, stdout: str, expect: dict) -> list[str]:
    problems = []
    rows = stdout.splitlines()
    if [r.split(",")[0] for r in rows] != list(LOSS_KINDS):
        problems.append(f"unexpected losslab stdout {stdout!r}")
    for kind in LOSS_KINDS:
        path = out / f"trajectory_{kind}.csv"
        if not path.is_file():
            problems.append(f"missing {path.name}")
        elif len(path.read_text(encoding="utf-8").splitlines()) != LOSSLAB_ITERS + 2:
            problems.append(f"{path.name}: expected {LOSSLAB_ITERS + 1} iterations")
    for name in ("loss_curves.svg", "focusing_curve.svg", "focusing_curve.csv"):
        if not (out / name).is_file():
            problems.append(f"missing {name}")
    return problems


# --- shared ------------------------------------------------------------------


def _write_all(work: Path, files: dict[str, bytes]) -> None:
    work.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (work / name).write_bytes(data)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def combined_digest(digests: dict[str, str]) -> str:
    """One sha256 over sorted ``name digest`` lines."""
    text = "".join(f"{name} {digests[name]}\n" for name in sorted(digests))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "eval-2k",
            "2k-image corpus at default thresholds: the AP sweep re-matches the corpus per threshold and category",
            _generate_eval,
            _check_eval,
        ),
        Workload(
            "cam-320",
            "Grad-CAM to l2 on the improved graph at 320: forward, backward across the neck and GAM, caches",
            _generate_cam,
            _check_cam,
        ),
        Workload(
            "split-20k",
            "20k-image split: the dataset parse and pure-Python indented JSON write path",
            _generate_split,
            _check_split,
        ),
        Workload(
            "losslab",
            "losslab defaults: the only workload in losses and boxes, 8 kinds x 500 descent steps",
            _generate_losslab,
            _check_losslab,
            seeded=False,
        ),
    )
}
