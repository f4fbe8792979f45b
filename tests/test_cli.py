import ast
import copy
import dataclasses
import errno
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import trapeval
from trapeval import dataset as ds, nn, svg
from trapeval.cli import main
from trapeval.dataset import parse_annotations
from trapeval.errors import TrapevalError
from trapeval.graph import Graph, ScoreSelector, parse_graph_text
from trapeval.ppm import write_ppm
from trapeval.svg import LineChart
from trapeval.tensor import Tensor3

from conftest import awkward_split_payload, make_annotation_payload
from test_dataset import write_annotations_definition
from test_evaluation import DEFINITION


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_image(path, seed=0, size=64):
    rng = np.random.default_rng(seed)
    write_ppm(Tensor3(rng.integers(0, 256, (3, size, size)).astype(float)), path)


def output_digests(out, stdout):
    """sha256 of every file in the directory ``out`` and of ``stdout``."""
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    got["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    return got


def assert_reruns_alike(capsys, argv, out_a, out_b):
    """``argv`` run into ``out_a``, into ``out_b``, then into ``out_a`` again
    over its first run's files: each run exits 0 and writes the same files
    and stdout, and no staged ``.name.tmp`` is left."""
    runs = []
    for out in (out_a, out_b, out_a):
        code, stdout, _ = run(capsys, *argv, "--out-dir", str(out))
        assert code == 0
        runs.append(output_digests(out, stdout))
    assert runs[0] == runs[1] == runs[2]
    assert not [name for name in runs[2] if name.startswith(".")]


@pytest.fixture
def identity_corpus(tmp_path):
    payload = make_annotation_payload(num_images=10, seed=2)
    ann = tmp_path / "ann.json"
    ann.write_text(json.dumps(payload), encoding="utf-8")
    rows = ["image_id,category_id,confidence,x1,y1,x2,y2"]
    for entry in payload["annotations"]:
        x, y, w, h = entry["bbox"]
        rows.append(
            f"{entry['image_id']},{entry['category_id']},1.0,{x},{y},{x + w},{y + h}"
        )
    det = tmp_path / "dets.csv"
    det.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(det), str(ann)


# --- shapes -----------------------------------------------------------------------

def test_shapes_check_passes_for_both_variants(capsys):
    code, out, err = run(capsys, "shapes", "baseline", "--size", "640", "--check")
    assert code == 0 and "shape check passed" in err
    assert "l0       conv         320x320x32" in out
    assert "20x20x2048" in out  # pooling concat detail row
    code, out, err = run(capsys, "shapes", "improved", "--size", "640", "--check")
    assert code == 0
    assert "l9       gam          20x20x512" in out


def test_shapes_check_prints_each_mismatch_with_the_reference_table(capsys, monkeypatch):
    from trapeval import graph

    _, table, _ = run(capsys, "shapes", "baseline", "--check")
    reference = dict(graph.REFERENCE_BACKBONE_640)
    monkeypatch.setattr(graph, "REFERENCE_BACKBONE_640", tuple({**reference, "l2": (64, 80, 80)}.items()))
    code, stdout, err = run(capsys, "shapes", "baseline", "--check")
    assert (code, stdout) == (1, table)
    assert err == "shape mismatch: l2: expected (64, 80, 80), got (64, 160, 160)\n"


def test_shapes_rejects_unaligned_size(capsys):
    code, _, err = run(capsys, "shapes", "baseline", "--size", "639")
    assert code != 0 and "multiple of 32" in err


def test_shapes_emit_round_trips(tmp_path, capsys):
    target = tmp_path / "graph.txt"
    argv = ["shapes", "improved", "--size", "64", "--emit", str(target)]
    assert run(capsys, *argv)[0] == 0
    first = target.read_bytes()
    assert run(capsys, *argv)[0] == 0  # again, over the first run's file
    assert target.read_bytes() == first
    assert [p.name for p in tmp_path.iterdir()] == ["graph.txt"]  # no staged file left
    with open(target, "r", encoding="utf-8") as stream:
        spec = parse_graph_text(stream)
    assert spec.detect_layer().name == "l29"


# sha256 of stdout and of the emitted graph text of shapes, as the parent of
# the array greedy resolver wrote them: the reference check at 640 for both
# topologies, and the description that the gradcam pins below read.
SHAPES_PINS = [
    (["baseline", "--size", "640", "--check"], "shape check passed\n",
     {
         "stdout": "0e026eb768e179c0f4269e88fde9027ba580d5596c8dd93711f1fccb5c1a62a3",
     }),
    (["improved", "--size", "640", "--check"], "shape check passed\n",
     {
         "stdout": "f54f75b1860bc80cad1a3a7ddc5ded2738e855e5c45442d07c93b9bfd213bd66",
     }),
    (["baseline", "--size", "64", "--categories", "4", "--seed", "5", "--emit"], None,
     {
         "graph.txt": "dde1938030c4fefd1803e9d0a587734fc4d0cff968784bd3e1e63b373bca4404",
         "stdout": "120a045441792b068144e8ecdadeb0af7929cbd782a043c91f06233936e8cd2a",
     }),
    (["improved", "--size", "64", "--categories", "4", "--seed", "5", "--emit"], None,
     {
         "graph.txt": "b17135fcc84e4418a8ca10275f378d2feaed29cd43aaeec1e350cb708e03fc47",
         "stdout": "b6aee8765d991ae79135f6ac9da015dc84992fc2380c2363fef6b17e91b8a44d",
     }),
]


@pytest.mark.parametrize(
    "argv,stderr,digests", SHAPES_PINS,
    ids=["baseline-check", "improved-check", "baseline-emit", "improved-emit"],
)
def test_shapes_bytes_are_pinned(tmp_path, capsys, argv, stderr, digests):
    out = tmp_path / "shapes"
    out.mkdir()
    target = out / "graph.txt"
    if argv[-1] == "--emit":
        argv = [*argv, str(target)]
        stderr = f"wrote graph description to {target}\n"
    code, stdout, err = run(capsys, "shapes", *argv)
    assert (code, err) == (0, stderr)
    assert output_digests(out, stdout) == digests


# --- losslab ----------------------------------------------------------------------

def test_losslab_outputs_and_flat_iou(tmp_path, capsys):
    out = tmp_path / "lab"
    code, stdout, _ = run(
        capsys,
        "losslab",
        "--kinds",
        "iou,diou",
        "--start",
        "0,0,1,1",
        "--gt",
        "2,2,3,3",
        "--step",
        "0.01",
        "--iters",
        "50",
        "--out-dir",
        str(out),
    )
    assert code == 0
    for name in (
        "trajectory_iou.csv",
        "trajectory_diou.csv",
        "loss_curves.svg",
        "focusing_curve.svg",
        "focusing_curve.csv",
    ):
        assert (out / name).exists(), name
    iou_rows = (out / "trajectory_iou.csv").read_text().splitlines()
    assert iou_rows[0] == "iter,loss,iou,center_dist,area,x1,y1,x2,y2"
    first, last = iou_rows[1].split(","), iou_rows[-1].split(",")
    assert first[1:] == last[1:]  # stationary: zero-gradient start
    assert "3,1" in (out / "focusing_curve.csv").read_text().splitlines()
    assert "iou,1," in stdout


def test_losslab_deterministic(tmp_path, capsys):
    args = ["losslab", "--kinds", "all", "--iters", "40", "--step", "0.02"]
    assert_reruns_alike(capsys, args, tmp_path / "a", tmp_path / "b")


def test_losslab_takes_boxes_that_start_with_a_minus_in_the_equals_form(tmp_path, capsys):
    # argparse reads "--gt -2,-2,3,3" as an option after --gt; README "Loss lab"
    # documents --gt=... and --start=... for such boxes.
    out = tmp_path / "lab"
    code, stdout, err = run(capsys, "losslab", "--kinds", "diou", "--iters", "20",
                            "--start=-1,-1,0,0", "--gt=-2,-2,3,3", "--out-dir", str(out))
    assert code == 0 and err == ""
    rows = (out / "trajectory_diou.csv").read_text().splitlines()
    assert rows[1].split(",")[5:] == ["-1", "-1", "0", "0"]
    assert float(rows[-1].split(",")[2]) > float(rows[1].split(",")[2])  # IoU with the gt grows


def test_losslab_on_a_point_box_exits_1_naming_both_boxes(tmp_path, capsys):
    code, stdout, err = run(capsys, "losslab", "--start", "1,1,1,1", "--gt", "1,1,1,1",
                            "--out-dir", str(tmp_path / "lab"))
    # iou and giou ran before diou raised, yet nothing is printed or written.
    assert (code, stdout) == (1, "") and not (tmp_path / "lab").exists()
    point = "BoundingBox(x1=1.0, y1=1.0, x2=1.0, y2=1.0)"
    assert err == f"error: enclosing hull of {point} and {point} has zero diagonal\n"


def test_losslab_ciou_on_a_zero_height_box_exits_1_naming_both_boxes(tmp_path, capsys):
    code, stdout, err = run(capsys, "losslab", "--kinds", "all", "--start", "0,0,1,0",
                            "--gt", "2,2,3,3", "--out-dir", str(tmp_path / "lab"))
    # iou, giou and diou ran before ciou raised, yet nothing is printed or written.
    assert (code, stdout) == (1, "") and not (tmp_path / "lab").exists()
    start, gt = "BoundingBox(x1=0.0, y1=0.0, x2=1.0, y2=0.0)", "BoundingBox(x1=2.0, y1=2.0, x2=3.0, y2=3.0)"
    assert err == f"error: aspect ratio undefined: {start} or {gt} has zero height\n"


@pytest.mark.parametrize("kind", ["iou", "giou", "diou", "ciou", "eiou", "focal_eiou", "wiou_v1", "wiou_v3"])
def test_losslab_on_boxes_whose_squares_underflow_exits_1_naming_both_boxes(tmp_path, capsys, kind):
    code, stdout, err = run(capsys, "losslab", "--kinds", kind, "--start", "0,0,1e-160,1e-160",
                            "--gt", "0,0,2e-160,1e-160", "--iters", "2", "--out-dir", str(tmp_path / "lab"))
    assert (code, stdout) == (1, "") and not (tmp_path / "lab").exists()
    start = "BoundingBox(x1=0.0, y1=0.0, x2=1e-160, y2=1e-160)"
    gt = "BoundingBox(x1=0.0, y1=0.0, x2=2e-160, y2=1e-160)"
    assert err == f"error: loss of {start} against {gt} is undefined: a squared size underflows to zero\n"


@pytest.mark.parametrize(
    "given,start,gt",
    [
        (["--start", "0,0,1,0"], "0.0, y1=0.0, x2=1.0, y2=0.0", "2.0, y1=2.0, x2=3.0, y2=3.0"),
        (["--gt", "2,2,3,2"], "0.0, y1=0.0, x2=1.0, y2=1.0", "2.0, y1=2.0, x2=3.0, y2=2.0"),
    ],
)
def test_losslab_names_a_default_box_with_float_corners_as_a_given_one(tmp_path, capsys, given, start, gt):
    code, stdout, err = run(capsys, "losslab", "--kinds", "all", *given, "--out-dir", str(tmp_path / "lab"))
    assert (code, stdout) == (1, "") and not (tmp_path / "lab").exists()
    assert err == (
        f"error: aspect ratio undefined: BoundingBox(x1={start}) or BoundingBox(x1={gt}) has zero height\n"
    )


def test_losslab_goes_on_past_finite_values_whose_sum_overflows(tmp_path, capsys):
    # At iteration 0 the loss is 1.64e308 and each gradient component
    # 1.82e307: every value is finite, so the descent steps on, although
    # their sum is inf.
    argv = ["--kinds", "wiou_v3", "--start", "2,2,3,3", "--gt", "0,0,1,1", "--delta", "5e-309", "--iters", "3"]
    code, stdout, err = run(capsys, "losslab", *argv, "--out-dir", str(tmp_path / "lab"))
    assert (code, stdout, err) == (1, "", "wiou_v3: diverged at iteration 1\n")


def test_losslab_leaves_a_diverged_kind_out_and_writes_the_others(tmp_path, capsys, monkeypatch):
    from trapeval.errors import DivergedError
    from trapeval.losses import LossKind

    simulate = trapeval.cli.simulate_regression

    def diverging(kind, *args, **kwargs):
        if kind is LossKind.GIOU:
            raise DivergedError(3)
        return simulate(kind, *args, **kwargs)

    monkeypatch.setattr(trapeval.cli, "simulate_regression", diverging)
    out = tmp_path / "lab"
    code, stdout, err = run(capsys, "losslab", "--kinds", "iou,giou,diou", "--iters", "5", "--out-dir", str(out))
    assert (code, err) == (1, "giou: diverged at iteration 3\n")
    assert [line.split(",")[0] for line in stdout.splitlines()] == ["iou", "diou"]
    assert sorted(p.name for p in out.iterdir()) == [
        "focusing_curve.csv", "focusing_curve.svg", "loss_curves.svg", "trajectory_diou.csv", "trajectory_iou.csv",
    ]


def test_losslab_prints_no_summary_row_when_a_write_fails(tmp_path, capsys):
    # The last SVG cannot be written: its path is a directory.
    out = tmp_path / "lab"
    (out / "focusing_curve.svg").mkdir(parents=True)
    code, stdout, err = run(capsys, "losslab", "--out-dir", str(out))
    assert (code, stdout) == (1, "")
    assert err.startswith("error: ") and "focusing_curve.svg" in err
    assert [p.name for p in out.iterdir()] == ["focusing_curve.svg"]  # nor any file


# sha256 of every output and of stdout of three losslab runs, as the former
# per-step descent wrote them. Only the third run clamps at the arena (after
# its start) and re-orders corners mid-descent.
LOSSLAB_PINS = [
    (
        [],
        {
            "stdout": "503d91d7a45d29bc9c33ebc9788fa7a94c384246b44d27f73e501d7a0baf0d35",
            "focusing_curve.csv": "4e3169d110a1c7e65838540e3824afc0af4a6fb0e3c03ad4579c832650621e77",
            "focusing_curve.svg": "7b09623061e93ed4b1cf201395fb2d29d12ce9cb0d67eb1b309c370bc3236968",
            "loss_curves.svg": "2ff7743a35d51c4740de73ceac54ea99763cb1c2005a945857a66e9e54ae1ea5",
            "trajectory_ciou.csv": "664b9f9770d76bd6a1256c778d3108a8299a71fb59ae0c776ac500eb7df5dbe0",
            "trajectory_diou.csv": "664b9f9770d76bd6a1256c778d3108a8299a71fb59ae0c776ac500eb7df5dbe0",
            "trajectory_eiou.csv": "1e07c9f5fe78e4e30bf390f7959ef1deb2ded74a457f6632f7ceae123396dac3",
            "trajectory_focal_eiou.csv": "43f5dbb1229c84c31fd03249d0ed8929c6bcb7045e757caf2ce1e56a7de7aff4",
            "trajectory_giou.csv": "45d47396d3e7c4c436270930cb03abed74008c901888418a3a86467f27487c89",
            "trajectory_iou.csv": "cc26ea14b74d3d5c60bf067147f00f903fe0a4e03f88e8b97a7970bff93cfaed",
            "trajectory_wiou_v1.csv": "10358b01686aa1f0db2fb1afa7e280e76bf51777e424e4e15437a840b939ceb5",
            "trajectory_wiou_v3.csv": "39483edbafcdbfd03ef581fab2c15fe3aa99b624258b3fae1b795cc7cc6162b2",
        },
    ),
    (
        ["--kinds", "ciou,wiou_v3", "--step", "0.5", "--iters", "50"],
        {
            "stdout": "c4a895a84ab23249997e5e233f04cc68c781e05c9db216303870bf0dc8699ef8",
            "focusing_curve.csv": "4e3169d110a1c7e65838540e3824afc0af4a6fb0e3c03ad4579c832650621e77",
            "focusing_curve.svg": "7b09623061e93ed4b1cf201395fb2d29d12ce9cb0d67eb1b309c370bc3236968",
            "loss_curves.svg": "7333df35739593670dec5d9ac97c91443f40825c6e0143acb2aade938313ce85",
            "trajectory_ciou.csv": "ae72d0f25d89f78f8b57345572fccf3cc1ed866b379f7bd4bb0e0b076ccc46dd",
            "trajectory_wiou_v3.csv": "b38ded2f29b395eba6b469d330c00a80e841e4a8936e36a91e8c7b47f3c8317d",
        },
    ),
    (
        ["--kinds", "diou,eiou", "--step", "5", "--iters", "50",
         "--start=-20000,-1,-19998,1", "--gt=-9999,-1,-9998,1"],
        {
            "stdout": "bb2dc9fd16627b6857c0e7d13d5c245b152915a75f1d1dd0689be3988bb90fcd",
            "focusing_curve.csv": "4e3169d110a1c7e65838540e3824afc0af4a6fb0e3c03ad4579c832650621e77",
            "focusing_curve.svg": "7b09623061e93ed4b1cf201395fb2d29d12ce9cb0d67eb1b309c370bc3236968",
            "loss_curves.svg": "ae299053b1ec33774eb461063be25efd05765d8d50c3fb9003515763f4ccb577",
            "trajectory_diou.csv": "1d7a52e2778323ee80dc6fed707a58eb1e358d8c83869c58774c39bd43184b6a",
            "trajectory_eiou.csv": "483013eb4ea8a86b47bc3600d889910485acdde88500e89b5138ac1c79e202db",
        },
    ),
]


@pytest.mark.parametrize("argv,digests", LOSSLAB_PINS)
def test_losslab_bytes_are_pinned(tmp_path, capsys, argv, digests):
    out = tmp_path / "lab"
    code, stdout, err = run(capsys, "losslab", *argv, "--out-dir", str(out))
    assert code == 0 and err == ""
    assert output_digests(out, stdout) == digests


# --- eval --------------------------------------------------------------------------

def eval_corpus(images=200, seed=21, distinct=False):
    """A seeded annotation payload and detection rows ``[image_id,
    category_id, confidence, x1, y1, x2, y2]``: 0-3 ground truths per image
    over categories 1-6 (7 is configured but never annotated), 0-4 jittered
    detections each, some relabelled, some with swapped corners, every
    coordinate rounded to 0.01, and image ids whose sorted order is not
    their numeric one. The confidences are on a 0.01 grid so that ties
    occur, or with ``distinct`` all different (drawn from a second stream,
    so the rest of the corpus is the same)."""
    rng = random.Random(seed)
    distinct_confidences = iter(random.Random(seed + 1000).sample(range(1, 10**6), 12 * images))
    payload = {
        "images": [
            {"id": f"img{i}", "width": 320, "height": 240, "location": i % 10,
             "date": "2023-06-01", "file_name": f"img{i}.jpg"}
            for i in range(images)
        ],
        "annotations": [],
        "categories": [{"id": c, "name": f"species{c}"} for c in range(1, 8)],
    }
    rows = []
    for i in range(images):
        for _ in range(rng.randint(0, 3)):
            w, h = rng.uniform(8, 120), rng.uniform(8, 100)
            x, y = rng.uniform(0, 320 - w), rng.uniform(0, 240 - h)
            category = rng.randint(1, 6)
            payload["annotations"].append(
                {"id": len(payload["annotations"]) + 1, "image_id": f"img{i}",
                 "category_id": category, "bbox": [round(x, 2), round(y, 2), round(w, 2), round(h, 2)]}
            )
            for _ in range(rng.randint(0, 4)):
                s = rng.uniform(0.0, 0.3)
                x1, y1 = x + rng.gauss(0, s * w), y + rng.gauss(0, s * h)
                x2, y2 = x + w + rng.gauss(0, s * w), y + h + rng.gauss(0, s * h)
                if rng.random() < 0.1:
                    x1, x2 = x2, x1
                label = rng.randint(1, 7) if rng.random() < 0.2 else category
                confidence = round(rng.random(), 2)
                if distinct:
                    confidence = next(distinct_confidences) / 10**6
                rows.append([f"img{i}", label, confidence, *(round(v, 2) for v in (x1, y1, x2, y2))])
    return payload, rows


def write_eval_files(directory, payload, rows):
    """The corpus as a detections CSV (each float as its shortest exact
    text) and an annotation file in ``directory``; their paths."""
    det, ann = directory / "dets.csv", directory / "ann.json"
    lines = ["image_id,category_id,confidence,x1,y1,x2,y2", *(",".join(map(str, row)) for row in rows)]
    det.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ann.write_text(json.dumps(payload), encoding="utf-8")
    return str(det), str(ann)


def write_eval_corpus(tmp_path, images=200, seed=21):
    return write_eval_files(tmp_path, *eval_corpus(images, seed))


def scaled_corpus(payload, rows, factor):
    """The corpus with every image size and coordinate times ``factor``."""
    scaled = copy.deepcopy(payload)
    for image in scaled["images"]:
        image["width"] *= factor
        image["height"] *= factor
    for annotation in scaled["annotations"]:
        annotation["bbox"] = [factor * v for v in annotation["bbox"]]
    return scaled, [[*row[:3], *(factor * v for v in row[3:])] for row in rows]


# sha256 of every output and of stdout of eval on write_eval_corpus, as the
# row-loop reader and the record-based evaluation wrote them, at the default
# thresholds and at non-default ones (which move only the operating point).
EVAL_PINS = [
    (
        [],
        {
            "ap_modes.csv": "b06d3990e0a49ed1bc0bf0093cfe3a254f0ffb20e843ee173e0bc284c3512690",
            "confusion_matrix.csv": "7ec374a5dc6fd72cf9291ec0e12e28643d772a61542f04f36c90bd82fb134754",
            "metrics.csv": "dc16ee15f2a3d3ca3ce19ac21c533dde4d93bf1f55e2c89373c65713e9e35785",
            "pr_curve_cat1.svg": "f667137958a6693b8d3bf1d98d3a4db04be9c82ecd56e6007aed3217700b3dd2",
            "pr_curve_cat2.svg": "b41ea7bf95b855b9abbe2d27217a7ee86c8af7a42eed707dff586268bff523cd",
            "pr_curve_cat3.svg": "7e96e0f823d23f625f0014d2096d79b57d8155f26b71df6ab2f0aa8fb3e0531d",
            "pr_curve_cat4.svg": "51897b82f919150f7fa263bf7eb87a7fbc3ce70c797f5203bde282c2fcc5d602",
            "pr_curve_cat5.svg": "a0f8533826060855ffd27fc50957af25152d0c5686c4830e9c1844c14c7b990d",
            "pr_curve_cat6.svg": "2c3454c38fa3717b6af86fc6ad368ac539bea27c92a47d40b71b0028cb0dbed6",
            "pr_curves_all.svg": "66f499a03eea89b09d5c1c7336a59d4f74b262bca87a08406532b72fb5e6e1b0",
            "stdout": "a987ec46f54c5dc7584173c10c018b56910c2d999b6589656202b40c2969972d",
        },
    ),
    (
        ["--iou-thresh", "0.6", "--conf-thresh", "0.1"],
        {
            "ap_modes.csv": "b06d3990e0a49ed1bc0bf0093cfe3a254f0ffb20e843ee173e0bc284c3512690",
            "confusion_matrix.csv": "09976e32ee91ba8d690011612f00db6587a868b7ad923f1f9aad061e91704bc0",
            "metrics.csv": "7409704dafd9a28b13fa02a4edbde1eb3cdb53cf9bb7108912a13c0cc03dd650",
            "pr_curve_cat1.svg": "f667137958a6693b8d3bf1d98d3a4db04be9c82ecd56e6007aed3217700b3dd2",
            "pr_curve_cat2.svg": "b41ea7bf95b855b9abbe2d27217a7ee86c8af7a42eed707dff586268bff523cd",
            "pr_curve_cat3.svg": "7e96e0f823d23f625f0014d2096d79b57d8155f26b71df6ab2f0aa8fb3e0531d",
            "pr_curve_cat4.svg": "51897b82f919150f7fa263bf7eb87a7fbc3ce70c797f5203bde282c2fcc5d602",
            "pr_curve_cat5.svg": "a0f8533826060855ffd27fc50957af25152d0c5686c4830e9c1844c14c7b990d",
            "pr_curve_cat6.svg": "2c3454c38fa3717b6af86fc6ad368ac539bea27c92a47d40b71b0028cb0dbed6",
            "pr_curves_all.svg": "66f499a03eea89b09d5c1c7336a59d4f74b262bca87a08406532b72fb5e6e1b0",
            "stdout": "a987ec46f54c5dc7584173c10c018b56910c2d999b6589656202b40c2969972d",
        },
    ),
]


@pytest.mark.parametrize("argv,digests", EVAL_PINS)
def test_eval_bytes_are_pinned(tmp_path, capsys, argv, digests):
    det, ann = write_eval_corpus(tmp_path)
    out = tmp_path / "ev"
    code, stdout, err = run(capsys, "eval", det, ann, *argv, "--out-dir", str(out))
    assert code == 0 and err == ""
    assert output_digests(out, stdout) == digests


# 2**25 is exact in doubles and puts every corner past 2**24.
@pytest.mark.parametrize("factor", [1, 2**25])
def test_eval_reaches_no_definition_function(tmp_path, capsys, monkeypatch, factor):
    import trapeval.evaluation as ev

    def unreachable(*args, **kwargs):
        raise AssertionError("eval called a definition function")

    for name in DEFINITION:
        monkeypatch.setattr(ev, name, unreachable)
    det, ann = write_eval_files(tmp_path, *scaled_corpus(*eval_corpus(), factor))
    out = tmp_path / "ev"
    code, stdout, err = run(capsys, "eval", det, ann, "--out-dir", str(out))
    assert code == 0 and err == ""
    assert output_digests(out, stdout) == EVAL_PINS[0][1]


def test_eval_builds_no_ground_truth_record(tmp_path, capsys, monkeypatch):
    import trapeval.boxes as boxes
    import trapeval.dataset as ds
    import trapeval.evaluation as ev

    def unbuilt(*args, **kwargs):
        raise AssertionError("eval built a record of the annotation file")

    # The constructors, and the readers that build records with tuple.__new__.
    for cls in (boxes.BoundingBox, boxes.GroundTruth, ds.ImageRecord):
        monkeypatch.setattr(cls, "__new__", unbuilt)
    monkeypatch.setattr(ds, "parse_annotations", unbuilt)
    monkeypatch.setattr(ev.BoxColumns, "from_records", unbuilt)
    det, ann = write_eval_corpus(tmp_path)
    out = tmp_path / "ev"
    code, stdout, err = run(capsys, "eval", det, ann, "--out-dir", str(out))
    assert code == 0 and err == ""
    assert output_digests(out, stdout) == EVAL_PINS[0][1]


def test_eval_identity_predictor(tmp_path, capsys, identity_corpus):
    det, ann = identity_corpus
    out = tmp_path / "ev"
    code, stdout, _ = run(capsys, "eval", det, ann, "--out-dir", str(out))
    assert code == 0
    assert "mAP50,1" in stdout.splitlines()
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert "mAP50,1" in metrics
    assert "mAP50-95,1" in metrics
    assert (out / "confusion_matrix.csv").exists()
    assert (out / "ap_modes.csv").exists()
    assert list(out.glob("pr_curve_cat*.svg"))
    assert (out / "pr_curves_all.svg").exists()


def test_eval_empty_detections(tmp_path, capsys, identity_corpus):
    _, ann = identity_corpus
    det = tmp_path / "none.csv"
    det.write_text("image_id,category_id,confidence,x1,y1,x2,y2\n", encoding="utf-8")
    out = tmp_path / "ev0"
    code, stdout, _ = run(capsys, "eval", str(det), ann, "--out-dir", str(out))
    assert code == 0
    assert "mAP50,0" in stdout.splitlines()
    confusion = (out / "confusion_matrix.csv").read_text().splitlines()
    data_rows = [line.split(",") for line in confusion[1:]]
    total_gt = sum(int(v) for row in data_rows for v in row[1:])
    background_column = sum(int(row[-1]) for row in data_rows)
    assert total_gt == background_column  # every ground truth is a miss


def test_eval_deterministic_bytes(tmp_path, capsys, identity_corpus):
    assert_reruns_alike(capsys, ["eval", *identity_corpus], tmp_path / "ea", tmp_path / "eb")


def test_eval_bad_input_exits_nonzero(tmp_path, capsys, identity_corpus):
    _, ann = identity_corpus
    det = tmp_path / "broken.csv"
    det.write_text("who,what\n", encoding="utf-8")
    code, stdout, err = run(capsys, "eval", str(det), ann, "--out-dir", str(tmp_path / "x"))
    assert code != 0
    assert "error:" in err
    assert "mAP" not in stdout


@pytest.mark.parametrize(
    "rows,message",
    [
        # Across images the first in sorted id order wins ("img10" < "img2"),
        # not the first in the file.
        (["img2,7,0.9,0,0,1,1", "img10,8,0.1,0,0,1,1"], "detection references unknown category 8"),
        # Within one image the first in input order wins, not the most confident.
        (["img2,1,0.9,0,0,1,1", "img2,7,0.1,0,0,1,1", "img2,8,0.9,0,0,1,1"],
         "detection references unknown category 7"),
    ],
)
def test_eval_unknown_detection_category_exits_1_as_match_corpus_raises(tmp_path, capsys, rows, message):
    import reference_evaluation as ref
    from trapeval.errors import CategoryError
    from trapeval.evaluation import MatchConfig, read_detections_csv

    payload = make_annotation_payload(num_images=3)
    for image, entry in zip(("img2", "img10", "img0"), payload["images"]):
        entry["id"] = entry["file_name"] = image
    for image, entry in zip(("img2", "img10", "img0"), payload["annotations"]):
        entry["image_id"] = image
    ann = tmp_path / "ann.json"
    ann.write_text(json.dumps(payload), encoding="utf-8")
    det = tmp_path / "dets.csv"
    det.write_text("\n".join(["image_id,category_id,confidence,x1,y1,x2,y2", *rows]) + "\n", encoding="utf-8")
    data = parse_annotations(str(ann))
    with open(det, encoding="utf-8", newline="") as stream:
        detections = read_detections_csv(stream)
    ground_truths = [g for record in data.records for g in record.annotations]
    with pytest.raises(CategoryError) as info:
        ref.match_corpus(detections, ground_truths, MatchConfig(), sorted(data.categories))
    assert str(info.value) == message
    code, stdout, err = run(capsys, "eval", str(det), str(ann), "--out-dir", str(tmp_path / "out"))
    assert (code, stdout, err) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_eval_unknown_annotation_category_exits_1_naming_the_annotation(tmp_path, capsys):
    payload = make_annotation_payload(num_images=3)
    payload["annotations"][1]["category_id"] = 9
    ann = tmp_path / "ann.json"
    ann.write_text(json.dumps(payload), encoding="utf-8")
    det = tmp_path / "dets.csv"
    # The annotation file is read before any category is matched, so its
    # error wins over the detection's unknown category.
    det.write_text("image_id,category_id,confidence,x1,y1,x2,y2\nimg0000,8,0.5,0,0,1,1\n", encoding="utf-8")
    code, stdout, err = run(capsys, "eval", str(det), str(ann), "--out-dir", str(tmp_path / "out"))
    assert (code, stdout, err) == (1, "", "error: annotations[1]: unknown category id 9\n")


def test_eval_names_the_line_of_a_bad_row_after_ten_thousand_good_ones(tmp_path, capsys, identity_corpus):
    _, ann = identity_corpus
    good = [f"img{i % 10:04d},1,0.5,{i % 7},0,{i % 7 + 1},1" for i in range(10_000)]
    det = tmp_path / "dets.csv"
    det.write_text(
        "\n".join(["image_id,category_id,confidence,x1,y1,x2,y2", *good, "img0001,1,1.5,0,0,1,1", *good]) + "\n",
        encoding="utf-8",
    )
    code, stdout, err = run(capsys, "eval", str(det), ann, "--out-dir", str(tmp_path / "out"))
    assert (code, stdout, err) == (1, "", "error: line 10002: confidence 1.5 outside [0, 1]\n")


def test_eval_names_the_line_of_a_field_past_the_csv_size_limit(tmp_path, capsys, identity_corpus):
    _, ann = identity_corpus
    det = tmp_path / "long.csv"
    det.write_text(
        "image_id,category_id,confidence,x1,y1,x2,y2\n" + "i" * 200_000 + ",1,0.5,0,0,1,1\n",
        encoding="utf-8",
    )
    code, stdout, err = run(capsys, "eval", str(det), ann, "--out-dir", str(tmp_path / "out"))
    assert (code, stdout, err) == (1, "", "error: line 2: field larger than field limit (131072)\n")


def test_eval_names_the_physical_line_after_a_quoted_line_break(tmp_path, capsys, identity_corpus):
    _, ann = identity_corpus
    det = tmp_path / "quoted.csv"
    det.write_text(
        'image_id,category_id,confidence,x1,y1,x2,y2\n"im\n0",1,0.5,0,0,1,1\nim1,1,0.5,0,0,1\n',
        encoding="utf-8",
    )
    code, stdout, err = run(capsys, "eval", str(det), ann, "--out-dir", str(tmp_path / "out"))
    assert (code, stdout, err) == (1, "", "error: line 4: expected 7 fields, got 6\n")


# --- gradcam -----------------------------------------------------------------------

@pytest.fixture
def graph_and_image(tmp_path, capsys):
    graph = tmp_path / "graph.txt"
    assert main(["shapes", "improved", "--size", "64", "--categories", "4",
                 "--seed", "5", "--emit", str(graph)]) == 0
    capsys.readouterr()
    image = tmp_path / "input.ppm"
    write_image(image, seed=1)
    return str(graph), str(image)


def test_gradcam_end_layer(tmp_path, capsys, graph_and_image):
    graph, image = graph_and_image
    out = tmp_path / "cam"
    code, stdout, _ = run(
        capsys, "gradcam", graph, image, "--layer", "l28", "--category", "2",
        "--out-dir", str(out), "--pgm",
    )
    assert code == 0
    assert stdout.startswith("score,")
    assert (out / "heatmap.ppm").exists()
    assert (out / "overlay.ppm").exists()
    assert (out / "heatmap.pgm").exists()


def test_gradcam_deterministic_and_alpha_zero(tmp_path, capsys, graph_and_image):
    graph, image = graph_and_image
    args = ["gradcam", graph, image, "--layer", "l16", "--category", "0"]
    assert_reruns_alike(capsys, args, tmp_path / "ca", tmp_path / "cb")
    out_zero = tmp_path / "cz"
    code, _, _ = run(
        capsys, "gradcam", graph, image, "--layer", "l16", "--category", "0",
        "--alpha-overlay", "0", "--out-dir", str(out_zero),
    )
    assert code == 0
    assert (out_zero / "overlay.ppm").read_bytes() == Path(image).read_bytes()


def test_gradcam_zero_weight_graph_emits_zero_heatmap(tmp_path, capsys, graph_and_image):
    graph, image = graph_and_image
    zeroed = tmp_path / "zero.txt"
    lines = []
    for line in Path(graph).read_text(encoding="utf-8").splitlines():
        tokens = line.split()
        lines.append(
            " ".join("seed=-1" if t.startswith("seed=") else t for t in tokens)
        )
    zeroed.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "camz"
    code, stdout, _ = run(
        capsys, "gradcam", str(zeroed), image, "--layer", "l28", "--category", "1",
        "--out-dir", str(out), "--pgm",
    )
    assert code == 0
    assert stdout.splitlines()[0] == "score,0"
    heat = (out / "heatmap.pgm").read_bytes()
    header_end = heat.index(b"255\n") + 4
    assert set(heat[header_end:]) == {0}


def test_gradcam_bad_layer_fails(tmp_path, capsys, graph_and_image):
    graph, image = graph_and_image
    code, _, err = run(
        capsys, "gradcam", graph, image, "--layer", "nope", "--category", "0",
        "--out-dir", str(tmp_path / "cx"),
    )
    assert code != 0 and "error:" in err


def test_gradcam_resolves_its_open_selector_once(tmp_path, capsys, monkeypatch, graph_and_image):
    graph, image = graph_and_image
    calls = []
    resolve = ScoreSelector.resolve

    def recorded(self, run, layer=None):
        calls.append((self.scale, self.cell, layer))
        return resolve(self, run, layer)

    monkeypatch.setattr(ScoreSelector, "resolve", recorded)
    code, _, err = run(capsys, "gradcam", graph, image, "--layer", "l2", "--category", "2",
                       "--out-dir", str(tmp_path / "cam"))
    assert (code, err) == (0, "")
    # The CLI pins the open selector for l2; the backward pass resolves the
    # pinned one, for the same layer.
    assert [call for call in calls if call[1] is None] == [(None, None, "l2")]
    assert len(calls) == 2 and calls[1][1] is not None and calls[1][2] == "l2"


def test_gradcam_checks_the_layer_grid_before_the_backward_pass(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "g.txt"
    graph.write_text(
        "img input channels=3 height=64 width=64\n"
        "l0 conv in=img out_channels=4 kernel=3 stride=2 padding=0\n"
        "head detect in=l0 categories=2\n",
        encoding="utf-8",
    )
    image = tmp_path / "img.ppm"
    write_image(image)

    def no_backward(*args, **kwargs):
        raise AssertionError("the backward pass ran before the layer grid was checked")

    monkeypatch.setattr(Graph, "backward_to_layer", no_backward)
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "gradcam", str(graph), str(image), "--layer", "l0",
                            "--category", "0", "--out-dir", str(out))
    assert (code, stdout) == (1, "")
    assert err == "error: layer grid 31x31 does not divide image size 64x64\n"
    assert not out.exists()

# sha256 of stdout and of every output of gradcam at 64, as the parent of the
# array greedy resolver wrote them: both topologies (the seed-5 descriptions
# of SHAPES_PINS) on a seed-1 image, at a backbone layer and a neck layer.
GRADCAM_PINS = [
    ("baseline", "l2", {
        "heatmap.pgm": "c162905e1598710e8e132f5ddbdd054b4224b780095ab7529df23bcd035a39ca",
        "heatmap.ppm": "e22be9fa630524ebfc54ad54c8f1a69b4dcdac462888a691c580c8e7e8600ed1",
        "overlay.ppm": "6087babe7023def31ce40069da79dccc636bc5cf5630af3cb4e655221e22f152",
        "stdout": "6594ff6c54d53e4ca7dc94d295048f28dc376c13908fe440c4def5522c75f51e",
    }),
    ("baseline", "l16", {
        "heatmap.pgm": "4f2f44b41c9a394ba3ecd0adee7a4b2804f03f3f2e9c8cc8c726b549dfa8696b",
        "heatmap.ppm": "794d4aecf033c539007efcb8c6ec805ccc1121bdaf11302ec31bb621f7b6635d",
        "overlay.ppm": "a177e66e0e29b8d013a6e670318a3c46302b9f42a6679e65756717e6812e3877",
        "stdout": "fd6b1c50cb965b9be167d2f76d1fa1112900ee07cee5813dde5008ba83f0850e",
    }),
    ("improved", "l2", {
        "heatmap.pgm": "448a61991280f7ca5855a195f9ae3b67eb250b89d47589ffa528617e37392370",
        "heatmap.ppm": "3b9a87531e8ee3718960238d829ebde090a432bc5c56fa88b4117df6404ff101",
        "overlay.ppm": "ab913ebed250c64b35232431d6720b5616cfb0432a8ea35c9fee6203147eb31e",
        "stdout": "a08121bbd41398b953ae8196840fea83e6dd85f5220ef4b41d8274f3ca392838",
    }),
    ("improved", "l16", {
        "heatmap.pgm": "18bc1c5d7cc0716764ba7b12654d819444cde9624a10a22abdffc97e9fd77ef5",
        "heatmap.ppm": "a7ea435171e0fc94de4bb7ad9b42617ea2c7e886a07a87f090af240b9d77d919",
        "overlay.ppm": "bfb255b5754e0135b79a72c9481c97f74bd320c57203a2af2fc394e64bc057b4",
        "stdout": "a08121bbd41398b953ae8196840fea83e6dd85f5220ef4b41d8274f3ca392838",
    }),
    # The input layer, the one command path through an upsample by 1; frozen
    # before that upsample lost its copying branch.
    ("baseline", "img", {
        "heatmap.pgm": "a4822cc70eeffa89756439c08f75a5506bfac265d1f0c383c003210695af0716",
        "heatmap.ppm": "b0c635aea908f79a109112f4d90fbf3942165e87b66bcb13166bbce54bd15302",
        "overlay.ppm": "f7427e46f3045ad33f6aba3747426dea9f192273f543b3af87e71390dc855b62",
        "stdout": "6594ff6c54d53e4ca7dc94d295048f28dc376c13908fe440c4def5522c75f51e",
    }),
    ("improved", "img", {
        "heatmap.pgm": "e938010fc4e60bfaf95b8a861b6b294a5a8d7978a6443b09c49e4df839e87af9",
        "heatmap.ppm": "db06c7f464b60d5f40473a8b16ef3bffcdcc6336bbb2cf3840969356a71c1f11",
        "overlay.ppm": "9cc45fe158eef3f18becb2059e0d181b4f8ad33de823f841c5396d5e82678006",
        "stdout": "a08121bbd41398b953ae8196840fea83e6dd85f5220ef4b41d8274f3ca392838",
    }),
]


@pytest.mark.parametrize(
    "variant,layer,digests", GRADCAM_PINS, ids=[f"{v}-{layer}" for v, layer, _ in GRADCAM_PINS]
)
def test_gradcam_bytes_are_pinned(tmp_path, capsys, variant, layer, digests):
    graph, image, out = tmp_path / "graph.txt", tmp_path / "input.ppm", tmp_path / "cam"
    assert main(["shapes", variant, "--size", "64", "--categories", "4", "--seed", "5",
                 "--emit", str(graph)]) == 0
    capsys.readouterr()
    write_image(image, seed=1)
    code, stdout, err = run(capsys, "gradcam", str(graph), str(image), "--layer", layer,
                            "--category", "2", "--pgm", "--out-dir", str(out))
    assert (code, err) == (0, "")
    assert output_digests(out, stdout) == digests


# --- split -------------------------------------------------------------------------

@pytest.fixture
def split_corpus(tmp_path):
    payload = make_annotation_payload(
        num_images=240, num_locations=20, seed=6, empty_every=12
    )
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_split_writes_five_files_with_conserved_counts(tmp_path, capsys, split_corpus):
    out = tmp_path / "sp"
    code, stdout, _ = run(
        capsys, "split", split_corpus,
        "--trans-test", "0,1,2,3,4,5,6,7,8", "--trans-val", "9",
        "--seed", "3", "--out-dir", str(out),
    )
    assert code == 0
    names = ("train", "cis_val", "cis_test", "trans_val", "trans_test")
    total = 0
    for name in names:
        part = parse_annotations(out / f"{name}.json")
        total += len(part.records)
    filtered = 240 - 20  # empty_every=12 marks 20 of 240 images empty
    assert total == filtered
    assert "split,images,annotations" in stdout
    assert (out / "report.csv").exists()


def test_split_random_trans_pick_is_seeded(tmp_path, capsys, split_corpus):
    assert_reruns_alike(capsys, ["split", split_corpus, "--seed", "7"], tmp_path / "a", tmp_path / "b")


def test_split_reference_count_report(tmp_path, capsys, split_corpus):
    out = tmp_path / "sp2"
    code, stdout, _ = run(
        capsys, "split", split_corpus, "--seed", "1", "--out-dir", str(out),
        "--check-reference-counts",
    )
    assert code == 0
    assert "split,expected,actual,delta" in stdout
    assert "train,12099," in stdout


def test_split_requires_val_with_explicit_test(tmp_path, capsys, split_corpus):
    code, _, err = run(
        capsys, "split", split_corpus, "--trans-test", "0,1,2",
        "--out-dir", str(tmp_path / "x"),
    )
    assert code != 0 and "--trans-val" in err


def test_split_that_breaks_an_invariant_exits_1_and_writes_nothing(tmp_path, capsys, monkeypatch, split_corpus):
    split = ds.split_cis_trans

    def leaky(rows, config):  # the split, with a trans test image also in train
        result = split(rows, config)
        return dataclasses.replace(result, train=result.train + result.trans_test[:1])

    monkeypatch.setattr(ds, "split_cis_trans", leaky)
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "split", split_corpus, "--seed", "1", "--out-dir", str(out))
    assert (code, stdout) == (1, "")
    assert err.splitlines()[1:] == [
        "invariant violation: cis and trans location sets overlap: [2]",
        "invariant violation: train image img0002 not on an even day",  # taken on 2023-12-25
        "invariant violation: image img0002 appears in both train and trans_test",
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "error", [OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt()], ids=["disk-full", "interrupt"]
)
def test_split_that_fails_inside_a_part_leaves_no_part_and_no_staged_file(
    tmp_path, capsys, monkeypatch, split_corpus, error
):
    out = tmp_path / "out"
    seen = []
    render = ds._json_string

    def failing(text):
        if len(seen) == 600:  # inside the last part, the four before it whole
            seen.append(sorted(p.name for p in out.iterdir()))
            raise error
        seen.append(None)
        return render(text)

    monkeypatch.setattr(ds, "_json_string", failing)
    argv = ["split", split_corpus, "--trans-test", "0,1,2,3,4,5,6,7,8", "--trans-val", "9", "--out-dir", str(out)]
    if isinstance(error, OSError):
        assert run(capsys, *argv) == (1, "", f"error: [Errno {errno.ENOSPC}] No space left on device\n")
    else:  # not an error main handles: it propagates, after the same discard
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert capsys.readouterr().out == ""
    parts = ("cis_test", "cis_val", "train", "trans_test", "trans_val")
    assert seen[-1] == [f".{name}.json.tmp" for name in parts]  # staged when the render raised
    assert list(out.iterdir()) == []


def plain_split_corpus():
    return make_annotation_payload(num_images=500, num_locations=20, seed=13, empty_every=9)


# sha256 of stdout and of the five split files and the report of split (and
# its stderr as text). On a seeded 500-image file, as the parent of the array
# greedy resolver wrote them: a seeded random trans pick with the
# reference-count report, and explicit trans locations counted by day of
# year. On a seeded awkward 300-image file, as the record-building split
# wrote them: a random trans pick by day of year with a 20% validation share.
SPLIT_PINS = [
    (plain_split_corpus, ["--seed", "7", "--check-reference-counts"],
     "picked trans test locations [1, 2, 4, 5, 8, 10, 12, 13, 16] and validation location 9\n",
     {
         "cis_test.json": "a8086130d586d7da42fe0b17ec7252c99071a873ecb32876387e79e7ef538836",
         "cis_val.json": "0d254cf70d147887d3fa41e0398907bede288c724598eb73a7c57292fe54f3fd",
         "report.csv": "9d6feda992160214adff8b95ad8db61324ce9e0557808127954045b0a7ea3150",
         "stdout": "9d6feda992160214adff8b95ad8db61324ce9e0557808127954045b0a7ea3150",
         "train.json": "1d3a460272eb0ab7ff6f783d17a7199b43ddc0a38abde9f35185186e1bb93892",
         "trans_test.json": "131bb46d55c2f7818493dfa368c98c9b17f06931b09dc455ce69cf078939056a",
         "trans_val.json": "ad3900355befaa76349ce24fa5643da703e32dd01a8791a5bf092b15a7119764",
     }),
    (plain_split_corpus,
     ["--trans-test", "0,1,2,3,4,5,6,7,8", "--trans-val", "9", "--val-fraction", "0.1",
      "--day-basis", "day_of_year", "--seed", "3"],
     "",
     {
         "cis_test.json": "de8b58779e3a1977643f06c59cb05ff4ed89d54f34adf362b81df5cbf41c7a8c",
         "cis_val.json": "d15794d6bd98438680f5f728e92e7c7762ee9d2d9fdfc08e91a91c4bc5f0ae02",
         "report.csv": "f6a6bfbdc2767f5189e152782b1313b85bd49a7de03e12965692cdb21bd71c55",
         "stdout": "f6a6bfbdc2767f5189e152782b1313b85bd49a7de03e12965692cdb21bd71c55",
         "train.json": "4e8e1493b2a369896854162d7454598e6e7800c4eb3c4c8bf712fb49cb79e480",
         "trans_test.json": "617fb3d105b77a1c438bc6a8dab38b97c6d5c4d28737ad5180e7532c5d0879ad",
         "trans_val.json": "ad3900355befaa76349ce24fa5643da703e32dd01a8791a5bf092b15a7119764",
     }),
    (lambda: awkward_split_payload(31, num_images=300),
     ["--seed", "4", "--day-basis", "day_of_year", "--val-fraction", "0.2"],
     "picked trans test locations [0, 1, 3, 4, 5, 6, 7, 9, 10] and validation location 8\n",
     {
         "cis_test.json": "3fc167cf17366675d68d6989a7ff9c1920471ca6e11628a8bc0be28221f60392",
         "cis_val.json": "d3523e6a1bf33c478fcbb23e7c9471772f368598c649b7b27a6ef8a3dbef9d81",
         "report.csv": "1a73f2209e8da9e55504b86a9331362a12cc80966d41b93e3c3678777f85c71a",
         "stdout": "1a73f2209e8da9e55504b86a9331362a12cc80966d41b93e3c3678777f85c71a",
         "train.json": "fa289da1802a43db08914e4b4f4ca003744357820117becc98d8fda82be75471",
         "trans_test.json": "bad14f82d329a37c9e11a8e3c580c8e22a240227b93ce83b22c1bf40e1296f4b",
         "trans_val.json": "7b8cbfacbf0feee7f56d0ec4ed7f13e6efdfe305065031cb9a2fa1b1acadf306",
     }),
]


@pytest.mark.parametrize(
    "corpus_payload,argv,stderr,digests", SPLIT_PINS, ids=["random-trans", "day-of-year", "awkward"]
)
def test_split_bytes_are_pinned(tmp_path, capsys, corpus_payload, argv, stderr, digests):
    corpus, out = tmp_path / "corpus.json", tmp_path / "sp"
    corpus.write_text(json.dumps(corpus_payload()), encoding="utf-8")
    code, stdout, err = run(capsys, "split", str(corpus), *argv, "--out-dir", str(out))
    assert (code, err) == (0, stderr)
    assert output_digests(out, stdout) == digests


def test_split_builds_no_ground_truth_record(tmp_path, capsys, monkeypatch):
    import trapeval.boxes as boxes

    def unbuilt(*args, **kwargs):
        raise AssertionError("split built a record of the annotation file")

    # The constructors, and the readers and writers that build or take records.
    for cls in (boxes.BoundingBox, boxes.GroundTruth, ds.ImageRecord):
        monkeypatch.setattr(cls, "__new__", unbuilt)
    for name in ("parse_annotations", "filter_empty", "write_annotations"):
        monkeypatch.setattr(ds, name, unbuilt)
    corpus_payload, argv, stderr, digests = SPLIT_PINS[2]
    corpus, out = tmp_path / "corpus.json", tmp_path / "sp"
    corpus.write_text(json.dumps(corpus_payload()), encoding="utf-8")
    code, stdout, err = run(capsys, "split", str(corpus), *argv, "--out-dir", str(out))
    assert (code, err) == (0, stderr)
    assert output_digests(out, stdout) == digests


def split_definition(path, seed, trans, fraction, day_basis, check):
    """What ``split`` writes, from the records: ``parse_annotations``,
    ``filter_empty``, the split and its check, each part through
    ``json.dumps`` and the report. (exit code, stdout, stderr, files)."""
    stderr = ""
    try:
        data = ds.filter_empty(ds.parse_annotations(path))
        if trans is None:
            picked = random.Random(seed).sample(ds.split_locations(data.records), 10)
            trans = tuple(picked[:9]), picked[9]
            stderr = f"picked trans test locations {sorted(trans[0])} and validation location {trans[1]}\n"
        config = ds.SplitConfig(*trans, cis_val_fraction=fraction, seed=seed, day_basis=day_basis)
        result = ds.split_cis_trans(list(data.records), config)
    except TrapevalError as exc:
        return 1, "", f"{stderr}error: {exc}\n", {}
    assert ds.verify_split(result) == []
    files = {
        f"{name}.json": write_annotations_definition(ds.Dataset(part, data.categories)).encode("ascii")
        for name, part in result.all_parts().items()
    }
    report = ds.split_report(result, ds.REFERENCE_SPLIT_COUNTS if check else None)
    files["report.csv"] = report.encode()
    return 0, report, stderr, files


def test_split_equals_its_record_definition_on_awkward_files(tmp_path, capsys):
    rng = random.Random(27)
    outcomes = set()
    for i in range(120):
        payload = awkward_split_payload(rng.randrange(10**6), rng.randint(30, 90), rng.randint(10, 13))
        path = tmp_path / f"corpus{i}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        seed = rng.randrange(100)
        fraction = rng.choice((0.0, 0.05, 0.3))
        day_basis = rng.choice(("day_of_month", "day_of_year"))
        check = rng.random() < 0.5
        trans = None
        argv = ["split", str(path), "--seed", str(seed), "--val-fraction", str(fraction), "--day-basis", day_basis]
        if i % 2:  # explicit trans locations, one of them now and then absent from the file
            picked = rng.sample(range(13), 10)
            trans = tuple(picked[:9]), picked[9]
            argv += ["--trans-test", ",".join(map(str, trans[0])), "--trans-val", str(trans[1])]
        if check:
            argv.append("--check-reference-counts")
        out = tmp_path / f"sp{i}"
        code, stdout, err = run(capsys, *argv, "--out-dir", str(out))
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        expected = split_definition(path, seed, trans, fraction, day_basis, check)
        assert (code, stdout, err, files) == expected, (i, argv)
        outcomes.add((i % 2, day_basis, code))
    assert len(outcomes) == 8  # both trans modes and day bases, each split and refused


def test_split_equals_its_record_definition_on_extreme_values(tmp_path, capsys):
    """Values at the edges of what the reader takes, each written by the
    template as json.dumps writes it: corners of -0.0 and 5e-324, a box
    clamped on a 10**300-wide image, control characters and U+2028 in ids
    and names, and negative category ids."""
    payload = awkward_split_payload(8, num_images=40)
    payload["categories"] += [{"id": -4, "name": "line\u2028sep"}, {"id": -1, "name": "ctl\x00\x1f\x7f"}]
    wide, tiny, odd = payload["images"][:3]
    wide["width"] = 10**300
    for ann in payload["annotations"]:
        if ann["image_id"] == odd["id"]:
            ann["image_id"] = "\x00tab\tnl\n\u2028\u2029"
    odd["id"] = odd["file_name"] = "\x00tab\tnl\n\u2028\u2029"
    payload["annotations"] += [
        {"image_id": wide["id"], "category_id": -4, "bbox": [1e300, 0, 5e300, 10]},
        {"image_id": wide["id"], "category_id": 7, "bbox": [-5, -5, 1e299, 3]},
        {"image_id": tiny["id"], "category_id": -1, "bbox": [-0.0, 5e-324, 5e-324, -0.0]},
        {"image_id": odd["id"], "category_id": -1, "bbox": [0.5, 0.25, 5e-324, 1e-300]},
    ]
    path = tmp_path / "extremes.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "sp"
    code, stdout, err = run(capsys, "split", str(path), "--seed", "5", "--out-dir", str(out))
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    assert (code, stdout, err, files) == split_definition(path, 5, None, 0.05, "day_of_month", False)
    written = b"".join(files.values())
    for value in (b'"width": 1' + b"0" * 300, b"-0.0", b"5e-324", b"1e+300", b"\\u2028", b"\\u0000tab",
                  b'"category_id": -4', b'"id": -1', b'"name": "ctl\\u0000\\u001f\\u007f"'):
        assert value in written, value


# --- svg helper -----------------------------------------------------------------------

def test_svg_chart_renders_series_and_marker(tmp_path):
    chart = LineChart("demo", "x", "y")
    chart.add_series("a", [0, 1, 2], [0.0, 0.5, 0.25])
    chart.add_series("b", [0, 1, 2], [1.0, 1.0, 1.0])
    chart.add_vline(1.5, "marker")
    text = chart.to_svg()
    assert text.count("<polyline") == 2
    assert "marker" in text and "demo" in text
    path = tmp_path / "chart.svg"
    chart.write(path)
    assert path.read_text(encoding="utf-8") == text
    with pytest.raises(ValueError):
        chart.add_series("bad", [1, 2], [1.0])


def test_svg_chart_handles_flat_series():
    chart = LineChart("flat", "x", "y")
    chart.add_series("const", [0, 1], [2.0, 2.0])
    assert "<polyline" in chart.to_svg()
    assert chart._bounds() == (0.0, 1.0, 2.0, 3.0)  # widened by 1 wherever that moves lo
    # From 2^53 on, lo + 1 == lo: the range is widened by |lo| instead.
    for flat in (2.0**53, 1e17, -1e17, 1e300, -1.7e308):
        chart = LineChart("flat", "x", "y")
        chart.add_series("const", [flat, flat], [flat, flat])
        x_lo, x_hi, y_lo, y_hi = chart._bounds()
        assert x_hi > x_lo == flat and y_hi > y_lo == flat
        assert "<polyline" in chart.to_svg()


def polyline_points_definition(chart):
    """Each polyline's points as to_svg formatted them through px, py and _fmt."""
    x_lo, x_hi, y_lo, y_hi = chart._bounds()
    plot_w = svg._WIDTH - svg._MARGIN_LEFT - svg._MARGIN_RIGHT
    plot_h = svg._HEIGHT - svg._MARGIN_TOP - svg._MARGIN_BOTTOM

    def px(x):
        return svg._MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return svg._MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    return [
        " ".join(f"{svg._fmt(px(x))},{svg._fmt(py(y))}" for x, y in zip(xs, ys))
        for _, xs, ys in chart.series
        if xs
    ]


def test_svg_polyline_points_equal_their_definition():
    rng = random.Random(11)
    scales = (1.0, 1e-9, 1e6, 1e150, 1e300)
    for case in range(300):
        chart = LineChart("t", "x", "y")
        for _ in range(rng.randint(1, 4)):
            n = rng.choice((0, 2, 7, 60))
            xs = [rng.uniform(-1.0, 1.0) * rng.choice(scales) for _ in range(n)]
            ys = [rng.uniform(-1.0, 0.5) * rng.choice(scales) for _ in range(n)]
            if case % 5 == 0:  # degenerate bounds: one x, one y
                xs, ys = [0.5] * n, [-3.0] * n
            elif case % 7 == 0:
                ys = [float(rng.randint(-3, 3)) for _ in range(n)]
            chart.add_series("s", xs, ys)
        if case % 3 == 0:
            chart.add_vline(rng.uniform(-2.0, 2.0), "v")
        points = re.findall(r'<polyline points="([^"]*)"', chart.to_svg())
        assert points == polyline_points_definition(chart), case


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(math.nan)
@example(-math.nan)
@example(math.inf)
@example(-math.inf)
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072009e-308)
@example(999999.5)
@example(1.7976931348623157e308)
@settings(max_examples=500)
def test_percent_g_writes_every_double_as_the_format_spec_does(value):
    # to_svg writes polyline points with "%.6g" and every other number with _fmt.
    assert "%.6g,%.6g" % (value, -value) == f"{svg._fmt(value)},{svg._fmt(-value)}"


# --- defined errors: exit 1, name the culprit, no traceback ---------------------

def write_tiny_graph(tmp_path, line):
    graph = tmp_path / "g.txt"
    graph.write_text(
        f"img input channels=3 height=8 width=8\n{line}\nhead detect in=img categories=2\n",
        encoding="utf-8",
    )
    image = tmp_path / "img.ppm"
    write_image(image, size=8)
    return str(graph), str(image)


@pytest.mark.parametrize(
    "line,layer",
    [
        ("noin conv out_channels=4", "noin"),
        ("empty concat", "empty"),
        ("still conv in=img out_channels=4 stride=0", "still"),
        ("flat upsample in=img factor=0", "flat"),
        ("hollow conv in=img out_channels=0", "hollow"),
        ("twice upsample in=img,img", "twice"),
        ("typo conv in=img out_channels=4 stirde=2", "typo"),
        ("even sppf in=img kernel=4", "even"),
        ("again input channels=3 height=8 width=8", "again"),
        ("early detect in=img\nlate conv in=early out_channels=4", "late"),
        (None, "l22"),  # shapes --categories 0: the baseline head at 64
    ],
)
def test_malformed_graph_exits_1_naming_layer(tmp_path, capsys, line, layer):
    if line is None:
        argv = ["shapes", "baseline", "--size", "64", "--categories", "0"]
    else:
        graph, image = write_tiny_graph(tmp_path, line)
        argv = ["gradcam", graph, image, "--layer", "img", "--category", "0",
                "--out-dir", str(tmp_path / "out")]
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and f"layer {layer}" in err
    assert "Traceback" not in err and stdout == ""


# 2**61 doubles are 2**64 bytes: numpy refuses such an array before allocating.
@pytest.mark.parametrize(
    "line,head,message",
    [
        (f"wide conv in=img out_channels={2**61}", "in=wide categories=2",
         f"layer wide: conv ({2**61}, 8, 8) is too large for numpy"),
        ("", f"in=img categories={2**61}",
         f"layer head: detect.cls0 ({2**61}, 8, 8) is too large for numpy"),
    ],
    ids=["out_channels", "categories"],
)
def test_gradcam_on_a_layer_too_large_for_numpy_exits_1_naming_it(tmp_path, capsys, line, head, message):
    graph, image = write_tiny_graph(tmp_path, line)
    text = Path(graph).read_text(encoding="utf-8").replace("in=img categories=2", head)
    Path(graph).write_text(text, encoding="utf-8")
    code, stdout, err = run(capsys, "gradcam", graph, image, "--layer", "img", "--category", "0",
                            "--out-dir", str(tmp_path / "out"))
    assert (code, stdout, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("target", ["head/cls0", "img"])
def test_a_layer_named_like_a_head_plane_exits_1_naming_it(tmp_path, capsys, target):
    graph = tmp_path / "g.txt"
    graph.write_text(
        "img input channels=3 height=8 width=8\n"
        "head/cls0 conv in=img out_channels=4\n"
        "head detect in=head/cls0 categories=2\n",
        encoding="utf-8",
    )
    image = tmp_path / "img.ppm"
    write_image(image, size=8)
    code, stdout, err = run(capsys, "gradcam", str(graph), str(image), "--layer", target,
                            "--category", "0", "--out-dir", str(tmp_path / "out"))
    assert code == 1
    assert err == "error: layer head/cls0: a name under head/ would shadow a plane of detect layer head\n"
    assert stdout == ""


def test_gradcam_rejects_a_bad_layer_before_drawing_a_weight(tmp_path, capsys, monkeypatch):
    graph, image = write_tiny_graph(tmp_path, "")

    def no_draw(*args, **kwargs):
        raise AssertionError("a weight was drawn before --layer was checked")

    monkeypatch.setattr(nn, "_uniform_weights", no_draw)
    code, stdout, err = run(capsys, "gradcam", graph, image, "--layer", "nope", "--category", "0",
                            "--out-dir", str(tmp_path / "out"))
    assert code == 1
    assert err == "error: no layer named 'nope'\n" and stdout == ""


def test_gradcam_out_of_memory_exits_1_with_numpys_message(tmp_path, capsys, monkeypatch):
    graph, image = write_tiny_graph(tmp_path, "")
    message = "Unable to allocate 216. TiB for an array with shape (1099511627776, 3, 3, 3) and data type float64"

    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(nn, "_uniform_weights", no_memory)
    code, stdout, err = run(capsys, "gradcam", graph, image, "--layer", "img", "--category", "0",
                            "--out-dir", str(tmp_path / "out"))
    assert (code, stdout, err) == (1, "", f"error: layer head: {message}\n")
    assert not (tmp_path / "out").exists()


def test_eval_out_of_memory_without_a_message_exits_1_saying_so(tmp_path, capsys, monkeypatch):
    from trapeval import evaluation

    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(evaluation, "_pairs", no_memory)
    det, ann = write_eval_corpus(tmp_path, images=5)
    code, stdout, err = run(capsys, "eval", det, ann, "--out-dir", str(tmp_path / "out"))
    assert (code, stdout, err) == (1, "", "error: out of memory\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv,argument",
    [
        (["eval", "{det}", "{ann}", "--iou-thresh", "1.5"], "iou_threshold 1.5"),
        (["eval", "{det}", "{ann}", "--conf-thresh", "-0.1"], "confidence_threshold -0.1"),
        (["losslab", "--step", "-1"], "step -1"),
        (["losslab", "--iters", "0"], "iters 0"),
        (["losslab", "--alpha", "1"], "alpha 1"),
        (["gradcam", "{graph}", "{image}", "--layer", "img", "--category", "0",
          "--alpha-overlay", "1.5"], "alpha 1.5"),
    ],
)
def test_bad_cli_number_exits_1_naming_argument(tmp_path, capsys, identity_corpus, argv, argument):
    det, ann = identity_corpus
    graph, image = write_tiny_graph(tmp_path, "")
    names = {"det": det, "ann": ann, "graph": graph, "image": image}
    argv = [a.format(**names) for a in argv] + ["--out-dir", str(tmp_path / "out")]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and argument in err
    assert "Traceback" not in err


def write_bad_annotations(tmp_path, name, mutate):
    payload = make_annotation_payload(num_images=3)
    mutate(payload)
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")  # json writes NaN as NaN
    return str(path)


@pytest.mark.parametrize(
    "argv,element",
    [
        (["eval", "{det}", "{bbox_x}"], "annotations[0]: bbox ['x', 1, 2, 3]"),
        (["eval", "{det}", "{bbox_nan}"], "annotations[0]: bbox [nan, 1, 2, 3]"),
        (["split", "{split}", "--trans-test", "a,b", "--trans-val", "3"], "--trans-test 'a,b'"),
        (["eval", "{det}", "{category_fraction}"], "annotations[0]: category_id 1.7 is not an integer"),
        (["split", "{width_fraction}"], "images[0]: width 10.9 is not an integer"),
        (["split", "{image_number}"], "images[0]: must be an object, got 5"),
        (["eval", "{det}", "{categories_number}"], "categories must be a list, got 3"),
        (["gradcam", "{graph}", "{huge_ppm}", "--layer", "img", "--category", "0"],
         "truncated pixel data: got 3 of 30000000000 bytes"),
        (["gradcam", "{graph}", "{image}", "--layer", "nope", "--category", "0"],
         "no layer named 'nope'"),
        (["gradcam", "{graph}", "{image}", "--layer", "head/box0", "--category", "0"],
         "box plane 'head/box0'"),
        (["gradcam", "{graph}", "{image}", "--layer", "head/cls7", "--category", "0"],
         "'head/cls7' is not a head class plane"),
        # x + w overflows, and clamping it to a width past doubles would too.
        (["eval", "{det}", "{past_doubles}"],
         "annotations[0]: bbox [1e+308, 0, 1e+308, 1] ends past the double range"),
        (["split", "{past_doubles}"],
         "annotations[0]: bbox [1e+308, 0, 1e+308, 1] ends past the double range"),
        (["eval", "{det}", "{bbox_bool}"], "annotations[0]: bbox [True, 0, 5, False] has a non-numeric value"),
        (["split", "{bbox_bool}"], "annotations[0]: bbox [True, 0, 5, False] has a non-numeric value"),
        (["eval", "{det}", "{category_bool}"], "annotations[0]: category_id True is not a number"),
        (["split", "{location_bool}"], "images[0]: location True is not a number"),
        (["eval", "{det}", "{height_bool}"], "images[1]: height True is not a number"),
        # int() and float() read these strings as numbers.
        (["split", "{width_string}"], "images[0]: width '1_00' is not a number"),
        (["eval", "{det}", "{bbox_string}"], "annotations[0]: bbox ['1_0', ' 2', '3e0', '4'] has a non-numeric value"),
    ],
)
def test_bad_input_exits_1_naming_element(tmp_path, capsys, identity_corpus, split_corpus, argv, element):
    names = {
        "det": identity_corpus[0],
        "bbox_x": write_bad_annotations(
            tmp_path, "x.json", lambda p: p["annotations"][0].update(bbox=["x", 1, 2, 3])
        ),
        "bbox_nan": write_bad_annotations(
            tmp_path, "nan.json", lambda p: p["annotations"][0].update(bbox=[math.nan, 1, 2, 3])
        ),
        "category_fraction": write_bad_annotations(
            tmp_path, "category.json", lambda p: p["annotations"][0].update(category_id=1.7)
        ),
        "width_fraction": write_bad_annotations(
            tmp_path, "width.json", lambda p: p["images"][0].update(width=10.9)
        ),
        "past_doubles": write_bad_annotations(
            tmp_path,
            "past.json",
            lambda p: (
                p["images"][0].update(width=10**400),
                p["annotations"][0].update(bbox=[1e308, 0, 1e308, 1]),
            ),
        ),
        "bbox_bool": write_bad_annotations(
            tmp_path, "bbox_bool.json", lambda p: p["annotations"][0].update(bbox=[True, 0, 5, False])
        ),
        "category_bool": write_bad_annotations(
            tmp_path, "category_bool.json", lambda p: p["annotations"][0].update(category_id=True)
        ),
        "location_bool": write_bad_annotations(
            tmp_path, "location_bool.json", lambda p: p["images"][0].update(location=True)
        ),
        "height_bool": write_bad_annotations(
            tmp_path, "height_bool.json", lambda p: p["images"][1].update(height=True)
        ),
        "width_string": write_bad_annotations(
            tmp_path, "width_string.json", lambda p: p["images"][0].update(width="1_00")
        ),
        "bbox_string": write_bad_annotations(
            tmp_path, "bbox_string.json", lambda p: p["annotations"][0].update(bbox=["1_0", " 2", "3e0", "4"])
        ),
        "split": split_corpus,
        "image_number": write_bad_annotations(
            tmp_path, "image.json", lambda p: p["images"].__setitem__(0, 5)
        ),
        "categories_number": write_bad_annotations(
            tmp_path, "categories.json", lambda p: p.update(categories=3)
        ),
        "huge_ppm": tmp_path / "huge.ppm",
    }
    names["graph"], names["image"] = write_tiny_graph(tmp_path, "")
    names["huge_ppm"].write_bytes(b"P6\n100000 100000\n255\nabc")
    argv = [a.format(**names) for a in argv] + ["--out-dir", str(tmp_path / "out")]
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and element in err
    assert "Traceback" not in err and stdout == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["gradcam", "{graph}", "{image}", "--layer", "img", "--category", "0",
          "--alpha-overlay", "3"], "alpha 3.0 outside [0, 1]"),
        (["gradcam", "{graph}", "{image}", "--layer", "img", "--category", "2"],
         "category 2 outside 0..1"),
        (["gradcam", "{graph}", "{image}", "--layer", "img", "--category", "0", "--scale", "1"],
         "scale 1 outside 0..0"),
        (["gradcam", "{graph}", "{image}", "--layer", "nope", "--category", "0"],
         "no layer named 'nope'"),
        (["gradcam", "{graph}", "{missing}", "--layer", "img", "--category", "0"],
         "No such file or directory"),
        (["shapes", "improved", "--size", "64", "--emit", "{missing}/x.txt"],
         "No such file or directory"),
        (["shapes", "improved", "--size", "64", "--check"],
         "--check applies to the reference 640 input"),
        (["shapes", "improved", "--size", "65"], "multiple of 32"),
        (["eval", "{det}", "{ann}", "--iou-thresh", "0"], "iou_threshold 0.0"),
        (["eval", "{det}", "{missing}"], "No such file or directory"),
        (["losslab", "--step", "-1"], "step -1"),
        (["losslab", "--delta", "0"], "delta"),
        (["split", "{ann}", "--trans-test", "1,2"], "--trans-val is required with --trans-test"),
        (["split", "{ann}", "--trans-val", "5"], "--trans-test is required with --trans-val"),
        (["split", "{missing}", "--trans-val", "5"], "--trans-test is required with --trans-val"),
        (["eval", "{det}", "{ann}", "--conf-thresh", "2"], "confidence_threshold 2.0"),
        (["split", "{ann}", "--val-fraction", "1.5"], "cis_val_fraction 1.5 outside [0, 1)"),
        (["losslab", "--alpha", "inf"], "alpha inf must be finite"),
        (["losslab", "--alpha", "nan"], "alpha nan must be finite"),
        (["losslab", "--alpha", "1e50"], "alpha 1e+50 and delta 3.0"),
        (["losslab", "--delta", "1e300"], "alpha 1.9 and delta 1e+300"),
        (["losslab", "--delta", "nan"], "delta nan must be finite"),
        (["losslab", "--delta", "inf"], "delta inf must be finite"),
        (["losslab", "--gamma", "nan"], "gamma nan must be finite"),
        (["losslab", "--step", "nan"], "step nan must be finite"),
        (["losslab", "--step", "inf"], "step inf must be finite"),
        (["split", "{few}"], "need >= 10 locations, have 3"),
        (["split", "{few}", "--trans-test", "1,2", "--trans-val", "3"], "need >= 10 locations, have 3"),
        (["eval", "{latin1}", "{ann}"], "'utf-8' codec can't decode byte 0xe9"),
        (["eval", "{det}", "{latin1}"], "'utf-8' codec can't decode byte 0xe9"),
        (["split", "{latin1}"], "'utf-8' codec can't decode byte 0xe9"),
        # JSON that keeps to the grammar but that Python cannot read into values
        (["eval", "{det}", "{long_int}"], "long_int.json: invalid JSON (Exceeds the limit (4300 digits)"),
        (["split", "{long_int}"], "long_int.json: invalid JSON (Exceeds the limit (4300 digits)"),
        (["eval", "{det}", "{deep}"], "deep.json: invalid JSON (maximum recursion depth exceeded"),
        (["split", "{deep}"], "deep.json: invalid JSON (maximum recursion depth exceeded"),
        (["gradcam", "{latin1}", "{image}", "--layer", "img", "--category", "0"],
         "'utf-8' codec can't decode byte 0xe9"),
        (["gradcam", "{no_channels}", "{image}", "--layer", "img", "--category", "0"],
         "layer l0: missing parameter 'out_channels'"),
        (["gradcam", "{graph}", "{zero_width}", "--layer", "img", "--category", "0"],
         "bad dimensions 0x5"),
        # A 3x3 conv without padding takes the 4-high, 3-wide input to a 2x1 grid.
        (["gradcam", "{narrow}", "{narrow_image}", "--layer", "l0", "--category", "0"],
         "non-uniform upsample factors for grid 2x1"),
    ],
)
def test_bad_argument_exits_1_and_writes_nothing(tmp_path, capsys, identity_corpus, argv, message):
    graph, image = write_tiny_graph(tmp_path, "")
    names = {"det": identity_corpus[0], "ann": identity_corpus[1], "graph": graph,
             "image": image, "missing": tmp_path / "missing",
             "few": write_bad_annotations(tmp_path, "few.json", lambda p: None),
             "latin1": tmp_path / "latin1.txt"}
    names["latin1"].write_bytes("caf\u00e9\n".encode("latin-1"))  # not UTF-8
    payload = make_annotation_payload(num_images=3)
    payload["images"][0]["width"] = "long"
    names["long_int"] = tmp_path / "long_int.json"  # a 5,000-digit width
    names["long_int"].write_text(json.dumps(payload).replace('"long"', "9" * 5000), encoding="utf-8")
    names["deep"] = tmp_path / "deep.json"
    names["deep"].write_text("[" * 100_000, encoding="utf-8")
    for name, text in (("no_channels", "img input channels=3 height=8 width=8\nl0 conv in=img\n"),
                       ("narrow", "img input channels=3 height=4 width=3\nl0 conv in=img out_channels=2 "
                                  "kernel=3 padding=0\nhead detect in=l0 categories=2\n")):
        names[name] = tmp_path / f"{name}.txt"
        names[name].write_text(text, encoding="utf-8")
    names["zero_width"] = tmp_path / "zero_width.ppm"
    names["zero_width"].write_bytes(b"P6\n0 5\n255\n")
    names["narrow_image"] = tmp_path / "narrow.ppm"
    write_ppm(Tensor3(np.zeros((3, 4, 3))), names["narrow_image"])
    out = tmp_path / "out"
    non_utf8 = "{latin1}" in argv
    argv = [a.format(**names) for a in argv]
    if argv[0] != "shapes":
        argv += ["--out-dir", str(out)]
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err and stdout == ""
    assert err.count("\n") == 1 and err.endswith("\n")  # the error line alone
    if non_utf8:  # the error names the file
        assert f"error: {names['latin1']}: not UTF-8 (" in err
    assert not out.exists()
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "argv,blocked",
    [(["eval", "{det}", "{ann}"], "confusion_matrix.csv"), (["split", "{split}", "--seed", "1"], "report.csv")],
    ids=["eval", "split"],
)
def test_an_output_name_taken_by_a_directory_exits_1_and_writes_nothing(
    tmp_path, capsys, identity_corpus, split_corpus, argv, blocked
):
    # Each command writes other files before the blocked one.
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    names = {"det": identity_corpus[0], "ann": identity_corpus[1], "split": split_corpus}
    code, stdout, err = run(capsys, *(a.format(**names) for a in argv), "--out-dir", str(out))
    assert (code, stdout) == (1, "")
    assert err.splitlines()[-1] == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{out / blocked}'"
    assert [p.name for p in out.iterdir()] == [blocked]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--start", "0,0,1"], "argument --start: box must be x1,y1,x2,y2 (got '0,0,1')"),
        (["--start", "0,0,x,1"], "argument --start: could not convert string to float: 'x'"),
        (["--kinds", "foo"], "argument --kinds: unknown loss kind 'foo' (valid: iou,"),
        (["--iters", "x"], "argument --iters: invalid int value: 'x'"),
        (["--kinds", "iou", "--gt=1,1,1,nan"], "argument --gt: corner y2 nan must be finite"),
        (["--gt=1,inf,3,3"], "argument --gt: corner y1 inf must be finite"),
        (["--gt=-inf,1,1,1"], "argument --gt: corner x1 -inf must be finite"),
        (["--start=nan,0,1,1"], "argument --start: corner x1 nan must be finite"),
        (["--start=0,0,inf,1"], "argument --start: corner x2 inf must be finite"),
        (["--start=0,0,1,-inf"], "argument --start: corner y2 -inf must be finite"),
    ],
)
def test_an_argument_the_parser_cannot_convert_exits_2_naming_it(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main(["losslab", *argv, "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage: trapeval losslab ")
    assert f"\ntrapeval losslab: error: {message}" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra,message",
    [
        (["--alpha-overlay", "3"], "alpha 3.0 outside [0, 1]"),
        (["--category", "2"], "category 2 outside 0..1"),
        (["--scale", "1"], "scale 1 outside 0..0"),
    ],
)
def test_gradcam_checks_alpha_category_and_scale_before_the_forward_pass(
    tmp_path, capsys, monkeypatch, extra, message
):
    graph, image = write_tiny_graph(tmp_path, "")

    def no_forward(*args, **kwargs):
        raise AssertionError("the forward pass ran before the arguments were checked")

    monkeypatch.setattr(Graph, "forward", no_forward)
    code, _, err = run(capsys, "gradcam", graph, image, "--layer", "img", "--category", "0",
                       *extra, "--out-dir", str(tmp_path / "out"))
    assert code == 1 and err == f"error: {message}\n"


def test_losslab_focal_eiou_gradient_overflow_exits_1(tmp_path, capsys):
    code, stdout, err = run(
        capsys, "losslab", "--kinds", "focal_eiou", "--gamma", "0.01",
        "--start=0,0,1e-160,1e-160", "--gt", "0,0,1,1", "--iters", "2",
        "--out-dir", str(tmp_path / "out"),
    )
    assert code == 1 and stdout == ""
    assert err.startswith("error: gamma 0.01: the focal-EIoU gradient of ")
    assert err.count("\n") == 1 and err.endswith("\n")  # the error line alone


# --- the CLI's OpenBLAS setting ---------------------------------------------------------

NUMPY_IMPORT_PROBE = """
import contextlib, io, os, sys
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print("at numpy:", os.environ.get("OPENBLAS_THREAD_TIMEOUT"), file=sys.__stdout__)
            sys.meta_path.remove(self)
sys.meta_path.insert(0, Probe())
import {module}
{then}
print("after:", os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
"""

# Importing trapeval.cli loads no numpy; a command that uses it does.
LOAD_NUMPY = {
    "trapeval.cli": "with contextlib.redirect_stdout(io.StringIO()): "
                    "trapeval.cli.main(['shapes', 'improved', '--size', '64'])",
}


def python_without_timeout(argv, preset=None, coretype=None, **kwargs):
    """Run a fresh interpreter on this checkout with OPENBLAS_THREAD_TIMEOUT
    unset, or preset to ``preset``, and OPENBLAS_CORETYPE unset, or set to
    ``coretype``."""
    unset = ("OPENBLAS_THREAD_TIMEOUT", "OPENBLAS_CORETYPE")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = str(Path(trapeval.__file__).resolve().parents[1])
    for name, value in zip(unset, (preset, coretype)):
        if value is not None:
            env[name] = value
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          check=True, timeout=120, **kwargs)


@pytest.mark.parametrize(
    "module,preset,lines",
    [
        ("trapeval.cli", None, ["at numpy: 4", "after: 4"]),
        ("trapeval.cli", "30", ["at numpy: 30", "after: 30"]),
        ("trapeval.graph", None, ["at numpy: None", "after: None"]),
        ("trapeval.evaluation", None, ["at numpy: None", "after: None"]),
    ],
)
def test_only_the_cli_sets_the_openblas_thread_timeout_before_numpy_loads(module, preset, lines):
    probe = NUMPY_IMPORT_PROBE.format(module=module, then=LOAD_NUMPY.get(module, ""))
    done = python_without_timeout(["-c", probe], preset)
    assert done.stdout.splitlines() == lines


# --- what each command imports ----------------------------------------------------------

COMMAND_IMPORTS_PROBE = """
import contextlib, importlib, io, sys
import trapeval.cli
heavy = ["numpy"] + ["trapeval." + m for m in
                     ("dataset", "evaluation", "gradcam", "graph", "nn", "tensor", "ppm")]
print("on import:", [m for m in heavy if m in sys.modules])
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [trapeval.cli.main(argv) for argv in {commands!r}]
print("exit codes:", codes, "numpy:", "numpy" in sys.modules)
for name, home in {names!r}:
    home = importlib.import_module("trapeval." + home)
    print(name, getattr(trapeval.cli, name) is getattr(home, name))
"""

# The names bench/tracing.py replaces on trapeval.cli, with their home modules.
TRACED_CLI_NAMES = [
    ("Graph", "graph"), ("parse_graph_text", "graph"), ("read_ppm", "ppm"),
    ("write_ppm", "ppm"), ("write_pgm", "ppm"), ("simulate_regression", "losses"),
    ("write_trajectory_csv", "losses"), ("focusing_coefficient", "losses"),
]


def test_losslab_and_split_never_load_numpy(tmp_path, split_corpus):
    commands = [
        ["losslab", "--iters", "20", "--out-dir", str(tmp_path / "lab")],
        ["split", split_corpus, "--seed", "7", "--out-dir", str(tmp_path / "split")],
    ]
    probe = COMMAND_IMPORTS_PROBE.format(commands=commands, names=TRACED_CLI_NAMES)
    done = python_without_timeout(["-c", probe])
    assert done.stdout.splitlines() == [
        "on import: []",
        "exit codes: [0, 0] numpy: False",
        *(f"{name} True" for name, _ in TRACED_CLI_NAMES),
    ]


EVAL_IMPORTS_PROBE = """
import contextlib, io, sys
import trapeval.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [trapeval.cli.main(argv) for argv in {commands!r}]
print("exit codes:", codes, "numpy:", "numpy" in sys.modules, "numpy.ma:", "numpy.ma" in sys.modules)
"""


def test_eval_never_loads_numpy_ma(tmp_path):
    # np.unique and np.intersect1d import numpy.ma, about 0.6 MiB of RSS.
    det, ann = write_eval_corpus(tmp_path)
    quoted = tmp_path / "quoted.csv"  # read by the row loop, not loadtxt
    quoted.write_text(Path(det).read_text(encoding="utf-8").replace("img1,", '"img1",'), encoding="utf-8")
    commands = [
        ["eval", det, ann, "--out-dir", str(tmp_path / "a")],
        ["eval", str(quoted), ann, "--iou-thresh", "0.6", "--out-dir", str(tmp_path / "b")],
    ]
    done = python_without_timeout(["-c", EVAL_IMPORTS_PROBE.format(commands=commands)])
    assert done.stdout.splitlines() == ["exit codes: [0, 0] numpy: True numpy.ma: False"]


PACKAGE_IMPORT_PROBE = """
import sys
import {module}
print(sorted(m for m in sys.modules if m.startswith("trapeval")), "dataclasses" in sys.modules)
"""


@pytest.mark.parametrize(
    "module,loaded",
    [
        ("trapeval", ["trapeval"]),
        ("trapeval.cli", ["trapeval", "trapeval.cli", "trapeval.errors"]),
    ],
)
def test_importing_the_package_or_the_cli_loads_no_command_module(module, loaded):
    done = python_without_timeout(["-c", PACKAGE_IMPORT_PROBE.format(module=module)])
    assert done.stdout.splitlines() == [f"{loaded} False"]


COMMAND_MODULES_PROBE = """
import contextlib, io, sys
import trapeval.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = trapeval.cli.main({argv!r})
print(code, sorted(m for m in sys.modules if m.startswith("trapeval.")))
"""


@pytest.mark.parametrize(
    "command,unloaded",
    [
        ("gradcam", {"losses", "boxes", "svg", "dataset", "evaluation"}),
        ("shapes", {"losses", "boxes", "svg", "dataset", "evaluation"}),
        ("split", {"losses", "svg", "evaluation"}),
        ("eval", {"losses"}),
    ],
)
def test_each_command_loads_none_of_another_commands_modules(
    tmp_path, capsys, identity_corpus, split_corpus, command, unloaded
):
    graph, image = tmp_path / "graph.txt", tmp_path / "input.ppm"
    assert main(["shapes", "improved", "--size", "64", "--seed", "5", "--emit", str(graph)]) == 0
    capsys.readouterr()
    write_image(image, seed=3)
    out = ["--out-dir", str(tmp_path / "out")]
    argv = {
        "gradcam": ["gradcam", str(graph), str(image), "--layer", "l2", "--category", "3", *out],
        "shapes": ["shapes", "improved", "--size", "64"],
        "split": ["split", split_corpus, "--seed", "7", *out],
        "eval": ["eval", *identity_corpus, *out],
    }[command]
    done = python_without_timeout(["-c", COMMAND_MODULES_PROBE.format(argv=argv)])
    code, loaded = done.stdout.split(" ", 1)
    assert code == "0"
    assert not {f"trapeval.{m}" for m in unloaded} & set(ast.literal_eval(loaded))


PUBLIC_NAMES_PROBE = """
import sys
import trapeval
for first in ("TrapevalError", "BoundingBox"):
    getattr(trapeval, first)
    print(first, sorted(m for m in sys.modules if m.startswith("trapeval.")))
from trapeval import *
for name in trapeval.__all__:
    obj = globals()[name]
    home = sys.modules[obj.__module__]
    print(name, obj.__module__, obj is getattr(trapeval, name) is getattr(home, name))
"""


def test_every_public_name_is_the_object_in_its_home_module_imported_on_first_use():
    done = python_without_timeout(["-c", PUBLIC_NAMES_PROBE])
    homes = {
        "boxes": {"BoundingBox", "Detection", "GroundTruth", "center_distance_sq", "iou"},
        "errors": {"TrapevalError"},
    }
    assert done.stdout.splitlines() == [
        "TrapevalError ['trapeval.errors']",
        "BoundingBox ['trapeval.boxes', 'trapeval.errors']",
        *(f"{name} trapeval.{next((h for h, n in homes.items() if name in n), 'losses')} True"
          for name in trapeval.__all__),
    ]
    assert trapeval.TrapevalError is TrapevalError  # the same lookup in this process


def gradcam_outputs(tmp_path, capsys, envs):
    """stdout and every output file of one fresh-process ``gradcam`` run
    (the seed-5 ``improved`` graph at 64, a seed-3 image, layer l2,
    category 3) per ``(preset, coretype)`` of ``python_without_timeout``."""
    graph = tmp_path / "graph.txt"
    assert main(["shapes", "improved", "--size", "64", "--seed", "5", "--emit", str(graph)]) == 0
    capsys.readouterr()
    image = tmp_path / "input.ppm"
    write_image(image, seed=3)
    outputs = []
    for i, (preset, coretype) in enumerate(envs):
        out = tmp_path / f"cam{i}"
        done = python_without_timeout(
            ["-m", "trapeval.cli", "gradcam", str(graph), str(image), "--layer", "l2",
             "--category", "3", "--pgm", "--out-dir", str(out)], preset, coretype)
        outputs.append((done.stdout, {p.name: p.read_bytes() for p in out.iterdir()}))
    return outputs


def test_gradcam_bytes_do_not_depend_on_the_openblas_thread_timeout(tmp_path, capsys):
    outputs = gradcam_outputs(tmp_path, capsys, [(None, None), ("30", None)])
    assert outputs[0] == outputs[1] and len(outputs[0][1]) == 3


def test_gradcam_bytes_do_not_depend_on_the_blas_kernel(tmp_path, capsys):
    # The Prescott kernel moves the score float in its last digits; no
    # printed digit and no output byte may follow it.
    outputs = gradcam_outputs(tmp_path, capsys, [(None, None), (None, "Prescott")])
    assert outputs[0] == outputs[1] and len(outputs[0][1]) == 3
