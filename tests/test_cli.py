import json
import math
from pathlib import Path

import numpy as np
import pytest

from trapeval.cli import main
from trapeval.dataset import parse_annotations
from trapeval.graph import parse_graph_text
from trapeval.ppm import write_ppm
from trapeval.svg import LineChart
from trapeval.tensor import Tensor3

from conftest import make_annotation_payload


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_image(path, seed=0, size=64):
    rng = np.random.default_rng(seed)
    write_ppm(Tensor3(rng.integers(0, 256, (3, size, size)).astype(float)), path)


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


def test_shapes_rejects_unaligned_size(capsys):
    code, _, err = run(capsys, "shapes", "baseline", "--size", "639")
    assert code != 0 and "multiple of 32" in err


def test_shapes_emit_round_trips(tmp_path, capsys):
    target = tmp_path / "graph.txt"
    code, _, _ = run(capsys, "shapes", "improved", "--size", "64", "--emit", str(target))
    assert code == 0
    with open(target, "r", encoding="utf-8") as stream:
        spec = parse_graph_text(stream)
    assert spec.detect_layer().name == "l29"


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
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, *args, "--out-dir", str(out_a))[0] == 0
    assert run(capsys, *args, "--out-dir", str(out_b))[0] == 0
    for path in sorted(out_a.iterdir()):
        assert path.read_bytes() == (out_b / path.name).read_bytes(), path.name


# --- eval --------------------------------------------------------------------------

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
    det, ann = identity_corpus
    out_a, out_b = tmp_path / "ea", tmp_path / "eb"
    assert run(capsys, "eval", det, ann, "--out-dir", str(out_a))[0] == 0
    assert run(capsys, "eval", det, ann, "--out-dir", str(out_b))[0] == 0
    for path in sorted(out_a.iterdir()):
        assert path.read_bytes() == (out_b / path.name).read_bytes(), path.name


def test_eval_bad_input_exits_nonzero(tmp_path, capsys, identity_corpus):
    _, ann = identity_corpus
    det = tmp_path / "broken.csv"
    det.write_text("who,what\n", encoding="utf-8")
    code, stdout, err = run(capsys, "eval", str(det), ann, "--out-dir", str(tmp_path / "x"))
    assert code != 0
    assert "error:" in err
    assert "mAP" not in stdout


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
    out_a, out_b = tmp_path / "ca", tmp_path / "cb"
    args = ["gradcam", graph, image, "--layer", "l16", "--category", "0"]
    assert run(capsys, *args, "--out-dir", str(out_a))[0] == 0
    assert run(capsys, *args, "--out-dir", str(out_b))[0] == 0
    for path in sorted(out_a.iterdir()):
        assert path.read_bytes() == (out_b / path.name).read_bytes()
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
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "split", split_corpus, "--seed", "7", "--out-dir", str(out_a))[0] == 0
    assert run(capsys, "split", split_corpus, "--seed", "7", "--out-dir", str(out_b))[0] == 0
    for path in sorted(out_a.iterdir()):
        assert path.read_bytes() == (out_b / path.name).read_bytes()


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
        "split": split_corpus,
    }
    argv = [a.format(**names) for a in argv] + ["--out-dir", str(tmp_path / "out")]
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and element in err
    assert "Traceback" not in err and stdout == ""
