"""The benchmark's own checks: seeded generators, the eval-2k corpus
properties, and a traced run that changes no output.

    python3 -m pytest bench/tests
"""

import json
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import trapeval.cli
import trapeval.evaluation
import trapeval.nn
from tracing import COMPUTED, Tracer
from worker import run_op
from workloads import (
    CONF_THRESHOLD,
    EVAL_CATEGORIES,
    WORKLOADS,
    cam_files,
    eval_files,
    make_eval_corpus,
    split_payload,
)

BENCH = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: eval_files(make_eval_corpus(seed, images=300)),
        lambda seed: cam_files(seed, size=64),
        lambda seed: json.dumps(split_payload(seed, images=500)).encode(),
    ],
    ids=["eval", "cam", "split"],
)
def test_generators_repeat_per_seed_and_differ_between_seeds(make):
    assert make(4) == make(4)
    assert make(4) != make(5)


def test_eval_2k_corpus_properties():
    corpus = make_eval_corpus(7)
    assert corpus.images == 2000
    per_image = Counter(g[0] for g in corpus.ground_truths)
    assert len(per_image) == 2000 and set(per_image.values()) == {1, 2, 3, 4}
    assert {g[1] for g in corpus.ground_truths} == set(range(1, EVAL_CATEGORIES + 1))
    per_gt = Counter(d[7] for d in corpus.detections)
    assert max(per_gt.values()) == 5
    assert len(per_gt) < len(corpus.ground_truths)  # some ground truths get none
    assert 4_800 <= len(corpus.ground_truths) <= 5_200
    assert 11_500 <= len(corpus.detections) <= 13_500
    relabelled = sum(d[1] != corpus.ground_truths[d[7]][1] for d in corpus.detections)
    assert 0.18 <= relabelled / len(corpus.detections) <= 0.22
    confidences = [d[2] for d in corpus.detections]
    assert 0.49 <= statistics.fmean(confidences) <= 0.51
    below = sum(c < CONF_THRESHOLD for c in confidences) / len(confidences)
    assert 0.24 <= below <= 0.26


def _traced(argv, out):
    tracer = Tracer()
    tracer.begin(0)
    tracer.install()
    try:
        result = run_op(argv, out, tracer)
    finally:
        tracer.uninstall()
    return result, tracer.end()


def _write(directory: Path, files: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (directory / name).write_bytes(data)


def test_traced_eval_changes_no_output_and_repeats_its_counts(tmp_path):
    corpus = make_eval_corpus(3, images=200)
    _write(tmp_path / "in", eval_files(corpus))
    argv = ["eval", str(tmp_path / "in/det.csv"), str(tmp_path / "in/ann.json")]
    plain = run_op(argv, tmp_path / "out")
    traced, values = _traced(argv, tmp_path / "out")
    again, values_again = _traced(argv, tmp_path / "out")
    assert plain["code"] == traced["code"] == 0
    assert traced["digests"] == plain["digests"] == again["digests"]
    assert {n: values[n] for n in COMPUTED} == {n: values_again[n] for n in COMPUTED}
    assert values["evaluation.iou_calls"] > 0 and values["evaluation.pairs"] > 0
    assert values["evaluation.map_over_iou_range_s"] > 0 and values["evaluation.pr_curve_s"] > 0
    self_times = sum(v for n, v in values.items() if n.endswith("_s"))
    assert self_times == pytest.approx(traced["wall"], rel=0.05)


def test_traced_gradcam_changes_no_output(tmp_path):
    _write(tmp_path / "in", cam_files(2, size=64))
    argv = ["gradcam", str(tmp_path / "in/graph.txt"), str(tmp_path / "in/img.ppm"),
            "--layer", "l2", "--category", "3", "--pgm"]
    plain = run_op(argv, tmp_path / "out")
    traced, values = _traced(argv, tmp_path / "out")
    assert plain["code"] == 0 and traced["digests"] == plain["digests"]
    for kind in ("conv", "c2f", "sppf", "gam", "upsample", "concat", "detect"):
        assert values[f"nn.{kind}.forward_s"] > 0
    assert values["tensor.conv2d_forward_gflop"] > values["tensor.conv2d_backward_input_gflop"] > 0
    assert 0 < values["graph.cache_read_mib"] < values["graph.cache_mib"]


def test_traced_losslab_changes_no_output(tmp_path):
    plain = run_op(["losslab"], tmp_path / "out")
    traced, values = _traced(["losslab"], tmp_path / "out")
    assert traced["digests"] == plain["digests"]
    assert WORKLOADS["losslab"].check(tmp_path / "out", traced["stdout"], {}) == []
    assert values["losses.evaluate_loss_calls"] == 8 * 501


def test_uninstall_restores_every_name():
    before = (trapeval.evaluation.iou, trapeval.nn.conv2d_forward, trapeval.cli.Graph, trapeval.cli.read_ppm)
    tracer = Tracer()
    tracer.install()
    assert trapeval.evaluation.iou is not before[0]
    tracer.uninstall()
    after = (trapeval.evaluation.iou, trapeval.nn.conv2d_forward, trapeval.cli.Graph, trapeval.cli.read_ppm)
    assert after == before


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "losslab", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_benchmark_json_lists_what_run_reports():
    from tracing import PER_LAYER_UNITS

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "peak_rss_mib", "setup_s"}
