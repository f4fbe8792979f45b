"""The benchmark's tracer (``bench/tracing.py``) wraps trapeval's names by
attribute. Installing it here makes a deleted or renamed name it patches
fail tier-1, not only a traced benchmark run. A traced ``gradcam`` checks
that its per-layer spans still see the modules a run reads, a traced
``split`` that the split protocol's spans still see its stages, and a
traced ``eval`` that wrapping the evaluation names changes no output."""

import importlib.util
import json
from pathlib import Path

import numpy as np

import trapeval.cli
from trapeval import losses
from trapeval.cli import main
from trapeval.graph import build_graph, write_graph_text
from trapeval.ppm import write_ppm
from trapeval.tensor import Tensor3

from conftest import awkward_split_payload, forget_lazy_cli_names
from test_cli import write_eval_corpus

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_installs_and_uninstalls_against_the_package():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
    finally:
        tracer.uninstall()
    assert len(patched) > 30
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"


def test_traced_gradcam_times_every_layer_kind_and_the_caches_it_reads(tmp_path, capsys):
    with open(tmp_path / "graph.txt", "w", encoding="utf-8") as stream:
        write_graph_text(build_graph("improved", 64, seed=2), stream)
    pixels = np.random.default_rng(2).integers(0, 256, (3, 64, 64)).astype(np.float64)
    write_ppm(Tensor3(pixels), tmp_path / "img.ppm")
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.begin(0)
        code = main(["gradcam", str(tmp_path / "graph.txt"), str(tmp_path / "img.ppm"),
                     "--layer", "l2", "--category", "3", "--out-dir", str(tmp_path / "out")])
        values = tracer.end()
    finally:
        tracer.uninstall()
    assert code == 0 and capsys.readouterr().out.startswith("score,")
    for kind in tracing.NN_KINDS:
        assert values[f"nn.{kind}.forward_s"] > 0, kind
    # The tracer wraps backward_to_layer: gradcam must still reach it.
    assert values["graph.backward_s"] > 0
    assert 0 < values["graph.cache_read_mib"] < values["graph.cache_mib"]


def test_traced_split_changes_no_output_and_times_the_split_protocol(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(awkward_split_payload(5, num_images=200)), encoding="utf-8")
    argv = ["split", str(corpus), "--seed", "3", "--check-reference-counts", "--out-dir"]
    assert main(argv + [str(tmp_path / "plain")]) == 0
    untraced = capsys.readouterr()
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        tracer.begin(0)
        code = main(argv + [str(tmp_path / "traced")])
        values = tracer.end()
    finally:
        tracer.uninstall()
    assert code == 0 and capsys.readouterr() == untraced
    plain = sorted((tmp_path / "plain").iterdir())
    assert [p.name for p in plain] == sorted(p.name for p in (tmp_path / "traced").iterdir())
    for path in plain:
        assert (tmp_path / "traced" / path.name).read_bytes() == path.read_bytes()
    for stage in ("split_cis_trans", "verify_split", "split_report"):
        assert values[f"dataset.{stage}_s"] > 0, stage


def test_traced_eval_changes_no_output_and_times_its_stages(tmp_path, capsys):
    det, ann = write_eval_corpus(tmp_path, images=120, seed=5)
    assert main(["eval", det, ann, "--out-dir", str(tmp_path / "plain")]) == 0
    untraced = capsys.readouterr()
    tracer = load_tracing().Tracer()
    try:
        tracer.begin(0)
        tracer.install()
        code = main(["eval", det, ann, "--out-dir", str(tmp_path / "traced")])
        values = tracer.end()
    finally:
        tracer.uninstall()
    assert code == 0 and capsys.readouterr() == untraced
    plain = sorted((tmp_path / "plain").iterdir())
    assert [p.name for p in plain] == sorted(p.name for p in (tmp_path / "traced").iterdir())
    for path in plain:
        assert (tmp_path / "traced" / path.name).read_bytes() == path.read_bytes()
    for name in ("evaluation.evaluate_corpus_s", "evaluation.write_csv_s", "svg.write_s"):
        assert values[name] > 0, name


def test_traced_losslab_changes_no_output_and_counts_the_loss_evaluations(tmp_path, capsys):
    """The default IoU and Focal-EIoU descents sit at a fixed point from
    iteration 0 and evaluate their loss once; the six other kinds evaluate it
    on each of their 501 rows: 6 * 501 + 2 = 3008. Only WIoUv3 reads
    boxes.iou, once a row."""
    assert main(["losslab", "--out-dir", str(tmp_path / "plain")]) == 0
    untraced = capsys.readouterr()
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        # The worker's order: the counters bind the counts that begin makes.
        tracer.begin(0)
        tracer.install()
        code = main(["losslab", "--out-dir", str(tmp_path / "traced")])
        values = tracer.end()
    finally:
        tracer.uninstall()
    assert code == 0 and capsys.readouterr() == untraced
    plain = sorted((tmp_path / "plain").iterdir())
    assert [p.name for p in plain] == sorted(p.name for p in (tmp_path / "traced").iterdir())
    for path in plain:
        assert (tmp_path / "traced" / path.name).read_bytes() == path.read_bytes()
    for kind in tracing.LOSS_KINDS:
        assert values[f"losses.{kind}.simulate_s"] > 0, kind
    assert values["losses.evaluate_loss_calls"] == 3008
    assert values["boxes.losses_calls"] == 501


def test_a_patch_of_a_home_module_reaches_the_cli_once_the_lazy_names_are_forgotten(tmp_path, monkeypatch):
    tracer = load_tracing().Tracer()
    try:
        tracer.begin(0)
        tracer.install()
        assert main(["losslab", "--kinds", "iou", "--out-dir", str(tmp_path / "traced")]) == 0
        tracer.end()
    finally:
        tracer.uninstall()
    forget_lazy_cli_names()
    assert not vars(trapeval.cli).keys() & trapeval.cli._LAZY.keys()
    calls = []
    simulate = losses.simulate_regression

    def spy(kind, *args, **kwargs):
        calls.append(kind)
        return simulate(kind, *args, **kwargs)

    monkeypatch.setattr(losses, "simulate_regression", spy)
    assert main(["losslab", "--kinds", "iou,diou", "--out-dir", str(tmp_path / "patched")]) == 0
    assert calls == [losses.LossKind.IOU, losses.LossKind.DIOU]
