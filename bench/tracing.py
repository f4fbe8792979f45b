"""Outside-in tracing of one trapeval CLI operation.

The tracer replaces the public names that trapeval's own code looks up at
call time (module attributes such as ``trapeval.evaluation.iou`` or
``trapeval.nn.conv2d_forward``, two class methods, and the per-instance
``forward``/``backward`` of every module in ``Graph.modules``) with wrappers
that record spans or count calls. Nothing under ``src/`` changes, and
``uninstall`` puts every original back.

A span is ``[name, start, end, parent index, operation id]``. Spans stay in
memory until the run ends. A layer's self time is its span's duration minus
the durations of its direct child spans; because every span here nests
strictly (the operation runs on one Python thread), the self times of one
operation add up to its traced wall time.

Metrics whose unit is ``count``, ``GFLOP``, ``MiB`` or ``ratio`` are
computed, not timed: call counts, FLOPs from shapes, bytes from ``nbytes``
and file sizes. They must repeat exactly from one operation to the next.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

LOSS_KINDS = ("iou", "giou", "diou", "ciou", "eiou", "focal_eiou", "wiou_v1", "wiou_v3")
NN_KINDS = ("conv", "c2f", "sppf", "gam", "upsample", "concat", "detect")
MIB = float(1 << 20)

_TIMED = (
    ["cli.main"]
    + [
        f"evaluation.{stage}"
        for stage in (
            "read_detections_csv",
            "evaluate_corpus",
            "match_corpus",
            "ap50",
            "map_over_iou_range",
            "confusion_matrix",
            "pr_curve",
            "write_csv",
        )
    ]
    + [
        f"dataset.{stage}"
        for stage in (
            "parse_annotations",
            "filter_empty",
            "split_cis_trans",
            "verify_split",
            "write_annotations",
            "split_report",
        )
    ]
    + ["graph.parse_graph_text", "graph.init", "graph.forward", "graph.backward"]
    + [f"nn.{kind}.{way}" for kind in NN_KINDS for way in ("forward", "backward")]
    + ["tensor.conv2d_forward", "tensor.conv2d_backward_input", "tensor.maxpool2d"]
    + ["gradcam.pin_selector", "gradcam.heatmap", "gradcam.colorize", "gradcam.overlay"]
    + ["ppm.read", "ppm.write"]
    + [f"losses.{kind}.simulate" for kind in LOSS_KINDS]
    + ["losses.write_trajectory_csv", "losses.focusing_curve", "svg.write"]
)

# Computed per-operation values: name -> unit.
COMPUTED = {
    "evaluation.match_detections_calls": "count",
    "evaluation.iou_calls": "count",
    "evaluation.pairs": "count",
    "evaluation.iou_calls_per_pair": "ratio",
    "dataset.records": "count",
    "dataset.written_mib": "MiB",
    "graph.activation_mib": "MiB",
    "graph.cache_mib": "MiB",
    "graph.cache_read_mib": "MiB",
    "graph.cache_read_ratio": "ratio",
    "tensor.conv2d_forward_gflop": "GFLOP",
    "tensor.conv2d_backward_input_gflop": "GFLOP",
    "losses.evaluate_loss_calls": "count",
    "boxes.losses_calls": "count",
}

# Whole-operation wall times of the traced run, next to untraced operations
# of the same process; their difference is the tracing overhead.
OVERHEAD = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s")

PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in _TIMED},
    **COMPUTED,
    **{name: "s" for name in OVERHEAD},
}


def _buffers(obj: Any, out: dict[int, int]) -> None:
    """Distinct array buffers reachable from a cache: id -> bytes. Views
    count once, under the array that owns the memory."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        out[id(obj)] = obj.nbytes
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _buffers(item, out)
    elif isinstance(obj, dict):
        for item in obj.values():
            _buffers(item, out)


def _conv_gflop(weights: np.ndarray, out_hw: tuple[int, int]) -> float:
    c_out, c_in, k, _ = weights.shape
    return 2.0 * c_out * c_in * k * k * out_hw[0] * out_hw[1] / 1e9


class Tracer:
    """Records spans and counts for the operations run between ``begin``
    and ``end``; ``install`` patches trapeval, ``uninstall`` restores it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.per_op: list[dict[str, float]] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._images: dict[str, list[int]] = {}
        self._layer_caches: dict[str, dict[int, int]] = {}
        self._activation_ids: set[int] = set()
        self._read_layers: set[str] = set()

    # --- span and counter wrappers ----------------------------------------

    def _parent_name(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else ""

    def timed(
        self,
        name: "str | Callable[..., str]",
        fn: Callable,
        when: Callable[[str], bool] | None = None,
        after: Callable[..., None] | None = None,
    ) -> Callable:
        """Wrap ``fn`` in a span. ``name`` may derive from the arguments;
        ``when`` sees the parent span's name and may skip the span;
        ``after`` sees the arguments and result once the span has closed."""
        tracer = self

        def wrapper(*args, **kwargs):
            if when is not None and not when(tracer._parent_name()):
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            index = len(tracer.spans)
            tracer.spans.append([label, time.perf_counter(), 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.op])
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[index][2] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        import trapeval.cli as cli
        import trapeval.dataset as ds
        import trapeval.evaluation as ev
        import trapeval.gradcam as gc
        import trapeval.losses as losses
        import trapeval.nn as nn
        import trapeval.svg as svg

        patch = self._patch
        t = self.timed

        # evaluation: stage spans; matching and IoU are only counted.
        patch(ev, "read_detections_csv", lambda f: t("evaluation.read_detections_csv", f, after=self._note_detections))
        patch(ev, "evaluate_corpus", lambda f: t("evaluation.evaluate_corpus", f))
        patch(ev, "match_corpus", lambda f: t("evaluation.match_corpus", f))
        patch(ev, "per_category_ap", lambda f: t("evaluation.ap50", f, when=lambda p: p != "evaluation.map_over_iou_range"))
        patch(ev, "map_over_iou_range", lambda f: t("evaluation.map_over_iou_range", f))
        patch(ev, "confusion_matrix", lambda f: t("evaluation.confusion_matrix", f))
        # Only the CLI's own PR pass; the AP passes call pr_curve inside their spans.
        patch(ev, "pr_curve", lambda f: t("evaluation.pr_curve", f, when=lambda p: p == "cli.main"))
        for attr in ("write_metrics_csv", "write_ap_modes_csv"):
            patch(ev, attr, lambda f: t("evaluation.write_csv", f))
        patch(ev.ConfusionMatrix, "write_csv", lambda f: t("evaluation.write_csv", f))
        patch(ev, "match_detections", lambda f: self.counted("evaluation.match_detections_calls", f))
        patch(ev, "iou", lambda f: self.counted("evaluation.iou_calls", f))

        # dataset
        patch(ds, "parse_annotations", lambda f: t("dataset.parse_annotations", f, after=self._note_records))
        for attr in ("filter_empty", "split_cis_trans", "verify_split", "split_report"):
            patch(ds, attr, lambda f, attr=attr: t(f"dataset.{attr}", f))
        patch(ds, "write_annotations", lambda f: t("dataset.write_annotations", f, after=self._note_written))

        # graph, nn and tensor
        patch(cli, "parse_graph_text", lambda f: t("graph.parse_graph_text", f))
        patch(cli, "Graph", self._graph_factory)
        patch(nn, "conv2d_forward", lambda f: t("tensor.conv2d_forward", f, after=self._note_conv_forward))
        patch(nn, "conv2d_backward_input", lambda f: t("tensor.conv2d_backward_input", f, after=self._note_conv_backward))
        patch(nn, "maxpool2d_forward", lambda f: t("tensor.maxpool2d", f))
        patch(nn, "maxpool2d_backward", lambda f: t("tensor.maxpool2d", f))

        # gradcam and ppm: the gradcam names are module attributes that both
        # the CLI and gradcam_heatmap/overlay resolve at call time.
        patch(gc, "pin_selector", lambda f: t("gradcam.pin_selector", f))
        patch(gc, "gradcam_heatmap", lambda f: t("gradcam.heatmap", f))
        patch(gc, "colorize", lambda f: t("gradcam.colorize", f))
        patch(gc, "overlay", lambda f: t("gradcam.overlay", f))
        patch(cli, "read_ppm", lambda f: t("ppm.read", f))
        patch(cli, "write_ppm", lambda f: t("ppm.write", f))
        patch(cli, "write_pgm", lambda f: t("ppm.write", f))

        # losses, boxes and svg
        patch(cli, "simulate_regression", lambda f: t(lambda kind, *a, **k: f"losses.{kind.value}.simulate", f))
        patch(losses, "evaluate_loss", lambda f: self.counted("losses.evaluate_loss_calls", f))
        patch(losses, "iou", lambda f: self.counted("boxes.losses_calls", f))
        patch(losses, "center_distance_sq", lambda f: self.counted("boxes.losses_calls", f))
        patch(cli, "write_trajectory_csv", lambda f: t("losses.write_trajectory_csv", f))
        patch(cli, "focusing_coefficient", lambda f: t("losses.focusing_curve", f))
        patch(svg.LineChart, "write", lambda f: t("svg.write", f))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- graph instrumentation ---------------------------------------------

    def _graph_factory(self, graph_class: type) -> Callable:
        def make(spec):
            graph = self.timed("graph.init", graph_class)(spec)
            self._instrument(graph)
            return graph

        return make

    def _instrument(self, graph) -> None:
        """Per-instance wrappers: the graph's passes and every top-level
        module, each module timed with its children under its layer kind."""
        graph.forward = self.timed("graph.forward", graph.forward, after=self._note_run)
        graph.backward_to_layer = self.timed("graph.backward", graph.backward_to_layer)
        for layer in graph.spec.layers[1:]:
            module = graph.modules[layer.name]
            branches = module if layer.kind == "detect" else [module]
            for i, branch in enumerate(branches):
                key = f"{layer.name}/{i}" if layer.kind == "detect" else layer.name
                branch.forward = self.timed(f"nn.{layer.kind}.forward", branch.forward)
                branch.backward = self.timed(
                    f"nn.{layer.kind}.backward", branch.backward, after=self._reader(key)
                )

    def _reader(self, key: str) -> Callable:
        def note(*_):
            self._read_layers.add(key)

        return note

    # --- computed counts ---------------------------------------------------

    def _note_detections(self, detections, *_args, **_kwargs) -> None:
        for d in detections:
            self._images.setdefault(d.image_id, [0, 0])[0] += 1

    def _note_records(self, dataset, *_args, **_kwargs) -> None:
        self.counts["dataset.records"] += len(dataset.records)
        for record in dataset.records:
            self._images.setdefault(record.image_id, [0, 0])[1] += len(record.annotations)

    def _note_written(self, _result, _dataset, path, *_args, **_kwargs) -> None:
        self.counts["dataset.written_mib"] += os.path.getsize(path) / MIB

    def _note_conv_forward(self, y, _x, weights, *_args, **_kwargs) -> None:
        self.counts["tensor.conv2d_forward_gflop"] += _conv_gflop(weights, y.shape[1:])

    def _note_conv_backward(self, _dx, dout, weights, *_args, **_kwargs) -> None:
        self.counts["tensor.conv2d_backward_input_gflop"] += _conv_gflop(weights, dout.shape[1:])

    def _note_run(self, run, *_args, **_kwargs) -> None:
        activations: dict[int, int] = {}
        _buffers(run.activations, activations)
        self._activation_ids = set(activations)
        self.counts["graph.activation_mib"] += sum(activations.values()) / MIB
        detect = run.graph.detect_spec.name
        for name, cache in run.caches.items():
            parts = {f"{name}/{i}": c for i, c in enumerate(cache)} if name == detect else {name: cache}
            for key, part in parts.items():
                found: dict[int, int] = {}
                _buffers(part, found)
                self._layer_caches[key] = {
                    i: n for i, n in found.items() if i not in self._activation_ids
                }

    def _cache_totals(self) -> tuple[float, float]:
        """MiB retained by caches beyond the activations, and the part of it
        held by layers whose backward ran."""
        retained: dict[int, int] = {}
        read: dict[int, int] = {}
        for key, buffers in self._layer_caches.items():
            retained.update(buffers)
            if key in self._read_layers:
                read.update(buffers)
        return sum(retained.values()) / MIB, sum(read.values()) / MIB

    # --- operations --------------------------------------------------------

    def begin(self, op: int) -> None:
        self.op = op
        self.counts = defaultdict(float)
        self._images = {}
        self._layer_caches = {}
        self._activation_ids = set()
        self._read_layers = set()

    def end(self) -> dict[str, float]:
        """Per-layer values of the operation begun last."""
        child = defaultdict(float)
        indices = [i for i, s in enumerate(self.spans) if s[4] == self.op]
        for i in indices:
            parent = self.spans[i][3]
            if parent >= 0:
                child[parent] += self.spans[i][2] - self.spans[i][1]
        values = {f"{name}_s": 0.0 for name in _TIMED}
        for i in indices:
            name, start, end = self.spans[i][:3]
            values[f"{name}_s"] += (end - start) - child[i]
        for name in COMPUTED:
            values[name] = float(self.counts.get(name, 0.0))
        pairs = sum(d * g for d, g in self._images.values())
        values["evaluation.pairs"] = float(pairs)
        values["evaluation.iou_calls_per_pair"] = values["evaluation.iou_calls"] / pairs if pairs else 0.0
        cache, cache_read = self._cache_totals()
        values["graph.cache_mib"] = cache
        values["graph.cache_read_mib"] = cache_read
        values["graph.cache_read_ratio"] = cache_read / cache if cache else 0.0
        self._layer_caches = {}
        self.per_op.append(values)
        return values

    def write_spans(self, path: Path) -> None:
        """One JSON line per span: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as stream:
            for name, start, end, parent, op in self.spans:
                stream.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
