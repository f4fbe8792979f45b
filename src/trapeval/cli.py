"""Command-line surface: evaluation runs, loss-descent studies, heatmap
emission, dataset splitting and architecture shape checks.

Data goes to files under --out-dir (and a few summary lines to stdout);
diagnostics go to stderr. Exit code 0 means no defined error occurred.
A command commits all of its files and its stdout, or none: see _Sink.
"""

from __future__ import annotations

import argparse
import errno
import importlib
import io
import math
import os
import sys
from contextlib import redirect_stdout
from functools import partial
from itertools import chain
from pathlib import Path

# OpenBLAS reads this once, when numpy loads it: its idle worker threads
# then sleep at once instead of spinning for a core while the main thread
# runs numpy or Python between GEMMs. Set here, before any command imports
# numpy. Outputs do not depend on it, and a value already in the
# environment wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

# Only what the parser and main need is imported here; each command imports
# what it runs when it runs, so no command loads another's modules.
from .errors import ConfigError, DivergedError, FormatError, TrapevalError  # noqa: E402

# Attributes of this module read from their home module, which the first
# access imports (PEP 562). cmd_gradcam and cmd_losslab call them as
# attributes of this module, so a caller that sets one (a tracer wrapping
# it) replaces what the command calls.
_LAZY = {
    "Graph": "graph",
    "parse_graph_text": "graph",
    "read_ppm": "ppm",
    "write_ppm": "ppm",
    "write_pgm": "ppm",
    "simulate_regression": "losses",
    "write_trajectory_csv": "losses",
    "focusing_coefficient": "losses",
}


def __getattr__(name: str):
    try:
        home = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{home}", __package__), name)


def _parse_box(text: str) -> BoundingBox:
    from .boxes import BoundingBox

    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"box must be x1,y1,x2,y2 (got {text!r})")
    try:
        box = BoundingBox(*(float(p) for p in parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    for name, value in zip(box._fields, box):
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"corner {name} {value} must be finite")
    return box.normalized()


def _parse_kinds(text: str) -> list[LossKind]:
    from .losses import LossKind

    if text == "all":
        return list(LossKind)
    kinds = []
    for token in text.split(","):
        token = token.strip()
        try:
            kinds.append(LossKind(token))
        except ValueError:
            valid = ",".join(k.value for k in LossKind)
            raise argparse.ArgumentTypeError(f"unknown loss kind {token!r} (valid: {valid},all)")
    return kinds


class _Sink(dict):
    """Final path -> staged path (``.name.tmp`` beside it) of each file one
    command writes, until main renames them all or removes them all."""

    def __init__(self, out_dir: "str | None"):
        self.out_dir = out_dir

    def __call__(self, name: str) -> Path:
        if self.out_dir is not None:  # created at the first file
            Path(self.out_dir).mkdir(parents=True, exist_ok=True)
        final = Path(self.out_dir or "", name)
        if final.is_dir():  # the one rename that could fail after a write
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(final))
        self[final] = final.with_name(f".{final.name}.tmp")
        return self[final]


def cmd_shapes(args, out: _Sink) -> int:
    from .graph import build_graph, check_reference_shapes, write_graph_text

    spec = build_graph(args.variant, args.size, num_categories=args.categories, seed=args.seed)
    _, rows = spec.propagate_shapes()
    if args.check and args.size != 640:
        raise ConfigError("--check applies to the reference 640 input")
    for row in rows:
        note = f"  # {row.note}" if row.note else ""
        print(f"{row.name:8s} {row.kind:12s} {row.dims_text()}{note}")
    if args.emit:
        with open(out(args.emit), "w", encoding="utf-8") as stream:
            write_graph_text(spec, stream)
        print(f"wrote graph description to {args.emit}", file=sys.stderr)
    if args.check:
        problems = check_reference_shapes(spec, args.variant)
        for problem in problems:
            print(f"shape mismatch: {problem}", file=sys.stderr)
        if problems:
            return 1
        print("shape check passed", file=sys.stderr)
    return 0


def cmd_losslab(args, out: _Sink) -> int:
    from .boxes import BoundingBox
    from .losses import LossKind, LossParams, check_descent
    from .svg import LineChart

    cli = sys.modules[__name__]  # the _LAZY names, as set on this module
    # The parser leaves a parameter not given as None: LossParams holds the defaults.
    given = {"gamma": args.gamma, "alpha": args.alpha, "delta": args.delta}
    params = LossParams(**{k: v for k, v in given.items() if v is not None})
    check_descent(args.step, args.iters)
    # The curve checks alpha and delta over beta 0-10 before anything is written.
    betas = [i / 100.0 for i in range(0, 1001)]
    focusing = cli.focusing_coefficient  # each lookup runs the module __getattr__
    values = [focusing(b, params) for b in betas]
    kinds = list(LossKind) if args.kinds is None else args.kinds
    start = BoundingBox(0.0, 0.0, 1.0, 1.0) if args.start is None else args.start
    gt = BoundingBox(2.0, 2.0, 3.0, 3.0) if args.gt is None else args.gt
    # Every descent runs before anything is written, so an error in any kind
    # leaves no output; a diverged kind is only left out.
    trajectories = []
    for kind in kinds:
        try:
            trajectories.append(
                cli.simulate_regression(kind, start, gt, step=args.step, iters=args.iters, params=params)
            )
        except DivergedError as exc:
            print(f"{kind.value}: diverged at iteration {exc.iteration}", file=sys.stderr)
    chart = LineChart("loss vs iteration", "iteration", "loss")
    for trajectory in trajectories:
        kind = trajectory.kind
        with open(out(f"trajectory_{kind.value}.csv"), "w", encoding="utf-8", newline="") as stream:
            cli.write_trajectory_csv(trajectory, stream)
        rows = trajectory.rows
        chart.add_series(kind.value, [float(r.iteration) for r in rows], [r.loss for r in rows])
        print(f"{kind.value},{rows[-1].loss:.12g},{rows[-1].iou:.12g},{rows[-1].center_dist:.12g}")
    chart.write(out("loss_curves.svg"))

    focus = LineChart("focusing coefficient r(beta)", "beta", "r")
    focus.add_series("r", betas, values)
    peak = 1.0 / math.log(params.alpha)
    focus.add_vline(peak, f"beta*={peak:.4g}")
    focus.write(out("focusing_curve.svg"))
    with open(out("focusing_curve.csv"), "w", encoding="utf-8") as stream:
        stream.write(f"# gain peaks at beta = 1/ln(alpha) = {peak:.12g}\nbeta,r\n")
        stream.write("%.12g,%.12g\n" * len(betas) % tuple(chain.from_iterable(zip(betas, values))))
    return 1 if len(trajectories) < len(kinds) else 0


def cmd_eval(args, out: _Sink) -> int:
    from . import dataset as ds
    from . import evaluation as ev
    from .svg import LineChart

    # The parser leaves a threshold not given as None: MatchConfig holds the defaults.
    given = {"iou_threshold": args.iou_thresh, "confidence_threshold": args.conf_thresh}
    config = ev.MatchConfig(**{k: v for k, v in given.items() if v is not None})
    try:
        with open(args.detections, "r", encoding="utf-8", newline="") as stream:
            detections = ev.read_detection_columns(stream)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{args.detections}: not UTF-8 ({exc})") from exc
    annotations = ds.read_annotation_columns(args.annotations)
    ground_truths = ev.BoxColumns.from_annotations(annotations)
    categories = sorted(annotations.categories) or None
    metrics = ev.evaluate_corpus(detections, ground_truths, config, categories)

    with open(out("metrics.csv"), "w", encoding="utf-8", newline="") as stream:
        ev.write_metrics_csv(metrics, stream)
    with open(out("ap_modes.csv"), "w", encoding="utf-8", newline="") as stream:
        ev.write_ap_modes_csv(metrics, stream)
    with open(out("confusion_matrix.csv"), "w", encoding="utf-8", newline="") as stream:
        metrics.confusion.write_csv(stream)

    overlay_chart = LineChart("PR curves (IoU 0.5)", "recall", "precision")
    for curve in metrics.pr_curves:
        cat = curve.category_id
        xs = [0.0, *curve.recall]
        ys = [1.0, *curve.precision]
        chart = LineChart(f"PR curve category {cat} (IoU 0.5)", "recall", "precision")
        chart.add_series(f"cat {cat}", xs, ys)
        chart.write(out(f"pr_curve_cat{cat}.svg"))
        overlay_chart.add_series(f"cat {cat}", xs, ys)
    overlay_chart.write(out("pr_curves_all.svg"))

    print(f"mAP50,{metrics.map50:.12g}")
    print(f"mAP50-95,{metrics.map50_95:.12g}")
    return 0


def cmd_gradcam(args, out: _Sink) -> int:
    from . import gradcam as gc
    from .graph import ScoreSelector

    cli = sys.modules[__name__]  # the _LAZY names, as set on this module
    gc.check_alpha(args.alpha_overlay)
    try:
        with open(args.graph, "r", encoding="utf-8") as stream:
            spec = cli.parse_graph_text(stream)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{args.graph}: not UTF-8 ({exc})") from exc
    image = cli.read_ppm(args.image)
    graph = cli.Graph(spec)
    selector = ScoreSelector(category=args.category, scale=args.scale)
    selector.check(graph)
    run = graph.forward(image, target=args.layer)
    pinned, score = gc.pin_selector(run, args.layer, selector)
    heat = gc.gradcam_heatmap(run, args.layer, pinned)
    colors = gc.colorize(heat)
    cli.write_ppm(colors, out("heatmap.ppm"))
    cli.write_ppm(gc.overlay(image, colors, args.alpha_overlay), out("overlay.ppm"))
    if args.pgm:
        cli.write_pgm(heat.data * 255.0, out("heatmap.pgm"))
    print(f"score,{score:.12g}")
    return 0


def cmd_split(args, out: _Sink) -> int:
    from . import dataset as ds

    # Every argument is checked before the annotation file is read.
    ds.check_val_fraction(args.val_fraction)
    make_config = partial(
        ds.SplitConfig, cis_val_fraction=args.val_fraction, seed=args.seed, day_basis=args.day_basis
    )
    config = None
    if args.trans_test:
        try:
            trans_test = tuple(int(t) for t in args.trans_test.split(","))
        except ValueError as exc:
            raise ConfigError(
                f"--trans-test {args.trans_test!r} must be a comma list of integer locations"
            ) from exc
        if args.trans_val is None:
            raise ConfigError("--trans-val is required with --trans-test")
        config = make_config(trans_test, args.trans_val)
    elif args.trans_val is not None:
        raise ConfigError("--trans-test is required with --trans-val")
    rows = ds.nonempty_rows(read := ds.read_annotation_columns(args.annotations))
    if config is None:
        import random

        picked = random.Random(args.seed).sample(ds.split_locations(rows), 10)
        trans_test, trans_val = tuple(picked[:9]), picked[9]
        print(
            f"picked trans test locations {sorted(trans_test)} and validation "
            f"location {trans_val}",
            file=sys.stderr,
        )
        config = make_config(trans_test, trans_val)
    result = ds.split_cis_trans(rows, config)
    problems = ds.verify_split(result)
    if problems:
        for problem in problems:
            print(f"invariant violation: {problem}", file=sys.stderr)
        return 1
    for name, part in result.all_parts().items():
        ds.write_annotation_rows(part, read, out(f"{name}.json"))
    expected = ds.REFERENCE_SPLIT_COUNTS if args.check_reference_counts else None
    report = ds.split_report(result, expected)
    out("report.csv").write_text(report, encoding="utf-8")
    sys.stdout.write(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trapeval",
        description="box-loss studies, detection metrics, heatmaps and dataset splits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate detections against annotations")
    p_eval.add_argument("detections", help="detections CSV")
    p_eval.add_argument("annotations", help="annotations JSON")
    p_eval.add_argument("--iou-thresh", type=float, default=None)
    p_eval.add_argument("--conf-thresh", type=float, default=None)
    p_eval.add_argument("--out-dir", default="out")
    p_eval.set_defaults(func=cmd_eval)

    p_loss = sub.add_parser("losslab", help="gradient-descent trajectories per loss kind")
    p_loss.add_argument("--kinds", type=_parse_kinds, default=None)
    p_loss.add_argument("--start", type=_parse_box, default=None)
    p_loss.add_argument("--gt", type=_parse_box, default=None)
    p_loss.add_argument("--step", type=float, default=0.01)
    p_loss.add_argument("--iters", type=int, default=500)
    p_loss.add_argument("--gamma", type=float, default=None)
    p_loss.add_argument("--alpha", type=float, default=None)
    p_loss.add_argument("--delta", type=float, default=None)
    p_loss.add_argument("--out-dir", default="out")
    p_loss.set_defaults(func=cmd_losslab)

    p_cam = sub.add_parser("gradcam", help="emit a score heatmap and overlay")
    p_cam.add_argument("graph", help="graph description file")
    p_cam.add_argument("image", help="input image (binary PPM)")
    p_cam.add_argument("--layer", required=True)
    p_cam.add_argument("--category", type=int, required=True)
    p_cam.add_argument("--scale", type=int, default=None)
    p_cam.add_argument("--alpha-overlay", type=float, default=0.5)
    p_cam.add_argument("--pgm", action="store_true", help="also write the raw heatmap as PGM")
    p_cam.add_argument("--out-dir", default="out")
    p_cam.set_defaults(func=cmd_gradcam)

    p_split = sub.add_parser("split", help="location/day split of an annotation file")
    p_split.add_argument("annotations")
    p_split.add_argument("--trans-test", default="", help="comma list of trans test locations")
    p_split.add_argument("--trans-val", type=int, default=None)
    p_split.add_argument("--val-fraction", type=float, default=0.05)
    p_split.add_argument("--seed", type=int, default=0)
    p_split.add_argument("--day-basis", choices=("day_of_month", "day_of_year"), default="day_of_month")
    p_split.add_argument("--check-reference-counts", action="store_true")
    p_split.add_argument("--out-dir", default="out")
    p_split.set_defaults(func=cmd_split)

    p_shapes = sub.add_parser("shapes", help="print per-layer output dimensions")
    p_shapes.add_argument("variant", choices=("baseline", "improved"))
    p_shapes.add_argument("--size", type=int, default=640)
    p_shapes.add_argument("--categories", type=int, default=16)
    p_shapes.add_argument("--seed", type=int, default=0)
    p_shapes.add_argument("--check", action="store_true")
    p_shapes.add_argument("--emit", default="", help="write the graph description file")
    p_shapes.set_defaults(func=cmd_shapes)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out, stdout = _Sink(getattr(args, "out_dir", None)), io.StringIO()
    try:
        try:
            with redirect_stdout(stdout):
                code = args.func(args, out)
            for final, staged in out.items():
                os.replace(staged, final)
        except BaseException:
            for staged in out.values():
                staged.unlink(missing_ok=True)
            raise
    except (TrapevalError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the bytes and the shape; Python's own is bare.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    sys.stdout.write(stdout.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
