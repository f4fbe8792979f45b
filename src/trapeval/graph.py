"""Declarative layer graphs: the baseline and attention-augmented detector
topologies, shape propagation, deterministic forward evaluation with
per-layer activation capture, and reverse-mode gradients from a head score
back to any recorded layer.

A graph is a list of named layers; every layer references earlier layers by
name. The two built-in topologies follow the conventional small-detector
layout: a strided-conv backbone with cross-stage blocks and a pooling
pyramid, an FPN/PAN neck, and a decoupled per-scale head stub. The improved
variant inserts a global attention block right before the pooling pyramid
and fuses the first cross-stage output (layer 2) into the neck through an
extra high-resolution scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Callable, Mapping

import numpy as np

from . import nn
from .errors import FormatError, GraphError, ShapeError
from .tensor import ShapeSpec, Tensor3, conv_output_dim

BACKBONE_WIDTHS = (32, 64, 128, 256, 512)
BACKBONE_DEPTHS = (1, 2, 2, 1)
DEFAULT_CATEGORIES = 16

Shape = tuple[int, int, int]  # (C, H, W)


@dataclass(frozen=True)
class LayerSpec:
    name: str
    kind: str
    inputs: tuple[str, ...] = ()
    params: Mapping[str, int] = field(default_factory=dict)
    seed: int = 0

    def param(self, key: str) -> int:
        """The layer's value for ``key``, else its kind's default (a
        GraphSpec checks on construction that required ones are given)."""
        return self.params.get(key, LAYER_TABLE[self.kind].params[key].default)


@dataclass(frozen=True)
class ShapeRow:
    name: str
    kind: str
    shape: Shape
    note: str = ""

    def dims_text(self) -> str:
        c, h, w = self.shape
        return f"{h}x{w}x{c}"


# --- layer kinds ------------------------------------------------------------------

@dataclass(frozen=True)
class Param:
    """An integer layer parameter: default (None: required), inclusive range."""

    default: int | None = None
    low: int = 1
    high: int | None = None


@dataclass(frozen=True)
class LayerKind:
    """One layer kind: its input count (None: one or more), its parameters,
    its shape rule (layer, input shapes) -> (output shape or None when the
    layer has no single output, detail rows), which allocates nothing and
    raises every error the builder could, and its module builder over the
    same arguments, whose weights are drawn from the layer's seed only as
    they are read (None: no module)."""

    arity: int | None
    params: Mapping[str, Param]
    shape: Callable[[LayerSpec, list[Shape]], tuple[Shape | None, list[ShapeRow]]]
    build: Callable[[LayerSpec, list[Shape]], object] | None = None

    def validate(self, layer: LayerSpec) -> None:
        n = len(layer.inputs)
        if not (n > 0 if self.arity is None else n == self.arity):
            want = "one or more" if self.arity is None else self.arity
            raise GraphError(f"layer {layer.name}: {layer.kind} takes {want} input(s), got {n}")
        for key in layer.params:
            if key not in self.params:
                raise GraphError(f"layer {layer.name}: {layer.kind} has no parameter {key!r}")
        for key, p in self.params.items():
            value = layer.params.get(key, p.default)
            if value is None:
                raise GraphError(f"layer {layer.name}: missing parameter {key!r}")
            if value < p.low or (p.high is not None and value > p.high):
                valid = f">= {p.low}" if p.high is None else f"in {p.low}..{p.high}"
                raise GraphError(f"layer {layer.name}: {key}={value} must be {valid}")


def _conv_shape(layer: LayerSpec, shapes: list[Shape]):
    (_, h, w), = shapes
    spec = ShapeSpec(layer.param("kernel"), layer.param("stride"), layer.param("padding"))
    return (layer.param("out_channels"), conv_output_dim(h, spec), conv_output_dim(w, spec)), []


def _c2f_shape(layer: LayerSpec, shapes: list[Shape]):
    (_, h, w), = shapes
    out_c = layer.param("out_channels")
    if out_c % 2 != 0:
        raise ShapeError(f"c2f needs even channels, got {out_c}")
    return (out_c, h, w), []


def _sppf_shape(layer: LayerSpec, shapes: list[Shape]):
    (c, h, w), = shapes
    if layer.param("kernel") % 2 == 0:
        raise ShapeError(f"sppf needs an odd kernel, got {layer.param('kernel')}")
    return (c, h, w), [ShapeRow(layer.name, "sppf.concat", (4 * c, h, w), "pool concat")]


def _concat_shape(layer: LayerSpec, shapes: list[Shape]):
    base = shapes[0][1:]
    for ref, part in zip(layer.inputs, shapes):
        if part[1:] != base:
            raise ShapeError(f"concat inputs {layer.inputs[0]} {base} vs {ref} {part[1:]}")
    return (sum(p[0] for p in shapes), *base), []


def _gam_shape(layer: LayerSpec, shapes: list[Shape]):
    (c, h, w), = shapes
    rate = layer.param("rate")
    if c % 4 != 0 or c % rate != 0:
        raise ShapeError(f"channels {c} not divisible by 4 and rate {rate}")
    return (c, h, w), []


def _detect_shape(layer: LayerSpec, shapes: list[Shape]):
    rows = []
    for i, (ref, (_, h, w)) in enumerate(zip(layer.inputs, shapes)):
        for tag, c in (("box", 4), ("cls", layer.param("categories"))):
            rows.append(ShapeRow(layer.name, f"detect.{tag}{i}", (c, h, w), f"from {ref}"))
    return None, rows


def _build_detect(layer: LayerSpec, shapes: list[Shape]) -> list[nn.HeadBranch]:
    """One branch per scale, all taking from one stream in scale order."""
    stream = nn.Stream(layer.seed)
    return [nn.HeadBranch(c, layer.param("categories"), seed=stream) for c, _, _ in shapes]


LAYER_TABLE: dict[str, LayerKind] = {
    "input": LayerKind(
        0, {"channels": Param(), "height": Param(), "width": Param()},
        lambda l, s: ((l.param("channels"), l.param("height"), l.param("width")), []),
    ),
    "conv": LayerKind(
        1,
        {"out_channels": Param(), "kernel": Param(3), "stride": Param(1),
         "padding": Param(1, low=0), "act": Param(1, low=0, high=1)},
        _conv_shape,
        lambda l, s: nn.Conv(
            s[0][0], l.param("out_channels"), l.param("kernel"), l.param("stride"),
            l.param("padding"), act=bool(l.param("act")), seed=l.seed,
        ),
    ),
    "c2f": LayerKind(
        1, {"out_channels": Param(), "n": Param(1, low=0)}, _c2f_shape,
        lambda l, s: nn.C2f(s[0][0], l.param("out_channels"), l.param("n"), seed=l.seed),
    ),
    "sppf": LayerKind(
        1, {"kernel": Param(5)}, _sppf_shape,
        lambda l, s: nn.Sppf(s[0][0], l.param("kernel"), seed=l.seed),
    ),
    "upsample": LayerKind(
        1, {"factor": Param(2)},
        lambda l, s: ((s[0][0], s[0][1] * l.param("factor"), s[0][2] * l.param("factor")), []),
        lambda l, s: nn.Upsample(l.param("factor")),
    ),
    "concat": LayerKind(None, {}, _concat_shape, lambda l, s: nn.Concat()),
    "gam": LayerKind(
        1, {"rate": Param(4)}, _gam_shape,
        lambda l, s: nn.Gam(s[0][0], l.param("rate"), seed=l.seed),
    ),
    "detect": LayerKind(
        None, {"categories": Param(DEFAULT_CATEGORIES)}, _detect_shape, _build_detect
    ),
}


@dataclass(frozen=True)
class GraphSpec:
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        if not self.layers or self.layers[0].kind != "input":
            raise GraphError("first layer must be the input declaration")
        seen: set[str] = set()
        for index, layer in enumerate(self.layers):
            if layer.kind not in LAYER_TABLE:
                raise GraphError(f"layer {layer.name}: unknown kind {layer.kind!r}")
            kind = LAYER_TABLE[layer.kind]
            if index > 0 and kind.build is None:
                raise GraphError(f"layer {layer.name}: {layer.kind} may only be the first layer")
            if layer.name in seen:
                raise GraphError(f"duplicate layer name {layer.name!r}")
            for ref in layer.inputs:
                if ref not in seen:
                    raise GraphError(
                        f"layer {layer.name} references {ref!r} before definition"
                    )
            kind.validate(layer)
            seen.add(layer.name)
        # A run records the head's planes as "<detect>/cls<i>"; a layer may not share them.
        for head in [layer.name for layer in self.layers if layer.kind == "detect"]:
            for layer in self.layers:
                if layer.name.startswith(f"{head}/"):
                    raise GraphError(
                        f"layer {layer.name}: a name under {head}/ would shadow a plane of detect layer {head}"
                    )

    @property
    def input_shape(self) -> Shape:
        spec = self.layers[0]
        return (spec.param("channels"), spec.param("height"), spec.param("width"))

    def layer(self, name: str) -> LayerSpec:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise GraphError(f"no layer named {name!r}")

    def detect_layer(self) -> LayerSpec:
        detects = [l for l in self.layers if l.kind == "detect"]
        if len(detects) != 1:
            raise GraphError(f"expected exactly one detect layer, found {len(detects)}")
        return detects[0]

    def ancestors(self, name: str) -> set[str]:
        """Transitive input closure of a layer, including the layer itself.
        Inputs always precede their layer, so one backward sweep suffices."""
        closure = {self.layer(name).name}
        for layer in reversed(self.layers):
            if layer.name in closure:
                closure.update(layer.inputs)
        return closure

    def propagate_shapes(self) -> tuple[dict[str, Shape], list[ShapeRow]]:
        """Walk the layer list computing (C, H, W) per layer.

        Returns the shape map plus a display table that includes detail rows
        (pyramid-pool concat width, per-scale head grids).
        """
        shapes: dict[str, Shape] = {}
        rows: list[ShapeRow] = []
        for layer in self.layers:
            for ref in layer.inputs:
                if ref not in shapes:
                    raise GraphError(f"layer {layer.name}: input {ref!r} has no output tensor")
            try:
                rule = LAYER_TABLE[layer.kind].shape
                shape, detail = rule(layer, [shapes[ref] for ref in layer.inputs])
            except ShapeError as exc:
                raise ShapeError(f"layer {layer.name}: {exc}") from exc
            if shape is not None:
                shapes[layer.name] = shape
                detail = [*detail, ShapeRow(layer.name, layer.kind, shape)]
            for row in detail:  # numpy refuses more doubles in one array, allocating nothing
                if math.prod(row.shape) > np.iinfo(np.intp).max // 8:
                    raise ShapeError(f"layer {layer.name}: {row.kind} {row.shape} is too large for numpy")
            rows.extend(detail)
        return shapes, rows


# --- built-in topologies ------------------------------------------------------

def _layer_seed(graph_seed: int, index: int) -> int:
    return graph_seed * 1009 + index


def build_graph(
    variant: str,
    input_size: int,
    num_categories: int = DEFAULT_CATEGORIES,
    seed: int = 0,
) -> GraphSpec:
    """Construct the baseline or improved detector topology.

    ``input_size`` must be divisible by 32 (the deepest stride).
    """
    if variant not in ("baseline", "improved"):
        raise GraphError(f"unknown variant {variant!r}")
    if input_size % 32 != 0 or input_size <= 0:
        raise GraphError(f"input size {input_size} must be a positive multiple of 32")
    w, d = BACKBONE_WIDTHS, BACKBONE_DEPTHS

    layers: list[LayerSpec] = [
        LayerSpec("img", "input", (), {"channels": 3, "height": input_size, "width": input_size})
    ]
    counter = 0

    def add(kind: str, inputs: tuple[str, ...], **params: int) -> str:
        nonlocal counter
        name = f"l{counter}"
        layers.append(
            LayerSpec(name, kind, inputs, params, seed=_layer_seed(seed, counter))
        )
        counter += 1
        return name

    def conv(src: str, out_c: int) -> str:
        return add("conv", (src,), out_channels=out_c, kernel=3, stride=2, padding=1, act=1)

    # Backbone (stages P1..P5).
    p1 = conv("img", w[0])
    p2 = conv(p1, w[1])
    c2 = add("c2f", (p2,), out_channels=w[1], n=d[0])
    p3 = conv(c2, w[2])
    c4 = add("c2f", (p3,), out_channels=w[2], n=d[1])
    p4 = conv(c4, w[3])
    c6 = add("c2f", (p4,), out_channels=w[3], n=d[2])
    p5 = conv(c6, w[4])
    c8 = add("c2f", (p5,), out_channels=w[4], n=d[3])
    if variant == "improved":
        c8 = add("gam", (c8,), rate=4)
    sppf = add("sppf", (c8,), kernel=5)

    # FPN top-down path.
    up1 = add("upsample", (sppf,), factor=2)
    cat1 = add("concat", (up1, c6))
    mid_p4 = add("c2f", (cat1,), out_channels=w[3], n=1)
    up2 = add("upsample", (mid_p4,), factor=2)
    cat2 = add("concat", (up2, c4))
    mid_p3 = add("c2f", (cat2,), out_channels=w[2], n=1)

    if variant == "baseline":
        down1 = conv(mid_p3, w[2])
        cat3 = add("concat", (down1, mid_p4))
        out_p4 = add("c2f", (cat3,), out_channels=w[3], n=1)
        down2 = conv(out_p4, w[3])
        cat4 = add("concat", (down2, sppf))
        out_p5 = add("c2f", (cat4,), out_channels=w[4], n=1)
        scales = (mid_p3, out_p4, out_p5)
    else:
        # Extra high-resolution branch fusing the layer-2 features.
        up3 = add("upsample", (mid_p3,), factor=2)
        cat3 = add("concat", (up3, c2))
        out_p2 = add("c2f", (cat3,), out_channels=w[1], n=1)
        down1 = conv(out_p2, w[1])
        cat4 = add("concat", (down1, mid_p3))
        out_p3 = add("c2f", (cat4,), out_channels=w[2], n=1)
        down2 = conv(out_p3, w[2])
        cat5 = add("concat", (down2, mid_p4))
        out_p4 = add("c2f", (cat5,), out_channels=w[3], n=1)
        down3 = conv(out_p4, w[3])
        cat6 = add("concat", (down3, sppf))
        out_p5 = add("c2f", (cat6,), out_channels=w[4], n=1)
        scales = (out_p2, out_p3, out_p4, out_p5)

    layers.append(
        LayerSpec(
            f"l{counter}",
            "detect",
            scales,
            {"categories": num_categories},
            seed=_layer_seed(seed, counter),
        )
    )
    return GraphSpec(tuple(layers))


# Reference dimensions (C, H, W) for the 640-input backbone, used by the
# shape checker; the pooling pyramid widens to 4x channels before fusing.
REFERENCE_BACKBONE_640 = (
    ("l0", (32, 320, 320)),
    ("l1", (64, 160, 160)),
    ("l2", (64, 160, 160)),
    ("l3", (128, 80, 80)),
    ("l4", (128, 80, 80)),
    ("l5", (256, 40, 40)),
    ("l6", (256, 40, 40)),
    ("l7", (512, 20, 20)),
    ("l8", (512, 20, 20)),
)
REFERENCE_SPPF_CONCAT_640 = (2048, 20, 20)
REFERENCE_SPPF_OUT_640 = (512, 20, 20)
REFERENCE_GAM_640 = (512, 20, 20)


def check_reference_shapes(spec: GraphSpec, variant: str) -> list[str]:
    """Compare propagated shapes of a 640-input ``build_graph`` topology
    against the embedded reference table; returns human-readable mismatch
    lines (empty = pass)."""
    shapes, rows = spec.propagate_shapes()
    problems: list[str] = []

    def expect(name: str, want: tuple[int, int, int]):
        got = shapes.get(name)
        if got != want:
            problems.append(f"{name}: expected {want}, got {got}")

    for name, want in REFERENCE_BACKBONE_640:
        expect(name, want)
    concat = next(r.shape for r in rows if r.kind == "sppf.concat")
    if concat != REFERENCE_SPPF_CONCAT_640:
        problems.append(f"sppf concat: expected {REFERENCE_SPPF_CONCAT_640}, got {concat}")
    expect(next(l.name for l in spec.layers if l.kind == "sppf"), REFERENCE_SPPF_OUT_640)
    if variant == "improved":
        gam = next(l for l in spec.layers if l.kind == "gam")
        if shapes.get(gam.inputs[0]) != REFERENCE_GAM_640:
            problems.append(
                f"gam input: expected {REFERENCE_GAM_640}, got {shapes.get(gam.inputs[0])}"
            )
        expect(gam.name, REFERENCE_GAM_640)
    return problems


# --- text serialization --------------------------------------------------------

def write_graph_text(spec: GraphSpec, stream: IO[str]) -> None:
    """One layer per line: ``name kind key=value...``; '#' starts a comment."""
    stream.write("# trapeval graph description\n")
    for layer in spec.layers:
        parts = [layer.name, layer.kind]
        if layer.inputs:
            parts.append("in=" + ",".join(layer.inputs))
        for key in sorted(layer.params):
            parts.append(f"{key}={layer.params[key]}")
        if layer.seed != 0:
            parts.append(f"seed={layer.seed}")
        stream.write(" ".join(parts) + "\n")


def parse_graph_text(stream: IO[str]) -> GraphSpec:
    layers: list[LayerSpec] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise FormatError(f"line {lineno}: expected 'name kind ...', got {raw!r}")
        name, kind = tokens[0], tokens[1]
        inputs: tuple[str, ...] = ()
        params: dict[str, int] = {}
        seed = 0
        for token in tokens[2:]:
            if "=" not in token:
                raise FormatError(f"line {lineno}: expected key=value, got {token!r}")
            key, value = token.split("=", 1)
            if key == "in":
                inputs = tuple(v for v in value.split(",") if v)
            elif key == "seed":
                try:
                    seed = int(value)
                except ValueError:
                    raise FormatError(f"line {lineno}: bad seed {value!r}")
            else:
                try:
                    params[key] = int(value)
                except ValueError:
                    raise FormatError(f"line {lineno}: bad integer for {key}: {value!r}")
        layers.append(LayerSpec(name, kind, inputs, params, seed))
    try:
        return GraphSpec(tuple(layers))
    except GraphError as exc:
        raise FormatError(str(exc)) from exc


# --- instantiated graph ---------------------------------------------------------

@dataclass(frozen=True)
class GraphRun:
    """Forward results: named activations, the head's class planes among
    them (``Graph.planes``), and per-layer caches for the backward pass. A
    run with a ``target`` is lean (see ``Graph.forward``): it serves one
    backward pass, to that target."""

    graph: "Graph"
    activations: Mapping[str, np.ndarray]
    caches: Mapping[str, object]
    target: str | None = None


@dataclass(frozen=True)
class ScoreSelector:
    """Picks one scalar from the head: a category logit at a cell. With no
    explicit cell (and/or scale) the maximum logit for the category wins."""

    category: int
    scale: int | None = None
    cell: tuple[int, int] | None = None

    def check(self, graph: "Graph") -> None:
        """Raise GraphError unless the category, and the scale if given,
        exist in the graph's head; needs no run."""
        detect = graph.detect_spec
        n_cat = detect.param("categories")
        if not 0 <= self.category < n_cat:
            raise GraphError(f"category {self.category} outside 0..{n_cat - 1}")
        if self.scale is not None and not 0 <= self.scale < len(detect.inputs):
            raise GraphError(f"scale {self.scale} outside 0..{len(detect.inputs) - 1}")

    def resolve(self, run: "GraphRun", layer: str | None = None) -> tuple[int, int, int, float]:
        """The scale, cell and value of the selected logit. An open scale
        ranges over every head scale, or with a ``layer`` over the scales
        it can influence: those whose input path holds it, or whose class
        plane it is. Ties go to the first scale, then the first cell."""
        graph = run.graph
        planes = graph.planes
        scales = range(len(planes)) if self.scale is None else (self.scale,)
        if self.scale is None and layer is not None:
            inputs = graph.detect_spec.inputs
            scales = [i for i in scales if layer == planes[i] or layer in graph.spec.ancestors(inputs[i])]
            if not scales:
                raise GraphError(f"layer {layer!r} is not an ancestor of any head scale")
        self.check(graph)
        best: tuple[float, int, int, int] | None = None
        for si in scales:
            plane = run.activations[planes[si]][self.category]
            if self.cell is not None:
                cy, cx = self.cell
                if not (0 <= cy < plane.shape[0] and 0 <= cx < plane.shape[1]):
                    raise GraphError(f"cell {self.cell} outside head grid {plane.shape}")
            else:
                cy, cx = divmod(int(np.argmax(plane)), plane.shape[1])
            if best is None or plane[cy, cx] > best[0]:
                best = (plane[cy, cx], si, cy, cx)
        value, si, cy, cx = best  # type: ignore[misc]
        return si, cy, cx, float(value)


class Graph:
    """A GraphSpec whose weights are drawn on demand: runs forward and
    reverse passes. Each layer draws its weights from its own seed, so a
    draw repeated at any time gives the same bytes."""

    def __init__(self, spec: GraphSpec):
        self.spec = spec
        shapes, _ = spec.propagate_shapes()
        detect = self.detect_spec = spec.detect_layer()
        # The head class planes' names, in scale order.
        self.planes = tuple(f"{detect.name}/cls{i}" for i in range(len(detect.inputs)))
        # The shape of every array a run records: class planes and layer outputs.
        self.shapes = {
            plane: (detect.param("categories"), *shapes[ref][1:])
            for plane, ref in zip(self.planes, detect.inputs)
        } | shapes

    @cached_property
    def modules(self) -> dict[str, object]:
        """Every layer's module, built on first use and kept; every run
        reads it. Building draws no weight: each op draws the tensor it
        reads just before use and drops it after."""
        return {
            layer.name: LAYER_TABLE[layer.kind].build(layer, [self.shapes[r] for r in layer.inputs])
            for layer in self.spec.layers[1:]
        }

    def _first_cached(self, target: str) -> int:
        """Index of the first layer whose cache a backward pass to ``target``
        reads: the one after the target layer, or past the end for a head
        class plane, which the pass reaches without any."""
        detect = self.detect_spec
        if target in self.planes:
            return len(self.spec.layers)
        if target in {f"{detect.name}/box{i}" for i in range(len(self.planes))}:
            raise GraphError(f"box plane {target!r} gets no gradient from a class score")
        if target == detect.name or target.startswith(f"{detect.name}/"):
            raise GraphError(
                f"{target!r} is not a head class plane ({detect.name} has cls0..cls{len(detect.inputs) - 1})"
            )
        return 1 + self.spec.layers.index(self.spec.layer(target))

    def _check_overrides(self, overrides: Mapping[str, np.ndarray]) -> None:
        """Each key must name an array a run records, with its propagated
        shape."""
        for key, value in overrides.items():
            shape = self.shapes.get(key)
            if shape is None:
                raise GraphError(
                    f"override {key!r} names neither a layer output nor a head class plane"
                )
            if np.shape(value) != shape:
                raise ShapeError(
                    f"override {key!r} has shape {np.shape(value)}, "
                    f"not the propagated shape {shape}"
                )

    def forward(
        self,
        image: Tensor3,
        overrides: Mapping[str, np.ndarray] | None = None,
        target: str | None = None,
    ) -> GraphRun:
        """Run every layer of ``modules`` on ``image``, recording each
        layer's output and each head class plane (``planes``) in the run's
        ``activations``; ``overrides`` replace any of them as it is
        recorded. Each override is checked for its name and shape before
        anything runs.

        Without a ``target`` the run keeps every activation and cache. With
        one (a layer name, or a head class plane such as ``l29/cls0``) the
        run is lean: it keeps only what one backward pass to the target
        reads: the caches of the layers after the target (none for a head
        plane), the target's activation and the class planes. Every other
        activation is dropped once its last consumer has run.
        """
        lean = target is not None
        first_cached = self._first_cached(target) if lean else 0
        if image.shape != self.spec.input_shape:
            raise ShapeError(
                f"image shape {image.shape} != graph input {self.spec.input_shape}"
            )
        overrides = overrides or {}
        self._check_overrides(overrides)
        input_name = self.spec.layers[0].name
        values: dict[str, np.ndarray] = {input_name: image.data}
        if input_name in overrides:
            values[input_name] = np.asarray(overrides[input_name], dtype=np.float64)
        caches: dict[str, object] = {}
        detect_name = self.detect_spec.name
        last_use = {ref: i for i, layer in enumerate(self.spec.layers) for ref in layer.inputs}

        def record(key: str, arr: np.ndarray) -> np.ndarray:
            if key in overrides:
                arr = np.asarray(overrides[key], dtype=np.float64)
            if not np.isfinite(arr).all():
                raise GraphError(f"non-finite activation in layer {key}")
            values[key] = arr
            return arr

        for index, layer in enumerate(self.spec.layers[1:], start=1):
            module = self.modules[layer.name]
            if layer.name == detect_name:
                cache = []
                for plane, ref, branch in zip(self.planes, layer.inputs, module):
                    cls, branch_cache = branch.forward(values[ref])
                    record(plane, cls)
                    cache.append(branch_cache)
            else:
                xs = [values[ref] for ref in layer.inputs]
                out, cache = module.forward(xs[0] if LAYER_TABLE[layer.kind].arity == 1 else xs)
                record(layer.name, out)
            if index >= first_cached:
                caches[layer.name] = cache
            if lean:
                for name in (*layer.inputs, layer.name):
                    if last_use.get(name, index) == index and name != target:
                        values.pop(name, None)
        return GraphRun(self, values, caches, target)

    def backward_to_layer(
        self, run: GraphRun, selector: ScoreSelector, layer_name: str
    ) -> Tensor3:
        """Gradient of the selected head score with respect to the named
        layer's recorded activation; an open selector resolves among the
        scales the layer can influence.

        On a lean run (one with a ``target``) only ``layer_name == target``
        is served, and the pass consumes the run's caches: first it drops
        those of the layers off the selected scale's path, then each
        layer's as it visits the layer. Every check runs before any cache
        is touched."""
        si, cy, cx, _ = selector.resolve(run, layer_name)
        if run.target is not None and layer_name != run.target:
            raise GraphError(
                f"run was recorded for target {run.target!r}; "
                f"run forward with target {layer_name!r} for its gradient"
            )
        if layer_name not in run.activations:
            raise GraphError(f"unknown layer {layer_name!r}")
        seed = np.zeros_like(run.activations[self.planes[si]])
        seed[selector.category, cy, cx] = 1.0
        if layer_name == self.planes[si]:
            return Tensor3(seed)
        detect_name = self.detect_spec.name
        source = self.detect_spec.inputs[si]
        path = self.spec.ancestors(source)
        if layer_name not in path:
            raise GraphError(
                f"layer {layer_name!r} is not an ancestor of the selected score "
                f"(scale {si} fed by {source})"
            )
        lean = run.target is not None
        if lean and detect_name not in run.caches:
            raise GraphError(
                f"run for target {run.target!r} was consumed by an earlier backward pass; "
                "run forward again"
            )
        take = run.caches.pop if lean else run.caches.__getitem__
        if lean:
            for name in run.caches.keys() - path - {detect_name}:
                del run.caches[name]

        # The other scales' head caches go with the list.
        grads = {source: self.modules[detect_name][si].backward(seed, take(detect_name)[si])}
        for layer in reversed(self.spec.layers[1:]):
            if layer.name == layer_name:
                break
            if layer.name not in grads:
                continue
            upstream = self.modules[layer.name].backward(grads.pop(layer.name), take(layer.name))
            parts = [upstream] if LAYER_TABLE[layer.kind].arity == 1 else upstream
            for ref, d in zip(layer.inputs, parts):
                grads[ref] = grads[ref] + d if ref in grads else d
        return Tensor3(grads[layer_name])
