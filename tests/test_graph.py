import io
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from trapeval import nn
from trapeval.errors import FormatError, GraphError, ShapeError, TrapevalError
from trapeval.gradcam import gradcam_heatmap
from trapeval.graph import (
    REFERENCE_BACKBONE_640,
    Graph,
    GraphSpec,
    LayerSpec,
    ScoreSelector,
    ShapeRow,
    build_graph,
    check_reference_shapes,
    parse_graph_text,
    write_graph_text,
)
from trapeval.tensor import Tensor3

from conftest import Drawn, mutants, weight_tensors


def tiny_spec(categories: int = 3, seed_base: int = 10) -> GraphSpec:
    return GraphSpec(
        (
            LayerSpec("img", "input", (), {"channels": 3, "height": 8, "width": 8}),
            LayerSpec(
                "c0",
                "conv",
                ("img",),
                {"out_channels": 8, "kernel": 3, "stride": 2, "padding": 1, "act": 1},
                seed=seed_base,
            ),
            LayerSpec("c1", "c2f", ("c0",), {"out_channels": 8, "n": 1}, seed=seed_base + 1),
            LayerSpec("g1", "gam", ("c1",), {"rate": 4}, seed=seed_base + 2),
            LayerSpec("s1", "sppf", ("g1",), {"kernel": 5}, seed=seed_base + 3),
            LayerSpec("det", "detect", ("s1",), {"categories": categories}, seed=seed_base + 4),
        )
    )


def two_scale_spec() -> GraphSpec:
    """A two-scale head: c1 lies only on the second scale's path."""
    return GraphSpec(
        (
            LayerSpec("img", "input", (), {"channels": 3, "height": 8, "width": 8}),
            LayerSpec("c0", "conv", ("img",), {"out_channels": 4, "kernel": 3, "stride": 2, "padding": 1, "act": 1}, seed=1),
            LayerSpec("c1", "conv", ("c0",), {"out_channels": 4, "kernel": 3, "stride": 2, "padding": 1, "act": 1}, seed=2),
            LayerSpec("det", "detect", ("c0", "c1"), {"categories": 2}, seed=3),
        )
    )


def tiny_image(seed: int = 0) -> Tensor3:
    rng = np.random.default_rng(seed)
    return Tensor3(rng.uniform(-1, 1, (3, 8, 8)))


# --- topology construction ---------------------------------------------------------

def test_baseline_640_matches_reference_dimensions():
    spec = build_graph("baseline", 640)
    assert check_reference_shapes(spec, "baseline") == []
    shapes, rows = spec.propagate_shapes()
    assert shapes["l0"] == (32, 320, 320)
    assert shapes["l9"] == (512, 20, 20)
    concat_row = next(r for r in rows if r.kind == "sppf.concat")
    assert concat_row.shape == (2048, 20, 20)
    # final feature layer before the head sits at index 21
    assert [l.name for l in spec.layers if l.kind == "c2f"][-1] == "l21"
    assert spec.detect_layer().name == "l22"


def test_improved_640_keeps_backbone_and_adds_attention():
    spec = build_graph("improved", 640)
    assert check_reference_shapes(spec, "improved") == []
    shapes, _ = spec.propagate_shapes()
    gam = next(l for l in spec.layers if l.kind == "gam")
    assert gam.name == "l9"
    assert shapes[gam.inputs[0]] == (512, 20, 20)
    assert shapes["l9"] == (512, 20, 20)
    assert [l.name for l in spec.layers if l.kind == "c2f"][-1] == "l28"
    assert spec.detect_layer().name == "l29"
    assert len(spec.detect_layer().inputs) == 4


def test_reference_check_names_each_shape_off_the_640_table():
    # At 64 every grid is a tenth of the reference one.
    problems = check_reference_shapes(build_graph("improved", 64), "improved")
    assert problems == [
        *(f"{name}: expected {(c, h, w)}, got {(c, h // 10, w // 10)}" for name, (c, h, w) in REFERENCE_BACKBONE_640),
        "sppf concat: expected (2048, 20, 20), got (2048, 2, 2)",
        "l10: expected (512, 20, 20), got (512, 2, 2)",
        "gam input: expected (512, 20, 20), got (512, 2, 2)",
        "l9: expected (512, 20, 20), got (512, 2, 2)",
    ]


def test_reference_check_names_a_missing_gam_layer():
    assert check_reference_shapes(build_graph("baseline", 640), "improved") == ["gam: no gam layer"]


def test_reference_check_names_a_missing_sppf_layer():
    backbone = build_graph("baseline", 640).layers[:10]  # img and l0-l8
    spec = GraphSpec((*backbone, LayerSpec("head", "detect", ("l8",), {"categories": 2})))
    assert check_reference_shapes(spec, "baseline") == ["sppf: no sppf layer"]
    assert check_reference_shapes(spec, "improved") == ["sppf: no sppf layer", "gam: no gam layer"]


def test_input_size_scales_all_dimensions():
    shapes640, _ = build_graph("baseline", 640).propagate_shapes()
    shapes64, _ = build_graph("baseline", 64).propagate_shapes()
    for name, (c, h, w) in shapes64.items():
        if name == "img":
            continue
        c640, h640, w640 = shapes640[name]
        assert (c, h * 10, w * 10) == (c640, h640, w640)


# Display rows of the built-in topologies, frozen from the per-kind shape code
# that the layer-kind table replaced: name, kind, channels, the stride s of a
# (size/s) x (size/s) grid, and the note, if any.
FROZEN_ROWS = {
    "baseline": """
img input 3 1
l0 conv 32 2
l1 conv 64 4
l2 c2f 64 4
l3 conv 128 8
l4 c2f 128 8
l5 conv 256 16
l6 c2f 256 16
l7 conv 512 32
l8 c2f 512 32
l9 sppf.concat 2048 32 pool concat
l9 sppf 512 32
l10 upsample 512 16
l11 concat 768 16
l12 c2f 256 16
l13 upsample 256 8
l14 concat 384 8
l15 c2f 128 8
l16 conv 128 16
l17 concat 384 16
l18 c2f 256 16
l19 conv 256 32
l20 concat 768 32
l21 c2f 512 32
l22 detect.box0 4 8 from l15
l22 detect.cls0 16 8 from l15
l22 detect.box1 4 16 from l18
l22 detect.cls1 16 16 from l18
l22 detect.box2 4 32 from l21
l22 detect.cls2 16 32 from l21
""",
    "improved": """
img input 3 1
l0 conv 32 2
l1 conv 64 4
l2 c2f 64 4
l3 conv 128 8
l4 c2f 128 8
l5 conv 256 16
l6 c2f 256 16
l7 conv 512 32
l8 c2f 512 32
l9 gam 512 32
l10 sppf.concat 2048 32 pool concat
l10 sppf 512 32
l11 upsample 512 16
l12 concat 768 16
l13 c2f 256 16
l14 upsample 256 8
l15 concat 384 8
l16 c2f 128 8
l17 upsample 128 4
l18 concat 192 4
l19 c2f 64 4
l20 conv 64 8
l21 concat 192 8
l22 c2f 128 8
l23 conv 128 16
l24 concat 384 16
l25 c2f 256 16
l26 conv 256 32
l27 concat 768 32
l28 c2f 512 32
l29 detect.box0 4 4 from l19
l29 detect.cls0 16 4 from l19
l29 detect.box1 4 8 from l22
l29 detect.cls1 16 8 from l22
l29 detect.box2 4 16 from l25
l29 detect.cls2 16 16 from l25
l29 detect.box3 4 32 from l28
l29 detect.cls3 16 32 from l28
""",
}


def frozen_rows(variant: str, size: int) -> list[ShapeRow]:
    rows = []
    for line in FROZEN_ROWS[variant].strip().splitlines():
        name, kind, channels, stride, *note = line.split()
        grid = size // int(stride)
        rows.append(ShapeRow(name, kind, (int(channels), grid, grid), " ".join(note)))
    return rows


@pytest.mark.parametrize("variant", ["baseline", "improved"])
@pytest.mark.parametrize("size", [64, 96])
def test_forward_shapes_equal_propagated_shapes(variant, size):
    spec = build_graph(variant, size)
    shapes, rows = spec.propagate_shapes()
    assert rows == frozen_rows(variant, size)
    run = Graph(spec).forward(Tensor3(np.zeros((3, size, size))))
    expected = dict(shapes)
    for row in rows:
        if row.kind.startswith("detect.cls"):
            expected[f"{row.name}/{row.kind.split('.')[1]}"] = row.shape
        elif row.kind == "sppf.concat":
            # the fuse conv's cached input is the pooled concat
            assert run.caches[row.name][1][0] == row.shape
    assert {name: value.shape for name, value in run.activations.items()} == expected


LAYER_DRAWS = {
    "conv": st.fixed_dictionaries({
        "out_channels": st.sampled_from((4, 8)), "kernel": st.integers(1, 4),
        "stride": st.integers(1, 3), "padding": st.integers(0, 2), "act": st.integers(0, 1),
    }),
    "c2f": st.fixed_dictionaries({"out_channels": st.sampled_from((4, 8)), "n": st.integers(0, 2)}),
    "sppf": st.fixed_dictionaries({"kernel": st.sampled_from((1, 3, 5))}),
    "upsample": st.fixed_dictionaries({"factor": st.integers(1, 3)}),
    "concat": st.just({}),
    "gam": st.fixed_dictionaries({"rate": st.sampled_from((1, 2, 4))}),
}


@given(
    size=st.tuples(st.integers(3, 9), st.integers(3, 9)),
    layers=st.lists(st.sampled_from(sorted(LAYER_DRAWS)).flatmap(
        lambda kind: st.tuples(st.just(kind), LAYER_DRAWS[kind])), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_every_layer_kind_records_its_propagated_shape(size, layers):
    """Graph.forward does not check an activation against its propagated
    shape, so each kind's module must give that shape for any parameters
    the spec accepts. A concat here joins the previous layer to itself."""
    h, w = size
    specs = [LayerSpec("img", "input", (), {"channels": 4, "height": h, "width": w})]
    for i, (kind, params) in enumerate(layers):
        ref = specs[-1].name
        specs.append(LayerSpec(f"l{i}", kind, (ref, ref) if kind == "concat" else (ref,), params, seed=i))
    specs.append(LayerSpec("det", "detect", (specs[-1].name,), {"categories": 2}, seed=9))
    try:
        graph = Graph(GraphSpec(tuple(specs)))
    except ShapeError:
        reject()
    run = graph.forward(Tensor3(np.random.default_rng(0).uniform(-1, 1, (4, h, w))))
    assert {name: value.shape for name, value in run.activations.items()} == graph.shapes


def test_build_graph_rejects_bad_sizes():
    with pytest.raises(GraphError):
        build_graph("baseline", 639)
    with pytest.raises(GraphError):
        build_graph("baseline", 0)
    with pytest.raises(GraphError):
        build_graph("tiny", 640)


def test_improved_head_grids_at_64():
    spec = build_graph("improved", 64, num_categories=4, seed=3)
    graph = Graph(spec)
    run = graph.forward(Tensor3(np.zeros((3, 64, 64))))
    grids = [run.activations[plane].shape[1:] for plane in graph.planes]
    assert grids == [(16, 16), (8, 8), (4, 4), (2, 2)]
    for scale in ((8, 8), (4, 4), (2, 2)):
        assert scale in grids
    assert all(run.activations[plane].shape[0] == 4 for plane in graph.planes)


def test_concat_mismatch_names_layer():
    spec = GraphSpec(
        (
            LayerSpec("img", "input", (), {"channels": 3, "height": 8, "width": 8}),
            LayerSpec("u", "upsample", ("img",), {"factor": 2}),
            LayerSpec("bad", "concat", ("u", "img")),
        )
    )
    with pytest.raises(ShapeError, match="bad"):
        spec.propagate_shapes()


def test_graph_spec_validation():
    with pytest.raises(GraphError):
        GraphSpec((LayerSpec("a", "conv", (), {}),))  # first must be input
    with pytest.raises(GraphError):
        GraphSpec(
            (
                LayerSpec("img", "input", (), {"channels": 3, "height": 8, "width": 8}),
                LayerSpec("x", "conv", ("missing",), {"out_channels": 4}),
            )
        )
    with pytest.raises(GraphError):
        GraphSpec(
            (
                LayerSpec("img", "input", (), {"channels": 3, "height": 8, "width": 8}),
                LayerSpec("img", "upsample", ("img",), {"factor": 2}),
            )
        )


# --- block behaviours ------------------------------------------------------------------

def test_c2f_zero_bottlenecks_reduce_to_split_and_fuse():
    block = nn.C2f(4, 4, n=2, seed=5)
    for bottleneck in block.bottlenecks:
        for conv in (bottleneck.conv1, bottleneck.conv2):
            conv.weights = Drawn(np.zeros(conv.weights.shape))
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 1, 1))
    out, _ = block.forward(x)
    # hand trace: bottlenecks pass their input through untouched (residual),
    # so the fuse conv sees [a, b, b, b]
    y, _ = block.cv1.forward(x)
    a, b = y[:2], y[2:]
    z = np.concatenate([a, b, b, b], axis=0)
    expected, _ = block.cv2.forward(z)
    assert np.allclose(out, expected)


def test_c2f_shape_preservation():
    block = nn.C2f(64, 64, n=1, seed=1)
    x = np.zeros((64, 10, 10))
    out, _ = block.forward(x)
    assert out.shape == (64, 10, 10)
    with pytest.raises(ShapeError):
        nn.C2f(8, 7, n=1, seed=1)


def test_sppf_constant_input_stays_constant_with_identity_fuse():
    block = nn.Sppf(2, seed=2)
    # identity-style fuse: each output channel averages its four pooled copies
    weights = np.zeros(block.fuse.weights.shape)
    block.fuse.act = False
    for c in range(2):
        for k in range(4):
            weights[c, c + 2 * k, 0, 0] = 0.25
    block.fuse.weights = Drawn(weights)
    x = np.full((2, 6, 6), 1.5)
    out, _ = block.forward(x)
    assert np.allclose(out, 1.5)


def test_gam_channel_attention_fixture_shapes():
    block = nn.GamChannelAttention(16, seed=3)
    x = np.random.default_rng(7).normal(size=(16, 2, 2))
    out, cache = block.forward(x)
    assert cache["permuted"].shape == (4, 16)
    assert cache["hidden"].shape == (4, 4)
    assert cache["l2"].shape == (4, 16)
    assert out.shape == (16, 2, 2)


def test_gam_channel_attention_zero_weights_halve_input():
    block = nn.GamChannelAttention(16, seed=-1)
    x = np.random.default_rng(8).normal(size=(16, 2, 2))
    out, _ = block.forward(x)
    assert np.allclose(out, 0.5 * x)


def test_gam_channel_attention_requires_divisible_channels():
    with pytest.raises(ShapeError):
        nn.GamChannelAttention(6, seed=0)


def test_gam_spatial_attention_zero_convs_halve_input():
    block = nn.GamSpatialAttention(8, rate=4, seed=-1)
    x = np.random.default_rng(9).normal(size=(8, 5, 5))
    out, cache = block.forward(x)
    assert np.allclose(out, 0.5 * x)
    assert np.all((cache["gate"] > 0) & (cache["gate"] < 1))
    with pytest.raises(ShapeError):
        nn.GamSpatialAttention(9, rate=4, seed=0)


def test_gam_saturated_gates_pass_input_through(monkeypatch):
    block = nn.Gam(8, rate=4, seed=-1)
    sigmoid = nn.sigmoid
    monkeypatch.setattr(nn, "sigmoid", lambda x: sigmoid(x + 20.0))  # sigmoid(20) ~ 1
    x = np.random.default_rng(10).normal(size=(8, 4, 4))
    out, _ = block.forward(x)
    assert np.allclose(out, x, atol=1e-6)


def test_gam_zero_input_stays_zero_and_preserves_shape():
    block = nn.Gam(512, rate=4, seed=4)
    x = np.zeros((512, 2, 2))
    out, _ = block.forward(x)
    assert out.shape == (512, 2, 2)
    assert np.all(out == 0.0)


# --- forward ---------------------------------------------------------------------------

def test_forward_zero_weights_zero_image_all_zero():
    spec = tiny_spec()
    graph = Graph(spec)
    for layer in spec.layers:
        if layer.kind in ("input",):
            continue
    zeroed = Graph(
        GraphSpec(
            tuple(
                LayerSpec(l.name, l.kind, l.inputs, l.params, seed=-1)
                if l.kind not in ("input", "upsample", "concat")
                else l
                for l in spec.layers
            )
        )
    )
    run = zeroed.forward(Tensor3(np.zeros((3, 8, 8))))
    for name, value in run.activations.items():
        assert np.all(value == 0.0), name


def test_forward_deterministic_across_graph_builds():
    image = tiny_image(4)
    run_a = Graph(tiny_spec()).forward(image)
    run_b = Graph(tiny_spec()).forward(image)
    for name in run_a.activations:
        assert np.array_equal(run_a.activations[name], run_b.activations[name])


def test_forward_validates_input_shape_and_finiteness():
    graph = Graph(tiny_spec())
    with pytest.raises(ShapeError):
        graph.forward(Tensor3(np.zeros((3, 4, 4))))
    with pytest.raises(GraphError, match="c1"):
        graph.forward(tiny_image(), overrides={"c1": np.full((8, 4, 4), np.nan)})


@pytest.mark.parametrize(
    "overrides,error,message",
    [
        ({"c9": np.zeros((8, 4, 4))}, GraphError, "override 'c9' names neither"),
        ({"c0": np.zeros((8, 4, 4)), "nope/cls0": 1}, GraphError, "override 'nope/cls0'"),
        ({"det": np.zeros((3, 4, 4))}, GraphError, "override 'det' names neither"),
        ({"det/cls1": np.zeros((3, 4, 4))}, GraphError, "override 'det/cls1' names neither"),
        ({"c1": np.zeros((1, 1, 1))}, ShapeError, "override 'c1' has shape (1, 1, 1), not the propagated shape (8, 4, 4)"),
        ({"img": np.zeros((3, 8))}, ShapeError, "override 'img' has shape (3, 8)"),
        ({"det/cls0": [[[0.0]]]}, ShapeError, "override 'det/cls0' has shape (1, 1, 1)"),
    ],
)
def test_forward_rejects_a_bad_override_before_any_compute(monkeypatch, overrides, error, message):
    graph = Graph(tiny_spec())

    def no_compute(*args, **kwargs):
        raise AssertionError("a weight was drawn or a conv ran before the overrides were checked")

    monkeypatch.setattr(nn, "_uniform_weights", no_compute)
    monkeypatch.setattr(nn, "conv2d_forward", no_compute)
    for target in (None, "c1"):
        with pytest.raises(error) as excinfo:
            graph.forward(tiny_image(), overrides=overrides, target=target)
        assert message in str(excinfo.value)


def test_an_override_of_the_input_runs_the_graph_on_it():
    graph = Graph(tiny_spec())
    given = graph.forward(tiny_image(1), overrides={"img": tiny_image(2).data})
    run = graph.forward(tiny_image(2))
    assert given.activations.keys() == run.activations.keys()
    for name, value in run.activations.items():
        assert (given.activations[name] == value).all(), name


def test_overrides_of_a_lean_run_name_what_it_records():
    graph = Graph(tiny_spec())
    for target in (None, "c1"):
        with pytest.raises(GraphError, match="override 'det/box0' names neither a layer output nor a head class plane"):
            graph.forward(tiny_image(), overrides={"det/box0": np.zeros((4, 4, 4))}, target=target)
    cls = np.full((3, 4, 4), 0.25)
    lean = graph.forward(tiny_image(), overrides={"det/cls0": cls}, target="c1")
    assert (lean.activations["det/cls0"] == cls).all()


def test_baseline_override_of_the_wrong_shape_names_the_layer():
    graph = Graph(build_graph("baseline", 64, seed=2))
    with pytest.raises(ShapeError, match=r"override 'l5' has shape \(1, 1, 1\), not the propagated shape \(256, 4, 4\)"):
        graph.forward(Tensor3(np.zeros((3, 64, 64))), overrides={"l5": np.zeros((1, 1, 1))})


# --- backward ---------------------------------------------------------------------------

def test_backward_identity_is_one_hot():
    graph = Graph(tiny_spec())
    run = graph.forward(tiny_image())
    selector = ScoreSelector(category=1, scale=0, cell=(2, 3))
    grad = graph.backward_to_layer(run, selector, "det/cls0").data
    assert grad.sum() == 1.0
    assert grad[1, 2, 3] == 1.0


def test_backward_gradient_shapes_match_activations():
    graph = Graph(tiny_spec())
    run = graph.forward(tiny_image())
    selector = ScoreSelector(category=0)
    for name in ("img", "c0", "c1", "g1", "s1"):
        grad = graph.backward_to_layer(run, selector, name)
        assert grad.shape == run.activations[name].shape


def test_backward_matches_finite_differences():
    graph = Graph(tiny_spec())
    image = tiny_image(11)
    run = graph.forward(image)
    selector = ScoreSelector(category=2, scale=0, cell=(1, 1))
    rng = np.random.default_rng(12)
    h = 1e-5
    for layer in ("c0", "c1", "g1"):
        grad = graph.backward_to_layer(run, selector, layer).data
        activation = run.activations[layer]
        for flat in rng.choice(activation.size, size=25, replace=False):
            ix = np.unravel_index(flat, activation.shape)
            hi, lo = activation.copy(), activation.copy()
            hi[ix] += h
            lo[ix] -= h
            v_hi = selector.resolve(graph.forward(image, overrides={layer: hi}))[3]
            v_lo = selector.resolve(graph.forward(image, overrides={layer: lo}))[3]
            fd = (v_hi - v_lo) / (2 * h)
            assert fd == pytest.approx(grad[ix], rel=1e-3, abs=1e-9)


def test_a_full_run_serves_any_selector_in_any_order_as_a_lean_run_does():
    graph = Graph(two_scale_spec())
    image = tiny_image(9)
    selectors = [ScoreSelector(1, 1, (0, 1)), ScoreSelector(0, 0, (3, 2)), ScoreSelector(1, 0, (0, 0))]
    lean = {s: graph.backward_to_layer(graph.forward(image, target="c0"), s, "c0").data for s in selectors}
    run = graph.forward(image)
    caches = dict(run.caches)
    for s in selectors + selectors[::-1]:
        assert (graph.backward_to_layer(run, s, "c0").data == lean[s]).all()
    assert run.caches.keys() == caches.keys()
    assert all(run.caches[name] is cache for name, cache in caches.items())


def test_backward_rejects_non_ancestors():
    spec = build_graph("baseline", 64, num_categories=3, seed=1)
    graph = Graph(spec)
    run = graph.forward(Tensor3(np.random.default_rng(14).uniform(-1, 1, (3, 64, 64))))
    # l21 feeds only the coarsest scale; scale 0 is fed by l15
    with pytest.raises(GraphError, match=r"'l21' is not an ancestor of the selected score \(scale 0 fed by l15\)"):
        graph.backward_to_layer(run, ScoreSelector(category=0, scale=0), "l21")
    with pytest.raises(GraphError):
        graph.backward_to_layer(run, ScoreSelector(category=0, scale=0), "l22/box0")
    with pytest.raises(GraphError):
        graph.backward_to_layer(run, ScoreSelector(category=0, scale=0), "ghost")


@pytest.mark.parametrize(
    "selector,message",
    [
        (ScoreSelector(0, 0, (-1, 0)), "cell (-1, 0) outside head grid (4, 4)"),
        (ScoreSelector(-1, 0, (0, 0)), "category -1 outside 0..2"),
        (ScoreSelector(99, 0, (0, 0)), "category 99 outside 0..2"),
        (ScoreSelector(0, 0, (0, 4)), "cell (0, 4) outside head grid (4, 4)"),
        (ScoreSelector(0, 1, (0, 0)), "scale 1 outside 0..0"),
    ],
)
def test_backward_rejects_a_seed_outside_the_head_before_using_the_run(selector, message):
    graph = Graph(tiny_spec(categories=3))
    for target in (None, "c1"):
        run = graph.forward(tiny_image(), target=target)
        caches = dict(run.caches)
        with pytest.raises(GraphError) as excinfo:
            graph.backward_to_layer(run, selector, "c1")
        assert str(excinfo.value) == message
        assert run.caches.keys() == caches.keys()
        assert all(run.caches[name] is cache for name, cache in caches.items())
        graph.backward_to_layer(run, ScoreSelector(2, 0, (3, 3)), "c1")


@pytest.mark.parametrize(
    "draws,layer", [(lambda shape: True, "det"), (lambda shape: shape[-1] == 7, "g1")], ids=["head", "gam"]
)
@pytest.mark.parametrize("message", ["Unable to allocate 216. TiB", ""])
def test_a_memory_error_in_a_backward_names_its_layer(monkeypatch, draws, layer, message):
    """The head branch's backward and each layer's after it; GAM's spatial
    gate is the only 7x7 draw."""
    graph = Graph(tiny_spec())
    run = graph.forward(tiny_image())
    draw = nn._uniform_weights

    def short_of_memory(rng, fan_in, shape):
        if draws(shape):
            raise MemoryError(message)
        return draw(rng, fan_in, shape)

    monkeypatch.setattr(nn, "_uniform_weights", short_of_memory)
    with pytest.raises(MemoryError) as excinfo:
        graph.backward_to_layer(run, ScoreSelector(0), "img")
    assert str(excinfo.value) == f"layer {layer}: {message or 'out of memory'}"


@pytest.mark.parametrize("scale,layer", [(4, "c1"), (-1, "c0")])
def test_backward_rejects_seeds_it_cannot_serve(scale, layer):
    graph = Graph(two_scale_spec())
    run = graph.forward(tiny_image(5))
    with pytest.raises(GraphError) as excinfo:
        graph.backward_to_layer(run, ScoreSelector(0, scale), layer)
    assert str(excinfo.value) == f"scale {scale} outside 0..1"


def test_score_selector_validation():
    graph = Graph(tiny_spec(categories=3))
    run = graph.forward(tiny_image())
    with pytest.raises(GraphError):
        ScoreSelector(category=7).resolve(run)
    with pytest.raises(GraphError):
        ScoreSelector(category=0, scale=5).resolve(run)
    with pytest.raises(GraphError):
        ScoreSelector(category=0, scale=0, cell=(9, 9)).resolve(run)
    si, cy, cx, value = ScoreSelector(category=1).resolve(run)
    assert value == run.activations[graph.planes[si]][1, cy, cx]


# --- lean runs ------------------------------------------------------------------------------

@pytest.mark.parametrize(
    "target,message",
    [
        ("nope", "no layer named 'nope'"),
        ("det/box0", "box plane 'det/box0'"),
        ("det/cls1", "'det/cls1' is not a head class plane (det has cls0..cls0)"),
        ("det", "'det' is not a head class plane"),
    ],
)
def test_forward_rejects_a_bad_target_before_any_compute(monkeypatch, target, message):
    graph = Graph(tiny_spec())

    def no_conv(*args, **kwargs):
        raise AssertionError("conv ran before the target was checked")

    monkeypatch.setattr(nn, "conv2d_forward", no_conv)
    with pytest.raises(GraphError) as excinfo:
        graph.forward(tiny_image(), target=target)
    assert message in str(excinfo.value)


def test_lean_run_serves_one_backward_to_its_target():
    graph = Graph(tiny_spec())
    selector = ScoreSelector(category=1, scale=0, cell=(1, 1))
    run = graph.forward(tiny_image(3), target="c1")
    for other in ("c0", "img", "det/cls0"):
        with pytest.raises(GraphError, match="recorded for target 'c1'"):
            graph.backward_to_layer(run, selector, other)
    assert "c0" not in run.activations
    graph.backward_to_layer(run, selector, "c1")
    with pytest.raises(GraphError, match="target 'c1' was consumed"):
        graph.backward_to_layer(run, selector, "c1")
    with pytest.raises(GraphError, match="recorded for target 'c1'"):
        graph.backward_to_layer(run, selector, "g1")

    plane = graph.forward(tiny_image(3), target="det/cls0")
    first = graph.backward_to_layer(plane, selector, "det/cls0").data
    assert (graph.backward_to_layer(plane, selector, "det/cls0").data == first).all()
    assert plane.caches == {}


# --- weights on demand ------------------------------------------------------------------


class WeightTally:
    """Counts the weight arrays ``nn._uniform_weights`` hands out, the
    largest of them and how many bytes of them are alive, through
    ``weakref.finalize``."""

    def __init__(self, monkeypatch):
        self.draws = self.live = self.peak = self.largest = 0
        draw = nn._uniform_weights

        def tallied(rng, fan_in, shape):
            weights = draw(rng, fan_in, shape)
            self.draws += 1
            self.largest = max(self.largest, weights.nbytes)
            self.live += weights.nbytes
            self.peak = max(self.peak, self.live)
            weakref.finalize(weights, self._free, weights.nbytes)
            return weights

        monkeypatch.setattr(nn, "_uniform_weights", tallied)

    def _free(self, nbytes):
        self.live -= nbytes


def no_draw(*args, **kwargs):
    raise AssertionError("a weight was drawn")


def weight_sizes(graph):
    """How many weight tensors the graph's modules hold, and the bytes of
    the largest."""
    tensors = [tensor for module in graph.modules.values() for tensor in weight_tensors(module)]
    return len(tensors), max(8 * math.prod(tensor.shape) for tensor in tensors)


def module_leaves(obj):
    """Every value a built module holds, nested blocks and lists walked through."""
    if isinstance(obj, (list, tuple)):
        for item in obj:
            yield from module_leaves(item)
    elif hasattr(obj, "backward"):
        for value in vars(obj).values():
            yield from module_leaves(value)
    else:
        yield obj


@pytest.mark.parametrize("variant", ["baseline", "improved"])
def test_built_modules_hold_no_array_only_pending_weights(variant):
    graph = Graph(build_graph(variant, 64, seed=4))
    leaves = [leaf for module in graph.modules.values() for leaf in module_leaves(module)]
    assert [type(leaf) for leaf in leaves if isinstance(leaf, np.ndarray)] == []
    pending = [leaf for leaf in leaves if isinstance(leaf, nn.Pending)]
    assert len(pending) == weight_sizes(graph)[0]
    sppf = [module for module in graph.modules.values() if isinstance(module, nn.Sppf)]
    assert sppf and all(vars(module).keys() == {"kernel", "fuse"} for module in sppf)


def test_modules_draw_nothing_and_a_full_run_holds_one_weight_tensor_at_a_time(monkeypatch):
    spec = build_graph("improved", 64, seed=4)
    monkeypatch.setattr(nn, "_uniform_weights", no_draw)
    graph = Graph(spec)
    assert set(graph.modules) == {layer.name for layer in spec.layers[1:]}
    monkeypatch.undo()
    _, largest = weight_sizes(graph)
    tally = WeightTally(monkeypatch)
    image = Tensor3(np.random.default_rng(4).uniform(0, 255, (3, 64, 64)))
    first = graph.forward(image)
    assert tally.live == 0
    for si in range(len(graph.planes)):
        graph.backward_to_layer(first, ScoreSelector(3, si, (0, 0)), "img")
    assert 0 < tally.peak <= largest
    assert tally.live == 0
    second = graph.forward(image)
    for name in first.activations:
        assert first.activations[name].tobytes() == second.activations[name].tobytes()


@pytest.mark.parametrize(
    "line,message",
    [
        ("odd c2f in=img out_channels=5", "layer odd: c2f needs even channels, got 5"),
        ("att gam in=img rate=2", "layer att: channels 3 not divisible by 4 and rate 2"),
        ("pool sppf in=img kernel=4", "layer pool: sppf needs an odd kernel, got 4"),
    ],
)
def test_graph_rejects_what_a_module_would_without_drawing(monkeypatch, line, message):
    spec = parse_graph_text(
        io.StringIO(f"img input channels=3 height=8 width=8\n{line}\nhead detect in=img\n")
    )
    monkeypatch.setattr(nn, "_uniform_weights", no_draw)
    with pytest.raises(ShapeError) as excinfo:
        Graph(spec)
    assert message in str(excinfo.value)


@pytest.mark.parametrize("variant", ["baseline", "improved"])
def test_lean_run_holds_at_most_one_layers_weights(monkeypatch, variant):
    """Tighter than the name: at most one weight tensor is alive at a time."""
    spec = build_graph(variant, 64, num_categories=4, seed=6)
    graph = Graph(spec)
    count, largest = weight_sizes(graph)
    tally = WeightTally(monkeypatch)
    image = Tensor3(np.random.default_rng(6).uniform(0, 255, (3, 64, 64)))
    pivot = next(layer.name for layer in spec.layers if layer.kind in ("gam", "sppf"))
    head_calls = []
    for method in ("forward", "backward"):
        def counted(self, *args, method=method, original=getattr(nn.HeadBranch, method)):
            head_calls.append(method)
            return original(self, *args)

        monkeypatch.setattr(nn.HeadBranch, method, counted)
    n_scales = len(graph.detect_spec.inputs)
    for target in ("img", "l2", pivot, f"{graph.detect_spec.name}/cls0"):
        tally.peak = tally.draws = 0
        head_calls.clear()
        run = graph.forward(image, target=target)
        # Every tensor drawn once, one class branch at a time.
        assert tally.draws == count, target
        assert head_calls == ["forward"] * n_scales
        gradcam_heatmap(run, target, ScoreSelector(category=3))
        assert 0 < tally.peak <= largest, target
        assert tally.live == 0, target
        assert not run.caches, target
        # Backward runs the pinned scale's class branch alone (none for a head plane).
        assert head_calls == ["forward"] * n_scales + ["backward"] * ("/" not in target)


# --- serialization ------------------------------------------------------------------------

def test_graph_text_round_trip():
    spec = build_graph("improved", 64, num_categories=5, seed=9)
    buffer = io.StringIO()
    write_graph_text(spec, buffer)
    assert parse_graph_text(io.StringIO(buffer.getvalue())) == spec


def test_graph_text_supports_comments_and_rejects_junk():
    text = """# a comment
img input channels=3 height=8 width=8
c0 conv in=img out_channels=4 kernel=3 stride=2 padding=1 act=1 seed=2  # trailing
det detect in=c0 categories=2 seed=3
"""
    spec = parse_graph_text(io.StringIO(text))
    assert [l.name for l in spec.layers] == ["img", "c0", "det"]
    with pytest.raises(FormatError):
        parse_graph_text(io.StringIO("solo\n"))
    with pytest.raises(FormatError):
        parse_graph_text(io.StringIO("img input channels=3 height=x width=8\n"))
    with pytest.raises(FormatError):
        parse_graph_text(io.StringIO("c0 conv in=missing out_channels=4\n"))
    with pytest.raises(FormatError, match=r"^layer l0: missing parameter 'out_channels'$"):
        parse_graph_text(io.StringIO("img input channels=3 height=8 width=8\nl0 conv in=img\n"))


@pytest.mark.parametrize(
    "token,message",
    [
        ("out_channels=1_6", "line 2: bad integer for out_channels: '1_6'"),
        ("out_channels=\u0661\u0666", "line 2: bad integer for out_channels: '\u0661\u0666'"),
        ("out_channels=+16", "line 2: bad integer for out_channels: '+16'"),
        ("out_channels=\uff11\uff16", "line 2: bad integer for out_channels: '\uff11\uff16'"),
        ("out_channels=16 seed=1_0", "line 2: bad seed '1_0'"),
        ("out_channels=16 seed=\u0663", "line 2: bad seed '\u0663'"),
        ("out_channels=16 seed=--3", "line 2: bad seed '--3'"),
    ],
)
def test_graph_text_integers_are_what_write_graph_text_writes(token, message):
    """An optional '-', then ASCII digits; int() alone also reads an
    underscore, a '+' and Arabic-Indic or fullwidth digits as 16."""
    text = f"img input channels=3 height=8 width=8\nc0 conv in=img {token}\nhead detect in=c0\n"
    with pytest.raises(FormatError) as excinfo:
        parse_graph_text(io.StringIO(text))
    assert str(excinfo.value) == message


def test_graph_text_integers_take_a_minus_and_leading_zeros():
    text = "img input channels=3 height=8 width=8\nc0 conv in=img out_channels=016 seed=-3\nhead detect in=c0\n"
    layer = parse_graph_text(io.StringIO(text)).layers[1]
    assert (layer.params["out_channels"], layer.seed) == (16, -3)


def tiny_text() -> str:
    buffer = io.StringIO()
    write_graph_text(tiny_spec(), buffer)
    return buffer.getvalue()


# Digits and signs make bad numbers, the others bad tokens and lines; an
# Arabic-Indic digit and a no-break space are a digit and a space to Python.
GRAPH_SYMBOLS = tuple("0123456789-+=,#_ \n\tax\u00e9\u0661\u00a0")


@given(mutants(tiny_text(), GRAPH_SYMBOLS))
@settings(max_examples=150, deadline=None)
def test_mutated_graph_text_builds_or_raises_a_trapeval_error(text):
    try:
        Graph(parse_graph_text(io.StringIO(text)))
    except TrapevalError:
        pass
