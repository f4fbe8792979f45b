import numpy as np
import pytest
import reference_gradcam as ref

from trapeval._viridis import VIRIDIS_256
from trapeval.errors import GraphError, ShapeError
from trapeval.gradcam import (
    Heatmap,
    activation_cam,
    colorize,
    gradcam_heatmap,
    normalize_unit,
    overlay,
    pin_selector,
)
from trapeval.graph import Graph, GraphSpec, LayerSpec, ScoreSelector, build_graph
from trapeval.tensor import Tensor3

from test_graph import tiny_image, tiny_spec, two_scale_spec


def test_activation_cam_hand_case():
    # single channel, uniform positive gradient: cam = mean_grad * activation
    activation = np.array([[[1.0, -2.0], [0.5, 3.0]]])
    grads = np.full((1, 2, 2), 0.5)
    cam = activation_cam(grads, activation)
    assert np.allclose(cam, np.maximum(0.5 * activation[0], 0.0))
    heat = normalize_unit(cam)
    assert heat.max() == 1.0
    assert np.allclose(heat, np.maximum(activation[0], 0.0) / 3.0)


def test_zero_gradients_give_zero_heatmap():
    cam = activation_cam(np.zeros((4, 3, 3)), np.random.default_rng(0).normal(size=(4, 3, 3)))
    assert np.all(cam == 0.0)
    assert np.all(normalize_unit(cam) == 0.0)


def test_normalization_is_scale_invariant():
    rng = np.random.default_rng(1)
    grads = rng.normal(size=(4, 3, 3))
    activation = rng.normal(size=(4, 3, 3))
    base = normalize_unit(activation_cam(grads, activation))
    scaled = normalize_unit(activation_cam(grads * 37.5, activation))
    assert np.allclose(base, scaled)


def test_heatmap_structural_bounds_on_graph():
    graph = Graph(tiny_spec())
    run = graph.forward(tiny_image(3))
    heat = gradcam_heatmap(run, "g1", ScoreSelector(category=1))
    assert heat.data.shape == (8, 8)
    assert heat.data.min() >= 0.0
    assert heat.data.max() <= 1.0
    if heat.data.max() > 0.0:
        assert heat.data.max() == 1.0


def test_heatmap_deterministic_across_runs():
    a = gradcam_heatmap(Graph(tiny_spec()).forward(tiny_image(5)), "c1", ScoreSelector(0))
    b = gradcam_heatmap(Graph(tiny_spec()).forward(tiny_image(5)), "c1", ScoreSelector(0))
    assert np.array_equal(a.data, b.data)


def test_pin_selector_restricts_to_influencing_scales():
    graph = Graph(two_scale_spec())
    run = graph.forward(tiny_image(7))
    pinned, _ = pin_selector(run, "c1", ScoreSelector(category=0))
    assert pinned.scale == 1  # only the second scale path contains c1
    heat = gradcam_heatmap(run, "c1", ScoreSelector(category=0))
    assert heat.data.shape == (8, 8)


def test_equal_logits_pick_the_first_scale_then_the_first_cell_in_row_major_order():
    graph = Graph(two_scale_spec())
    # Category 0 peaks at 5 on two cells of each scale; the first in
    # row-major order comes second in column-major order.
    cls0, cls1 = np.zeros((2, 4, 4)), np.zeros((2, 2, 2))
    cls0[0, 3, 0] = cls0[0, 1, 2] = cls0[0, 2, 3] = 5.0
    cls1[0, 1, 0] = cls1[0, 0, 1] = 5.0
    run = graph.forward(tiny_image(7), overrides={"det/cls0": cls0, "det/cls1": cls1})
    assert ScoreSelector(0).resolve(run) == (0, 1, 2, 5.0)
    assert ScoreSelector(0, scale=1).resolve(run) == (1, 0, 1, 5.0)
    for layer, selector, scale, cell in [
        ("img", ScoreSelector(0), 0, (1, 2)),
        ("c0", ScoreSelector(0), 0, (1, 2)),
        ("c1", ScoreSelector(0), 1, (0, 1)),
        ("det/cls1", ScoreSelector(0), 1, (0, 1)),
        ("c0", ScoreSelector(0, scale=1), 1, (0, 1)),
    ]:
        pinned, value = pin_selector(run, layer, selector)
        assert (pinned.scale, pinned.cell, value) == (scale, cell, 5.0)
    flat = graph.forward(
        tiny_image(7), overrides={"det/cls0": np.ones((2, 4, 4)), "det/cls1": np.ones((2, 2, 2))}
    )
    assert ScoreSelector(1).resolve(flat) == (0, 0, 0, 1.0)
    pinned, value = pin_selector(flat, "img", ScoreSelector(1))
    assert (pinned.scale, pinned.cell, value) == (0, (0, 0), 1.0)
    with pytest.raises(GraphError):
        pin_selector(run, "det/box0", ScoreSelector(category=0))


def pinned_or_error(pin, run, layer, selector):
    """The pinned selector and its value (as hex), or the error's text."""
    try:
        pinned, value = pin(run, layer, selector)
    except GraphError as exc:
        return f"GraphError: {exc}"
    return pinned, value.hex()


@pytest.mark.parametrize("variant", ["baseline", "improved"])
def test_pin_selector_pins_what_the_per_scale_loop_pinned(variant):
    graph = Graph(build_graph(variant, 64, num_categories=4, seed=5))
    rng = np.random.default_rng(8)
    image = Tensor3(rng.uniform(0, 255, (3, 64, 64)))
    # Besides the plain run: equal planes, which tie every cell of every
    # scale, and planes that peak at 5 on two seeded cells each, which tie
    # across scales at different cells.
    flat = {plane: np.ones(graph.shapes[plane]) for plane in graph.planes}
    peaks = {}
    for plane in graph.planes:
        peaks[plane] = np.zeros(graph.shapes[plane])
        for cls in peaks[plane]:
            cls.flat[rng.choice(cls.size, 2, replace=False)] = 5.0
    detect = graph.detect_spec
    boxes = [f"{detect.name}/box{i}" for i in range(len(graph.planes))]
    layers = [layer.name for layer in graph.spec.layers] + [*graph.planes, *boxes]
    scales = [None, *range(len(graph.planes))]
    for overrides in ({}, flat, peaks):
        run = graph.forward(image, overrides=overrides)
        for layer in layers:
            for category in range(4):
                for scale in scales:
                    for cell in (None, (3, 3)):  # (3, 3) lies outside the 2x2 grid
                        selector = ScoreSelector(category, scale, cell)
                        got = pinned_or_error(pin_selector, run, layer, selector)
                        assert got == pinned_or_error(ref.pin_selector, run, layer, selector)
                        if scale is None and (layer in boxes or layer == detect.name):
                            assert got == f"GraphError: layer {layer!r} is not an ancestor of any head scale"


def test_viridis_endpoints_and_interpolation():
    assert ref.viridis_map(0.0) == (68, 1, 84)
    assert ref.viridis_map(1.0) == (253, 231, 37)
    assert ref.viridis_map(-0.5) == (68, 1, 84)  # clamped
    assert ref.viridis_map(1.5) == (253, 231, 37)
    a, b = VIRIDIS_256[10], VIRIDIS_256[11]
    midpoint = ref.viridis_map(10.5 / 255.0)
    for got, lo, hi in zip(midpoint, a, b):
        assert min(lo, hi) <= got <= max(lo, hi)


def test_viridis_green_channel_monotone():
    greens = [ref.viridis_map(i / 100)[1] for i in range(101)]
    assert greens == sorted(greens)


def test_colorize_matches_pointwise_map():
    heat = Heatmap(np.array([[0.0, 0.25], [0.5, 1.0]]))
    image = colorize(heat)
    assert image.shape == (3, 2, 2)
    for y in range(2):
        for x in range(2):
            assert tuple(int(v) for v in image.data[:, y, x]) == ref.viridis_map(heat.data[y, x])


def test_overlay_blend_arithmetic():
    image = Tensor3(np.full((3, 1, 1), 100.0))
    colors = colorize(Heatmap(np.array([[0.0]])))
    assert np.array_equal(overlay(image, colors, 0.0).data, image.data)
    pure = overlay(image, colors, 1.0)
    assert tuple(pure.data[:, 0, 0]) == (68.0, 1.0, 84.0)
    half = overlay(image, colors, 0.5)
    assert np.allclose(half.data[:, 0, 0], [(100 + 68) / 2, (100 + 1) / 2, (100 + 84) / 2])


def test_overlay_validates_inputs():
    image = Tensor3(np.zeros((3, 2, 2)))
    colors = colorize(Heatmap(np.zeros((2, 2))))
    with pytest.raises(ShapeError):
        overlay(image, colorize(Heatmap(np.zeros((3, 3)))))
    with pytest.raises(ShapeError):
        overlay(image, Tensor3(np.zeros((1, 2, 2))))
    with pytest.raises(ValueError):
        overlay(image, colors, alpha=1.5)
    with pytest.raises(ShapeError):
        overlay(Tensor3(np.zeros((1, 2, 2))), colors)


@pytest.mark.parametrize(
    "height,width,message",
    [
        (5, 5, "layer grid 3x3 does not divide image size 5x5"),
        (4, 3, "non-uniform upsample factors for grid 2x1"),
    ],
)
def test_heatmap_rejects_a_layer_grid_it_cannot_upsample_to_the_image(height, width, message):
    spec = GraphSpec(
        (
            LayerSpec("img", "input", (), {"channels": 3, "height": height, "width": width}),
            LayerSpec("l0", "conv", ("img",), {"out_channels": 2, "padding": 0}, seed=1),
            LayerSpec("head", "detect", ("l0",), {"categories": 2}, seed=2),
        )
    )
    run = Graph(spec).forward(Tensor3(np.zeros((3, height, width))), target="l0")
    with pytest.raises(ShapeError) as excinfo:
        gradcam_heatmap(run, "l0", ScoreSelector(category=0))
    assert str(excinfo.value) == message


def test_heatmap_type_validation():
    with pytest.raises(ShapeError):
        Heatmap(np.zeros((2, 2, 2)))
