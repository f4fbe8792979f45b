"""Differential tests: the graph engine's kernels against the definition-level
code they replaced, kept here as oracles.

The fast kernels perform the same floating-point operations in the same
order, so every comparison is bitwise (``.view(np.int64)``): signed zeros,
subnormals, infinities and NaN payloads included.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from trapeval import nn, tensor
from trapeval.errors import ShapeError
from trapeval.gradcam import gradcam_heatmap, pin_selector
from trapeval.graph import LAYER_TABLE, Graph, ScoreSelector, build_graph
from trapeval.tensor import (
    ShapeSpec,
    Tensor3,
    conv2d_backward_input,
    conv2d_forward,
    conv_output_dim,
    maxpool2d_backward,
    maxpool2d_forward,
    sigmoid,
    silu,
    silu_backward,
    upsample_backward,
)

from conftest import Drawn, weight_tensors

# --- oracles -----------------------------------------------------------------


def oracle_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def oracle_silu(x):
    return x * oracle_sigmoid(x)


def oracle_silu_backward(dout, x):
    s = oracle_sigmoid(x)
    return dout * (s * (1.0 + x * (1.0 - s)))


def oracle_conv2d_forward(x, weights, spec):
    c_in, h, w = x.shape
    ho = conv_output_dim(h, spec)
    wo = conv_output_dim(w, spec)
    p, s, k = spec.padding, spec.stride, spec.kernel
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    windows = sliding_window_view(xp, (k, k), axis=(1, 2))
    cols = windows[:, ::s, ::s][:, :ho, :wo]  # (C_in, ho, wo, k, k)
    return np.tensordot(weights, cols, axes=([1, 2, 3], [0, 3, 4]))


def oracle_conv2d_backward_input(dout, weights, input_shape, spec):
    c_in, h, w = input_shape
    p, s, k = spec.padding, spec.stride, spec.kernel
    ho, wo = dout.shape[1:]
    dcols = np.tensordot(weights, dout, axes=([0], [0]))  # (C_in, k, k, ho, wo)
    dxp = np.zeros((c_in, h + 2 * p, w + 2 * p))
    for u in range(k):
        for v in range(k):
            dxp[:, u : u + s * ho : s, v : v + s * wo : s] += dcols[:, u, v]
    return dxp[:, p : p + h, p : p + w]


def oracle_maxpool2d_forward(x, kernel):
    """Each window of the -inf-bordered input scanned in row-major order:
    the first maximum wins, or the first NaN, as ``np.argmax`` picks."""
    c, h, w = x.shape
    p = kernel // 2
    xp = np.full((c, h + 2 * p, w + 2 * p), -np.inf)
    xp[:, p : p + h, p : p + w] = x
    rows = xp.tolist()
    out, idx = np.empty(x.shape), np.empty(x.shape, dtype=np.intp)
    for ci, i, j in itertools.product(range(c), range(h), range(w)):
        window = [rows[ci][i + u][j + v] for u in range(kernel) for v in range(kernel)]
        best = 0
        for t, value in enumerate(window):
            if value > window[best] or (math.isnan(value) and not math.isnan(window[best])):
                best = t
        u, v = divmod(best, kernel)
        out[ci, i, j] = xp[ci, i + u, j + v]
        idx[ci, i, j] = best
    return out, idx


def oracle_maxpool2d_backward(dout, argmax, kernel):
    """dout added at each window's winner, windows in (c, i, j) order."""
    c, h, w = dout.shape
    p = kernel // 2
    dxp = np.zeros((c, h + 2 * p, w + 2 * p)).tolist()
    grads, winners = dout.tolist(), argmax.tolist()
    for ci, i, j in itertools.product(range(c), range(h), range(w)):
        u, v = divmod(winners[ci][i][j], kernel)
        dxp[ci][i + u][j + v] += grads[ci][i][j]
    return np.array(dxp)[:, p : p + h, p : p + w]


def oracle_uniform_weights(rng, fan_in, shape):
    if rng is None:
        return np.zeros(shape)
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def oracle_upsample_backward(dout, factor):
    if factor == 1:
        return dout.copy()
    c, hf, wf = dout.shape
    return dout.reshape(c, hf // factor, factor, wf // factor, factor).sum(axis=(2, 4))


def oracle_rng(seed):
    """The generator a layer's weights were drawn from in one sequence; none
    (zero weights) for a negative seed."""
    return None if seed < 0 else np.random.Generator(np.random.PCG64(seed))


def oracle_conv(rng, c_in, c_out, kernel, act):
    """A stride-1, same-padded ``nn.Conv`` whose weights ``rng`` draws now."""
    conv = nn.Conv(c_in, c_out, kernel, 1, kernel // 2, act=act)
    conv.weights = Drawn(oracle_uniform_weights(rng, c_in * kernel * kernel, conv.weights.shape))
    return conv


class OracleHead:
    """The decoupled head whose class half ``nn.HeadBranch`` is: box convs,
    then class convs, drawn in that order from one generator. Its forward
    runs the box convs too, and its backward runs the box path on a zero box
    gradient before it adds the class path."""

    def __init__(self, channels, categories, rng):
        self.reg_conv = oracle_conv(rng, channels, channels, 3, True)
        self.reg_out = oracle_conv(rng, channels, 4, 1, False)
        self.cls_conv = oracle_conv(rng, channels, channels, 3, True)
        self.cls_out = oracle_conv(rng, channels, categories, 1, False)

    def forward(self, x):
        r1, c_r1 = self.reg_conv.forward(x)
        _, c_r2 = self.reg_out.forward(r1)
        s1, c_c1 = self.cls_conv.forward(x)
        cls, c_c2 = self.cls_out.forward(s1)
        return cls, (c_r1, c_r2, c_c1, c_c2)

    def backward(self, dcls, cache):
        c_r1, c_r2, c_c1, c_c2 = cache
        dbox = np.zeros((4,) + dcls.shape[1:])
        dr1 = self.reg_out.backward(dbox, c_r2)
        dx = self.reg_conv.backward(dr1, c_r1)
        ds1 = self.cls_out.backward(dcls, c_c2)
        dx += self.cls_conv.backward(ds1, c_c1)
        return dx


def oracle_detect(layer, shapes):
    """A detect layer's oracle heads, one per scale, drawing from the layer's
    generator in scale order."""
    rng = oracle_rng(layer.seed)
    return [OracleHead(c, layer.param("categories"), rng) for c, _, _ in shapes]


def assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype == np.float64
    same = np.ascontiguousarray(actual).view(np.int64) == np.ascontiguousarray(expected).view(np.int64)
    assert same.all(), (actual[~same][:5], expected[~same][:5])


# --- activations -------------------------------------------------------------

TINY = np.finfo(np.float64).tiny
EDGES = np.array(
    [0.0, -0.0, 5e-324, -5e-324, TINY, -TINY, TINY / 3, -TINY / 3, 1.0, -1.0,
     36.8, -36.8, 37.0, -37.0, 709.8, -709.8, 745.0, -745.0, 745.2, -745.2,
     1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan]
)
# NaNs with payloads, a signalling one among them.
NANS = np.array([0x7FF8000000000001, 0xFFF8000000000123, 0x7FF4000000000000], dtype=np.uint64).view(np.float64)


def activation_inputs():
    rng = np.random.default_rng(0)
    flat = np.concatenate(
        [
            EDGES,
            np.nextafter(EDGES, np.inf),
            np.nextafter(EDGES, -np.inf),
            NANS,
            rng.normal(size=4000) * 5.0,
            rng.normal(size=1000) * 400.0,
        ]
    )
    grid = rng.normal(size=(6, 17, 23)) * 10.0
    return [flat, grid, grid[:, ::2, 1::3], flat[:1], flat[:0]]


@pytest.mark.parametrize("case", range(5))
def test_activations_equal_their_oracles_bitwise(case):
    x = activation_inputs()[case]
    dout = np.random.default_rng(case).normal(size=x.shape)
    dout.flat[:3] = [0.0, -0.0, np.inf][: dout.size]
    with np.errstate(invalid="ignore"):  # silu(-inf) = -inf * 0 is NaN either way
        assert_bitwise(sigmoid(x), oracle_sigmoid(x))
        assert_bitwise(silu(x), oracle_silu(x))
        assert_bitwise(silu_backward(dout, x), oracle_silu_backward(dout, x))


# --- convolution -------------------------------------------------------------

CONV_INPUTS = [(2, 9, 6), (3, 1, 4), (1, 5, 11), (2, 12, 12)]


def strided(a):
    """A non-contiguous view, inside a larger array, holding a's values."""
    c, h, w = a.shape
    view = np.full((2 * c, 2 * h + 1, 3 * w), np.nan)[::2, 1::2, ::3]
    view[...] = a
    return view


def conv_operands(rng, c_in, k, c_out=3):
    weights = rng.uniform(-1, 1, (c_out, c_in, k, k))
    weights.flat[::5] = 0.0
    weights.flat[1::7] = -0.0
    return weights


@pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5, 7])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_conv_equals_its_oracle_bitwise(kernel, stride):
    rng = np.random.default_rng(kernel * 10 + stride)
    checked = 0
    for padding in range(kernel + 1):
        spec = ShapeSpec(kernel, stride, padding)
        for shape in CONV_INPUTS:
            x = rng.normal(size=shape)
            x.flat[::4] = -0.0
            weights = conv_operands(rng, shape[0], kernel)
            try:
                out_shape = (3, conv_output_dim(shape[1], spec), conv_output_dim(shape[2], spec))
            except ShapeError:
                with pytest.raises(ShapeError):
                    conv2d_forward(x, weights, spec)
                continue
            # -0.0 and 0.0 upstream gradients: the sign of each zero must match
            douts = (rng.normal(size=out_shape), np.full(out_shape, -0.0), np.zeros(out_shape))
            # each case contiguous and as a strided view of a larger array
            for xv, dvs in ((x, douts), (strided(x), [strided(d) for d in douts])):
                assert_bitwise(conv2d_forward(xv, weights, spec), oracle_conv2d_forward(xv, weights, spec))
                for dout in dvs:
                    assert_bitwise(
                        conv2d_backward_input(dout, weights, shape, spec),
                        oracle_conv2d_backward_input(dout, weights, shape, spec),
                    )
            checked += 1
    assert checked >= len(CONV_INPUTS)


def test_pointwise_conv_on_a_strided_input_equals_its_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 10, 12))[::2, 1:, ::2]
    weights = conv_operands(rng, 4, 1, c_out=5)
    spec = ShapeSpec(1, 1, 0)
    assert_bitwise(conv2d_forward(x, weights, spec), oracle_conv2d_forward(x, weights, spec))
    dout = rng.normal(size=(10, 9, 6))[::2]
    assert_bitwise(
        conv2d_backward_input(dout, weights, x.shape, spec),
        oracle_conv2d_backward_input(dout, weights, x.shape, spec),
    )


def test_pointwise_conv_builds_no_patch_matrix(monkeypatch):
    """A 1x1, stride-1, unpadded conv multiplies x itself, forward and
    backward; every other conv copies its patches out of the window view."""
    calls = []
    windows = tensor._windows

    def recorded(x, spec, fill=0.0):
        calls.append(spec)
        return windows(x, spec, fill)

    monkeypatch.setattr(tensor, "_windows", recorded)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 6, 5))
    weights = conv_operands(rng, 4, 1, c_out=3)
    spec = ShapeSpec(1, 1, 0)
    assert_bitwise(conv2d_forward(x, weights, spec), oracle_conv2d_forward(x, weights, spec))
    dout = rng.normal(size=(3, 6, 5))
    assert_bitwise(
        conv2d_backward_input(dout, weights, x.shape, spec),
        oracle_conv2d_backward_input(dout, weights, x.shape, spec),
    )
    assert calls == []
    others = [ShapeSpec(1, 2, 0), ShapeSpec(1, 1, 1)]
    for other in others:
        assert_bitwise(conv2d_forward(x, weights, other), oracle_conv2d_forward(x, weights, other))
    assert calls == others


# --- max pooling -------------------------------------------------------------


def maxpool_inputs():
    """Ties (signed zeros among them), infinities, NaN payloads, a channel
    of -inf whose windows the border wins, and a strided view."""
    rng = np.random.default_rng(9)
    ties = rng.integers(-2, 3, (3, 9, 8)).astype(np.float64)
    ties[(ties == 0) & (rng.random(ties.shape) < 0.5)] = -0.0
    ties[2] = -np.inf
    specials = rng.normal(size=(4, 7, 10))
    specials.flat[::7] = np.inf
    specials.flat[3::11] = -np.inf
    specials.flat[5::13] = np.resize(NANS, specials.flat[5::13].size)
    specials.flat[6::17] = -0.0
    specials.flat[8::17] = 0.0
    return [ties, specials, strided(rng.normal(size=(2, 6, 5)))]


@pytest.mark.parametrize("kernel", [1, 3, 5, 7])
def test_maxpool_equals_its_oracle_bitwise(kernel):
    rng = np.random.default_rng(kernel)
    for x in maxpool_inputs():
        out, idx = maxpool2d_forward(x, kernel)
        oracle_out, oracle_idx = oracle_maxpool2d_forward(x, kernel)
        assert_bitwise(out, oracle_out)
        assert idx.dtype == oracle_idx.dtype and (idx == oracle_idx).all()
        # Which payload a sum of two NaNs keeps is the compiler's choice: one NaN.
        dout = rng.normal(size=x.shape)
        dout.flat[::3] = -0.0
        dout.flat[1::5] = np.inf
        dout.flat[2] = NANS[1]
        assert_bitwise(maxpool2d_backward(dout, idx, kernel), oracle_maxpool2d_backward(dout, idx, kernel))
        assert_bitwise(maxpool2d_backward(strided(dout), idx, kernel), maxpool2d_backward(dout, idx, kernel))


@pytest.mark.parametrize("factor", [1, 2, 3, 4])
def test_upsample_backward_equals_its_oracle_bitwise(factor):
    rng = np.random.default_rng(factor)
    for c, h, w in [(1, 1, 1), (3, 5, 7), (16, 4, 4)]:
        dout = rng.normal(size=(c, h * factor, w * factor)) * 10.0 ** rng.integers(-6, 6, (c, h * factor, w * factor))
        assert_bitwise(upsample_backward(dout, factor), oracle_upsample_backward(dout, factor))


# --- whole graphs ------------------------------------------------------------


def test_head_backward_equals_its_oracle_bitwise():
    head, oracle = nn.HeadBranch(8, 3, seed=4), OracleHead(8, 3, oracle_rng(4))
    rng = np.random.default_rng(4)
    x = rng.normal(size=(8, 6, 5))
    (cls, cache), (oracle_cls, oracle_cache) = head.forward(x), oracle.forward(x)
    assert_bitwise(cls, oracle_cls)
    dcls = rng.normal(size=cls.shape)
    assert_bitwise(head.backward(dcls, cache), oracle.backward(dcls, oracle_cache))


def graph_outputs(graph, image):
    """Every activation (head planes included) and, into l0, l2, the image
    and the GAM layer, the gradients of a pinned logit and of the open
    selector's. The pinned logits take the scales in turn: each topology
    has as many scales as targets, so each scale is seeded once."""
    run = graph.forward(image)
    out = {name: value for name, value in run.activations.items()}
    n_cat = run.activations[graph.planes[0]].shape[0]
    targets = ["l0", "l2", "img"] + [layer.name for layer in graph.spec.layers if layer.kind == "gam"]
    for i, name in enumerate(targets):
        si = i % len(graph.planes)
        pinned = ScoreSelector(n_cat - 1, si, (run.activations[graph.planes[si]].shape[1] - 1, 0))
        out[f"grad/{name}"] = graph.backward_to_layer(run, pinned, name).data
        out[f"cam/{name}"] = graph.backward_to_layer(run, ScoreSelector(n_cat - 1), name).data
    return out


@pytest.mark.parametrize("variant", ["baseline", "improved"])
@pytest.mark.parametrize("size", [64, 96])
def test_graph_equals_the_oracle_kernels_bitwise(monkeypatch, variant, size):
    spec = build_graph(variant, size, seed=size)
    image = Tensor3(np.random.default_rng(size).integers(0, 256, (3, size, size)).astype(np.float64))
    fast = graph_outputs(Graph(spec), image)
    for name, oracle in [
        ("sigmoid", oracle_sigmoid),
        ("silu", oracle_silu),
        ("silu_backward", oracle_silu_backward),
        ("conv2d_forward", oracle_conv2d_forward),
        ("conv2d_backward_input", oracle_conv2d_backward_input),
        ("maxpool2d_forward", oracle_maxpool2d_forward),
        ("maxpool2d_backward", oracle_maxpool2d_backward),
        ("upsample_backward", oracle_upsample_backward),
    ]:
        monkeypatch.setattr(nn, name, oracle)
    monkeypatch.setitem(LAYER_TABLE, "detect", dataclasses.replace(LAYER_TABLE["detect"], build=oracle_detect))
    slow = graph_outputs(Graph(spec), image)
    assert fast.keys() == slow.keys()
    for key in slow:
        assert_bitwise(fast[key], slow[key])


# --- weights -----------------------------------------------------------------

WEIGHT_SHAPES = [(), (0,), (3, 0, 2), (1,), (7,), (4, 3, 3, 3), (16, 64, 1, 1), (2, 5, 7, 7), (128, 32)]


@pytest.mark.parametrize("seed", [0, 1, 7, 123, 2**40 + 3])
def test_uniform_weights_equal_their_oracle_bitwise(seed):
    fast_rng = np.random.Generator(np.random.PCG64(seed))
    slow_rng = np.random.Generator(np.random.PCG64(seed))
    for fan_in in (1, 2, 3, 27, 64, 576, 4608, 25088, 10**9 + 7):
        for shape in WEIGHT_SHAPES:
            fast = nn._uniform_weights(fast_rng, fan_in, shape)
            assert isinstance(fast, np.ndarray) and fast.shape == shape
            assert_bitwise(fast, oracle_uniform_weights(slow_rng, fan_in, shape))
    # Both generators took the same number of draws.
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


@pytest.mark.parametrize("categories", [1, 4, 16])
@pytest.mark.parametrize("seed", [3, -1])
def test_class_branches_equal_the_full_head_bitwise(categories, seed):
    spec = build_graph("improved", 64, num_categories=categories, seed=seed)
    detect = spec.detect_layer()
    shapes = [Graph(spec).shapes[ref] for ref in detect.inputs]
    branches = LAYER_TABLE["detect"].build(detect, shapes)
    oracles = oracle_detect(detect, shapes)
    assert len(branches) == len(oracles) == len(shapes)
    for branch, oracle, (c, h, w) in zip(branches, oracles, shapes):
        for conv in ("cls_conv", "cls_out"):
            drawn = getattr(branch, conv).weights.draw()
            assert_bitwise(drawn, getattr(oracle, conv).weights.draw())
            assert drawn.any() == (seed >= 0)
        x = np.random.default_rng(c).normal(size=(c, h, w))
        (cls, cache), (oracle_cls, oracle_cache) = branch.forward(x), oracle.forward(x)
        assert_bitwise(cls, oracle_cls)
        dcls = np.random.default_rng(h).normal(size=cls.shape)
        assert_bitwise(branch.backward(dcls, cache), oracle.backward(dcls, oracle_cache))


def no_draw(*args, **kwargs):
    raise AssertionError("a block build drew a weight")


BLOCKS = [
    (nn.Conv, (3, 5, 3, 2, 1)),
    (nn.Bottleneck, (4,)),
    (nn.C2f, (6, 8, 2)),
    (nn.Sppf, (4, 5)),
    (nn.Gam, (8,)),
    (nn.HeadBranch, (6, 3)),
]


@pytest.mark.parametrize("block,args", BLOCKS, ids=[b.__name__ for b, _ in BLOCKS])
@pytest.mark.parametrize("seed", [5, -1])
def test_deferred_weights_equal_eager_ones_bitwise(monkeypatch, block, args, seed):
    """A build draws nothing, and its ``Pending`` tensors draw what one
    sequential draw of the layer's generator gives in declaration order
    (zeros for a negative seed), at every draw. A head's box convs take
    the first draws, which are discarded."""
    monkeypatch.setattr(nn, "_uniform_weights", no_draw)
    built = block(*args, seed=seed)
    monkeypatch.undo()
    pending = list(weight_tensors(built))
    assert pending and all(isinstance(tensor, nn.Pending) for tensor in pending)
    rng = oracle_rng(seed)
    if block is nn.HeadBranch:
        c = args[0]
        for shape in ((c, c, 3, 3), (4, c, 1, 1)):
            oracle_uniform_weights(rng, math.prod(shape[1:]), shape)
    for tensor in pending:
        drawn = tensor.draw()
        assert_bitwise(drawn, oracle_uniform_weights(rng, math.prod(tensor.shape[1:]), tensor.shape))
        assert drawn.any() == (seed >= 0)
        assert_bitwise(tensor.draw(), drawn)


# --- lean runs ---------------------------------------------------------------


def lean_targets(graph):
    """img, l0, l2, the GAM layer (the pooling pyramid for the baseline), the
    first neck c2f after it and the first head class plane."""
    layers = graph.spec.layers
    pivot = next(i for i, layer in enumerate(layers) if layer.kind in ("gam", "sppf"))
    neck = next(layer.name for layer in layers[pivot:] if layer.kind == "c2f")
    return ["img", "l0", "l2", layers[pivot].name, neck, f"{graph.detect_spec.name}/cls0"]


@pytest.mark.parametrize("variant", ["baseline", "improved"])
@pytest.mark.parametrize("size", [64, 96])
def test_lean_run_equals_the_full_run_bitwise(variant, size):
    graph = Graph(build_graph(variant, size, seed=size + 1))
    image = Tensor3(np.random.default_rng(size).integers(0, 256, (3, size, size)).astype(np.float64))
    full = graph.forward(image)
    names = [layer.name for layer in graph.spec.layers]
    n_cat = full.activations[graph.planes[0]].shape[0]
    class_planes = {f"{names[-1]}/cls{i}" for i in range(len(graph.planes))}
    assert set(full.activations) == set(names[:-1]) | class_planes
    assert list(full.caches) == names[1:]
    for target in lean_targets(graph):
        selector, _ = pin_selector(full, target, ScoreSelector(n_cat - 1))
        lean = graph.forward(image, target=target)
        assert lean.target == target and full.target is None
        assert set(lean.activations) == {target} | class_planes
        assert list(lean.caches) == (names[names.index(target) + 1:] if target in names else [])
        for name in lean.activations:
            assert_bitwise(lean.activations[name], full.activations[name])
        assert_bitwise(
            graph.backward_to_layer(lean, selector, target).data,
            graph.backward_to_layer(full, selector, target).data,
        )
        assert names[-1] not in lean.caches
        heat = gradcam_heatmap(graph.forward(image, target=target), target, selector)
        assert heat.data.tobytes() == gradcam_heatmap(full, target, selector).data.tobytes()
