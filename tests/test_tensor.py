import numpy as np
import pytest

from trapeval.errors import ConfigError, ShapeError
from trapeval.tensor import (
    ShapeSpec,
    Tensor3,
    concat_backward,
    concat_forward,
    conv2d_backward_input,
    conv2d_forward,
    conv_output_dim,
    maxpool2d_backward,
    maxpool2d_forward,
    relu,
    relu_backward,
    sigmoid,
    sigmoid_backward,
    silu,
    silu_backward,
    upsample_backward,
    upsample_forward,
)


def test_conv_output_dim_examples():
    assert conv_output_dim(640, ShapeSpec(3, 2, 1)) == 320
    assert conv_output_dim(20, ShapeSpec(5, 1, 2)) == 20
    for n in (1, 7, 33):
        assert conv_output_dim(n, ShapeSpec(1, 1, 0)) == n
    with pytest.raises(ShapeError):
        conv_output_dim(2, ShapeSpec(5, 1, 0))
    with pytest.raises(ShapeError):
        conv_output_dim(0, ShapeSpec(1, 1, 0))


def test_conv2d_shapes_and_zero_weights():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 16, 16))
    weights = np.zeros((8, 3, 3, 3))
    out = conv2d_forward(x, weights, ShapeSpec(3, 2, 1))
    assert out.shape == (8, 8, 8)
    assert np.all(out == 0.0)


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 6, 6))
    weights = np.ones((1, 1, 1, 1))
    out = conv2d_forward(x, weights, ShapeSpec(1, 1, 0))
    assert np.allclose(out, x)


def test_conv2d_weight_shape_validation():
    x = np.zeros((3, 8, 8))
    with pytest.raises(ShapeError):
        conv2d_forward(x, np.zeros((4, 2, 3, 3)), ShapeSpec(3, 1, 1))
    with pytest.raises(ShapeError):
        conv2d_forward(x, np.zeros((4, 3, 5, 5)), ShapeSpec(3, 1, 1))


def test_conv2d_backward_matches_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 5, 5))
    weights = rng.normal(size=(3, 2, 3, 3))
    spec = ShapeSpec(3, 2, 1)
    out = conv2d_forward(x, weights, spec)
    dout = rng.normal(size=out.shape)
    dx = conv2d_backward_input(dout, weights, x.shape, spec)
    h = 1e-6
    for _ in range(20):
        ix = tuple(rng.integers(0, s) for s in x.shape)
        hi, lo = x.copy(), x.copy()
        hi[ix] += h
        lo[ix] -= h
        fd = (
            (conv2d_forward(hi, weights, spec) * dout).sum()
            - (conv2d_forward(lo, weights, spec) * dout).sum()
        ) / (2 * h)
        assert fd == pytest.approx(dx[ix], rel=1e-5, abs=1e-8)


def test_maxpool_preserves_shape_and_constants():
    x = np.full((2, 20, 20), 3.25)
    out, _ = maxpool2d_forward(x, 5)
    assert out.shape == (2, 20, 20)
    assert np.all(out == 3.25)
    assert maxpool2d_forward(np.full((512, 20, 20), 1.0), 5)[0].shape == (512, 20, 20)


def test_maxpool_single_bright_pixel_dilates():
    x = np.zeros((1, 9, 9))
    x[0, 4, 4] = 7.0
    out, _ = maxpool2d_forward(x, 5)
    expected = np.zeros((9, 9))
    expected[2:7, 2:7] = 7.0
    assert np.array_equal(out[0], expected)


def test_maxpool_backward_routes_to_argmax_deterministically():
    x = np.zeros((1, 4, 4))  # all ties: first-scan order wins
    out, idx = maxpool2d_forward(x, 3)
    dout = np.ones_like(out)
    dx1 = maxpool2d_backward(dout, idx, 3)
    dx2 = maxpool2d_backward(dout, idx, 3)
    assert np.array_equal(dx1, dx2)
    assert dx1.sum() == dout.size  # one winner per window
    x2 = np.arange(16, dtype=float).reshape(1, 4, 4)
    out2, idx2 = maxpool2d_forward(x2, 3)
    dx = maxpool2d_backward(np.ones_like(out2), idx2, 3)
    assert dx[0, 3, 3] == 4.0  # bottom-right max wins its four windows


@pytest.mark.parametrize("kernel", [2, 4])
def test_maxpool_rejects_an_even_kernel(kernel):
    # Padded by kernel // 2, an even window would grow the map by one.
    with pytest.raises(ConfigError, match=f"max-pool needs an odd kernel, got {kernel}"):
        maxpool2d_forward(np.zeros((1, 6, 6)), kernel)


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: ShapeSpec(0), "bad conv shape parameters ShapeSpec(kernel=0, stride=1, padding=0)"),
        (lambda: ShapeSpec(3, 0), "bad conv shape parameters ShapeSpec(kernel=3, stride=0, padding=0)"),
        (lambda: ShapeSpec(3, 1, -1), "bad conv shape parameters ShapeSpec(kernel=3, stride=1, padding=-1)"),
        (lambda: upsample_forward(np.zeros((1, 2, 2)), 0), "upsample factor must be >= 1"),
    ],
)
def test_a_bad_kernel_parameter_is_a_config_error(make, message):
    with pytest.raises(ConfigError) as excinfo:
        make()
    assert str(excinfo.value) == message


def test_upsample_worked_matrix():
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    out = upsample_forward(x, 2)
    expected = np.array(
        [
            [1, 1, 2, 2],
            [1, 1, 2, 2],
            [3, 3, 4, 4],
            [3, 3, 4, 4],
        ],
        dtype=float,
    )
    assert np.array_equal(out[0], expected)
    assert np.array_equal(upsample_forward(x, 1), x)
    assert upsample_forward(np.zeros((512, 20, 20)), 2).shape == (512, 40, 40)


def test_upsample_backward_sums_blocks():
    rng = np.random.default_rng(3)
    dout = rng.normal(size=(2, 6, 6))
    dx = upsample_backward(dout, 2)
    assert dx.shape == (2, 3, 3)
    assert dx[0, 0, 0] == pytest.approx(dout[0, :2, :2].sum())


def test_concat_channel_arithmetic():
    parts = [np.zeros((512, 20, 20)) for _ in range(4)]
    assert concat_forward(parts).shape == (2048, 20, 20)
    single = np.ones((3, 2, 2))
    assert np.array_equal(concat_forward([single]), single)
    a = np.full((1, 1, 1), 2.0)
    b = np.full((1, 1, 1), 5.0)
    assert concat_forward([a, b]).ravel().tolist() == [2.0, 5.0]
    back = concat_backward(np.concatenate([a, b]), [1, 1])
    assert back[0].item() == 2.0 and back[1].item() == 5.0
    with pytest.raises(ShapeError):
        concat_forward([np.zeros((1, 2, 2)), np.zeros((1, 3, 2))])
    assert concat_forward([a, b]).shape[0] == 2


@pytest.mark.parametrize(
    "fwd,bwd,uses_output",
    [(sigmoid, sigmoid_backward, True), (silu, silu_backward, False), (relu, relu_backward, False)],
)
def test_activation_backwards_match_finite_differences(fwd, bwd, uses_output):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(40,)) * 3
    dout = rng.normal(size=(40,))
    ref = fwd(x) if uses_output else x
    grad = bwd(dout, ref)
    h = 1e-7
    fd = (fwd(x + h) - fwd(x - h)) / (2 * h) * dout
    assert np.allclose(grad, fd, rtol=1e-4, atol=1e-7)


def test_sigmoid_is_stable_for_large_inputs():
    x = np.array([-1000.0, 1000.0])
    out = sigmoid(x)
    assert out[0] == 0.0 and out[1] == 1.0


def test_tensor3_validates_shape():
    with pytest.raises(ShapeError):
        Tensor3(np.zeros((2, 2)))
    t = Tensor3(np.full((2, 3, 4), 1.5, dtype=np.float32))
    assert t.shape == (2, 3, 4)
    assert t.data.dtype == np.float64
