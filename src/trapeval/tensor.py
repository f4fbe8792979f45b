"""Channels-by-height-by-width tensor values and the primitive array ops.

Layout contract: values are stored channel-major, row-major within each
channel (a C-contiguous float64 ndarray of shape (C, H, W)). Each primitive
has a forward and a matching input-gradient backward, which is all reverse
mode needs here since weights are never trained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ShapeError


@dataclass(frozen=True)
class ShapeSpec:
    kernel: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        if self.kernel < 1 or self.stride < 1 or self.padding < 0:
            raise ConfigError(f"bad conv shape parameters {self}")


def conv_output_dim(input_size: int, spec: ShapeSpec) -> int:
    """floor((input - kernel + 2*padding) / stride) + 1."""
    if input_size < 1:
        raise ShapeError(f"input size {input_size} must be >= 1")
    out = (input_size - spec.kernel + 2 * spec.padding) // spec.stride + 1
    if out < 1:
        raise ShapeError(
            f"conv output dimension {out} for input {input_size} with {spec}"
        )
    return out


@dataclass(frozen=True)
class Tensor3:
    """Immutable named wrapper over a (C, H, W) float64 grid."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeError(f"Tensor3 expects 3 dims, got shape {arr.shape}")
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]


# --- activations ------------------------------------------------------------

def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) for x < 0,
    without branches: both forms are e' / (1 + e) with e = exp(-|x|) and
    e' = e or 1. ``minimum(x, -x)`` is -|x| that keeps a NaN's sign bit.
    Since 0 <= e <= 1, e' is ``maximum(e, x >= 0)``; where x is NaN, e' and
    1 + e are both e's NaN, which the quotient keeps."""
    e = np.negative(x)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0.0)
    e += 1.0
    out /= e
    return out


def sigmoid_backward(dout: np.ndarray, out: np.ndarray) -> np.ndarray:
    return dout * out * (1.0 - out)


def silu(x: np.ndarray) -> np.ndarray:
    s = sigmoid(x)
    return np.multiply(x, s, out=s)


def silu_backward(dout: np.ndarray, x: np.ndarray) -> np.ndarray:
    """dout * (s * (1 + x * (1 - s))) with s = sigmoid(x), evaluated in
    place with every operand in that order."""
    s = sigmoid(x)
    t = np.subtract(1.0, s)
    np.multiply(x, t, out=t)
    np.add(1.0, t, out=t)
    np.multiply(s, t, out=t)
    return np.multiply(dout, t, out=t)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(dout: np.ndarray, x: np.ndarray) -> np.ndarray:
    return dout * (x > 0.0)


# --- convolution ------------------------------------------------------------

def _pointwise(spec: ShapeSpec) -> bool:
    return spec.kernel == 1 and spec.stride == 1 and spec.padding == 0


def _windows(x: np.ndarray, spec: ShapeSpec, fill: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """x padded by p with fill, and that copy's writeable (C, ho, wo, k, k)
    window view: entry [c, i, j, u, v] is x[c, s*i + u - p, s*j + v - p].
    Within one tap (u, v) the view's entries are distinct cells."""
    p, s, k = spec.padding, spec.stride, spec.kernel
    xp = np.pad(x, ((0, 0), (p, p), (p, p)), constant_values=fill)
    return xp, sliding_window_view(xp, (k, k), axis=(1, 2), writeable=True)[:, ::s, ::s]


def conv2d_forward(x: np.ndarray, weights: np.ndarray, spec: ShapeSpec) -> np.ndarray:
    """Standard 2D convolution. weights: (C_out, C_in, k, k).

    One GEMM of the (C_out, C_in*k*k) weights with the (C_in*k*k, ho*wo)
    patch matrix; a 1x1, stride-1, unpadded conv uses x itself as that
    matrix."""
    c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weights.shape
    if kh != kw or kh != spec.kernel:
        raise ShapeError(f"kernel mismatch: weights {weights.shape} vs {spec}")
    if c_in_w != c_in:
        raise ShapeError(f"conv expects {c_in_w} input channels, got {c_in}")
    ho = conv_output_dim(h, spec)
    wo = conv_output_dim(w, spec)
    cols = x if _pointwise(spec) else np.ascontiguousarray(_windows(x, spec)[1].transpose(0, 3, 4, 1, 2))
    return np.dot(weights.reshape(c_out, -1), cols.reshape(-1, ho * wo)).reshape(c_out, ho, wo)


def conv2d_backward_input(
    dout: np.ndarray, weights: np.ndarray, input_shape: tuple[int, int, int], spec: ShapeSpec
) -> np.ndarray:
    c_in, h, w = input_shape
    c_out = weights.shape[0]
    p, k = spec.padding, spec.kernel
    ho, wo = dout.shape[1:]
    # (C_in*k*k, C_out) @ (C_out, ho*wo), the transposed weights a view: the
    # operands np.tensordot(weights, dout, ([0], [0])) hands to BLAS.
    dcols = np.dot(weights.reshape(c_out, -1).T, dout.reshape(c_out, ho * wo))
    if _pointwise(spec):
        # The k > 1 path below adds into zeros, which turns -0.0 into +0.0.
        dcols += 0.0
        return dcols.reshape(input_shape)
    dcols = dcols.reshape(c_in, k, k, ho, wo)
    dxp, windows = _windows(np.broadcast_to(0.0, input_shape), spec)
    for u in range(k):
        for v in range(k):
            windows[..., u, v] += dcols[:, u, v]
    return dxp[:, p : p + h, p : p + w]


# --- max pooling (odd kernel k, stride 1, padding k//2: shape preserving) ---

def maxpool2d_forward(x: np.ndarray, kernel: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel window max; returns (out, argmax) with argmax holding the
    flat within-window winner index (first occurrence in row-major scan)."""
    if kernel % 2 == 0:
        raise ConfigError(f"max-pool needs an odd kernel, got {kernel}")
    _, windows = _windows(x, ShapeSpec(kernel, 1, kernel // 2), -np.inf)
    flat = windows.reshape(*x.shape, kernel * kernel)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    return out, idx


def maxpool2d_backward(dout: np.ndarray, argmax: np.ndarray, kernel: int) -> np.ndarray:
    c, h, w = dout.shape
    p = kernel // 2
    ci, ri, cj = np.indices((c, h, w))
    u = argmax // kernel
    v = argmax % kernel
    dxp = np.zeros((c, h + 2 * p, w + 2 * p))
    np.add.at(dxp, (ci, ri + u, cj + v), dout)
    return dxp[:, p : p + h, p : p + w]


# --- nearest-neighbour upsampling -------------------------------------------

def upsample_forward(x: np.ndarray, factor: int) -> np.ndarray:
    if factor < 1:
        raise ConfigError("upsample factor must be >= 1")
    return np.repeat(np.repeat(x, factor, axis=1), factor, axis=2)


def upsample_backward(dout: np.ndarray, factor: int) -> np.ndarray:
    c, hf, wf = dout.shape
    return dout.reshape(c, hf // factor, factor, wf // factor, factor).sum(axis=(2, 4))


# --- channel concatenation ---------------------------------------------------

def concat_forward(xs: Sequence[np.ndarray]) -> np.ndarray:
    if not xs:
        raise ConfigError("concat of no inputs")
    base = xs[0].shape[1:]
    for i, x in enumerate(xs[1:], start=1):
        if x.shape[1:] != base:
            raise ShapeError(
                f"concat input {i} spatial dims {x.shape[1:]} != {base}"
            )
    return np.concatenate(xs, axis=0)


def concat_backward(dout: np.ndarray, channel_counts: Sequence[int]) -> list[np.ndarray]:
    offsets = np.cumsum(channel_counts)[:-1]
    return [part.copy() for part in np.split(dout, offsets, axis=0)]
