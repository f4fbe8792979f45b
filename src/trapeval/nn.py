"""Network building blocks with hand-written input-gradient backwards.

A block build draws nothing. Each weight tensor is a ``Pending`` record of
its place in its layer's PCG64 stream, taken in declaration order, and the
op that reads the tensor draws it just before use and drops it after:
uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]. A built block holds no
array, only ``Pending`` weights: no conv or GAM layer adds a constant term.
Forward passes return (output, cache); backward consumes the cache so one
block instance can serve many concurrent runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import ShapeError
from .tensor import (
    ShapeSpec,
    concat_backward,
    concat_forward,
    conv2d_backward_input,
    conv2d_forward,
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


class Stream:
    """One layer's weight stream, the PCG64 of ``seed``: a build takes its
    tensors from it in declaration order, as ``Pending`` records."""

    def __init__(self, seed: int):
        self.seed = seed
        self.offset = 0

    def take(self, fan_in: int, shape: tuple[int, ...]) -> "Pending":
        """The next tensor, not drawn; the stream moves past it."""
        pending = Pending(self.seed, self.offset, fan_in, shape)
        self.offset += math.prod(shape)
        return pending


@dataclass(frozen=True)
class Pending:
    """A weight tensor not drawn yet: its layer's seed and where the tensor
    starts in that seed's stream."""

    seed: int
    offset: int
    fan_in: int
    shape: tuple[int, ...]

    def draw(self) -> np.ndarray:
        """The tensor, the same bytes at every draw. Each weight takes one
        64-bit output, so advancing the stream past ``offset`` weights
        equals drawing them. A negative seed gives zeros (an ablation aid)."""
        rng = None
        if self.seed >= 0:
            rng = np.random.Generator(np.random.PCG64(self.seed))
            rng.bit_generator.advance(self.offset)
        return _uniform_weights(rng, self.fan_in, self.shape)


def _stream(seed: "int | Stream") -> Stream:
    """A block's stream: its own for an integer seed, else its parent's."""
    return seed if isinstance(seed, Stream) else Stream(seed)


def _uniform_weights(
    rng: "np.random.Generator | None", fan_in: int, shape: tuple[int, ...]
) -> np.ndarray:
    """``rng.uniform(-bound, bound, shape)`` bit for bit, without its
    temporaries: the same draws, then ``low + (high - low) * u`` as the same
    two IEEE operations, in place. No generator gives zeros."""
    if rng is None:
        return np.zeros(shape)
    bound = 1.0 / math.sqrt(fan_in)
    weights = rng.random(shape)
    weights *= bound + bound
    weights += -bound
    return weights


class Conv:
    """Convolution block: conv2d plus optional SiLU."""

    def __init__(
        self,
        c_in: int,
        c_out: int,
        kernel: int,
        stride: int,
        padding: int,
        act: bool = True,
        seed: "int | Stream" = 0,
    ):
        stream = _stream(seed)
        self.spec = ShapeSpec(kernel, stride, padding)
        self.act = act
        self.weights = stream.take(c_in * kernel * kernel, (c_out, c_in, kernel, kernel))

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, Any]:
        pre = conv2d_forward(x, self.weights.draw(), self.spec)
        if self.act:
            return silu(pre), (x.shape, pre)
        return pre, (x.shape, None)

    def backward(self, dout: np.ndarray, cache: Any) -> np.ndarray:
        in_shape, pre = cache
        if self.act:
            dout = silu_backward(dout, pre)
        return conv2d_backward_input(dout, self.weights.draw(), in_shape, self.spec)


class Bottleneck:
    """Two 3x3 conv blocks with a residual shortcut (element-wise addition)."""

    def __init__(self, channels: int, seed: "int | Stream" = 0):
        stream = _stream(seed)
        self.conv1 = Conv(channels, channels, 3, 1, 1, act=True, seed=stream)
        self.conv2 = Conv(channels, channels, 3, 1, 1, act=True, seed=stream)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, Any]:
        y1, c1 = self.conv1.forward(x)
        y2, c2 = self.conv2.forward(y1)
        return x + y2, (c1, c2)

    def backward(self, dout: np.ndarray, cache: Any) -> np.ndarray:
        c1, c2 = cache
        dy1 = self.conv2.backward(dout, c2)
        return dout + self.conv1.backward(dy1, c1)


class C2f:
    """Cross-stage partial block: entry conv, channel split, a bottleneck
    stack on one path, concat of every stage, fuse conv."""

    def __init__(
        self,
        c_in: int,
        c_out: int,
        n: int = 1,
        seed: "int | Stream" = 0,
    ):
        if c_out % 2 != 0:
            raise ShapeError(f"c2f needs an even output channel count, got {c_out}")
        stream = _stream(seed)
        self.hidden = c_out // 2
        self.n = n
        self.cv1 = Conv(c_in, 2 * self.hidden, 1, 1, 0, act=True, seed=stream)
        self.bottlenecks = [Bottleneck(self.hidden, seed=stream) for _ in range(n)]
        self.cv2 = Conv((2 + n) * self.hidden, c_out, 1, 1, 0, act=True, seed=stream)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, Any]:
        y, c_cv1 = self.cv1.forward(x)
        chunks = [y[: self.hidden], y[self.hidden :]]
        bn_caches = []
        current = chunks[1]
        for bn in self.bottlenecks:
            current, c_bn = bn.forward(current)
            chunks.append(current)
            bn_caches.append(c_bn)
        z = concat_forward(chunks)
        out, c_cv2 = self.cv2.forward(z)
        return out, (c_cv1, bn_caches, c_cv2)

    def backward(self, dout: np.ndarray, cache: Any) -> np.ndarray:
        c_cv1, bn_caches, c_cv2 = cache
        dz = self.cv2.backward(dout, c_cv2)
        dchunks = concat_backward(dz, [self.hidden] * (2 + self.n))
        g = dchunks[-1]
        for i in range(self.n - 1, -1, -1):
            g = self.bottlenecks[i].backward(g, bn_caches[i]) + dchunks[i + 1]
        dy = np.concatenate([dchunks[0], g], axis=0)
        return self.cv1.backward(dy, c_cv1)


class Sppf:
    """Three chained 5x5 max-pools, concat with the input, 1x1 fuse conv."""

    def __init__(self, channels: int, kernel: int = 5, seed: "int | Stream" = 0):
        stream = _stream(seed)
        self.kernel = kernel
        self.fuse = Conv(4 * channels, channels, 1, 1, 0, act=True, seed=stream)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, Any]:
        p1, i1 = maxpool2d_forward(x, self.kernel)
        p2, i2 = maxpool2d_forward(p1, self.kernel)
        p3, i3 = maxpool2d_forward(p2, self.kernel)
        z = concat_forward([x, p1, p2, p3])
        out, c_fuse = self.fuse.forward(z)
        return out, ((i1, i2, i3), c_fuse)

    def backward(self, dout: np.ndarray, cache: Any) -> np.ndarray:
        (i1, i2, i3), c_fuse = cache
        dz = self.fuse.backward(dout, c_fuse)
        dx, dp1, dp2, dp3 = concat_backward(dz, [dz.shape[0] // 4] * 4)
        dp2 += maxpool2d_backward(dp3, i3, self.kernel)
        dp1 += maxpool2d_backward(dp2, i2, self.kernel)
        dx += maxpool2d_backward(dp1, i1, self.kernel)
        return dx


class GamChannelAttention:
    """Channel gate: 3D permutation to (H*W, C), two-layer MLP squeezing to
    C/4, reverse permutation, sigmoid, elementwise rescale of the input."""

    def __init__(self, channels: int, seed: "int | Stream" = 0):
        if channels % 4 != 0:
            raise ShapeError(f"channel attention needs C divisible by 4, got {channels}")
        stream = _stream(seed)
        self.hidden = channels // 4
        self.w1 = stream.take(channels, (self.hidden, channels))
        self.w2 = stream.take(self.hidden, (channels, self.hidden))

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, Any]:
        c, h, w = x.shape
        permuted = x.reshape(c, h * w).T  # (H*W, C)
        l1 = permuted @ self.w1.draw().T
        hidden = relu(l1)
        l2 = hidden @ self.w2.draw().T
        restored = l2.T.reshape(c, h, w)
        gate = sigmoid(restored)
        cache = {
            "x": x,
            "permuted": permuted,
            "l1": l1,
            "hidden": hidden,
            "l2": l2,
            "gate": gate,
        }
        return x * gate, cache

    def backward(self, dout: np.ndarray, cache: Any) -> np.ndarray:
        x, gate = cache["x"], cache["gate"]
        c, h, w = x.shape
        dx = dout * gate
        dgate = dout * x
        drestored = sigmoid_backward(dgate, gate)
        dl2 = drestored.reshape(c, h * w).T
        dhidden = dl2 @ self.w2.draw()
        dl1 = relu_backward(dhidden, cache["l1"])
        dpermuted = dl1 @ self.w1.draw()
        dx += dpermuted.T.reshape(c, h, w)
        return dx


class GamSpatialAttention:
    """Spatial gate: 7x7 conv squeezing channels by ``rate``, ReLU, 7x7 conv
    restoring them, sigmoid, elementwise rescale."""

    def __init__(self, channels: int, rate: int = 4, seed: "int | Stream" = 0):
        if channels % rate != 0:
            raise ShapeError(
                f"spatial attention needs C divisible by rate {rate}, got {channels}"
            )
        stream = _stream(seed)
        mid = channels // rate
        self.spec = ShapeSpec(7, 1, 3)
        self.w1 = stream.take(channels * 49, (mid, channels, 7, 7))
        self.w2 = stream.take(mid * 49, (channels, mid, 7, 7))

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, Any]:
        a = conv2d_forward(x, self.w1.draw(), self.spec)
        r = relu(a)
        pre = conv2d_forward(r, self.w2.draw(), self.spec)
        gate = sigmoid(pre)
        return x * gate, {"x": x, "a": a, "r_shape": r.shape, "gate": gate}

    def backward(self, dout: np.ndarray, cache: Any) -> np.ndarray:
        x, gate = cache["x"], cache["gate"]
        dx = dout * gate
        dgate = dout * x
        dpre = sigmoid_backward(dgate, gate)
        dr = conv2d_backward_input(dpre, self.w2.draw(), cache["r_shape"], self.spec)
        da = relu_backward(dr, cache["a"])
        dx += conv2d_backward_input(da, self.w1.draw(), x.shape, self.spec)
        return dx


class Gam:
    """Global attention: channel gate then spatial gate, shape preserving."""

    def __init__(self, channels: int, rate: int = 4, seed: "int | Stream" = 0):
        stream = _stream(seed)
        self.channel_attention = GamChannelAttention(channels, seed=stream)
        self.spatial_attention = GamSpatialAttention(channels, rate, seed=stream)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, Any]:
        y, c_ch = self.channel_attention.forward(x)
        out, c_sp = self.spatial_attention.forward(y)
        return out, (c_ch, c_sp)

    def backward(self, dout: np.ndarray, cache: Any) -> np.ndarray:
        c_ch, c_sp = cache
        dy = self.spatial_attention.backward(dout, c_sp)
        return self.channel_attention.backward(dy, c_ch)


class Upsample:
    """Nearest-neighbour upsampling by an integer factor."""

    def __init__(self, factor: int = 2):
        self.factor = factor

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, Any]:
        return upsample_forward(x, self.factor), None

    def backward(self, dout: np.ndarray, cache: Any) -> np.ndarray:
        return upsample_backward(dout, self.factor)


class Concat:
    """Channel-wise concatenation of same-resolution inputs."""

    def forward(self, xs: list[np.ndarray]) -> tuple[np.ndarray, Any]:
        return concat_forward(xs), [x.shape[0] for x in xs]

    def backward(self, dout: np.ndarray, cache: Any) -> list[np.ndarray]:
        return concat_backward(dout, cache)


class HeadBranch:
    """Per-scale head stub: the class conv stack of a decoupled head,
    emitting category logits. The head's box convs (a 3x3 conv and a 1x1
    conv to 4 deltas) come first in its stream, and their weights still
    take their place there, but nothing reads box deltas, so they are
    neither kept nor run."""

    def __init__(self, channels: int, num_categories: int, seed: "int | Stream" = 0):
        stream = _stream(seed)
        for c_out, kernel in ((channels, 3), (4, 1)):
            stream.take(channels * kernel * kernel, (c_out, channels, kernel, kernel))
        self.cls_conv = Conv(channels, channels, 3, 1, 1, act=True, seed=stream)
        self.cls_out = Conv(channels, num_categories, 1, 1, 0, act=False, seed=stream)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, Any]:
        s1, c_c1 = self.cls_conv.forward(x)
        cls, c_c2 = self.cls_out.forward(s1)
        return cls, (c_c1, c_c2)

    def backward(self, dcls: np.ndarray, cache: Any) -> np.ndarray:
        c_c1, c_c2 = cache
        ds1 = self.cls_out.backward(dcls, c_c2)
        return self.cls_conv.backward(ds1, c_c1)
