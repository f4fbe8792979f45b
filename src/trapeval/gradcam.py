"""Gradient-weighted activation heatmaps over a completed graph run.

The procedure: (1) gradients of the selected head score w.r.t. the chosen
layer via reverse mode, (2) global average of each channel's gradients as
that channel's weight, (3) weighted sum of the feature maps, (4) ReLU to keep
positive contributions, (5) nearest-neighbour upsample to image resolution
and max-normalization into [0, 1]. An all-zero rectified map stays all-zero
rather than dividing by zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._viridis import VIRIDIS_256
from .errors import ConfigError, ShapeError
from .graph import GraphRun, ScoreSelector
from .tensor import Tensor3, upsample_forward


@dataclass(frozen=True)
class Heatmap:
    """Single-channel attention map, values in [0, 1], image-sized."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"heatmap expects 2 dims, got {arr.shape}")
        object.__setattr__(self, "data", arr)


def pin_selector(run: GraphRun, layer: str, selector: ScoreSelector) -> tuple[ScoreSelector, float]:
    """Pin a selector to the head cell ``ScoreSelector.resolve`` picks for
    the layer, so the heatmap always has gradient flow."""
    si, cy, cx, value = selector.resolve(run, layer)
    return replace(selector, scale=si, cell=(cy, cx)), value


def activation_cam(grads: np.ndarray, activation: np.ndarray) -> np.ndarray:
    """Rectified gradient-weighted channel sum: global-average each channel's
    gradients into a scalar weight, weight-sum the feature maps, ReLU."""
    weights = grads.mean(axis=(1, 2))
    cam = np.tensordot(weights, activation, axes=([0], [0]))
    return np.maximum(cam, 0.0)


def normalize_unit(cam: np.ndarray) -> np.ndarray:
    """Scale a non-negative map so its peak is 1; all-zero maps stay zero."""
    peak = cam.max()
    if peak > 0.0:
        return cam / peak
    return cam.copy()


def gradcam_heatmap(run: GraphRun, layer: str, selector: ScoreSelector) -> Heatmap:
    """Weighted-channel activation map for one layer, upscaled and normalized.
    The layer's grid is checked before the backward pass, which resolves the
    selector for the layer as ``pin_selector`` does."""
    _, img_h, img_w = run.graph.spec.input_shape
    # A name no run records passes here; the backward pass rejects it.
    _, h, w = run.graph.shapes.get(layer, run.graph.spec.input_shape)
    if img_h % h != 0 or img_w % w != 0:
        raise ShapeError(
            f"layer grid {h}x{w} does not divide image size {img_h}x{img_w}"
        )
    factor = img_h // h
    if img_w // w != factor:
        raise ShapeError(f"non-uniform upsample factors for grid {h}x{w}")
    grads = run.graph.backward_to_layer(run, selector, layer).data
    cam = activation_cam(grads, run.activations[layer])
    upsampled = upsample_forward(cam[None, :, :], factor)[0]
    return Heatmap(normalize_unit(upsampled))


def colorize(heat: Heatmap) -> Tensor3:
    """Render a heatmap through the viridis table as a 3-channel byte image."""
    table = np.asarray(VIRIDIS_256, dtype=np.float64)
    position = np.clip(heat.data, 0.0, 1.0) * 255.0
    lo = position.astype(int)
    hi = np.minimum(lo + 1, 255)
    t = position - lo
    rgb = table[lo] + (table[hi] - table[lo]) * t[..., None]
    return Tensor3(np.rint(rgb).transpose(2, 0, 1))


def check_alpha(alpha: float) -> None:
    """The overlay blend weight must lie in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha {alpha} outside [0, 1]")


def overlay(image: Tensor3, colors: Tensor3, alpha: float = 0.5) -> Tensor3:
    """Blend a colorized heatmap (``colorize``'s output) onto a 3-channel
    image: alpha 0 keeps the image, alpha 1 shows the pure heatmap colors."""
    check_alpha(alpha)
    if image.channels != 3:
        raise ShapeError(f"overlay expects a 3-channel image, got {image.channels}")
    if image.shape != colors.shape:
        raise ShapeError(f"image {image.shape} vs heatmap colors {colors.shape}")
    return Tensor3((1.0 - alpha) * image.data + alpha * colors.data)
