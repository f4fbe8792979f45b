"""trapeval: box-regression losses, detection metrics, a small CNN graph
engine with gradient-based heatmaps, and camera-trap dataset tooling.

Importing the package loads none of its submodules: each public name below
is read from its home module, which the first access imports (PEP 562).
"""

import importlib

__version__ = "0.1.0"

_HOME = {
    name: home
    for home, names in {
        "boxes": ("BoundingBox", "Detection", "GroundTruth", "center_distance_sq", "iou"),
        "errors": ("TrapevalError",),
        "losses": (
            "LossEval", "LossKind", "LossParams", "WiouState", "finite_diff_grad",
            "focusing_coefficient", "loss_giou", "loss_iou", "simulate_regression",
        ),
    }.items()
    for name in names
}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{home}", __name__), name)
