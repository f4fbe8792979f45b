"""Two pieces of ``trapeval.gradcam`` kept verbatim as definition-level
oracles:

- ``pin_selector`` as it was before the choice of an open selector's head
  scale moved into ``ScoreSelector.resolve(run, layer)``: it lists the
  scales the layer can influence, then resolves the selector once per
  scale and keeps the first best. ``test_gradcam.py`` checks that the
  folded ``pin_selector`` pins the same scale and cell with the same value,
  or raises the same error;
- ``viridis_map``, the scalar colour lookup that ``colorize`` computes as
  array passes. ``test_gradcam.py`` checks ``colorize`` against it pixel
  for pixel.
"""

from __future__ import annotations

from dataclasses import replace

from trapeval._viridis import VIRIDIS_256
from trapeval.errors import GraphError
from trapeval.graph import GraphRun, ScoreSelector


def pin_selector(run: GraphRun, layer: str, selector: ScoreSelector) -> tuple[ScoreSelector, float]:
    """Pin an open selector to the best head cell the layer can influence.

    A selector without an explicit scale considers each head scale; only
    scales whose input path contains the layer are eligible, so the heatmap
    always has gradient flow. An explicit scale is honored as-is.
    """
    if selector.scale is not None:
        si, cy, cx, value = selector.resolve(run)
        return replace(selector, scale=si, cell=(cy, cx)), value
    graph = run.graph
    eligible = [
        i
        for i, (plane, src) in enumerate(zip(graph.planes, graph.detect_spec.inputs))
        if layer == plane or layer in graph.spec.ancestors(src)
    ]
    if not eligible:
        raise GraphError(f"layer {layer!r} is not an ancestor of any head scale")
    best: tuple[float, ScoreSelector] | None = None
    for i in eligible:
        si, cy, cx, value = replace(selector, scale=i).resolve(run)
        if best is None or value > best[0]:
            best = (value, replace(selector, scale=si, cell=(cy, cx)))
    return best[1], best[0]  # type: ignore[index]


def viridis_map(value: float) -> tuple[int, int, int]:
    """Map a [0, 1] value to RGB bytes by linear interpolation over the
    embedded 256-entry viridis table; out-of-range values are clamped."""
    v = min(max(float(value), 0.0), 1.0)
    position = v * 255.0
    lo = int(position)
    hi = min(lo + 1, 255)
    t = position - lo
    a, b = VIRIDIS_256[lo], VIRIDIS_256[hi]
    return (
        int(round(a[0] + (b[0] - a[0]) * t)),
        int(round(a[1] + (b[1] - a[1]) * t)),
        int(round(a[2] + (b[2] - a[2]) * t)),
    )
