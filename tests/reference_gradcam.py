"""``trapeval.gradcam.pin_selector`` as it was before the choice of an open
selector's head scale moved into ``ScoreSelector.resolve(run, layer)``,
kept verbatim as a definition-level oracle: it lists the scales the layer
can influence, then resolves the selector once per scale and keeps the
first best. ``test_gradcam.py`` checks that the folded ``pin_selector``
pins the same scale and cell with the same value, or raises the same error.
"""

from __future__ import annotations

from dataclasses import replace

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
