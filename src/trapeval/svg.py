"""Minimal SVG line-chart writer: axes, ticks, polyline series, legend and
vertical markers. Output is plain text with stable formatting so chart files
diff cleanly in tests."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#17becf",
)

_WIDTH = 640
_HEIGHT = 480
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 24
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 48


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _widened(lo: float, hi: float) -> float:
    """The top of a plotted range: a flat range gets a width of 1, or of
    ``|lo|`` from 2^53 on, where adding 1 to ``lo`` changes nothing."""
    if hi != lo:
        return hi
    hi = lo + 1.0
    return hi if hi != lo else lo + abs(lo)


@dataclass
class LineChart:
    title: str
    x_label: str
    y_label: str
    series: list[tuple[str, list[float], list[float]]] = field(default_factory=list)
    vlines: list[tuple[float, str]] = field(default_factory=list)

    def add_series(self, name: str, xs: list[float], ys: list[float]) -> None:
        if len(xs) != len(ys):
            raise ConfigError("series xs and ys must have equal length")
        self.series.append((name, list(map(float, xs)), list(map(float, ys))))

    def add_vline(self, x: float, label: str) -> None:
        self.vlines.append((float(x), label))

    def _bounds(self) -> tuple[float, float, float, float]:
        xs = [x for _, sx, _ in self.series for x in sx]
        ys = [y for _, _, sy in self.series for y in sy]
        xs.extend(x for x, _ in self.vlines)
        if not xs:
            xs, ys = [0.0, 1.0], [0.0, 1.0]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = (min(ys), max(ys)) if ys else (0.0, 1.0)
        return x_lo, _widened(x_lo, x_hi), y_lo, _widened(y_lo, y_hi)

    def to_svg(self) -> str:
        x_lo, x_hi, y_lo, y_hi = self._bounds()
        plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
        plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

        def px(x: float) -> float:
            return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

        def py(y: float) -> float:
            return _MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

        out = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
            f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
            f'<text x="{_WIDTH // 2}" y="20" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{self.title}</text>',
        ]
        # Axes.
        ax_bottom = _MARGIN_TOP + plot_h
        out.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{ax_bottom}" x2="{_MARGIN_LEFT + plot_w}" '
            f'y2="{ax_bottom}" stroke="#000000" stroke-width="1"/>'
        )
        out.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" '
            f'y2="{ax_bottom}" stroke="#000000" stroke-width="1"/>'
        )
        for i in range(5):
            tx = x_lo + (x_hi - x_lo) * i / 4
            ty = y_lo + (y_hi - y_lo) * i / 4
            out.append(
                f'<text x="{_fmt(px(tx))}" y="{ax_bottom + 16}" text-anchor="middle" '
                f'font-family="monospace" font-size="10">{_fmt(tx)}</text>'
            )
            out.append(
                f'<text x="{_MARGIN_LEFT - 6}" y="{_fmt(py(ty) + 3)}" text-anchor="end" '
                f'font-family="monospace" font-size="10">{_fmt(ty)}</text>'
            )
        out.append(
            f'<text x="{_MARGIN_LEFT + plot_w // 2}" y="{_HEIGHT - 10}" '
            f'text-anchor="middle" font-family="monospace" font-size="12">{self.x_label}</text>'
        )
        out.append(
            f'<text x="14" y="{_MARGIN_TOP + plot_h // 2}" text-anchor="middle" '
            f'font-family="monospace" font-size="12" '
            f'transform="rotate(-90 14 {_MARGIN_TOP + plot_h // 2})">{self.y_label}</text>'
        )
        for x, label in self.vlines:
            out.append(
                f'<line x1="{_fmt(px(x))}" y1="{_MARGIN_TOP}" x2="{_fmt(px(x))}" '
                f'y2="{ax_bottom}" stroke="#888888" stroke-width="1" stroke-dasharray="4,3"/>'
            )
            out.append(
                f'<text x="{_fmt(px(x) + 4)}" y="{_MARGIN_TOP + 12}" '
                f'font-family="monospace" font-size="10">{label}</text>'
            )
        x_span, y_span, y_base = x_hi - x_lo, y_hi - y_lo, _MARGIN_TOP + plot_h
        for idx, (name, xs, ys) in enumerate(self.series):
            color = PALETTE[idx % len(PALETTE)]
            if xs:
                # px and py inlined: the same operations in the same order;
                # "%.6g" writes what _fmt writes, and one format call writes all.
                coords = [0.0] * (2 * len(xs))
                coords[::2] = [_MARGIN_LEFT + (x - x_lo) / x_span * plot_w for x in xs]
                coords[1::2] = [y_base - (y - y_lo) / y_span * plot_h for y in ys]
                points = " ".join(["%.6g,%.6g"] * len(xs)) % tuple(coords)
                out.append(
                    f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
                )
            ly = _MARGIN_TOP + 14 * idx + 4
            lx = _MARGIN_LEFT + plot_w - 150
            out.append(
                f'<line x1="{lx}" y1="{ly}" x2="{lx + 18}" y2="{ly}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            out.append(
                f'<text x="{lx + 24}" y="{ly + 4}" font-family="monospace" '
                f'font-size="10">{name}</text>'
            )
        out.append("</svg>")
        return "\n".join(out) + "\n"

    def write(self, path: "str | Path") -> None:
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(self.to_svg())
