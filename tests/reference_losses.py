"""The loss geometry, loss functions, descent and CSV writer of trapeval.losses
as they were before each descent step became one pass on plain floats.

Kept verbatim as the definition-level oracle for
``test_losses_reference.py``: the fast path must give the same value and
gradient (by ``repr``), the same trajectories and the same CSV bytes. Types,
parameters and the shared helpers come from the package.
"""

from __future__ import annotations

import csv
import math
from typing import IO, Callable

from trapeval.boxes import BoundingBox, center_distance_sq, iou
from trapeval.errors import DegenerateBoxError, DegenerateHullError, DivergedError
from trapeval.losses import (
    DEFAULT_ARENA,
    TRAJECTORY_CSV_HEADER,
    LossEval,
    LossKind,
    LossParams,
    Trajectory,
    TrajectoryRow,
    WiouState,
    check_descent,
    focusing_coefficient,
    outlier_degree,
)

Vec4 = tuple[float, float, float, float]

_ZERO4: Vec4 = (0.0, 0.0, 0.0, 0.0)


def _vadd(a: Vec4, b: Vec4) -> Vec4:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def _vscale(a: Vec4, s: float) -> Vec4:
    return (a[0] * s, a[1] * s, a[2] * s, a[3] * s)


class _Geom:
    """Shared geometry of a (pred, gt) pair and its pred-corner derivatives."""

    def __init__(self, pred: BoundingBox, gt: BoundingBox):
        self.pred, self.gt = pred, gt
        x1, y1, x2, y2 = pred.corners()
        a1, b1, a2, b2 = gt.corners()
        self.w = x2 - x1
        self.h = y2 - y1
        self.wg = a2 - a1
        self.hg = b2 - b1
        self.area_p = self.w * self.h
        self.area_g = self.wg * self.hg
        self.d_area: Vec4 = (-self.h, -self.w, self.h, self.w)

        iw = min(x2, a2) - max(x1, a1)
        ih = min(y2, b2) - max(y1, b1)
        if iw > 0.0 and ih > 0.0:
            self.inter = iw * ih
            # Active-branch indicators; ties contribute sub-gradient 0.
            self.d_inter: Vec4 = (
                -ih if x1 > a1 else 0.0,
                -iw if y1 > b1 else 0.0,
                ih if x2 < a2 else 0.0,
                iw if y2 < b2 else 0.0,
            )
        else:
            self.inter = 0.0
            self.d_inter = _ZERO4
        self.union = self.area_p + self.area_g - self.inter
        self.d_union: Vec4 = (
            self.d_area[0] - self.d_inter[0],
            self.d_area[1] - self.d_inter[1],
            self.d_area[2] - self.d_inter[2],
            self.d_area[3] - self.d_inter[3],
        )

        if self.union > 0.0:
            u2 = self.union * self.union
            self.iou = self.inter / self.union
            self.d_iou: Vec4 = tuple(
                (self.d_inter[i] * self.union - self.inter * self.d_union[i]) / u2
                for i in range(4)
            )  # type: ignore[assignment]
        else:
            self.iou = 0.0
            self.d_iou = _ZERO4

        # Enclosing hull.
        self.hull_w = max(x2, a2) - min(x1, a1)
        self.hull_h = max(y2, b2) - min(y1, b1)
        self.hull_area = self.hull_w * self.hull_h
        self.d_hull_w: Vec4 = (
            -1.0 if x1 < a1 else 0.0,
            0.0,
            1.0 if x2 > a2 else 0.0,
            0.0,
        )
        self.d_hull_h: Vec4 = (
            0.0,
            -1.0 if y1 < b1 else 0.0,
            0.0,
            1.0 if y2 > b2 else 0.0,
        )
        self.d_hull_area: Vec4 = tuple(
            self.d_hull_w[i] * self.hull_h + self.hull_w * self.d_hull_h[i]
            for i in range(4)
        )  # type: ignore[assignment]

        # Squared hull diagonal and squared center distance.
        self.diag_sq = self.hull_w**2 + self.hull_h**2
        self.d_diag_sq: Vec4 = tuple(
            2.0 * self.hull_w * self.d_hull_w[i] + 2.0 * self.hull_h * self.d_hull_h[i]
            for i in range(4)
        )  # type: ignore[assignment]
        dx = (x1 + x2) / 2.0 - (a1 + a2) / 2.0
        dy = (y1 + y2) / 2.0 - (b1 + b2) / 2.0
        self.dist_sq = dx * dx + dy * dy
        self.d_dist_sq: Vec4 = (dx, dy, dx, dy)


def _is_identical(pred: BoundingBox, gt: BoundingBox) -> bool:
    return pred.corners() == gt.corners() and pred.area > 0.0


def _iou_core(g: _Geom) -> tuple[float, Vec4]:
    return 1.0 - g.iou, _vscale(g.d_iou, -1.0)


def _from_core(
    core: Callable[[_Geom], tuple[float, Vec4]], pred: BoundingBox, gt: BoundingBox
) -> LossEval:
    """The core loss of the pair; zero with zero gradient at pred == gt."""
    if _is_identical(pred, gt):
        return LossEval(0.0, _ZERO4)
    return LossEval(*core(_Geom(pred, gt)))


def loss_iou(pred: BoundingBox, gt: BoundingBox) -> LossEval:
    """1 - IoU. Zero gradient on disjoint pairs (IoU is locally constant)."""
    return _from_core(_iou_core, pred, gt)


def loss_giou(pred: BoundingBox, gt: BoundingBox) -> LossEval:
    """IoU loss plus the hull-gap penalty (hull - union) / hull."""
    if _is_identical(pred, gt):
        return LossEval(0.0, _ZERO4)
    g = _Geom(pred, gt)
    value, grad = _iou_core(g)
    if g.hull_area > 0.0:
        c2 = g.hull_area * g.hull_area
        value += (g.hull_area - g.union) / g.hull_area
        d_pen = tuple(
            -(g.d_union[i] * g.hull_area - g.union * g.d_hull_area[i]) / c2
            for i in range(4)
        )
        grad = _vadd(grad, d_pen)  # type: ignore[arg-type]
    return LossEval(value, grad)


def _diou_core(g: _Geom) -> tuple[float, Vec4]:
    if g.diag_sq <= 0.0:
        raise DegenerateHullError(f"enclosing hull of {g.pred} and {g.gt} has zero diagonal")
    value, grad = _iou_core(g)
    q = g.diag_sq * g.diag_sq
    value += g.dist_sq / g.diag_sq
    d_pen = tuple(
        (g.d_dist_sq[i] * g.diag_sq - g.dist_sq * g.d_diag_sq[i]) / q for i in range(4)
    )
    return value, _vadd(grad, d_pen)  # type: ignore[arg-type]


def loss_diou(pred: BoundingBox, gt: BoundingBox) -> LossEval:
    """IoU loss plus center distance normalized by the squared hull diagonal."""
    return _from_core(_diou_core, pred, gt)


def loss_ciou(pred: BoundingBox, gt: BoundingBox) -> LossEval:
    """DIoU plus the aspect-ratio consistency term alpha * v."""
    if _is_identical(pred, gt):
        return LossEval(0.0, _ZERO4)
    g = _Geom(pred, gt)
    if g.h <= 0.0 or g.hg <= 0.0:
        raise DegenerateBoxError(f"aspect ratio undefined: {g.pred} or {g.gt} has zero height")
    value, grad = _diou_core(g)

    k = 4.0 / math.pi**2
    t = math.atan(g.w / g.h)
    tg = math.atan(g.wg / g.hg)
    v = k * (t - tg) ** 2
    if v > 0.0:
        # d atan(w/h) over corners; dw = (-1,0,1,0), dh = (0,-1,0,1).
        denom = g.w * g.w + g.h * g.h
        dt: Vec4 = (
            -g.h / denom,
            g.w / denom,
            g.h / denom,
            -g.w / denom,
        )
        dv = _vscale(dt, 2.0 * k * (t - tg))
        liou = 1.0 - g.iou
        d_liou = _vscale(g.d_iou, -1.0)
        # alpha * v = v^2 / (liou + v), differentiated through alpha as well.
        s = liou + v
        value += v * v / s
        d_term = tuple(
            (2.0 * v * dv[i] * s - v * v * (d_liou[i] + dv[i])) / (s * s)
            for i in range(4)
        )
        grad = _vadd(grad, d_term)  # type: ignore[arg-type]
    return LossEval(value, grad)


def _eiou_core(g: _Geom) -> tuple[float, Vec4]:
    if g.hull_w <= 0.0 or g.hull_h <= 0.0:
        raise DegenerateHullError(f"enclosing hull of {g.pred} and {g.gt} has a zero side")
    value, grad = _diou_core(g)
    dw_diff = g.w - g.wg
    dh_diff = g.h - g.hg
    w2 = g.hull_w * g.hull_w
    h2 = g.hull_h * g.hull_h
    value += dw_diff * dw_diff / w2 + dh_diff * dh_diff / h2
    d_w_term: Vec4 = tuple(
        (2.0 * dw_diff * (-1.0 if i == 0 else 1.0 if i == 2 else 0.0)) / w2
        - 2.0 * dw_diff * dw_diff * g.d_hull_w[i] / (w2 * g.hull_w)
        for i in range(4)
    )  # type: ignore[assignment]
    d_h_term: Vec4 = tuple(
        (2.0 * dh_diff * (-1.0 if i == 1 else 1.0 if i == 3 else 0.0)) / h2
        - 2.0 * dh_diff * dh_diff * g.d_hull_h[i] / (h2 * g.hull_h)
        for i in range(4)
    )  # type: ignore[assignment]
    return value, _vadd(_vadd(grad, d_w_term), d_h_term)


def loss_eiou(pred: BoundingBox, gt: BoundingBox) -> LossEval:
    """DIoU plus width and height differences normalized by the hull sides."""
    return _from_core(_eiou_core, pred, gt)


def loss_focal_eiou(
    pred: BoundingBox, gt: BoundingBox, params: LossParams | None = None
) -> LossEval:
    """EIoU scaled by IoU^gamma; identically zero wherever IoU is zero."""
    params = params or LossParams()
    if params.gamma == 0.0:
        return loss_eiou(pred, gt)
    if _is_identical(pred, gt):
        return LossEval(0.0, _ZERO4)
    g = _Geom(pred, gt)
    if g.iou == 0.0:
        # IoU^gamma annihilates both value and gradient; kept as the formula
        # states even though it reinstates the vanishing-gradient regime.
        return LossEval(0.0, _ZERO4)
    e_value, e_grad = _eiou_core(g)
    scale = g.iou**params.gamma
    d_scale = _vscale(g.d_iou, params.gamma * g.iou ** (params.gamma - 1.0))
    grad = _vadd(_vscale(e_grad, scale), _vscale(d_scale, e_value))
    return LossEval(scale * e_value, grad)


def _wiou_v1_core(g: _Geom) -> tuple[float, Vec4]:
    if g.diag_sq <= 0.0:
        raise DegenerateHullError(f"enclosing hull of {g.pred} and {g.gt} has zero diagonal")
    # The squared diagonal is a frozen constant here: only dist_sq carries
    # gradient through the exponential factor.
    factor = math.exp(g.dist_sq / g.diag_sq)
    liou = 1.0 - g.iou
    d_liou = _vscale(g.d_iou, -1.0)
    value = factor * liou
    grad = tuple(
        factor * (g.d_dist_sq[i] / g.diag_sq) * liou + factor * d_liou[i]
        for i in range(4)
    )
    return value, grad  # type: ignore[return-value]


def loss_wiou_v1(pred: BoundingBox, gt: BoundingBox) -> LossEval:
    """IoU loss amplified by exp(center_dist^2 / hull_diag^2)."""
    return _from_core(_wiou_v1_core, pred, gt)


def loss_wiou_v3(
    pred: BoundingBox,
    gt: BoundingBox,
    state: WiouState,
    params: LossParams | None = None,
) -> tuple[LossEval, WiouState]:
    """r(beta) * WIoUv1, with beta from the running-mean state.

    beta and r are constants during differentiation. Returns the loss and the
    state advanced by the current detached IoU loss.
    """
    params = params or LossParams()
    current = 1.0 - iou(pred, gt)
    beta = outlier_degree(current, state)
    r = focusing_coefficient(beta, params)
    new_state = state.observe(current)
    if _is_identical(pred, gt):
        return LossEval(0.0, _ZERO4), new_state
    value, grad = _wiou_v1_core(_Geom(pred, gt))
    return LossEval(r * value, _vscale(grad, r)), new_state


def _stateless(loss: Callable[[BoundingBox, BoundingBox], LossEval]) -> Callable:
    return lambda pred, gt, params, state: (loss(pred, gt), state)


def _wiou_v3_focus(base: _Geom, params: LossParams, state: WiouState | None) -> float:
    return focusing_coefficient(outlier_degree(1.0 - base.iou, state or WiouState()), params)


# kind -> (evaluate(pred, gt, params, state) -> (loss, next state), focus).
# focus(base geometry, params, state) is set for the WIoU kinds only: the
# factor r that the finite-difference oracle holds at its base-pair value,
# together with the base hull diagonal.
LOSSES: dict[LossKind, tuple[Callable, Callable | None]] = {
    LossKind.IOU: (_stateless(loss_iou), None),
    LossKind.GIOU: (_stateless(loss_giou), None),
    LossKind.DIOU: (_stateless(loss_diou), None),
    LossKind.CIOU: (_stateless(loss_ciou), None),
    LossKind.EIOU: (_stateless(loss_eiou), None),
    LossKind.FOCAL_EIOU: (
        lambda p, g, params, state: (loss_focal_eiou(p, g, params), state), None
    ),
    LossKind.WIOU_V1: (_stateless(loss_wiou_v1), lambda base, params, state: 1.0),
    LossKind.WIOU_V3: (
        lambda p, g, params, state: loss_wiou_v3(p, g, state or WiouState(), params),
        _wiou_v3_focus,
    ),
}


def evaluate_loss(
    kind: LossKind,
    pred: BoundingBox,
    gt: BoundingBox,
    params: LossParams | None = None,
    state: WiouState | None = None,
) -> tuple[LossEval, WiouState | None]:
    """Uniform dispatch; returns the updated state for WIoUv3, else the input."""
    return LOSSES[kind][0](pred, gt, params or LossParams(), state)



def write_trajectory_csv(trajectory: Trajectory, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(TRAJECTORY_CSV_HEADER)
    for row in trajectory.rows:
        b = row.box
        writer.writerow(
            [row.iteration]
            + [f"{v:.12g}" for v in (row.loss, row.iou, row.center_dist, row.area)]
            + [f"{v:.12g}" for v in (b.x1, b.y1, b.x2, b.y2)]
        )



def simulate_regression(
    kind: LossKind,
    start: BoundingBox,
    gt: BoundingBox,
    step: float,
    iters: int,
    params: LossParams | None = None,
) -> Trajectory:
    """Plain gradient descent on the chosen loss over predicted corners,
    WIoUv3's from a fresh running mean.

    Corners are re-ordered and clamped to DEFAULT_ARENA after every step so
    the box never inverts mid-descent. Raises DivergedError (naming the
    iteration) if any value goes non-finite.
    """
    check_descent(step, iters)
    params = params or LossParams()
    state = WiouState() if kind is LossKind.WIOU_V3 else None

    def clamp(b: BoundingBox) -> BoundingBox:
        xmin, ymin, xmax, ymax = DEFAULT_ARENA
        return BoundingBox(
            min(max(b.x1, xmin), xmax),
            min(max(b.y1, ymin), ymax),
            min(max(b.x2, xmin), xmax),
            min(max(b.y2, ymin), ymax),
        )

    box = clamp(start.normalized())
    rows: list[TrajectoryRow] = []
    for it in range(iters + 1):
        ev, state = evaluate_loss(kind, box, gt, params, state)
        if not all(map(math.isfinite, (ev.value, *ev.grad, *box.corners()))):
            raise DivergedError(it)
        rows.append(
            TrajectoryRow(
                iteration=it,
                loss=ev.value,
                iou=iou(box, gt),
                center_dist=math.sqrt(center_distance_sq(box, gt)),
                area=box.area,
                box=box,
            )
        )
        if it == iters:
            break
        moved = BoundingBox(
            box.x1 - step * ev.grad[0],
            box.y1 - step * ev.grad[1],
            box.x2 - step * ev.grad[2],
            box.y2 - step * ev.grad[3],
        )
        box = clamp(moved.normalized())
    return Trajectory(kind, tuple(rows))
