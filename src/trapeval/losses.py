"""Bounding-box regression losses with analytic gradients.

Implements the IoU-loss family: plain IoU, GIoU (hull-gap penalty), DIoU
(normalized center distance), CIoU (aspect-ratio consistency), EIoU
(separate width/height penalties), Focal-EIoU (IoU^gamma scaling), WIoUv1
(exponential center-distance factor) and WIoUv3 (WIoUv1 scaled by the
non-monotonic focusing coefficient r(beta)).

Gradients are taken with respect to the predicted box corners
(x1, y1, x2, y2). Conventions, chosen so the central-difference oracle and
the analytic path agree on one contract:

- min/max kinks use sub-gradient 0 (strict comparisons select the active
  branch, ties contribute nothing);
- at pred == gt (a kink at the loss minimum) the gradient is defined as 0,
  so descent started at the target stays put;
- WIoUv1 treats the hull diagonal in its exponent as a constant during
  differentiation, and WIoUv3 additionally freezes beta and r;
- for gamma > 0, Focal-EIoU is 0 with zero gradient wherever IoU = 0 (the
  formula's own vanishing-gradient behaviour, kept as written).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from struct import pack
from typing import IO, Callable, NamedTuple

from .boxes import BoundingBox, center_distance_sq, iou  # noqa: F401 (re-exported)
from .errors import ConfigError, DegenerateBoxError, DegenerateHullError, DivergedError

Vec4 = tuple[float, float, float, float]

_ZERO4: Vec4 = (0.0, 0.0, 0.0, 0.0)


class LossKind(Enum):
    IOU = "iou"
    GIOU = "giou"
    DIOU = "diou"
    CIOU = "ciou"
    EIOU = "eiou"
    FOCAL_EIOU = "focal_eiou"
    WIOU_V1 = "wiou_v1"
    WIOU_V3 = "wiou_v3"


@dataclass(frozen=True)
class LossParams:
    gamma: float = 0.5
    alpha: float = 1.9
    delta: float = 3.0

    def __post_init__(self):
        # Written so that NaN and infinity fail every check.
        if not 0 <= self.gamma < math.inf:
            raise ConfigError(f"gamma {self.gamma} must be finite and >= 0")
        if not 1 < self.alpha < math.inf:
            raise ConfigError(f"alpha {self.alpha} must be finite and > 1")
        if not 0 < self.delta < math.inf:
            raise ConfigError(f"delta {self.delta} must be finite and > 0")


# The weight WIoUv3's running mean keeps on its previous value per observation.
WIOU_MOMENTUM = 0.99


class WiouState(NamedTuple):
    """Running mean of the plain IoU loss, seeded by the first observation."""

    mean_iou_loss: float = 0.0
    sample_count: int = 0

    def observe(self, iou_loss: float) -> "WiouState":
        if self.sample_count == 0:
            return WiouState(iou_loss, 1)
        mean = WIOU_MOMENTUM * self.mean_iou_loss + (1.0 - WIOU_MOMENTUM) * iou_loss
        return WiouState(mean, self.sample_count + 1)


class LossEval(NamedTuple):
    value: float
    grad: Vec4


def _vadd(a: Vec4, b: Vec4) -> Vec4:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def _vscale(a: Vec4, s: float) -> Vec4:
    return (a[0] * s, a[1] * s, a[2] * s, a[3] * s)


class _Geom:
    """Shared geometry of a (pred, gt) pair and its pred-corner derivatives.

    Each min/max is spelled as the conditional that returns what the builtin
    returns, ties and NaN included: min(x, a) is ``a if a < x else x``.
    """

    __slots__ = (
        "pred", "gt", "w", "h", "wg", "hg", "union", "d_union", "iou", "d_iou", "hull_w",
        "hull_h", "d_hull_w", "d_hull_h", "hull_area", "d_hull_area", "diag_sq", "d_diag_sq",
        "dist_sq", "d_dist_sq",
    )

    def __init__(self, pred: BoundingBox, gt: BoundingBox):
        self.pred = pred
        self.gt = gt
        x1, y1, x2, y2 = pred
        a1, b1, a2, b2 = gt
        self.w = w = x2 - x1
        self.h = h = y2 - y1
        self.wg = wg = a2 - a1
        self.hg = hg = b2 - b1

        iw = (a2 if a2 < x2 else x2) - (a1 if a1 > x1 else x1)
        ih = (b2 if b2 < y2 else y2) - (b1 if b1 > y1 else y1)
        if iw > 0.0 and ih > 0.0:
            inter = iw * ih
            # Active-branch indicators; ties contribute sub-gradient 0.
            i0 = -ih if x1 > a1 else 0.0
            i1 = -iw if y1 > b1 else 0.0
            i2 = ih if x2 < a2 else 0.0
            i3 = iw if y2 < b2 else 0.0
        else:
            inter = i0 = i1 = i2 = i3 = 0.0
        self.union = union = w * h + wg * hg - inter
        # d_area = (-h, -w, h, w) less d_inter.
        u0, u1, u2, u3 = -h - i0, -w - i1, h - i2, w - i3
        self.d_union = (u0, u1, u2, u3)
        if union > 0.0:
            uu = union * union
            self.iou = inter / union
            try:
                self.d_iou = (
                    (i0 * union - inter * u0) / uu,
                    (i1 * union - inter * u1) / uu,
                    (i2 * union - inter * u2) / uu,
                    (i3 * union - inter * u3) / uu,
                )
            except ZeroDivisionError:  # the union's square underflowed
                raise _underflow_error(pred, gt) from None
        else:
            self.iou = 0.0
            self.d_iou = _ZERO4

        # Enclosing hull.
        self.hull_w = hull_w = (a2 if a2 > x2 else x2) - (a1 if a1 < x1 else x1)
        self.hull_h = hull_h = (b2 if b2 > y2 else y2) - (b1 if b1 < y1 else y1)
        self.hull_area = hull_w * hull_h
        w0 = -1.0 if x1 < a1 else 0.0
        w2 = 1.0 if x2 > a2 else 0.0
        h1 = -1.0 if y1 < b1 else 0.0
        h3 = 1.0 if y2 > b2 else 0.0
        self.d_hull_w = (w0, 0.0, w2, 0.0)
        self.d_hull_h = (0.0, h1, 0.0, h3)
        self.d_hull_area = (
            w0 * hull_h + hull_w * 0.0,
            0.0 * hull_h + hull_w * h1,
            w2 * hull_h + hull_w * 0.0,
            0.0 * hull_h + hull_w * h3,
        )

        # Squared hull diagonal and squared center distance.
        try:
            self.diag_sq = hull_w**2 + hull_h**2
        except OverflowError:
            raise _hull_error(pred, gt, "is too large: its squared diagonal overflows") from None
        self.d_diag_sq = (
            2.0 * hull_w * w0 + 2.0 * hull_h * 0.0,
            2.0 * hull_w * 0.0 + 2.0 * hull_h * h1,
            2.0 * hull_w * w2 + 2.0 * hull_h * 0.0,
            2.0 * hull_w * 0.0 + 2.0 * hull_h * h3,
        )
        dx = (x1 + x2) / 2.0 - (a1 + a2) / 2.0
        dy = (y1 + y2) / 2.0 - (b1 + b2) / 2.0
        self.dist_sq = dx * dx + dy * dy
        self.d_dist_sq = (dx, dy, dx, dy)


def _hull_error(pred: BoundingBox, gt: BoundingBox, what: str) -> DegenerateHullError:
    return DegenerateHullError(f"enclosing hull of {pred} and {gt} {what}")


def _underflow_error(pred: BoundingBox, gt: BoundingBox) -> DegenerateBoxError:
    return DegenerateBoxError(f"loss of {pred} against {gt} is undefined: a squared size underflows to zero")


def _is_identical(pred: BoundingBox, gt: BoundingBox) -> bool:
    return (
        pred.x1 == gt.x1 and pred.y1 == gt.y1 and pred.x2 == gt.x2 and pred.y2 == gt.y2
        and pred.area > 0.0
    )


# Each kind's core maps the pair's geometry and the loss parameters to the
# value and gradient; evaluate_loss runs it.
def _iou_core(g: _Geom, params: LossParams) -> tuple[float, Vec4]:
    return 1.0 - g.iou, _vscale(g.d_iou, -1.0)


def loss_iou(pred: BoundingBox, gt: BoundingBox) -> LossEval:
    """1 - IoU. Zero gradient on disjoint pairs (IoU is locally constant)."""
    return evaluate_loss(LossKind.IOU, pred, gt)[0]


def _giou_core(g: _Geom, params: LossParams) -> tuple[float, Vec4]:
    value, grad = _iou_core(g, params)
    if g.hull_area > 0.0:
        ha, u, du, dh = g.hull_area, g.union, g.d_union, g.d_hull_area
        c2 = ha * ha
        value += (ha - u) / ha
        grad = (
            grad[0] + -(du[0] * ha - u * dh[0]) / c2,
            grad[1] + -(du[1] * ha - u * dh[1]) / c2,
            grad[2] + -(du[2] * ha - u * dh[2]) / c2,
            grad[3] + -(du[3] * ha - u * dh[3]) / c2,
        )
    return value, grad


def loss_giou(pred: BoundingBox, gt: BoundingBox) -> LossEval:
    """IoU loss plus the hull-gap penalty (hull - union) / hull."""
    return evaluate_loss(LossKind.GIOU, pred, gt)[0]


def _diou_core(g: _Geom, params: LossParams) -> tuple[float, Vec4]:
    if g.diag_sq <= 0.0:
        raise _hull_error(g.pred, g.gt, "has zero diagonal")
    value, grad = _iou_core(g, params)
    c, d, dd, dc = g.diag_sq, g.dist_sq, g.d_dist_sq, g.d_diag_sq
    q = c * c
    value += d / c
    return value, (
        grad[0] + (dd[0] * c - d * dc[0]) / q,
        grad[1] + (dd[1] * c - d * dc[1]) / q,
        grad[2] + (dd[2] * c - d * dc[2]) / q,
        grad[3] + (dd[3] * c - d * dc[3]) / q,
    )


def _ciou_core(g: _Geom, params: LossParams) -> tuple[float, Vec4]:
    if g.h <= 0.0 or g.hg <= 0.0:
        raise DegenerateBoxError(f"aspect ratio undefined: {g.pred} or {g.gt} has zero height")
    value, grad = _diou_core(g, params)

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
        v2, vv, ss = 2.0 * v, v * v, s * s
        value += vv / s
        grad = (
            grad[0] + (v2 * dv[0] * s - vv * (d_liou[0] + dv[0])) / ss,
            grad[1] + (v2 * dv[1] * s - vv * (d_liou[1] + dv[1])) / ss,
            grad[2] + (v2 * dv[2] * s - vv * (d_liou[2] + dv[2])) / ss,
            grad[3] + (v2 * dv[3] * s - vv * (d_liou[3] + dv[3])) / ss,
        )
    return value, grad


def _eiou_core(g: _Geom, params: LossParams) -> tuple[float, Vec4]:
    if g.hull_w <= 0.0 or g.hull_h <= 0.0:
        raise _hull_error(g.pred, g.gt, "has a zero side")
    value, grad = _diou_core(g, params)
    dw_diff = g.w - g.wg
    dh_diff = g.h - g.hg
    w2 = g.hull_w * g.hull_w
    h2 = g.hull_h * g.hull_h
    value += dw_diff * dw_diff / w2 + dh_diff * dh_diff / h2
    # d/dcorner of dw_diff^2 / w2 and dh_diff^2 / h2; dw = (-1,0,1,0), dh = (0,-1,0,1).
    w1, h1 = 2.0 * dw_diff, 2.0 * dh_diff
    ww, hh = w1 * dw_diff, h1 * dh_diff
    wc, hc = w2 * g.hull_w, h2 * g.hull_h
    dw, dh = g.d_hull_w, g.d_hull_h
    return value, (
        grad[0] + ((w1 * -1.0) / w2 - ww * dw[0] / wc) + ((h1 * 0.0) / h2 - hh * dh[0] / hc),
        grad[1] + ((w1 * 0.0) / w2 - ww * dw[1] / wc) + ((h1 * -1.0) / h2 - hh * dh[1] / hc),
        grad[2] + ((w1 * 1.0) / w2 - ww * dw[2] / wc) + ((h1 * 0.0) / h2 - hh * dh[2] / hc),
        grad[3] + ((w1 * 0.0) / w2 - ww * dw[3] / wc) + ((h1 * 1.0) / h2 - hh * dh[3] / hc),
    )


def _focal_eiou_core(g: _Geom, params: LossParams) -> tuple[float, Vec4]:
    gamma = params.gamma
    if gamma == 0.0:  # IoU^0 is 1: EIoU itself, at IoU 0 too
        return _eiou_core(g, params)
    if g.iou == 0.0:
        # IoU^gamma annihilates both value and gradient; kept as the formula
        # states even though it reinstates the vanishing-gradient regime.
        return 0.0, _ZERO4
    e_value, e_grad = _eiou_core(g, params)
    scale = g.iou**gamma
    try:
        d_scale = _vscale(g.d_iou, gamma * g.iou ** (gamma - 1.0))
    except OverflowError:
        raise ConfigError(
            f"gamma {gamma}: the focal-EIoU gradient of {g.pred} against {g.gt} "
            f"leaves the float range (IoU^(gamma - 1) overflows at IoU {g.iou!r})"
        ) from None
    return scale * e_value, _vadd(_vscale(e_grad, scale), _vscale(d_scale, e_value))


def _wiou_v1_core(g: _Geom, params: LossParams) -> tuple[float, Vec4]:
    if g.diag_sq <= 0.0:
        raise _hull_error(g.pred, g.gt, "has zero diagonal")
    # The squared diagonal is a frozen constant here: only dist_sq carries
    # gradient through the exponential factor.
    factor = math.exp(g.dist_sq / g.diag_sq)
    liou = 1.0 - g.iou
    d_liou = _vscale(g.d_iou, -1.0)
    c, dd = g.diag_sq, g.d_dist_sq
    return factor * liou, (
        factor * (dd[0] / c) * liou + factor * d_liou[0],
        factor * (dd[1] / c) * liou + factor * d_liou[1],
        factor * (dd[2] / c) * liou + factor * d_liou[2],
        factor * (dd[3] / c) * liou + factor * d_liou[3],
    )


def outlier_degree(
    current_iou_loss: float, state: WiouState
) -> float:
    """beta = current detached IoU loss over the running mean IoU loss."""
    if state.sample_count == 0:
        # Bootstrap: the first sample defines the mean, so it is exactly average.
        return 1.0
    if state.mean_iou_loss <= 0.0:
        if current_iou_loss == 0.0:
            return 1.0
        raise ConfigError("running mean of IoU loss is not positive")
    return current_iou_loss / state.mean_iou_loss


def focusing_coefficient(beta: float, params: LossParams | None = None) -> float:
    """r(beta) = beta / (delta * alpha^(beta - delta)).

    Non-monotonic: rises on [0, 1/ln(alpha)), falls after; r(delta) = 1.
    """
    params = params or LossParams()
    if beta < 0:
        raise ConfigError("beta must be >= 0")
    try:
        return beta / (params.delta * params.alpha ** (beta - params.delta))
    except (OverflowError, ZeroDivisionError):
        raise ConfigError(
            f"alpha {params.alpha} and delta {params.delta}: r({beta}) = "
            "beta / (delta * alpha^(beta - delta)) leaves the float range"
        ) from None


# WIoUv3 is WIoUv1's core scaled by r.
_CORES: dict[LossKind, Callable[[_Geom, LossParams], tuple[float, Vec4]]] = {
    LossKind.IOU: _iou_core,
    LossKind.GIOU: _giou_core,
    LossKind.DIOU: _diou_core,
    LossKind.CIOU: _ciou_core,
    LossKind.EIOU: _eiou_core,
    LossKind.FOCAL_EIOU: _focal_eiou_core,
    LossKind.WIOU_V1: _wiou_v1_core,
    LossKind.WIOU_V3: _wiou_v1_core,
}


# Read once: on Python 3.11 looking up an Enum member on its class takes
# about 100 ns, ten times a global.
_WIOU_V3 = LossKind.WIOU_V3


def evaluate_loss(
    kind: LossKind,
    pred: BoundingBox,
    gt: BoundingBox,
    params: LossParams | None = None,
    state: WiouState | None = None,
) -> tuple[LossEval, WiouState | None]:
    """The loss of the pair and its gradient, zero with zero gradient at
    pred == gt. Returns WIoUv3's state (a fresh running mean for None)
    advanced by the current detached IoU loss, every other kind's as given.
    """
    core = _CORES[kind]
    params = params or LossParams()
    wiou_v3 = kind is _WIOU_V3
    if wiou_v3:
        state = state or WiouState()
        current = 1.0 - iou(pred, gt)
        r = focusing_coefficient(outlier_degree(current, state), params)
        state = state.observe(current)
    if _is_identical(pred, gt):
        return LossEval(0.0, _ZERO4), state
    # Each core divides only by positive values and their squares and cubes,
    # which are zero only where they underflow.
    try:
        value, grad = core(_Geom(pred, gt), params)
    except ZeroDivisionError:
        raise _underflow_error(pred, gt) from None
    if wiou_v3:
        return LossEval(r * value, _vscale(grad, r)), state
    return LossEval(value, grad), state


def finite_diff_grad(
    kind: LossKind,
    pred: BoundingBox,
    gt: BoundingBox,
    h: float = 1e-6,
    params: LossParams | None = None,
    state: WiouState | None = None,
) -> Vec4:
    """Central-difference gradient over predicted corners.

    Honors the same detach conventions as the analytic path, so away from
    kinks the two must agree: for WIoUv1 the hull diagonal of the *base*
    pair stays in the exponent; for WIoUv3 additionally beta and r are
    fixed. All other kinds are evaluated plainly.
    """
    if h <= 0:
        raise ConfigError("step h must be > 0")
    params = params or LossParams()
    if kind is LossKind.WIOU_V1 or kind is LossKind.WIOU_V3:
        base = _Geom(pred, gt)
        if base.diag_sq <= 0.0:
            raise _hull_error(pred, gt, "has zero diagonal")
        diag_sq = base.diag_sq
        r = 1.0
        if kind is LossKind.WIOU_V3:
            r = focusing_coefficient(outlier_degree(1.0 - base.iou, state or WiouState()), params)

        def f(p: BoundingBox) -> float:
            g = _Geom(p, gt)
            return r * math.exp(g.dist_sq / diag_sq) * (1.0 - g.iou)

    else:

        def f(p: BoundingBox) -> float:
            return evaluate_loss(kind, p, gt, params, state)[0].value

    base = list(pred.corners())
    grad = []
    for i in range(4):
        hi = list(base)
        lo = list(base)
        hi[i] += h
        lo[i] -= h
        grad.append((f(BoundingBox(*hi)) - f(BoundingBox(*lo))) / (2.0 * h))
    return tuple(grad)  # type: ignore[return-value]


class TrajectoryRow(NamedTuple):
    iteration: int
    loss: float
    iou: float
    center_dist: float
    area: float
    box: BoundingBox


@dataclass(frozen=True)
class Trajectory:
    kind: LossKind
    rows: tuple[TrajectoryRow, ...]


TRAJECTORY_CSV_HEADER = ["iter", "loss", "iou", "center_dist", "area", "x1", "y1", "x2", "y2"]


_TRAJECTORY_CSV_ROW = "%d," + ",".join(["%.12g"] * 8) + "\n"


def write_trajectory_csv(trajectory: Trajectory, stream: IO[str]) -> None:
    # The bytes csv.writer writes: no %.12g number ever needs quoting, and
    # %.12g writes what format(v, ".12g") writes.
    rows = trajectory.rows
    # Per row: iteration, loss, iou, center_dist, area, then the box's corners.
    flat = tuple(chain.from_iterable([r[:5] + r[5] for r in rows]))
    stream.write(",".join(TRAJECTORY_CSV_HEADER) + "\n" + _TRAJECTORY_CSV_ROW * len(rows) % flat)


DEFAULT_ARENA = (-1e4, -1e4, 1e4, 1e4)


def check_descent(step: float, iters: int) -> None:
    """The descent step must be positive and finite and run at least one iteration."""
    if not 0 < step < math.inf:
        raise ConfigError(f"step {step} must be finite and > 0")
    if iters < 1:
        raise ConfigError(f"iters {iters} must be >= 1")


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

    The descent stops stepping at a fixed point: when the stepped, ordered
    corners equal the current ones bit for bit (the sign of zero included)
    and the evaluation handed back the state it was given (every kind but
    WIoUv3), every later row is that row with only ``iteration`` changed.
    Plain IoU and Focal-EIoU have zero gradient on every box disjoint from
    the target, so losslab's default descents of those two kinds evaluate
    their loss once, not 501 times; with the one-call CSV writer, losslab's
    wall_s fell from 0.0625 to 0.0501 s in BENCH_28.json.
    """
    check_descent(step, iters)
    params = params or LossParams()
    state = None  # evaluate_loss starts WIoUv3 from WiouState()

    # Each step works on four floats; min/max/sorted are spelled as the
    # conditionals that return what the builtins return, ties and NaN included.
    xmin, ymin, xmax, ymax = DEFAULT_ARENA
    a1, b1, a2, b2 = gt.x1, gt.y1, gt.x2, gt.y2
    gt_area = (a2 - a1) * (b2 - b1)
    gcx, gcy = (a1 + a2) / 2.0, (b1 + b2) / 2.0
    isfinite = math.isfinite
    x1, y1, x2, y2 = start.normalized().corners()
    rows: list[TrajectoryRow] = []
    for it in range(iters + 1):
        # Clamp to the arena: min(max(v, lo), hi).
        x1 = xmin if xmin > x1 else x1
        x1 = xmax if xmax < x1 else x1
        y1 = ymin if ymin > y1 else y1
        y1 = ymax if ymax < y1 else y1
        x2 = xmin if xmin > x2 else x2
        x2 = xmax if xmax < x2 else x2
        y2 = ymin if ymin > y2 else y2
        y2 = ymax if ymax < y2 else y2
        box = BoundingBox(x1, y1, x2, y2)
        ev, next_state = evaluate_loss(kind, box, gt, params, state)
        value = ev.value
        g0, g1, g2, g3 = ev.grad
        # A sum of finite values may overflow: only then look at each one.
        if not isfinite(value + g0 + g1 + g2 + g3 + x1 + y1 + x2 + y2) and not all(
            map(isfinite, (value, g0, g1, g2, g3, x1, y1, x2, y2))
        ):
            raise DivergedError(it)
        # boxes.iou, center_distance_sq and BoundingBox.area, operation for operation.
        iw = (a2 if a2 < x2 else x2) - (a1 if a1 > x1 else x1)
        ih = (b2 if b2 < y2 else y2) - (b1 if b1 > y1 else y1)
        inter = 0.0 if iw <= 0.0 or ih <= 0.0 else iw * ih
        area = (x2 - x1) * (y2 - y1)
        union = area + gt_area - inter
        row = TrajectoryRow(
            it,
            value,
            0.0 if union <= 0.0 else inter / union,
            math.sqrt(((x1 + x2) / 2.0 - gcx) ** 2 + ((y1 + y2) / 2.0 - gcy) ** 2),
            area,
            box,
        )
        rows.append(row)
        if it == iters:
            break
        corners = (x1, y1, x2, y2)
        # Step, then order each pair as sorted() does.
        x1, x2 = x1 - step * g0, x2 - step * g2
        y1, y2 = y1 - step * g1, y2 - step * g3
        if x2 < x1:
            x1, x2 = x2, x1
        if y2 < y1:
            y1, y2 = y2, y1
        stepped = (x1, y1, x2, y2)
        # == takes -0.0 for 0.0; the packed bits do not.
        if next_state is state and stepped == corners and pack("4d", *stepped) == pack("4d", *corners):
            # A fixed point: every later evaluation, and row, repeats this one.
            rows += [TrajectoryRow(i, *row[1:]) for i in range(it + 1, iters + 1)]
            break
        state = next_state
    return Trajectory(kind, tuple(rows))
