import csv
import hashlib
import io
import math

import pytest
from hypothesis import given, settings, strategies as st

from trapeval.boxes import BoundingBox, iou
from trapeval.errors import DegenerateBoxError, DegenerateHullError, DivergedError
from trapeval.losses import (
    LossEval,
    LossKind,
    LossParams,
    TRAJECTORY_CSV_HEADER,
    TrajectoryRow,
    WIOU_MOMENTUM,
    WiouState,
    evaluate_loss,
    finite_diff_grad,
    focusing_coefficient,
    loss_giou,
    loss_iou,
    outlier_degree,
    simulate_regression,
    write_trajectory_csv,
)

from conftest import assert_value_record, gradient_pairs

OVERLAP = (BoundingBox(0, 0, 2, 2), BoundingBox(1, 1, 3, 3))
DISJOINT = (BoundingBox(0, 0, 1, 1), BoundingBox(2, 2, 3, 3))
STATE = WiouState(mean_iou_loss=0.4, sample_count=5)


def grad_norm(ev: LossEval) -> float:
    return math.sqrt(sum(g * g for g in ev.grad))


def loss(kind: LossKind, pred: BoundingBox, gt: BoundingBox, params: LossParams | None = None) -> LossEval:
    return evaluate_loss(kind, pred, gt, params)[0]


# --- spot values, each pinned by explicit hand arithmetic --------------------

def test_iou_loss_spot_values():
    pred, gt = OVERLAP
    assert loss_iou(pred, gt).value == pytest.approx(6 / 7, abs=1e-12)
    ev = loss_iou(BoundingBox(0, 0, 1, 1), BoundingBox(5, 5, 6, 6))
    assert ev.value == 1.0
    assert ev.grad == (0.0, 0.0, 0.0, 0.0)
    same = BoundingBox(0, 0, 2, 2)
    assert loss_iou(same, same).value == 0.0


def test_giou_spot_values():
    pred, gt = DISJOINT
    # hull 3x3 = 9, union 1 + 1 = 2 -> penalty 7/9
    assert loss_giou(pred, gt).value == pytest.approx(1 + 7 / 9, abs=1e-12)
    assert grad_norm(loss_giou(pred, gt)) > 0.0
    b = BoundingBox(0, 0, 2, 2)
    assert loss_giou(b, b).value == 0.0


def test_diou_spot_values():
    pred, gt = DISJOINT
    # centers (0.5, 0.5) vs (2.5, 2.5): dist^2 = 8; hull diag^2 = 9 + 9
    assert loss(LossKind.DIOU, pred, gt).value == pytest.approx(1 + 8 / 18, abs=1e-12)
    concentric_outer = BoundingBox(0, 0, 4, 4)
    concentric_inner = BoundingBox(1, 1, 3, 3)
    expected = loss_iou(concentric_outer, concentric_inner).value
    assert loss(LossKind.DIOU, concentric_outer, concentric_inner).value == pytest.approx(expected, abs=1e-12)
    b = BoundingBox(0, 0, 2, 2)
    assert loss(LossKind.DIOU, b, b).value == 0.0


def test_ciou_reduces_to_diou_for_equal_aspect():
    pred, gt = DISJOINT  # both 1:1 aspect
    assert loss(LossKind.CIOU, pred, gt).value == pytest.approx(loss(LossKind.DIOU, pred, gt).value, abs=1e-15)
    assert loss(LossKind.CIOU, pred, gt).value == pytest.approx(1 + 8 / 18, abs=1e-12)


def test_ciou_aspect_term_matches_scalar_formula():
    pred = BoundingBox(0, 0, 4, 2)  # w/h = 2
    gt = BoundingBox(0, 0, 3, 3)  # w/h = 1
    v = (4 / math.pi**2) * (math.atan(2) - math.atan(1)) ** 2
    assert v == pytest.approx(0.04196, abs=5e-6)
    liou = loss_iou(pred, gt).value
    alpha = v / (liou + v)
    expected = loss(LossKind.DIOU, pred, gt).value + alpha * v
    assert loss(LossKind.CIOU, pred, gt).value == pytest.approx(expected, abs=1e-12)


def test_ciou_zero_height_errors():
    with pytest.raises(DegenerateBoxError):
        loss(LossKind.CIOU, BoundingBox(0, 0, 1, 0), BoundingBox(2, 2, 3, 3))
    with pytest.raises(DegenerateBoxError):
        loss(LossKind.CIOU, BoundingBox(0, 0, 1, 1), BoundingBox(2, 2, 3, 2))


def test_eiou_spot_values():
    pred, gt = OVERLAP  # equal widths and heights kill the side terms
    assert loss(LossKind.EIOU, pred, gt).value == pytest.approx(6 / 7 + 2 / 18, abs=1e-12)
    pred, gt = DISJOINT
    assert loss(LossKind.EIOU, pred, gt).value == pytest.approx(1 + 8 / 18, abs=1e-12)
    b = BoundingBox(0, 0, 2, 2)
    assert loss(LossKind.EIOU, b, b).value == 0.0


def test_degenerate_hull_errors():
    point = BoundingBox(1, 1, 1, 1)
    zero_diagonal = (
        "enclosing hull of BoundingBox(x1=1, y1=1, x2=1, y2=1) and "
        "BoundingBox(x1=1, y1=1, x2=1, y2=1) has zero diagonal"
    )
    for call in (
        lambda: loss(LossKind.DIOU, point, point),
        lambda: loss(LossKind.WIOU_V1, point, point),
        lambda: finite_diff_grad(LossKind.WIOU_V3, point, point),
    ):
        with pytest.raises(DegenerateHullError) as info:
            call()
        assert str(info.value) == zero_diagonal
    zero_width = BoundingBox(1, 0, 1, 2)
    with pytest.raises(DegenerateHullError) as info:
        loss(LossKind.EIOU, zero_width, BoundingBox(1, 3, 1, 5))
    assert str(info.value) == (
        "enclosing hull of BoundingBox(x1=1, y1=0, x2=1, y2=2) and "
        "BoundingBox(x1=1, y1=3, x2=1, y2=5) has a zero side"
    )


@pytest.mark.parametrize("kind", list(LossKind))
def test_a_hull_whose_squared_diagonal_overflows_is_a_defined_error(kind):
    wide, unit = BoundingBox(0, 0, 1e200, 1), BoundingBox(0, 0, 1, 1)
    with pytest.raises(DegenerateHullError, match="squared diagonal overflows") as info:
        evaluate_loss(kind, wide, unit, state=WiouState())
    assert repr(wide) in str(info.value) and repr(unit) in str(info.value)
    # The arena clamps the predicted box, never the target.
    with pytest.raises(DegenerateHullError, match="squared diagonal overflows"):
        simulate_regression(kind, unit, wide, step=0.01, iters=5)


def test_the_hull_overflow_error_prints_both_boxes_as_before():
    with pytest.raises(DegenerateHullError) as info:
        loss(LossKind.DIOU, BoundingBox(1e200, 0, 2e200, 1), BoundingBox(0, 0, 1, 1))
    assert str(info.value) == (
        "enclosing hull of BoundingBox(x1=1e+200, y1=0, x2=2e+200, y2=1) and "
        "BoundingBox(x1=0, y1=0, x2=1, y2=1) is too large: its squared diagonal overflows"
    )


@pytest.mark.parametrize(
    "cls, fields, text, defaults",
    [
        (
            LossEval,
            dict(value=0.5, grad=(0.0, -0.25, 1.0, 0.0)),
            "LossEval(value=0.5, grad=(0.0, -0.25, 1.0, 0.0))",
            {},
        ),
        (
            WiouState,
            dict(mean_iou_loss=0.75, sample_count=4),
            "WiouState(mean_iou_loss=0.75, sample_count=4)",
            {"mean_iou_loss": 0.0, "sample_count": 0},
        ),
        (
            TrajectoryRow,
            dict(iteration=3, loss=0.25, iou=0.5, center_dist=1.0, area=2.0, box=BoundingBox(0, 0, 1, 2)),
            "TrajectoryRow(iteration=3, loss=0.25, iou=0.5, center_dist=1.0, area=2.0, "
            "box=BoundingBox(x1=0, y1=0, x2=1, y2=2))",
            {},
        ),
    ],
    ids=["loss-eval", "wiou-state", "trajectory-row"],
)
def test_loss_records_are_immutable_equal_by_value_and_print_as_before(cls, fields, text, defaults):
    assert_value_record(cls, fields, text, defaults)


def test_focal_eiou_spot_values():
    pred, gt = OVERLAP
    expected = math.sqrt(1 / 7) * (6 / 7 + 2 / 18)
    assert expected == pytest.approx(0.36597, abs=1e-5)
    assert loss(LossKind.FOCAL_EIOU, pred, gt).value == pytest.approx(expected, abs=1e-12)
    # disjoint: IoU^gamma annihilates the loss, gradient and all
    ev = loss(LossKind.FOCAL_EIOU, *DISJOINT)
    assert ev.value == 0.0 and ev.grad == (0.0, 0.0, 0.0, 0.0)
    # gamma = 0 recovers the plain loss
    params = LossParams(gamma=0.0)
    assert loss(LossKind.FOCAL_EIOU, *DISJOINT, params).value == loss(LossKind.EIOU, *DISJOINT).value


def test_wiou_v1_spot_values():
    pred, gt = OVERLAP
    expected = math.exp(2 / 18) * (6 / 7)
    assert loss(LossKind.WIOU_V1, pred, gt).value == pytest.approx(expected, abs=1e-12)
    b = BoundingBox(0, 0, 2, 2)
    assert loss(LossKind.WIOU_V1, b, b).value == 0.0
    outer, inner = BoundingBox(0, 0, 4, 4), BoundingBox(1, 1, 3, 3)
    assert loss(LossKind.WIOU_V1, outer, inner).value == pytest.approx(
        loss_iou(outer, inner).value, abs=1e-12
    )


def test_focusing_coefficient_landmarks():
    assert focusing_coefficient(3.0) == 1.0
    assert focusing_coefficient(0.0) == 0.0
    # beta = 1 with alpha 1.9, delta 3: r = 1 / (3 * 1.9^-2) = 1.9^2 / 3
    assert focusing_coefficient(1.0) == pytest.approx(1.9**2 / 3, abs=1e-12)
    with pytest.raises(ValueError):
        focusing_coefficient(-0.5)


def test_focusing_coefficient_peak_and_shape():
    params = LossParams()
    peak = 1.0 / math.log(params.alpha)
    grid = [i * 0.001 for i in range(10_001)]
    values = [focusing_coefficient(b, params) for b in grid]
    argmax = grid[values.index(max(values))]
    assert argmax == pytest.approx(peak, abs=0.002)
    rising = [b for b in grid if b < peak - 0.01]
    falling = [b for b in grid if b > peak + 0.01]
    assert all(
        focusing_coefficient(a, params) < focusing_coefficient(b, params)
        for a, b in zip(rising, rising[1:])
    )
    assert all(
        focusing_coefficient(a, params) > focusing_coefficient(b, params)
        for a, b in zip(falling, falling[1:])
    )


def test_wiou_v3_freezes_focusing_factor():
    pred, gt = OVERLAP
    ev, _ = evaluate_loss(LossKind.WIOU_V3, pred, gt, state=STATE)
    beta = (1 - iou(pred, gt)) / STATE.mean_iou_loss
    r = focusing_coefficient(beta)
    base = loss(LossKind.WIOU_V1, pred, gt)
    assert ev.value == pytest.approx(r * base.value, abs=0.0)
    for got, want in zip(ev.grad, base.grad):
        assert got == pytest.approx(r * want, abs=0.0)


def test_wiou_v3_identity_and_bootstrap():
    b = BoundingBox(0, 0, 2, 2)
    ev, state = evaluate_loss(LossKind.WIOU_V3, b, b, state=WiouState())
    assert ev.value == 0.0
    assert state.sample_count == 1 and state.mean_iou_loss == 0.0
    # bootstrap observation defines the mean, so beta = 1
    assert outlier_degree(0.7, WiouState()) == 1.0
    with pytest.raises(ValueError):
        outlier_degree(0.7, WiouState(0.0, 3))


def test_running_mean_converges_geometrically():
    state = WiouState()
    for _ in range(600):
        state = state.observe(0.25)
    assert state.mean_iou_loss == pytest.approx(0.25, abs=1e-3)
    assert state.sample_count == 600
    # seeded by the first observation, so a constant stream is exact
    fresh = WiouState().observe(0.25)
    assert fresh.mean_iou_loss == 0.25


def test_observe_weights_the_running_mean_by_wiou_momentum():
    assert WIOU_MOMENTUM == 0.99
    state = WiouState(0.5, 3).observe(0.25)
    assert state == WiouState(0.99 * 0.5 + (1.0 - 0.99) * 0.25, 4)


def test_loss_params_validation():
    with pytest.raises(ValueError):
        LossParams(gamma=-0.1)
    with pytest.raises(ValueError):
        LossParams(alpha=1.0)
    with pytest.raises(ValueError):
        LossParams(delta=0.0)


# --- gradients ---------------------------------------------------------------

def _check_gradients(kind: LossKind, pairs) -> None:
    for pred, gt in pairs:
        ev, _ = evaluate_loss(kind, pred, gt, None, STATE)
        numeric = finite_diff_grad(kind, pred, gt, 1e-6, None, STATE)
        for analytic, fd in zip(ev.grad, numeric):
            if abs(analytic) > 1e-8:
                assert abs(analytic - fd) / abs(analytic) < 1e-4, (kind, pred, gt)
            else:
                assert abs(analytic - fd) < 1e-7, (kind, pred, gt)


@pytest.mark.parametrize("kind", list(LossKind))
def test_analytic_gradient_matches_central_differences(kind):
    _check_gradients(kind, gradient_pairs(seed=1234, count=200))


def test_finite_diff_examples():
    assert finite_diff_grad(LossKind.IOU, *DISJOINT) == (0.0, 0.0, 0.0, 0.0)
    analytic = loss_giou(*DISJOINT).grad
    numeric = finite_diff_grad(LossKind.GIOU, *DISJOINT)
    for a, f in zip(analytic, numeric):
        assert abs(a - f) / abs(a) < 1e-4
    with pytest.raises(ValueError):
        finite_diff_grad(LossKind.IOU, *DISJOINT, h=0.0)


# sha256 of the reprs of finite_diff_grad, one per line, for each kind over
# seeded gradient_pairs with and without a WIoUv3 running mean, as the
# oracle computed them when each kind had its own frozen-value function.
# The tolerance checks above would not see a last-bit change.
FINITE_DIFF_PIN = "0970a31a80c13952ced78be813e7ba7180a5cb18e31b0390a0d5ea129598bf51"


def test_finite_diff_grad_is_pinned_bit_for_bit():
    reprs = [
        repr(finite_diff_grad(kind, pred, gt, 1e-6, None, state))
        for kind in LossKind
        for pred, gt in gradient_pairs(seed=4321, count=40)
        for state in (None, WiouState(0.35, 9))
    ]
    assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == FINITE_DIFF_PIN


@pytest.mark.parametrize("kind", list(LossKind))
def test_gradient_sign_at_slightly_oversized_box(kind):
    gt = BoundingBox(1, 1, 3, 3)
    h = 1e-6
    pred = BoundingBox(1, 1, 3 + h, 3)  # gt perturbed by +h on x2 only
    ev, _ = evaluate_loss(kind, pred, gt, None, STATE)
    numeric = finite_diff_grad(kind, pred, gt, h, None, STATE)
    if ev.grad[2] != 0.0:
        assert math.copysign(1, numeric[2]) == math.copysign(1, ev.grad[2])


def test_disjoint_gradient_dichotomy():
    pairs = gradient_pairs(seed=77, count=60)
    disjoint = [(p, g) for p, g in pairs if iou(p, g) == 0.0]
    assert len(disjoint) >= 20
    for pred, gt in disjoint:
        assert grad_norm(loss_iou(pred, gt)) == 0.0
        assert grad_norm(loss_giou(pred, gt)) > 1e-6


# --- value-range properties ----------------------------------------------------

@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_loss_bounds(seed):
    (pred, gt) = gradient_pairs(seed=seed, count=1)[0]
    liou = loss_iou(pred, gt).value
    assert 0.0 <= liou <= 1.0
    assert 0.0 <= loss_giou(pred, gt).value <= 2.0
    r_diou = loss(LossKind.DIOU, pred, gt).value - liou
    assert 0.0 <= r_diou < 1.0


# --- descent trajectories -------------------------------------------------------

def test_simulate_stationary_for_disjoint_iou():
    trajectory = simulate_regression(LossKind.IOU, *DISJOINT, step=0.01, iters=50)
    boxes = {row.box.corners() for row in trajectory.rows}
    assert len(boxes) == 1
    assert all(row.loss == 1.0 for row in trajectory.rows)


def test_simulate_diou_reduces_center_distance():
    trajectory = simulate_regression(LossKind.DIOU, *DISJOINT, step=0.01, iters=500)
    assert trajectory.rows[-1].center_dist < trajectory.rows[0].center_dist
    assert trajectory.rows[0].center_dist == pytest.approx(math.sqrt(8))


@pytest.mark.parametrize("kind", list(LossKind))
def test_simulate_from_target_stays_at_zero(kind):
    gt = BoundingBox(1, 1, 3, 3)
    trajectory = simulate_regression(kind, gt, gt, step=0.01, iters=20)
    assert all(row.loss == 0.0 for row in trajectory.rows)
    assert trajectory.rows[-1].box == gt


def test_each_descent_starts_wiou_v3_from_a_fresh_state():
    first = simulate_regression(LossKind.WIOU_V3, *OVERLAP, step=0.05, iters=30)
    assert simulate_regression(LossKind.WIOU_V3, *OVERLAP, step=0.05, iters=30) == first
    # Each row's loss is WIoUv3 at that box under the running mean of the rows before it.
    state = None
    for row in first.rows:
        ev, state = evaluate_loss(LossKind.WIOU_V3, row.box, OVERLAP[1], state=state)
        assert row.loss == ev.value
    assert state.sample_count == len(first.rows)


def test_simulate_validates_arguments_and_divergence():
    with pytest.raises(ValueError):
        simulate_regression(LossKind.IOU, *DISJOINT, step=0.0, iters=5)
    with pytest.raises(ValueError):
        simulate_regression(LossKind.IOU, *DISJOINT, step=0.1, iters=0)
    bad = BoundingBox(float("nan"), 0, 1, 1)
    with pytest.raises(DivergedError) as info:
        simulate_regression(LossKind.IOU, bad, BoundingBox(2, 2, 3, 3), step=0.1, iters=3)
    assert info.value.iteration == 0


def test_trajectory_csv_layout():
    trajectory = simulate_regression(LossKind.GIOU, *DISJOINT, step=0.01, iters=5)
    buffer = io.StringIO()
    write_trajectory_csv(trajectory, buffer)
    rows = list(csv.reader(io.StringIO(buffer.getvalue())))
    assert rows[0] == TRAJECTORY_CSV_HEADER
    assert len(rows) == 1 + 6  # header + initial state + five steps
    first = rows[1]
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(1 + 7 / 9)
    assert [float(v) for v in first[5:]] == [0.0, 0.0, 1.0, 1.0]


def test_simulate_normalizes_and_clamps():
    # An inverted start with a corner past the arena (±1e4).
    trajectory = simulate_regression(
        LossKind.GIOU,
        BoundingBox(1, 1, -2e4, 0),
        BoundingBox(2, 2, 3, 3),
        step=0.5,
        iters=50,
    )
    assert trajectory.rows[0].box == BoundingBox(-1e4, 0, 1, 1)
    for row in trajectory.rows:
        b = row.box
        assert b.x1 <= b.x2 and b.y1 <= b.y2
        assert -1e4 <= b.x1 and b.x2 <= 1e4 and -1e4 <= b.y1 and b.y2 <= 1e4
