"""The one-pass loss geometry and descent against their definitions.

``reference_losses.py`` keeps the former code verbatim: the geometry, the
loss functions, the descent and the CSV writer. Every value, gradient,
trajectory, error and CSV byte of ``trapeval.losses`` must equal it. The
inputs are seeded and aim at the places a spelled-out min/max, ordering,
clamp or finite check can differ from the builtins: touching and tied edges,
disjoint and identical boxes, zero-area boxes, inverted boxes, -0.0, NaN,
±inf corners, and starts at or past the arena's bounds.
"""

from __future__ import annotations

import io
import math
import random

import pytest
import reference_losses as ref

from trapeval import losses
from trapeval.boxes import BoundingBox
from trapeval.errors import ConfigError, DegenerateBoxError
from trapeval.losses import (
    LossKind,
    LossParams,
    WiouState,
    evaluate_loss,
    simulate_regression,
    write_trajectory_csv,
)

KINDS = list(LossKind)
SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf)
SIGNED = (0.0, -0.0, -1.0, 1.0)
PARAMS = (LossParams(), LossParams(gamma=0.0), LossParams(gamma=2.5, alpha=3.0, delta=1.5))


def outcome(call, *args, **kwargs) -> str:
    """The repr of what the call returns, or the error it raises."""
    try:
        return repr(call(*args, **kwargs))
    except Exception as exc:  # the same error type and message on both sides
        return f"{type(exc).__name__}: {exc}"


def corner(rng: random.Random) -> float:
    r = rng.random()
    if r < 0.08:
        return rng.choice(SPECIAL)
    if r < 0.6:
        return float(rng.randint(-2, 3))  # a small grid: edges touch and tie
    return rng.uniform(-3.0, 4.0)


def box(rng: random.Random) -> BoundingBox:
    x1, y1, x2, y2 = (corner(rng) for _ in range(4))
    if rng.random() < 0.85:  # most boxes ordered, a few inverted
        x1, x2 = sorted((x1, x2))
        y1, y2 = sorted((y1, y2))
    return BoundingBox(x1, y1, x2, y2)


def pair(rng: random.Random) -> tuple[BoundingBox, BoundingBox]:
    pred, gt = box(rng), box(rng)
    shape = rng.randrange(7)
    if shape == 0:  # identical
        gt = BoundingBox(*pred.corners())
    elif shape == 1:  # zero area
        pred = BoundingBox(pred.x1, pred.y1, pred.x1, pred.y2)
    elif shape == 2:  # touching edges
        gt = BoundingBox(pred.x2, gt.y1, pred.x2 + 1.0, gt.y2)
    elif shape == 3:  # disjoint
        gt = BoundingBox(gt.x1 + 20.0, gt.y1 - 20.0, gt.x2 + 20.0, gt.y2 - 20.0)
    elif shape == 4:  # signed zeros, ties and inverted boxes: where a zero's sign can leak
        pred, gt = (BoundingBox(*(rng.choice(SIGNED) for _ in range(4))) for _ in range(2))
    return pred, gt


# Inverted boxes whose hull has a zero side: the sign of the zero that the
# hull's min picks on a tie reaches the DIoU gradient.
SIGN_OF_ZERO_PAIRS = (
    (BoundingBox(-0.0, -0.0, -0.0, -1.0), BoundingBox(0.0, -0.0, -0.0, -1.0)),
    (BoundingBox(-0.0, -0.0, -1.0, -0.0), BoundingBox(-0.0, 0.0, -1.0, -0.0)),
)


def test_evaluate_loss_equals_its_definition_on_seeded_pairs():
    """evaluate_loss, loss_iou and loss_giou against the function of the
    same name in the definition."""
    rng = random.Random(20240)
    pairs = [*SIGN_OF_ZERO_PAIRS, *(pair(rng) for _ in range(2400))]
    for pred, gt in pairs:
        params = rng.choice(PARAMS)
        state = rng.choice((None, WiouState(), WiouState(rng.uniform(0.05, 1.0), rng.randint(1, 9))))
        for kind in KINDS:
            assert outcome(evaluate_loss, kind, pred, gt, params, state) == outcome(
                ref.evaluate_loss, kind, pred, gt, params, state
            ), (kind, pred, gt, params, state)
        for name in ("loss_iou", "loss_giou"):
            assert outcome(getattr(losses, name), pred, gt) == outcome(getattr(ref, name), pred, gt), (name, pred, gt)


def descent_cases():
    rng = random.Random(7)
    for _ in range(220):
        start, gt = box(rng), box(rng)
        step = rng.choice((0.01, 0.3, 1.0, 5.0, rng.uniform(0.0, 5.0) or 1.0))
        if rng.random() < 0.25:  # at or past the arena bound (±1e4), or inverted through it
            start = BoundingBox(rng.choice((1e4, 3e4)), -0.0, rng.choice((-0.0, -1e4, -2e4)), 1.0)
            step = rng.choice((5.0, 1e4, 1e5))
        yield rng.choice(KINDS), start, gt, step, rng.randint(1, 30)
    for kind in KINDS:
        yield kind, BoundingBox(2, 2, 3, 3), BoundingBox(2, 2, 3, 3), 0.5, 5
        yield kind, BoundingBox(math.nan, 0, 1, 1), BoundingBox(2, 2, 3, 3), 0.5, 5
    # Descents that reach a zero gradient after iteration 0, where the descent
    # stops stepping: a step of 20 overshoots to a box disjoint from the
    # target, where IoU has zero gradient from iteration 18 and Focal-EIoU
    # from iteration 1.
    yield (LossKind.IOU, BoundingBox(-2.5895, -2.4832, 2.1267, 2.8482),
           BoundingBox(-1.1125, -1.1046, 0.0127, -0.8923), 20.0, 30)
    yield (LossKind.FOCAL_EIOU, BoundingBox(0.4872, -2.0497, 0.6357, 0.6408),
           BoundingBox(-0.416, -0.6388, 1.3381, 2.9689), 20.0, 30)
    # Zero-gradient starts with -0.0 corners: IoU's -0.0 gradient steps them
    # to 0.0, Focal-EIoU's 0.0 gradient keeps them -0.0. (WIoUv3 started on
    # its target is the per-kind case above.)
    for kind in (LossKind.IOU, LossKind.FOCAL_EIOU):
        yield kind, BoundingBox(-0.0, -0.0, 1.0, 1.0), BoundingBox(2.0, 2.0, 3.0, 3.0), 0.5, 6
    # Finite values whose sum overflows: at iteration 0 a subnormal delta
    # makes WIoUv3's r about 1e308, its value 1.64e308 and each gradient
    # component 1.82e307. The descent goes on, and diverges at iteration 1.
    yield (LossKind.WIOU_V3, BoundingBox(2, 2, 3, 3), BoundingBox(0, 0, 1, 1), 0.01, 3,
           LossParams(delta=5e-309))


def trajectory_and_csv(simulate, write, kind, start, gt, step, iters, params=LossParams()):
    trajectory = simulate(kind, start, gt, step, iters, params)
    stream = io.StringIO()
    write(trajectory, stream)
    return trajectory.rows, stream.getvalue()


def test_descent_and_csv_equal_their_definition_on_seeded_runs():
    ran = diverged = clamped = 0
    for case in descent_cases():
        ours = outcome(trajectory_and_csv, simulate_regression, write_trajectory_csv, *case)
        assert ours == outcome(
            trajectory_and_csv, ref.simulate_regression, ref.write_trajectory_csv, *case
        ), case
        ran += 1
        diverged += ours.startswith("DivergedError")
        clamped += "=-10000.0," in ours or "=10000.0" in ours
    assert ran >= 200 and 0 < diverged < ran and clamped > 0


def test_a_descent_at_a_fixed_point_evaluates_its_loss_once(monkeypatch):
    """losslab's default IoU and Focal-EIoU descents start disjoint from the
    target, where both have zero gradient: one evaluation, then that row for
    every later iteration. Focal-EIoU's +0.0 gradient keeps a -0.0 corner
    -0.0, a fixed point too; IoU's -0.0 gradient steps it to 0.0, so one
    evaluation more. WIoUv3 on its target has zero gradient too, but each
    evaluation advances its state, so it evaluates every step."""
    calls = []

    def counted(kind, *args):
        calls.append(kind)
        return evaluate_loss(kind, *args)

    monkeypatch.setattr(losses, "evaluate_loss", counted)
    disjoint = (BoundingBox(0.0, 0.0, 1.0, 1.0), BoundingBox(2.0, 2.0, 3.0, 3.0))
    minus_zero = (BoundingBox(-0.0, -0.0, 1.0, 1.0), disjoint[1])
    for kind, (start, gt), evaluations in (
        (LossKind.IOU, disjoint, 1),
        (LossKind.FOCAL_EIOU, disjoint, 1),
        (LossKind.FOCAL_EIOU, minus_zero, 1),
        (LossKind.IOU, minus_zero, 2),
        (LossKind.WIOU_V3, (disjoint[1], disjoint[1]), 501),
    ):
        calls.clear()
        rows = simulate_regression(kind, start, gt, step=0.01, iters=500).rows
        assert calls == [kind] * evaluations
        assert repr(rows) == repr(ref.simulate_regression(kind, start, gt, step=0.01, iters=500).rows)


@pytest.mark.parametrize("gamma,overflows", [(0.01, True), (0.04, True), (0.5, False)])
def test_focal_eiou_gradient_overflow_is_a_defined_error(gamma, overflows):
    """With 0 < gamma < 1, IoU^(gamma - 1) overflows at a subnormal IoU. That
    raises ConfigError naming both boxes and gamma; every other result
    equals the definition bit for bit."""
    gt, params = BoundingBox(0, 0, 1, 1), LossParams(gamma=gamma)
    raised = 0
    for exponent in range(150, 164):  # IoU 1e-300 down to 0
        pred = BoundingBox(0, 0, 10.0**-exponent, 10.0**-exponent)
        try:
            expected = repr(ref.loss_focal_eiou(pred, gt, params))
        except OverflowError:
            raised += 1
            with pytest.raises(ConfigError) as info:
                evaluate_loss(LossKind.FOCAL_EIOU, pred, gt, params)[0]
            message = str(info.value)
            assert f"gamma {gamma}" in message and repr(pred) in message and repr(gt) in message
            with pytest.raises(ConfigError, match=f"gamma {gamma}"):
                simulate_regression(LossKind.FOCAL_EIOU, pred, gt, step=0.01, iters=2, params=params)
        else:
            assert repr(evaluate_loss(LossKind.FOCAL_EIOU, pred, gt, params)[0]) == expected
    assert (raised > 0) == overflows


@pytest.mark.parametrize("kind", KINDS)
def test_a_square_that_underflows_is_a_defined_error(kind):
    """A positive union below about 1e-162 squares to 0.0; on a tall hull
    narrower than about 1e-108, so does EIoU's and Focal-EIoU's cube of the
    hull width. Where the definition then divides by zero, the loss and a
    descent from the pair raise DegenerateBoxError naming both boxes; every
    other result equals the definition bit for bit."""
    square = [(10.0**-e, 10.0**-e) for e in range(76, 90)]
    tall = [(10.0**-e, 1e10) for e in range(100, 176, 3)]
    raised = 0
    for width, height in square + tall:
        pred, gt = BoundingBox(0.0, 0.0, width, height), BoundingBox(0.0, 0.0, 2.0 * width, height)
        try:
            expected = repr(ref.evaluate_loss(kind, pred, gt, LossParams(), None))
        except ZeroDivisionError:
            raised += 1
            with pytest.raises(DegenerateBoxError) as info:
                evaluate_loss(kind, pred, gt)
            assert str(info.value) == f"loss of {pred} against {gt} is undefined: a squared size underflows to zero"
            with pytest.raises(DegenerateBoxError, match="underflows"):
                simulate_regression(kind, pred, gt, step=0.01, iters=2)
        else:
            assert repr(evaluate_loss(kind, pred, gt)) == expected
    assert raised == (8 + 23 if kind.value.endswith("eiou") else 8 + 1)
