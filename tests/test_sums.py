import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_frame
from framesum import (
    AlignmentMismatchError,
    FiniteFrame,
    FrameBounds,
    InconsistentSpecError,
    InvalidBoundsError,
    NotAFrameError,
    OperatorSumSpec,
    ScalarEnvelope,
    WeightedSumSpec,
    ZeroCoefficientError,
    build_operator_sum_frame,
    build_perturbed_sum_frame,
    build_sum_frame,
    canonical_dual,
    certify,
    dual_sum_predict,
    exact_bounds,
    finite_sum_best_pivot,
    finite_sum_predict,
    operator_sum_predict,
    perturbed_sum_predict,
)

RT2, RT3, RT6 = math.sqrt(2), math.sqrt(3), math.sqrt(6)

BASE_C2 = FiniteFrame([[RT6, RT6], [0, 2], [2, 0]])
DIAG_C2 = FiniteFrame([[0, 3], [RT3, 0], [RT3, 0]])
TIGHT_C2 = FiniteFrame([[2, 0], [0, RT2], [0, RT2]])
DUAL_F_C3 = FiniteFrame(
    [[1 / RT3, 0, 0], [0, 1 / RT3, 0], [0, 0, 1 / RT3], [RT2, 0, 0], [0, 0, RT2]]
)
DUAL_G_C3 = FiniteFrame(
    [[RT3 / 2, 0, 0], [0, RT3, 0], [0, 0, RT3 / 2], [1 / (2 * RT2), 0, 0], [0, 0, 1 / (2 * RT2)]]
)


# --- finite weighted sums ---------------------------------------------------


def test_finite_sum_small_coefficients():
    predicted = finite_sum_predict([(4, 16), (1, 4)], [-1 / 2000, 1 / 20], 0)
    assert predicted.condition_holds
    assert predicted.lower == pytest.approx(2101e-6, rel=1e-12)
    assert predicted.upper == pytest.approx(20008e-6, rel=1e-12)
    assert predicted.condition_margin == pytest.approx(2501 / 500 - 4 / 5, rel=1e-12)


def test_finite_sum_large_coefficients():
    predicted = finite_sum_predict([(4, 16), (9, 9)], [1, 100], 0)
    assert predicted.condition_holds
    assert predicted.lower == 87604
    assert predicted.upper == 180032
    # condition reads 90004 > 2400
    assert predicted.condition_margin == pytest.approx(90004 - 2400, rel=1e-12)


@pytest.mark.parametrize("coefficients", [[1, 100], [1, 1]], ids=["holds", "fails"])
def test_finite_sum_prediction_is_plain_python(coefficients):
    # numpy scalars from the vectorized formula must not leak into reports
    predicted = finite_sum_predict([(4, 16), (9, 9)], coefficients, 0)
    assert type(predicted.condition_holds) is bool
    for value in (predicted.lower, predicted.upper, predicted.condition_margin):
        assert type(value) is float


def test_finite_sum_single_frame_is_identity():
    predicted = finite_sum_predict([(3, 5)], [1], 0)
    assert predicted.condition_holds
    assert predicted.lower == pytest.approx(3)
    assert predicted.upper == pytest.approx(5)


def test_finite_sum_rejects_zero_coefficient():
    with pytest.raises(ZeroCoefficientError):
        finite_sum_predict([(1, 2), (1, 2)], [1, 0], 0)


def test_finite_sum_rejects_count_mismatch():
    with pytest.raises(ZeroCoefficientError):
        finite_sum_predict([(1, 2)], [1, 1], 0)


def test_finite_sum_rejects_bad_pivot():
    with pytest.raises(IndexError):
        finite_sum_predict([(1, 2)], [1], 3)


@given(t=st.floats(min_value=1e-3, max_value=1e3))
def test_finite_sum_homogeneity(t):
    bounds = [(4.0, 16.0), (1.0, 4.0)]
    coefficients = np.array([-1 / 2000, 1 / 20])
    base = finite_sum_predict(bounds, coefficients, 0)
    scaled = finite_sum_predict(bounds, t * coefficients, 0)
    assert scaled.condition_holds == base.condition_holds
    assert scaled.lower == pytest.approx(t**2 * base.lower, rel=1e-9)
    assert scaled.upper == pytest.approx(t**2 * base.upper, rel=1e-9)
    assert scaled.condition_margin == pytest.approx(t * base.condition_margin, rel=1e-9)


def test_pivot_freedom_all_holding_pivots_certify(rng):
    # two near-tight frames with moderate weights: the condition holds at both
    # pivots and each one's lower bound is certifiable
    f1 = FiniteFrame(np.eye(2))
    f2 = FiniteFrame([[0, 1.1], [1.1, 0]])
    bounds = [exact_bounds(f).bounds for f in (f1, f2)]
    coefficients = np.array([1.0, 0.2])
    built = build_sum_frame(
        WeightedSumSpec(frames=(f1, f2), coefficients=coefficients, pivot=0)
    )
    held = 0
    for pivot in range(2):
        predicted = finite_sum_predict(bounds, coefficients, pivot)
        if predicted.condition_holds:
            held += 1
            assert certify(predicted, built).certified
    assert held == 2
    best_pivot, best = finite_sum_best_pivot(bounds, coefficients)
    assert best.lower == max(
        finite_sum_predict(bounds, coefficients, j).lower for j in range(2)
    )


# --- dual sums ---------------------------------------------------------------


def test_dual_sum_published_pair():
    predicted = dual_sum_predict((1 / 3, 7 / 3), (7 / 8, 3))
    assert predicted.lower == pytest.approx(77 / 24, rel=1e-14)
    assert predicted.upper == pytest.approx(22 / 3, rel=1e-14)
    assert predicted.condition_holds


def test_dual_sum_parseval_self_dual():
    predicted = dual_sum_predict((1, 1), (1, 1))
    assert (predicted.lower, predicted.upper) == (4, 4)


def test_dual_sum_reindexed_construction_bounds():
    predicted = dual_sum_predict((1 / 3, 7 / 3), (1, 5))
    assert predicted.lower == pytest.approx(10 / 3, rel=1e-14)
    assert predicted.upper == pytest.approx(28 / 3, rel=1e-14)


def test_dual_sum_certification_slacks_two():
    predicted = dual_sum_predict((1 / 3, 7 / 3), (7 / 8, 3))
    summed = FiniteFrame(DUAL_F_C3.vectors + DUAL_G_C3.vectors)
    report = certify(predicted, summed)
    assert report.certified
    # frame operator of the sum is diag(125/24, 16/3, 125/24), worked by hand
    assert report.exact.lower == pytest.approx(125 / 24, rel=1e-12)
    assert report.exact.upper == pytest.approx(16 / 3, rel=1e-12)
    assert report.lower_slack == pytest.approx(2, rel=1e-9)
    assert report.upper_slack == pytest.approx(2, rel=1e-9)


def test_dual_sum_exact_on_parseval_self_dual():
    frame = FiniteFrame(np.eye(2))
    predicted = dual_sum_predict((1, 1), (1, 1))
    doubled = FiniteFrame(2 * frame.vectors)
    report = certify(predicted, doubled)
    assert report.certified
    assert report.lower_slack == pytest.approx(0, abs=1e-12)
    assert report.upper_slack == pytest.approx(0, abs=1e-12)


# --- operator sums -----------------------------------------------------------


def test_operator_sum_quarter_identity():
    spec = OperatorSumSpec(
        frame1=BASE_C2, frame2=TIGHT_C2, theta1=np.eye(2) / 4, theta2=np.eye(2)
    )
    predicted = operator_sum_predict(spec, (4, 16), (4, 4))
    assert predicted.condition_holds
    assert predicted.condition_margin == pytest.approx(17 / 4 - 4, rel=1e-12)
    assert predicted.lower == pytest.approx(1 / 4, rel=1e-12)
    assert predicted.upper == pytest.approx(9, rel=1e-12)


def test_operator_sum_small_contraction():
    spec = OperatorSumSpec(
        frame1=BASE_C2, frame2=TIGHT_C2, theta1=np.eye(2) / 160, theta2=np.eye(2)
    )
    predicted = operator_sum_predict(spec, (4, 16), (4, 4))
    assert predicted.lower == pytest.approx(24961 / 6400, rel=1e-12)
    assert predicted.upper == pytest.approx(6561 / 1600, rel=1e-12)
    report = certify(predicted, build_operator_sum_frame(spec))
    assert report.certified


def test_operator_sum_zero_first_operator():
    spec = OperatorSumSpec(
        frame1=BASE_C2, frame2=TIGHT_C2, theta1=np.zeros((2, 2)), theta2=np.eye(2)
    )
    predicted = operator_sum_predict(spec, (4, 16), (4, 4))
    assert predicted.lower == pytest.approx(4, rel=1e-12)
    assert predicted.upper == pytest.approx(4, rel=1e-12)


def test_operator_sum_checks_supplied_norms():
    with pytest.raises(InconsistentSpecError):
        OperatorSumSpec(
            frame1=BASE_C2,
            frame2=TIGHT_C2,
            theta1=np.eye(2) / 4,
            theta2=np.eye(2),
            m1=0.5,
        )
    # values matching the recomputation are accepted
    spec = OperatorSumSpec(
        frame1=BASE_C2,
        frame2=TIGHT_C2,
        theta1=np.eye(2) / 4,
        theta2=np.eye(2),
        m1=0.25,
        norm1=0.25,
        m2=1.0,
        norm2=1.0,
    )
    assert spec.m1 == pytest.approx(0.25, rel=1e-12)


def test_operator_sum_self_parseval_condition_fails():
    frame = FiniteFrame(np.eye(2))
    spec = OperatorSumSpec(frame1=frame, frame2=frame, theta1=np.eye(2), theta2=np.eye(2))
    predicted = operator_sum_predict(spec, (1, 1), (1, 1))
    assert not predicted.condition_holds
    assert predicted.condition_margin == pytest.approx(0, abs=1e-15)
    with pytest.raises(InvalidBoundsError):
        certify(predicted, frame)


def test_operator_sum_alignment_errors():
    with pytest.raises(AlignmentMismatchError):
        OperatorSumSpec(frame1=BASE_C2, frame2=DUAL_F_C3, theta1=np.eye(2), theta2=np.eye(2))
    with pytest.raises(AlignmentMismatchError):
        OperatorSumSpec(frame1=BASE_C2, frame2=TIGHT_C2, theta1=np.eye(3), theta2=np.eye(2))


# --- perturbed sums ----------------------------------------------------------


def test_perturbed_sum_half_three_envelopes():
    env1 = ScalarEnvelope.from_sequence([0.5, -0.5, 0.5, -0.5])
    env2 = ScalarEnvelope.from_sequence([3, -3, 3, -3])
    predicted = perturbed_sum_predict(env1, env2, (4, 16), (4, 4))
    assert predicted.condition_holds
    assert predicted.condition_margin == pytest.approx(37 - 24, rel=1e-12)
    assert predicted.lower == pytest.approx(13, rel=1e-12)
    assert predicted.upper == pytest.approx(64, rel=1e-12)


def test_perturbed_sum_quarter_four_envelopes():
    env1 = ScalarEnvelope.from_sequence([-0.25, 0.25, -0.25])
    env2 = ScalarEnvelope.from_sequence([-4, 4, -4])
    predicted = perturbed_sum_predict(env1, env2, (4, 16), (4, 4))
    assert predicted.lower == pytest.approx(193 / 4, rel=1e-12)
    assert predicted.upper == pytest.approx(81, rel=1e-12)
    built = build_perturbed_sum_frame(env1, env2, BASE_C2, TIGHT_C2)
    assert certify(predicted, built).certified


def test_perturbed_sum_degenerate_second_sequence():
    env1 = ScalarEnvelope.from_sequence([1, 1, 1])
    env2 = ScalarEnvelope.from_sequence([0, 0, 0])
    predicted = perturbed_sum_predict(env1, env2, (4, 16), (2, 3))
    assert predicted.lower == pytest.approx(4)
    assert predicted.upper == pytest.approx(16)


def test_envelope_from_sequence():
    env = ScalarEnvelope.from_sequence([1 + 1j, -2, 0.5j])
    assert env.inf_abs == pytest.approx(0.5)
    assert env.sup_abs == pytest.approx(2.0)


# --- builders ----------------------------------------------------------------


def test_build_sum_frame_entrywise():
    spec = WeightedSumSpec(
        frames=(BASE_C2, DIAG_C2), coefficients=np.array([1, 100], dtype=complex), pivot=0
    )
    built = build_sum_frame(spec)
    expected = np.array(
        [[RT6, RT6 + 300], [100 * RT3, 2], [2 + 100 * RT3, 0]], dtype=complex
    )
    np.testing.assert_allclose(built.vectors, expected, rtol=1e-14)


def test_build_sum_frame_single():
    spec = WeightedSumSpec(frames=(BASE_C2,), coefficients=np.array([1.0]), pivot=0)
    np.testing.assert_allclose(build_sum_frame(spec).vectors, BASE_C2.vectors, atol=0)


def test_build_sum_frame_exact_cancellation():
    spec = WeightedSumSpec(
        frames=(BASE_C2, BASE_C2), coefficients=np.array([1.0, -1.0]), pivot=0
    )
    with pytest.raises(NotAFrameError):
        build_sum_frame(spec)


def test_build_sum_frame_alignment():
    with pytest.raises(AlignmentMismatchError):
        WeightedSumSpec(frames=(BASE_C2, DUAL_F_C3), coefficients=np.array([1.0, 1.0]), pivot=0)


def test_build_operator_sum_identity_and_zero():
    spec = OperatorSumSpec(
        frame1=BASE_C2, frame2=TIGHT_C2, theta1=np.eye(2), theta2=np.zeros((2, 2))
    )
    np.testing.assert_allclose(build_operator_sum_frame(spec).vectors, BASE_C2.vectors, atol=0)


def test_build_perturbed_plain_sum():
    env1 = ScalarEnvelope.from_sequence([1, 1, 1])
    env2 = ScalarEnvelope.from_sequence([1, 1, 1])
    built = build_perturbed_sum_frame(env1, env2, BASE_C2, TIGHT_C2)
    np.testing.assert_allclose(built.vectors, BASE_C2.vectors + TIGHT_C2.vectors, atol=0)


def test_build_perturbed_rejects_misaligned_sequences():
    env1 = ScalarEnvelope.from_sequence([1, 1])
    env2 = ScalarEnvelope.from_sequence([1, 1, 1])
    with pytest.raises(AlignmentMismatchError):
        build_perturbed_sum_frame(env1, env2, BASE_C2, TIGHT_C2)


# --- certification -----------------------------------------------------------


def test_certify_trivial_sum_has_zero_slack():
    bounds = exact_bounds(BASE_C2).bounds
    predicted = finite_sum_predict([bounds], [1], 0)
    report = certify(predicted, BASE_C2)
    assert report.certified
    assert report.lower_slack == pytest.approx(0, abs=1e-12)
    assert report.upper_slack == pytest.approx(0, abs=1e-12)


def test_certify_requires_holding_condition():
    predicted = perturbed_sum_predict(
        ScalarEnvelope.from_sequence([1]), ScalarEnvelope.from_sequence([1]), (1, 1), (1, 1)
    )
    assert not predicted.condition_holds
    with pytest.raises(InvalidBoundsError):
        certify(predicted, BASE_C2)


def test_certify_flags_non_bracketing_prediction():
    # a deliberately false input bound produces a non-bracketing prediction
    predicted = finite_sum_predict([(4, 16), (9, 9)], [1, 100], 0)
    spec = WeightedSumSpec(
        frames=(BASE_C2, DIAG_C2), coefficients=np.array([1.0, 100.0]), pivot=0
    )
    report = certify(predicted, build_sum_frame(spec))
    assert not report.certified
    assert report.lower_slack < 0


# --- randomized soundness (small smoke; the acceptance suite runs 100 each) --


def test_random_soundness_smoke(rng):
    checked = 0
    while checked < 10:
        dim = int(rng.integers(2, 5))
        count = int(rng.integers(dim, dim + 3))
        frames = [random_frame(rng, count, dim) for _ in range(2)]
        bounds = [exact_bounds(f).bounds for f in frames]
        coefficients = np.array([1.0 + 0.5 * rng.standard_normal(), 0.01 * rng.standard_normal()])
        if np.any(coefficients == 0):
            continue
        predicted = finite_sum_predict(bounds, coefficients, 0)
        if not predicted.condition_holds:
            continue
        built = build_sum_frame(
            WeightedSumSpec(frames=tuple(frames), coefficients=coefficients, pivot=0)
        )
        assert certify(predicted, built).certified
        checked += 1
