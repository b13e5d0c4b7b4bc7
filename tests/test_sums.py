import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conftest import canonical_dual, random_frame
from framesum import (
    DimensionMismatchError,
    FiniteFrame,
    FrameBounds,
    InvalidBoundsError,
    NotAFrameError,
    ZeroCoefficientError,
    build_operator_sum_frame,
    build_perturbed_sum_frame,
    build_sum_frame,
    certify,
    dual_sum_predict,
    exact_bounds,
    extreme_singular_values,
    finite_sum_best_pivot,
    finite_sum_predict,
    modulus_range,
    operator_sum_predict,
    perturbed_sum_predict,
    verify_dual,
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
    with pytest.raises(DimensionMismatchError):
        finite_sum_predict([(1, 2)], [1, 1], 0)


def test_build_sum_frame_rejects_count_mismatch():
    with pytest.raises(DimensionMismatchError, match="2 frames but 3 coefficients"):
        build_sum_frame((BASE_C2, DIAG_C2), [1, 1, 1])


def test_finite_sum_rejects_bad_pivot():
    with pytest.raises(DimensionMismatchError):
        finite_sum_predict([(1, 2)], [1], 3)


NEAR_TIE_BOUNDS = [
    (1.1618879727492444, 2.8652124177103184),
    (1.5153373940049786, 2.2744734139026423),
    (1.6524348998531, 3.960631853380757),
    (1.7097839046220313, 4.402244425000323),
]
NEAR_TIE_COEFFICIENTS = [2.881990450001699, 0.25780937586148317, 0.013556738999358853, 0.2849710290522285]


def test_finite_sum_near_tie_fails_the_condition():
    # at pivot 0 the margin and the lower bound |c_0| * margin round to
    # opposite signs; that sign split is a tie, and a tie fails
    predicted = finite_sum_predict(NEAR_TIE_BOUNDS, NEAR_TIE_COEFFICIENTS, 0)
    assert not predicted.condition_holds
    assert predicted.condition_margin <= 0.0
    pivot, best = finite_sum_best_pivot(NEAR_TIE_BOUNDS, NEAR_TIE_COEFFICIENTS)
    assert best.condition_holds == (best.condition_margin > 0.0)
    assert pivot != 0


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
    bounds = [exact_bounds(f) for f in (f1, f2)]
    coefficients = np.array([1.0, 0.2])
    built = build_sum_frame((f1, f2), coefficients)
    held = 0
    for pivot in range(2):
        predicted = finite_sum_predict(bounds, coefficients, pivot)
        if predicted.condition_holds:
            held += 1
            assert certify(predicted, built)
    assert held == 2
    best_pivot, best = finite_sum_best_pivot(bounds, coefficients)
    assert best.lower == max(
        finite_sum_predict(bounds, coefficients, j).lower for j in range(2)
    )


def _finite_sum_at_pivot(bounds, coefficients, pivot):
    """The finite-sum rule at one pivot, each sum over the other indices taken
    over the vector with the pivot's entry deleted: the reference for the
    all-pivots pass, as ``(lower, upper, margin)``."""
    mags = np.abs(np.asarray(coefficients, dtype=complex))
    a, b = (np.array(side, dtype=float) for side in zip(*bounds))
    sqrt_b = np.sqrt(b)
    cross = float(np.sum(np.delete(mags * sqrt_b, pivot)))
    lhs = mags[pivot] * a[pivot] + float(np.sum(np.delete(mags**2 * a, pivot))) / mags[pivot]
    margin = lhs - 2.0 * sqrt_b[pivot] * cross
    lower = float(np.sum(mags**2 * a)) - 2.0 * mags[pivot] * sqrt_b[pivot] * cross
    upper = len(bounds) * float(np.sum(mags**2 * b))
    if lower <= 0.0:
        margin = min(margin, 0.0)
    return float(lower), float(upper), float(margin)


@st.composite
def _finite_sum_inputs(draw):
    """k = 1..16 bound pairs and complex coefficients, each drawn from a small
    pool so that entries repeat (pivot ties); pairs may be tight, and the
    coefficients' moduli span six decades."""
    k = draw(st.integers(1, 16))
    lower = st.floats(1e-3, 1e3)
    pair = st.tuples(lower, st.floats(1.0, 10.0), st.booleans()).map(
        lambda t: (t[0], t[0] if t[2] else t[0] * t[1])
    )
    coefficient = st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 2 * math.pi)).map(
        lambda t: 10.0 ** t[0] * complex(math.cos(t[1]), math.sin(t[1]))
    )
    pairs = draw(st.lists(pair, min_size=1, max_size=k))
    coefficients = draw(st.lists(coefficient, min_size=1, max_size=k))
    return (
        [draw(st.sampled_from(pairs)) for _ in range(k)],
        [draw(st.sampled_from(coefficients)) for _ in range(k)],
    )


def _bits(lower, upper, margin):
    return tuple(float(x).hex() for x in (lower, upper, margin))


@given(inputs=_finite_sum_inputs())
def test_every_pivot_at_once_matches_the_rule_at_each_pivot(inputs):
    bounds, coefficients = inputs
    want = [_finite_sum_at_pivot(bounds, coefficients, j) for j in range(len(bounds))]
    for j, expected in enumerate(want):
        got = finite_sum_predict(bounds, coefficients, j)
        assert _bits(got.lower, got.upper, got.condition_margin) == _bits(*expected)
    holding = [(j, w) for j, w in enumerate(want) if w[2] > 0.0]
    # max keeps the first of equal keys: the lowest index wins a tie
    if holding:
        index, expected = max(holding, key=lambda jw: jw[1][0])
    else:
        index, expected = max(enumerate(want), key=lambda jw: jw[1][2])
    pivot, best = finite_sum_best_pivot(bounds, coefficients)
    assert pivot == index
    assert _bits(best.lower, best.upper, best.condition_margin) == _bits(*expected)


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
    assert certify(predicted, summed)
    exact = exact_bounds(summed)
    # frame operator of the sum is diag(125/24, 16/3, 125/24), worked by hand
    assert exact.lower == pytest.approx(125 / 24, rel=1e-12)
    assert exact.upper == pytest.approx(16 / 3, rel=1e-12)
    assert exact.lower - predicted.lower == pytest.approx(2, rel=1e-9)
    assert predicted.upper - exact.upper == pytest.approx(2, rel=1e-9)


def test_dual_sum_exact_on_parseval_self_dual():
    frame = FiniteFrame(np.eye(2))
    predicted = dual_sum_predict((1, 1), (1, 1))
    doubled = FiniteFrame(2 * frame.vectors)
    assert certify(predicted, doubled)
    exact = exact_bounds(doubled)
    assert exact.lower - predicted.lower == pytest.approx(0, abs=1e-12)
    assert predicted.upper - exact.upper == pytest.approx(0, abs=1e-12)


# --- operator sums -----------------------------------------------------------


def test_operator_sum_quarter_identity():
    sigma1, sigma2 = extreme_singular_values(np.eye(2) / 4), extreme_singular_values(np.eye(2))
    predicted = operator_sum_predict(sigma1, sigma2, (4, 16), (4, 4))
    assert predicted.condition_holds
    assert predicted.condition_margin == pytest.approx(17 / 4 - 4, rel=1e-12)
    assert predicted.lower == pytest.approx(1 / 4, rel=1e-12)
    assert predicted.upper == pytest.approx(9, rel=1e-12)


def test_operator_sum_small_contraction():
    theta1, theta2 = np.eye(2) / 160, np.eye(2)
    sigma1, sigma2 = extreme_singular_values(theta1), extreme_singular_values(theta2)
    predicted = operator_sum_predict(sigma1, sigma2, (4, 16), (4, 4))
    assert predicted.lower == pytest.approx(24961 / 6400, rel=1e-12)
    assert predicted.upper == pytest.approx(6561 / 1600, rel=1e-12)
    assert certify(predicted, build_operator_sum_frame(BASE_C2, TIGHT_C2, theta1, theta2))


def test_operator_sum_zero_first_operator():
    sigma1, sigma2 = extreme_singular_values(np.zeros((2, 2))), extreme_singular_values(np.eye(2))
    predicted = operator_sum_predict(sigma1, sigma2, (4, 16), (4, 4))
    assert predicted.lower == pytest.approx(4, rel=1e-12)
    assert predicted.upper == pytest.approx(4, rel=1e-12)


def test_operator_sum_self_parseval_condition_fails():
    frame = FiniteFrame(np.eye(2))
    sigma = extreme_singular_values(np.eye(2))
    predicted = operator_sum_predict(sigma, sigma, (1, 1), (1, 1))
    assert not predicted.condition_holds
    assert predicted.condition_margin == pytest.approx(0, abs=1e-15)
    with pytest.raises(InvalidBoundsError):
        certify(predicted, frame)


def test_operator_sum_alignment_errors():
    with pytest.raises(DimensionMismatchError):
        build_operator_sum_frame(BASE_C2, DUAL_F_C3, np.eye(2), np.eye(2))
    with pytest.raises(DimensionMismatchError):
        build_operator_sum_frame(BASE_C2, TIGHT_C2, np.eye(3), np.eye(2))


# --- perturbed sums ----------------------------------------------------------


def test_perturbed_sum_half_three_envelopes():
    range1 = modulus_range([0.5, -0.5, 0.5, -0.5])
    range2 = modulus_range([3, -3, 3, -3])
    predicted = perturbed_sum_predict(range1, range2, (4, 16), (4, 4))
    assert predicted.condition_holds
    assert predicted.condition_margin == pytest.approx(37 - 24, rel=1e-12)
    assert predicted.lower == pytest.approx(13, rel=1e-12)
    assert predicted.upper == pytest.approx(64, rel=1e-12)


def test_perturbed_sum_quarter_four_envelopes():
    alpha, beta = [-0.25, 0.25, -0.25], [-4, 4, -4]
    predicted = perturbed_sum_predict(modulus_range(alpha), modulus_range(beta), (4, 16), (4, 4))
    assert predicted.lower == pytest.approx(193 / 4, rel=1e-12)
    assert predicted.upper == pytest.approx(81, rel=1e-12)
    built = build_perturbed_sum_frame(BASE_C2, TIGHT_C2, alpha, beta)
    assert certify(predicted, built)


def test_perturbed_sum_degenerate_second_sequence():
    predicted = perturbed_sum_predict(modulus_range([1, 1, 1]), modulus_range([0, 0, 0]), (4, 16), (2, 3))
    assert predicted.lower == pytest.approx(4)
    assert predicted.upper == pytest.approx(16)


def test_envelope_from_sequence():
    inf_abs, sup_abs = modulus_range([1 + 1j, -2, 0.5j])
    assert inf_abs == pytest.approx(0.5)
    assert sup_abs == pytest.approx(2.0)


# --- builders ----------------------------------------------------------------


def test_build_sum_frame_entrywise():
    built = build_sum_frame((BASE_C2, DIAG_C2), np.array([1, 100], dtype=complex))
    expected = np.array(
        [[RT6, RT6 + 300], [100 * RT3, 2], [2 + 100 * RT3, 0]], dtype=complex
    )
    np.testing.assert_allclose(built.vectors, expected, rtol=1e-14)


def test_build_sum_frame_single():
    built = build_sum_frame((BASE_C2,), np.array([1.0]))
    np.testing.assert_allclose(built.vectors, BASE_C2.vectors, atol=0)


def test_build_sum_frame_exact_cancellation():
    with pytest.raises(NotAFrameError):
        build_sum_frame((BASE_C2, BASE_C2), np.array([1.0, -1.0]))


def test_build_sum_frame_alignment():
    with pytest.raises(DimensionMismatchError):
        build_sum_frame((BASE_C2, DUAL_F_C3), np.array([1.0, 1.0]))


def test_build_operator_sum_identity_and_zero():
    built = build_operator_sum_frame(BASE_C2, TIGHT_C2, np.eye(2), np.zeros((2, 2)))
    np.testing.assert_allclose(built.vectors, BASE_C2.vectors, atol=0)


def test_build_perturbed_plain_sum():
    built = build_perturbed_sum_frame(BASE_C2, TIGHT_C2, [1, 1, 1], [1, 1, 1])
    np.testing.assert_allclose(built.vectors, BASE_C2.vectors + TIGHT_C2.vectors, atol=0)


def test_build_perturbed_rejects_misaligned_sequences():
    with pytest.raises(DimensionMismatchError):
        build_perturbed_sum_frame(BASE_C2, TIGHT_C2, [1, 1], [1, 1, 1])


# --- certification -----------------------------------------------------------


def test_certify_trivial_sum_has_zero_slack():
    bounds = exact_bounds(BASE_C2)
    predicted = finite_sum_predict([bounds], [1], 0)
    assert certify(predicted, BASE_C2) is True
    assert bounds.lower - predicted.lower == pytest.approx(0, abs=1e-12)
    assert predicted.upper - bounds.upper == pytest.approx(0, abs=1e-12)


def test_certify_requires_holding_condition():
    predicted = perturbed_sum_predict(modulus_range([1]), modulus_range([1]), (1, 1), (1, 1))
    assert not predicted.condition_holds
    with pytest.raises(InvalidBoundsError):
        certify(predicted, BASE_C2)


def test_certify_flags_non_bracketing_prediction():
    # a deliberately false input bound produces a non-bracketing prediction
    predicted = finite_sum_predict([(4, 16), (9, 9)], [1, 100], 0)
    built = build_sum_frame((BASE_C2, DIAG_C2), np.array([1.0, 100.0]))
    assert certify(predicted, built) is False
    assert exact_bounds(built).lower - predicted.lower < 0


# --- randomized soundness (small smoke; the acceptance suite runs 100 each) --


def test_random_soundness_smoke(rng):
    checked = 0
    while checked < 10:
        dim = int(rng.integers(2, 5))
        count = int(rng.integers(dim, dim + 3))
        frames = [random_frame(rng, count, dim) for _ in range(2)]
        bounds = [exact_bounds(f) for f in frames]
        coefficients = np.array([1.0 + 0.5 * rng.standard_normal(), 0.01 * rng.standard_normal()])
        if np.any(coefficients == 0):
            continue
        predicted = finite_sum_predict(bounds, coefficients, 0)
        if not predicted.condition_holds:
            continue
        built = build_sum_frame(frames, coefficients)
        assert certify(predicted, built)
        checked += 1


# --- property: a holding condition certifies -----------------------------------
#
# Each example draws small aligned complex frames from a seed, predicts with
# their oracle bounds, builds the sum and certifies it.  ``scale`` shrinks the
# second term of the sum, which is what makes the conditions hold.

SMALL_FRAMES = dict(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4), extra=st.integers(0, 3))
SCALE = st.floats(min_value=1e-3, max_value=1.0)


def _draw_frames(seed, dim, extra):
    rng = np.random.default_rng(seed)
    return rng, [random_frame(rng, dim + extra, dim) for _ in range(2)]


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unit_phases(rng, size):
    return np.exp(2j * np.pi * rng.random(size))


@given(**SMALL_FRAMES)
def test_dual_rule_certifies_whenever_the_pair_is_dual(seed, dim, extra):
    _, (frame, _) = _draw_frames(seed, dim, extra)
    dual = canonical_dual(frame)
    assume(verify_dual(frame, dual).is_dual)
    predicted = dual_sum_predict(exact_bounds(frame), exact_bounds(dual))
    assert predicted.condition_holds
    assert certify(predicted, build_sum_frame((frame, dual), [1, 1]))


@given(**SMALL_FRAMES, scale=SCALE)
def test_operator_sum_certifies_whenever_the_condition_holds(seed, dim, extra, scale):
    rng, (f1, f2) = _draw_frames(seed, dim, extra)
    theta1 = scale * _complex_normal(rng, (dim, dim))
    theta2 = np.eye(dim) + 0.3 * _complex_normal(rng, (dim, dim))
    predicted = operator_sum_predict(
        extreme_singular_values(theta1),
        extreme_singular_values(theta2),
        exact_bounds(f1),
        exact_bounds(f2),
    )
    assume(predicted.condition_holds)
    assert certify(predicted, build_operator_sum_frame(f1, f2, theta1, theta2))


@given(**SMALL_FRAMES, scale=SCALE)
def test_perturbed_sum_certifies_whenever_the_condition_holds(seed, dim, extra, scale):
    rng, (f1, f2) = _draw_frames(seed, dim, extra)
    count = dim + extra
    alpha = rng.uniform(0.5, 1.0, count) * _unit_phases(rng, count)
    beta = scale * rng.uniform(0.0, 1.0, count) * _unit_phases(rng, count)
    predicted = perturbed_sum_predict(
        modulus_range(alpha), modulus_range(beta), exact_bounds(f1), exact_bounds(f2)
    )
    assume(predicted.condition_holds)
    assert certify(predicted, build_perturbed_sum_frame(f1, f2, alpha, beta))


@given(**SMALL_FRAMES, scale=SCALE)
def test_finite_sum_of_two_certifies_whenever_the_condition_holds(seed, dim, extra, scale):
    # two frames only: for three or more the rule's lower bound can be false
    # (ROADMAP item 1), which a property over k >= 3 would report
    rng, frames = _draw_frames(seed, dim, extra)
    coefficients = np.array([1.0, scale]) * rng.uniform(0.5, 1.0, 2) * _unit_phases(rng, 2)
    bounds = [exact_bounds(f) for f in frames]
    holding = [p for p in (finite_sum_predict(bounds, coefficients, j) for j in range(2)) if p.condition_holds]
    assume(holding)
    built = build_sum_frame(frames, coefficients)
    for predicted in holding:
        assert certify(predicted, built)
