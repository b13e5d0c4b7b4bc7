import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from conftest import canonical_dual, random_frame
from framesum import (
    DimensionMismatchError,
    FiniteFrame,
    FrameBounds,
    InvalidBoundsError,
    NotAFrameError,
    NumericRangeError,
    exact_bounds,
    verify_dual,
)
from framesum.frames import SPAN_TOLERANCE, frame_operator, random_unit_vector

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


def test_frame_operator_coupled():
    np.testing.assert_allclose(frame_operator(BASE_C2), [[10, 6], [6, 10]], rtol=1e-14)


def test_frame_operator_orthonormal_basis():
    np.testing.assert_allclose(frame_operator(FiniteFrame(np.eye(2))), np.eye(2), atol=0)


def test_frame_operator_diagonal():
    np.testing.assert_allclose(frame_operator(DIAG_C2), np.diag([6, 9]), rtol=1e-14, atol=1e-14)


def test_construction_rejects_all_zero():
    with pytest.raises(NotAFrameError):
        FiniteFrame(np.zeros((3, 2)))


def test_construction_rejects_ragged_and_nonfinite():
    with pytest.raises(DimensionMismatchError):
        FiniteFrame(np.zeros((0, 2)))
    with pytest.raises(DimensionMismatchError):
        FiniteFrame([[np.inf, 0]])
    with pytest.raises(DimensionMismatchError):  # one vector is not a family
        FiniteFrame([1, 0])
    with pytest.raises(DimensionMismatchError):  # vectors of unequal length
        FiniteFrame([[1, 0], [1]])


def test_exact_bounds_base_frame():
    bounds = exact_bounds(BASE_C2)
    assert bounds.lower == pytest.approx(4, rel=1e-12)
    assert bounds.upper == pytest.approx(16, rel=1e-12)
    assert bounds.width == pytest.approx(0.6, rel=1e-12)
    assert not bounds.is_tight


def test_exact_bounds_c3_frame():
    bounds = exact_bounds(DUAL_F_C3)
    assert bounds.lower == pytest.approx(1 / 3, rel=1e-12)
    assert bounds.upper == pytest.approx(7 / 3, rel=1e-12)


def test_exact_bounds_tight():
    bounds = exact_bounds(TIGHT_C2)
    assert bounds.is_tight
    assert not bounds.is_parseval
    assert bounds.lower == pytest.approx(4, rel=1e-12)
    assert bounds.upper == pytest.approx(4, rel=1e-12)


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 8),
    extra=st.integers(0, 4),
    zeros=st.integers(0, 3),
    complex_entries=st.booleans(),
    exponent=st.integers(-400, 400),
)
@example(seed=0, dim=8, extra=0, zeros=3, complex_entries=True, exponent=400)
@example(seed=0, dim=8, extra=0, zeros=3, complex_entries=True, exponent=-400)
def test_frame_operator_is_exactly_hermitian_and_the_oracle_solves_it_as_is(
    seed, dim, extra, zeros, complex_entries, exponent
):
    """LAPACK reads one triangle of the frame operator, so the oracle's bounds
    are sound only if ``S`` is Hermitian to the last bit."""
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((dim + extra, dim))
    if complex_entries:
        vectors = vectors + 1j * rng.standard_normal(vectors.shape)
    vectors = np.insert(vectors, rng.integers(0, dim + extra + 1, zeros), 0.0, axis=0)
    frame = FiniteFrame(vectors * 2.0**exponent)
    s = frame_operator(frame)
    assert np.array_equal(s, s.conj().T)
    assert not s.diagonal().imag.any()
    lam = np.linalg.eigh(s).eigenvalues
    assume(lam[-1] > 0.0 and lam[0] > SPAN_TOLERANCE * lam[-1])
    bounds = exact_bounds(frame)
    assert (bounds.lower, bounds.upper) == (lam[0], lam[-1])


def test_exact_bounds_rejects_rank_deficient():
    with pytest.raises(NotAFrameError):
        exact_bounds(FiniteFrame([[1, 0], [2, 0]]))


@pytest.mark.parametrize(
    "vectors,error",
    [
        ([[1e-170, 0], [0, 1e-170]], NumericRangeError),  # S underflows to 0
        ([[1e-160, 0], [0, 1e-160]], NumericRangeError),  # S is subnormal, its bounds inexact
        ([[1e-170, 0], [2e-170, 0]], NotAFrameError),
        ([[3e-170, 0], [0, 1e-300]], NotAFrameError),  # spans, but not within SPAN_TOLERANCE
    ],
    ids=["basis-zero", "basis-subnormal", "rank-deficient", "ill-conditioned"],
)
def test_exact_bounds_on_an_underflowing_operator(vectors, error):
    frame = FiniteFrame(vectors)
    with pytest.raises(error):
        exact_bounds(frame)
    with pytest.raises(error):  # not saved: a second call decides again
        exact_bounds(frame)


def test_exact_bounds_solves_each_frame_once(eig_calls):
    frame = FiniteFrame([[RT6, RT6], [0, 2], [2, 0]])
    first = exact_bounds(frame)
    assert exact_bounds(frame) == first
    assert len(eig_calls) == 1


def test_frame_vectors_are_read_only():
    frame = FiniteFrame([[RT6, RT6], [0, 2], [2, 0]])
    with pytest.raises(ValueError):
        frame.vectors[0, 0] = 1.0
    with pytest.raises(ValueError):
        frame.vectors[1][:] = 0.0


@pytest.mark.parametrize("solve_first", [False, True], ids=["before-solve", "after-solve"])
def test_exact_bounds_ignores_changes_to_the_source_array(solve_first):
    # a complex source array is the one numpy would hand over without a copy
    source = np.array([[RT6, RT6], [0, 2], [2, 0]], dtype=complex)
    frame = FiniteFrame(source)
    if solve_first:
        exact_bounds(frame)
    source[:] = [[1, 0], [0, 1], [0, 0]]
    bounds = exact_bounds(frame)
    assert bounds == exact_bounds(FiniteFrame([[RT6, RT6], [0, 2], [2, 0]]))
    assert bounds.upper == pytest.approx(16, rel=1e-12)


def test_exact_bounds_raises_for_a_non_frame_on_every_call(eig_calls):
    frame = FiniteFrame([[1, 0], [2, 0]])
    for _ in range(3):
        with pytest.raises(NotAFrameError):
            exact_bounds(frame)
    assert len(eig_calls) == 3


def test_width_values():
    assert FrameBounds(4, 16).width == pytest.approx(0.6, rel=1e-15)
    assert FrameBounds(9, 9).width == 0.0
    assert FrameBounds(87604, 180032).width == pytest.approx(0.3453, abs=5e-5)


def test_width_rejects_invalid():
    with pytest.raises(InvalidBoundsError):
        FrameBounds(0, 1)
    with pytest.raises(InvalidBoundsError):
        FrameBounds(2, 1)
    with pytest.raises(InvalidBoundsError):
        FrameBounds(-1, 1)
    with pytest.raises(InvalidBoundsError):
        FrameBounds(1, np.inf)


@given(
    lower=st.floats(min_value=1e-3, max_value=1e3),
    upper_factor=st.floats(min_value=1.0, max_value=1e3),
    stretch_lo=st.floats(min_value=0.1, max_value=1.0),
    stretch_hi=st.floats(min_value=1.0, max_value=10.0),
)
def test_width_monotone_under_widening(lower, upper_factor, stretch_lo, stretch_hi):
    upper = lower * upper_factor
    base = FrameBounds(lower, upper).width
    widened = FrameBounds(lower * stretch_lo, upper * stretch_hi).width
    assert widened >= base - 1e-12


def test_verify_dual_canonical(rng):
    frame = random_frame(rng, 5, 3)
    check = verify_dual(frame, canonical_dual(frame))
    assert check.is_dual
    assert check.max_residual <= 1e-9


def test_verify_dual_published_pair():
    check = verify_dual(DUAL_F_C3, DUAL_G_C3)
    assert check.is_dual


def test_verify_dual_rejects_non_dual():
    check = verify_dual(BASE_C2, BASE_C2)
    assert not check.is_dual
    assert check.max_residual > 1e-3


def test_verify_dual_is_exact_on_a_near_dual_pair():
    # G* F - I is 2e-9 in one entry and 0 elsewhere: twice the tolerance, in a
    # direction that random unit vectors in C^64 barely see
    frame = FiniteFrame(np.eye(64))
    near = np.eye(64)
    near[0, 0] += 2e-9
    check = verify_dual(frame, FiniteFrame(near))
    assert not check.is_dual
    assert check.max_residual == pytest.approx(2e-9, rel=1e-6)


def test_verify_dual_shape_errors():
    with pytest.raises(DimensionMismatchError):
        verify_dual(BASE_C2, DUAL_F_C3)
    with pytest.raises(DimensionMismatchError):
        verify_dual(DUAL_F_C3, FiniteFrame(np.eye(3)))


def test_sampling_consistency(rng):
    for count, dim in [(4, 2), (6, 3), (9, 5)]:
        frame = random_frame(rng, count, dim)
        bounds = exact_bounds(frame)
        lo, hi = bounds.lower, bounds.upper
        for _ in range(100):
            f = random_unit_vector(rng, dim)
            energy = float(np.sum(np.abs(frame.vectors.conj() @ f) ** 2))
            assert lo * (1 - 1e-9) <= energy <= hi * (1 + 1e-9)


def test_bounds_attained_by_eigenvectors(rng):
    frame = random_frame(rng, 7, 4)
    bounds = exact_bounds(frame)
    from framesum.linalg import hermitian_eig

    eig = hermitian_eig(frame_operator(frame))
    for column, target in ((0, bounds.lower), (-1, bounds.upper)):
        v = eig.eigenvectors[:, column]
        energy = float(np.sum(np.abs(frame.vectors.conj() @ v) ** 2))
        assert energy == pytest.approx(target, rel=1e-9)


def test_bounds_scaling_covariance(rng):
    frame = random_frame(rng, 5, 3)
    base = exact_bounds(frame)
    for c in (2.0, 0.3, 1.5 - 2.5j, 1j):
        scaled = FiniteFrame(c * frame.vectors)
        bounds = exact_bounds(scaled)
        factor = abs(c) ** 2
        assert bounds.lower == pytest.approx(factor * base.lower, rel=1e-10)
        assert bounds.upper == pytest.approx(factor * base.upper, rel=1e-10)


def test_zero_vectors_inside_family_are_allowed():
    frame = FiniteFrame([[0, 3], [3, 0], [0, 0]])
    bounds = exact_bounds(frame)
    assert bounds.is_tight
    assert bounds.lower == pytest.approx(9, rel=1e-12)
