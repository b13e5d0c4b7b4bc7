"""Sufficient conditions and predicted bounds for sums of frames.

Four predictors, one per combination rule:

* weighted finite sum ``sum_i c_i f_k^(i)`` with a pivot index,
* frame plus a verified dual,
* operator images ``T1 f_k + T2 g_k``,
* scalar perturbations ``alpha_k f_k + beta_k g_k``.

Each predictor is pure bound arithmetic; it does not look at the vectors.  The
perturbed-sum rule is the operator-sum rule with the scalar sequences' modulus
ranges ``(inf, sup)``, from :func:`modulus_range`, in place of the operators'
singular ranges, from :func:`~framesum.linalg.extreme_singular_values`.  A
``build_*`` function builds the summed family itself; the dual sum is the
finite sum with ``c = (1, 1)``.  :func:`certify` answers one yes/no question:
does a prediction whose condition holds bracket the spectral oracle bounds of
that family?  Strict inequalities are evaluated as ``margin > 0`` in plain
double arithmetic, and ``PredictedBounds.condition_holds`` is that test.  So a
tie fails the condition only when its margin comes out exactly 0; an exact tie
whose margin rounds to a small positive number reports the condition as
holding (the strict xfails ``finite-sum-tie`` and ``operator-sum-tie`` in
``tests/test_cli.py``, and ROADMAP item 13).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, InvalidBoundsError, NumericRangeError, ZeroCoefficientError
from .frames import FiniteFrame, FrameBounds, as_frame_bounds, brackets, check_aligned, exact_bounds


@dataclass(frozen=True)
class PredictedBounds:
    """Theorem-predicted bound pair plus the margin of its sufficiency condition.

    ``condition_margin`` is the left side minus the right side of the strict
    inequality backing the prediction; the condition holds exactly when the
    margin is positive.  Fields are stored as plain ``float`` (numpy scalars are
    converted), so reports serialize as JSON.  A field that is not a real is an
    :class:`InvalidBoundsError`; one that is not finite, which from finite bounds
    only an overflow makes, a :class:`NumericRangeError`.
    """

    lower: float
    upper: float
    condition_margin: float

    def __post_init__(self):
        fields = ("lower", "upper", "condition_margin")
        message = "predicted {} must be a finite real, got {!r}"
        linalg.read_reals(self, fields, InvalidBoundsError, message, NumericRangeError)
        if self.condition_holds and not (0.0 < self.lower <= self.upper):
            raise InvalidBoundsError(
                f"holding condition must give 0 < lower <= upper, got ({self.lower}, {self.upper})"
            )

    @property
    def condition_holds(self) -> bool:
        return self.condition_margin > 0.0

    @property
    def width(self) -> float:
        return FrameBounds(self.lower, self.upper).width


def _coerce_coefficients(coefficients) -> np.ndarray:
    c = linalg.as_carray(coefficients, 1)
    if np.any(c == 0):
        raise ZeroCoefficientError("all coefficients must be nonzero")
    return c


def finite_sum_predict(bounds, coefficients, pivot: int) -> PredictedBounds:
    """Predicted bounds for a weighted sum of k frames, pivoting on index ``pivot``.

    With bound pairs ``(A_i, B_i)`` and nonzero weights ``c_i`` the condition is

        ``|c_j| A_j + sum_{i != j} |c_i^2 / c_j| A_i  >  2 sqrt(B_j) sum_{i != j} |c_i| sqrt(B_i)``

    and a holding condition yields the pair

        ``(sum_i |c_i|^2 A_i - 2 sum_{i != j} |c_j c_i| sqrt(B_j B_i),  k sum_i |c_i|^2 B_i)``.

    ``pivot`` is 0-based.
    """
    blist = [as_frame_bounds(pair) for pair in bounds]
    c = _coerce_coefficients(coefficients)
    k = len(blist)
    if c.shape[0] != k:
        raise DimensionMismatchError(f"{k} bound pairs but {c.shape[0]} coefficients")
    try:
        pivot = linalg.as_index(pivot)
    except TypeError:
        raise DimensionMismatchError(f"pivot must be an integer, got {pivot!r}") from None
    if not (0 <= pivot < k):
        raise DimensionMismatchError(f"pivot {pivot} out of range for {k} frames")

    mags = np.abs(c)
    a = np.array([b.lower for b in blist])
    b = np.array([b.upper for b in blist])
    sqrt_b = np.sqrt(b)

    cross = float(np.sum(np.delete(mags * sqrt_b, pivot)))
    lhs = mags[pivot] * a[pivot] + float(np.sum(np.delete(mags**2 * a, pivot))) / mags[pivot]
    rhs = 2.0 * sqrt_b[pivot] * cross
    margin = lhs - rhs

    lower = float(np.sum(mags**2 * a)) - 2.0 * mags[pivot] * sqrt_b[pivot] * cross
    upper = k * float(np.sum(mags**2 * b))
    if lower <= 0.0:  # lower is |c_j| margin up to round-off: a sign split is a tie
        margin = min(margin, 0.0)
    return PredictedBounds(lower, upper, margin)


def finite_sum_best_pivot(bounds, coefficients) -> tuple[int, PredictedBounds]:
    """The pivot whose holding condition gives the largest predicted lower bound.

    Falls back to the largest-margin pivot when no pivot makes the condition
    hold.
    """
    blist = [as_frame_bounds(pair) for pair in bounds]
    predictions = [
        finite_sum_predict(blist, coefficients, j) for j in range(len(blist))
    ]
    holding = [(j, p) for j, p in enumerate(predictions) if p.condition_holds]
    if holding:
        return max(holding, key=lambda jp: jp[1].lower)
    return max(enumerate(predictions), key=lambda jp: jp[1].condition_margin)


def dual_sum_predict(bounds1, bounds2) -> PredictedBounds:
    """Predicted bounds ``(A1 + A2 + 2, B1 + B2 + 2)`` for a frame plus a dual.

    No side condition: a verified dual pair always sums to a frame, so the
    margin is the (always positive) predicted lower bound itself.  The caller
    is responsible for verifying duality first.
    """
    b1, b2 = as_frame_bounds(bounds1), as_frame_bounds(bounds2)
    lower = b1.lower + b2.lower + 2.0
    upper = b1.upper + b2.upper + 2.0
    return PredictedBounds(lower, upper, lower)


def _as_range(pair) -> tuple[float, float]:
    """A range ``(low, high)`` of two finite reals, as floats, or :class:`InvalidBoundsError`."""
    try:
        low, high = pair
        return linalg.as_real(low), linalg.as_real(high)
    except (TypeError, ValueError):  # not a pair, or not two finite reals
        raise InvalidBoundsError(f"expected a range (low, high) of two finite reals, got {pair!r}") from None


def operator_sum_predict(sigma1, sigma2, bounds1, bounds2) -> PredictedBounds:
    """Predicted bounds for ``{T1 f_k + T2 g_k}``.

    ``sigma1`` and ``sigma2`` are the singular ranges ``(m, ||T||)`` of the
    two operators, as :func:`~framesum.linalg.extreme_singular_values` returns
    them: ``m`` is the smallest singular value, the lower bound of the adjoint
    (``||T* f|| >= m ||f||``), and ``||T||`` the largest.  Condition and lower
    bound are the same expression,

        ``A1 m1^2 + A2 m2^2 - 2 sqrt(B1 B2) ||T1|| ||T2||``,

    the upper bound is ``(sqrt(B1) ||T1|| + sqrt(B2) ||T2||)^2``.  Squares are
    products, since ``x ** 2`` calls ``pow``, which may not be correctly rounded.
    """
    (m1, norm1), (m2, norm2) = _as_range(sigma1), _as_range(sigma2)
    b1, b2 = as_frame_bounds(bounds1), as_frame_bounds(bounds2)
    margin = (
        b1.lower * (m1 * m1)
        + b2.lower * (m2 * m2)
        - 2.0 * math.sqrt(b1.upper * b2.upper) * norm1 * norm2
    )
    root = math.sqrt(b1.upper) * norm1 + math.sqrt(b2.upper) * norm2
    return PredictedBounds(margin, root * root, margin)


def modulus_range(values) -> tuple[float, float]:
    """``(inf |v_k|, sup |v_k|)`` of a nonempty finite scalar sequence: for the
    perturbed-sum rule, what :func:`~framesum.linalg.extreme_singular_values`
    is for the operator-sum rule.  Checked by :func:`~framesum.linalg.as_carray`."""
    mags = np.abs(linalg.as_carray(values, 1))
    return float(mags.min()), float(mags.max())


def perturbed_sum_predict(range1, range2, bounds1, bounds2) -> PredictedBounds:
    """Predicted bounds for ``{alpha_k f_k + beta_k g_k}``.

    This is :func:`operator_sum_predict` with the modulus ranges
    ``(inf|alpha|, sup|alpha|)`` and ``(inf|beta|, sup|beta|)`` of
    :func:`modulus_range` in place of the singular ranges: condition and lower
    bound ``inf|alpha|^2 A1 + inf|beta|^2 A2 - 2 sup|alpha| sup|beta| sqrt(B1 B2)``,
    upper bound ``(sup|alpha| sqrt(B1) + sup|beta| sqrt(B2))^2``.
    """
    return operator_sum_predict(range1, range2, bounds1, bounds2)


def build_sum_frame(frames, coefficients) -> FiniteFrame:
    """Vector-wise weighted sum ``sum_i c_i f_k^(i)`` of aligned frames."""
    frames = tuple(frames)
    c = _coerce_coefficients(coefficients)
    if c.shape[0] != len(frames):
        raise DimensionMismatchError(f"{len(frames)} frames but {c.shape[0]} coefficients")
    check_aligned(frames)
    stacked = np.stack([fr.vectors for fr in frames])
    return FiniteFrame(np.tensordot(c, stacked, axes=(0, 0)))


def build_operator_sum_frame(frame1: FiniteFrame, frame2: FiniteFrame, theta1, theta2) -> FiniteFrame:
    """Vector-wise ``T1 f_k + T2 g_k`` for aligned frames and ``d x d`` matrices."""
    check_aligned((frame1, frame2))
    d = frame1.dim
    t1, t2 = linalg.as_carray(theta1, 2), linalg.as_carray(theta2, 2)
    for name, t in (("theta1", t1), ("theta2", t2)):
        if t.shape != (d, d):
            raise DimensionMismatchError(f"{name} must be {d}x{d}, got {t.shape}")
    return FiniteFrame(frame1.vectors @ t1.T + frame2.vectors @ t2.T)


def build_perturbed_sum_frame(frame1: FiniteFrame, frame2: FiniteFrame, alpha, beta) -> FiniteFrame:
    """Vector-wise ``alpha_k f_k + beta_k g_k`` for aligned frames."""
    check_aligned((frame1, frame2))
    alpha, beta = linalg.as_carray(alpha, 1), linalg.as_carray(beta, 1)
    if alpha.shape != (frame1.count,) or beta.shape != (frame2.count,):
        raise DimensionMismatchError("scalar sequences must have one entry per frame vector")
    return FiniteFrame(alpha[:, None] * frame1.vectors + beta[:, None] * frame2.vectors)


def certify(predicted: PredictedBounds, actual: FiniteFrame) -> bool:
    """Whether ``predicted`` brackets the oracle bounds of ``actual``.

    That is ``lower <= A*`` and ``upper >= B*`` within a relative
    ``CERTIFY_TOLERANCE``, as :func:`~framesum.frames.brackets` decides for
    the pair :func:`~framesum.frames.exact_bounds` returns; the oracle pair
    is saved on ``actual``, so a caller that reports it solves nothing again.

    Requires a holding condition.  Propagates :class:`NotAFrameError` when the
    built family fails to span, which callers should surface as a finding
    rather than crash on: a holding condition with a non-spanning sum exposes
    either an invalid input bound or a genuine defect.
    """
    if not predicted.condition_holds:
        raise InvalidBoundsError("cannot certify a prediction whose condition failed")
    return brackets(predicted, exact_bounds(actual))
