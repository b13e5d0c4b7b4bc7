"""Finite frames and their spectral (optimal) bounds.

A finite frame is a family of vectors ``{f_k}`` in ``C^d`` whose analysis
energy ``sum_k |<f, f_k>|^2`` is pinched between ``A ||f||^2`` and
``B ||f||^2`` for every ``f``.  The optimal constants are the extreme
eigenvalues of the frame operator ``S = sum_k f_k f_k*``, which is what
:func:`exact_bounds` reports; theorem-predicted pairs elsewhere in the package
are always labelled as predictions and checked against this oracle.

Inner products conjugate the *second* argument: ``<f, g> = sum f_i conj(g_i)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, InvalidBoundsError, NotAFrameError, NumericRangeError

#: width at or below which a frame is certified tight.
TIGHTNESS_TOLERANCE = 1e-10

#: additional |A - 1| tolerance for the Parseval flag.
PARSEVAL_TOLERANCE = 1e-10

#: relative spectral floor below which the family does not count as a frame.
SPAN_TOLERANCE = 1e-12

#: max residual accepted by verify_dual.
DUAL_RESIDUAL_TOLERANCE = 1e-9

#: relative slack when checking that a bound pair brackets the optimal one.
CERTIFY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class FrameBounds:
    """A valid bound pair ``0 < lower <= upper`` (not necessarily optimal)."""

    lower: float
    upper: float

    def __post_init__(self):
        try:
            lo, hi = float(self.lower), float(self.upper)
        except (TypeError, ValueError):
            raise InvalidBoundsError(f"bounds must be real numbers, got ({self.lower!r}, {self.upper!r})") from None
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidBoundsError("bounds must be finite")
        if not (0.0 < lo <= hi):
            raise InvalidBoundsError(f"need 0 < lower <= upper, got ({lo}, {hi})")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def width(self) -> float:
        """Tightness measure ``(B - A) / (B + A)``, in ``[0, 1)``."""
        return (self.upper - self.lower) / (self.upper + self.lower)

    @property
    def is_tight(self) -> bool:
        """Whether the width is at most ``TIGHTNESS_TOLERANCE``."""
        return self.width <= TIGHTNESS_TOLERANCE

    @property
    def is_parseval(self) -> bool:
        """Whether the pair is tight with ``A`` within ``PARSEVAL_TOLERANCE`` of 1."""
        return self.is_tight and abs(self.lower - 1.0) <= PARSEVAL_TOLERANCE


def as_frame_bounds(pair) -> FrameBounds:
    """``pair`` if it is a :class:`FrameBounds`, else the :class:`FrameBounds` of the pair ``(lower, upper)``."""
    if isinstance(pair, FrameBounds):
        return pair
    try:
        lower, upper = pair
    except (TypeError, ValueError):
        raise InvalidBoundsError(f"expected a bound pair (lower, upper), got {pair!r}") from None
    return FrameBounds(lower, upper)


def brackets(pair, optimal: FrameBounds) -> bool:
    """Whether ``pair`` is a valid bound pair for a frame with ``optimal`` bounds.

    That is ``pair.lower <= A`` and ``pair.upper >= B``, each within a relative
    ``CERTIFY_TOLERANCE`` of the optimal value.
    """
    return (
        pair.lower <= optimal.lower * (1.0 + CERTIFY_TOLERANCE)
        and pair.upper >= optimal.upper * (1.0 - CERTIFY_TOLERANCE)
    )


class FiniteFrame:
    """An indexed family of complex vectors in a common dimension.

    Vectors are stored as rows of an immutable ``(count, dim)`` array, a
    copy of the caller's read by :func:`~framesum.linalg.as_carray`.  Zero
    vectors are allowed (they contribute nothing); an all-zero family is
    rejected.  ``_bounds`` holds the optimal bounds from :func:`exact_bounds`
    once they have been computed.
    """

    __slots__ = ("_vectors", "_bounds")

    def __init__(self, vectors):
        arr = linalg.as_carray(vectors, 2)
        if not np.any(arr):
            raise NotAFrameError("all vectors are zero")
        arr = arr.copy()
        arr.setflags(write=False)
        self._vectors = arr
        self._bounds = None

    @property
    def vectors(self) -> np.ndarray:
        return self._vectors

    @property
    def dim(self) -> int:
        return self._vectors.shape[1]

    @property
    def count(self) -> int:
        return self._vectors.shape[0]

    def __repr__(self) -> str:
        return f"FiniteFrame(count={self.count}, dim={self.dim})"


def frame_operator(frame: FiniteFrame) -> np.ndarray:
    """Hermitian positive semidefinite ``S = sum_k f_k f_k*`` as a dense matrix."""
    v = frame.vectors
    s = v.T @ v.conj()
    return (s + s.conj().T) / 2.0


def exact_bounds(frame: FiniteFrame) -> FrameBounds:
    """Optimal frame bounds: the extreme eigenvalues of the frame operator.

    The bounds are computed once per frame and saved on it: a frame's vectors
    are a read-only copy, so its spectrum cannot change.

    Raises :class:`NotAFrameError` when the family fails to span (smallest
    eigenvalue at or below ``SPAN_TOLERANCE`` times the largest); that
    outcome is not saved, so every call raises it again.  Underflow in ``S``
    can decide that only when the smallest eigenvalue and the span threshold
    both lie below the normal range.  The frame is then scaled by the power
    of two that brings its largest entry into ``[0.5, 1)``, which is exact for
    every entry that stays normal, and solved again: the scaled frame raises
    :class:`NotAFrameError` when it does not span, and
    :class:`NumericRangeError` is raised when it does.
    """
    if frame._bounds is not None:
        return frame._bounds
    eig = linalg.hermitian_eig(frame_operator(frame))
    lo = float(eig.eigenvalues[0])
    hi = float(eig.eigenvalues[-1])
    if max(lo, SPAN_TOLERANCE * hi) < np.finfo(float).tiny:
        exponent = -math.frexp(float(np.abs(frame.vectors).max()))[1]
        # B >= 0.25 / dim for the scaled frame, so this call solves it and does not recur
        exact_bounds(FiniteFrame(np.ldexp(frame.vectors.view(float), exponent).view(complex)))
        raise NumericRangeError(
            f"frame operator underflowed: smallest eigenvalue {lo:.3e}; the frame times 2^{exponent} spans"
        )
    if hi <= 0.0 or lo <= SPAN_TOLERANCE * hi:
        raise NotAFrameError(
            f"vectors do not span: extreme eigenvalues ({lo:.3e}, {hi:.3e})"
        )
    frame._bounds = FrameBounds(lo, hi)
    return frame._bounds


def check_aligned(frames) -> None:
    """Raise :class:`DimensionMismatchError` unless all frames share dim and count."""
    first = frames[0]
    for fr in frames[1:]:
        if fr.dim != first.dim or fr.count != first.count:
            raise DimensionMismatchError(f"frames must align: {first!r} vs {fr!r}")


@dataclass(frozen=True)
class DualCheck:
    is_dual: bool
    max_residual: float


def verify_dual(frame: FiniteFrame, dual: FiniteFrame) -> DualCheck:
    """Exact check of the dual identity ``sum_k <f, f_k> g_k = f``.

    The left side is the mixed operator ``G* F`` applied to ``f``, so the worst
    residual over unit vectors ``f`` is the largest singular value of
    ``G* F - I``.  ``max_residual`` reports it, and the pair passes when it
    stays at or below ``DUAL_RESIDUAL_TOLERANCE``.  The frames must align.
    """
    check_aligned((frame, dual))
    mixed = dual.vectors.T @ frame.vectors.conj()
    _, worst = linalg.extreme_singular_values(mixed - np.eye(frame.dim))
    return DualCheck(is_dual=worst <= DUAL_RESIDUAL_TOLERANCE, max_residual=worst)


def random_unit_vector(rng, dim: int) -> np.ndarray:
    """Complex unit vector drawn from the rotation-invariant distribution."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    norm = np.linalg.norm(z)
    while norm == 0.0:  # measure-zero, but stay total
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        norm = np.linalg.norm(z)
    return z / norm
