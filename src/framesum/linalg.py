"""Dense complex linear algebra kernel.

Frame bounds reduce to the Hermitian eigenproblem solved here, by LAPACK
through ``numpy.linalg.eigh``; operator norms and residuals take singular
values from LAPACK's SVD.  This module adds what LAPACK does not check: a
square shape, and what a number is: the package reads a caller's numbers with
:func:`as_carray` for arrays (:func:`as_points` for window points), :func:`as_real`
for reals and :func:`as_index` for integers, and the frozen records their fields
with :func:`read_reals`.  It does not check Hermitian symmetry: the eigensolver
reads one triangle, so its input must be exactly Hermitian, as
``frames.frame_operator`` builds it.  A LAPACK convergence failure surfaces as
the toolkit's :class:`NoConvergenceError`.

Conventions
-----------
* matrices are dense ``complex128`` arrays, row-major;
* eigenvalues are returned ascending, eigenvectors as matching columns;
* singular values come from ``numpy.linalg.svd`` of the matrix itself, not
  from the eigenvalues of ``M* M``, which would square its condition number.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    SingularOperatorError,
)

#: relative spectral floor: eigenvalues below RANK_TOLERANCE * lambda_max are
#: treated as zero by the positive-definite solver.
RANK_TOLERANCE = 1e-12


def _numbers(values, what: str, kinds: str) -> np.ndarray:
    """``np.asarray(values)`` if its dtype kind is one of ``kinds``, else :class:`DimensionMismatchError`."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatchError(f"expected {what}: {exc}") from None
    if arr.dtype.kind not in kinds:
        raise DimensionMismatchError(f"expected {what}, got entries of dtype {arr.dtype}")
    return arr


def as_carray(values, ndim: int) -> np.ndarray:
    """Coerce to a finite nonempty complex array of rank ``ndim`` (1 or 2), or raise
    :class:`DimensionMismatchError`, for ragged and non-numeric input too.

    Numbers are what numpy builds a boolean, integer, float or complex array
    from; text, bytes and other objects are not, even where ``complex`` would
    parse them, as it parses ``"1"``.
    """
    noun = "vector" if ndim == 1 else "matrix"
    arr = _numbers(values, f"a {noun} of numbers", "biufc").astype(complex, copy=False)
    if arr.ndim != ndim or arr.size == 0:
        raise DimensionMismatchError(f"expected a nonempty {noun}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DimensionMismatchError(f"{noun} entries must be finite")
    return arr


def as_points(values) -> np.ndarray:
    """``values`` as a float array of any shape, by the rule of :func:`as_carray` less complex
    numbers; empty or non-finite input is the caller's to judge, and a float array is not copied."""
    arr = _numbers(values, "real points", "biuf")
    return arr if arr.dtype == np.float64 else arr.astype(float)


def as_real(value) -> float:
    """``value``, a finite ``numbers.Real`` other than ``bool``, as a float; text is never
    parsed.  ``TypeError`` if it is not a real, ``ValueError`` if NaN, infinite or too large."""
    if type(value) is not float:  # floats, numpy's float64 and ints skip the slower ABC check
        if isinstance(value, bool) or not (isinstance(value, (float, int)) or isinstance(value, numbers.Real)):
            raise TypeError(f"expected a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise ValueError("expected a finite number, got an integer beyond the float range") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return value


def as_index(value) -> int:
    """``value``, an integer other than ``bool`` (numpy's count), as an ``int``; ``TypeError`` otherwise."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def read_reals(record, names, error, message: str, range_error=None) -> None:
    """Set each field ``names`` of the frozen dataclass ``record`` to :func:`as_real` of it.  A field
    that is not a real raises ``error``, and one that is NaN, infinite or too large ``range_error``
    (``error`` if None), each with ``message.format(name, value)``."""
    fields = vars(record)
    for name in names:
        try:
            fields[name] = as_real(fields[name])
        except TypeError:
            raise error(message.format(name, fields[name])) from None
        except ValueError:
            raise (range_error or error)(message.format(name, fields[name])) from None


def hermitian_eig(matrix):
    """Eigendecomposition of a Hermitian matrix by LAPACK (``numpy.linalg.eigh``).

    Returns numpy's ``EighResult`` of ``M = Q diag(eigenvalues) Q*``:
    ``eigenvalues`` is a real ascending array, ``eigenvectors`` holds the
    matching orthonormal columns.  LAPACK reads only the lower triangle and
    the real part of the diagonal, so the caller must pass a matrix whose
    entries ``(i, j)`` and ``(j, i)`` are exact conjugates; nothing here
    checks it.  Raises :class:`NoConvergenceError` if LAPACK reports that it
    did not converge.
    """
    a = as_carray(matrix, 2)
    n, m = a.shape
    if n != m:
        raise DimensionMismatchError(f"matrix must be square, got {n}x{m}")
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK eigensolver failed: {exc}") from None


def extreme_singular_values(matrix) -> tuple[float, float]:
    """Smallest and largest singular value ``(sigma_min, sigma_max)``, by LAPACK's SVD.

    Through the eigenvalues of ``M* M``, ``sigma_min`` would carry an absolute
    error of about ``sqrt(eps) * sigma_max``: too high, unsafe for a lower bound.
    """
    try:
        sigma = np.linalg.svd(as_carray(matrix, 2), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK SVD failed: {exc}") from None
    return float(sigma[-1]), float(sigma[0])


def solve_hpd(matrix, rhs) -> np.ndarray:
    """Solve ``M x = b`` for an exactly Hermitian positive definite ``M``.

    Uses the eigendecomposition of :func:`hermitian_eig`, so ``M`` must be
    exactly Hermitian and the accuracy matches that solver's.
    Raises :class:`SingularOperatorError` when the smallest eigenvalue sits at
    or below ``RANK_TOLERANCE`` times the largest.
    """
    return hpd_inverse_apply(matrix, as_carray(rhs, 1)[np.newaxis])[0]


def hpd_inverse_apply(matrix, vectors) -> np.ndarray:
    """Apply ``M^-1`` to each row of ``vectors`` (one factorization, many solves).

    ``M`` must be exactly Hermitian, as :func:`hermitian_eig` requires.
    Raises :class:`SingularOperatorError` when the smallest eigenvalue sits at
    or below ``RANK_TOLERANCE`` times the largest.
    """
    m = as_carray(matrix, 2)
    rows = as_carray(vectors, 2)
    if rows.shape[1] != m.shape[0]:
        raise DimensionMismatchError(
            f"rows have length {rows.shape[1]}, matrix is {m.shape[0]}x{m.shape[1]}"
        )
    eig = hermitian_eig(m)
    lam = eig.eigenvalues
    if lam[0] <= RANK_TOLERANCE * max(lam[-1], 0.0) or lam[-1] <= 0.0:
        raise SingularOperatorError(
            f"smallest eigenvalue {lam[0]:.3e} is below the rank floor of "
            f"{RANK_TOLERANCE:.0e} * {lam[-1]:.3e}"
        )
    qs = eig.eigenvectors
    return ((rows @ qs.conj()) / lam) @ qs.T
