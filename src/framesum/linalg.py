"""Dense complex linear algebra kernel.

Frame bounds reduce to the Hermitian eigenproblem solved here, by LAPACK
through ``numpy.linalg.eigh``; operator norms and residuals take singular
values from LAPACK's SVD.  This module adds what LAPACK does not check: finite
entries, a square shape, and Hermitian symmetry up to ``HERMITIAN_TOLERANCE``.
A LAPACK convergence failure surfaces as :class:`NoConvergenceError`, so it
stays inside the package's error hierarchy.

Conventions
-----------
* matrices are dense ``complex128`` arrays, row-major;
* eigenvalues are returned ascending, eigenvectors as matching columns;
* singular values come from ``numpy.linalg.svd`` of the matrix itself, not
  from the eigenvalues of ``M* M``, which would square its condition number.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotHermitianError,
    SingularOperatorError,
)

#: relative max-norm asymmetry tolerated before a matrix is rejected as
#: non-Hermitian.
HERMITIAN_TOLERANCE = 1e-10

#: relative spectral floor: eigenvalues below RANK_TOLERANCE * lambda_max are
#: treated as zero by the positive-definite solver.
RANK_TOLERANCE = 1e-12


def as_cvector(values) -> np.ndarray:
    """Coerce to a finite 1-d complex vector."""
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionMismatchError(f"expected a nonempty vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DimensionMismatchError("vector entries must be finite")
    return arr


def as_cmatrix(values) -> np.ndarray:
    """Coerce to a finite 2-d complex matrix."""
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 2 or arr.size == 0:
        raise DimensionMismatchError(f"expected a nonempty matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DimensionMismatchError("matrix entries must be finite")
    return arr


def hermitian_eig(matrix):
    """Eigendecomposition of a Hermitian matrix by LAPACK (``numpy.linalg.eigh``).

    Returns numpy's ``EighResult`` of ``M = Q diag(eigenvalues) Q*``:
    ``eigenvalues`` is a real ascending array, ``eigenvectors`` holds the
    matching orthonormal columns.  Raises :class:`NotHermitianError` if the
    input is asymmetric beyond ``HERMITIAN_TOLERANCE`` (relative to the
    largest entry) and :class:`NoConvergenceError` if LAPACK reports that it
    did not converge.
    """
    a = as_cmatrix(matrix)
    n, m = a.shape
    if n != m:
        raise DimensionMismatchError(f"matrix must be square, got {n}x{m}")

    scale = float(np.max(np.abs(a)))
    asym = float(np.max(np.abs(a - a.conj().T)))
    if scale > 0.0 and asym > HERMITIAN_TOLERANCE * scale:
        raise NotHermitianError(
            f"asymmetry {asym:.3e} exceeds {HERMITIAN_TOLERANCE:.0e} * max entry {scale:.3e}"
        )

    # Solve the Hermitian average so round-off asymmetry in the input is not
    # silently dropped by reading only one triangle.
    try:
        return np.linalg.eigh((a + a.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK eigensolver failed: {exc}") from None


def extreme_singular_values(matrix) -> tuple[float, float]:
    """Smallest and largest singular value ``(sigma_min, sigma_max)``, by LAPACK's SVD.

    Through the eigenvalues of ``M* M``, ``sigma_min`` would carry an absolute
    error of about ``sqrt(eps) * sigma_max``: too high, unsafe for a lower bound.
    """
    try:
        sigma = np.linalg.svd(as_cmatrix(matrix), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK SVD failed: {exc}") from None
    return float(sigma[-1]), float(sigma[0])


def solve_hpd(matrix, rhs) -> np.ndarray:
    """Solve ``M x = b`` for Hermitian positive definite ``M``.

    Uses the eigendecomposition, so accuracy matches :func:`hermitian_eig`.
    Raises :class:`SingularOperatorError` when the smallest eigenvalue sits at
    or below ``RANK_TOLERANCE`` times the largest.
    """
    m = as_cmatrix(matrix)
    b = as_cvector(rhs)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"matrix must be square, got {m.shape}")
    if m.shape[0] != b.shape[0]:
        raise DimensionMismatchError(
            f"matrix is {m.shape[0]}x{m.shape[1]} but right-hand side has length {b.shape[0]}"
        )
    return hpd_inverse_apply(m, b[np.newaxis, :])[0]


def hpd_inverse_apply(matrix, vectors) -> np.ndarray:
    """Apply ``M^-1`` to each row of ``vectors`` (one factorization, many solves).

    Raises :class:`SingularOperatorError` when the smallest eigenvalue sits at
    or below ``RANK_TOLERANCE`` times the largest.
    """
    m = as_cmatrix(matrix)
    rows = as_cmatrix(vectors)
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
