import numpy as np
import pytest

from conftest import random_hermitian
from framesum import DimensionMismatchError, NoConvergenceError, extreme_singular_values
from framesum.errors import SingularOperatorError
from framesum.linalg import hermitian_eig, hpd_inverse_apply, solve_hpd


def test_eig_two_by_two_coupled():
    result = hermitian_eig([[10, 6], [6, 10]])
    np.testing.assert_allclose(result.eigenvalues, [4, 16], rtol=1e-12)


def test_eig_identity():
    result = hermitian_eig(np.eye(3))
    np.testing.assert_allclose(result.eigenvalues, [1, 1, 1], rtol=0)
    np.testing.assert_allclose(result.eigenvectors, np.eye(3), atol=1e-15)


def test_eig_diagonal():
    result = hermitian_eig(np.diag([6.0, 9.0]))
    np.testing.assert_allclose(result.eigenvalues, [6, 9], rtol=0)


def test_eig_zero_matrix():
    result = hermitian_eig(np.zeros((4, 4)))
    np.testing.assert_allclose(result.eigenvalues, np.zeros(4))


def test_eig_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        hermitian_eig(np.ones((2, 3)))


def test_eig_rejects_nan():
    with pytest.raises(DimensionMismatchError):
        hermitian_eig([[np.nan, 0], [0, 1]])


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 13, 16])
def test_eig_reconstruction_orthonormality_trace(dim, rng):
    for _ in range(10):
        m = random_hermitian(rng, dim)
        result = hermitian_eig(m)
        q, lam = result.eigenvectors, result.eigenvalues
        recon = q @ np.diag(lam) @ q.conj().T
        fro = np.linalg.norm(m)
        assert np.linalg.norm(m - recon) <= 1e-10 * (1 + fro)
        assert np.max(np.abs(q.conj().T @ q - np.eye(dim))) <= 1e-10
        trace = np.trace(m).real
        assert abs(lam.sum() - trace) <= 1e-10 * (1 + abs(trace))
        assert np.all(np.diff(lam) >= 0)


@pytest.mark.parametrize("dim", [2, 4, 9])
def test_eig_matches_real_embedding(dim, rng):
    # H = X + iY is unitarily similar to diag(H, conj H) through the real
    # symmetric embedding [[X, -Y], [Y, X]], so the embedding's spectrum is
    # each eigenvalue of H twice; it is solved on the real symmetric path
    for _ in range(20):
        m = random_hermitian(rng, dim)
        x, y = m.real, m.imag
        embedding = np.block([[x, -y], [y, x]])
        twice = np.repeat(hermitian_eig(m).eigenvalues, 2)
        reference = np.linalg.eigvalsh(embedding)
        scale = np.linalg.norm(m)
        np.testing.assert_allclose(twice, reference, rtol=0, atol=1e-12 * scale)


def test_eig_matches_two_by_two_closed_form(rng):
    # [[a, b], [conj b, d]] has eigenvalues tr/2 -+ sqrt((a - d)^2 / 4 + |b|^2)
    for _ in range(50):
        a, d = rng.standard_normal(2) * 10.0 ** rng.uniform(-3, 3)
        b = complex(rng.standard_normal(), rng.standard_normal())
        radius = np.hypot((a - d) / 2.0, abs(b))
        centre = (a + d) / 2.0
        lam = hermitian_eig([[a, b], [np.conj(b), d]]).eigenvalues
        scale = abs(centre) + radius
        np.testing.assert_allclose(lam, [centre - radius, centre + radius], rtol=0, atol=1e-14 * scale)


def test_eig_lapack_failure_is_no_convergence(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NoConvergenceError, match="did not converge"):
        hermitian_eig(np.eye(2))


def test_singular_values_scaled_identity():
    lo, hi = extreme_singular_values(np.eye(2) / 160)
    assert lo == pytest.approx(1 / 160, rel=1e-14)
    assert hi == pytest.approx(1 / 160, rel=1e-14)


def test_singular_values_identity():
    lo, hi = extreme_singular_values(np.eye(5))
    assert lo == pytest.approx(1.0, rel=1e-14)
    assert hi == pytest.approx(1.0, rel=1e-14)


def test_singular_values_nilpotent():
    lo, hi = extreme_singular_values([[0, 1], [0, 0]])
    assert lo == pytest.approx(0.0, abs=1e-14)
    assert hi == pytest.approx(1.0, rel=1e-12)


def test_singular_values_adjoint_symmetry(rng):
    for _ in range(10):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lo, hi = extreme_singular_values(m)
        lo_adj, hi_adj = extreme_singular_values(m.conj().T)
        assert lo == pytest.approx(lo_adj, rel=1e-9, abs=1e-12)
        assert hi == pytest.approx(hi_adj, rel=1e-9)


def test_near_singular_sigma_min_keeps_its_relative_accuracy(rng):
    """sigma_min is the operator-sum rule's lower factor, so an overestimate
    errs in the unsafe direction.  Through the eigenvalues of M* M it came out
    up to 165 times too high on these operators; the SVD keeps it within 1e-4."""

    def unitary():
        q, r = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    for _ in range(300):
        lo, hi = extreme_singular_values(unitary() @ np.diag([1.0, 0.5, 0.2, 1e-10]) @ unitary())
        assert lo == pytest.approx(1e-10, rel=1e-4)
        assert hi == pytest.approx(1.0, rel=1e-12)


def test_singular_value_lapack_failure_is_no_convergence(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NoConvergenceError, match="did not converge"):
        extreme_singular_values(np.eye(2))


def test_sigma_max_bounds_image_norms(rng):
    # sigma_max is never exceeded by ||Mx||, and 100 random unit vectors in
    # dimension 2 come within 5% of it from below
    for _ in range(10):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        _, sigma_max = extreme_singular_values(m)
        best = 0.0
        for _ in range(100):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            x = z / np.linalg.norm(z)
            best = max(best, float(np.linalg.norm(m @ x)))
        assert best <= sigma_max * (1 + 1e-12)
        assert sigma_max - best <= 0.05 * sigma_max


def test_solve_identity():
    b = np.array([1 + 2j, -3.0, 0.5j])
    np.testing.assert_allclose(solve_hpd(np.eye(3), b), b, rtol=1e-14)


def test_solve_diagonal():
    m = np.diag([7 / 3, 1 / 3, 7 / 3])
    x = solve_hpd(m, [1, 1, 1])
    np.testing.assert_allclose(x, [3 / 7, 3, 3 / 7], rtol=1e-12)


def test_solve_coupled():
    x = solve_hpd([[10, 6], [6, 10]], [16, 16])
    np.testing.assert_allclose(x, [1, 1], rtol=1e-12)


def test_solve_residual_contract(rng):
    for dim in (2, 5, 9):
        m = random_hermitian(rng, dim)
        m = m @ m.conj().T + np.eye(dim)  # positive definite
        b = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        x = solve_hpd(m, b)
        _, norm_m = extreme_singular_values(m)
        lhs = np.linalg.norm(m @ x - b)
        assert lhs <= 1e-9 * (norm_m * np.linalg.norm(x) + np.linalg.norm(b))


def test_solve_rejects_singular():
    with pytest.raises(SingularOperatorError):
        solve_hpd([[1, 0], [0, 0]], [1, 1])


def test_solve_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        solve_hpd(np.eye(2), [1, 2, 3])


def test_inverse_apply_matches_solve(rng):
    m = random_hermitian(rng, 4)
    m = m @ m.conj().T + np.eye(4)
    rows = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    applied = hpd_inverse_apply(m, rows)
    for k in range(3):
        np.testing.assert_allclose(applied[k], solve_hpd(m, rows[k]), rtol=1e-10, atol=1e-12)
