"""Kernels: symmetric minimum eigenvalue, exponentials, singular values, and the PSD
factor of a certificate."""

import numpy as np
import pytest

from nistab import StateSpace
from nistab.exceptions import DimensionError
from nistab.linalg import (
    matrix_exponential,
    min_eig_sym,
    min_singular_value,
)
from nistab.nicert import certificate_from_y


class TestMinEigSym:
    def test_identity(self):
        assert min_eig_sym(np.eye(3)) == pytest.approx(1.0)

    def test_positive_definite_block(self):
        # leading principal minors 1, 1, 0.25 are all positive
        M = np.array([[1.0, 0.0, -0.5], [0.0, 1.0, 0.0], [-0.5, 0.0, 0.5]])
        minors = [np.linalg.det(M[:k, :k]) for k in (1, 2, 3)]
        assert np.allclose(minors, [1.0, 1.0, 0.25])
        assert min_eig_sym(M) > 0

    def test_indefinite(self):
        # det = -2 < 0 forces one negative eigenvalue
        M = np.array([[1.0, -2.0], [-2.0, 2.0]])
        assert np.linalg.det(M) == pytest.approx(-2.0)
        assert min_eig_sym(M) < 0

    def test_non_square(self):
        with pytest.raises(DimensionError):
            min_eig_sym(np.zeros((2, 3)))


class TestPsdFactor:
    """The factor L of ``certificate_from_y``: L^T L = W = -(A Y + Y A^T), one row per
    eigenvalue of W above the band, on systems built around a chosen Y and W."""

    @staticmethod
    def certificate(A, Y, C):
        A, Y, C = (np.asarray(M, dtype=float) for M in (A, Y, C))
        m = C.shape[0]
        return certificate_from_y(StateSpace(A, -A @ Y @ C.T, C, np.zeros((m, m))), Y)

    def test_scalar(self):
        # A = -2, Y = 1: W = 4
        cert = self.certificate([[-2.0]], [[1.0]], [[1.0]])
        np.testing.assert_allclose(cert.L, [[2.0]])

    def test_zero_matrix(self, osc):
        # A + A^T = 0, so Y = I gives W = 0
        cert = certificate_from_y(osc, np.eye(2))
        assert cert.L.shape == (0, 2)
        np.testing.assert_allclose(cert.L.T @ cert.L, np.zeros((2, 2)))

    def test_rank_one(self):
        # A + A^T = -diag(2, 0), so Y = I gives W = diag(2, 0)
        cert = self.certificate([[-1.0, 1.0], [-1.0, 0.0]], np.eye(2), [[1.0, 0.0]])
        assert cert.L.shape[0] == 1
        np.testing.assert_allclose(cert.L.T @ cert.L, np.diag([2.0, 0.0]), atol=1e-10)

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        tol = 1e-8
        for _ in range(25):
            n = int(rng.integers(1, 7))
            r = int(rng.integers(0, n + 1))
            F = rng.standard_normal((n, r))
            W = F @ F.T
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            Y = Q @ np.diag(rng.uniform(0.5, 2.0, n)) @ Q.T
            T = rng.standard_normal((n, n))
            A = ((T - T.T) / 2 - W / 2) @ np.linalg.inv(Y)  # A Y + Y A^T = -W
            cert = self.certificate(A, Y, rng.standard_normal((1, n)))
            assert cert.L.shape[0] == r
            err = np.linalg.norm(cert.L.T @ cert.L - W, "fro")
            assert err <= 10 * tol * max(1.0, np.linalg.norm(A, 2), np.linalg.norm(W, "fro"))


class TestMatrixExponential:
    def test_t_zero_is_identity(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(matrix_exponential(M, 0.0), np.eye(4))

    def test_rotation_pi(self):
        M = np.array([[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(matrix_exponential(M, np.pi), -np.eye(2), atol=1e-12)

    def test_scalar(self):
        np.testing.assert_allclose(matrix_exponential(np.array([[-1.0]]), 1.0),
                                   [[np.exp(-1.0)]], rtol=1e-12)

    def test_group_property(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            M = rng.standard_normal((n, n))
            norm = np.linalg.norm(M, 2)
            t = rng.uniform(0.1, 5.0 / max(1.0, norm))
            s = rng.uniform(0.1, 5.0 / max(1.0, norm))
            lhs = matrix_exponential(M, t + s)
            rhs = matrix_exponential(M, t) @ matrix_exponential(M, s)
            assert np.linalg.norm(lhs - rhs, "fro") <= 1e-8 * max(1.0, np.linalg.norm(lhs))


def brute_force_rank(M: np.ndarray, pivot_tol: float = 1e-10) -> int:
    """Column elimination with a pivot tolerance (independent rank oracle)."""
    A = np.array(M, dtype=complex)
    rows, cols = A.shape
    rank = 0
    for j in range(cols):
        pivots = np.abs(A[rank:, j])
        if pivots.size == 0:
            break
        p = int(np.argmax(pivots)) + rank
        if abs(A[p, j]) <= pivot_tol:
            continue
        A[[rank, p]] = A[[p, rank]]
        A[rank] = A[rank] / A[rank, j]
        for i in range(rows):
            if i != rank:
                A[i] -= A[i, j] * A[rank]
        rank += 1
        if rank == rows:
            break
    return rank


class TestMinSingularValue:
    def test_identity(self):
        assert min_singular_value(np.eye(2)) == pytest.approx(1.0)

    def test_rank_deficient(self):
        assert min_singular_value(np.array([[1.0, 0.0], [0.0, 0.0]])) == pytest.approx(0.0)

    def test_full_rank_complex_pencil(self):
        # det = j*1 for this matrix; product of singular values equals |det|
        M = np.array([[-1 - 1j, 1.0], [1.0, -1.0]])
        svals = np.linalg.svd(M, compute_uv=False)
        assert min_singular_value(M) > 0
        assert svals[0] * svals[1] == pytest.approx(abs(np.linalg.det(M)))

    def test_empty(self):
        assert min_singular_value(np.zeros((0, 3))) == 0.0

    def test_stack_matches_per_matrix_calls(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((7, 4, 3)) + 1j * rng.standard_normal((7, 4, 3))
        stacked = min_singular_value(M.reshape(7, 1, 4, 3))
        assert stacked.shape == (7, 1)
        expected = np.array([min_singular_value(Mk) for Mk in M])
        assert stacked[:, 0].tobytes() == expected.tobytes()

    def test_empty_stack(self):
        np.testing.assert_array_equal(min_singular_value(np.zeros((3, 0, 2))), np.zeros(3))
        assert min_singular_value(np.zeros((0, 2, 2))).shape == (0,)

    def test_vector_rejected(self):
        with pytest.raises(DimensionError):
            min_singular_value(np.ones(3))

    def test_matches_brute_force_rank(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            r = int(rng.integers(0, 5))
            F = rng.standard_normal((4, r)) if r else np.zeros((4, 0))
            G = rng.standard_normal((r, 4)) if r else np.zeros((0, 4))
            M = F @ G
            deficient = brute_force_rank(M) < 4
            assert (min_singular_value(M) <= 1e-10) == deficient
