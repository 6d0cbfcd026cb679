"""Dense matrix kernels: symmetric spectra, exponentials, SVD ranks.

Eigen/SVD work is delegated to LAPACK via numpy.  All functions are pure and
accept/return plain ndarrays (the PSD factor of a certificate is formed by
``nicert.certificate_from_y``).  scipy is imported only on the first call of
``matrix_exponential``.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionError

DEFAULT_TOL = 1e-8


def _as_square(M: np.ndarray, name: str) -> np.ndarray:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name} requires a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise DimensionError(f"{name} requires finite entries")
    return M


def min_eig_sym(M: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric part (M + M^T)/2."""
    M = _as_square(np.asarray(M, dtype=float), "min_eig_sym")
    return float(np.linalg.eigvalsh((M + M.T) / 2).min())


def matrix_exponential(M: np.ndarray, t: float = 1.0) -> np.ndarray:
    """e^{M t} by scaling-and-squaring with Pade (scipy.linalg.expm, imported on first use)."""
    import scipy.linalg

    M = _as_square(np.asarray(M, dtype=float), "matrix_exponential")
    if t == 0.0:
        return np.eye(M.shape[0])
    return scipy.linalg.expm(M * t)


def min_singular_value(M: np.ndarray) -> float | np.ndarray:
    """Smallest singular value of M (0.0 for an empty matrix).

    A stack ``(..., r, c)`` gives an array of shape ``(...)`` holding the
    minimum of each matrix, from one stacked SVD.
    """
    M = np.asarray(M)
    if M.ndim < 2:
        raise DimensionError(f"min_singular_value requires a (stack of) matrix, got {M.ndim}-d")
    if min(M.shape[-2:]) == 0:
        sv = np.zeros(M.shape[:-2])
    else:
        sv = np.linalg.svd(M, compute_uv=False).min(axis=-1)
    return float(sv) if M.ndim == 2 else sv
