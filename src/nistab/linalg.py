"""Dense matrix kernels: symmetric spectra, PSD factors, exponentials, SVD ranks.

Eigen/SVD work is delegated to LAPACK via numpy; the verdict logic (PSD
bands, rank cuts) lives here with explicit tolerances so results are
reproducible.  All functions are pure and accept/return plain ndarrays.
scipy is imported only on the first call of ``matrix_exponential``.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionError, NotPSDError

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


def psd_factor(M: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Factor a PSD matrix as L^T L with L of full row rank.

    Uses the symmetric eigendecomposition rather than Cholesky because the
    inputs are routinely singular PSD (e.g. -(A Y + Y A^T) for marginally
    stable A).  Eigenvalues in [-tol_abs, tol_abs] are clamped to zero and
    their rows dropped, so L has exactly rank(M) rows; rank(M) = 0 yields
    a (0, n) factor whose product L^T L is the zero matrix.
    """
    M = _as_square(np.asarray(M, dtype=float), "psd_factor")
    sym = (M + M.T) / 2
    w, V = np.linalg.eigh(sym)
    scale = max(1.0, float(np.abs(w).max()) if w.size else 1.0)
    tol_abs = tol * scale
    if w.size and w.min() < -tol_abs:
        raise NotPSDError(f"matrix has eigenvalue {w.min():.3e} below -{tol_abs:.3e}")
    keep = w > tol_abs
    return np.sqrt(w[keep])[:, np.newaxis] * V[:, keep].T


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
