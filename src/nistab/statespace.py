"""LTI state-space systems: transfer evaluation, pole classes, residues, minimality.

A system is the quadruple (A, B, C, D) with square transfer matrix
G(s) = C (sI - A)^{-1} B + D.  Systems are immutable value objects that cache
read-only spectral data of A on first use, which every operation here reads.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    DegenerateEigenvectorsError,
    DimensionError,
    NotAPoleError,
    NotSimplePoleError,
    SingularAError,
)
from .linalg import DEFAULT_TOL, min_singular_value

#: an eigenvalue counts as "on the imaginary axis" when |Re| <= TOL_AXIS * max(1, |lambda|)
TOL_AXIS = 1e-7
#: resolvent guard: evaluation fails when sigma_min(sI - A) < TOL_POLE * max(1, |s|, ||A||_2)
TOL_POLE = 1e-12
#: ``StateSpace.modal`` exists when the cond_2(V) bound of ``bauer_fike`` is at most this
MODAL_COND_MAX = 1e4
#: StateSpace.crossings: lam is imaginary when |Re| <= _CROSSING_BAND max(1, |lam|), and in
#: the w = 0 cluster when Im lam <= _CROSSING_BAND max(1, ||A||_2)
_CROSSING_BAND = 1e-6


def _matrix(x, name: str) -> np.ndarray:
    M = np.asarray(x, dtype=float)
    if M.ndim != 2:
        raise DimensionError(f"{name} must be a 2-d real matrix, got {M.ndim}-d")
    if not np.all(np.isfinite(M)):
        raise DimensionError(f"{name} must have finite entries")
    return M


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Immutable state-space realization of a square LTI system; caches spectral data of A."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    label: str = ""

    def __post_init__(self):
        A = _matrix(self.A, "A")
        B = _matrix(self.B, "B")
        C = _matrix(self.C, "C")
        D = _matrix(self.D, "D")
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionError(f"A must be square, got {A.shape}")
        m = B.shape[1]
        if n < 1 or m < 1:
            raise DimensionError("state and i/o dimensions must be at least 1")
        if B.shape != (n, m):
            raise DimensionError(f"B must be {n}x{m}, got {B.shape}")
        if C.shape != (m, n):
            raise DimensionError(f"C must be {m}x{n}, got {C.shape}")
        if D.shape != (m, m):
            raise DimensionError(f"D must be {m}x{m}, got {D.shape}")
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            M = M.copy()
            M.setflags(write=False)
            object.__setattr__(self, name, M)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @functools.cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lam, V)`` with A V = V diag(lam), from one eig(A); both read-only."""
        lam, V = np.linalg.eig(self.A)
        lam.setflags(write=False)
        V.setflags(write=False)
        return lam, V

    _svals = functools.cached_property(lambda self: np.linalg.svd(self.A, compute_uv=False))
    norm2 = property(lambda self: float(self._svals.max()), doc="||A||_2")
    sigma_min = property(lambda self: float(self._svals.min()), doc="sigma_min(A)")

    @functools.cached_property
    def bauer_fike(self) -> tuple[float, float] | None:
        """``(||V||_F ||V^-1||_F, ||R||_F ||V^-1||_F)``, upper bounds of cond_2(V) and
        ||R||_2 ||V^-1||_2 from one inv, for ``(lam, V) = eig`` and R = A V - V diag(lam);
        None when V is singular."""
        try:
            lam, V = self.eig
            inv_norm = np.linalg.norm(np.linalg.inv(V))
        except np.linalg.LinAlgError:
            return None
        return np.linalg.norm(V) * inv_norm, np.linalg.norm(self.A @ V - V * lam) * inv_norm

    @functools.cached_property
    def modal(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """``(Re lam, Im lam, Re K, Im K)`` for the pole sum G(s) = D + sum_j K_j / (s - lam_j),
        K_j = (C v_j)(w_j B) flattened to m*m entries, w_j row j of V^-1 from one solve V^-1 B;
        read-only.  None when ``bauer_fike`` is None or its cond_2(V) bound exceeds
        MODAL_COND_MAX: the sum is then the exact G of an A + dA with ||dA|| up to about
        eps cond_2(V) ||A||, too far from A to stand for it."""
        if self.bauer_fike is None or not self.bauer_fike[0] <= MODAL_COND_MAX:
            return None
        lam, V = self.eig
        K = ((self.C @ V).T[:, :, np.newaxis]
             * np.linalg.solve(V, self.B)[:, np.newaxis, :]).reshape(self.n, -1)
        parts = lam.real.copy(), lam.imag.copy(), K.real.copy(), K.imag.copy()
        for part in parts:
            part.setflags(write=False)
        return parts

    @functools.cached_property
    def hamiltonian(self) -> np.ndarray | None:
        """The 2n x 2n Hamiltonian of F(s) = s (G(s) - D), read-only.

        F has the realization (A, B, CA, CB); with R = CB + B'C' it is
        [[A - B R^-1 CA, -B R^-1 B'], [(CA)' R^-1 CA, -A' + (CA)' R^-1 B']].
        ``crossings`` reads its eigenvalues, the NI certificate its transpose's stable
        invariant subspace.  None when cond(R) exceeds 1 / DEFAULT_TOL or the solve fails.
        """
        CA, CB = self.C @ self.A, self.C @ self.B
        R = CB + CB.T
        svals = np.linalg.svd(R, compute_uv=False)
        if not svals[-1] > DEFAULT_TOL * svals[0]:
            return None
        try:
            RiCA, RiB = np.split(np.linalg.solve(R, np.hstack([CA, self.B.T])), 2, axis=1)
        except np.linalg.LinAlgError:
            return None
        H = np.block([[self.A - self.B @ RiCA, -self.B @ RiB],
                      [CA.T @ RiCA, CA.T @ RiB - self.A.T]])
        H.setflags(write=False)
        return H

    @functools.cached_property
    def crossings(self) -> np.ndarray | None:
        """Ascending w > 0 where F(jw) + F(jw)* turns singular, read-only.

        F(s) = s (G(s) - D), so F(jw) + F(jw)* = w j(G(jw) - G(jw)*) for symmetric D.  With
        R = CB + B'C' invertible these jw are the imaginary eigenvalues of ``hamiltonian``,
        from one eig.
        They are all the sign changes of j(G - G*) on (0, inf) only when A is Hurwitz, which
        the caller checks in its own axis band.  Those with w <= _CROSSING_BAND max(1, ||A||_2)
        are the cluster of F(0) = 0 and are dropped; the band is narrow, since an extra
        crossing only splits an interval, while a missing one can merge two.
        None when ``hamiltonian`` is None or eig fails.
        """
        H = self.hamiltonian
        if H is None:
            return None
        try:
            lam = np.linalg.eigvals(H)
        except np.linalg.LinAlgError:
            return None
        on_axis = ((np.abs(lam.real) <= _CROSSING_BAND * np.maximum(1.0, np.abs(lam)))
                   & (lam.imag > _CROSSING_BAND * max(1.0, self.norm2)))
        omegas = np.sort(lam.imag[on_axis])
        omegas.setflags(write=False)
        return omegas

    def pole_classes(self, tol_axis: float = TOL_AXIS) -> tuple[bool, bool, np.ndarray, bool]:
        """``(origin, rhp, axis_frequencies, hurwitz)``: a pole within tol_axis max(1, ||A||_2)
        of 0, one right of the band |Re| <= tol_axis max(1, |lam|), the ascending Im > 0 of
        those in the band, one per pole (a repeated eigenvalue, its copies within the band of
        each other, is listed once), and whether all lie left of it.  Computed once per
        tol_axis; the array is read-only."""
        cache = self.__dict__.setdefault("_pole_classes", {})
        if tol_axis not in cache:
            lam = self.eig[0]
            band = tol_axis * np.maximum(1.0, np.abs(lam))
            axis = np.sort(lam.imag[(np.abs(lam.real) <= band) & (lam.imag > 0)])
            first = np.ones(axis.size, dtype=bool)
            first[1:] = np.diff(axis) > tol_axis * np.maximum(1.0, axis[1:])
            axis = axis[first]
            axis.setflags(write=False)
            cache[tol_axis] = (bool(np.any(np.abs(lam) <= tol_axis * max(1.0, self.norm2))),
                               bool(np.any(lam.real > band)), axis,
                               bool(np.all(lam.real < -band)))
        return cache[tol_axis]

    def singular_a(self, tol: float = DEFAULT_TOL) -> bool:
        """A is numerically singular: sigma_min(A) <= tol * max(1, ||A||_2)."""
        return self.sigma_min <= tol * max(1.0, self.norm2)

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"<StateSpace{tag} n={self.n} m={self.m}>"


@dataclass
class ResidueReport:
    """Residue data for an imaginary-axis pole at +j*omega0.

    ``K0`` is the limit of (s - j w0) s G(s); for a negative-imaginary system
    it must be positive semidefinite Hermitian.
    """

    omega0: float
    K0: np.ndarray
    is_simple: bool
    hermitian_residual: float
    min_eig: float

    def accepted(self, tol: float = DEFAULT_TOL) -> bool:
        scale = max(1.0, float(np.linalg.norm(self.K0, "fro")))
        return self.is_simple and self.hermitian_residual <= tol * scale and self.min_eig >= -tol * scale


@dataclass
class MinimalityReport:
    """PBH test outcome; ``failures`` lists (eigenvalue, direction, min_sv)."""

    minimal: bool
    failures: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.minimal


def _shifted(sys: StateSpace, s: np.ndarray) -> np.ndarray:
    """The stack sI - A with the bits of s * I - A, signed zeros included, without the
    stacked multiply: s * 0 - A off the diagonal, which is a copy of 0 - A wherever s * 0 has
    no negative zero (Re s > 0, or Re s = +0 as on the axis), and s * 1 - A on it."""
    zero = s * 0.0
    res = np.broadcast_to(0.0 - sys.A, (s.size, sys.n, sys.n)).astype(zero.dtype)
    signed = np.signbit(zero.real) | np.signbit(zero.imag)
    if signed.any():
        res[signed] = zero[signed, np.newaxis, np.newaxis] - sys.A
    res.reshape(s.size, sys.n ** 2)[:, ::sys.n + 1] = (s * 1.0)[:, np.newaxis] - np.diagonal(sys.A)
    return res


def resolvent_guard(sys: StateSpace, points, tol_pole: float = TOL_POLE,
                    shifted: np.ndarray | None = None) -> np.ndarray:
    """The points failing the resolvent guard sigma_min(sI - A) < tol_pole * max(1, |s|, ||A||_2).

    Only the points the Bauer-Fike bound below cannot clear take an SVD (all of them when
    V is singular), of ``shifted``, the stack sI - A over all points when the caller has
    built it, else of sI - A built for those points alone.  Non-finite points raise
    DimensionError.
    """
    s = np.asarray(points).reshape(-1)
    if not np.all(np.isfinite(s)):
        raise DimensionError("evaluation points must be finite")
    bound = tol_pole * np.maximum(np.maximum(1.0, np.abs(s)), sys.norm2)
    # Bauer-Fike: with R = A V - V diag(lam), sI - A = V (sI - diag(lam)) V^-1 - R V^-1, so
    # sigma_min(sI - A) >= min|s - lam| / cond_2(V) - ||R||_2 ||V^-1||_2 >= lower, by the
    # Frobenius bounds of ``bauer_fike``.  Where lower >= 2 * bound the guard cannot fail,
    # with room for rounding; a NaN lower takes the SVD.  No point fails a zero bound.
    unclear = bound > 0
    if sys.bauer_fike is not None:
        cond_v, defect = sys.bauer_fike
        dist = np.abs(sys.eig[0][:, np.newaxis] - s).min(axis=0)
        unclear &= ~(dist / cond_v - defect >= 2 * bound)
    guarded = np.zeros(s.size, dtype=bool)
    if unclear.any():
        stack = _shifted(sys, s[unclear]) if shifted is None else shifted[unclear]
        guarded[unclear] = min_singular_value(stack) < bound[unclear]
    return guarded


def resolvent_stack(sys: StateSpace, points, tol_pole: float = TOL_POLE):
    """X = (sI - A)^{-1} B at each point by one stacked solve.

    Returns ``(X, guarded)``; ``guarded`` is ``resolvent_guard``, and X is NaN there.  With
    no guarded point X is one solve over the whole stack.  Non-finite points raise
    DimensionError.
    """
    s = np.asarray(points).reshape(-1)
    if not np.all(np.isfinite(s)):
        raise DimensionError("evaluation points must be finite")
    res = _shifted(sys, s)
    guarded = resolvent_guard(sys, s, tol_pole, res)
    B = sys.B.astype(complex)[np.newaxis]  # a stack of one (n, m) matrix, on numpy 1.x too
    if not guarded.any():
        return np.linalg.solve(res, B), guarded
    X = np.full((s.size, sys.n, sys.m), np.nan, dtype=complex)
    X[~guarded] = np.linalg.solve(res[~guarded], B)
    return X, guarded


def eval_tf_stack(sys: StateSpace, points, tol_pole: float = TOL_POLE):
    """``(G, guarded)``: G(s) = C X + D at each point, NaN where ``resolvent_stack`` guards X."""
    X, guarded = resolvent_stack(sys, points, tol_pole)
    G = np.full((guarded.size, sys.m, sys.m), np.nan, dtype=complex)
    G[~guarded] = sys.C @ X[~guarded] + sys.D
    return G, guarded


def modal_tf_stack(sys: StateSpace, omegas) -> np.ndarray:
    """G(j omega) = D + sum_j K_j / (j omega - lam_j) at each real omega, from ``sys.modal``
    (which must not be None), with no resolvent guard.

    Each bit of a point's G depends on that point alone, neither on the stack nor on BLAS:
    every quotient 1 / (j omega - lam_j) and every term comes from real ufuncs, one per IEEE
    operation, and the terms are added one pole at a time in the order of ``eig``.  (numpy's
    complex multiply rounds a one-point stack differently, and add.reduce over the poles
    sums a one-point stack pairwise.)
    """
    lam_re, lam_im, K_re, K_im = sys.modal
    w = np.asarray(omegas, dtype=float).reshape(-1)
    # 1 / (dr + j di) = (dr - j di) / (dr^2 + di^2) for dr = -Re lam_j, di = omega - Im lam_j,
    # all j at once; dr and di are first scaled by the power of two 2^-e that takes the
    # larger into [1/2, 1), which changes no rounding and keeps the squares in range
    dr = np.broadcast_to(-lam_re[:, np.newaxis], (lam_re.size, w.size))
    di = w - lam_im[:, np.newaxis]
    e = np.frexp(np.maximum(np.abs(dr), np.abs(di)))[1]
    dr, di = np.ldexp(dr, -e), np.ldexp(di, -e)
    den = dr * dr + di * di
    q_re = np.ldexp(dr / den, -e)
    q_im = np.ldexp(-di / den, -e)
    # one row per entry of G, so that every product runs along the points
    G_re = np.zeros((K_re.shape[1], w.size))
    G_im = np.zeros_like(G_re)
    term = np.empty_like(G_re)
    for j in range(lam_re.size):  # (K_re + j K_im)(q_re + j q_im), pole by pole
        k_re, k_im = K_re[j, :, np.newaxis], K_im[j, :, np.newaxis]
        G_re += np.multiply(k_re, q_re[j], out=term)
        G_re -= np.multiply(k_im, q_im[j], out=term)
        G_im += np.multiply(k_re, q_im[j], out=term)
        G_im += np.multiply(k_im, q_re[j], out=term)
    G = np.empty((w.size, sys.m, sys.m), dtype=complex)
    G.real = (G_re.T + sys.D.reshape(-1)).reshape(G.shape)
    G.imag = G_im.T.reshape(G.shape)
    return G


def is_minimal(sys: StateSpace, tol: float = DEFAULT_TOL) -> MinimalityReport:
    """PBH controllability/observability test at every eigenvalue of A, one stacked SVD each."""
    scale = tol * max(1.0, sys.norm2)
    lams = sys.eig[0]
    shifted = sys.A - lams[:, np.newaxis, np.newaxis] * np.eye(sys.n)
    sv_c = min_singular_value(np.concatenate(
        [shifted, np.broadcast_to(sys.B, (sys.n, sys.n, sys.m))], axis=2))
    sv_o = min_singular_value(np.concatenate(
        [shifted, np.broadcast_to(sys.C, (sys.n, sys.m, sys.n))], axis=1))
    failures = [(complex(lam), kind, float(sv))
                for lam, c, o in zip(lams, sv_c, sv_o)
                for kind, sv in (("controllability", c), ("observability", o)) if sv <= scale]
    return MinimalityReport(minimal=not failures, failures=failures)


def dc_gain(sys: StateSpace, tol: float = DEFAULT_TOL) -> np.ndarray:
    """G(0) = D - C A^{-1} B; requires A nonsingular (no pole at the origin)."""
    if sys.singular_a(tol):
        raise SingularAError(f"A is numerically singular (sigma_min {sys.sigma_min:.3e}); "
                             "G has a pole at the origin")
    G0 = sys.D - sys.C @ np.linalg.solve(sys.A, sys.B)
    asym = float(np.linalg.norm(G0 - G0.T, "fro"))
    if asym > tol * max(1.0, float(np.linalg.norm(G0, "fro"))):
        warnings.warn(
            f"DC gain of {sys.label or 'system'} is asymmetric ({asym:.3e}); "
            "not expected of a negative-imaginary system",
            stacklevel=2,
        )
    return G0


def residue_at_pole(sys: StateSpace, omega0: float, tol: float = TOL_AXIS) -> ResidueReport:
    """Residue matrix K0 = lim_{s -> j w0} (s - j w0) s G(s) at a simple pole of G.

    Computed from the spectral projector of the k eigenvalues of A within
    tol max(1, w0) of j w0 rather than a numerical limit, which is
    ill-conditioned near the pole.  With Vc and Wc bases of the null spaces of
    (A - j w0 I)^k and of its adjoint, the last k right and left singular
    vectors of one SVD (for k = 1 the right and left eigenvectors),
    Pc = Vc (Wc* Vc)^-1 Wc* and Nc = (A - j w0 I) Pc, the pole of G at j w0 is
    simple when C Nc^j B = 0 for every j >= 1, and then K0 = j w0 C Pc B.  So a
    repeated eigenvalue with independent eigenvectors (two oscillators) is a
    simple pole of G, and so is a Jordan block that B or C does not reach.
    """
    if omega0 <= 0:
        raise NotAPoleError("omega0 must be positive (axis poles are taken as +j omega0)")
    target = 1j * omega0
    eigs = sys.eig[0]
    dist = np.abs(eigs - target)
    k = int(np.count_nonzero(dist <= tol * max(1.0, omega0)))
    if k == 0:
        raise NotAPoleError(
            f"j*{omega0} is not an eigenvalue of A (closest at distance {dist.min():.3e})"
        )
    shifted = sys.A - target * np.eye(sys.n)
    U, _, Vh = np.linalg.svd(np.linalg.matrix_power(shifted, k))
    Vc, Wc = Vh[-k:].conj().T, U[:, -k:]
    gram = Wc.conj().T @ Vc
    if (angle := min_singular_value(gram)) < tol:
        raise DegenerateEigenvectorsError(
            f"left/right eigenvectors nearly orthogonal (sigma_min(W* V) = {angle:.3e})")
    Pc = Vc @ np.linalg.solve(gram, Wc.conj().T)
    Nc = shifted @ Pc
    bound = tol * max(1.0, float(np.linalg.norm(sys.C, 2) * np.linalg.norm(sys.B, 2)))
    CN = sys.C.astype(complex)
    for j in range(1, k):
        CN = CN @ Nc
        if np.linalg.norm(CN @ sys.B) > bound * max(1.0, sys.norm2) ** j:
            raise NotSimplePoleError(
                f"eigenvalue j*{omega0} of multiplicity {k} is a pole of order {j + 1} or more"
            )
    K0 = target * (sys.C @ Pc @ sys.B)
    herm = (K0 + K0.conj().T) / 2
    return ResidueReport(
        omega0=float(omega0),
        K0=K0,
        is_simple=True,
        hermitian_residual=float(np.linalg.norm(K0 - K0.conj().T, "fro")),
        min_eig=float(np.linalg.eigvalsh(herm).min()),
    )
