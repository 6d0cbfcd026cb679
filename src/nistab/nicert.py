"""Negative-imaginary certification of LTI systems.

Three routes are provided (the first two read one FrequencyResponse); as
functions they are independent, and the CLI's ``certify`` hands the worst
point of a NotNI sweep to the third as a candidate frequency witness:

* a frequency sweep of the Hermitian matrix j(G(jw) - G(jw)*) together with
  pole/residue screening (definition-level test); when the grid shows no
  negative point, one point in each interval between the frequencies where
  the sign can change (``StateSpace.crossings``) can still show one,
* a positive-real reduction that sweeps F(jw) = jw (G(jw) - D) instead
  (cross-validation route; F + F* equals w * j(G - G*) analytically),
* a state-space certificate for a symmetric Y > 0 with
  A Y + Y A^T <= 0 and A Y C^T = -B, returning P = Y^{-1} and a factor L
  with L^T L = -(A Y + Y A^T): first the Riccati solutions of the positive-real
  lemma of F, from the stable, then the antistable, invariant subspace of the transpose
  of the Hamiltonian that ``StateSpace.crossings`` reads (0 iterations; W has rank m),
  each returned as the certificate whose residuals passed the Certified test, and where
  neither passes, a search.

Strictness (SNI) of a certificate is the rank condition of ``sni_rank_condition``,
decided from the crossings where A is Hurwitz and they are decided, and then on all
of (0, inf); otherwise from a pencil grid, and then on that grid only.

Sign convention used throughout: A Y + Y A^T = -L^T L.  Every certificate
carries this convention string so downstream checks are unambiguous.

The certificate search (DR) is Douglas-Rachford splitting between the affine
family that encodes the coupling constraint exactly (parametrized through
its nullspace) and the product of PSD cones {Y - eps I >= 0} x
{-(A Y + Y A^T) >= 0}, with eigenvalue clamping as the cone projection and
a least-squares map back to the family.  The candidate checked each
iteration is the shadow point: the cone projection pulled back to the
family.  The search stops Certified when the shadow point meets all three
conditions.  It stops Infeasible at a Farkas witness: w = pc - proj(pc), the
cone point minus its projection onto the family, is orthogonal to every free
direction, and with its smat blocks (Z_Y, Z_W) of w/||w||, lambda_min their
smallest eigenvalue and s = <w, f0 - floors>/||w||, the exit needs s < 0 and
s <= min(0, lambda_min) R with R = max(1, ||f0||)/sqrt(tol).  Then no point
of the relaxed cone sets with shifted trace up to R lies in the family.  To
re-check (Z_Y, Z_W) from (A, B, C): Z_Y - (A^T Z_W + Z_W A) annihilates every
symmetric N with N C^T = 0, and at any symmetric Y with Y C^T = -A^{-1} B,
<Z_Y, Y - eps/2 I> + <Z_W, -(A Y + Y A^T) + tol_lyap/2 I> = s (eps and
tol_lyap as in lmi_ni_certificate).  A candidate with s < 0 that fails the
test at iteration 8 or a later power of two is polished by 20 DR steps on the
alternative system, {Z orthogonal to range(Gmap), <Z, f0 - floors> = -1}
against PSD x PSD, started from the candidate scaled onto that affine set; each
step's normalized affine projection of its cone point goes through the same
test, and the first that passes ends the search as a Farkas exit.  Otherwise
the search goes on from where it was, so a Certified run keeps its iterates.
Failing all that, it stops MaxIterations at the iteration limit, so every
Infeasible carries a witness: ``infeasibility_witness`` is (n, m) for a
coupling equation with no symmetric solution, (2, n, n) for a Farkas pair and
(3,) for a frequency witness (omega, lambda_min, bound): at a candidate omega,
lambda_min j(G - G*) < -bound rules out every Y that the Certified test
accepts, and the search ends before it starts.  The shadow point
Y = Yp + smat(N theta), N the orthonormal null-space basis, is exactly
symmetric by construction.
"""

from __future__ import annotations

import enum
import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    AsymmetricDError,
    GenerationFailedError,
    NIStabError,
    NotCertifiedError,
    SingularAError,
)
from .linalg import DEFAULT_TOL, min_singular_value
from .statespace import (
    TOL_AXIS,
    TOL_POLE,
    StateSpace,
    eval_tf_stack,
    is_minimal,
    residue_at_pole,
    resolvent_stack,
)

SIGN_CONVENTION = "A@Y + Y@A.T == -L.T@L with Y == inv(P)"


class Verdict(str, enum.Enum):
    NI = "NI"
    SNI = "SNI"
    NOT_NI = "NotNI"
    INCONCLUSIVE = "Inconclusive"


class CertStatus(str, enum.Enum):
    CERTIFIED = "Certified"
    INFEASIBLE = "Infeasible"
    MAX_ITERATIONS = "MaxIterations"


@dataclass(frozen=True)
class FrequencyGrid:
    """Sampling of (0, inf) used by the sweep certifiers."""

    omega_min: float = 1e-3
    omega_max: float = 1e3
    points: int = 400
    spacing: str = "logarithmic"
    exclusion_radius: float = 1e-2

    def __post_init__(self):
        if not (0 < self.omega_min < self.omega_max < np.inf):
            raise ValueError("need 0 < omega_min < omega_max < inf")
        if self.points < 2:
            raise ValueError("need at least 2 grid points")
        if self.spacing not in ("logarithmic", "linear"):
            raise ValueError(f"unknown spacing {self.spacing!r}")
        if not self.exclusion_radius >= 0:
            raise ValueError("exclusion_radius must be nonnegative")

    def omegas(self) -> np.ndarray:
        if self.spacing == "logarithmic":
            return np.logspace(np.log10(self.omega_min), np.log10(self.omega_max), self.points)
        return np.linspace(self.omega_min, self.omega_max, self.points)


@dataclass
class GridPoint:
    omega: float
    min_eig: float | None
    status: str  # "ok" | "excluded" | "near-pole", or "crossing" off the grid


@dataclass(frozen=True, eq=False)
class FrequencyResponse:
    """G(j omega) = C X + D and X = (j omega I - A)^{-1} B at the "ok" grid points (``status``
    is "ok", "excluded" or "near-pole" per point, ``ok`` its read-only "ok" mask and ``counts``
    the numbers of the three), and the pole data every route reads; ``tol_pole`` is the
    resolvent guard the grid was evaluated with.

    Equality and hashing are by identity, as for ``StateSpace``: the fields hold arrays."""

    sys: StateSpace
    grid: FrequencyGrid
    omegas: np.ndarray
    status: np.ndarray
    ok: np.ndarray
    counts: tuple[int, int, int]
    G: np.ndarray
    X: np.ndarray
    origin_pole: bool
    rhp_pole: bool
    axis_pole_frequencies: list[float]
    pole_findings: list
    pole_problems: list[str]
    hurwitz: bool
    tol_pole: float

    @functools.cached_property
    def ni_min_eig(self) -> np.ndarray:
        """min eig j(G - G*) at every "ok" point, computed once for the NI and SNI sweeps."""
        return _ni_min_eig(self.G)

    @functools.cached_property
    def crossing_minimum(self) -> tuple[float, float, np.ndarray] | None:
        """``(omega, min eig j(G - G*), G(j omega))`` at the lowest of one point per interval
        of (0, inf) that ``StateSpace.crossings`` cuts (``_interval_points``).

        No eigenvalue of j(G - G*) changes sign inside an interval, so a negative one
        shows at its point however narrow it is, and one that holds a grid point with a
        positive minimum is positive throughout and is skipped.  None when A is not
        Hurwitz, the crossings are undecided, or no point is left that the resolvent
        guard lets through."""
        w = self.sys.crossings
        if not self.hurwitz or w is None:
            return None
        points = _interval_points(w)
        covered = np.zeros(points.size, dtype=bool)
        covered[np.searchsorted(w, self.omegas[self.ok][self.ni_min_eig > 0])] = True
        points = points[~covered]
        if not points.size:
            return None
        G, guarded = eval_tf_stack(self.sys, 1j * points, self.tol_pole)
        if guarded.all():
            return None
        points, G = points[~guarded], G[~guarded]
        values = _ni_min_eig(G)
        k = int(np.argmin(values))
        return float(points[k]), float(values[k]), G[k]


@dataclass
class FrequencyReport:
    """One route's verdict, its response's ``status``, ``ok`` and ``counts``, and per-point
    minimum eigenvalues (NaN where not "ok"); ``origin_pole`` is None for the positive-real
    route, which does not test it, and ``crossing`` is the off-grid point that decided NotNI."""

    omegas: np.ndarray
    status: np.ndarray
    ok: np.ndarray
    counts: tuple[int, int, int]
    min_eig: np.ndarray
    pole_findings: list
    origin_pole: bool | None
    rhp_pole: bool
    verdict: Verdict
    warnings: list[str] = field(default_factory=list)
    crossing: GridPoint | None = None

    @property
    def passed(self) -> bool:
        return self.verdict in (Verdict.NI, Verdict.SNI)

    @property
    def per_point(self) -> list[GridPoint]:
        return [GridPoint(float(w), None if st != "ok" else float(v), str(st))
                for w, st, v in zip(self.omegas, self.status, self.min_eig)]

    @property
    def omega_hint(self) -> float | None:
        """The worst point's omega when the verdict is NotNI, else None: a candidate
        frequency witness for ``lmi_ni_certificate``."""
        worst = self.worst_point() if self.verdict is Verdict.NOT_NI else None
        return None if worst is None else worst.omega

    def worst_point(self) -> GridPoint | None:
        """The deciding crossing point, else the lowest "ok" grid point (None if there is none)."""
        if self.crossing is not None:
            return self.crossing
        ok = np.flatnonzero(self.ok)
        if ok.size == 0:
            return None
        i = ok[np.argmin(self.min_eig[ok])]
        return GridPoint(float(self.omegas[i]), float(self.min_eig[i]), "ok")


@dataclass
class NICertificate:
    """Witness for the state-space NI conditions (or their infeasibility).

    Filled in after it is built: the DR search sets ``iterations`` and ``polish_steps``
    (both stay 0 on the Riccati route and at a frequency witness), and
    ``sni_rank_condition`` sets ``strict`` and ``rank_condition_min_sv``.  A ``strict`` holds on all of (0, inf) when the system
    decides it from the crossings (``StateSpace.crossings`` not None), else on the grid
    of that call only."""

    verdict: CertStatus
    P: np.ndarray | None = None
    Y: np.ndarray | None = None
    L: np.ndarray | None = None
    lyap_residual: float = float("nan")
    coupling_residual: float = float("nan")
    factor_residual: float = float("nan")
    strict: bool = False
    rank_condition_min_sv: float = float("nan")
    iterations: int = 0
    polish_steps: int = 0  # dual DR steps of the Farkas polish; not in any report
    convention: str = SIGN_CONVENTION
    infeasibility_witness: np.ndarray | None = None

    @property
    def certified(self) -> bool:
        return self.verdict is CertStatus.CERTIFIED


@dataclass
class WZeroReport:
    """Zeros of W(s) = L P (sI - A)^{-1} B - L C^T on the positive imaginary axis.

    ``min_sv`` holds sigma_min W(j omega) per grid point.  NaN means one of two
    things: j omega I - A is exactly singular there, so W cannot be solved for, or
    the certificate is strict from the crossings, so only the first solvable point
    took its SVD.  Neither kind of point is ever flagged.  No verdict reads this
    report: it follows from ``NICertificate.strict`` (see ``w_transfer_zero_check``)."""

    omegas: np.ndarray
    min_sv: np.ndarray
    flagged: list[float]
    origin_value: float
    passed: bool


# ---------------------------------------------------------------------------
# frequency-domain certifiers


def frequency_response(sys: StateSpace, grid: FrequencyGrid | None = None,
                       tol_axis: float = TOL_AXIS,
                       tol_pole: float = TOL_POLE) -> FrequencyResponse:
    """Evaluate G(j omega) once over the grid and classify the poles of G.

    Points inside the exclusion radius of an imaginary-axis pole are skipped
    first; the rest go through one stacked resolvent solve, whose guard marks
    the ill-conditioned ones "near-pole".  Its X is kept for ``w_transfer_zero_check``.
    """
    grid = grid or FrequencyGrid()
    origin, rhp, pole_ws, hurwitz = sys.pole_classes(tol_axis)
    omegas = grid.omegas()
    excluded = np.any(np.abs(omegas[:, np.newaxis] - pole_ws)
                      <= grid.exclusion_radius * np.maximum(1.0, pole_ws), axis=1)
    ok = ~excluded
    X, guarded = resolvent_stack(sys, 1j * omegas[ok], tol_pole)
    if guarded.any():
        X = X[~guarded]
        ok[np.flatnonzero(ok)[guarded]] = False
    ok.setflags(write=False)
    status = np.where(ok, "ok", np.where(excluded, "excluded", "near-pole"))
    counts = (int(ok.sum()), int(excluded.sum()), int(guarded.sum()))
    findings, problems = [], []
    for w0 in pole_ws.tolist():
        try:
            findings.append(residue_at_pole(sys, w0, tol_axis))
        except (NIStabError, np.linalg.LinAlgError) as exc:  # NotSimple / Degenerate / NotAPole
            problems.append(f"pole at j*{w0:.6g}: {exc}")
    return FrequencyResponse(sys, grid, omegas, status, ok, counts, sys.C @ X + sys.D, X,
                             origin, rhp, pole_ws.tolist(), findings, problems, hurwitz, tol_pole)


def _min_eig_hermitian(M: np.ndarray) -> np.ndarray:
    """min eig (M + M*)/2 per matrix of the stack, from one stacked eigvalsh."""
    return np.linalg.eigvalsh((M + M.conj().swapaxes(-1, -2)) / 2).min(axis=-1)


def _ni_min_eig(G: np.ndarray) -> np.ndarray:
    """min eig j(G - G*) per matrix of the stack."""
    return _min_eig_hermitian(1j * (G - G.conj().swapaxes(-1, -2)))


def _pr_min_eig(omegas: np.ndarray, G: np.ndarray, D: np.ndarray) -> np.ndarray:
    """min eig F + F* per point of the stack, F(j omega) = j omega (G(j omega) - D)."""
    F = (1j * omegas)[:, np.newaxis, np.newaxis] * (G - D)
    return _min_eig_hermitian(F + F.conj().swapaxes(-1, -2))


def _report(resp: FrequencyResponse, values: np.ndarray, tol: float, notes: list[str],
            pole_failure: bool, origin_pole: bool | None, pole_findings: list,
            no_points: str = "no usable grid points",
            at_crossing: Callable[[float, np.ndarray], float] | None = None,
            confirmed: Callable[[], np.ndarray | None] | None = None) -> FrequencyReport:
    """The verdict rule shared by the routes, on the per-"ok"-point minimum eigenvalues.

    Pole failures decide NotNI, then a sweep minimum below -tol does, then
    ``resp.crossing_minimum`` below -tol does, as the report's ``crossing`` with
    the route's own value there (``at_crossing(omega, G)``; the NI value when
    None).  The NI rule then answers NI.  The strict (SNI) rule reads ``confirmed()``,
    the confirmed crossings (None when undecided), once, if the sweep maximum exceeds
    tol: a minimum inside the +/-tol band is Inconclusive unless they are decided and
    none, a confirmed crossing is Inconclusive, and the rest is SNI."""
    worst = float(values.min()) if values.size else None
    crossing = None
    if pole_failure or (worst is not None and worst < -tol):
        verdict = Verdict.NOT_NI
    elif (cross := resp.crossing_minimum) is not None and cross[1] < -tol:
        verdict = Verdict.NOT_NI
        omega, value, G = cross
        crossing = GridPoint(omega, value if at_crossing is None else at_crossing(omega, G),
                             "crossing")
    elif worst is None:
        verdict = Verdict.INCONCLUSIVE
        notes.append(no_points)
    elif confirmed is None:
        verdict = Verdict.NI
    else:
        band = worst <= tol
        cut = None if band and values.max() <= tol else confirmed()
        if band and (cut is None or cut.size):
            verdict = Verdict.INCONCLUSIVE
            notes.append(f"sweep minimum {worst:.3e} inside the +/-{tol:.1e} band")
        elif cut is not None and cut.size:
            verdict = Verdict.INCONCLUSIVE
            notes.append(f"j(G - G*) is singular at the crossing w = {cut[0]:.6g}")
        else:
            verdict = Verdict.SNI
    min_eig = np.full(resp.omegas.shape, np.nan)
    min_eig[resp.ok] = values
    return FrequencyReport(resp.omegas, resp.status, resp.ok, resp.counts, min_eig,
                           pole_findings, origin_pole, resp.rhp_pole, verdict, notes, crossing)


def _residues_fail(resp: FrequencyResponse, tol: float) -> bool:
    return bool(resp.pole_problems) or any(not f.accepted(tol) for f in resp.pole_findings)


def freq_ni_test(resp: FrequencyResponse, tol: float = DEFAULT_TOL) -> FrequencyReport:
    """Definition-level NI test: pole locations, residues, and the grid sweep
    of the minimum eigenvalue of j(G(jw) - G(jw)*), then its crossing points."""
    notes = []
    if not is_minimal(resp.sys):
        notes.append("realization is not minimal; pole-based conditions may be spurious")
    notes.extend(resp.pole_problems)
    pole_failure = resp.origin_pole or resp.rhp_pole or _residues_fail(resp, tol)
    return _report(resp, resp.ni_min_eig, tol, notes, pole_failure, resp.origin_pole,
                   resp.pole_findings,
                   no_points="no usable grid points (all excluded or ill-conditioned)")


def freq_sni_test(resp: FrequencyResponse, tol: float = DEFAULT_TOL) -> FrequencyReport:
    """Strict test: all poles in the open left half plane, sweep strictly positive.

    ``_report``'s strict rule reads the ``_confirmed_crossings``, as ``sni_rank_condition``
    does: those where j(G - G*) turns singular between grid points.  With none, and
    decided, lambda_min j(G - G*) keeps its sign on (0, inf), so a band minimum, as at the
    grid ends, where it tends to 0, is no obstacle.  A negative crossing point still
    decides ``NotNI``, and a pole off the open left half plane decides it first, so A is
    Hurwitz wherever the crossings are read.
    """
    notes = []
    pole_failure = resp.rhp_pole or resp.origin_pole or bool(resp.axis_pole_frequencies)
    if pole_failure:
        notes.append("poles outside the open left half plane")
    return _report(resp, resp.ni_min_eig, tol, notes, pole_failure, resp.origin_pole, [],
                   confirmed=lambda: _confirmed_crossings(resp.sys, tol, resp.tol_pole))


def positive_real_check(resp: FrequencyResponse, tol: float = DEFAULT_TOL) -> FrequencyReport:
    """NI via positive realness of F(s) = s (G(s) - D).

    Checks F(jw) + F(jw)* >= 0 on the grid and at a negative crossing point,
    pole locations in the closed left half plane, and PSD Hermitian residues on
    the axis (the residues of F at j w0 coincide with the NI residue matrices of G).
    """
    if resp.sys.singular_a(tol):
        raise SingularAError("A is numerically singular; F(s) = s(G(s) - D) is undefined at 0")
    D = resp.sys.D
    pole_failure = resp.rhp_pole or _residues_fail(resp, tol)
    return _report(resp, _pr_min_eig(resp.omegas[resp.ok], resp.G, D), tol,
                   list(resp.pole_problems), pole_failure, None, resp.pole_findings,
                   at_crossing=lambda omega, G: float(_pr_min_eig(np.array([omega]),
                                                                  G[np.newaxis], D)[0]))


# ---------------------------------------------------------------------------
# state-space certificate search


_SQRT2 = np.sqrt(2.0)

#: lmi_ni_certificate polishes a failed Farkas candidate at iteration _POLISH_FIRST
#: and every later power of two, for _POLISH_STEPS dual DR steps each time
_POLISH_FIRST = 8
_POLISH_STEPS = 20
#: lmi_ni_certificate stops MaxIterations after _MAX_ITERATIONS; the floor of Y is
#: eps = _EPS_SCALE / max(1, ||A||)
_MAX_ITERATIONS = 5000
_EPS_SCALE = 1e-6


@functools.cache
def _sym_maps(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index maps between svec coordinates and symmetric matrices.

    svec lists the diagonal, then sqrt(2) times the strict upper triangle: an
    isometry onto the symmetric matrices.  ``s[gather[0]] / div`` is the
    matrix of one svec vector and ``s[gather] / div`` the (2, n, n) stack of
    two concatenated ones; ``S.reshape(-1)[scatter] * mult`` maps a (2, n, n)
    stack back to two concatenated svec vectors, reading upper triangles."""
    iu, ju = np.triu_indices(n, k=1)
    pos = np.empty((n, n), dtype=np.intp)
    pos[np.diag_indices(n)] = np.arange(n)
    pos[iu, ju] = pos[ju, iu] = n + np.arange(iu.size)
    div = np.where(np.eye(n, dtype=bool), 1.0, _SQRT2)
    flat = np.concatenate([np.arange(n) * (n + 1), iu * n + ju])
    return (np.stack([pos, pos + n * (n + 1) // 2]), div,
            np.concatenate([flat, flat + n * n]), np.tile(div.reshape(-1)[flat], 2))


def _tolerances(sys: StateSpace, tol: float) -> tuple[float, float, float]:
    """``(tol_lyap, eps, tol_coupling)`` of the Certified test: tol_lyap = tol max(1, ||A||_2),
    the floor eps = _EPS_SCALE / max(1, ||A||_2) of Y, tol_coupling = tol max(1, ||B||_F)."""
    norm_a = sys.norm2
    return (tol * max(1.0, norm_a), _EPS_SCALE / max(1.0, norm_a),
            tol * max(1.0, float(np.linalg.norm(sys.B, "fro"))))


def _accepted(tols: tuple[float, float, float], lyap_min: float, y_min: float,
              coupling: float) -> bool:
    """The one Certified test, for both routes: lambda_min -(A Y + Y A^T) >= -tol_lyap,
    lambda_min Y >= eps / 2 and ||A Y C^T + B||_F <= tol_coupling (``_tolerances``)."""
    tol_lyap, eps, tol_coupling = tols
    return lyap_min >= -tol_lyap and y_min >= eps / 2 and coupling <= tol_coupling


def lmi_ni_certificate(sys: StateSpace, tol: float = DEFAULT_TOL,
                       omega_hint: float | None = None) -> NICertificate:
    """Search for Y = Y^T > 0 with A Y + Y A^T <= 0 and A Y C^T = -B.

    On success the certificate carries P = Y^{-1}, the factor L with
    L^T L = -(A Y + Y A^T), and the three residuals that make it checkable
    by direct matrix arithmetic.

    The routes, in order.  ``omega_hint`` is a candidate frequency, such as the
    worst point of a NotNI sweep.  A hint that passes ``_frequency_witness`` ends
    the search first: ``Infeasible``, 0 iterations, no Y, and the witness
    (omega, lambda_min, bound).  Any other hint is ignored, bit for bit.  Then the
    first ``_riccati_certificate`` whose own residuals pass the Certified test is
    returned as tested, with 0 iterations and an L of m rows.  Otherwise
    ``_dr_certificate`` decides.  Its Certified exits take at least 1 iteration, so
    a Certified certificate with 0 iterations is the Riccati route's.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if sys.singular_a(tol):
        raise SingularAError("A is numerically singular; the NI certificate requires det(A) != 0")
    d_asym = float(np.linalg.norm(sys.D - sys.D.T, "fro"))
    if d_asym > tol * max(1.0, float(np.linalg.norm(sys.D, "fro"))):
        raise AsymmetricDError(f"D is not symmetric (defect {d_asym:.3e})")
    tols = _tolerances(sys, tol)
    if omega_hint is not None:
        witness = _frequency_witness(sys, omega_hint, tols[0], tols[2], d_asym)
        if witness is not None:
            return NICertificate(verdict=CertStatus.INFEASIBLE, infeasibility_witness=witness)
    cert = _riccati_certificate(sys, tol, tols)
    return cert if cert is not None else _dr_certificate(sys, tol)


def _riccati_certificate(sys: StateSpace, tol: float,
                         tols: tuple[float, float, float]) -> NICertificate | None:
    """``certificate_from_y`` of Y = X2 X1^-1 from [X1; X2], the n - m eigenvectors of the
    transpose of ``sys.hamiltonian`` with the most negative real parts and its kernel
    (F(0) = 0 puts 2m eigenvalues at 0, in Jordan pairs; its m smallest right singular
    vectors), real part: the stabilizing Riccati solution Y_- of the positive-real lemma
    of F = s (G - D) (Willems 1971), whose W = -(A Y + Y A^T) has rank m.  Where that
    certificate's residuals fail ``_accepted``, or a factorization fails, the
    antistabilizing Y_+ from the n - m with the most positive real parts is tried.

    None, and DR decides, when the Hamiltonian is None (R = CB + B'C' singular or
    ill-conditioned), its eig or SVD fails, or neither certificate passes."""
    H = sys.hamiltonian
    if H is None:
        return None
    n, m = sys.n, sys.m
    with np.errstate(all="ignore"):
        try:
            lam, V = np.linalg.eig(H.T)
            kernel = np.linalg.svd(H.T)[2][2 * n - m:].conj().T
        except np.linalg.LinAlgError:
            return None
        order, k = np.argsort(lam.real), max(n - m, 0)
        for cols in (order[:k], order[::-1][:k]):  # Y_-, then Y_+
            X = np.hstack([V[:, cols], kernel])
            try:
                Y = np.linalg.solve(X[:n].T, X[n:].T).T.real
                if not np.isfinite(Y).all():
                    continue
                cert = certificate_from_y(sys, Y, tol)
                y_min = float(np.linalg.eigvalsh(cert.Y)[0])
            except np.linalg.LinAlgError:
                continue
            if _accepted(tols, cert.lyap_residual, y_min, cert.coupling_residual):
                return cert
    return None


def _dr_certificate(sys: StateSpace, tol: float = DEFAULT_TOL) -> NICertificate:
    """The Douglas-Rachford search of the module docstring, for a system that
    ``lmi_ni_certificate`` has checked (A nonsingular, D symmetric).

    An empty affine constraint set yields ``Infeasible`` with a separating-functional
    witness (n, m); a Farkas pair (2, n, n) that separates the family from the cone
    sets, found by the iteration itself or by a short dual search polishing its
    candidate, does too.  A search that finds neither a certificate nor a witness
    ends ``MaxIterations``: no verdict without proof."""
    n, m = sys.n, sys.m
    A, B, C = sys.A, sys.B, sys.C
    tols = _tolerances(sys, tol)
    tol_lyap, eps, _ = tols
    nsym = n * (n + 1) // 2
    gather, div, scatter, mult = _sym_maps(n)

    def svec2(S):
        # concatenated svec coordinates of the trailing (2, n, n) blocks
        return S.reshape(S.shape[:-3] + (2 * n * n,))[..., scatter] * mult

    # coupling A Y C^T = -B, with A invertible, reduces to Y C^T = V; column k
    # of K is E_k C^T for the k-th unit matrix E_k of the svec basis
    V = -np.linalg.solve(A, B)
    K = np.ascontiguousarray(((np.eye(nsym)[:, gather[0]] / div) @ C.T).reshape(nsym, -1).T)
    b = V.ravel()
    U_k, sv_k, Vt_k = np.linalg.svd(K, full_matrices=True)
    rank_k = int(np.sum(sv_k > 1e-12 * (sv_k[0] if sv_k.size else 1.0)))
    pinv_k = (Vt_k[:rank_k].T / sv_k[:rank_k]) @ U_k[:, :rank_k].T
    s_particular = pinv_k @ b
    affine_defect = K @ s_particular - b
    if np.linalg.norm(affine_defect) > tol * max(1.0, np.linalg.norm(b)):
        # no symmetric Y satisfies the coupling equation; the least-squares
        # residual is orthogonal to the range, hence a separating functional
        return NICertificate(
            verdict=CertStatus.INFEASIBLE,
            infeasibility_witness=affine_defect.reshape(n, m),
            coupling_residual=float(np.linalg.norm(A @ affine_defect.reshape(n, m))),
        )

    null_basis = Vt_k[rank_k:].T  # nsym x d, orthonormal
    Yp = s_particular[gather[0]] / div
    null_mats = null_basis.T[:, gather[0]] / div  # the free directions N_k

    eye = np.eye(n)

    def lyap(Y):
        return A @ Y + Y @ A.T

    # the family is f0 + Gmap theta; column k of Gmap, the svec pair of
    # (N_k, -lyap(N_k)), is row k of gmap_t, and pinv_t is pinv(Gmap)^T
    f0 = svec2(np.stack([Yp - eps * eye, -lyap(Yp)]))
    gmap_t = svec2(np.stack([null_mats, -lyap(null_mats)], axis=1))
    pinv_t = np.linalg.pinv(gmap_t.T, rcond=1e-12).T

    # clamp floors sit half a tolerance below the cone boundary: the true
    # feasible point is then interior to the relaxed sets, which turns the
    # tangential (sublinear) approach on thin feasible slivers into a
    # linear-rate one, while the certified residuals stay within tolerance
    floors = np.array([[-eps / 2], [-tol_lyap / 2]])

    def psd_clamp(z, floors):
        # both cone blocks in one stacked eigh, mapped through _sym_maps
        w, U = np.linalg.eigh(z[gather] / div)
        clamped = (U * np.maximum(w, floors)[:, np.newaxis, :]) @ U.swapaxes(-1, -2)
        return clamped.reshape(-1)[scatter] * mult

    # lyap(Y), Y and the witness blocks of one residual check, for one
    # stacked eigenvalue call; Y itself lives in the stack
    stack = np.empty((4, n, n))
    Y = stack[1]
    Y[...] = Yp

    def residuals(k):
        # k = 4 when the witness blocks ride along
        AY = A @ Y
        np.add(AY, Y @ A.T, out=stack[0])
        eigs = np.linalg.eigvalsh(stack[:k])  # ascending per block
        lyap_min = float(-eigs[0, -1])
        y_min = float(eigs[1, 0])
        defect = (AY @ C.T + B).ravel()
        coupling = float(np.sqrt(defect @ defect))
        return lyap_min, coupling, _accepted(tols, lyap_min, y_min, coupling), eigs[2:]

    # Farkas exit: w = pc - proj(pc), with proj the projection onto the
    # family, is orthogonal to every free direction, so <w, f> = <w, f0> on
    # the whole family, while on the relaxed cone sets <w, a> >= <w, floors>
    # + min(0, lambda_min(w)) tr(a - floors).  A separation
    # s = <w, f0 - floors>/||w|| below min(0, lambda_min) R, with lambda_min
    # that of w/||w||, thus rules out every point of the sets with shifted
    # trace up to R
    slack = f0 - svec2(floors[:, :, np.newaxis] * eye)
    radius = max(1.0, float(np.linalg.norm(f0))) / np.sqrt(tol)

    def separates(sep, eigs):
        # the exit test, on the ascending spectra of the two witness blocks
        return sep < 0 and sep <= min(0.0, float(eigs[:, 0].min())) * radius

    # Polish: a candidate w with sep < 0 that fails the test is pushed toward
    # a witness by a short DR run on the alternative system, the affine set
    # {Z orthogonal to range(Gmap), <Z, slack> = -1} against PSD x PSD.  A
    # point of both passes the test with lambda_min = 0.  Each step's
    # candidate, the affine projection of its cone point, is normalized and
    # put through the same test, so a polished witness proves what the exit
    # above proves.  The projection is that onto range(Gmap)^perp (the same
    # two products as the main iteration) plus a step along slack_perp, the
    # part of slack in that complement
    zero_floors = np.zeros_like(floors)
    polish_steps = 0

    def polish(w):
        nonlocal polish_steps
        slack_perp = slack - (slack @ pinv_t) @ gmap_t
        slack_sq = float(slack_perp @ slack_perp)
        zd = w / -float(w @ slack)
        for _ in range(_POLISH_STEPS):
            polish_steps += 1
            pc = psd_clamp(zd, zero_floors)
            rows = np.stack([2.0 * pc - zd, pc])
            rows -= (rows @ pinv_t) @ gmap_t
            rows -= ((1.0 + rows @ slack_perp) / slack_sq)[:, np.newaxis] * slack_perp
            zd = zd + (rows[0] - pc)
            cand = rows[1] / np.sqrt(rows[1] @ rows[1])
            blocks = cand[gather] / div
            if separates(float(cand @ slack), np.linalg.eigvalsh(blocks)):
                return blocks
        return None

    # Douglas-Rachford splitting between the affine family and the product
    # cone; the shadow point (cone projection pulled back to the family) is
    # the candidate checked each iteration.  Plain alternating projections
    # approach thin feasible slivers tangentially and can need 1e4+ sweeps;
    # DR reaches the same points in tens of iterations.  Row 0 of shifts is
    # the reflection 2 pc - z and row 1 the cone point pc, both less f0: one
    # product with pinv(Gmap) gives both coordinate vectors, one with Gmap
    # both projections, and the shadow point is Yp + smat(null_basis theta)
    shifts = np.empty((2, 2 * nsym))
    z = f0.copy()
    status = CertStatus.MAX_ITERATIONS
    res = witness = None
    iterations = _MAX_ITERATIONS
    for it in range(1, _MAX_ITERATIONS + 1):
        pc = psd_clamp(z, floors)
        np.multiply(pc, 2.0, out=shifts[0])
        shifts[0] -= z
        shifts[0] -= f0
        np.subtract(pc, f0, out=shifts[1])
        theta = shifts @ pinv_t
        back = theta @ gmap_t
        z = z + (f0 + back[0] - pc)
        np.add(Yp, (null_basis @ theta[1])[gather[0]] / div, out=Y)
        w = shifts[1] - back[1]
        wn = w / (np.sqrt(w @ w) or 1.0)
        sep = float(wn @ slack)
        # only a negative separation can prove anything
        if sep < 0:
            np.divide(wn[gather], div, out=stack[2:])
        res = residuals(4 if sep < 0 else 2)
        _, _, ok, eig_w = res
        if ok:
            status = CertStatus.CERTIFIED
            iterations = it
            break
        if separates(sep, eig_w):
            witness = stack[2:].copy()
        elif sep < 0 and it >= _POLISH_FIRST and it & (it - 1) == 0:
            witness = polish(w)
        if witness is not None:
            status = CertStatus.INFEASIBLE
            iterations = it
            break

    if status is not CertStatus.CERTIFIED:
        lyap_min, coupling, *_ = res
        return NICertificate(
            verdict=status,
            Y=Y.copy(),
            lyap_residual=lyap_min,
            coupling_residual=coupling,
            iterations=iterations,
            polish_steps=polish_steps,
            infeasibility_witness=witness,
        )
    # the shadow point is exactly symmetric, so certificate_from_y keeps its bits
    cert = certificate_from_y(sys, Y, tol)
    cert.iterations = iterations
    cert.polish_steps = polish_steps
    return cert


def _frequency_witness(sys: StateSpace, omega: float, tol_lyap: float, tol_coupling: float,
                       d_asym: float) -> np.ndarray | None:
    """(omega, lambda_min, bound) when lambda_min j(G(j omega) - G(j omega)*) < -bound.

    Proof.  Let Y be symmetric with E = A Y C^T + B, ||E||_F <= tol_coupling,
    and W = -(A Y + Y A^T) >= -tol_lyap I: every Y that passes the search's
    Certified test is one (its clamp floor, W >= -tol_lyap/2 I, lies inside).
    With R = (j omega I - A)^{-1}, R A = j omega R - I turns
    C R B = -C R A Y C^T + C R E into C Y C^T - j omega C R Y C^T + C R E, and
    R Y + Y R* = R W R*, since Y (R*)^{-1} + R^{-1} Y = Y (-j omega I - A^T)
    + (j omega I - A) Y = W.  Hence
    j(G - G*) = omega C R W R* C^T + j(C R E - E* R* C^T) + j(D - D^T), and

        lambda_min j(G - G*) >= -omega tol_lyap ||C R||_2^2 - 2 ||C R||_2 tol_coupling
                                - ||D - D^T||_F.

    ``bound`` is that sum plus an allowance for the rounding of the solve and
    of G (the condition number of j omega I - A times the size of C R B and D).
    No symmetric Y, positive definite or not, then passes the test, so the
    search could only end Infeasible or at its iteration limit.  One solve
    gives R; G = (C R) B + D.  None when omega is not finite and positive or
    j omega I - A is singular: the hint proves nothing there.
    """
    omega = float(omega)
    if not 0 < omega < np.inf:
        return None
    n, m = sys.n, sys.m
    shifted = 1j * omega * np.eye(n) - sys.A
    try:
        R = np.linalg.solve(shifted, np.eye(n))
    except np.linalg.LinAlgError:
        return None
    CR = sys.C @ R
    G = CR @ sys.B + sys.D
    lam = float(_ni_min_eig(G))
    norm_cr = float(np.linalg.norm(CR, 2))
    norm_r = float(np.linalg.norm(R))
    kappa = float(np.linalg.norm(shifted)) * norm_r
    rounding = 64 * (n + m) * np.finfo(float).eps * (
        (1.0 + kappa) * float(np.linalg.norm(sys.C)) * norm_r * float(np.linalg.norm(sys.B))
        + float(np.linalg.norm(sys.D)))
    bound = omega * tol_lyap * norm_cr ** 2 + 2 * norm_cr * tol_coupling + d_asym + rounding
    if not lam < -bound:
        return None
    return np.array([omega, lam, bound])


def certificate_from_y(sys: StateSpace, Y: np.ndarray, tol: float = DEFAULT_TOL) -> NICertificate:
    """The checkable certificate (P, L, residuals) of a feasible Y, symmetrized first."""
    Y = (Y + Y.T) / 2
    A = sys.A
    W = -(A @ Y + Y @ A.T)
    W = (W + W.T) / 2
    # eigendecomposition square root, not Cholesky: W is routinely singular (W = 0
    # for a lossless A).  Eigenvalues up to the band (the certified tolerance relative
    # to ||A|| and ||W||) are dropped with their rows, so L has full row rank.  Each
    # row's largest-magnitude entry is made positive, so a rounding-level change in W
    # cannot flip a whole row
    w, U = np.linalg.eigh(W)
    keep = w > tol * max(1.0, sys.norm2, float(np.abs(w).max()))
    L = np.sqrt(w[keep])[:, np.newaxis] * U[:, keep].T
    L *= np.sign(L[np.arange(L.shape[0]), np.abs(L).argmax(axis=1)])[:, np.newaxis]
    P = np.linalg.inv(Y)
    P = (P + P.T) / 2
    return NICertificate(
        verdict=CertStatus.CERTIFIED,
        P=P,
        Y=Y,
        L=L,
        lyap_residual=float(w[0]),
        coupling_residual=float(np.linalg.norm(sys.B + A @ Y @ sys.C.T, "fro")),
        factor_residual=float(np.linalg.norm(L.T @ L + A @ Y + Y @ A.T, "fro")),
    )


# ---------------------------------------------------------------------------
# strictness checks


def _interval_points(w: np.ndarray) -> np.ndarray:
    """One point in each interval of (0, inf) that the ascending frequencies ``w`` cut: half
    the first, the midpoints between consecutive ones and twice the last (1 when w is empty)."""
    if not w.size:
        return np.ones(1)
    return np.concatenate([w[:1] / 2, (w[:-1] + w[1:]) / 2, w[-1:] * 2])


def _confirmed_crossings(sys: StateSpace, tol: float,
                         tol_pole: float = TOL_POLE) -> np.ndarray | None:
    """The crossings w_c of ``StateSpace.crossings`` where j(G(jw_c) - G(jw_c)*) is singular
    by one stacked evaluation: lambda_min <= tol * w_c, or the resolvent guard trips at w_c.
    None when the crossings are undecided.

    A crossing that fails the test is rounding, such as a split of the w = 0 cluster of an
    ill-conditioned R, and does not cut (0, inf).  The caller checks that A is Hurwitz."""
    w = sys.crossings
    if w is None or not w.size:
        return w
    G, confirmed = eval_tf_stack(sys, 1j * w, tol_pole)
    confirmed[~confirmed] = _ni_min_eig(G[~confirmed]) <= tol * w[~confirmed]
    return w[confirmed]


def sni_rank_condition(sys: StateSpace, cert: NICertificate,
                       grid: FrequencyGrid | None = None,
                       tol: float = DEFAULT_TOL,
                       tol_axis: float = TOL_AXIS,
                       tol_pole: float = TOL_POLE) -> float:
    """The SNI lemma's rank condition on M(w) = [[A - jwI, B], [L P, -L C^T]]: sets
    ``cert.strict`` and ``cert.rank_condition_min_sv`` (the value returned).

    Strictness needs A Hurwitz (in the axis band of relative width ``tol_axis``, as in
    ``frequency_response``).  Where A - jwI is invertible, M(w) has full column rank
    exactly when its Schur complement W(jw) = L P (jwI - A)^{-1} B - L C^T does, and
    W*W = w j(G - G*) for every certificate; so for Hurwitz A the rank condition on
    (0, inf) is j(G - G*) > 0 there.

    When A is Hurwitz and the crossings are decided, the pencil takes one stacked SVD at
    the ``_confirmed_crossings`` (under the guard ``tol_pole``, as in ``freq_sni_test``) and
    at the ``_interval_points`` between them (w = 1 when there is none).  The certificate is
    strict when there is no confirmed crossing and that minimum exceeds ``tol``, and then on
    all of (0, inf).  Otherwise (``sys.crossings`` is None) the pencil takes one stacked SVD
    over the omegas of ``grid``, the certificate is strict when A is Hurwitz and the grid
    minimum exceeds ``tol``, and that holds on the grid only.
    """
    if not cert.certified:
        raise NotCertifiedError("sni_rank_condition requires a certified system")
    n, m = sys.n, sys.m
    L, P = cert.L, cert.P
    *_, hurwitz = sys.pole_classes(tol_axis)
    confirmed = _confirmed_crossings(sys, tol, tol_pole) if hurwitz else None
    if confirmed is None:
        omegas = (grid or FrequencyGrid()).omegas()
    else:
        omegas = np.concatenate([confirmed, _interval_points(confirmed)])
    if L.shape[0] < m:
        min_sv = 0.0  # fewer rows than columns: full column rank impossible
    else:
        diag = np.arange(n)
        pencil = np.empty((omegas.size, n + L.shape[0], n + m), dtype=complex)
        pencil[:, :n, :n] = sys.A
        pencil[:, diag, diag] -= 1j * omegas[:, np.newaxis]
        pencil[:, :n, n:] = sys.B
        pencil[:, n:] = np.hstack([L @ P, -(L @ sys.C.T)])
        min_sv = float(min_singular_value(pencil).min())
    cert.rank_condition_min_sv = min_sv
    cert.strict = hurwitz and min_sv > tol and (confirmed is None or not confirmed.size)
    return min_sv


def w_transfer_zero_check(resp: FrequencyResponse, cert: NICertificate,
                          tol: float = DEFAULT_TOL) -> WZeroReport:
    """Zeros of W(jw) = L P (jwI - A)^{-1} B - L C^T for w > 0, on the grid of ``resp``.

    W reads ``resp.X`` at the "ok" points; only the others take their own solve
    (NaN where jwI - A is exactly singular).  W(s) = s M(s) vanishes at the origin
    by construction, so the value at the low end of the grid is recorded unflagged.

    When ``sni_rank_condition`` found ``cert`` strict from the crossings (strict, and
    ``sys.crossings`` not None), W(jw) has full column rank on all of (0, inf), so no
    point is flagged on any grid, also where sigma_min W(jw) is below tol near the
    origin, and only the first solvable point takes its SVD, for ``origin_value``
    (``min_sv`` NaN at the others).  Any other certificate has every point evaluated.
    One strict on the grid fallback flags none on that grid: wherever A - jwI is
    invertible, sigma_min W(jw) >= sigma_min M(w) > tol for the pencil M(w), since
    x = -(A - jwI)^{-1} B u gives M(w) [x; u] = [0; W(jw) u], and ||[x; u]|| >= ||u||.
    """
    if not cert.certified:
        raise NotCertifiedError("w_transfer_zero_check requires a certified system")
    sys, omegas = resp.sys, resp.omegas
    L = cert.L
    p = L.shape[0]
    if p == 0:
        min_sv = np.zeros(omegas.size)
        flagged = omegas.tolist()
    else:
        solved = resp.ok.copy()
        X = np.empty((omegas.size, sys.n, sys.m), dtype=complex)
        X[solved] = resp.X
        rest = np.flatnonzero(~solved)
        if rest.size:
            res = 1j * omegas[rest, np.newaxis, np.newaxis] * np.eye(sys.n) - sys.A
            # a zero LU pivot: exactly the points where solve would raise
            solvable = np.linalg.slogdet(res)[0] != 0
            X[rest[solvable]] = np.linalg.solve(res[solvable], sys.B.astype(complex)[np.newaxis])
            solved[rest[solvable]] = True
        LP, LCt = L @ cert.P, L @ sys.C.T
        X = X[solved]
        at = np.flatnonzero(solved)
        min_sv = np.full(omegas.size, np.nan)
        if p < sys.m:
            min_sv[at] = 0.0
        else:
            if cert.strict and sys.crossings is not None:
                at, X = at[:1], X[:1]  # nothing to flag: only origin_value is needed
            min_sv[at] = min_singular_value(LP @ X - LCt)
        flagged = omegas[(min_sv < tol) & (omegas > omegas[0])].tolist()
    known = min_sv[~np.isnan(min_sv)]
    origin_value = float(known[0]) if known.size else 0.0
    return WZeroReport(omegas, min_sv, flagged, origin_value, passed=not flagged)


# ---------------------------------------------------------------------------
# constructive generation


#: random_ni_system gives up after this many draws
_GENERATION_DRAWS = 50


def random_ni_system(seed: int, n: int, m: int, strict: bool = False,
                     with_feedthrough: bool = False) -> tuple[StateSpace, NICertificate]:
    """Draw a random NI (or SNI) system with its by-construction certificate.

    Draws Y > 0, skew S and PSD W, sets A = (S - W/2) Y^{-1} so that
    A Y + Y A^T = -W, then B = -A Y C^T for random C.  Deterministic in
    ``seed``; retries until the realization is minimal, A is comfortably
    nonsingular and (for strict systems) the rank condition holds.
    """
    if n < 1 or m < 1:
        raise GenerationFailedError("need n >= 1 and m >= 1")
    if strict and m > n:
        raise GenerationFailedError(
            f"no SNI system with m = {m} > n = {n}: the certificate factor L has at most "
            "n rows, so the rank condition cannot hold")
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid(points=120)
    for _ in range(_GENERATION_DRAWS):
        Qm, _ = np.linalg.qr(rng.standard_normal((n, n)))
        Y = Qm @ np.diag(rng.uniform(0.5, 2.0, n)) @ Qm.T
        T = rng.standard_normal((n, n))
        S = (T - T.T) / 2
        F = rng.standard_normal((n, n)) / np.sqrt(n)
        W = F @ F.T
        if strict:
            W += 0.1 * np.eye(n)
        A = (S - W / 2) @ np.linalg.inv(Y)
        if min_singular_value(A) <= 1e-4 * max(1.0, float(np.linalg.norm(A, 2))):
            continue
        C = rng.standard_normal((m, n))
        B = -A @ Y @ C.T
        if with_feedthrough:
            R = rng.standard_normal((m, m)) * 0.3
            D = R @ R.T  # PSD, hence symmetric
        else:
            D = np.zeros((m, m))
        sys = StateSpace(A, B, C, D, label=f"random-ni-{seed}")
        if not is_minimal(sys):
            continue
        # no Hurwitz test is needed: x* A = lambda x* gives 2 Re(lambda) x* Y x =
        # -x* W x, and W >= 0.1 I, Y <= 2 I (strict) put Re(lambda) <= -0.025
        cert = certificate_from_y(sys, Y)
        if strict:
            sni_rank_condition(sys, cert, grid)
            if not cert.strict:
                continue
        return sys, cert
    raise GenerationFailedError(
        f"could not generate an {'SNI' if strict else 'NI'} system after {_GENERATION_DRAWS} draws"
    )
