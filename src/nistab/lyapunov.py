"""Block Lyapunov certificate for the closed loop and its dissipation identity.

The storage function is the quadratic form x^T Q x with

    Q = [[P1 - C1^T D2 C1, -C1^T C2], [-C2^T C1, P2 - C2^T D1 C2]]

whose positive definiteness is equivalent to the DC-gain condition
lambda_max(G(0) H(0)) < 1.  Along closed-loop trajectories its derivative
collapses to -||ytilde1||^2 - ||ytilde2||^2 with
ytilde_i = L_i P_i x_i - L_i C_i^T u_i; that identity is verified
numerically here rather than re-deriving the intermediate algebra.

Loop outputs are solved once at state construction (u1 = y2, u2 = y1).  At
such a state x^T Q x equals V1 + V2 - 2 y1^T y2 plus the feedthrough
correction y1^T D2 y1 + y2^T D1 y2, which vanishes for strictly proper
blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, FeedthroughError, NotCertifiedError
from .interconnect import ClosedLoop, dc_gain_condition
from .linalg import DEFAULT_TOL
from .nicert import NICertificate
from .statespace import StateSpace


@dataclass
class LyapunovCertificate:
    Q: np.ndarray
    min_eig_Q: float
    P1: np.ndarray
    P2: np.ndarray
    plant: StateSpace
    controller: StateSpace


@dataclass
class InterconnectState:
    """Closed-loop states with the loop outputs solved in.

    Every field is a stack of vectors along its last axis: ``x1`` is
    ``(..., n1)``, ``y1`` is ``(..., m)``, and so on; one state is a stack
    with no leading axes.
    """

    x1: np.ndarray
    x2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    y1: np.ndarray
    y2: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return np.concatenate([self.x1, self.x2], axis=-1)


@dataclass
class DerivativeCheck:
    vdot_quadratic: float | np.ndarray     # one entry per state of the stack
    vdot_dissipation: float | np.ndarray
    residual: float | np.ndarray
    ytilde1: np.ndarray
    ytilde2: np.ndarray


@dataclass
class EquivalenceReport:
    agree: bool
    borderline: bool
    min_eig_Q: float
    lambda_max: float


@dataclass
class DissipationReport:
    integral: float           # Simpson value of int ||ytilde2||^2 dt
    v0: float
    tol_int: float
    passed: bool


def make_state(plant: StateSpace, controller: StateSpace,
               x1: np.ndarray, x2: np.ndarray,
               tol: float = DEFAULT_TOL) -> InterconnectState:
    """Solve the loop equations u1 = y2, u2 = y1 for a stack of states.

    ``x1`` is ``(..., n1)`` and ``x2`` is ``(..., n2)`` with equal leading
    shapes.  The loop is solved through the general (I - D1 D2)^{-1}, so the
    outputs are exact whether or not the feedthrough product vanishes.
    """
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    if (x1.shape[-1:] != (plant.n,) or x2.shape[-1:] != (controller.n,)
            or x1.shape[:-1] != x2.shape[:-1]):
        raise DimensionError(
            f"states must have shapes (..., {plant.n}) and (..., {controller.n}) "
            f"with equal leading shapes, got {x1.shape} and {x2.shape}"
        )
    D1, D2 = plant.D, controller.D
    loop = np.eye(plant.m) - D1 @ D2
    if np.linalg.svd(loop, compute_uv=False).min() <= tol:
        raise FeedthroughError("loop is not well posed: I - D1 D2 is singular")
    c2x2 = controller.C @ x2[..., None]
    y1 = np.linalg.solve(loop, plant.C @ x1[..., None] + D1 @ c2x2)
    y2 = c2x2 + D2 @ y1
    y1, y2 = y1[..., 0], y2[..., 0]
    return InterconnectState(x1=x1, x2=x2, u1=y2, u2=y1, y1=y1, y2=y2)


def quadratic_form(x: np.ndarray, M: np.ndarray | None = None) -> np.ndarray:
    """x^T M x (x^T x when M is None) for each vector of a stack along the last axis.

    Written as row @ matrix @ column, so each entry is bit-identical to the
    one-vector ``x @ M @ x``; einsum and sums of products reorder the sums.
    """
    row = x[..., None, :]
    return ((row if M is None else row @ M) @ x[..., None])[..., 0, 0]


def ytilde(cert: NICertificate, system: StateSpace,
           x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Dissipation output L P x - L C^T u of one block, for stacks of x and u."""
    return (cert.L @ (cert.P @ x[..., None]) - cert.L @ (system.C.T @ u[..., None]))[..., 0]


def block_gram(P1: np.ndarray, P2: np.ndarray,
               plant: StateSpace, controller: StateSpace) -> LyapunovCertificate:
    """Assemble Q from the block formula and report its minimum eigenvalue."""
    P1 = np.asarray(P1, dtype=float)
    P2 = np.asarray(P2, dtype=float)
    C1, D1 = plant.C, plant.D
    C2, D2 = controller.C, controller.D
    if P1.shape != (plant.n, plant.n) or P2.shape != (controller.n, controller.n):
        raise DimensionError("P1/P2 shapes do not match the plant/controller state dims")
    if plant.m != controller.m:
        raise DimensionError("plant and controller i/o dimensions differ")
    Q = np.block([
        [P1 - C1.T @ D2 @ C1, -C1.T @ C2],
        [-C2.T @ C1, P2 - C2.T @ D1 @ C2],
    ])
    Q = (Q + Q.T) / 2
    return LyapunovCertificate(
        Q=Q,
        min_eig_Q=float(np.linalg.eigvalsh(Q).min()),
        P1=P1, P2=P2, plant=plant, controller=controller,
    )


def gram_dc_equivalence(plant: StateSpace, controller: StateSpace,
                       P1: np.ndarray, P2: np.ndarray,
                       tol: float = 1e-6) -> EquivalenceReport:
    """Do (Q positive definite) and (lambda_max(G(0)H(0)) < 1) agree?

    Cases with either margin inside the tolerance band are flagged borderline
    (the equivalence holds there only in the semidefinite boundary sense).
    """
    cert = block_gram(P1, P2, plant, controller)
    lam_max, _ = dc_gain_condition(plant, controller, tol=DEFAULT_TOL)
    q_pd = cert.min_eig_Q > tol
    dc_ok = lam_max < 1.0 - tol
    borderline = abs(cert.min_eig_Q) <= tol or abs(lam_max - 1.0) <= tol
    return EquivalenceReport(
        agree=bool(q_pd == dc_ok or borderline),
        borderline=bool(borderline),
        min_eig_Q=cert.min_eig_Q,
        lambda_max=lam_max,
    )


def lyapunov_derivative(state: InterconnectState, cl: ClosedLoop,
                        certs: tuple[NICertificate, NICertificate],
                        lyap_cert: LyapunovCertificate) -> DerivativeCheck:
    """Both sides of the dissipation identity at a stack of states.

    Computes x^T (A_cl^T Q + Q A_cl) x with A_cl taken from the caller's
    closed loop (one source of truth) and the dissipation form
    -||ytilde1||^2 - ||ytilde2||^2, returning both and their difference with
    the leading shape of ``state``.
    """
    cert1, cert2 = certs
    if not (cert1.certified and cert2.certified):
        raise NotCertifiedError("lyapunov_derivative requires certified blocks")
    M = cl.A_cl.T @ lyap_cert.Q + lyap_cert.Q @ cl.A_cl
    vdot_quad = quadratic_form(state.x, M)
    yt1 = ytilde(cert1, cl.plant, state.x1, state.u1)
    yt2 = ytilde(cert2, cl.controller, state.x2, state.u2)
    vdot_diss = -quadratic_form(yt1) - quadratic_form(yt2)
    return DerivativeCheck(
        vdot_quadratic=vdot_quad,
        vdot_dissipation=vdot_diss,
        residual=np.abs(vdot_quad - vdot_diss),
        ytilde1=yt1,
        ytilde2=yt2,
    )


def worst_derivative_residual(cl: ClosedLoop, certs: tuple[NICertificate, NICertificate],
                              lyap_cert: LyapunovCertificate, X: np.ndarray,
                              scale: float) -> float:
    """Largest dissipation-identity residual over the probe states, the rows of ``X``.

    Each residual is divided by max(1, ||x||^2 * scale); no rows give 0.
    """
    n1 = cl.plant.n
    state = make_state(cl.plant, cl.controller, X[:, :n1], X[:, n1:])
    chk = lyapunov_derivative(state, cl, certs, lyap_cert)
    return float(np.max(chk.residual / np.maximum(1.0, quadratic_form(X) * scale), initial=0.0))


def dissipation_integral_check(trace, tol_int: float = 1e-6) -> DissipationReport:
    """Check int_0^t ||ytilde2||^2 ds <= V(0) + tol_int along a trace.

    The cumulative integral is evaluated with composite Simpson quadrature
    (the plain trapezoid rule's O(dt^2) bias is too coarse for the bound when
    the plant is lossless and the inequality is tight).  The integrand is
    nonnegative, so the cumulative maximum is attained at the final time.
    """
    f = np.asarray(trace.ytilde2_normsq, dtype=float)
    t = np.asarray(trace.times, dtype=float)
    if f.shape != t.shape or not np.all(np.diff(t) > 0):
        raise DimensionError("trace times must increase strictly, one per dissipation value")
    v0 = float(trace.V[0]) if len(trace.V) else 0.0
    if len(t) < 2:
        return DissipationReport(0.0, v0, tol_int, passed=True)
    cum = _cumulative_simpson(f, t)
    return DissipationReport(float(cum[-1]), v0, tol_int, passed=bool(cum.max() <= v0 + tol_int))


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``scipy.integrate.cumulative_simpson(y, x=x, initial=0.0)`` for 1-d y and increasing x,
    operation for operation: the even intervals by eqn 8 of Cartwright from the points on their
    left (h1), the odd ones and the last from the right (h2); two points take the trapezoid."""
    def h1(y, dx):
        x21, x32 = dx[:-1], dx[1:]
        x21_x31 = x21 / (x21 + x32)
        x21x21_x31x32 = x21_x31 * (x21 / x32)
        return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                          + -x21x21_x31x32 * y[2:])

    dx = np.diff(x)
    if y.size < 3:
        return np.concatenate([[0.0], np.cumsum(dx * (y[1:] + y[:-1]) / 2.0) + 0.0])

    h2 = h1(y[::-1], dx[::-1])[::-1]
    sub = np.append(h1(y, dx), h2[-1])  # h1 on the even intervals, h2 on the odd and last
    sub[1:-1:2] = h2[:-1:2]
    return np.concatenate([[0.0], np.cumsum(sub) + 0.0])
