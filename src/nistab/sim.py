"""Autonomous time propagation of the closed loop with Lyapunov monitoring.

The loop is LTI, so the default propagator applies one matrix exponential
e^{A_cl dt} repeatedly (exact up to the exponential's own accuracy); a
fixed-step RK4 integrator is available for cross-checking.  When block
certificates are supplied, the storage function V = x^T Q x and the
dissipation rate ||ytilde2||^2 are recorded alongside the states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError
from .interconnect import ClosedLoop
from .linalg import matrix_exponential
from .lyapunov import block_gram, make_state, quadratic_form, ytilde
from .nicert import NICertificate

METHODS = ("expm_exact", "rk4")
#: rows per % in trace_to_csv: large enough to amortize the call, small enough that
#: the transient tuple of floats stays small next to the text (peak RSS of the
#: benchmark's loop ops rose by about 1 MB with 256-row blocks, not with 1024)
_CSV_BLOCK = 1024


@dataclass
class SimulationTrace:
    times: np.ndarray
    x: np.ndarray                   # (steps + 1, n), one closed-loop state per row
    V: np.ndarray
    ytilde2_normsq: np.ndarray
    dt: float
    method: str


def simulate(cl: ClosedLoop, x0: np.ndarray, t_final: float, dt: float = 1e-2,
             method: str = "expm_exact",
             certs: tuple[NICertificate, NICertificate] | None = None) -> SimulationTrace:
    """Propagate x' = A_cl x from x0 on a uniform grid of spacing dt.

    ``expm_exact`` computes one matrix exponential and applies it to each
    state in place; ``rk4`` takes four stage evaluations per step.  V and
    ||ytilde2||^2 are NaN unless certificates are provided.  The loop outputs
    are solved once for the whole trajectory, after propagation.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = cl.n
    if x0.shape != (n,):
        raise DimensionError(f"x0 must have shape ({n},), got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise DimensionError("x0 must be finite")
    if not (np.isfinite(t_final) and np.isfinite(dt)):
        raise DimensionError("t_final and dt must be finite")
    if dt <= 0:
        raise DimensionError("dt must be positive")
    if t_final < dt:
        raise DimensionError("t_final must be at least one step long")
    if method not in METHODS:
        raise DimensionError(f"unknown method {method!r}; pick one of {METHODS}")
    steps = int(round(t_final / dt))
    times = np.arange(steps + 1) * dt

    n1 = cl.plant.n
    A = cl.A_cl
    X = np.empty((steps + 1, n))
    X[0] = x0
    if method == "expm_exact":
        phi = matrix_exponential(A, dt)
        for k in range(steps):
            np.dot(phi, X[k], out=X[k + 1])
    else:
        def step(x):
            k1 = A @ x
            k2 = A @ (x + 0.5 * dt * k1)
            k3 = A @ (x + 0.5 * dt * k2)
            k4 = A @ (x + dt * k3)
            return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

        for k in range(steps):
            X[k + 1] = step(X[k])
    state = make_state(cl.plant, cl.controller, X[:, :n1], X[:, n1:])
    V = (np.full(steps + 1, np.nan) if certs is None
         else quadratic_form(X, block_gram(certs[0].P, certs[1].P, cl.plant, cl.controller).Q))
    diss = (np.full(steps + 1, np.nan) if certs is None
            else quadratic_form(ytilde(certs[1], cl.controller, state.x2, state.u2)))
    return SimulationTrace(times=times, x=X, V=V,
                           ytilde2_normsq=diss, dt=dt, method=method)


def v_monotone(trace: SimulationTrace, tol: float = 1e-8) -> tuple[bool, float]:
    """Whether V never increases by more than tol per step; returns the worst rise."""
    V = np.asarray(trace.V, dtype=float)
    if len(V) < 2 or np.isnan(V).all():
        return True, 0.0
    rises = np.diff(V)
    worst = float(np.nanmax(rises)) if rises.size else 0.0
    return bool(worst <= tol), worst


def trace_to_csv(trace: SimulationTrace) -> str:
    """Serialize a trace as CSV with 12 significant digits per value.

    Header is ``t,x1,...,xn,V,ytilde2sq``; one row per step, deterministic.
    """
    nx = trace.x.shape[-1]
    header = ",".join(["t", *(f"x{i + 1}" for i in range(nx)), "V", "ytilde2sq"])
    row = ",".join(["%.12g"] * (nx + 3))
    table = np.column_stack([trace.times, trace.x, trace.V, trace.ytilde2_normsq])
    # one % per block of _CSV_BLOCK rows, on a flat tuple of Python floats; the
    # trailing "" gives the final newline without a copy of the whole text
    block = "\n".join([row] * _CSV_BLOCK)
    parts = [header]
    for i in range(0, len(table), _CSV_BLOCK):
        rows = table[i:i + _CSV_BLOCK]
        fmt = block if len(rows) == _CSV_BLOCK else "\n".join([row] * len(rows))
        parts.append(fmt % tuple(rows.ravel().tolist()))
    parts.append("")
    return "\n".join(parts)
