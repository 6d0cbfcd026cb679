"""Correctness oracles for nistab reports and traces, in plain numpy/scipy.

Nothing here imports nistab.  Each function takes the system data that the
benchmark generated and what nistab wrote (a parsed JSON report or a CSV
path), and returns a list of problems; an empty list means the output
passed.  The checks re-derive every claim from the system matrices:
certificate residuals, the sweep value at the reported worst frequency, a
negative-frequency witness found by dense evaluation, the closed-loop
spectrum, the propagated state and the storage-function bounds.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.integrate import simpson

CHUNK = 512  # frequencies per stacked solve, so the oracle's memory stays small


def matrix(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def grid_omegas(grid: dict) -> np.ndarray:
    """The sweep grid a report records, rebuilt from its fields."""
    if grid["spacing"] == "logarithmic":
        return np.logspace(np.log10(grid["omega_min"]), np.log10(grid["omega_max"]),
                           grid["points"])
    return np.linspace(grid["omega_min"], grid["omega_max"], grid["points"])


def min_eig_curve(system: dict, omegas, route: str = "ni") -> np.ndarray:
    """Smallest eigenvalue of j(G - G*) ("ni") or F + F* with F = jw(G - D) ("pr")."""
    A, B, C, D = (matrix(system[k]) for k in ("A", "B", "C", "D"))
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    n = A.shape[0]
    out = np.empty(omegas.size)
    for start in range(0, omegas.size, CHUNK):
        w = omegas[start:start + CHUNK]
        resolvent = 1j * w[:, None, None] * np.eye(n) - A
        rhs = np.broadcast_to(B.astype(complex), (w.size, *B.shape))
        G = C @ np.linalg.solve(resolvent, rhs) + D
        if route == "ni":
            H = 1j * (G - np.conj(np.swapaxes(G, 1, 2)))
        else:
            F = 1j * w[:, None, None] * (G - D)
            H = F + np.conj(np.swapaxes(F, 1, 2))
        H = (H + np.conj(np.swapaxes(H, 1, 2))) / 2
        out[start:start + CHUNK] = np.linalg.eigvalsh(H)[:, 0]
    return out


def dense_witness(system: dict) -> tuple[float, float]:
    """Most negative point of j(G - G*) on a dense grid; returns (omega, min_eig).

    The grid is 20,000 log-spaced points on [1e-4, 1e4] plus 801 points
    across each lightly damped pole, spanning 40 times its damping, where a
    narrow dip can hide between the points of any coarse grid.
    """
    A = matrix(system["A"])
    parts = [np.logspace(-4, 4, 20_000)]
    for lam in np.linalg.eigvals(A):
        if lam.imag > 0:
            half = 20 * max(abs(lam.real), 1e-9 * abs(lam))
            parts.append(np.linspace(max(lam.imag - half, 1e-6), lam.imag + half, 801))
    omegas = np.concatenate(parts)
    curve = min_eig_curve(system, omegas)
    k = int(np.argmin(curve))
    return float(omegas[k]), float(curve[k])


def worst_point_problems(system: dict, section: dict, grid: dict, route: str,
                         name: str) -> list[str]:
    """The reported worst point is the sweep value there and the grid minimum."""
    worst = section.get("worst_point")
    if worst is None:
        return [f"{name}: no worst point reported"]
    omegas = grid_omegas(grid)
    curve = min_eig_curve(system, omegas, route)
    own = float(min_eig_curve(system, [worst["omega"]], route)[0])
    tol = 1e-9 * max(1.0, abs(own), float(np.abs(curve).max()))
    problems = []
    if abs(own - worst["min_eig"]) > tol:
        problems.append(f"{name}: min_eig {worst['min_eig']:.9g} at omega {worst['omega']:.9g}, "
                        f"recomputed {own:.9g}")
    if own > curve.min() + tol:
        problems.append(f"{name}: worst point {own:.9g} is above the grid minimum "
                        f"{curve.min():.9g}")
    return problems


def certificate_problems(system: dict, cert: dict | None, tol: float,
                         strict: bool = False, name: str = "lmi") -> list[str]:
    """Re-validate Y > 0, AY + YA' <= tol, B + AYC' = 0, L'L = -(AY + YA'), P = Y^-1."""
    if cert is None or cert.get("verdict") != "Certified":
        return [f"{name}: not certified ({None if cert is None else cert.get('verdict')})"]
    A, B, C = (matrix(system[k]) for k in ("A", "B", "C"))
    n = A.shape[0]
    Y, P = matrix(cert["Y"]), matrix(cert["P"])
    L = matrix(cert["L"]).reshape(-1, n)
    problems = []
    if np.linalg.norm(Y - Y.T) > 1e-12 * np.linalg.norm(Y):
        problems.append(f"{name}: Y is not symmetric")
    y_min = float(np.linalg.eigvalsh((Y + Y.T) / 2).min())
    if y_min <= 0:
        problems.append(f"{name}: Y is not positive definite (min eig {y_min:.3e})")
    lyap = A @ Y + Y @ A.T
    lyap_max = float(np.linalg.eigvalsh((lyap + lyap.T) / 2).max())
    if lyap_max > tol * max(1.0, np.linalg.norm(A, 2)):
        problems.append(f"{name}: AY + YA' has eigenvalue {lyap_max:.3e} > 0")
    coupling = float(np.linalg.norm(B + A @ Y @ C.T))
    if coupling > tol * max(1.0, np.linalg.norm(B)):
        problems.append(f"{name}: ||B + AYC'|| = {coupling:.3e}")
    factor = float(np.linalg.norm(L.T @ L + lyap))
    if factor > 1e-6 * max(1.0, np.linalg.norm(A, 2) * np.linalg.norm(Y, 2)):
        problems.append(f"{name}: ||L'L + AY + YA'|| = {factor:.3e}")
    if np.linalg.norm(P @ Y - np.eye(n)) > 1e-8 * np.linalg.cond(Y):
        problems.append(f"{name}: P is not the inverse of Y")
    if strict and not (cert.get("strict") is True
                       and (cert.get("rank_condition_min_sv") or 0.0) > tol):
        problems.append(f"{name}: strictness not established "
                        f"(rank-condition min sv {cert.get('rank_condition_min_sv')})")
    return problems


def loop_inputs(plant: dict, controller: dict) -> np.ndarray:
    """The map x -> [u1; u2] of the loop u1 = y2, u2 = y1."""
    C1, D1 = matrix(plant["C"]), matrix(plant["D"])
    C2, D2 = matrix(controller["C"]), matrix(controller["D"])
    m, n1, n2 = C1.shape[0], C1.shape[1], C2.shape[1]
    # [u1; u2] = [[0, D2], [D1, 0]] [u1; u2] + [[0, C2], [C1, 0]] x
    loop = np.block([[np.eye(m), -D2], [-D1, np.eye(m)]])
    out = np.block([[np.zeros((m, n1)), C2], [C1, np.zeros((m, n2))]])
    return np.linalg.solve(loop, out)


def closed_loop_matrix(plant: dict, controller: dict) -> np.ndarray:
    """A_cl of the positive-feedback loop, assembled from the loop equations."""
    drift = scipy.linalg.block_diag(matrix(plant["A"]), matrix(controller["A"]))
    inputs = scipy.linalg.block_diag(matrix(plant["B"]), matrix(controller["B"]))
    return drift + inputs @ loop_inputs(plant, controller)


def dc_product_lambda_max(plant: dict, controller: dict) -> float:
    gains = []
    for s in (plant, controller):
        A, B, C, D = (matrix(s[k]) for k in ("A", "B", "C", "D"))
        gains.append(D - C @ np.linalg.solve(A, B))
    return float(np.linalg.eigvals(gains[0] @ gains[1]).real.max())


def spectrum_problems(reported: list, own: np.ndarray, scale: float) -> list[str]:
    """Every own eigenvalue has a distinct reported eigenvalue next to it."""
    # a real eigenvalue is written as a number, a complex one as {"re", "im"}
    rep = [complex(e["re"], e["im"]) if isinstance(e, dict) else complex(e) for e in reported]
    if len(rep) != own.size:
        return [f"closed loop: {len(rep)} eigenvalues reported, {own.size} expected"]
    tol = 1e-7 * max(1.0, scale)
    left = list(rep)
    for lam in own:
        k = int(np.argmin([abs(lam - r) for r in left]))
        if abs(lam - left[k]) > tol:
            return [f"closed loop: eigenvalue {lam:.9g} not reported (nearest {left[k]:.9g})"]
        left.pop(k)
    return []


def analyze_problems(plant: dict, controller: dict, report: dict, exit_code: int,
                     tol: float) -> list[str]:
    """Verdict against the benchmark's own closed loop and DC-gain product."""
    A_cl = closed_loop_matrix(plant, controller)
    eigs = np.linalg.eigvals(A_cl)
    lam = dc_product_lambda_max(plant, controller)
    problems = []
    if abs(report["dc_gain"]["lambda_max"] - lam) > 1e-8 * max(1.0, abs(lam)):
        problems.append(f"dc gain: lambda_max {report['dc_gain']['lambda_max']!r}, "
                        f"recomputed {lam!r}")
    cl = report.get("closed_loop")
    if cl is None:
        return problems + ["closed loop: not reported"]
    problems += spectrum_problems(cl["eigenvalues"], eigs, float(np.linalg.norm(A_cl, 2)))
    stable = bool(eigs.real.max() < 0)
    if lam < 1:
        expected, violated, code = "InternallyStable", [], 0
        if not stable:
            problems.append(f"theory: lambda_max {lam:.6g} < 1 but A_cl has "
                            f"max Re {eigs.real.max():.6g}")
    else:
        expected, violated, code = "HypothesisViolated", ["dc_gain"], 1
        if stable:
            problems.append(f"theory: lambda_max {lam:.6g} > 1 but A_cl is Hurwitz")
    if report["verdict"] != expected or report["violated_hypotheses"] != violated:
        problems.append(f"verdict {report['verdict']} {report['violated_hypotheses']}, "
                        f"expected {expected} {violated}")
    if exit_code != code:
        problems.append(f"analyze exit code {exit_code}, expected {code}")
    problems += certificate_problems(plant, report["certificates"]["plant"], tol,
                                     name="plant certificate")
    problems += certificate_problems(controller, report["certificates"]["controller"], tol,
                                     strict=True, name="controller certificate")
    return problems


def storage_matrix(plant: dict, controller: dict, P1, P2) -> np.ndarray:
    C1, D1 = matrix(plant["C"]), matrix(plant["D"])
    C2, D2 = matrix(controller["C"]), matrix(controller["D"])
    return np.block([[matrix(P1) - C1.T @ D2 @ C1, -C1.T @ C2],
                     [-C2.T @ C1, matrix(P2) - C2.T @ D1 @ C2]])


def trace_problems(plant: dict, controller: dict, csv_path: str, x0: np.ndarray,
                   t_final: float, dt: float, certs: tuple[dict, dict],
                   stable: bool) -> list[str]:
    """Final state against expm(A_cl T) x0; for stable loops, V and the dissipation bound."""
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    n1 = matrix(plant["A"]).shape[0]
    n = x0.size
    steps = int(round(t_final / dt))
    if data.shape != (steps + 1, n + 3):
        return [f"trace: shape {data.shape}, expected {(steps + 1, n + 3)}"]
    t, X, V, yt2 = data[:, 0], data[:, 1:1 + n], data[:, 1 + n], data[:, 2 + n]
    problems = []
    if abs(t[-1] - steps * dt) > 1e-9 * t_final:
        problems.append(f"trace: final time {t[-1]!r}, expected {steps * dt!r}")
    A_cl = closed_loop_matrix(plant, controller)
    x_final = scipy.linalg.expm(A_cl * (steps * dt)) @ x0
    err = float(np.linalg.norm(X[-1] - x_final))
    if err > 1e-6 * max(1.0, float(np.linalg.norm(x_final))):
        problems.append(f"trace: final state off expm(A_cl T) x0 by {err:.3e}")
    # V and ytilde2 columns against the certificates, at both ends of the trace
    Q = storage_matrix(plant, controller, certs[0]["P"], certs[1]["P"])
    P2, L2 = matrix(certs[1]["P"]), matrix(certs[1]["L"]).reshape(-1, n - n1)
    C2 = matrix(controller["C"])
    u_of_x = loop_inputs(plant, controller)
    m = C2.shape[0]
    for k in (0, steps):
        x = X[k]
        v = float(x @ Q @ x)
        u2 = u_of_x[m:] @ x
        r = L2 @ (P2 @ x[n1:]) - L2 @ (C2.T @ u2)
        for col, own in (("V", v), ("ytilde2sq", float(r @ r))):
            got = V[k] if col == "V" else yt2[k]
            if abs(got - own) > 1e-8 * max(1.0, abs(own), float(x @ x) * np.linalg.norm(Q, 2)):
                problems.append(f"trace: {col} at step {k} is {got!r}, recomputed {own!r}")
    if stable:
        rise = float(np.diff(V).max())
        if rise > 1e-9 * max(1.0, abs(V[0])):
            problems.append(f"trace: V increases by {rise:.3e}")
        integral = float(simpson(yt2, x=t))
        if integral > V[0] + 1e-6 * max(1.0, abs(V[0])):
            problems.append(f"trace: dissipation integral {integral:.9g} exceeds V(0) {V[0]:.9g}")
    return problems
