"""Seeded inputs for the benchmark, built without nistab.

Every NI draw follows the same construction: Y > 0, skew S and PSD W give
A = (S - W/2) Y^{-1}, so that A Y + Y A' = -W, and B = -A Y C' for a random
C.  Such a system is NI with certificate Y; with W > 0 and a Hurwitz A it is
SNI.  Minimality is checked here by the PBH test, so a later change to the
library's own generator cannot change a workload.
"""

from __future__ import annotations

import json

import numpy as np

# n cycles over 2..12 and m over 1..3 (m <= n), each size twice: once with
# D = 0 and once with a PSD feedthrough, so the cost mix is fixed per seed
SNI_SIZES = [(n, min(1 + (n % 3), n)) for n in range(2, 13)]

# lightly damped notch frequencies whose negative dip falls between points
# of the default 400-point log grid on [1e-3, 1e3]; on 57 the DR search runs
# to its iteration limit instead of its stall exit
NOTCH_OMEGAS = (3.3, 0.47, 12.9, 57.0)
NOTCH_ZETA = 1e-4


def _pbh_margin(A, B, C):
    """Smallest PBH singular value over the eigenvalues of A, relative to ||A||."""
    n = A.shape[0]
    worst = np.inf
    for lam in np.linalg.eigvals(A):
        shifted = A - lam * np.eye(n)
        sv_c = np.linalg.svd(np.hstack([shifted, B]), compute_uv=False)[-1]
        sv_o = np.linalg.svd(np.vstack([shifted, C]), compute_uv=False)[-1]
        worst = min(worst, sv_c, sv_o)
    return worst / max(1.0, np.linalg.norm(A, 2))


def ni_draw(rng: np.random.Generator, n: int, m: int, strict: bool,
            psd_feedthrough: bool) -> dict:
    """One NI (strict: SNI) system with its construction data Y and W."""
    while True:
        Qm, _ = np.linalg.qr(rng.standard_normal((n, n)))
        Y = Qm @ np.diag(rng.uniform(0.5, 2.0, n)) @ Qm.T
        T = rng.standard_normal((n, n))
        S = (T - T.T) / 2
        F = rng.standard_normal((n, n)) / np.sqrt(n)
        W = F @ F.T + (0.1 * np.eye(n) if strict else 0.0)
        A = (S - W / 2) @ np.linalg.inv(Y)
        C = rng.standard_normal((m, n))
        B = -A @ Y @ C.T
        if psd_feedthrough:
            R = 0.3 * rng.standard_normal((m, m))
            D = R @ R.T
        else:
            D = np.zeros((m, m))
        norm_a = np.linalg.norm(A, 2)
        if np.linalg.svd(A, compute_uv=False)[-1] <= 1e-3 * max(1.0, norm_a):
            continue
        if strict and np.linalg.eigvals(A).real.max() >= -1e-3:
            continue
        if _pbh_margin(A, B, C) <= 1e-4:
            continue
        # a nearly rank-deficient C pushes the SNI margin at the ends of the
        # default grid into nistab's +/-tol band, where the sweep is Inconclusive
        if np.linalg.cond(C) > 20:
            continue
        return {"A": A, "B": B, "C": C, "D": D, "Y": Y, "W": W}


def notch_system(omega: float, zeta: float = NOTCH_ZETA) -> dict:
    """G(s) = 1/(s+1) - k s/(s^2 + 2 zeta omega s + omega^2), not NI.

    k puts the dip of j(G - G*) near omega at about -1, for every omega,
    while the dip is only about zeta*omega wide.
    """
    first_order = 2 * omega / (1 + omega ** 2)
    k = (first_order + 1.0) * 2 * zeta * omega
    A = np.array([[-1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0],
                  [0.0, -omega ** 2, -2 * zeta * omega]])
    B = np.array([[1.0], [0.0], [1.0]])
    C = np.array([[1.0, 0.0, -k]])
    D = np.zeros((1, 1))
    return {"A": A, "B": B, "C": C, "D": D}


def negated(system: dict) -> dict:
    """-G: the output map and feedthrough change sign, so G is no longer NI."""
    return {"A": system["A"], "B": system["B"], "C": -system["C"], "D": -system["D"]}


def scaled(system: dict, alpha: float) -> dict:
    """alpha * G for alpha > 0 (NI is kept, with certificate alpha * Y)."""
    return {"A": system["A"], "B": alpha * system["B"], "C": system["C"],
            "D": alpha * system["D"]}


def dc_gain(system: dict) -> np.ndarray:
    return system["D"] - system["C"] @ np.linalg.solve(system["A"], system["B"])


def write_system_file(path: str, systems: dict[str, dict]) -> None:
    """Schema-version-1 system file with the given named systems."""
    payload = {
        "schema_version": "1",
        "systems": {
            name: {key: np.asarray(s[key]).tolist() for key in ("A", "B", "C", "D")}
            for name, s in systems.items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
