"""Seeded property suites over randomly generated systems.

Each suite draws its own deterministic stream from the given seed, so a
failing case can be reproduced from the reported seed alone.  The suites
mirror the library's soundness claims:

* three certification routes agree on the NI verdict,
* positive definiteness of the block Gram matrix tracks the DC-gain bound,
* the two evaluations of the storage-function derivative coincide,
* interconnections passing all hypotheses have Hurwitz closed loops,
* interconnections violating only the DC-gain bound never do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .interconnect import Stability, check_hypotheses, closed_loop, dc_gain_condition
from .lyapunov import block_gram, gram_dc_equivalence, worst_derivative_residual
from .nicert import (
    CertStatus,
    FrequencyGrid,
    Verdict,
    freq_ni_test,
    frequency_response,
    lmi_ni_certificate,
    positive_real_check,
    random_ni_system,
)
from .statespace import StateSpace

#: smaller grid than the reporting default; property sweeps need volume
PROPERTY_GRID = FrequencyGrid(points=120)


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    inconclusive: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _perturbed_non_ni(seed: int, n: int, m: int) -> StateSpace:
    """A system expected to fail the NI tests: an NI draw with C negated.

    Negating C flips the sign of the strictly-proper part, so the imaginary
    part of the frequency response changes sign and the sweep goes negative.
    """
    sys, _ = random_ni_system(seed, n, m, strict=True)
    return StateSpace(sys.A, sys.B, -sys.C, sys.D, label=f"non-ni-{seed}")


def random_certified_pair(seed: int, lam_target: float,
                          n1: int = 3, n2: int = 3, m: int = 1):
    """An (NI plant, SNI controller) pair scaled to a DC-gain target.

    The plant is strictly proper (D1 = 0) so the feedthrough product vanishes;
    the controller feedthrough is PSD.  The controller's B and D are scaled by
    lam_target / lambda_max(G(0) H(0)), which scales H and hence the DC
    eigenvalues linearly, landing lambda_max at the requested value.
    """
    from .nicert import certificate_from_y, sni_rank_condition

    plant, pcert = random_ni_system(seed, n1, m, strict=False)
    ctrl0, ccert0 = random_ni_system(seed + 10_000, n2, m, strict=True,
                                     with_feedthrough=True)
    lam0, _ = dc_gain_condition(plant, ctrl0)
    alpha = lam_target / lam0
    ctrl = StateSpace(ctrl0.A, alpha * ctrl0.B, ctrl0.C, alpha * ctrl0.D,
                      label=ctrl0.label)
    # scaling B and D by alpha > 0 scales H(s), hence the feasible Y, by alpha
    ccert = certificate_from_y(ctrl, alpha * ccert0.Y)
    sni_rank_condition(ctrl, ccert, PROPERTY_GRID)
    return plant, pcert, ctrl, ccert


def suite_three_way_agreement(seed: int, cases: int,
                              grid: FrequencyGrid | None = None) -> SuiteResult:
    """freq sweep vs positive-real reduction vs certificate search."""
    grid = grid or FrequencyGrid()
    res = SuiteResult("three_way_agreement")
    rng = np.random.default_rng(seed)
    for k in range(cases):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, min(n, 3) + 1))
        sub_seed = int(rng.integers(0, 2**31))
        if k % 2 == 0:
            sys, _ = random_ni_system(sub_seed, n, m, strict=bool(rng.integers(0, 2)),
                                      with_feedthrough=bool(rng.integers(0, 2)))
        else:
            sys = _perturbed_non_ni(sub_seed, max(n, 2), m)
        resp = frequency_response(sys, grid)
        freq = freq_ni_test(resp).verdict
        pr = positive_real_check(resp).verdict
        cert = lmi_ni_certificate(sys)
        lmi = {CertStatus.CERTIFIED: Verdict.NI,
               CertStatus.INFEASIBLE: Verdict.NOT_NI,
               CertStatus.MAX_ITERATIONS: Verdict.INCONCLUSIVE}[cert.verdict]
        verdicts = {freq, pr, lmi}
        if Verdict.INCONCLUSIVE in verdicts:
            res.inconclusive += 1
            verdicts.discard(Verdict.INCONCLUSIVE)
        if len(verdicts) <= 1:
            res.passed += 1
        else:
            res.failed += 1
            res.failures.append(
                f"case {k} (seed {sub_seed}): freq={freq.value} pr={pr.value} lmi={lmi.value}"
            )
    return res


def suite_gram_dc_equivalence(seed: int, cases: int) -> SuiteResult:
    """min eig Q > 0 agrees with lambda_max(G(0)H(0)) < 1 off the boundary."""
    res = SuiteResult("gram_dc_equivalence")
    rng = np.random.default_rng(seed)
    for k in range(cases):
        lam = float(rng.uniform(0.2, 2.0))
        if abs(lam - 1.0) < 0.05:
            lam += 0.1
        sub_seed = int(rng.integers(0, 2**31))
        plant, pcert, ctrl, ccert = random_certified_pair(sub_seed, lam)
        rep = gram_dc_equivalence(plant, ctrl, pcert.P, ccert.P)
        if rep.borderline:
            res.inconclusive += 1
        elif rep.agree:
            res.passed += 1
        else:
            res.failed += 1
            res.failures.append(
                f"case {k} (seed {sub_seed}): min eig Q {rep.min_eig_Q:.3e} "
                f"vs lambda_max {rep.lambda_max:.6f}"
            )
    return res


def suite_derivative_identity(seed: int, cases: int, states_per_case: int = 50,
                              tol: float = 1e-7) -> SuiteResult:
    """x^T (A_cl^T Q + Q A_cl) x equals -||ytilde1||^2 - ||ytilde2||^2."""
    res = SuiteResult("derivative_identity")
    rng = np.random.default_rng(seed)
    for k in range(cases):
        sub_seed = int(rng.integers(0, 2**31))
        plant, pcert, ctrl, ccert = random_certified_pair(
            sub_seed, float(rng.uniform(0.3, 0.9)))
        lyap = block_gram(pcert.P, ccert.P, plant, ctrl)
        cl = closed_loop(plant, ctrl)
        scale_q = max(1.0, float(np.linalg.norm(lyap.Q, 2)), float(np.linalg.norm(cl.A_cl, 2)))
        X = rng.standard_normal((states_per_case, plant.n + ctrl.n))
        worst = worst_derivative_residual(cl, (pcert, ccert), lyap, X, scale_q)
        if worst <= tol:
            res.passed += 1
        else:
            res.failed += 1
            res.failures.append(f"case {k} (seed {sub_seed}): residual {worst:.3e}")
    return res


def suite_stable_soundness(seed: int, cases: int) -> SuiteResult:
    """Hypotheses all passing implies a Hurwitz closed loop, never the opposite."""
    res = SuiteResult("stable_soundness")
    rng = np.random.default_rng(seed)
    for k in range(cases):
        sub_seed = int(rng.integers(0, 2**31))
        plant, _, ctrl, _ = random_certified_pair(sub_seed, float(rng.uniform(0.2, 0.95)))
        outcome = check_hypotheses(plant, ctrl, grid=PROPERTY_GRID)
        max_re = float(outcome.closed_loop.eigenvalues.real.max())
        if outcome.verdict.verdict is Stability.INTERNALLY_STABLE and max_re >= 0:
            res.failed += 1
            res.failures.append(
                f"case {k} (seed {sub_seed}): declared stable, max Re eig {max_re:.3e}"
            )
        else:
            res.passed += 1
    return res


def suite_dc_necessity(seed: int, cases: int) -> SuiteResult:
    """lambda_max(G(0)H(0)) > 1 (others hypotheses intact) forces a non-Hurwitz loop."""
    res = SuiteResult("dc_necessity")
    rng = np.random.default_rng(seed)
    for k in range(cases):
        sub_seed = int(rng.integers(0, 2**31))
        lam = float(rng.uniform(1.05, 3.0))
        plant, _, ctrl, _ = random_certified_pair(sub_seed, lam)
        cl = closed_loop(plant, ctrl)
        max_re = float(cl.eigenvalues.real.max())
        if max_re >= -1e-10:
            res.passed += 1
        else:
            res.failed += 1
            res.failures.append(
                f"case {k} (seed {sub_seed}): lambda_max {lam:.3f} "
                f"but Hurwitz loop (max Re {max_re:.3e})"
            )
    return res


def run_all(seed: int, cases: int) -> list[SuiteResult]:
    return [
        suite_three_way_agreement(seed, cases),
        suite_gram_dc_equivalence(seed + 1, cases),
        suite_derivative_identity(seed + 2, max(1, cases // 2)),
        suite_stable_soundness(seed + 3, cases),
        suite_dc_necessity(seed + 4, cases),
    ]
