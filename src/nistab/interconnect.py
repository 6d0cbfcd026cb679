"""Positive-feedback interconnection of an NI plant and an SNI controller.

The loop closes u1 = y2 and u2 = y1 with no sign inversion.  Under the
feedthrough hypothesis D1 @ D2 = 0 (both D's symmetric, so D2 @ D1 = 0 as
well) the closed-loop state matrix is

    A_cl = [[A1 + B1 D2 C1, B1 C2], [B2 C1, A2 + B2 D1 C2]]

and internal stability is decided by its spectrum.  ``check_hypotheses``
checks every stability hypothesis (plant NI, controller SNI, feedthrough
product, controller feedthrough PSD, DC-gain condition) and always reports
the closed-loop spectrum as ground truth, so hypothesis violations can be
compared against the actual behaviour.  ``analyze`` adds the frequency
sweeps of both systems to that result, as a cross-check that the verdict
does not read; ``simulate`` needs only the hypotheses and the closed loop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionError,
    FeedthroughError,
    NIStabError,
    NonRealSpectrumError,
)
from .linalg import DEFAULT_TOL, min_eig_sym
from .nicert import (
    FrequencyGrid,
    FrequencyReport,
    NICertificate,
    Verdict,
    freq_ni_test,
    freq_sni_test,
    frequency_response,
    lmi_ni_certificate,
    sni_rank_condition,
)
from .statespace import TOL_AXIS, TOL_POLE, StateSpace, dc_gain

#: Hurwitz band: eigenvalues with |Re| <= HURWITZ_TOL * max(1, ||A_cl||) are "on axis"
HURWITZ_TOL = 1e-8


class Stability(str, enum.Enum):
    INTERNALLY_STABLE = "InternallyStable"
    UNSTABLE = "Unstable"
    MARGINAL = "MarginallyStableOnAxis"
    HYPOTHESIS_VIOLATED = "HypothesisViolated"


@dataclass
class ClosedLoop:
    plant: StateSpace
    controller: StateSpace
    A_cl: np.ndarray
    eigenvalues: np.ndarray
    well_posed: bool
    dd_product_norm: float

    @property
    def n(self) -> int:
        return self.A_cl.shape[0]


@dataclass
class StabilityVerdict:
    verdict: Stability
    violated_hypotheses: list[str]
    margin: float


@dataclass
class LoopHypotheses:
    verdict: StabilityVerdict
    closed_loop: ClosedLoop | None
    hypotheses: dict
    lambda_max: float | None
    plant_certificate: NICertificate | None
    controller_certificate: NICertificate | None
    warnings: list[str]


@dataclass
class AnalysisResult(LoopHypotheses):
    plant_freq: FrequencyReport
    controller_freq: FrequencyReport


def _check_dims(plant: StateSpace, controller: StateSpace) -> None:
    if plant.m != controller.m:
        raise DimensionError(
            f"plant is {plant.m}x{plant.m} but controller is {controller.m}x{controller.m}"
        )


def _feedthrough_product(plant: StateSpace, controller: StateSpace,
                         tol: float) -> tuple[float, bool]:
    """||D1 @ D2|| and whether it is at most tol plus its rounding, 4 m eps ||D1||_2 ||D2||_2,
    so scaling D1 up and D2 down passes no nonzero product."""
    D1, D2 = plant.D, controller.D
    dd = float(np.linalg.norm(D1 @ D2, "fro"))
    rounding = 4 * plant.m * np.finfo(float).eps * np.linalg.norm(D1, 2) * np.linalg.norm(D2, 2)
    return dd, bool(dd <= tol + rounding)


def closed_loop(plant: StateSpace, controller: StateSpace,
                tol: float = DEFAULT_TOL,
                product: tuple[float, bool] | None = None) -> ClosedLoop:
    """Assemble the closed-loop matrix for the positive-feedback loop.

    Requires the feedthrough hypothesis ||D1 @ D2|| <= tol, under which the
    loop is automatically well posed and the block formula is exact.
    ``product`` is ``_feedthrough_product(plant, controller, tol)`` when the caller
    already holds it.
    """
    _check_dims(plant, controller)
    D1, D2 = plant.D, controller.D
    dd, holds = product or _feedthrough_product(plant, controller, tol)
    if not holds:
        raise FeedthroughError(
            f"||D1 @ D2|| = {dd:.3e} violates the zero feedthrough-product hypothesis"
        )
    A1, B1, C1 = plant.A, plant.B, plant.C
    A2, B2, C2 = controller.A, controller.B, controller.C
    A_cl = np.block([
        [A1 + B1 @ D2 @ C1, B1 @ C2],
        [B2 @ C1, A2 + B2 @ D1 @ C2],
    ])
    eigs = np.linalg.eigvals(A_cl)
    m = plant.m
    well_posed = bool(
        np.linalg.svd(np.eye(m) - D1 @ D2, compute_uv=False).min() > tol
    )
    return ClosedLoop(plant, controller, A_cl, eigs, well_posed, dd)


def dc_gain_condition(plant: StateSpace, controller: StateSpace,
                      tol: float = DEFAULT_TOL) -> tuple[float, bool]:
    """Largest (real) eigenvalue of G(0) H(0) and whether it is below 1.

    The maximum real part is used after asserting realness of the spectrum;
    eigenvalues far below 1 (including negative ones) satisfy the condition.
    """
    _check_dims(plant, controller)
    eigs = np.linalg.eigvals(dc_gain(plant, tol) @ dc_gain(controller, tol))
    radius = float(np.abs(eigs).max()) if eigs.size else 0.0
    if float(np.abs(eigs.imag).max()) > tol * max(1.0, radius):
        raise NonRealSpectrumError(
            "DC-gain product has complex eigenvalues "
            f"(max |Im| = {np.abs(eigs.imag).max():.3e}); inputs are unlikely to be NI"
        )
    lam_max = float(eigs.real.max())
    return lam_max, bool(lam_max < 1.0 - tol)


def check_hypotheses(plant: StateSpace, controller: StateSpace,
                     grid: FrequencyGrid | None = None,
                     tol: float = DEFAULT_TOL,
                     tol_axis: float = TOL_AXIS,
                     tol_pole: float = TOL_POLE,
                     hurwitz_tol: float = HURWITZ_TOL,
                     plant_hint: float | None = None,
                     controller_hint: float | None = None) -> LoopHypotheses:
    """Stability hypotheses and closed loop of the positive-feedback interconnection.

    Certifies the plant (NI) and controller (SNI: the rank condition of
    ``sni_rank_condition``, on all of (0, inf) from the crossings, confirmed under the
    resolvent guard ``tol_pole``, where they decide it, else on ``grid`` only), checks the
    feedthrough and DC-gain hypotheses, and computes the closed-loop spectrum.  The hints
    are handed to the two certificate searches as ``omega_hint``.  Nothing short-circuits:
    hypothesis violations are collected, and the spectrum is still reported when it is
    computable, so the prediction can be compared with the ground truth.
    """
    _check_dims(plant, controller)
    grid = grid or FrequencyGrid()
    notes: list[str] = []
    hypotheses: dict = {}
    violated: list[str] = []

    def record(name: str, ok: bool, detail: str) -> None:
        hypotheses[name] = {"satisfied": bool(ok), "detail": detail}
        if not ok:
            violated.append(name)

    plant_cert: NICertificate | None = None
    try:
        plant_cert = lmi_ni_certificate(plant, tol, plant_hint)
        record("plant_ni", plant_cert.certified,
               f"certificate verdict {plant_cert.verdict.value}")
    except NIStabError as exc:
        record("plant_ni", False, str(exc))

    controller_cert: NICertificate | None = None
    try:
        controller_cert = lmi_ni_certificate(controller, tol, controller_hint)
        if controller_cert.certified:
            sni_rank_condition(controller, controller_cert, grid, tol, tol_axis, tol_pole)
        ok = controller_cert.certified and controller_cert.strict
        record("controller_sni", ok,
               f"certificate verdict {controller_cert.verdict.value}, "
               f"rank-condition min sv {controller_cert.rank_condition_min_sv:.3e}")
    except NIStabError as exc:
        record("controller_sni", False, str(exc))

    product = _feedthrough_product(plant, controller, tol)
    record("feedthrough_product_zero", product[1], f"||D1 @ D2|| = {product[0]:.3e}")

    h_inf_min = min_eig_sym(controller.D)
    record("controller_feedthrough_psd", h_inf_min >= -tol,
           f"min eig H(inf) = {h_inf_min:.3e}")
    notes.append(
        "some statements of the interconnection stability result write the "
        "controller feedthrough hypothesis as N(inf) >= 0 with N undefined; "
        "this analysis implements H(inf) = D2 >= 0"
    )

    lam_max: float | None = None
    try:
        lam_max, holds = dc_gain_condition(plant, controller, tol)
        record("dc_gain", holds, f"lambda_max(G(0) H(0)) = {lam_max:.9g}")
    except NIStabError as exc:
        record("dc_gain", False, str(exc))

    cl: ClosedLoop | None = None
    margin = float("nan")
    spectrum_class = None
    try:
        cl = closed_loop(plant, controller, tol, product)
        band = hurwitz_tol * max(1.0, float(np.linalg.norm(cl.A_cl, 2)))
        max_re = float(cl.eigenvalues.real.max())
        margin = -max_re
        if max_re < -band:
            spectrum_class = Stability.INTERNALLY_STABLE
        elif max_re <= band:
            spectrum_class = Stability.MARGINAL
        else:
            spectrum_class = Stability.UNSTABLE
    except FeedthroughError:
        notes.append("closed-loop matrix not assembled: feedthrough hypothesis fails")

    verdict = (Stability.HYPOTHESIS_VIOLATED if violated or spectrum_class is None
               else spectrum_class)
    return LoopHypotheses(
        verdict=StabilityVerdict(verdict, violated, margin),
        closed_loop=cl,
        hypotheses=hypotheses,
        lambda_max=lam_max,
        plant_certificate=plant_cert,
        controller_certificate=controller_cert,
        warnings=notes,
    )


def analyze(plant: StateSpace, controller: StateSpace,
            grid: FrequencyGrid | None = None,
            tol: float = DEFAULT_TOL,
            tol_axis: float = TOL_AXIS,
            tol_pole: float = TOL_POLE,
            hurwitz_tol: float = HURWITZ_TOL) -> AnalysisResult:
    """``check_hypotheses`` plus the NI sweep of the plant and the SNI sweep
    of the controller; a plant sweep that contradicts a plant certificate is
    noted first among the warnings.  The sweeps run first, and a NotNI one
    hands its certificate search its worst point, as ``certify`` does."""
    _check_dims(plant, controller)
    grid = grid or FrequencyGrid()
    plant_freq = freq_ni_test(frequency_response(plant, grid, tol_axis, tol_pole), tol)
    controller_freq = freq_sni_test(frequency_response(controller, grid, tol_axis, tol_pole), tol)
    checked = check_hypotheses(plant, controller, grid, tol, tol_axis, tol_pole, hurwitz_tol,
                               plant_freq.omega_hint, controller_freq.omega_hint)
    pc = checked.plant_certificate
    if pc is not None and pc.certified and plant_freq.verdict is Verdict.NOT_NI:
        checked.warnings.insert(
            0, "frequency sweep disagrees with the plant certificate; inspect the report")
    return AnalysisResult(**vars(checked), plant_freq=plant_freq, controller_freq=controller_freq)
