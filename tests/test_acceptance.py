"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from nistab import (
    StateSpace,
    Stability,
    analyze,
    closed_loop,
    dissipation_integral_check,
    lmi_ni_certificate,
    residue_at_pole,
    simulate,
    v_monotone,
)
from nistab.cli import main
from nistab.selftest import (
    random_certified_pair,
    suite_derivative_identity,
    suite_gram_dc_equivalence,
    suite_three_way_agreement,
)

OSC = StateSpace([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]],
                 label="plant")
CTRL_HALF = StateSpace([[-1.0]], [[1.0]], [[0.5]], [[0.0]], label="controller")
CTRL_TWO = StateSpace([[-1.0]], [[1.0]], [[2.0]], [[0.0]], label="controller")
FIRST_ORDER = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]], label="first-order")
S_OVER_S2 = StateSpace([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[0.0, 1.0]], [[0.0]])


@contextmanager
def criterion(num, description, limit_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < limit_s else "FAIL (runtime)"
    print(f"ACCEPTANCE {num}: {status} - {description} [{elapsed:.2f}s]")
    assert elapsed < limit_s, f"runtime {elapsed:.2f}s exceeds {limit_s}s"


def test_criterion_1_hand_solvable_certificates():
    with criterion(1, "hand-solvable certificates P=1 and P=I2", 1.0):
        for sys, expected in ((FIRST_ORDER, np.array([[1.0]])), (OSC, np.eye(2))):
            cert = lmi_ni_certificate(sys)
            assert cert.certified
            assert np.abs(cert.P - expected).max() <= 1e-6
            assert cert.lyap_residual >= -1e-8
            assert cert.coupling_residual <= 1e-8
            assert cert.factor_residual <= 1e-8


def test_criterion_2_worked_stable_interconnection():
    with criterion(2, "G=1/(s^2+1), H=0.5/(s+1) internally stable", 1.0):
        result = analyze(OSC, CTRL_HALF)
        assert result.verdict.verdict is Stability.INTERNALLY_STABLE
        # char poly s^3 + s^2 + s + 0.5; Routh column (1, 1, 0.5, 0.5) positive
        a, b, c = 1.0, 1.0, 0.5
        routh = [1.0, a, (a * b - c) / a, c]
        assert all(r > 0 for r in routh)
        expected = np.sort_complex(np.roots([1.0, a, b, c]))
        got = np.sort_complex(result.closed_loop.eigenvalues)
        assert np.abs(got - expected).max() <= 1e-8


def test_criterion_3_necessity_probe():
    with criterion(3, "H=2/(s+1) violates DC gain and destabilizes", 1.0):
        result = analyze(OSC, CTRL_TWO)
        assert result.verdict.verdict is Stability.HYPOTHESIS_VIOLATED
        assert "dc_gain" in result.verdict.violated_hypotheses
        expected = np.sort_complex(np.roots([1.0, 1.0, 1.0, -1.0]))
        got = np.sort_complex(result.closed_loop.eigenvalues)
        assert np.abs(got - expected).max() <= 1e-8
        assert got.real.max() > 0


def test_criterion_4_gram_dc_equivalence():
    with criterion(4, "block Gram PD iff DC gain below 1 (200 pairs)", 30.0):
        res = suite_gram_dc_equivalence(seed=2024, cases=200)
        assert res.failed == 0, res.failures


def test_criterion_5_derivative_identity():
    with criterion(5, "derivative identity over 20 x 1000 random states", 30.0):
        res = suite_derivative_identity(seed=2025, cases=20, states_per_case=1000,
                                        tol=1e-7)
        assert res.failed == 0, res.failures


def test_criterion_6_dissipation_bound():
    with criterion(6, "dissipation integral bounded by V(0), V monotone", 30.0):
        cases = [(OSC, CTRL_HALF, np.array([1.0, 0.0, 0.0]))]
        for seed in (11, 12):
            plant, _, ctrl, _ = random_certified_pair(seed, 0.6)
            rng = np.random.default_rng(seed)
            cases.append((plant, ctrl, rng.standard_normal(plant.n + ctrl.n)))
        for plant, ctrl, x0 in cases:
            t0 = time.perf_counter()
            pcert = lmi_ni_certificate(plant)
            ccert = lmi_ni_certificate(ctrl)
            assert pcert.certified and ccert.certified
            cl = closed_loop(plant, ctrl)
            assert cl.eigenvalues.real.max() < 0
            trace = simulate(cl, x0, t_final=50.0, dt=1e-2, certs=(pcert, ccert))
            rep = dissipation_integral_check(trace, tol_int=1e-6)
            assert rep.passed, f"integral {rep.integral} vs V(0) {rep.v0}"
            mono, worst = v_monotone(trace, tol=1e-8)
            assert mono, f"V increased by {worst}"
            assert time.perf_counter() - t0 < 10.0


def test_criterion_7_three_way_agreement():
    with criterion(7, "three certifier routes agree on 200 systems", 60.0):
        res = suite_three_way_agreement(seed=2026, cases=200)
        assert res.failed == 0, res.failures
        assert res.inconclusive < 0.05 * 200


def test_criterion_8_residue_oracle():
    with criterion(8, "residue 0.5 at the axis pole, oracle-matched", 1.0):
        rep = residue_at_pole(OSC, 1.0)
        assert np.abs(rep.K0 - 0.5).max() <= 1e-8
        vals = {}
        for eps in (1e-4, 1e-5):
            s = 1j + eps
            G = OSC.C @ np.linalg.solve(s * np.eye(OSC.n) - OSC.A, OSC.B) + OSC.D
            vals[eps] = (eps * s * G)[0, 0]
        richardson = (10.0 * vals[1e-5] - vals[1e-4]) / 9.0
        assert abs(rep.K0[0, 0] - richardson) <= 1e-5 * max(1.0, abs(richardson))
        bad = residue_at_pole(S_OVER_S2, 1.0)
        assert not bad.accepted()  # K0 = j/2 is not Hermitian


def test_criterion_9_report_determinism(tmp_path, capsys):
    with criterion(9, "byte-identical reports, certificates re-validate", 30.0):
        path = tmp_path / "systems.json"
        path.write_text(json.dumps({
            "schema_version": "1",
            "systems": {
                "plant": {"A": [[0, 1], [-1, 0]], "B": [[0], [1]],
                          "C": [[1, 0]], "D": [[0]]},
                "ctrl": {"A": [[-1]], "B": [[1]], "C": [[0.5]], "D": [[0]]},
            },
        }))
        outputs = []
        for _ in range(2):
            assert main(["analyze", str(path), "plant", "ctrl"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        for role, name in (("plant", "plant"), ("controller", "ctrl")):
            cert = report["certificates"][role]
            sysd = report["systems"][name]
            A = np.array(sysd["A"], dtype=float)
            B = np.array(sysd["B"], dtype=float)
            C = np.array(sysd["C"], dtype=float)
            Y = np.array(cert["Y"], dtype=float)
            L = np.array(cert["L"], dtype=float).reshape(-1, A.shape[0])
            assert abs(float(np.linalg.eigvalsh(-(A @ Y + Y @ A.T)).min())
                       - cert["lyap_residual"]) <= 1e-12
            assert abs(float(np.linalg.norm(B + A @ Y @ C.T, "fro"))
                       - cert["coupling_residual"]) <= 1e-12
            assert abs(float(np.linalg.norm(L.T @ L + A @ Y + Y @ A.T, "fro"))
                       - cert["factor_residual"]) <= 1e-12
