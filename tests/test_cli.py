"""CLI: file parsing, exit codes, report determinism, offline re-validation."""

import enum
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_nicert import recheck_frequency_witness

from nistab import (CertStatus, FrequencyResponse, Stability, StateSpace, Verdict,
                    random_ni_system)
from nistab.cli import dumps_canonical, main

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_SYSTEMS = GOLDEN / "systems.json"
DR_EXITS = GOLDEN / "dr_exits.json"

SYSTEMS = {
    "schema_version": "1",
    "systems": {
        "osc": {
            "A": [[0, 1], [-1, 0]], "B": [[0], [1]], "C": [[1, 0]], "D": [[0]],
            "label": "lossless plant",
        },
        "ctrl_half": {"A": [[-1]], "B": [[1]], "C": [[0.5]], "D": [[0]]},
        "ctrl_two": {"A": [[-1]], "B": [[1]], "C": [[2]], "D": [[0]]},
        "first_order": {"A": [[-1]], "B": [[1]], "C": [[1]], "D": [[0]]},
        "s_over": {"A": [[-1]], "B": [[1]], "C": [[-1]], "D": [[1]]},
        # NI with poles at +-j and a dissipative mode: the pencil has full rank
        # on the grid, but the system is not SNI
        "mixed": {"A": [[0, 1, 0], [-1, 0, 0], [0, 0, -1]], "B": [[0], [1], [1]],
                  "C": [[1, 0, 1]], "D": [[0]]},
        "small": {"A": [[-1]], "B": [[1]], "C": [[0.1]], "D": [[0]]},
        # lightly damped: the poles -0.001 +/- j lie inside a 1e-2 axis band
        "damped": {"A": [[-0.001, 1], [-1, -0.001]], "B": [[0], [1]], "C": [[1, 0]],
                   "D": [[0]]},
        # I2/(s^2 + 1), two copies of one oscillator, and a Jordan pair at +/-j
        # driven through its chain: the double eigenvalue j of A is a simple pole
        # of G in the first two only
        "osc_mimo": {"A": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
                     "B": [[0, 0], [1, 0], [0, 0], [0, 1]], "C": [[1, 0, 0, 0], [0, 0, 1, 0]],
                     "D": [[0, 0], [0, 0]]},
        "osc_twice": {"A": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
                      "B": [[0], [1], [0], [1]], "C": [[1, 0, 1, 0]], "D": [[0]]},
        "jordan": {"A": [[0, 1, 1, 0], [-1, 0, 0, 1], [0, 0, 0, 1], [0, 0, -1, 0]],
                   "B": [[0], [0], [0], [1]], "C": [[1, 0, 0, 0]], "D": [[0]]},
        "ctrl_half_mimo": {"A": [[-1, 0], [0, -1]], "B": [[1, 0], [0, 1]],
                           "C": [[0.5, 0], [0, 0.5]], "D": [[0, 0], [0, 0]]},
    },
}


@pytest.fixture
def system_file(tmp_path):
    path = tmp_path / "systems.json"
    path.write_text(json.dumps(SYSTEMS))
    return str(path)


class TestCertify:
    def test_first_order_ni(self, system_file, capsys):
        code = main(["certify", system_file, "first_order"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["certified"] is True
        assert report["results"]["frequency_ni"]["verdict"] == "NI"
        assert report["results"]["positive_real"]["verdict"] == "NI"
        np.testing.assert_allclose(report["results"]["lmi"]["P"], [[1.0]], atol=1e-8)

    def test_s_over_rejected(self, system_file, capsys):
        code = main(["certify", system_file, "s_over"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["certified"] is False
        assert report["results"]["frequency_ni"]["verdict"] == "NotNI"
        assert report["results"]["frequency_ni"]["worst_point"]["min_eig"] < 0

    def test_sni_property(self, system_file, capsys):
        code = main(["certify", system_file, "ctrl_half", "--property", "sni"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["results"]["lmi"]["strict"] is True
        assert report["results"]["frequency_sni"]["verdict"] == "SNI"
        assert report["results"]["w_transfer_zeros"]["passed"] is True

    def test_sni_certify_takes_one_spectrum(self, linalg_calls, capsys):
        # every route of the run reads the cached eigendecomposition of A, and
        # the crossing frequencies the cached spectrum of one Hamiltonian; the
        # other eig is the certificate's, of that Hamiltonian's transpose
        code = main(["certify", str(GOLDEN_SYSTEMS), "ctrl_half", "--property", "sni"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["certified"] is True
        assert (linalg_calls["eig"], linalg_calls["eigvals"]) == (2, 1)

    def test_sni_certify_classifies_the_poles_once(self, monkeypatch, capsys):
        # frequency_response and sni_rank_condition read one cached pole_classes: its
        # body, which takes one np.diff, runs once
        callers = []
        real = np.diff

        def counted(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "diff", counted)
        assert main(["certify", str(GOLDEN_SYSTEMS), "ctrl_half", "--property", "sni"]) == 0
        capsys.readouterr()
        assert callers.count("pole_classes") == 1

    def test_sni_certify_solves_the_resolvent_once(self, linalg_calls, capsys):
        # the sweep sums over the poles from one solve V^-1 B, and the W(jw) zero check,
        # strict from the crossings, solves the resolvent at its first point only; the
        # other solves are the certificate's X2 X1^-1 and the crossing Hamiltonian's
        # R^-1 [CA, B'] (no crossing, and the grid shows the one interval positive, so no
        # point is evaluated there).  The sweeps of a 1 x 1 G read their minima without
        # eigvalsh; the one eigvalsh is the certificate's Certified test, and its W takes
        # one eigh
        code = main(["certify", str(GOLDEN_SYSTEMS), "ctrl_half", "--property", "sni"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["certified"] is True
        counts = linalg_calls["solve"], linalg_calls["slogdet"], linalg_calls["eigvalsh"]
        assert counts == (4, 0, 1)

    @pytest.mark.parametrize("argv, guard_svds", [
        (["rand6", "--property", "sni"], False),
        (["rand6", "--property", "sni", "--tol-pole", "0.3"], True),
    ])
    def test_resolvent_guard_svd_only_where_unclear(self, argv, guard_svds, capsys,
                                                     monkeypatch):
        # rand6 is well conditioned, and the Bauer-Fike bound clears every point of
        # every evaluation; the wide guard leaves some points to the SVD
        import nistab.statespace

        callers = []
        real = nistab.statespace.min_singular_value

        def counted(M):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(M)

        monkeypatch.setattr(nistab.statespace, "min_singular_value", counted)
        main(["certify", str(GOLDEN_SYSTEMS), *argv])
        capsys.readouterr()
        assert ("resolvent_guard" in callers) is guard_svds
        assert "is_minimal" in callers

    def test_oscillator_not_sni(self, system_file, capsys):
        code = main(["certify", system_file, "osc", "--property", "sni"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["results"]["lmi"]["verdict"] == "Certified"
        assert report["results"]["lmi"]["strict"] is False

    def test_freq_csv(self, system_file, tmp_path, capsys):
        csv_path = tmp_path / "curve.csv"
        main(["certify", system_file, "first_order", "--freq-csv", str(csv_path),
              "--points", "10"])
        capsys.readouterr()
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "omega,min_eig,status"
        assert len(lines) == 11

    def test_missing_system(self, system_file, capsys):
        assert main(["certify", system_file, "nope"]) == 3

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": "1", "systems": {')
        assert main(["certify", str(bad), "x"]) == 2
        assert "byte offset" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["certify", str(tmp_path / "none.json"), "x"]) == 2

    def test_bad_schema(self, tmp_path, capsys):
        p = tmp_path / "v2.json"
        p.write_text('{"schema_version": "2", "systems": {}}')
        assert main(["certify", str(p), "x"]) == 2

    @pytest.mark.parametrize("text", ['{"schema_version": "1", "systems": [1]}',
                                      '{"schema_version": "1", "systems": {"g": 5}}',
                                      '{"schema_version": "1", "systems": {"g": {"A": {"x": 1},'
                                      ' "B": [[1]], "C": [[1]], "D": [[0]]}}}'])
    def test_systems_not_an_object(self, tmp_path, capsys, text):
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert main(["certify", str(p), "g"]) == 2
        assert capsys.readouterr().err.startswith("error: invalid system file: ")

    def test_dimension_error_in_file(self, tmp_path, capsys):
        p = tmp_path / "dims.json"
        p.write_text(json.dumps({
            "schema_version": "1",
            "systems": {"bad": {"A": [[0, 1]], "B": [[1]], "C": [[1]], "D": [[0]]}},
        }))
        assert main(["certify", str(p), "bad"]) == 3


def _write_systems(path, **systems):
    path.write_text(json.dumps({"schema_version": "1", "systems": {
        name: {k: getattr(sys, k).tolist() for k in "ABCD"} for name, sys in systems.items()
    }}))
    return str(path)


@pytest.fixture
def random_file(tmp_path):
    plant, _ = random_ni_system(3, 5, 2, strict=True)
    ctrl, _ = random_ni_system(4, 3, 2, strict=True)
    return _write_systems(tmp_path / "random.json", plant=plant, ctrl=ctrl)


class TestAxisPolesAreNotStrict:
    def test_certify_sni_rejects(self, system_file, capsys):
        code = main(["certify", system_file, "mixed", "--property", "sni"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["certified"] is False
        assert report["results"]["lmi"]["strict"] is False
        assert report["results"]["frequency_sni"]["verdict"] == "NotNI"

    def test_analyze_violates_controller_sni(self, system_file, capsys):
        code = main(["analyze", system_file, "small", "mixed"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["verdict"] == "HypothesisViolated"
        assert report["violated_hypotheses"] == ["controller_sni"]


class TestRepeatedAxisPoles:
    # osc_twice has four states for a second-order G, and certify says so
    @pytest.mark.parametrize("name", ["osc_mimo", "osc_twice"])
    def test_semisimple_double_eigenvalue_is_ni(self, system_file, name, capsys):
        code = main(["certify", system_file, name, "--property", "ni"])
        res = json.loads(capsys.readouterr().out)["results"]
        assert code == 0
        assert [res[k]["verdict"] for k in ("frequency_ni", "positive_real", "lmi")] \
            == ["NI", "NI", "Certified"]
        for route in ("frequency_ni", "positive_real"):
            [finding] = res[route]["pole_findings"]
            assert finding["is_simple"] and finding["min_eig"] > 0
            assert not [w for w in res[route]["warnings"] if w.startswith("pole at")]

    def test_non_minimal_realization_is_a_report_note_only(self, system_file, tmp_path,
                                                          capsys):
        # osc_twice, and zero B and C (G = D = 0): NI, with the note in the report and
        # no Python warning
        zero = _write_systems(tmp_path / "z.json",
                              z=StateSpace([[-1.0]], [[0.0]], [[0.0]], [[0.0]]))
        for path, name in ((system_file, "osc_twice"), (zero, "z")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["certify", path, name])
            res = json.loads(capsys.readouterr().out)["results"]
            assert code == 0
            assert res["frequency_ni"]["verdict"] == "NI"
            assert "realization is not minimal; pole-based conditions may be spurious" \
                in res["frequency_ni"]["warnings"]

    def test_jordan_pair_is_not_ni(self, system_file, capsys):
        code = main(["certify", system_file, "jordan", "--property", "ni"])
        res = json.loads(capsys.readouterr().out)["results"]
        assert code == 1
        for route in ("frequency_ni", "positive_real"):
            assert res[route]["verdict"] == "NotNI" and res[route]["pole_findings"] == []

    def test_analyze_agrees_with_the_plant_certificate(self, system_file, capsys):
        code = main(["analyze", system_file, "osc_mimo", "ctrl_half_mimo"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["verdict"] == "InternallyStable"
        assert report["frequency"]["plant_ni"]["verdict"] == "NI"
        assert not [w for w in report["warnings"] if "disagrees" in w]


class TestCrossingWitness:
    """The notch dips fall between grid points; the crossing points find them."""

    @pytest.mark.parametrize("name", ["notch3", "notch57"])
    def test_sni_certify_ends_dr_at_the_crossing_witness(self, name, capsys):
        code = main(["certify", str(DR_EXITS), name, "--property", "sni"])
        report = json.loads(capsys.readouterr().out)
        res = report["results"]
        assert code == 1 and report["certified"] is False
        assert [res[k]["verdict"] for k in ("frequency_ni", "positive_real", "frequency_sni")] \
            == ["NotNI"] * 3
        lmi = res["lmi"]
        assert (lmi["verdict"], lmi["iterations"], lmi["Y"]) == ("Infeasible", 0, None)
        witness = np.array(lmi["infeasibility_witness"])
        assert witness.shape == (3,)
        assert witness[0] == res["frequency_ni"]["worst_point"]["omega"]
        s = report["systems"][name]
        lam, bound = recheck_frequency_witness(StateSpace(s["A"], s["B"], s["C"], s["D"]),
                                               witness)
        assert lam < -bound

    def test_analyze_ends_both_searches_at_the_crossing_witness(self, capsys):
        # unhinted, both searches run to their 5,000-iteration limit
        code = main(["analyze", str(DR_EXITS), "notch57", "notch3"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1 and report["verdict"] == "HypothesisViolated"
        for role, name, sweep in (("plant", "notch57", "plant_ni"),
                                  ("controller", "notch3", "controller_sni")):
            cert = report["certificates"][role]
            assert (cert["verdict"], cert["iterations"], cert["Y"]) == ("Infeasible", 0, None)
            witness = np.array(cert["infeasibility_witness"])
            assert witness[0] == report["frequency"][sweep]["worst_point"]["omega"]
            s = report["systems"][name]
            lam, bound = recheck_frequency_witness(StateSpace(s["A"], s["B"], s["C"], s["D"]),
                                                   witness)
            assert lam < -bound

    # singular R = CB + B'C' (osc, and a notch next to a relative-degree-two
    # channel) or poles on the axis (mixed): no crossing point, the grid decides alone
    @pytest.mark.parametrize("name", ["osc", "mixed", "notch_and_lag2"])
    def test_undecided_systems_keep_the_grid_report(self, name, tmp_path, monkeypatch,
                                                    capsys):
        notch = json.loads(DR_EXITS.read_text())["systems"]["notch3"]
        systems = dict(SYSTEMS["systems"])
        A = np.zeros((5, 5))
        A[:3, :3], A[3:, 3:] = notch["A"], [[0.0, 1.0], [-1.0, -1.0]]
        B, C = np.zeros((5, 2)), np.zeros((2, 5))
        B[:3, 0], B[4, 1], C[0, :3], C[1, 3] = np.ravel(notch["B"]), 1.0, notch["C"][0], 1.0
        systems["notch_and_lag2"] = {"A": A.tolist(), "B": B.tolist(), "C": C.tolist(),
                                     "D": np.zeros((2, 2)).tolist()}
        path = tmp_path / "systems.json"
        path.write_text(json.dumps({"schema_version": "1", "systems": systems}))
        argv = ["certify", str(path), name, "--property", "sni"]
        code = main(argv)
        report = capsys.readouterr().out
        monkeypatch.setattr(FrequencyResponse, "crossing_minimum", property(lambda self: None))
        assert (main(argv), capsys.readouterr().out) == (code, report)
        if name == "notch_and_lag2":  # the grid still misses the dip of the notch channel
            assert json.loads(report)["results"]["frequency_ni"]["verdict"] == "NI"


class TestTolerancesReachTheRoutes:
    def test_tol_reaches_certificate_search(self, tmp_path, capsys):
        # 1/(s^2 + s + 1): R = CB + B'C' = 0, so the Riccati route declines and DR
        # decides, in a number of iterations that moves with --tol
        lag2 = StateSpace([[0.0, 1.0], [-1.0, -1.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        path = _write_systems(tmp_path / "lag2.json", plant=lag2)
        iterations = {}
        for tol in ("1e-2", "1e-8"):
            main(["certify", path, "plant", "--tol", tol])
            iterations[tol] = json.loads(capsys.readouterr().out)["results"]["lmi"]["iterations"]
        assert iterations == {"1e-2": 7, "1e-8": 48}

    def test_tol_pole_reaches_analyze(self, random_file, capsys):
        main(["certify", random_file, "plant", "--tol-pole", "0.3"])
        certify = json.loads(capsys.readouterr().out)["results"]["frequency_ni"]
        main(["analyze", random_file, "plant", "ctrl", "--tol-pole", "0.3"])
        analyze = json.loads(capsys.readouterr().out)["frequency"]["plant_ni"]
        assert certify["points_ill_conditioned"] > 0
        assert analyze["points_ill_conditioned"] == certify["points_ill_conditioned"]

    @pytest.mark.parametrize("flags, strict", [([], True), (["--tol-pole", "0.5"], False)])
    def test_tol_pole_reaches_the_rank_condition(self, tmp_path, capsys, flags, strict):
        # one crossing, at w = 7.7e-5, where the wide guard trips: the SNI sweep and the
        # rank condition confirm it under the same guard
        g, _ = random_ni_system(2, 3, 3)
        sys_ = StateSpace(g.A, 1e3 * g.B, g.C, 1e3 * g.D)
        assert sys_.crossings.size == 1
        small = StateSpace(-np.eye(3), 1e-6 * np.eye(3), np.eye(3), np.zeros((3, 3)))
        path = _write_systems(tmp_path / "g.json", g=sys_, small=small)
        code = main(["certify", path, "g", "--property", "sni", *flags])
        results = json.loads(capsys.readouterr().out)["results"]
        assert code == (0 if strict else 1)
        assert (results["frequency_sni"]["verdict"] == "SNI") is strict
        assert results["lmi"]["strict"] is strict
        main(["analyze", path, "small", "g", *flags])
        hypotheses = json.loads(capsys.readouterr().out)["hypotheses"]
        assert hypotheses["controller_sni"]["satisfied"] is strict
        main(["simulate", path, "small", "g", "--t-final", "0.02", *flags])
        violated = "hypothesis controller_sni violated" in capsys.readouterr().err
        assert violated is not strict


    def test_tol_axis_reaches_certify_strictness(self, system_file, capsys):
        assert main(["certify", system_file, "damped", "--property", "sni"]) == 0
        capsys.readouterr()
        code = main(["certify", system_file, "damped", "--property", "sni",
                     "--tol-axis", "1e-2"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["results"]["frequency_sni"]["verdict"] == "NotNI"
        assert report["results"]["lmi"]["verdict"] == "Certified"
        assert report["results"]["lmi"]["strict"] is False

    def test_tol_axis_reaches_analyze_strictness(self, system_file, capsys):
        code = main(["analyze", system_file, "small", "damped", "--tol-axis", "1e-2"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["violated_hypotheses"] == ["controller_sni"]

    def test_tol_reaches_the_derivative_probes(self, tmp_path, capsys):
        # ||D1 D2|| = 1e-6 passes the feedthrough hypothesis at --tol 1e-5, not at 1e-8
        path = tmp_path / "dd.json"
        path.write_text(json.dumps({"schema_version": "1", "systems": {
            "plant": {"A": [[-1]], "B": [[1]], "C": [[1]], "D": [[1e-3]]},
            "ctrl": {"A": [[-1]], "B": [[1]], "C": [[0.5]], "D": [[1e-3]]},
        }}))
        code = main(["analyze", str(path), "plant", "ctrl", "--tol", "1e-5"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["verdict"] == "InternallyStable"
        assert isinstance(report["lyapunov"]["derivative_identity_residual"], float)


class TestAnalyze:
    def test_stable_pair(self, system_file, capsys):
        code = main(["analyze", system_file, "osc", "ctrl_half"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["verdict"] == "InternallyStable"
        assert report["dc_gain"]["lambda_max"] == pytest.approx(0.5)
        assert report["closed_loop"]["max_real_part"] < 0
        assert report["lyapunov"]["min_eig_Q"] > 0
        assert report["lyapunov"]["derivative_identity_residual"] < 1e-7

    def test_unstable_pair(self, system_file, capsys):
        code = main(["analyze", system_file, "osc", "ctrl_two"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["verdict"] == "HypothesisViolated"
        assert "dc_gain" in report["violated_hypotheses"]
        assert report["closed_loop"]["max_real_part"] > 0

    def test_byte_identical_reports(self, system_file, capsys):
        main(["analyze", system_file, "osc", "ctrl_half"])
        first = capsys.readouterr().out
        main(["analyze", system_file, "osc", "ctrl_half"])
        second = capsys.readouterr().out
        assert first == second

    def test_certificates_revalidate_offline(self, system_file, capsys):
        main(["analyze", system_file, "osc", "ctrl_half"])
        report = json.loads(capsys.readouterr().out)
        for name in ("osc", "ctrl_half"):
            sysd = report["systems"][name]
            A = np.array(sysd["A"], dtype=float)
            B = np.array(sysd["B"], dtype=float)
            C = np.array(sysd["C"], dtype=float)
            role = "plant" if name == "osc" else "controller"
            cert = report["certificates"][role]
            Y = np.array(cert["Y"], dtype=float)
            L = np.array(cert["L"], dtype=float).reshape(-1, A.shape[0])
            lyap = float(np.linalg.eigvalsh(-(A @ Y + Y @ A.T)).min())
            coup = float(np.linalg.norm(B + A @ Y @ C.T, "fro"))
            fact = float(np.linalg.norm(L.T @ L + A @ Y + Y @ A.T, "fro"))
            assert abs(lyap - cert["lyap_residual"]) <= 1e-12
            assert abs(coup - cert["coupling_residual"]) <= 1e-12
            assert abs(fact - cert["factor_residual"]) <= 1e-12

    def test_missing_controller(self, system_file):
        assert main(["analyze", system_file, "osc", "nope"]) == 3


class TestSimulate:
    def test_default_run(self, system_file, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(["simulate", system_file, "osc", "ctrl_half",
                     "--x0", "1,0,0", "--t-final", "5", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,x1,x2,x3,V,ytilde2sq"
        assert len(lines) == 502
        assert "lyapunov monotone: pass" in err
        assert "dissipation bound: pass" in err

    def test_negative_x0_as_separate_value(self, system_file, tmp_path, capsys):
        csvs = []
        for x0_args in (["--x0", "-0.5,1,0.25"], ["--x0=-0.5,1,0.25"]):
            out = tmp_path / f"trace{len(csvs)}.csv"
            code = main(["simulate", system_file, "osc", "ctrl_half", *x0_args,
                         "--t-final", "1", "--out", str(out)])
            assert code == 0
            csvs.append(out.read_bytes())
        capsys.readouterr()
        assert csvs[0] == csvs[1]
        assert csvs[0].split(b"\n")[1].startswith(b"0,-0.5,1,0.25,")

    def test_invalid_t_final(self, system_file, capsys):
        assert main(["simulate", system_file, "osc", "ctrl_half",
                     "--t-final", "0.0"]) == 3

    def test_x0_length_mismatch(self, system_file, capsys):
        assert main(["simulate", system_file, "osc", "ctrl_half",
                     "--x0", "1,0"]) == 3
        assert "error: x0 must have shape (3,), got (2,)" in capsys.readouterr().err

    def test_hypothesis_warning_does_not_block(self, system_file, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(["simulate", system_file, "osc", "ctrl_two",
                     "--x0", "1,0,0", "--t-final", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 0
        assert "hypothesis dc_gain violated" in err
        assert out.exists()


    def test_feedthrough_failure_named(self, system_file, tmp_path, capsys):
        code = main(["simulate", system_file, "s_over", "s_over",
                     "--t-final", "1", "--out", str(tmp_path / "trace.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert "feedthrough hypothesis fails (||D1 @ D2|| = 1.000e+00)" in err
        assert "well posed" not in err


class TestSimulateRunsNoSweep:
    def test_frequency_response_calls(self, system_file, tmp_path, capsys,
                                      frequency_response_calls):
        calls = frequency_response_calls
        assert main(["simulate", system_file, "osc", "ctrl_half", "--x0", "1,0,0",
                     "--out", str(tmp_path / "trace.csv")]) == 0
        assert calls == []
        assert main(["analyze", system_file, "osc", "ctrl_half"]) == 0
        assert calls == ["lossless plant", "ctrl_half"]
        capsys.readouterr()


class TestFlagsAreUsageErrors:
    """Unusable flag values exit 3 before any file is read or analysis runs."""

    @pytest.fixture(autouse=True)
    def no_loading(self, monkeypatch):
        import nistab.cli

        def fail(*args):
            raise AssertionError("a system file was read")

        monkeypatch.setattr(nistab.cli, "load_system_file", fail)

    def test_t_final_below_dt(self, system_file, capsys):
        assert main(["simulate", system_file, "osc", "ctrl_half",
                     "--t-final", "1e-3", "--dt", "1e-2"]) == 3
        assert capsys.readouterr().err == "error: need t_final >= dt > 0\n"

    @pytest.mark.parametrize("flags", [["--t-final", "inf"], ["--t-final", "nan"],
                                       ["--dt", "nan"], ["--dt", "inf"], ["--dt", "-1"]])
    def test_non_finite_simulation_times(self, system_file, capsys, flags):
        assert main(["simulate", system_file, "osc", "ctrl_half", *flags]) == 3
        err = capsys.readouterr().err
        assert "must be finite and positive" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [["--points", "1"], ["--wmin", "nan"],
                                       ["--wmin", "10", "--wmax", "1"], ["--wmax", "inf"],
                                       ["--exclusion-radius", "nan"]])
    @pytest.mark.parametrize("command", [["certify", "osc"], ["analyze", "osc", "ctrl_half"],
                                         ["simulate", "osc", "ctrl_half"]])
    def test_grid_flags(self, system_file, capsys, command, flags):
        assert main([command[0], system_file, *command[1:], *flags]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: invalid frequency grid: ")
        assert "invalid system file" not in err

    @pytest.mark.parametrize("x0, message", [
        ("nan,0,0", "entries must be finite, got 'nan,0,0'"),
        ("1,inf,0", "entries must be finite, got '1,inf,0'"),
        ("abc,0,0", "must be comma-separated numbers, got 'abc,0,0'"),
        ("1,,0", "must be comma-separated numbers, got '1,,0'")])
    def test_x0(self, system_file, capsys, x0, message):
        assert main(["simulate", system_file, "osc", "ctrl_half", f"--x0={x0}"]) == 3
        err = capsys.readouterr().err
        assert f"argument --x0: {message}" in err
        assert "invalid system file" not in err

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--tol", "--tol-axis", "--tol-pole", "--tol-hurwitz",
                                      "--tol-int"])
    def test_tolerance_flags(self, system_file, capsys, flag, value):
        for command in (["certify", "ctrl_half", "--property", "sni"],
                        ["analyze", "osc", "ctrl_half"], ["simulate", "osc", "ctrl_half"]):
            assert main([command[0], system_file, *command[1:], f"{flag}={value}"]) == 3
            err = capsys.readouterr().err
            assert f"argument {flag}: must be finite and positive, got '{value}'" in err


class TestOneStateStackPerRun:
    def test_make_state_and_closed_loop_calls(self, system_file, tmp_path, capsys,
                                              monkeypatch):
        import nistab.interconnect
        import nistab.lyapunov
        import nistab.sim

        calls = {"make_state": 0, "closed_loop": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # simulate forms its columns from the whole trace and never builds a state
        assert not hasattr(nistab.sim, "make_state")
        monkeypatch.setattr(nistab.lyapunov, "make_state",
                            counted("make_state", nistab.lyapunov.make_state))
        monkeypatch.setattr(nistab.interconnect, "closed_loop",
                            counted("closed_loop", nistab.interconnect.closed_loop))
        for argv, states in ((["analyze", system_file, "osc", "ctrl_half"], 1),
                             (["simulate", system_file, "osc", "ctrl_half", "--x0", "1,0,0",
                               "--out", str(tmp_path / "trace.csv")], 0)):
            calls.update(make_state=0, closed_loop=0)
            assert main(argv) == 0
            assert calls == {"make_state": states, "closed_loop": 1}, argv[0]
        capsys.readouterr()


class TestSelftest:
    def test_small_run(self, capsys):
        code = main(["selftest", "--seed", "1", "--cases", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "three_way_agreement" in out and "dc_necessity" in out

    def test_zero_cases_vacuous(self, capsys):
        code = main(["selftest", "--cases", "0"])
        assert code == 0
        assert "vacuous" in capsys.readouterr().err


def _hard_systems(rng, n, m):
    """One (A, B, C, D) per family of hard inputs, from one SNI draw of order n."""
    sys, _ = random_ni_system(int(rng.integers(0, 2**31)), n, m, strict=True)
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    T = np.logspace(0, 8, n)
    S = rng.standard_normal((n, n))
    R = rng.standard_normal((m, m))
    return {
        "zero": (0 * A, 0 * B, 0 * C, 0 * D),
        "near-zero": (1e-300 * A, 1e-300 * B, 1e-300 * C, 1e-300 * R @ R.T),
        "jordan": (np.eye(n, k=1) - 1e-9 * np.eye(n), B, C, D),
        "axis-only": (S - S.T, B, C, D),
        "badly-scaled": (A * T / T[:, np.newaxis], B / T[:, np.newaxis], C * T, D),
        "gain-1e-150": (A, 1e-150 * B, C, 1e-150 * D),
        "gain-1e150": (A, 1e150 * B, C, 1e150 * D),
        "zero-B": (A, 0 * B, C, D),
        "zero-C": (A, B, 0 * C, D),
        "large-D": (A, B, C, 1e8 * (R + R.T)),
    }


@pytest.mark.filterwarnings("ignore::UserWarning")  # non-minimal, asymmetric DC gain
def test_hard_inputs_end_in_an_exit_code(tmp_path, capsys):
    # every hard input ends in a verdict or a typed error: exit code 0-3, no exception
    rng = np.random.default_rng(18)
    codes = {}
    for n in range(1, 5):
        m = 1 + (n > 2)
        partner, _ = random_ni_system(n, 2, m, strict=True)
        for family, (A, B, C, D) in _hard_systems(rng, n, m).items():
            path = tmp_path / f"{family}-{n}.json"
            path.write_text(json.dumps({"schema_version": "1", "systems": {
                "g": {"A": A.tolist(), "B": B.tolist(), "C": C.tolist(), "D": D.tolist()},
                "h": {k: getattr(partner, k).tolist() for k in "ABCD"}}}))
            for argv in (["certify", str(path), "g", "--property", "sni"],
                         ["analyze", str(path), "g", "h"], ["analyze", str(path), "h", "g"]):
                codes[family, n, argv[0], argv[2]] = main(argv)
                capsys.readouterr()
            x0 = "--x0=" + ",".join(["1"] + ["0"] * (n + partner.n - 1))
            for order in (["g", "h"], ["h", "g"]):
                # a NaN trace or an overflow warning is not a defined outcome
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    codes[family, n, "simulate", order[0]] = main(
                        ["simulate", str(path), *order, x0, "--t-final", "0.05"])
                capsys.readouterr()
    assert len(codes) == 200
    assert set(codes.values()) <= {0, 1, 2, 3}


def test_rows_past_the_trace_end_do_not_warn(tmp_path):
    # max Re lambda(A_cl) = 3,818: the 32-row block's powers and rows past t = 0.05
    # overflow, the six rows written do not
    g, _ = random_ni_system(2, 3, 3)
    path = _write_systems(tmp_path / "g.json", g=StateSpace(g.A, 1e3 * g.B, g.C, 1e3 * g.D))
    out = tmp_path / "trace.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", path, "g", "g", "--x0=1,0,0,0,0,0", "--t-final", "0.05",
                     "--out", str(out)]) == 0
    assert out.read_text() == """\
t,x1,x2,x3,x4,x5,x6,V,ytilde2sq
0,1,0,0,0,0,0,0.00116267923942,2866.13231588
0.01,-3.67014164631e+15,-6.50651581386e+15,7.885826771e+15,-3.67014164631e+15,-6.50651581386e+15,7.885826771e+15,-4.36530036931e+32,1.66653686296e+36
0.02,-1.39541976063e+32,-2.4738338774e+32,2.99825989447e+32,-1.39541976063e+32,-2.4738338774e+32,2.99825989447e+32,-6.31041931202e+65,2.40912320218e+69
0.03,-5.30550724196e+48,-9.40573146681e+48,1.13996447751e+49,-5.30550724196e+48,-9.40573146681e+48,1.13996447751e+49,-9.12225700972e+98,3.48259599431e+102
0.04,-2.01719997729e+65,-3.57614087324e+65,4.33424404733e+65,-2.01719997729e+65,-3.57614087324e+65,4.33424404733e+65,-1.31870116449e+132,5.03439377802e+135
0.05,-7.66956968073e+81,-1.3596798495e+82,1.64791726693e+82,-7.66956968073e+81,-1.3596798495e+82,1.64791726693e+82,-1.90629660989e+165,7.27765171544e+168
"""


def test_non_finite_step_is_a_dimension_error(tmp_path, capsys):
    # |A_cl| of order 1e7: e^{A_cl dt} overflows at the default --dt, not at 1e-6
    g, _ = random_ni_system(1, 2, 1, strict=True)
    big = StateSpace(g.A, g.B, g.C, 1e8 * np.ones((1, 1)))
    path = _write_systems(tmp_path / "g.json", g=big, h=g)
    assert main(["simulate", path, "g", "h", "--x0=1,0,0,0", "--t-final", "0.05"]) == 3
    err = capsys.readouterr().err
    assert "error: e^{A_cl dt} is not finite at --dt 0.01" in err
    assert "FAIL" not in err
    assert main(["simulate", path, "g", "h", "--x0=1,0,0,0", "--t-final", "2e-6",
                 "--dt", "1e-6"]) == 0


class TestUsage:
    def test_no_command(self):
        assert main([]) == 3

    def test_version(self, capsys):
        assert main(["--version"]) == 0


class TestParserBuiltOnce:
    def test_calls_share_one_parser(self, system_file, monkeypatch, capsys):
        import nistab.cli

        nistab.cli.build_parser.cache_clear()
        assert main(["certify", system_file, "first_order"]) == 0
        first = capsys.readouterr().out
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("nistab ")
        assert main(["certify", system_file]) == 3
        assert "usage:" in capsys.readouterr().err
        assert main(["certify", system_file, "first_order"]) == 0
        assert capsys.readouterr().out == first
        # the cached parser still reaches a patched helper
        loaded = []
        real = nistab.cli.load_system_file

        def spy(path):
            loaded.append(path)
            return real(path)

        monkeypatch.setattr(nistab.cli, "load_system_file", spy)
        assert main(["certify", system_file, "first_order"]) == 0
        assert capsys.readouterr().out == first
        assert loaded == [system_file]
        info = nistab.cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 4)


def reference_dumps(obj, indent: int = 0) -> str:
    """The recursive encoder ``dumps_canonical`` replaced, kept as its reference."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, enum.Enum):
        return reference_dumps(obj.value, indent)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return "null" if x != x or x in (float("inf"), float("-inf")) else f"{x:.17g}"
    if isinstance(obj, (complex, np.complexfloating)):
        return reference_dumps({"re": float(obj.real), "im": float(obj.imag)}, indent)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, np.ndarray):
        return reference_dumps(obj.tolist(), indent)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad_in}{json.dumps(str(k))}: {reference_dumps(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rendered = [reference_dumps(v, indent + 1) for v in obj]
        if all(len(r) < 24 and "\n" not in r for r in rendered):
            return "[" + ", ".join(rendered) + "]"
        return "[\n" + ",\n".join(pad_in + r for r in rendered) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# report leaves: floats with the special values and 24-character %.17g forms, integers,
# booleans and complex numbers, Python and numpy alike; the three enums, None, strings
# with escapes and non-ASCII characters, and 1-d and 2-d float arrays
_SPECIAL = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324,
            -1.2345678901234567e-308, -2.2250738585072014e-308]
_FLOATS = st.one_of(st.floats(), st.sampled_from(_SPECIAL))
_LEAVES = st.one_of(
    _FLOATS, _FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(), st.booleans().map(np.bool_),
    st.complex_numbers(), st.complex_numbers().map(np.complex128),
    st.sampled_from([*CertStatus, *Verdict, *Stability, None]),
    st.text(st.characters(codec="utf-8"), max_size=8),
    st.lists(_FLOATS, max_size=6).map(np.array),
    st.lists(st.lists(_FLOATS, min_size=2, max_size=2), max_size=3).map(np.array),
)
_TREES = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple),
    st.dictionaries(st.one_of(st.text(max_size=6), st.integers()), inner, max_size=5)),
    max_leaves=30)


class TestDumpsCanonical:
    FLOATS = [0.5, -0.0, float("nan"), float("inf"), 1e-300, -1.2345678901234567e-308, 3.0]

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(obj=_TREES, indent=st.integers(0, 3))
    def test_matches_the_recursive_reference(self, obj, indent):
        assert dumps_canonical(obj, indent) == reference_dumps(obj, indent)

    @pytest.mark.parametrize("values", [FLOATS[:2], FLOATS[2:4], FLOATS[:4] + [3.0], FLOATS])
    def test_float_lists_render_as_items_one_by_one(self, values):
        # a list of Python floats skips the per-item dispatch; numpy scalars take it
        fast = dumps_canonical({"a": [values]})
        assert fast == dumps_canonical({"a": [[np.float64(v) for v in values]]})
        assert fast == dumps_canonical({"a": [np.array(values)]})

    def test_long_float_breaks_the_line(self):
        assert dumps_canonical([0.5, -1.2345678901234567e-308]) == (
            "[\n  0.5,\n  -1.2345678901234567e-308\n]")
        assert dumps_canonical([0.5, float("nan"), 2.0]) == "[0.5, null, 2]"


# Run in a fresh interpreter: calls nistab.cli.main on each argv of argv[1] (JSON),
# then prints the exit codes and the scipy modules loaded by the end as its last line.
COLD_START = """
import json, sys
import nistab, nistab.cli
codes = [nistab.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def _cold_run(*argvs):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", COLD_START, json.dumps(argvs)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["codes"], set(result["scipy"])


class TestColdStart:
    """scipy.linalg is loaded by ``simulate`` only, and only when a fresh interpreter needs it;
    scipy.integrate never is."""

    def test_certify_analyze_selftest_load_no_scipy(self, tmp_path):
        digests = json.loads((GOLDEN / "digests.json").read_text())
        codes, scipy = _cold_run(
            ["certify", str(GOLDEN_SYSTEMS), "ctrl_half", "--property", "sni",
             "--out", str(tmp_path / "certify.json")],
            ["analyze", str(GOLDEN_SYSTEMS), "osc", "ctrl_half",
             "--out", str(tmp_path / "analyze.json")],
            ["selftest", "--cases", "2"],
            # the crossing frequencies decide this one
            ["certify", str(DR_EXITS), "notch3", "--property", "sni",
             "--out", str(tmp_path / "notch3.json")])
        assert codes == [digests["certify-sni-ctrl_half"]["exit_code"],
                         digests["analyze-osc-ctrl_half"]["exit_code"], 0,
                         digests["certify-sni-notch3"]["exit_code"]]
        report = json.loads((tmp_path / "notch3.json").read_text())
        assert report["results"]["frequency_ni"]["verdict"] == "NotNI"
        assert scipy == set()

    def test_simulate_imports_scipy_on_first_use(self, tmp_path):
        expected = json.loads((GOLDEN / "digests.json").read_text())["simulate-osc-ctrl_half"]
        csv = tmp_path / "trace.csv"
        codes, scipy = _cold_run(["simulate", str(GOLDEN_SYSTEMS), "osc", "ctrl_half",
                                  "--x0=1,-0.5,0.25", "--out", str(csv)])
        assert codes == [expected["exit_code"]]
        digest = hashlib.sha256(csv.read_text(encoding="utf-8").encode("utf-8")).hexdigest()
        assert digest == expected["csv_sha256"]
        assert "scipy.linalg" in scipy and "scipy.integrate" not in scipy
