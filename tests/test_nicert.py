"""Certification routes: frequency sweep, positive-real reduction, LMI search."""

import collections
import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nistab.nicert
import nistab.statespace

from nistab import (
    CertStatus,
    FrequencyGrid,
    StateSpace,
    Verdict,
    check_hypotheses,
    eval_tf,
    eval_tf_stack,
    freq_ni_test,
    freq_sni_test,
    frequency_response,
    lmi_ni_certificate,
    positive_real_check,
    random_ni_system,
    sni_rank_condition,
    w_transfer_zero_check,
)
from nistab.cli import main
from nistab.exceptions import (
    AsymmetricDError,
    GenerationFailedError,
    NearPoleError,
    NotCertifiedError,
    SingularAError,
)
from nistab.linalg import DEFAULT_TOL, min_singular_value
from nistab.nicert import _POLISH_FIRST, _POLISH_STEPS, _sym_maps, certificate_from_y
from nistab.statespace import resolvent_stack

GRID = FrequencyGrid(points=120)
GOLDEN = Path(__file__).resolve().parent / "golden"


def dr_exit_system(name):
    s = json.loads((GOLDEN / "dr_exits.json").read_text())["systems"][name]
    return StateSpace(s["A"], s["B"], s["C"], s["D"], label=name)


def test_public_names_resolve():
    namespace = {}
    exec("from nistab import *", namespace)
    assert set(nistab.__all__) <= namespace.keys()
    assert not {"SolverOptions", "default_grid"} & (namespace.keys() | set(dir(nistab)))


class TestFrequencyResponse:
    def test_residue_programming_error_propagates(self, osc, monkeypatch):
        # only pole problems (nistab and LAPACK errors) become a NotNI note
        def broken(*args):
            raise TypeError("broken residue")

        monkeypatch.setattr(nistab.nicert, "residue_at_pole", broken)
        with pytest.raises(TypeError, match="broken residue"):
            frequency_response(osc, GRID)

    def test_stack_matches_eval_tf_per_point(self, osc):
        # linear grid through the pole at j: 1.0 is excluded, and a wide
        # resolvent guard marks its neighbours near-pole
        grid = FrequencyGrid(omega_min=0.5, omega_max=1.5, points=101, spacing="linear")
        resp = frequency_response(osc, grid, tol_pole=0.05)
        assert set(resp.status) == {"ok", "excluded", "near-pole"}
        G, guarded = eval_tf_stack(osc, 1j * resp.omegas, 0.05)
        ok_values = iter(resp.G)
        for omega, status, g, is_guarded in zip(resp.omegas, resp.status, G, guarded):
            try:
                expected = eval_tf(osc, 1j * omega, 0.05)
            except NearPoleError:
                assert is_guarded and np.isnan(g).all() and status != "ok"
                continue
            assert not is_guarded
            np.testing.assert_array_equal(g, expected)
            if status == "ok":
                np.testing.assert_array_equal(next(ok_values), expected)
        assert next(ok_values, None) is None

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (4, 1), (5, 2)])
    def test_stack_matches_eval_tf_off_axis(self, n, m):
        # square (n == m) and non-square B: each point must use the whole (n, m) matrix B
        sys, _ = random_ni_system(21, n, m, with_feedthrough=True)
        rng = np.random.default_rng(0)
        points = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        G, guarded = eval_tf_stack(sys, points)
        assert G.shape == (30, m, m) and not guarded.any()
        for s, g in zip(points, G):
            np.testing.assert_array_equal(g, eval_tf(sys, s))
            direct = sys.C @ np.linalg.inv(s * np.eye(n) - sys.A) @ sys.B + sys.D
            np.testing.assert_allclose(g, direct, rtol=1e-9, atol=1e-12)

    def test_routes_match_per_point_formulas(self):
        sys, _ = random_ni_system(4, 4, 2, strict=True, with_feedthrough=True)
        resp = frequency_response(sys, GRID)
        ni, pr = freq_ni_test(resp), positive_real_check(resp)
        for p_ni, p_pr in zip(ni.per_point, pr.per_point):
            G = eval_tf(sys, 1j * p_ni.omega)
            M = 1j * (G - G.conj().T)
            assert p_ni.min_eig == float(np.linalg.eigvalsh((M + M.conj().T) / 2).min())
            F = 1j * p_pr.omega * (G - sys.D)
            M = F + F.conj().T
            assert p_pr.min_eig == float(np.linalg.eigvalsh((M + M.conj().T) / 2).min())

    def test_identity_equality_and_hashing(self, ctrl_half):
        grid = FrequencyGrid(points=4)
        resp = frequency_response(ctrl_half, grid)
        min_eig = resp.ni_min_eig
        copy = frequency_response(ctrl_half, grid)
        assert resp == resp and not (resp != resp)
        assert resp != copy and not (resp == copy)
        keyed = {resp: "a", copy: "b"}
        assert (keyed[resp], keyed[copy]) == ("a", "b")
        assert len({resp, copy, resp}) == 2
        assert resp.ni_min_eig is min_eig
        np.testing.assert_array_equal(copy.ni_min_eig, min_eig)

    def test_one_response_serves_every_route(self, osc):
        resp = frequency_response(osc, GRID)
        ni, sni, pr = freq_ni_test(resp), freq_sni_test(resp), positive_real_check(resp)
        assert (ni.verdict, sni.verdict, pr.verdict) == (Verdict.NI, Verdict.NOT_NI, Verdict.NI)
        assert ni.origin_pole is False and pr.origin_pole is None
        assert ni.passed and pr.passed and not sni.passed


class TestFreqNiTest:
    def test_first_order_is_ni(self, first_order):
        report = freq_ni_test(frequency_response(first_order, GRID))
        assert report.verdict is Verdict.NI
        # closed form of the sweep curve: j(G - G*) = 2 w / (1 + w^2)
        for p in report.per_point[::20]:
            assert p.min_eig == pytest.approx(2 * p.omega / (1 + p.omega**2), rel=1e-9)

    def test_s_over_not_ni(self, s_over):
        report = freq_ni_test(frequency_response(s_over, GRID))
        assert report.verdict is Verdict.NOT_NI
        for p in report.per_point[::20]:
            assert p.min_eig == pytest.approx(-2 * p.omega / (1 + p.omega**2), rel=1e-9)

    def test_oscillator_with_axis_pole(self, osc):
        report = freq_ni_test(frequency_response(osc, GRID))
        assert report.verdict is Verdict.NI
        assert not report.origin_pole and not report.rhp_pole
        assert len(report.pole_findings) == 1
        finding = report.pole_findings[0]
        assert finding.omega0 == pytest.approx(1.0)
        np.testing.assert_allclose(finding.K0, [[0.5]], atol=1e-9)

    def test_grid_point_on_pole_is_excluded(self, osc):
        grid = FrequencyGrid(omega_min=0.5, omega_max=1.5, points=101,
                             spacing="linear", exclusion_radius=1e-2)
        report = freq_ni_test(frequency_response(osc, grid))
        assert report.verdict is Verdict.NI
        excluded = [p.omega for p in report.per_point if p.status == "excluded"]
        assert any(abs(w - 1.0) <= 1e-2 for w in excluded)

    def test_repeated_axis_pole_gives_one_finding(self):
        # I2/(s^2 + 1) as two oscillators: the double eigenvalue j is one simple
        # pole of G, with the residue I/2
        two = StateSpace(np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]]),
                         np.kron(np.eye(2), [[0.0], [1.0]]), np.kron(np.eye(2), [[1.0, 0.0]]),
                         np.zeros((2, 2)))
        resp = frequency_response(two, GRID)
        assert len(resp.axis_pole_frequencies) == 1 and resp.pole_problems == []
        [finding] = resp.pole_findings
        np.testing.assert_allclose(finding.K0, np.eye(2) / 2, atol=1e-12)
        report = freq_ni_test(resp)
        assert report.warnings == []
        assert report.verdict is Verdict.NI

    def test_non_hermitian_residue_rejected(self, s_over_s2):
        assert freq_ni_test(frequency_response(s_over_s2, GRID)).verdict is Verdict.NOT_NI

    def test_rhp_pole_rejected(self):
        sys = StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]])
        report = freq_ni_test(frequency_response(sys, GRID))
        assert report.rhp_pole and report.verdict is Verdict.NOT_NI

    def test_asymmetric_feedthrough_not_ni(self):
        sys = StateSpace(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2),
                         [[0.0, 1.0], [-1.0, 0.0]])
        assert freq_ni_test(frequency_response(sys, GRID)).verdict is Verdict.NOT_NI


class TestFreqSniTest:
    def test_first_order_strict(self, ctrl_one):
        assert freq_sni_test(frequency_response(ctrl_one, GRID)).verdict is Verdict.SNI

    def test_scaled_still_strict(self, ctrl_half):
        assert freq_sni_test(frequency_response(ctrl_half, GRID)).verdict is Verdict.SNI

    def test_axis_pole_fails_strictness(self, osc):
        assert freq_sni_test(frequency_response(osc, GRID)).verdict is Verdict.NOT_NI


class TestPositiveRealCheck:
    def test_first_order_passes(self, first_order):
        report = positive_real_check(frequency_response(first_order, GRID))
        assert report.passed
        # F + F* = 2 w^2/(1 + w^2)
        for p in report.per_point[::20]:
            assert p.min_eig == pytest.approx(2 * p.omega**2 / (1 + p.omega**2), rel=1e-9)

    def test_s_over_fails(self, s_over):
        report = positive_real_check(frequency_response(s_over, GRID))
        assert not report.passed
        for p in report.per_point[::20]:
            assert p.min_eig == pytest.approx(-2 * p.omega**2 / (1 + p.omega**2), rel=1e-9)

    def test_zero_strictly_proper_part(self):
        sys = StateSpace([[-1.0]], [[0.0]], [[1.0]], [[2.0]])
        report = positive_real_check(frequency_response(sys, GRID))
        assert report.passed  # F identically zero sits on the PSD boundary

    def test_origin_pole_rejected(self):
        integrator = StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(SingularAError):
            positive_real_check(frequency_response(integrator, GRID))


class TestLmiCertificate:
    def test_first_order_hand_solution(self, first_order):
        cert = lmi_ni_certificate(first_order)
        assert cert.verdict is CertStatus.CERTIFIED
        np.testing.assert_allclose(cert.P, [[1.0]], atol=1e-8)
        np.testing.assert_allclose(cert.L, [[np.sqrt(2.0)]], atol=1e-8)
        assert cert.lyap_residual >= -1e-8
        assert cert.coupling_residual <= 1e-8

    def test_oscillator_forced_identity(self, osc):
        cert = lmi_ni_certificate(osc)
        assert cert.verdict is CertStatus.CERTIFIED
        np.testing.assert_allclose(cert.P, np.eye(2), atol=1e-6)
        assert cert.L.shape[0] == 0  # lossless: -(AY + YA') vanishes

    def test_negated_c_infeasible(self):
        sys = StateSpace([[-1.0]], [[1.0]], [[-1.0]], [[0.0]])
        cert = lmi_ni_certificate(sys)
        assert cert.verdict is CertStatus.INFEASIBLE
        # the coupling equation forces Y = -1, so the affine set itself is
        # solvable; the witness is a Farkas pair (Z_Y, Z_W) of unit norm, here
        # both positive, found in the first iteration
        assert cert.iterations == 1
        witness = cert.infeasibility_witness
        assert witness.shape == (2, 1, 1)
        assert np.all(witness > 0)
        assert float(np.sum(witness ** 2)) == pytest.approx(1.0, rel=1e-12)

    def test_affine_infeasible_with_witness(self):
        # A = -I, C = I force Y = -A^{-1}B = B, which is not symmetric here
        B = np.array([[0.0, 1.0], [0.0, 0.0]])
        sys = StateSpace(-np.eye(2), B, np.eye(2), np.zeros((2, 2)))
        cert = lmi_ni_certificate(sys)
        assert cert.verdict is CertStatus.INFEASIBLE
        witness = cert.infeasibility_witness
        assert witness.shape == (sys.n, sys.m)
        # separating functional: <witness, Y C' - V> is a fixed positive
        # number for every symmetric Y
        V = -np.linalg.solve(sys.A, sys.B)
        rng = np.random.default_rng(0)
        expected = float(np.sum(witness * witness))
        for _ in range(5):
            Y = rng.standard_normal((2, 2))
            Y = Y + Y.T
            val = float(np.sum(witness * (Y @ sys.C.T - V)))
            assert val == pytest.approx(expected, rel=1e-9)

    def test_diagonally_scaled_sni_realization_certifies(self):
        # T^-1 A T, T^-1 B, C T with T = diag(logspace(0, 2)): still SNI, and
        # the search certifies it after 4,174 iterations with no early stop
        g, _ = random_ni_system(3, 6, 2, strict=True)
        t = np.logspace(0, 2, g.n)
        sys = StateSpace(g.A * t / t[:, np.newaxis], g.B / t[:, np.newaxis], g.C * t, g.D)
        cert = lmi_ni_certificate(sys)
        assert (cert.verdict, cert.iterations) == (CertStatus.CERTIFIED, 4174)
        assert float(np.linalg.eigvalsh(cert.Y).min()) > 0
        assert cert.lyap_residual >= -1e-8 * max(1.0, sys.norm2)
        assert cert.coupling_residual <= 1e-8 * max(1.0, float(np.linalg.norm(sys.B)))

    def test_asymmetric_d_rejected(self):
        sys = StateSpace(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2),
                         [[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(AsymmetricDError):
            lmi_ni_certificate(sys)

    def test_singular_a_rejected(self):
        integrator = StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(SingularAError):
            lmi_ni_certificate(integrator)

    def test_residuals_recomputable(self):
        sys, _ = random_ni_system(21, 4, 2)
        cert = lmi_ni_certificate(sys)
        assert cert.certified
        A, Y, L = sys.A, cert.Y, cert.L
        lyap = float(np.linalg.eigvalsh(-(A @ Y + Y @ A.T)).min())
        coup = float(np.linalg.norm(sys.B + A @ Y @ sys.C.T, "fro"))
        fact = float(np.linalg.norm(L.T @ L + A @ Y + Y @ A.T, "fro"))
        assert lyap == pytest.approx(cert.lyap_residual, abs=1e-12)
        assert coup == pytest.approx(cert.coupling_residual, abs=1e-12)
        assert fact == pytest.approx(cert.factor_residual, abs=1e-12)


class TestSolverOptions:
    """``tol`` is the one option of the certificate search, checked before anything else."""

    # D is not symmetric, so a bad tol that got through would raise AsymmetricDError
    ASYMMETRIC_D = StateSpace(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2),
                              [[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("field, value", [
        ("tol", -1.0), ("tol", 0.0), ("tol", np.nan), ("tol", np.inf)])
    def test_invalid_field_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            lmi_ni_certificate(self.ASYMMETRIC_D, **{field: value})

    @pytest.mark.parametrize("field, value", [("tol", 1e-2)])
    def test_edge_values_accepted(self, first_order, field, value):
        assert lmi_ni_certificate(first_order, **{field: value}).certified


def notch(w0, zeta=1e-4):
    """1/(s+1) - k s/(s^2 + 2 zeta w0 s + w0^2): not NI, with a narrow dip near w0."""
    k = (2 * w0 / (1 + w0**2) + 1.0) * 2 * zeta * w0
    return StateSpace([[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -w0**2, -2 * zeta * w0]],
                      [[1.0], [0.0], [1.0]], [[1.0, 0.0, -k]], [[0.0]])


def _svec(M, n):
    """Reference svec: the diagonal, then sqrt(2) times the strict upper triangle."""
    iu, ju = np.triu_indices(n, k=1)
    return np.concatenate([np.diag(M), np.sqrt(2.0) * M[iu, ju]])


def _smat(s, n):
    """Reference inverse of _svec."""
    M = np.zeros((n, n))
    M[np.diag_indices(n)] = s[:n]
    iu, ju = np.triu_indices(n, k=1)
    off = s[n:] / np.sqrt(2.0)
    M[iu, ju] = off
    M[ju, iu] = off
    return M


class TestDrIteration:
    def test_one_stacked_call_per_half_step(self, linalg_calls):
        # each iteration: one eigh for both cone blocks, one eigvalsh for both
        # residual spectra and the witness blocks; the exit reuses the last
        # check.  Each polish step adds one of each: this notch polishes at
        # iterations 8, 16, ..., 4,096, ten times in full, and finds no witness
        cert = lmi_ni_certificate(notch(3.3))
        assert cert.verdict is CertStatus.MAX_ITERATIONS
        assert cert.infeasibility_witness is None
        assert cert.polish_steps == 10 * _POLISH_STEPS
        assert (linalg_calls["eigh"] == linalg_calls["eigvalsh"]
                == cert.iterations + cert.polish_steps)

    def test_one_stacked_call_per_polish_step(self, linalg_calls):
        # neg_rand6 fails the exit test at iteration 8, and its polish passes
        # it at the second step
        cert = lmi_ni_certificate(dr_exit_system("neg_rand6"))
        assert (cert.verdict, cert.iterations) == (CertStatus.INFEASIBLE, _POLISH_FIRST)
        assert cert.infeasibility_witness.shape == (2, 6, 6)
        assert cert.polish_steps == 2
        assert linalg_calls["eigh"] == linalg_calls["eigvalsh"] == _POLISH_FIRST + 2

    @pytest.mark.parametrize("n", range(1, 13))
    def test_index_maps_are_stacked_smat_and_svec(self, n):
        gather, div, scatter, mult = _sym_maps(n)
        nsym = n * (n + 1) // 2
        rng = np.random.default_rng(n)
        for _ in range(5):
            z = rng.standard_normal(2 * nsym) * 10.0 ** rng.uniform(-8, 8, 2 * nsym)
            assert np.array_equal(z[gather] / div,
                                  np.stack([_smat(z[:nsym], n), _smat(z[nsym:], n)]))
            # not symmetric: _svec reads the upper triangle, and so must the map
            M = rng.standard_normal((2, n, n))
            assert np.array_equal(M.reshape(-1)[scatter] * mult,
                                  np.concatenate([_svec(M[0], n), _svec(M[1], n)]))


def _sym_basis(n):
    """Orthonormal basis of the symmetric n x n matrices (Frobenius product)."""
    out = []
    for i in range(n):
        for j in range(i, n):
            E = np.zeros((n, n))
            E[i, j] = E[j, i] = 1.0 if i == j else 1 / np.sqrt(2)
            out.append(E)
    return np.array(out)


def recheck_farkas_witness(sys, witness, tol=1e-8, eps_scale=1e-6):
    """Re-check a (Z_Y, Z_W) witness in matrix form from (A, B, C) alone.

    Returns the largest |<Z_Y - (A' Z_W + Z_W A), N>| over a basis of the
    symmetric N with N C' = 0, the separation s at the least-squares Y with
    Y C' = -A^-1 B, lambda_min over both blocks and the radius R."""
    A, B, C = sys.A, sys.B, sys.C
    n = sys.n
    basis = _sym_basis(n)
    K = np.stack([(E @ C.T).ravel() for E in basis], axis=1)
    _, sv, Vt = np.linalg.svd(K)
    rank = int(np.sum(sv > 1e-12 * sv[0]))
    null = np.tensordot(Vt[rank:], basis, axes=1)
    Z_Y, Z_W = witness
    M = Z_Y - (A.T @ Z_W + Z_W @ A)
    orth = float(np.abs(np.einsum("kij,ij->k", null, M)).max(initial=0.0))
    Y0 = np.tensordot(np.linalg.lstsq(K, (-np.linalg.solve(A, B)).ravel(), rcond=None)[0],
                      basis, axes=1)
    norm_a = float(np.linalg.norm(A, 2))
    eps, tol_lyap = eps_scale / max(1.0, norm_a), tol * max(1.0, norm_a)
    W0 = -(A @ Y0 + Y0 @ A.T)
    eye = np.eye(n)
    # <Z, f0 - floors>: the floors are Y >= eps/2 I and W >= -tol_lyap/2 I
    sep = float(np.sum(Z_Y * (Y0 - eps / 2 * eye)) + np.sum(Z_W * (W0 + tol_lyap / 2 * eye)))
    lam = float(min(np.linalg.eigvalsh(Z_Y).min(), np.linalg.eigvalsh(Z_W).min()))
    radius = max(1.0, float(np.sqrt(np.sum((Y0 - eps * eye) ** 2) + np.sum(W0 ** 2)))) / np.sqrt(tol)
    return orth, sep, lam, radius


def recheck_frequency_witness(sys, witness, tol=1e-8):
    """Re-check an (omega, lambda_min, bound) witness from (A, B, C, D) alone.

    Returns lambda_min j(G - G*) at omega from G = C (j omega I - A)^{-1} B + D,
    and the bound below which no symmetric Y with ||A Y C' + B||_F <= tc and
    -(A Y + Y A') >= -tl I can take it, tl = tol max(1, ||A||_2) and
    tc = tol max(1, ||B||_F): omega tl ||C R||^2 + 2 ||C R|| tc + ||D - D'||_F,
    with R = (j omega I - A)^{-1}, plus the rounding allowance the README states."""
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n, m = sys.n, sys.m
    omega = float(witness[0])
    shifted = 1j * omega * np.eye(n) - A
    R = np.linalg.inv(shifted)
    G = C @ np.linalg.solve(shifted, B.astype(complex)) + D
    H = 1j * (G - G.conj().T)
    lam = float(np.linalg.eigvalsh((H + H.conj().T) / 2)[0])
    cr = float(np.linalg.svd(C @ R, compute_uv=False)[0])
    tol_lyap = tol * max(1.0, float(np.linalg.norm(A, 2)))
    tol_coupling = tol * max(1.0, float(np.linalg.norm(B)))
    kappa = float(np.linalg.norm(shifted) * np.linalg.norm(R))  # Frobenius, as in the README
    rounding = 64 * (n + m) * np.finfo(float).eps * (
        (1 + kappa) * float(np.linalg.norm(C) * np.linalg.norm(R) * np.linalg.norm(B))
        + float(np.linalg.norm(D)))
    bound = (omega * tol_lyap * cr ** 2 + 2 * cr * tol_coupling
             + float(np.linalg.norm(D - D.T)) + rounding)
    return lam, bound


def negated(sys):
    return StateSpace(sys.A, sys.B, -sys.C, -sys.D, label=f"-{sys.label}")


def sweep_hint(sys):
    """The worst grid point of a NotNI sweep, as `certify` passes it to DR."""
    report = freq_ni_test(frequency_response(sys))
    assert report.verdict is Verdict.NOT_NI
    return report.worst_point().omega


def same_run(a, b):
    """Two certificates of the same search: verdict, counts and every array bit."""
    assert (a.verdict, a.iterations, a.polish_steps) == (b.verdict, b.iterations, b.polish_steps)
    for name in ("Y", "P", "L", "infeasibility_witness"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None)
        if x is not None:
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
    for name in ("lyap_residual", "coupling_residual", "factor_residual"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)


class TestFrequencyWitness:
    def check(self, sys, cert, hint):
        assert (cert.verdict, cert.iterations, cert.polish_steps) == (CertStatus.INFEASIBLE, 0, 0)
        assert cert.Y is None
        witness = cert.infeasibility_witness
        assert witness.shape == (3,) and witness[0] == hint
        lam, bound = recheck_frequency_witness(sys, witness)
        assert lam < -bound
        assert witness[1] == pytest.approx(lam, rel=1e-9, abs=1e-12)
        assert witness[2] == pytest.approx(bound, rel=1e-6)

    @pytest.mark.parametrize("name", ["neg_rand6", "neg_rand20"])
    def test_dr_exit_draws_end_at_the_sweep_witness(self, name):
        sys = dr_exit_system(name)
        hint = sweep_hint(sys)
        self.check(sys, lmi_ni_certificate(sys, omega_hint=hint), hint)

    def test_s_over(self, s_over):
        hint = sweep_hint(s_over)
        self.check(s_over, lmi_ni_certificate(s_over, omega_hint=hint), hint)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 12), m=st.integers(1, 3),
           feedthrough=st.booleans(), gain=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_negated_draws_end_at_rechecked_witnesses(self, seed, n, m, feedthrough, gain):
        g, _ = random_ni_system(seed, n, min(n, m), with_feedthrough=feedthrough)
        sys = StateSpace(g.A, -gain * g.B, g.C, -gain * g.D)
        hint = sweep_hint(sys)
        self.check(sys, lmi_ni_certificate(sys, omega_hint=hint), hint)

    # a hint that is not finite and positive is ignored too: at w < 0 the
    # spectrum of j(G - G*) flips sign, so this SNI draw shows a negative
    # eigenvalue there, and no proof holds
    @pytest.mark.parametrize("hint", [0.37, 1.0, 25.0, float("nan"), float("inf"),
                                      -float("inf"), 0.0, -0.0, -1.0])
    def test_certified_system_ignores_the_hint(self, hint):
        g, _ = random_ni_system(6, 6, 2, strict=True, with_feedthrough=True)
        cert = lmi_ni_certificate(g, omega_hint=hint)
        assert cert.certified
        same_run(cert, lmi_ni_certificate(g))

    def test_hint_on_an_axis_pole_is_ignored(self, osc):
        # j I - A is exactly singular: the hint proves nothing
        same_run(lmi_ni_certificate(osc, omega_hint=1.0), lmi_ni_certificate(osc))

    @pytest.mark.parametrize("name", ["neg_rand6", "neg_rand20"])
    def test_harmless_hint_runs_the_search_unchanged(self, name):
        # near w = 0 the defect of j(G - G*) is about w, far below the bound
        sys = dr_exit_system(name)
        cert = lmi_ni_certificate(sys, omega_hint=1e-12)
        assert cert.iterations > 0
        same_run(cert, lmi_ni_certificate(sys))


NOTCH_OMEGAS = (0.47, 3.3, 12.9, 57.0)


class TestCrossingWitness:
    """NotNI off the grid, at a point between Hamiltonian crossing frequencies."""

    @pytest.mark.parametrize("w0", NOTCH_OMEGAS)
    def test_every_route_finds_the_notch_dip(self, w0):
        sys = notch(w0)
        resp = frequency_response(sys)
        assert resp.ni_min_eig.min() > 0  # the 400-point grid misses the dip
        ni, pr, sni = freq_ni_test(resp), positive_real_check(resp), freq_sni_test(resp)
        assert (ni.verdict, pr.verdict, sni.verdict) == (Verdict.NOT_NI,) * 3
        worst = ni.worst_point()
        assert worst.status == "crossing" and sni.worst_point() == worst
        lo, hi = sys.crossings
        assert lo == pytest.approx(w0, rel=1e-4) and worst.omega == (lo + hi) / 2
        # one direct evaluation of G(jw) at the reported frequency
        G = sys.C @ np.linalg.solve(1j * worst.omega * np.eye(3) - sys.A, sys.B) + sys.D
        H = 1j * (G - G.conj().T)
        value = float(np.linalg.eigvalsh((H + H.conj().T) / 2)[0])
        assert value < -0.03
        assert worst.min_eig == pytest.approx(value, rel=1e-9)
        assert pr.worst_point().omega == worst.omega
        assert pr.worst_point().min_eig == pytest.approx(worst.omega * value, rel=1e-9)
        # the per-point arrays stay those of the grid
        for report in (ni, sni):
            np.testing.assert_array_equal(report.min_eig, resp.ni_min_eig)
        # as certify's hint, it ends the search before its set-up
        cert = lmi_ni_certificate(sys, omega_hint=worst.omega)
        assert (cert.verdict, cert.iterations, cert.polish_steps) == (CertStatus.INFEASIBLE, 0, 0)
        lam, bound = recheck_frequency_witness(sys, cert.infeasibility_witness)
        assert lam < -bound

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 12), m=st.integers(1, 3),
           strict=st.booleans(), feedthrough=st.booleans(),
           gain=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_ni_draws_get_no_witness(self, seed, n, m, strict, feedthrough, gain):
        g, _ = random_ni_system(seed, n, min(n, m), strict=strict, with_feedthrough=feedthrough)
        sys = StateSpace(g.A, gain * g.B, g.C, gain * g.D)
        resp = frequency_response(sys)
        minimum = resp.crossing_minimum
        assert minimum is None or minimum[1] >= -1e-8
        for report in (freq_ni_test(resp), positive_real_check(resp), freq_sni_test(resp)):
            assert report.crossing is None
            assert report.worst_point() is None or report.worst_point().status == "ok"

    def test_crossings_are_cached_and_read_only(self):
        sys = notch(3.3)
        assert sys.crossings is sys.crossings
        with pytest.raises(ValueError):
            sys.crossings[0] = 1.0

    def test_undecided_without_invertible_r_or_hurwitz_a(self, osc):
        # osc: CB = 0, so R = CB + B'C' is singular
        assert osc.crossings is None
        assert frequency_response(osc).crossing_minimum is None
        # 1/(s^2 + 1) + 1/(s + 1): R = 2, but poles on the axis
        mixed = StateSpace([[0, 1, 0], [-1, 0, 0], [0, 0, -1]], [[0], [1], [1]],
                           [[1, 0, 1]], [[0]])
        assert mixed.crossings is not None
        assert frequency_response(mixed).crossing_minimum is None


class TestInfeasibilityWitness:
    def check(self, sys, cert):
        assert cert.verdict is CertStatus.INFEASIBLE
        witness = cert.infeasibility_witness
        assert witness.shape == (2, sys.n, sys.n)
        np.testing.assert_array_equal(witness, witness.swapaxes(-1, -2))
        assert float(np.sum(witness ** 2)) == pytest.approx(1.0, rel=1e-12)
        orth, sep, lam, radius = recheck_farkas_witness(sys, witness)
        assert orth <= 1e-12 * max(1.0, float(np.linalg.norm(sys.A, 2)))
        assert sep < 0
        assert sep <= min(0.0, lam) * radius

    def test_s_over(self, s_over):
        cert = lmi_ni_certificate(s_over)
        assert cert.iterations == 1
        self.check(s_over, cert)

    def test_neg_rand6(self):
        rand6, _ = random_ni_system(6, 6, 2, strict=True, with_feedthrough=True)
        sys = negated(rand6)
        cert = lmi_ni_certificate(sys)
        assert cert.iterations == 8
        self.check(sys, cert)

    def test_negated_draws(self):
        # n = 1..12, with and without D; all 24 draws end at a witness
        for k in range(24):
            n = 1 + k % 12
            g, _ = random_ni_system(300 + k, n, min(n, 1 + k % 3), with_feedthrough=k % 2 == 1)
            sys = negated(g)
            cert = lmi_ni_certificate(sys)
            self.check(sys, cert)
            assert cert.iterations < 400

    def test_former_stall_draw_ends_at_a_polished_witness(self):
        # the stall exit took this draw to 400 iterations before the polish
        g, _ = random_ni_system(306, 7, 1)
        sys = negated(g)
        cert = lmi_ni_certificate(sys)
        assert cert.iterations == 128
        self.check(sys, cert)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 10), m=st.integers(1, 3),
           feedthrough=st.booleans(), gain=st.sampled_from([1.0, 1e3]))
    def test_negated_draws_end_at_rechecked_witnesses(self, seed, n, m, feedthrough, gain):
        g, _ = random_ni_system(seed, n, min(n, m), with_feedthrough=feedthrough)
        sys = StateSpace(g.A, -gain * g.B, g.C, -gain * g.D)
        self.check(sys, lmi_ni_certificate(sys))


class TestNoFalseWitnessExit:
    # random_ni_system draws (seed, n, m, strict, with_feedthrough) and the
    # iteration counts of their Certified exits, recorded before the witness
    # exit existed, for alpha G with alpha = 1e-3, 1, 1e3 at tol 1e-8 and 1e-2
    CASES = [
        ((401, 1, 1, False, False), [1, 1, 1, 1, 1, 1]),
        ((401, 3, 2, True, True), [4, 2, 4, 4, 4, 4]),
        ((402, 5, 1, False, True), [4, 6, 4, 4, 4, 4]),
        ((403, 8, 2, True, False), [6, 7, 6, 5, 6, 6]),
        ((404, 10, 3, False, False), [5, 7, 5, 4, 5, 5]),
        ((405, 12, 2, True, True), [6, 8, 6, 4, 6, 6]),
    ]

    @pytest.mark.parametrize("draw, iterations", CASES)
    def test_feasible_draws_still_certify(self, draw, iterations):
        seed, n, m, strict, feedthrough = draw
        g, _ = random_ni_system(seed, n, m, strict=strict, with_feedthrough=feedthrough)
        got = []
        for alpha in (1e-3, 1.0, 1e3):
            for tol in (1e-8, 1e-2):
                sys = StateSpace(g.A, alpha * g.B, g.C, alpha * g.D)
                cert = lmi_ni_certificate(sys, tol=tol)
                assert cert.verdict is CertStatus.CERTIFIED
                got.append(cert.iterations)
        assert got == iterations


class TestPinnedDrRuns:
    """Verdict, iteration count and witness shape of DR runs: a rewrite of
    the iteration that keeps the algorithm and moves only rounding bits
    keeps all three, and the returned Y stays exactly symmetric."""

    # the dr_exits.json notches are the notches at w0 = 3.3 and 57
    DR_EXITS = {
        "neg_rand6": ("Infeasible", 8, (2, 6, 6)),
        "neg_rand20": ("Infeasible", 64, (2, 20, 20)),
        "notch3": ("MaxIterations", 5000, None),
        "notch57": ("MaxIterations", 5000, None),
    }
    NOTCHES = {0.47: ("MaxIterations", 5000, None), 12.9: ("MaxIterations", 5000, None)}
    # random_ni_system(500 + n, n, min(n, 1 + n % 3), D for even n): the draw
    # is Certified after the given count, and its negation ends as recorded
    DRAWS = {
        1: (1, ("Infeasible", 1, (2, 1, 1))),
        2: (1, ("Infeasible", 1, (2, 2, 2))),
        3: (5, ("Infeasible", 1, (2, 3, 3))),
        4: (5, ("Infeasible", 7, (2, 4, 4))),
        5: (4, ("Infeasible", 6, (2, 5, 5))),
        6: (5, ("Infeasible", 64, (2, 6, 6))),
        7: (7, ("Infeasible", 8, (2, 7, 7))),
        8: (10, ("Infeasible", 8, (2, 8, 8))),
        9: (5, ("Infeasible", 128, (2, 9, 9))),
        10: (6, ("Infeasible", 64, (2, 10, 10))),
        11: (5, ("Infeasible", 8, (2, 11, 11))),
        12: (7, ("Infeasible", 64, (2, 12, 12))),
    }

    @staticmethod
    def outcome(sys):
        cert = lmi_ni_certificate(sys)
        assert np.array_equal(cert.Y, cert.Y.T)
        witness = cert.infeasibility_witness
        # no Infeasible without a witness
        assert (cert.verdict is CertStatus.INFEASIBLE) == (witness is not None)
        return cert.verdict.value, cert.iterations, None if witness is None else witness.shape

    @pytest.mark.parametrize("name", list(DR_EXITS))
    def test_dr_exit_systems(self, name):
        assert self.outcome(dr_exit_system(name)) == self.DR_EXITS[name]

    # polish steps of the hint-free runs: ten full polishes (iterations 8 to
    # 4,096) and two (at 2,048 and 4,096) before the limit, and two steps to
    # the witness at iteration 8
    POLISH_STEPS = {"notch3": 10 * _POLISH_STEPS, "notch57": 2 * _POLISH_STEPS, "neg_rand6": 2}

    @pytest.mark.parametrize("name", list(POLISH_STEPS))
    def test_polish_steps(self, name):
        cert = lmi_ni_certificate(dr_exit_system(name))
        assert cert.polish_steps == self.POLISH_STEPS[name]

    @pytest.mark.parametrize("w0", list(NOTCHES))
    def test_notches(self, w0):
        assert self.outcome(notch(w0)) == self.NOTCHES[w0]

    @pytest.mark.parametrize("n", list(DRAWS))
    def test_random_draws(self, n):
        g, _ = random_ni_system(500 + n, n, min(n, 1 + n % 3), with_feedthrough=n % 2 == 0)
        certified, negated_outcome = self.DRAWS[n]
        assert self.outcome(g) == ("Certified", certified, None)
        assert self.outcome(negated(g)) == negated_outcome


class TestSniRankCondition:
    def test_matches_explicit_pencil(self, ctrl_half):
        cert = lmi_ni_certificate(ctrl_half)
        grid = FrequencyGrid(omega_min=1.0, omega_max=1.0 + 1e-9, points=2)
        value = sni_rank_condition(ctrl_half, cert, grid)
        pencil = np.array([[-1.0 - 1j, 1.0], [1.0, -1.0]])
        assert value == pytest.approx(min_singular_value(pencil), rel=1e-6)
        # 2x2 oracle: product of singular values is |det| = |j w| = 1
        svals = np.linalg.svd(pencil, compute_uv=False)
        assert svals[0] * svals[1] == pytest.approx(1.0, rel=1e-12)

    def test_strict_controller(self, ctrl_half):
        cert = lmi_ni_certificate(ctrl_half)
        np.testing.assert_allclose(cert.P, [[0.5]], atol=1e-8)
        np.testing.assert_allclose(cert.L, [[2.0]], atol=1e-7)
        assert sni_rank_condition(ctrl_half, cert, GRID) > 0
        assert cert.strict

    def test_lossless_rank_deficient(self, osc):
        cert = lmi_ni_certificate(osc)
        assert sni_rank_condition(osc, cert, GRID) == 0.0
        assert not cert.strict

    def test_requires_certificate(self, s_over):
        cert = lmi_ni_certificate(StateSpace([[-1.0]], [[1.0]], [[-1.0]], [[0.0]]))
        with pytest.raises(NotCertifiedError):
            sni_rank_condition(s_over, cert, GRID)


def touch_system(w0=1.0263):
    """Hurwitz and NI, with j(G(jw) - G(jw)*) >= 0 touching 0 at w0 only.

    Y = I and A = S - f f'/2 give L = f', and B = -A c makes W(s) = -s f' (sI - A)^-1 c;
    with det(sI - A) = s^3 + a2 s^2 + a1 s + a0, f' adj(j w0 I - A) c = 0 is the two real
    equations below."""
    S = np.array([[0.0, 1.0, 0.3], [-1.0, 0.0, 0.7], [-0.3, -0.7, 0.0]])
    f = np.array([[1.0, 0.4, 0.8]]).T
    A = S - f @ f.T / 2
    _, a2, a1, _ = np.poly(A)
    rows = np.vstack([f.T @ (A + a2 * np.eye(3)),
                      f.T @ (A @ A + a2 * A + (a1 - w0 ** 2) * np.eye(3))])
    c = np.linalg.svd(rows)[2][-1:].T
    return StateSpace(A, -A @ c, c.T, np.zeros((1, 1)), label="touch")


class TestStrictnessFromCrossings:
    def test_touch_between_grid_points_is_not_strict(self):
        sys = touch_system()
        assert sys.crossings == pytest.approx([1.0263, 1.0263], rel=1e-6)
        by_construction = certificate_from_y(sys, np.eye(3))
        for cert in (by_construction, lmi_ni_certificate(sys)):
            assert cert.certified
            sni_rank_condition(sys, cert)
            assert not cert.strict and from_crossings(sys)
        assert by_construction.rank_condition_min_sv < 1e-12

    def test_touch_between_grid_points_is_inconclusive(self):
        report = freq_sni_test(frequency_response(touch_system()))
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.warnings == ["j(G - G*) is singular at the crossing w = 1.0263"]

    def test_touch_controller_violates_controller_sni(self, ctrl_half):
        loop = check_hypotheses(ctrl_half, touch_system())
        assert loop.verdict.violated_hypotheses == ["controller_sni"]

    def test_certify_sni_on_a_grid_down_to_1e_8(self, capsys):
        # the grid minimum sat at w_min / 2 = 5e-9, below tol, for a system that is SNI
        code = main(["certify", str(GOLDEN / "systems.json"), "ctrl_half", "--property", "sni",
                     "--wmin", "1e-8"])
        results = json.loads(capsys.readouterr().out)["results"]
        lmi = results["lmi"]
        assert code == 0
        assert lmi["strict"] is True
        assert lmi["rank_condition_min_sv"] == pytest.approx(0.457, rel=1e-3)
        # the same minimum sits in the +/-tol band of the sweep, which no crossing splits
        assert results["frequency_sni"]["verdict"] == "SNI"

    def test_grid_end_band_without_a_crossing_is_sni(self, ctrl_half):
        resp = frequency_response(ctrl_half, FrequencyGrid(omega_min=1e-8))
        assert resp.ni_min_eig.min() <= DEFAULT_TOL
        report = freq_sni_test(resp)
        assert report.verdict is Verdict.SNI and report.warnings == []

    def test_band_with_a_confirmed_crossing_stays_inconclusive(self):
        touch = touch_system()
        sys = StateSpace(touch.A, 1e-7 * touch.B, touch.C, touch.D)
        report = freq_sni_test(frequency_response(sys))
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.warnings == ["sweep minimum 1.800e-10 inside the +/-1.0e-08 band"]

    def test_not_ni_sweep_evaluates_no_crossing(self, monkeypatch, capsys):
        # certify --property sni on notch3 evaluates G on the grid and at one crossing
        # interval, where NotNI is decided; the strict rule never evaluates its crossings
        points = []

        def counted(sys, s, tol_pole):
            points.append(np.asarray(s).imag)
            return resolvent_stack(sys, s, tol_pole)

        for module in (nistab.nicert, nistab.statespace):
            monkeypatch.setattr(module, "resolvent_stack", counted)
        code = main(["certify", str(GOLDEN / "dr_exits.json"), "notch3", "--property", "sni"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["results"]["frequency_sni"]["verdict"] == "NotNI"
        assert [p.size for p in points] == [FrequencyGrid().points, 1]
        crossings = dr_exit_system("notch3").crossings
        assert crossings.size == 2 and not np.isin(crossings, np.concatenate(points)).any()


class TestWTransferZeroCheck:
    def test_magnitude_formula(self, ctrl_half):
        # W(jw) = -jw/(jw + 1), |W| = w / sqrt(1 + w^2)
        cert = lmi_ni_certificate(ctrl_half)
        report = w_transfer_zero_check(frequency_response(ctrl_half, GRID), cert)
        assert report.passed
        for w, sv in zip(report.omegas[::20], report.min_sv[::20]):
            assert sv == pytest.approx(w / np.sqrt(1 + w**2), rel=1e-9)

    def test_value_at_unit_frequency(self, ctrl_half):
        cert = lmi_ni_certificate(ctrl_half)
        grid = FrequencyGrid(omega_min=1.0, omega_max=2.0, points=2)
        report = w_transfer_zero_check(frequency_response(ctrl_half, grid), cert)
        assert report.min_sv[0] == pytest.approx(1 / np.sqrt(2.0), rel=1e-9)

    def test_zero_factor_flagged_everywhere(self, osc):
        cert = lmi_ni_certificate(osc)
        report = w_transfer_zero_check(frequency_response(osc, GRID), cert)
        assert not report.passed
        assert len(report.flagged) == GRID.points


# A = blkdiag([[0, 1], [-1, 0]], -1): NI with poles at +-j, hence not SNI
MIXED = StateSpace([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
                   [[0.0], [1.0], [1.0]], [[1.0, 0.0, 1.0]], [[0.0]], label="mixed")
# 1/(s + 1)^2: SNI, and CB = 0 leaves the crossings undecided
SECOND_ORDER = StateSpace([[0.0, 1.0], [-1.0, -2.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]],
                          label="second-order")
# the one point sni_rank_condition evaluates when there is no crossing
UNIT_POINT = SimpleNamespace(omegas=lambda: np.ones(1))


def per_point_rank(sys, cert, grid):
    """Reference for sni_rank_condition: one pencil SVD per grid point."""
    L, P = cert.L, cert.P
    if L.shape[0] < sys.m:
        return 0.0
    lower = np.hstack([L @ P, -(L @ sys.C.T)])
    return min(min_singular_value(np.vstack([
        np.hstack([sys.A - 1j * float(w) * np.eye(sys.n), sys.B]), lower]))
        for w in grid.omegas())


def full_stack_rank(sys, cert, grid):
    """Reference for sni_rank_condition: the minimum of one SVD stack over every grid point."""
    L, P = cert.L, cert.P
    if L.shape[0] < sys.m:
        return 0.0
    omegas = grid.omegas()
    top = np.concatenate([sys.A - 1j * omegas[:, np.newaxis, np.newaxis] * np.eye(sys.n),
                          np.broadcast_to(sys.B, (omegas.size, sys.n, sys.m))], axis=2)
    lower = np.broadcast_to(np.hstack([L @ P, -(L @ sys.C.T)]),
                            (omegas.size, L.shape[0], sys.n + sys.m))
    return float(min_singular_value(np.concatenate([top, lower], axis=1)).min())


def per_point_w(sys, cert, grid, tol=1e-8):
    """Reference for w_transfer_zero_check: one solve and one SVD per grid point;
    None where the solve raises."""
    L = cert.L
    LP, LCt = L @ cert.P, L @ sys.C.T
    omegas = grid.omegas()
    values, flagged = [], []
    for w in omegas:
        w = float(w)
        if L.shape[0] == 0:
            values.append(0.0)
            flagged.append(w)
            continue
        try:
            W = LP @ np.linalg.solve(1j * w * np.eye(sys.n) - sys.A, sys.B.astype(complex)) - LCt
        except np.linalg.LinAlgError:
            values.append(None)
            continue
        sv = min_singular_value(W) if L.shape[0] >= sys.m else 0.0
        values.append(sv)
        if sv < tol and w > omegas[0]:
            flagged.append(w)
    origin = next((v for v in values if v is not None), 0.0)
    return values, flagged, origin


def _certified_systems():
    out = [(StateSpace([[-1.0]], [[1.0]], [[0.5]], [[0.0]]), None),
           (StateSpace([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]]), None),
           (MIXED, None)]
    # Y = I and a rank-one dissipation: L has one row for two inputs
    rng = np.random.default_rng(0)
    T, f, C = rng.standard_normal((3, 3)), rng.standard_normal((3, 1)), rng.standard_normal((2, 3))
    A = (T - T.T) / 2 - f @ f.T / 2
    thin = StateSpace(A, -A @ C.T, C, np.zeros((2, 2)))
    out.append((thin, certificate_from_y(thin, np.eye(3))))
    for seed in range(8):
        n = 1 + seed % 5
        m = min(n, 1 + seed % 3)
        out.append(random_ni_system(seed, n, m, strict=True, with_feedthrough=seed % 2 == 1))
        out.append(random_ni_system(100 + seed, n, m, strict=False))
    return [(sys, cert or lmi_ni_certificate(sys)) for sys, cert in out]


def from_crossings(sys):
    """Whether sni_rank_condition decides the strictness of ``sys`` from the crossings."""
    return sys.pole_classes()[3] and sys.crossings is not None


def counted_rows(monkeypatch, keep=lambda M: True):
    """Rows of the stacks that nistab.nicert hands min_singular_value from here on,
    those ``keep`` accepts."""
    rows = []

    def counted(M):
        if keep(M):
            rows.append(M.shape[0])
        return min_singular_value(M)

    monkeypatch.setattr(nistab.nicert, "min_singular_value", counted)
    return rows


class TestStackedStrictnessChecks:
    GRIDS = (FrequencyGrid(), GRID,
             FrequencyGrid(omega_min=0.5, omega_max=1.5, points=101, spacing="linear"))

    # osc, MIXED and the thin L system: no decided crossings or no Hurwitz A
    FALLBACK = 3

    def test_match_per_point_reference(self):
        # the grid fallback is the per-point minimum, bit for bit
        masked = fallback = 0
        for sys, cert in _certified_systems():
            assert cert.certified
            for grid in self.GRIDS:
                rank = sni_rank_condition(sys, cert, grid)
                if not from_crossings(sys):
                    fallback += 1
                    assert np.float64(rank).tobytes() == np.float64(
                        per_point_rank(sys, cert, grid)).tobytes()
                masked += self.assert_matches_per_point_w(frequency_response(sys, grid), cert)
        assert fallback == self.FALLBACK * len(self.GRIDS)
        assert masked > 0  # w = 1 on the linear grid is an exact pole of MIXED

    @staticmethod
    def assert_matches_per_point_w(resp, cert):
        """w_transfer_zero_check on ``resp`` equals per_point_w bit for bit on the full
        path, which a certificate that is not strict takes; returns the number of
        masked points."""
        values, flagged, origin = per_point_w(resp.sys, cert, resp.grid)
        report = w_transfer_zero_check(resp, dataclasses.replace(cert, strict=False))
        assert np.array_equal(report.omegas, resp.grid.omegas())
        none = np.array([v is None for v in values])
        np.testing.assert_array_equal(np.isnan(report.min_sv), none)
        kept = np.array([v for v in values if v is not None], dtype=float)
        assert report.min_sv[~none].tobytes() == kept.tobytes()
        assert report.flagged == flagged
        assert report.origin_value == origin
        assert report.passed is (not flagged)
        return int(none.sum())

    # MIXED, not osc: the empty L of osc never reads X
    @pytest.mark.parametrize("grid, tol_pole, statuses", [
        # w = 0.99 is excluded but solvable; w = 1 is an exact pole
        (FrequencyGrid(0.9, 1.1, 21, "linear"), 1e-12, ["excluded", "excluded"]),
        (FrequencyGrid(), 0.05, ["near-pole", "near-pole"]),
        (FrequencyGrid(1.0, 2.0, 11, "linear"), 1e-12, ["excluded"]),
    ])
    def test_non_ok_points_match_per_point_reference(self, grid, tol_pole, statuses):
        cert = lmi_ni_certificate(MIXED)
        assert cert.L.shape[0] > 0
        resp = frequency_response(MIXED, grid, tol_pole=tol_pole)
        assert resp.status[resp.status != "ok"].tolist() == statuses
        masked = self.assert_matches_per_point_w(resp, cert)
        assert masked == int(1.0 in grid.omegas())  # only the exact pole is masked

    # one point, two points, twelve decades, and a linear grid that starts on the poles
    # +-j of MIXED; a grid is anything with omegas()
    HARD_GRIDS = (SimpleNamespace(omegas=lambda: np.array([0.7])),
                  FrequencyGrid(points=2),
                  FrequencyGrid(omega_min=1e-6, omega_max=1e6),
                  FrequencyGrid(omega_min=1.0, omega_max=2.0, points=11, spacing="linear"))

    @pytest.mark.parametrize("gain", [1e-3, 1.0, 1e3])
    def test_rank_matches_per_point_reference_on_hard_cases(self, gain):
        # G -> gain G keeps the certificate with Y -> gain Y, and scales the pencil's rows;
        # the fallback systems stay the fallback ones, and match on every grid
        fallback = 0
        for sys, cert in _certified_systems():
            scaled = StateSpace(sys.A, gain * sys.B, sys.C, gain * sys.D, label=sys.label)
            cert = certificate_from_y(scaled, gain * cert.Y)
            for grid in self.GRIDS + self.HARD_GRIDS:
                rank = sni_rank_condition(scaled, cert, grid)
                if not from_crossings(scaled):
                    fallback += 1
                    assert np.float64(rank).tobytes() == np.float64(
                        per_point_rank(scaled, cert, grid)).tobytes()
                    assert rank == full_stack_rank(scaled, cert, grid)
        assert fallback == self.FALLBACK * len(self.GRIDS + self.HARD_GRIDS)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 8), m=st.integers(1, 3),
           strict=st.booleans(), gain=st.sampled_from([1e-3, 1e-1, 1.0, 10.0, 1e3]))
    def test_crossing_verdict_is_the_full_stack_verdict(self, seed, n, m, strict, gain):
        # on the default grid, strictness from the crossings is the grid's verdict, and
        # with no crossing the minimum is the pencil's at w = 1, bit for bit
        sys, cert = random_ni_system(seed, n, min(n, m), strict=strict)
        sys = StateSpace(sys.A, gain * sys.B, sys.C, gain * sys.D)
        cert = certificate_from_y(sys, gain * cert.Y)
        rank = sni_rank_condition(sys, cert)
        assert from_crossings(sys)
        assert cert.strict is (full_stack_rank(sys, cert, FrequencyGrid()) > 1e-8)
        if not sys.crossings.size:
            assert np.float64(rank).tobytes() == np.float64(
                full_stack_rank(sys, cert, UNIT_POINT)).tobytes()

    def test_crossing_decided_certify_takes_one_pencil_row(self, tmp_path, monkeypatch):
        sys, _ = random_ni_system(3, 12, 2, strict=True)
        path = tmp_path / "strict.json"
        path.write_text(json.dumps({"schema_version": "1", "systems": {
            "g": {k: getattr(sys, k).tolist() for k in "ABCD"}}}))
        # the pencil is (n + p) x (n + m), W p x m
        pencils = counted_rows(monkeypatch, lambda M: M.shape[-1] == sys.n + sys.m)
        assert main(["certify", str(path), "g", "--property", "sni"]) == 0
        assert sum(pencils) == 1

    def test_small_gains_take_one_pencil_row(self, monkeypatch):
        # 1e-2 G took 277 pencil SVDs under the grid's pruning bounds.  The draw (2, 3, 3)
        # has cond(R) = 1.3e6 and, at 1e-3 G and 1e3 G, one crossing from the split of
        # the w = 0 cluster that j(G - G*) > 0 there does not confirm
        for draw, gain, crossings in (((5, 4, 1, True), 1e-2, 0), ((2, 3, 3, False), 1e-3, 1),
                                      ((2, 3, 3, False), 1e3, 1)):
            sys, cert = random_ni_system(*draw[:3], strict=draw[3])
            sys = StateSpace(sys.A, gain * sys.B, sys.C, gain * sys.D)
            cert = certificate_from_y(sys, gain * cert.Y)
            assert sys.crossings.size == crossings
            pencils = counted_rows(monkeypatch)
            rank = sni_rank_condition(sys, cert)
            monkeypatch.undo()
            assert sum(pencils) == 1
            assert cert.strict and from_crossings(sys)
            assert rank == full_stack_rank(sys, cert, UNIT_POINT)

    def test_skip_keeps_the_verdict(self):
        # after a rank condition, a certificate strict from the crossings takes the W SVD
        # at its first solvable point only, and any other at every solvable point; every
        # value computed is the full path's, bit for bit, and the origin value is
        # per_point_w's.  Strict on a grid (the fallback), or not strict, the flags are
        # per_point_w's too, and the fallback's are empty on its own grid.  Strict from
        # the crossings, nothing is flagged on any grid: per_point_w flags the low end of
        # the twelve-decade grid at 1e-3 G only because W(0) = 0
        systems = _certified_systems() + [(SECOND_ORDER, lmi_ni_certificate(SECOND_ORDER))]
        grids = [g for g in self.GRIDS + self.HARD_GRIDS if isinstance(g, FrequencyGrid)]
        kinds = collections.Counter()
        for gain in (1e-3, 1.0, 1e3):
            for sys, cert in systems:
                sys = StateSpace(sys.A, gain * sys.B, sys.C, gain * sys.D, label=sys.label)
                cert = certificate_from_y(sys, gain * cert.Y)
                for grid in grids:
                    sni_rank_condition(sys, cert, grid)
                    resp = frequency_response(sys, grid)
                    _, flagged, origin = per_point_w(sys, cert, grid)
                    report = w_transfer_zero_check(resp, cert)
                    full = w_transfer_zero_check(resp, dataclasses.replace(cert, strict=False))
                    computed = ~np.isnan(report.min_sv)
                    assert report.min_sv[computed].tobytes() == full.min_sv[computed].tobytes()
                    assert report.origin_value == origin
                    solvable = int((~np.isnan(full.min_sv)).sum())
                    if cert.strict and from_crossings(sys):
                        assert int(computed.sum()) == min(solvable, 1)
                        assert report.flagged == [] and report.passed
                        kinds["flags past W(0) = 0" if flagged else "strict"] += 1
                        assert not flagged or (gain == 1e-3 and grid.omega_min == 1e-6)
                        continue
                    assert int(computed.sum()) == solvable
                    assert (report.flagged, report.passed) == (flagged, not flagged)
                    if cert.strict:
                        assert not flagged
                        kinds["strict on the grid"] += 1
                    else:
                        assert not from_crossings(sys)
                        kinds["not strict"] += 1
        assert kinds["flags past W(0) = 0"] and kinds["strict on the grid"] and kinds["not strict"]

    def test_rank_condition_on_another_grid_evaluates_every_point(self, monkeypatch):
        # strictness on a grid (the fallback: R = 0 here) does not reach another grid
        cert = lmi_ni_certificate(SECOND_ORDER)
        sni_rank_condition(SECOND_ORDER, cert, GRID)
        assert cert.strict and not from_crossings(SECOND_ORDER)
        resp = frequency_response(SECOND_ORDER, FrequencyGrid())
        rows = counted_rows(monkeypatch)
        report = w_transfer_zero_check(resp, cert)
        assert sum(rows) == FrequencyGrid().points
        assert not np.isnan(report.min_sv).any()

    def test_strict_certify_takes_one_w_svd(self, tmp_path, monkeypatch, capsys):
        sys, _ = random_ni_system(3, 12, 2, strict=True)
        path = tmp_path / "strict.json"
        path.write_text(json.dumps({"schema_version": "1", "systems": {
            "g": {k: getattr(sys, k).tolist() for k in "ABCD"}}}))
        # W is p x m, the pencil (n + p) x (n + m)
        w_rows = counted_rows(monkeypatch, lambda M: M.ndim == 3 and M.shape[-1] == sys.m)
        assert main(["certify", str(path), "g", "--property", "sni"]) == 0
        monkeypatch.undo()
        assert sum(w_rows) == 1
        lmi = json.loads(capsys.readouterr().out)["results"]["lmi"]
        assert lmi["strict"] is True
        assert not sys.crossings.size
        assert lmi["rank_condition_min_sv"] == full_stack_rank(sys, lmi_ni_certificate(sys),
                                                               UNIT_POINT)

    def test_origin_value_skips_a_masked_point(self):
        cert = lmi_ni_certificate(MIXED)
        grid = FrequencyGrid(omega_min=1.0, omega_max=2.0, points=11, spacing="linear")
        values, flagged, origin = per_point_w(MIXED, cert, grid)
        report = w_transfer_zero_check(frequency_response(MIXED, grid), cert)
        assert values[0] is None and np.isnan(report.min_sv[0])
        assert report.origin_value == origin == values[1]
        assert report.flagged == flagged


class TestRandomNiSystem:
    def test_deterministic(self):
        a, _ = random_ni_system(5, 3, 2)
        b, _ = random_ni_system(5, 3, 2)
        assert np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B)
        assert np.array_equal(a.C, b.C) and np.array_equal(a.D, b.D)

    def test_generated_systems_are_ni(self):
        for seed in range(6):
            sys, cert = random_ni_system(seed, 3, 1, strict=False)
            assert cert.certified
            assert freq_ni_test(frequency_response(sys, GRID)).verdict is Verdict.NI

    def test_strict_systems_pass_both_certifiers(self):
        for seed in range(4):
            sys, cert = random_ni_system(seed, 3, 1, strict=True)
            assert cert.strict
            assert freq_sni_test(frequency_response(sys, GRID)).verdict is Verdict.SNI

    def test_strict_with_more_inputs_than_states_fails_before_drawing(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("random_ni_system drew a system")
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(GenerationFailedError, match="L has at most n rows"):
            random_ni_system(5, 1, 3, strict=True)

    def test_by_construction_certificate_is_valid(self):
        sys, cert = random_ni_system(9, 4, 2, with_feedthrough=True)
        assert cert.lyap_residual >= -1e-10
        assert cert.coupling_residual <= 1e-10
        assert cert.factor_residual <= 1e-10


class TestInvariances:
    def test_scaling_preserves_ni(self):
        sys, _ = random_ni_system(13, 3, 2)
        for alpha in (0.1, 7.0):
            scaled = StateSpace(sys.A, alpha * sys.B, sys.C, alpha * sys.D)
            assert freq_ni_test(frequency_response(scaled, GRID)).verdict is Verdict.NI
            assert lmi_ni_certificate(scaled).certified

    def test_scaling_preserves_not_ni(self, s_over):
        scaled = StateSpace(s_over.A, 3.0 * s_over.B, s_over.C, 3.0 * s_over.D)
        assert freq_ni_test(frequency_response(scaled, GRID)).verdict is Verdict.NOT_NI
        assert lmi_ni_certificate(scaled).verdict is CertStatus.INFEASIBLE

    def test_transpose_symmetry(self):
        # G(s)^T realized as (A^T, C^T, B^T, D^T) keeps the NI verdict
        sys, _ = random_ni_system(17, 4, 2)
        transposed = StateSpace(sys.A.T, sys.C.T, sys.B.T, sys.D.T)
        assert freq_ni_test(frequency_response(transposed, GRID)).verdict is Verdict.NI
        assert lmi_ni_certificate(transposed).certified
        not_ni = StateSpace(sys.A.T, -sys.C.T, sys.B.T, sys.D.T)
        assert freq_ni_test(frequency_response(not_ni, GRID)).verdict is Verdict.NOT_NI
        assert lmi_ni_certificate(not_ni).verdict is CertStatus.INFEASIBLE


class TestThreeWayAgreement:
    def test_mini_suite(self):
        from nistab.selftest import suite_three_way_agreement

        res = suite_three_way_agreement(seed=123, cases=24, grid=GRID)
        assert res.failed == 0, res.failures
        assert res.inconclusive <= 1
