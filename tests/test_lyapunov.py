"""Block Gram matrix, equivalence with the DC-gain bound, dissipation identity."""

import collections

import numpy as np
import pytest

from nistab import (
    StateSpace,
    block_gram,
    closed_loop,
    dc_gain_condition,
    dissipation_integral_check,
    gram_dc_equivalence,
    lmi_ni_certificate,
    lyapunov_derivative,
    make_state,
    random_ni_system,
    simulate,
)
from nistab.exceptions import DimensionError, NotCertifiedError
from nistab.lyapunov import worst_derivative_residual
from nistab.nicert import certificate_from_y
from nistab.selftest import random_certified_pair


@pytest.fixture
def worked(osc, ctrl_half):
    pcert = lmi_ni_certificate(osc)
    ccert = lmi_ni_certificate(ctrl_half)
    lyap = block_gram(pcert.P, ccert.P, osc, ctrl_half)
    return osc, ctrl_half, pcert, ccert, lyap


class TestBlockGram:
    def test_worked_positive_definite(self, worked):
        *_, lyap = worked
        expected = np.array([[1.0, 0.0, -0.5], [0.0, 1.0, 0.0], [-0.5, 0.0, 0.5]])
        np.testing.assert_allclose(lyap.Q, expected, atol=1e-7)
        assert lyap.min_eig_Q > 0

    def test_indefinite_when_gain_large(self, osc, ctrl_two):
        pcert = lmi_ni_certificate(osc)
        ccert = lmi_ni_certificate(ctrl_two)
        np.testing.assert_allclose(ccert.P, [[2.0]], atol=1e-7)
        lyap = block_gram(pcert.P, ccert.P, osc, ctrl_two)
        expected = np.array([[1.0, 0.0, -2.0], [0.0, 1.0, 0.0], [-2.0, 0.0, 2.0]])
        np.testing.assert_allclose(lyap.Q, expected, atol=1e-6)
        assert lyap.min_eig_Q < 0
        # trailing 2x2 principal minor is negative
        assert np.linalg.det(expected[np.ix_([0, 2], [0, 2])]) == pytest.approx(-2.0)

    def test_decoupled_blocks(self, ctrl_half):
        plant = StateSpace([[-1.0]], [[0.0]], [[0.0]], [[0.0]])
        pcert_p = np.array([[3.0]])
        lyap = block_gram(pcert_p, np.array([[0.5]]), plant, ctrl_half)
        np.testing.assert_allclose(lyap.Q, np.diag([3.0, 0.5]))
        assert lyap.min_eig_Q > 0

    def test_dimension_mismatch(self, osc, ctrl_half):
        with pytest.raises(DimensionError):
            block_gram(np.eye(3), np.array([[0.5]]), osc, ctrl_half)


class TestGramDcEquivalence:
    def test_agree_positive(self, osc, ctrl_half):
        rep = gram_dc_equivalence(osc, ctrl_half, np.eye(2), np.array([[0.5]]))
        assert rep.agree and not rep.borderline
        assert rep.min_eig_Q > 0 and rep.lambda_max == pytest.approx(0.5)

    def test_agree_negative(self, osc, ctrl_two):
        rep = gram_dc_equivalence(osc, ctrl_two, np.eye(2), np.array([[2.0]]))
        assert rep.agree and not rep.borderline
        assert rep.min_eig_Q < 0 and rep.lambda_max == pytest.approx(2.0)

    def test_borderline_flagged(self, osc, ctrl_one):
        # lambda_max = 1 exactly; Q = [[1,0,-1],[0,1,0],[-1,0,1]] is singular
        rep = gram_dc_equivalence(osc, ctrl_one, np.eye(2), np.array([[1.0]]))
        assert rep.borderline
        assert abs(rep.min_eig_Q) <= 1e-9 and rep.lambda_max == pytest.approx(1.0)


def storage_terms(state, lyap):
    """x^T Q x, V1 + V2 - 2 y1^T y2 and the feedthrough correction y1^T D2 y1 + y2^T D1 y2,
    whose sum with the second equals the first at any state solved by ``make_state``."""
    x = state.x
    value = float(x @ lyap.Q @ x)
    alternative = (float(state.x1 @ lyap.P1 @ state.x1) + float(state.x2 @ lyap.P2 @ state.x2)
                   - 2.0 * float(state.y1 @ state.y2))
    correction = (float(state.y1 @ lyap.controller.D @ state.y1)
                  + float(state.y2 @ lyap.plant.D @ state.y2))
    return value, alternative, correction


class TestLyapunovValue:
    def test_zero_state(self, worked):
        plant, ctrl, *_cs, lyap = worked
        state = make_state(plant, ctrl, np.zeros(2), np.zeros(1))
        assert storage_terms(state, lyap) == (0.0, 0.0, 0.0)

    def test_positive_definite_values(self, worked):
        plant, ctrl, *_cs, lyap = worked
        rng = np.random.default_rng(0)
        for _ in range(10):
            state = make_state(plant, ctrl, rng.standard_normal(2), rng.standard_normal(1))
            assert storage_terms(state, lyap)[0] > 0

    def test_worked_unit_value(self, worked):
        plant, ctrl, *_cs, lyap = worked
        state = make_state(plant, ctrl, np.array([1.0, 0.0]), np.array([0.0]))
        value, alternative, correction = storage_terms(state, lyap)
        assert value == pytest.approx(1.0, abs=1e-7)
        assert abs(value - alternative - correction) <= 1e-10

    def test_alternative_evaluation_agrees(self, worked):
        plant, ctrl, *_cs, lyap = worked
        state = make_state(plant, ctrl, np.array([0.3, -0.7]), np.array([0.2]))
        value, alternative, correction = storage_terms(state, lyap)
        # strictly proper blocks: correction vanishes, both forms coincide
        assert correction == 0.0
        assert value == pytest.approx(alternative, abs=1e-9)

    def test_feedthrough_correction_path(self):
        plant, pcert, ctrl, ccert = random_certified_pair(77, 0.6, n1=3, n2=2, m=2)
        assert np.linalg.norm(ctrl.D) > 0  # controller carries feedthrough
        lyap = block_gram(pcert.P, ccert.P, plant, ctrl)
        rng = np.random.default_rng(1)
        state = make_state(plant, ctrl, rng.standard_normal(3), rng.standard_normal(2))
        value, alternative, correction = storage_terms(state, lyap)
        assert correction != 0.0
        assert abs(value - alternative - correction) <= 1e-10 * max(1.0, abs(value))

    def test_mismatched_state_rejected(self, worked):
        # the identity needs the loop constraint: outputs that break it break the identity
        plant, ctrl, *_cs, lyap = worked
        bad = make_state(plant, ctrl, np.array([1.0, 0.0]), np.array([1.0]))
        bad.y1 = bad.y1 + 1.0
        value, alternative, correction = storage_terms(bad, lyap)
        assert abs(value - alternative - correction) > 0.1


class TestLyapunovDerivative:
    def test_zero_state(self, worked):
        plant, ctrl, pcert, ccert, lyap = worked
        cl = closed_loop(plant, ctrl)
        state = make_state(plant, ctrl, np.zeros(2), np.zeros(1))
        chk = lyapunov_derivative(state, cl, (pcert, ccert), lyap)
        assert chk.vdot_quadratic == 0.0 and chk.vdot_dissipation == 0.0

    def test_dissipation_is_nonpositive(self, worked):
        plant, ctrl, pcert, ccert, lyap = worked
        cl = closed_loop(plant, ctrl)
        rng = np.random.default_rng(2)
        for _ in range(20):
            state = make_state(plant, ctrl, rng.standard_normal(2), rng.standard_normal(1))
            chk = lyapunov_derivative(state, cl, (pcert, ccert), lyap)
            assert chk.vdot_dissipation <= 0.0

    def test_worked_identity_at_unit_state(self, worked):
        plant, ctrl, pcert, ccert, lyap = worked
        cl = closed_loop(plant, ctrl)
        state = make_state(plant, ctrl, np.array([1.0, 0.0]), np.array([0.0]))
        chk = lyapunov_derivative(state, cl, (pcert, ccert), lyap)
        assert chk.residual <= 1e-9
        # hand value: A_cl' Q + Q A_cl = [[-1,0,1],[0,0,0],[1,0,-1]] at e1 gives -1
        assert chk.vdot_quadratic == pytest.approx(-1.0, abs=1e-6)

    def test_hand_derivative_matrix(self, worked):
        plant, ctrl, *_cs, lyap = worked
        cl = closed_loop(plant, ctrl)
        M = cl.A_cl.T @ lyap.Q + lyap.Q @ cl.A_cl
        expected = np.array([[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, -1.0]])
        np.testing.assert_allclose(M, expected, atol=1e-6)

    def test_requires_certificates(self, worked, s_over):
        plant, ctrl, pcert, _, lyap = worked
        bad = lmi_ni_certificate(StateSpace([[-1.0]], [[1.0]], [[-1.0]], [[0.0]]))
        state = make_state(plant, ctrl, np.zeros(2), np.zeros(1))
        with pytest.raises(NotCertifiedError):
            lyapunov_derivative(state, closed_loop(plant, ctrl), (pcert, bad), lyap)

    def test_sign_mutation_is_caught(self, worked):
        # flipping the sign of the L C' u term must break the identity; this
        # is the mutation the derivative property exists to catch
        plant, ctrl, pcert, ccert, lyap = worked
        cl = closed_loop(plant, ctrl)
        state = make_state(plant, ctrl, np.array([1.0, 0.0]), np.array([0.5]))
        mutated = ccert.L @ (ccert.P @ state.x2) + ccert.L @ (ctrl.C.T @ state.u2)
        vdot_quad = float(state.x @ (cl.A_cl.T @ lyap.Q + lyap.Q @ cl.A_cl) @ state.x)
        vdot_bad = -float(mutated @ mutated)
        assert abs(vdot_quad - vdot_bad) > 1e-3

    def test_identity_on_random_interconnections(self):
        rng = np.random.default_rng(3)
        for seed in (101, 202):
            plant, pcert, ctrl, ccert = random_certified_pair(seed, 0.8, n1=3, n2=3, m=2)
            lyap = block_gram(pcert.P, ccert.P, plant, ctrl)
            cl = closed_loop(plant, ctrl)
            scale_q = max(1.0, np.linalg.norm(lyap.Q, 2), np.linalg.norm(cl.A_cl, 2))
            for _ in range(100):
                state = make_state(plant, ctrl, rng.standard_normal(3),
                                   rng.standard_normal(3))
                chk = lyapunov_derivative(state, cl, (pcert, ccert), lyap)
                scale = max(1.0, float(state.x @ state.x) * scale_q)
                assert chk.residual <= 1e-7 * scale


def rank_deficient_plant(rng, n, m, r):
    """An NI plant A = (S - W/2) Y^-1, B = -A Y C' from Y > 0, a skew S and W = F F' with
    F of shape n x r, and its certificate from that Y.  W is singular for r < n, and r = 0
    makes the plant lossless: A Y + Y A' = 0, every pole on the imaginary axis."""
    Qm, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Y = Qm @ np.diag(rng.uniform(0.5, 2.0, n)) @ Qm.T
    T = rng.standard_normal((n, n))
    F = rng.standard_normal((n, r)) / np.sqrt(n)
    A = ((T - T.T) / 2 - F @ F.T / 2) @ np.linalg.inv(Y)
    C = rng.standard_normal((m, n))
    plant = StateSpace(A, -A @ Y @ C.T, C, np.zeros((m, m)), label=f"rank-{r}")
    return plant, certificate_from_y(plant, Y)


class TestLosslessPlants:
    """The paper's NI plants may have lossless modes or a singular W; its Lyapunov claims
    hold for those as for W > 0."""

    def test_claims_hold_for_lossless_and_rank_deficient_plants(self):
        rng = np.random.default_rng(16)
        hurwitz = collections.Counter()
        for k in range(60):
            n = (2, 4, 6, 8)[k % 4]  # even n: a lossless A = S Y^-1 of odd size is singular
            m = 1 + k % 2
            r = int(rng.integers(0, n))
            plant, pcert = rank_deficient_plant(rng, n, m, r)
            ctrl0, ccert0 = random_ni_system(int(rng.integers(0, 2**31)), int(rng.integers(2, 5)),
                                             m, strict=True, with_feedthrough=k % 3 == 0)
            lam = float(rng.uniform(0.2, 0.95) if k % 2 else rng.uniform(1.05, 2.5))
            alpha = lam / dc_gain_condition(plant, ctrl0)[0]
            ctrl = StateSpace(ctrl0.A, alpha * ctrl0.B, ctrl0.C, alpha * ctrl0.D)
            ccert = certificate_from_y(ctrl, alpha * ccert0.Y)
            assert dc_gain_condition(plant, ctrl)[0] == pytest.approx(lam, rel=1e-9)
            assert gram_dc_equivalence(plant, ctrl, pcert.P, ccert.P).agree
            lyap = block_gram(pcert.P, ccert.P, plant, ctrl)
            cl = closed_loop(plant, ctrl)
            scale_q = max(1.0, np.linalg.norm(lyap.Q, 2), np.linalg.norm(cl.A_cl, 2))
            X = rng.standard_normal((20, cl.n))
            assert worst_derivative_residual(cl, (pcert, ccert), lyap, X, scale_q) <= 1e-12
            stable = bool(cl.eigenvalues.real.max() < 0)
            assert stable is (lam < 1)
            hurwitz[r == 0, stable] += 1
        # lossless plants on both sides of lambda = 1
        assert hurwitz[True, True] and hurwitz[True, False]


class TestStackedStates:
    """One call over a stack of states against one call per state, bit for bit."""

    @pytest.fixture
    def pair(self):
        return random_certified_pair(77, 0.6, n1=3, n2=2, m=2)  # D1 = 0, D2 != 0

    @pytest.mark.parametrize("swap", [False, True], ids=["D2-nonzero", "D1-nonzero"])
    def test_make_state(self, pair, swap):
        plant, _, ctrl, _ = pair
        if swap:
            plant, ctrl = ctrl, plant
        assert (np.linalg.norm(plant.D) > 0, np.linalg.norm(ctrl.D) > 0) == (swap, not swap)
        X = np.random.default_rng(4).standard_normal((25, plant.n + ctrl.n))
        stacked = make_state(plant, ctrl, X[:, :plant.n], X[:, plant.n:])
        loop = np.eye(plant.m) - plant.D @ ctrl.D
        for k, x in enumerate(X):
            one = make_state(plant, ctrl, x[:plant.n], x[plant.n:])
            y1 = np.linalg.solve(loop, plant.C @ one.x1 + plant.D @ (ctrl.C @ one.x2))
            np.testing.assert_array_equal(one.y1, y1)
            np.testing.assert_array_equal(one.y2, ctrl.C @ one.x2 + ctrl.D @ y1)
            for name in ("x1", "x2", "u1", "u2", "y1", "y2", "x"):
                np.testing.assert_array_equal(getattr(stacked, name)[k], getattr(one, name))

    def test_make_state_rejects_unequal_leading_shapes(self, pair):
        plant, _, ctrl, _ = pair
        with pytest.raises(DimensionError):
            make_state(plant, ctrl, np.zeros((4, 3)), np.zeros((3, 2)))
        with pytest.raises(DimensionError):
            make_state(plant, ctrl, np.zeros((4, 3)), np.zeros(2))

    def test_lyapunov_derivative(self, pair):
        plant, pcert, ctrl, ccert = pair
        cl = closed_loop(plant, ctrl)
        lyap = block_gram(pcert.P, ccert.P, plant, ctrl)
        M = cl.A_cl.T @ lyap.Q + lyap.Q @ cl.A_cl
        X = np.random.default_rng(5).standard_normal((25, cl.n))
        stacked = lyapunov_derivative(make_state(plant, ctrl, X[:, :3], X[:, 3:]), cl,
                                      (pcert, ccert), lyap)
        for k, x in enumerate(X):
            state = make_state(plant, ctrl, x[:3], x[3:])
            one = lyapunov_derivative(state, cl, (pcert, ccert), lyap)
            yt1 = pcert.L @ (pcert.P @ state.x1) - pcert.L @ (plant.C.T @ state.u1)
            yt2 = ccert.L @ (ccert.P @ state.x2) - ccert.L @ (ctrl.C.T @ state.u2)
            vdot_quad = float(state.x @ M @ state.x)
            vdot_diss = -float(yt1 @ yt1) - float(yt2 @ yt2)
            assert (one.vdot_quadratic, one.vdot_dissipation) == (vdot_quad, vdot_diss)
            assert one.residual == abs(vdot_quad - vdot_diss)
            assert stacked.vdot_quadratic[k] == vdot_quad
            assert stacked.vdot_dissipation[k] == vdot_diss
            assert stacked.residual[k] == one.residual
            np.testing.assert_array_equal(stacked.ytilde1[k], yt1)
            np.testing.assert_array_equal(stacked.ytilde2[k], yt2)


class TestDissipationIntegral:
    def test_zero_initial_state(self, worked):
        plant, ctrl, pcert, ccert, lyap = worked
        cl = closed_loop(plant, ctrl)
        trace = simulate(cl, np.zeros(3), 1.0, 1e-2, certs=(pcert, ccert))
        rep = dissipation_integral_check(trace)
        assert rep.integral == pytest.approx(0.0, abs=1e-15) and rep.passed

    def test_worked_trace_bounded_by_v0(self, worked):
        plant, ctrl, pcert, ccert, lyap = worked
        cl = closed_loop(plant, ctrl)
        trace = simulate(cl, np.array([1.0, 0.0, 0.0]), 50.0, 1e-2, certs=(pcert, ccert))
        rep = dissipation_integral_check(trace, tol_int=1e-6)
        assert rep.passed
        assert rep.v0 == pytest.approx(1.0, abs=1e-7)
        # the plant is lossless, so the bound is tight: integral approaches V(0)
        assert rep.integral == pytest.approx(1.0, abs=1e-4)

    def test_dt_refinement(self, worked):
        plant, ctrl, pcert, ccert, lyap = worked
        cl = closed_loop(plant, ctrl)
        vals = []
        for dt in (1e-2, 5e-3):
            trace = simulate(cl, np.array([1.0, 0.0, 0.0]), 20.0, dt, certs=(pcert, ccert))
            vals.append(dissipation_integral_check(trace).integral)
        assert abs(vals[0] - vals[1]) < 1e-4

    def test_ytilde2_zero_forces_trivial_solution(self, ctrl_half):
        # inject ytilde2 = 0 into the pencil: only x2 = u2 = 0 solves it
        cert = lmi_ni_certificate(ctrl_half)
        for omega in (0.3, 1.0, 4.0):
            pencil = np.block([
                [ctrl_half.A - 1j * omega * np.eye(1), ctrl_half.B],
                [cert.L @ cert.P, -cert.L @ ctrl_half.C.T],
            ])
            assert np.linalg.svd(pencil, compute_uv=False).min() > 0.1
