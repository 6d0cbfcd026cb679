"""Closed-loop assembly, DC-gain condition, and the full stability pipeline."""

import dataclasses

import numpy as np
import pytest

from nistab import (StateSpace, Stability, Verdict, analyze, check_hypotheses, closed_loop,
                    dc_gain_condition)
from nistab.exceptions import DimensionError, FeedthroughError, SingularAError
from nistab.nicert import FrequencyGrid
from nistab.selftest import random_certified_pair

GRID = FrequencyGrid(points=120)


def routh_is_hurwitz(coeffs):
    """Routh-Hurwitz oracle for a cubic s^3 + a s^2 + b s + c."""
    one, a, b, c = coeffs
    assert one == 1
    rows = [1.0, a, (a * b - c) / a, c]
    return all(r > 0 for r in rows)


class TestClosedLoop:
    def test_worked_block_matrix(self, osc, ctrl_half):
        cl = closed_loop(osc, ctrl_half)
        expected = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.5], [1.0, 0.0, -1.0]])
        np.testing.assert_allclose(cl.A_cl, expected, atol=0)
        assert cl.well_posed and cl.dd_product_norm == 0.0

    def test_decoupled_when_b_zero(self):
        p = StateSpace([[-1.0]], [[0.0]], [[1.0]], [[0.0]])
        c = StateSpace([[-2.0]], [[0.0]], [[1.0]], [[0.0]])
        cl = closed_loop(p, c)
        np.testing.assert_allclose(cl.A_cl, np.diag([-1.0, -2.0]))
        np.testing.assert_allclose(sorted(cl.eigenvalues.real), [-2.0, -1.0])

    def test_feedthrough_violation(self):
        p = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
        c = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(FeedthroughError):
            closed_loop(p, c)

    def test_dimension_mismatch(self, osc):
        c = StateSpace([[-1.0]], np.ones((1, 2)), np.ones((2, 1)), np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            closed_loop(osc, c)


def _static_gain(D):
    m = D.shape[0]
    return StateSpace(-np.eye(m), np.eye(m), np.eye(m), D)


class TestFeedthroughHypothesis:
    def test_scaled_inverse_feedthroughs_violate_it(self):
        # ||D1|| ||D2|| = 1e10 hides ||D1 @ D2|| = sqrt(2) from a tol-times-norms scale
        D1 = np.diag([1e5, 1e-5])
        plant, ctrl = _static_gain(D1), _static_gain(np.diag([1e-5, 1e5]))
        checked = check_hypotheses(plant, ctrl, grid=GRID)
        assert not checked.hypotheses["feedthrough_product_zero"]["satisfied"]
        assert checked.hypotheses["feedthrough_product_zero"]["detail"] == "||D1 @ D2|| = 1.414e+00"
        assert checked.closed_loop is None
        with pytest.raises(FeedthroughError):
            closed_loop(plant, ctrl)

    @pytest.mark.parametrize("c1", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("c2", [1e-6, 1.0, 1e6])
    def test_exactly_zero_products_pass_at_any_scale(self, c1, c2):
        # D1 = 0, and feedthroughs on orthogonal ranges of a generic rotation
        Q = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
        pairs = [(np.zeros((3, 3)), c2 * np.eye(3)),
                 (c1 * Q[:, :1] @ Q[:, :1].T, c2 * Q[:, 1:] @ np.diag([0.3, 2.0]) @ Q[:, 1:].T)]
        for D1, D2 in pairs:
            assert closed_loop(_static_gain(D1), _static_gain(D2)).well_posed


class TestFeedthroughProductOnce:
    def test_analyze_computes_the_product_once(self, osc, ctrl_half, monkeypatch):
        import nistab.interconnect

        calls = []
        real = nistab.interconnect._feedthrough_product

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(nistab.interconnect, "_feedthrough_product", counted)
        result = analyze(osc, ctrl_half, grid=GRID)
        assert len(calls) == 1
        assert result.closed_loop.dd_product_norm == 0.0
        assert result.hypotheses["feedthrough_product_zero"]["satisfied"]


class TestHypothesesWithoutSweeps:
    def test_analyze_is_the_hypotheses_plus_two_sweeps(self, osc, ctrl_two,
                                                       frequency_response_calls):
        calls = frequency_response_calls
        checked = check_hypotheses(osc, ctrl_two, grid=GRID)
        assert calls == []
        result = analyze(osc, ctrl_two, grid=GRID)
        assert calls == ["osc", "ctrl-two"]
        assert result.verdict == checked.verdict
        assert result.hypotheses == checked.hypotheses
        assert result.warnings == checked.warnings
        assert result.lambda_max == checked.lambda_max
        np.testing.assert_array_equal(result.closed_loop.A_cl, checked.closed_loop.A_cl)
        assert result.plant_freq.verdict is Verdict.NI
        assert result.controller_freq.verdict is Verdict.SNI

    def test_sweep_disagreement_is_the_first_warning(self, osc, ctrl_half, monkeypatch):
        import nistab.interconnect

        real = nistab.interconnect.freq_ni_test

        def not_ni(*args):
            return dataclasses.replace(real(*args), verdict=Verdict.NOT_NI)

        monkeypatch.setattr(nistab.interconnect, "freq_ni_test", not_ni)
        checked = check_hypotheses(osc, ctrl_half, grid=GRID)
        result = analyze(osc, ctrl_half, grid=GRID)
        assert result.warnings[0].startswith("frequency sweep disagrees with the plant")
        assert result.warnings[1:] == checked.warnings
        assert result.verdict.verdict is Stability.INTERNALLY_STABLE

    def test_stable_soundness_suite_runs_no_sweep(self, frequency_response_calls):
        from nistab.selftest import suite_stable_soundness

        calls = frequency_response_calls
        assert suite_stable_soundness(seed=5, cases=3).passed == 3
        assert calls == []


class TestDcGainCondition:
    def test_holds(self, osc, ctrl_half):
        lam, holds = dc_gain_condition(osc, ctrl_half)
        assert lam == pytest.approx(0.5, abs=1e-12) and holds

    def test_fails(self, osc, ctrl_two):
        lam, holds = dc_gain_condition(osc, ctrl_two)
        assert lam == pytest.approx(2.0, abs=1e-12) and not holds

    def test_zero_plant(self, ctrl_half):
        p = StateSpace([[-1.0]], [[0.0]], [[1.0]], [[0.0]])
        lam, holds = dc_gain_condition(p, ctrl_half)
        assert lam == pytest.approx(0.0, abs=1e-12) and holds

    def test_singular_a_propagates(self, ctrl_half):
        integrator = StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(SingularAError):
            dc_gain_condition(integrator, ctrl_half)


class TestAnalyze:
    def test_worked_stable_pair(self, osc, ctrl_half):
        result = analyze(osc, ctrl_half, grid=GRID)
        assert result.verdict.verdict is Stability.INTERNALLY_STABLE
        assert not result.verdict.violated_hypotheses
        assert result.lambda_max == pytest.approx(0.5, abs=1e-10)
        # char poly of A_cl is s^3 + s^2 + s + 0.5, Hurwitz by Routh
        coeffs = [1.0, 1.0, 1.0, 0.5]
        assert routh_is_hurwitz(coeffs)
        expected = np.sort_complex(np.roots(coeffs))
        got = np.sort_complex(result.closed_loop.eigenvalues)
        assert np.abs(got - expected).max() <= 1e-8

    def test_necessity_dc_violation(self, osc, ctrl_two):
        result = analyze(osc, ctrl_two, grid=GRID)
        assert result.verdict.verdict is Stability.HYPOTHESIS_VIOLATED
        assert "dc_gain" in result.verdict.violated_hypotheses
        coeffs = [1.0, 1.0, 1.0, -1.0]
        assert not routh_is_hurwitz(coeffs)
        expected = np.sort_complex(np.roots(coeffs))
        got = np.sort_complex(result.closed_loop.eigenvalues)
        assert np.abs(got - expected).max() <= 1e-8
        assert result.closed_loop.eigenvalues.real.max() > 0  # confirms necessity

    def test_first_order_pair(self, first_order, ctrl_half):
        result = analyze(first_order, ctrl_half, grid=GRID)
        assert result.verdict.verdict is Stability.INTERNALLY_STABLE
        expected = np.array([-1.0 - np.sqrt(0.5), -1.0 + np.sqrt(0.5)])
        np.testing.assert_allclose(sorted(result.closed_loop.eigenvalues.real),
                                   expected, atol=1e-10)
        assert np.abs(result.closed_loop.eigenvalues.imag).max() <= 1e-12

    def test_hypotheses_all_reported(self, osc, ctrl_two):
        result = analyze(osc, ctrl_two, grid=GRID)
        assert set(result.hypotheses) == {
            "plant_ni", "controller_sni", "feedthrough_product_zero",
            "controller_feedthrough_psd", "dc_gain",
        }

    def test_non_sni_controller_flagged(self, osc):
        # the oscillator is NI but not SNI; using it as controller must violate
        result = analyze(osc, osc, grid=GRID)
        assert "controller_sni" in result.verdict.violated_hypotheses

    def test_spectrum_swap_symmetry(self):
        plant, _, ctrl, _ = random_certified_pair(31, 0.7, n1=3, n2=2, m=1)
        eig_a = np.sort_complex(closed_loop(plant, ctrl).eigenvalues)
        eig_b = np.sort_complex(closed_loop(ctrl, plant).eigenvalues)
        assert np.abs(eig_a - eig_b).max() <= 1e-10


class TestRandomPairs:
    def test_stable_soundness_100_pairs(self):
        # hypotheses passing must never coexist with a non-Hurwitz loop
        from nistab.selftest import suite_stable_soundness

        res = suite_stable_soundness(seed=5, cases=100)
        assert res.failed == 0, res.failures

    def test_dc_necessity_100_pairs(self):
        # DC gain above 1 (other hypotheses intact) always destabilizes
        from nistab.selftest import suite_dc_necessity

        res = suite_dc_necessity(seed=6, cases=100)
        assert res.failed == 0, res.failures
