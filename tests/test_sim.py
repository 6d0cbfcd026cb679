"""Time propagation, CSV serialization, Lyapunov monotonicity along traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nistab import (
    StateSpace,
    block_gram,
    closed_loop,
    lmi_ni_certificate,
    make_state,
    simulate,
    trace_to_csv,
    v_monotone,
)
from nistab.exceptions import DimensionError
from nistab.linalg import matrix_exponential
from nistab.selftest import random_certified_pair
from nistab.sim import _CSV_VALUES, SimulationTrace, _format_rows


def _one_row_at_a_time(table):
    return "".join(",".join("%.12g" % v for v in row) + "\n" for row in table.tolist())


@pytest.fixture
def stable_cl(osc, ctrl_half):
    pcert = lmi_ni_certificate(osc)
    ccert = lmi_ni_certificate(ctrl_half)
    return closed_loop(osc, ctrl_half), (pcert, ccert)


class TestSimulate:
    def test_zero_dynamics_keeps_state(self):
        p = StateSpace([[0.0]], [[0.0]], [[1.0]], [[0.0]])
        c = StateSpace([[0.0]], [[0.0]], [[1.0]], [[0.0]])
        cl = closed_loop(p, c)
        trace = simulate(cl, np.array([0.3, -0.2]), t_final=0.1, dt=0.1)
        assert len(trace.times) == 2
        np.testing.assert_array_equal(trace.x[1], trace.x[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x0_rejected(self, stable_cl, bad):
        cl, certs = stable_cl
        with pytest.raises(DimensionError, match="x0 must be finite"):
            simulate(cl, np.array([1.0, bad, 0.0]), 1.0, 1e-2, certs=certs)

    def test_worked_example_decays(self, stable_cl):
        cl, certs = stable_cl
        trace = simulate(cl, np.array([1.0, 0.0, 0.0]), 50.0, 1e-2, certs=certs)
        assert np.linalg.norm(trace.x[-1]) < 1e-2

    def test_expm_vs_rk4(self, stable_cl):
        cl, _ = stable_cl
        x0 = np.array([1.0, 0.0, 0.0])
        exact = simulate(cl, x0, 10.0, 1e-3, method="expm_exact")
        rk4 = simulate(cl, x0, 10.0, 1e-3, method="rk4")
        err = max(np.linalg.norm(a - b) for a, b in zip(exact.x, rk4.x))
        assert err <= 1e-6

    def test_propagator_consistency(self, stable_cl):
        cl, _ = stable_cl
        one = matrix_exponential(cl.A_cl, 2e-2)
        twice = matrix_exponential(cl.A_cl, 1e-2)
        assert np.linalg.norm(one - twice @ twice, "fro") <= 1e-10

    def test_v_monotone_on_stable_trace(self, stable_cl):
        cl, certs = stable_cl
        trace = simulate(cl, np.array([1.0, 0.0, 0.0]), 50.0, 1e-2, certs=certs)
        ok, worst = v_monotone(trace, tol=1e-8)
        assert ok, f"V increased by {worst}"

    @pytest.mark.parametrize("swap", [False, True], ids=["D2-nonzero", "D1-nonzero"])
    def test_columns_match_per_step_states(self, swap):
        plant, pcert, ctrl, ccert = random_certified_pair(77, 0.6, n1=3, n2=2, m=2)
        if swap:
            plant, pcert, ctrl, ccert = ctrl, ccert, plant, pcert
        cl = closed_loop(plant, ctrl)
        Q = block_gram(pcert.P, ccert.P, plant, ctrl).Q
        x0 = np.random.default_rng(6).standard_normal(cl.n)
        trace = simulate(cl, x0, 2.0, 1e-2, certs=(pcert, ccert))
        n1 = plant.n
        for k, x in enumerate(trace.x):
            state = make_state(plant, ctrl, x[:n1], x[n1:])
            yt2 = ccert.L @ (ccert.P @ state.x2) - ccert.L @ (ctrl.C.T @ state.u2)
            assert trace.V[k] == float(state.x @ Q @ state.x)
            assert trace.ytilde2_normsq[k] == float(yt2 @ yt2)

    @pytest.mark.parametrize("swap", [False, True], ids=["D1-zero", "D1-nonzero"])
    def test_expm_exact_matches_reference_recurrence(self, swap):
        plant, _, ctrl, _ = random_certified_pair(78, 0.6, n1=3, n2=2, m=2)
        if swap:
            plant, ctrl = ctrl, plant
        assert np.any(plant.D) == swap
        cl = closed_loop(plant, ctrl)
        x0 = np.random.default_rng(7).standard_normal(cl.n)
        trace = simulate(cl, x0, 3.0, 1e-2)
        phi = matrix_exponential(cl.A_cl, 1e-2)
        expected = [x0]
        for _ in range(300):
            expected.append(phi @ expected[-1])
        np.testing.assert_array_equal(trace.x, np.array(expected))

    @pytest.mark.parametrize("t_final, dt", [(np.inf, 1e-2), (np.nan, 1e-2),
                                             (1.0, np.nan), (1.0, np.inf)])
    def test_non_finite_times_rejected(self, stable_cl, t_final, dt):
        cl, _ = stable_cl
        with pytest.raises(DimensionError, match="finite"):
            simulate(cl, np.zeros(3), t_final, dt)

    def test_dimension_checks(self, stable_cl):
        cl, _ = stable_cl
        with pytest.raises(DimensionError):
            simulate(cl, np.zeros(2), 1.0, 1e-2)
        with pytest.raises(DimensionError):
            simulate(cl, np.zeros(3), 1.0, -1e-2)
        with pytest.raises(DimensionError):
            simulate(cl, np.zeros(3), 1e-3, 1e-2)
        with pytest.raises(DimensionError):
            simulate(cl, np.zeros(3), 1.0, 1e-2, method="euler")


class TestTraceCsv:
    def test_empty_trace_header_only(self):
        trace = SimulationTrace(times=np.zeros(0), x=np.zeros((0, 0)), V=np.zeros(0),
                                ytilde2_normsq=np.zeros(0), dt=1e-2, method="expm_exact")
        assert trace_to_csv(trace) == "t,V,ytilde2sq\n"

    def test_single_sample_two_lines(self, stable_cl):
        cl, certs = stable_cl
        trace = simulate(cl, np.array([1.0, 0.0, 0.0]), 1e-2, 1e-2, certs=certs)
        single = SimulationTrace(times=trace.times[:1], x=trace.x[:1],
                                 V=trace.V[:1], ytilde2_normsq=trace.ytilde2_normsq[:1],
                                 dt=trace.dt, method=trace.method)
        text = trace_to_csv(single)
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == "t,x1,x2,x3,V,ytilde2sq"

    def test_round_trip(self, stable_cl):
        cl, certs = stable_cl
        trace = simulate(cl, np.array([1.0, -0.3, 0.7]), 2.0, 1e-2, certs=certs)
        text = trace_to_csv(trace)
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        parsed = np.array([[float(v) for v in row] for row in rows])
        np.testing.assert_allclose(parsed[:, 0], trace.times, atol=1e-10)
        np.testing.assert_allclose(parsed[:, 1:4], trace.x, atol=1e-10)
        np.testing.assert_allclose(parsed[:, 4], trace.V, atol=1e-10)
        np.testing.assert_allclose(parsed[:, 5], trace.ytilde2_normsq, atol=1e-10)

    def test_nan_columns_without_certs(self, stable_cl):
        # 1,001 rows of six columns span two blocks; V and ytilde2sq go through %
        cl, _ = stable_cl
        trace = simulate(cl, np.array([1.0, 0.0, 0.0]), 10.0, 1e-2)
        text = trace_to_csv(trace)
        assert ",nan,nan" in text.split("\n")[1]
        table = np.column_stack([trace.times, trace.x, trace.V, trace.ytilde2_normsq])
        assert text == "t,x1,x2,x3,V,ytilde2sq\n" + _one_row_at_a_time(table)

    @pytest.mark.parametrize("rows", [1, _CSV_VALUES // 5 - 1, _CSV_VALUES // 5,
                                      _CSV_VALUES // 5 + 1, 2 * _CSV_VALUES // 5 + 1])
    def test_matches_one_row_at_a_time(self, rows):
        # rows are formatted a block at a time; the bytes are those of one % per row
        rng = np.random.default_rng(rows)
        x = rng.standard_normal((rows, 2)) * 10.0 ** rng.integers(-20, 20, (rows, 2))
        x[0] = [-0.0, np.inf]
        trace = SimulationTrace(times=np.arange(rows) * 1e-2, x=x, V=np.full(rows, np.nan),
                                ytilde2_normsq=rng.random(rows), dt=1e-2, method="expm_exact")
        table = np.column_stack([trace.times, x, trace.V, trace.ytilde2_normsq])
        expected = "".join(",".join("%.12g" % v for v in row.tolist()) + "\n" for row in table)
        assert trace_to_csv(trace) == "t,x1,x2,V,ytilde2sq\n" + expected

    def test_fifty_states(self):
        # 53 columns: 96 rows a block, so 250 rows make three blocks
        rng = np.random.default_rng(50)
        x = rng.standard_normal((250, 50)) * 10.0 ** rng.integers(-30, 30, (250, 50))
        trace = SimulationTrace(times=np.arange(250) * 1e-2, x=x, V=rng.random(250),
                                ytilde2_normsq=rng.random(250) * 1e-9, dt=1e-2,
                                method="expm_exact")
        table = np.column_stack([trace.times, x, trace.V, trace.ytilde2_normsq])
        header = ",".join(["t", *(f"x{i + 1}" for i in range(50)), "V", "ytilde2sq"])
        assert trace_to_csv(trace) == header + "\n" + _one_row_at_a_time(table)


class TestFormatRows:
    """The block formatter gives the bytes of ``"%.12g" % v`` for every double."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                      elements=st.floats(width=64)))
    def test_any_doubles(self, table):
        assert _format_rows(table) == _one_row_at_a_time(table)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(hnp.arrays(np.uint64, st.integers(1, 200), elements=st.integers(0, 2 ** 64 - 1)))
    def test_any_bit_patterns(self, bits):
        table = bits.view(np.float64).reshape(-1, 1)
        assert _format_rows(table) == _one_row_at_a_time(table)

    @pytest.mark.parametrize("value, text", [
        (1234567890125.0, "1.23456789012e+12"),     # exact ties round to even
        (1234567890135.0, "1.23456789014e+12"),
        (999999999999.5, "1e+12"),                  # the exponent is taken after rounding
        (123456789012.0, "123456789012"),
        (5e-324, "4.94065645841e-324"),
        (-0.0, "-0"),
        (0.0, "0"),
        (np.nan, "nan"),
        (np.inf, "inf"),
        (-np.inf, "-inf"),
        (1e-5, "1e-05"),
        (0.0001, "0.0001"),
        (-1.5e100, "-1.5e+100"),
        # within 2e-4 of a half after a scaling by an inexact power of ten
        (9.315848127585e-14, "9.31584812758e-14"),
        (5.490878070765e-176, "5.49087807077e-176"),
        (2.607146903565e+56, "2.60714690356e+56"),
        (6.517029709475e+210, "6.51702970948e+210"),
    ])
    def test_pinned(self, value, text):
        assert _format_rows(np.array([[value]])) == text + "\n"

    def test_powers_of_ten_less_one_ulp(self):
        below = np.nextafter(10.0 ** np.arange(-20, 21), 0.0)
        table = np.column_stack([below, -below, 10.0 ** np.arange(-20, 21)])
        assert _format_rows(table) == _one_row_at_a_time(table)
