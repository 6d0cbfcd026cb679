"""Time propagation, CSV serialization, Lyapunov monotonicity along traces."""

import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg
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
from nistab.exceptions import DimensionError, FeedthroughError
from nistab.linalg import matrix_exponential
from nistab.lyapunov import ytilde
from nistab.selftest import random_certified_pair
from nistab.sim import (_BLOCK_STEPS, _CSV_VALUES, METHODS, SimulationTrace, _format_rows,
                        _significands)


def _one_row_at_a_time(table):
    return "".join(",".join("%.12g" % v for v in row) + "\n" for row in table.tolist())


def _blocked_recurrence(A, x0, dt, steps):
    """x_k = phi^k x0 with phi = e^{A dt}: phi^1..phi^K stacked, times every K-th row."""
    phi = matrix_exponential(A, dt)
    powers = [phi]
    while len(powers) < _BLOCK_STEPS:
        powers.append(powers[-1] @ phi)
    rows = [x0]
    while len(rows) <= steps:
        rows.extend((np.vstack(powers) @ rows[-1]).reshape(_BLOCK_STEPS, -1))
    return np.array(rows[:steps + 1])


def _recurrence_loop(case):
    if case in ("D1-zero", "D1-nonzero"):
        plant, _, ctrl, _ = random_certified_pair(78, 0.6, n1=3, n2=2, m=2)
        if case == "D1-nonzero":
            plant, ctrl = ctrl, plant
        assert np.any(plant.D) == (case == "D1-nonzero")
    elif case == "A_cl-zero":
        plant = ctrl = StateSpace([[0.0]], [[0.0]], [[1.0]], [[0.0]])
    else:
        rng = np.random.default_rng(50)
        plant, ctrl = (StateSpace(rng.standard_normal((25, 25)) / 5 - np.eye(25),
                                  rng.standard_normal((25, 2)), rng.standard_normal((2, 25)),
                                  np.zeros((2, 2))) for _ in range(2))
    return closed_loop(plant, ctrl)


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
        # the columns are whole-trace products, so each row is held to the
        # one-state formulas within 16 (n + m + 1) eps of the scale of its terms
        for method, m, lam in itertools.product(METHODS, [1, 2, 3], [0.6, 1.5]):
            case = (method, m, lam)
            plant, pcert, ctrl, ccert = random_certified_pair(77, lam, n1=4, n2=3, m=m)
            if swap:
                plant, pcert, ctrl, ccert = ctrl, ccert, plant, pcert
            assert (np.any(plant.D), np.any(ctrl.D)) == (swap, not swap)
            cl = closed_loop(plant, ctrl)
            assert (np.linalg.eigvals(cl.A_cl).real.max() < 0) == (lam < 1), case
            Q = block_gram(pcert.P, ccert.P, plant, ctrl).Q
            LP, LC = ccert.L @ ccert.P, ccert.L @ ctrl.C.T
            x0 = np.random.default_rng(6).standard_normal(cl.n)
            trace = simulate(cl, x0, 2.0, 1e-2, method=method, certs=(pcert, ccert))
            tol = 16 * (cl.n + m + 1) * np.finfo(float).eps
            n1 = plant.n
            for k, x in enumerate(trace.x):
                state = make_state(plant, ctrl, x[:n1], x[n1:])
                yt2 = ytilde(ccert, ctrl, state.x2, state.u2)
                scale = (np.linalg.norm(LP, 2) * np.linalg.norm(state.x2)
                         + np.linalg.norm(LC, 2) * np.linalg.norm(state.u2)) ** 2
                bound = tol * np.linalg.norm(Q, 2) * (x @ x)
                assert abs(trace.V[k] - x @ Q @ x) <= bound, (case, k)
                assert abs(trace.ytilde2_normsq[k] - yt2 @ yt2) <= tol * scale, (case, k)

    @pytest.mark.parametrize("with_certs", [False, True], ids=["no-certs", "certs"])
    def test_singular_loop_raises(self, with_certs):
        # D1 D2 = I leaves I - D1 D2 singular.  The feedthrough hypothesis rejects the
        # pair, and a loop assembled past it (a product the caller vouches for) is
        # still refused by simulate
        big = np.diag([1e5, 1e-5])
        plant = StateSpace(-np.eye(2), np.eye(2), np.eye(2), big)
        ctrl = StateSpace(-np.eye(2), np.eye(2), np.eye(2), np.linalg.inv(big))
        with pytest.raises(FeedthroughError, match="violates"):
            closed_loop(plant, ctrl)
        cl = closed_loop(plant, ctrl, product=(np.sqrt(2.0), True))
        assert not cl.well_posed
        certs = (lmi_ni_certificate(plant), lmi_ni_certificate(ctrl)) if with_certs else None
        with pytest.raises(FeedthroughError, match="not well posed"):
            simulate(cl, np.ones(4), 1.0, 1e-2, certs=certs)

    @pytest.mark.parametrize("case, steps", [
        ("D1-zero", 300),       # nine blocks and 12 rows of a tenth
        ("D1-nonzero", 300),
        ("D1-zero", 1),
        ("D1-zero", _BLOCK_STEPS - 1),
        ("D1-zero", 2 * _BLOCK_STEPS),
        ("A_cl-zero", 70),
        ("fifty-states", 150),
    ], ids=["D1-zero", "D1-nonzero", "one-step", "below-one-block", "two-whole-blocks",
            "A_cl-zero", "fifty-states"])
    def test_expm_exact_matches_reference_recurrence(self, case, steps):
        cl = _recurrence_loop(case)
        x0 = np.random.default_rng(7).standard_normal(cl.n)
        trace = simulate(cl, x0, steps * 1e-2, 1e-2)
        assert trace.x.shape == (steps + 1, cl.n)
        np.testing.assert_array_equal(trace.x, _blocked_recurrence(cl.A_cl, x0, 1e-2, steps))
        if case == "A_cl-zero":
            np.testing.assert_array_equal(trace.x, np.broadcast_to(x0, trace.x.shape))

    @pytest.mark.parametrize("case", ["D1-zero", "fifty-states"])
    def test_rows_do_not_depend_on_t_final(self, case):
        cl = _recurrence_loop(case)
        x0 = np.random.default_rng(9).standard_normal(cl.n)
        long = simulate(cl, x0, 10.0, 1e-2).x
        for steps in (1, 45, 64, 100):
            np.testing.assert_array_equal(simulate(cl, x0, steps * 1e-2, 1e-2).x,
                                          long[:steps + 1])

    @pytest.mark.parametrize("lam, stable", [(0.6, True), (1.6, False)],
                             ids=["stable", "unstable"])
    def test_expm_exact_tracks_the_exponential(self, lam, stable):
        plant, _, ctrl, _ = random_certified_pair(79, lam, n1=6, n2=4, m=2)
        cl = closed_loop(plant, ctrl)
        assert (np.linalg.eigvals(cl.A_cl).real.max() < 0) == stable
        x0 = np.random.default_rng(8).standard_normal(cl.n)
        trace = simulate(cl, x0, 50.0, 1e-2)
        for k in range(0, 5001, 100):
            exact = scipy.linalg.expm(cl.A_cl * (k * 1e-2)) @ x0
            assert np.linalg.norm(trace.x[k] - exact) <= 1e-10 * np.linalg.norm(exact), k

    @pytest.mark.parametrize("method, t", [("expm_exact", "7.1"), ("rk4", "7.07")])
    def test_overflowing_state_raises(self, method, t):
        # e^{100 t} passes the largest double near t = 7.1 (RK4's stages a step or
        # three sooner): a typed error, not inf and nan rows
        p = StateSpace([[100.0]], [[0.0]], [[1.0]], [[0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionError, match=f"overflows at t = {t};"):
                simulate(closed_loop(p, p), np.ones(2), 10.0, 1e-2, method=method)
            assert np.isfinite(simulate(closed_loop(p, p), np.ones(2), 7.0, 1e-2,
                                        method=method).x).all()

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
        assert np.isnan(trace.V).all() and np.isnan(trace.ytilde2_normsq).all()
        assert trace.V.shape == trace.ytilde2_normsq.shape == (1001,)
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

    @pytest.mark.parametrize("e", [*range(-4, 12), -5, -99, 12, 99, -100, -280, 100, 279])
    @pytest.mark.parametrize("d", range(1, 13))
    def test_every_class(self, e, d):
        # one value of d significant digits and decimal exponent e, and its negative, per
        # class of the keep table: fixed notation for -4 <= e < 12, else scientific
        # with a two- or three-digit exponent
        digits = "987654321987"[:d]
        v = float(f"{digits[0]}.{digits[1:]}e{e}")
        table = np.array([[v, -v]])
        assert _significands(table.ravel())[2].all()    # decided by the block arithmetic
        assert _format_rows(table) == "%.12g,%.12g\n" % (v, -v)

    @pytest.mark.parametrize("value, text", [
        (-999999999999.7, "-1e+12"),
        (9.999999999997e-5, "0.0001"),              # the carry leaves scientific notation
        (9.999999999996e99, "1e+100"),              # and gains an exponent digit
    ])
    def test_rounding_carries_into_the_next_decade(self, value, text):
        # unlike the exact tie of test_pinned, these carries are not ties
        assert _format_rows(np.array([[value]])) == text + "\n"

    def test_powers_of_ten_less_one_ulp(self):
        below = np.nextafter(10.0 ** np.arange(-20, 21), 0.0)
        table = np.column_stack([below, -below, 10.0 ** np.arange(-20, 21)])
        assert _format_rows(table) == _one_row_at_a_time(table)
