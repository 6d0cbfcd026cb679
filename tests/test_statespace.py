"""State-space systems: evaluation, poles, minimality, DC gain, residues."""

import warnings

import numpy as np
import pytest

import nistab.statespace
from nistab import (FrequencyGrid, StateSpace, dc_gain, eval_tf_stack, is_minimal,
                    random_ni_system, residue_at_pole)
from nistab.exceptions import (
    DimensionError,
    NotAPoleError,
    NotSimplePoleError,
    SingularAError,
)
from nistab.linalg import DEFAULT_TOL, min_singular_value


class TestConstruction:
    def test_dimension_checks(self):
        with pytest.raises(DimensionError):
            StateSpace([[0, 1]], [[1]], [[1]], [[0]])
        with pytest.raises(DimensionError):
            StateSpace([[0]], [[1], [2]], [[1]], [[0]])
        with pytest.raises(DimensionError):
            StateSpace([[0]], [[1]], [[1, 2]], [[0]])
        with pytest.raises(DimensionError):
            StateSpace([[0]], [[1]], [[1]], [[0, 0], [0, 0]])

    def test_rejects_non_finite(self):
        with pytest.raises(DimensionError):
            StateSpace([[np.inf]], [[1]], [[1]], [[0]])

    def test_immutable(self, first_order):
        with pytest.raises(ValueError):
            first_order.A[0, 0] = 5.0

    def test_identity_equality_and_hashing(self, osc):
        lam = osc.eig[0]
        copy = StateSpace(osc.A, osc.B, osc.C, osc.D, label=osc.label)
        assert osc == osc and not (osc != osc)
        assert osc != copy and not (osc == copy)
        keyed = {osc: "a", copy: "b"}
        assert (keyed[osc], keyed[copy]) == ("a", "b")
        assert len({osc, copy, osc}) == 2
        assert osc.eig[0] is lam
        np.testing.assert_array_equal(copy.eig[0], lam)


def transfer_at(sys, s):
    """G(s) = C (sI - A)^-1 B + D at one point, by one solve."""
    return sys.C @ np.linalg.solve(s * np.eye(sys.n) - sys.A, sys.B) + sys.D


def one_point(sys, s):
    """G(s) from ``eval_tf_stack`` on the stack of one point, which must not be guarded."""
    G, guarded = eval_tf_stack(sys, [s])
    assert not guarded[0]
    return G[0]


class TestEvalTf:
    def test_dc_value(self, first_order):
        np.testing.assert_allclose(one_point(first_order, 0.0), [[1.0]], atol=1e-14)

    def test_at_j(self, first_order):
        # 1/(1 + j) = 0.5 - 0.5j
        np.testing.assert_allclose(one_point(first_order, 1j), [[0.5 - 0.5j]], atol=1e-14)

    def test_feedthrough_only(self):
        sys = StateSpace([[-3.0]], [[0.0]], [[1.0]], [[3.0]])
        np.testing.assert_allclose(one_point(sys, 5j), [[3.0]], atol=0)

    def test_near_pole_guard(self, osc):
        G, guarded = eval_tf_stack(osc, [1j])
        assert guarded.tolist() == [True] and np.isnan(G).all()

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            sys = StateSpace(rng.standard_normal((n, n)) - 2 * np.eye(n),
                             rng.standard_normal((n, m)),
                             rng.standard_normal((m, n)),
                             rng.standard_normal((m, m)))
            s = complex(rng.standard_normal(), rng.standard_normal())
            G, Gc = eval_tf_stack(sys, [s, np.conj(s)])[0]
            assert np.abs(Gc - np.conj(G)).max() <= 1e-12 * max(1.0, np.abs(G).max())
            np.testing.assert_allclose(G, transfer_at(sys, s), rtol=1e-12, atol=0)


    @pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf, complex(0, np.inf),
                                   complex(np.nan, 1)])
    def test_non_finite_point_rejected(self, osc, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionError, match="evaluation points must be finite"):
                eval_tf_stack(osc, [s])
            with pytest.raises(DimensionError, match="evaluation points must be finite"):
                eval_tf_stack(osc, [1j, s, 2j])


@pytest.fixture
def svd_shapes(monkeypatch):
    """Shapes of the arrays passed to ``min_singular_value`` inside ``nistab.statespace``."""
    shapes = []

    def counted(M):
        shapes.append(M.shape)
        return min_singular_value(M)

    monkeypatch.setattr(nistab.statespace, "min_singular_value", counted)
    return shapes


def reference_eval_tf_stack(sys, points, tol_pole):
    """The resolvent guard by a full stacked SVD at every point, then the stacked solve."""
    s = np.asarray(points).reshape(-1)
    res = s[:, np.newaxis, np.newaxis] * np.eye(sys.n) - sys.A
    sigma = min_singular_value(res)
    guarded = sigma < tol_pole * np.maximum(np.maximum(1.0, np.abs(s)),
                                            float(np.linalg.norm(sys.A, 2)))
    G = np.full((s.size, sys.m, sys.m), np.nan, dtype=complex)
    B = sys.B.astype(complex)[np.newaxis]
    G[~guarded] = sys.C @ np.linalg.solve(res[~guarded], B) + sys.D
    return G, guarded


def _similar(sys, d):
    """The realization (T A T^-1, T B, C T^-1, D) for T = diag(d)."""
    return StateSpace(sys.A * d[:, np.newaxis] / d, sys.B * d[:, np.newaxis], sys.C / d, sys.D)


def _guard_systems():
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    systems = {
        "axis-poles": StateSpace(rot, [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]]),
        "jordan-pair-at-j": StateSpace(np.block([[rot, np.eye(2)], [np.zeros((2, 2)), rot]]),
                                       np.ones((4, 1)), np.ones((1, 4)), [[0.0]]),
        "repeated-axis-poles": StateSpace(np.kron(np.eye(2), rot), np.ones((4, 1)),
                                          np.ones((1, 4)), [[0.0]]),
        # cond(V) about 1e8: the eigenvalue gap is 2e-8 of a Jordan block
        "near-defective-1e8": StateSpace([[-1.0, 1.0], [0.0, -1.0 - 2e-8]], [[0.0], [1.0]],
                                         [[1.0, 0.0]], [[0.0]]),
        "near-defective-pair-at-j": StateSpace(
            np.block([[rot, np.eye(2)], [np.zeros((2, 2)), (1.0 + 2e-8) * rot]]),
            np.ones((4, 1)), np.ones((1, 4)), [[0.0]]),
        "defective": StateSpace([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]],
                                np.ones((3, 1)), np.ones((1, 3)), [[0.0]]),
        "non-normal-1e6": StateSpace([[-1.0, 1e6], [0.0, -2.0]], [[0.0], [1.0]],
                                     [[1.0, 0.0]], [[0.0]]),
        "near-zero-a": StateSpace([[-1e-13]], [[1.0]], [[1.0]], [[0.0]]),
    }
    for n in (3, 6, 12):
        base = random_ni_system(40 + n, n, 2)[0]
        systems[f"rand{n}"] = base
        for top in (3, 6, 12):
            systems[f"rand{n}-cond1e{top}"] = _similar(base, np.logspace(0, top, n))
    return systems


GUARD_SYSTEMS = _guard_systems()


def _off_axis_points(sys, seed=0):
    """Random points of the left and right half planes, and points at distances 1e-12 to 1
    from each eigenvalue of A in random directions."""
    rng = np.random.default_rng(seed)
    near = 10.0 ** rng.uniform(-12, 0, (sys.n, 20)) * np.exp(2j * np.pi * rng.random((sys.n, 20)))
    return np.concatenate([rng.uniform(-3, 3, 100) + 1j * rng.uniform(-3, 3, 100),
                           (sys.eig[0][:, np.newaxis] + near).ravel()])


class TestResolventGuard:
    @pytest.mark.parametrize("name", sorted(GUARD_SYSTEMS))
    def test_matches_full_svd_guard(self, name):
        sys = GUARD_SYSTEMS[name]
        grids = (1j * FrequencyGrid().omegas(), 1j * np.linspace(0.5, 1.5, 401),
                 _off_axis_points(sys))
        for points in grids:
            for tol_pole in (1e-12, 1e-8, 1e-4, 1e-2, 0.05, 0.5):
                G, guarded = eval_tf_stack(sys, points, tol_pole)
                G_ref, guarded_ref = reference_eval_tf_stack(sys, points, tol_pole)
                assert guarded.tobytes() == guarded_ref.tobytes()
                assert G.tobytes() == G_ref.tobytes()

    def test_hurwitz_system_skips_the_svd(self, svd_shapes):
        sys = random_ni_system(7, 6, 2, strict=True)[0]
        svd_shapes.clear()  # the draw's own checks
        _, guarded = eval_tf_stack(sys, 1j * FrequencyGrid().omegas())
        assert not guarded.any()
        assert svd_shapes == []

    def test_near_pole_points_take_the_svd(self, osc, svd_shapes):
        points = 1j * np.linspace(0.5, 1.5, 400)
        _, guarded = eval_tf_stack(osc, points, tol_pole=0.05)
        assert guarded.any()
        assert guarded.sum() < sum(shape[0] for shape in svd_shapes) < points.size


class TestPoles:
    def test_first_order(self, first_order):
        np.testing.assert_allclose(first_order.eig[0], [-1.0])

    def test_oscillator(self, osc):
        got = np.sort_complex(osc.eig[0])
        np.testing.assert_allclose(got, [-1j, 1j], atol=1e-12)

    def test_damped(self):
        # s^2 + 3s + 2 = (s+1)(s+2)
        sys = StateSpace([[0.0, 1.0], [-2.0, -3.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        np.testing.assert_allclose(sorted(sys.eig[0].real), [-2.0, -1.0], atol=1e-12)
        assert np.abs(sys.eig[0].imag).max() <= 1e-12

    def test_similarity_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n, m = int(rng.integers(2, 6)), 1
            sys = StateSpace(rng.standard_normal((n, n)), rng.standard_normal((n, m)),
                             rng.standard_normal((m, n)), np.zeros((m, m)))
            T = rng.standard_normal((n, n)) + 3 * np.eye(n)
            Ti = np.linalg.inv(T)
            sim = StateSpace(T @ sys.A @ Ti, T @ sys.B, sys.C @ Ti, sys.D)
            p1 = sorted(sys.eig[0], key=lambda z: (z.real, z.imag))
            p2 = sorted(sim.eig[0], key=lambda z: (z.real, z.imag))
            assert np.abs(np.array(p1) - np.array(p2)).max() <= 1e-8 * max(
                1.0, np.abs(p1).max())


class TestSpectralCache:
    def test_matches_a_direct_computation_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 5, 12):
            A = rng.standard_normal((n, n))
            sys = StateSpace(A, np.ones((n, 1)), np.ones((1, n)), [[0.0]])
            lam, V = np.linalg.eig(A)
            np.testing.assert_array_equal(sys.eig[0], lam)
            np.testing.assert_array_equal(sys.eig[1], V)
            np.testing.assert_array_equal(sys.eig[0], np.linalg.eigvals(A))
            assert sys.norm2 == float(np.linalg.norm(A, 2))
            assert sys.sigma_min == min_singular_value(A)

    def test_cached_arrays_are_read_only(self, osc):
        lam, V = osc.eig
        with pytest.raises(ValueError):
            lam[0] = 5.0
        with pytest.raises(ValueError):
            V[0, 0] = 5.0
        np.testing.assert_allclose(np.sort_complex(osc.eig[0]), [-1j, 1j], atol=1e-12)

    def test_each_system_keeps_its_own_cache(self, first_order):
        twice = StateSpace(2 * first_order.A, first_order.B, first_order.C, first_order.D)
        for sys in (first_order, twice):  # fill both caches before reading either
            sys.eig, sys.bauer_fike, sys.norm2
        np.testing.assert_array_equal(first_order.eig[0], [-1.0])
        np.testing.assert_array_equal(twice.eig[0], [-2.0])
        assert (first_order.norm2, twice.norm2) == (1.0, 2.0)
        assert first_order.eig[1] is not twice.eig[1]
        np.testing.assert_allclose(one_point(twice, 0.0), [[0.5]], atol=1e-14)
        np.testing.assert_allclose(one_point(first_order, 0.0), [[1.0]], atol=1e-14)

    def test_pole_classes(self, osc, first_order):
        origin, rhp, axis, hurwitz = osc.pole_classes()
        assert (origin, rhp, hurwitz) == (False, False, False)
        np.testing.assert_allclose(axis, [1.0], atol=1e-12)
        assert first_order.pole_classes()[3]
        origin, rhp, axis, hurwitz = StateSpace([[1.0, 0.0], [0.0, 0.0]], np.ones((2, 1)),
                                                np.ones((1, 2)), [[0.0]]).pole_classes()
        assert (origin, rhp, hurwitz, axis.size) == (True, True, False, 0)
        # the band is relative: -1e-3 +/- j is on the axis at tol_axis 1e-2, not at 1e-7
        damped = StateSpace([[-1e-3, 1.0], [-1.0, -1e-3]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        assert damped.pole_classes()[3] and damped.pole_classes()[2].size == 0
        assert damped.pole_classes(1e-2)[2].size == 1

    def test_repeated_axis_pole_is_listed_once(self):
        # G = I2/(s^2 + 1) as two oscillators: j is a double eigenvalue of A
        two = StateSpace(np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]]),
                         np.kron(np.eye(2), [[0.0], [1.0]]), np.kron(np.eye(2), [[1.0, 0.0]]),
                         np.zeros((2, 2)))
        assert np.sum(np.abs(two.eig[0] - 1j) < 1e-12) == 2
        np.testing.assert_allclose(two.pole_classes()[2], [1.0], atol=1e-12)
        # copies within the band merge, distinct poles do not
        for gap, count in ((1e-9, 1), (1e-3, 2)):
            A = np.zeros((4, 4))
            A[:2, :2], A[2:, 2:] = [[0.0, 1.0], [-1.0, 0.0]], [[0.0, 1 + gap], [-1 - gap, 0.0]]
            sys = StateSpace(A, np.ones((4, 1)), np.ones((1, 4)), [[0.0]])
            assert sys.pole_classes()[2].size == count

    def test_singular_a(self, first_order):
        assert not first_order.singular_a()
        assert StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]]).singular_a()
        assert StateSpace([[-1e-9]], [[1.0]], [[1.0]], [[0.0]]).singular_a(1e-8)

    def test_repeated_eval_tf_takes_one_eig(self, linalg_calls):
        # a drawn system has already filled its cache: evaluate a new object
        drawn = random_ni_system(3, 12, 2)[0]
        sys = StateSpace(drawn.A, drawn.B, drawn.C, drawn.D)
        linalg_calls.clear()
        for k in range(100):
            eval_tf_stack(sys, [1j * (k + 0.5)])
        assert linalg_calls["eig"] == 1
        assert linalg_calls["eigvals"] == 0


class TestIsMinimal:
    def test_siso_first_order(self, first_order):
        assert is_minimal(first_order)

    def test_decoupled_state(self):
        sys = StateSpace(np.diag([-1.0, -2.0]), [[1.0], [0.0]], [[1.0, 0.0]], [[0.0]])
        report = is_minimal(sys)
        assert not report
        bad = {(round(lam.real), kind) for lam, kind, _ in report.failures}
        assert (-2, "controllability") in bad and (-2, "observability") in bad

    def test_oscillator_kalman_rank(self, osc):
        # independent oracle: Kalman rank of [B, AB] and [C; CA]
        ctrb = np.hstack([osc.B, osc.A @ osc.B])
        obsv = np.vstack([osc.C, osc.C @ osc.A])
        assert np.linalg.matrix_rank(ctrb) == 2
        assert np.linalg.matrix_rank(obsv) == 2
        assert is_minimal(osc)


def reference_pbh_failures(sys, tol=DEFAULT_TOL):
    """The PBH test one eigenvalue and one SVD at a time."""
    scale = tol * max(1.0, float(np.linalg.norm(sys.A, 2)))
    failures = []
    for lam in np.linalg.eigvals(sys.A):
        shifted = sys.A - lam * np.eye(sys.n)
        sv_c = min_singular_value(np.hstack([shifted, sys.B.astype(complex)]))
        if sv_c <= scale:
            failures.append((complex(lam), "controllability", sv_c))
        sv_o = min_singular_value(np.vstack([shifted, sys.C.astype(complex)]))
        if sv_o <= scale:
            failures.append((complex(lam), "observability", sv_o))
    return failures


def _pbh_systems():
    rng = np.random.default_rng(11)
    osc = np.array([[0.0, 1.0], [-1.0, 0.0]])
    yield StateSpace(np.diag([-1.0, -2.0]), [[1.0], [0.0]], [[1.0, 0.0]], [[0.0]])
    yield StateSpace(np.diag([-1.0, -2.0, -3.0]), [[1.0], [1.0], [0.0]],
                     [[0.0, 1.0, 1.0]], [[0.0]])
    # two copies of one oscillator: neither controllable nor observable at +-j
    yield StateSpace(np.kron(np.eye(2), osc), [[0.0], [1.0], [0.0], [1.0]],
                     [[1.0, 0.0, 1.0, 0.0]], [[0.0]])
    yield StateSpace(osc, [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
    for n, m in ((1, 1), (3, 2), (5, 1), (8, 3), (12, 2)):
        yield random_ni_system(60 + n, n, m)[0]
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((m, n))
        yield StateSpace(A, B, C, np.zeros((m, m)))
        # a hidden mode appended to the state: uncontrollable and unobservable
        hidden = np.block([[A, np.zeros((n, 1))], [np.zeros((1, n)), np.full((1, 1), -7.0)]])
        yield StateSpace(hidden, np.vstack([B, np.zeros((1, m))]),
                         np.hstack([C, np.zeros((m, 1))]), np.zeros((m, m)))


class TestIsMinimalStacked:
    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-3])
    def test_matches_per_eigenvalue_reference(self, tol):
        outcomes = set()
        for sys in _pbh_systems():
            report = is_minimal(sys, tol)
            expected = reference_pbh_failures(sys, tol)
            assert [(lam, kind) for lam, kind, _ in report.failures] == [
                (lam, kind) for lam, kind, _ in expected]
            assert all(type(sv) is float and sv == ref
                       for (_, _, sv), (_, _, ref) in zip(report.failures, expected))
            assert report.minimal == (not expected)
            outcomes.add(report.minimal)
        assert outcomes == {True, False}

    def test_two_svd_calls(self, svd_shapes):
        sys = random_ni_system(3, 12, 2)[0]
        svd_shapes.clear()  # the draw's own checks
        assert is_minimal(sys)
        assert svd_shapes == [(12, 12, 14), (12, 14, 12)]


class TestDcGain:
    def test_first_order(self, first_order):
        np.testing.assert_allclose(dc_gain(first_order), [[1.0]], atol=1e-14)

    def test_oscillator(self, osc):
        # -C A^{-1} B with A^{-1} = [[0, -1], [1, 0]]
        np.testing.assert_allclose(dc_gain(osc), [[1.0]], atol=1e-14)

    def test_scaled(self):
        sys = StateSpace([[-2.0]], [[1.0]], [[0.5]], [[0.0]])
        np.testing.assert_allclose(dc_gain(sys), [[0.25]], atol=1e-14)

    def test_singular_a(self):
        integrator = StateSpace([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                                [[1.0, 0.0]], [[0.0]])
        with pytest.raises(SingularAError):
            dc_gain(integrator)

    def test_matches_eval_tf(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            sys = StateSpace(rng.standard_normal((n, n)) - 2 * np.eye(n),
                             rng.standard_normal((n, m)),
                             rng.standard_normal((m, n)),
                             rng.standard_normal((m, m)))
            with np.errstate(all="ignore"):
                import warnings

                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    G0 = dc_gain(sys)
            err = np.abs(G0 - transfer_at(sys, 0.0)).max()
            assert err <= 1e-10 * max(1.0, np.abs(G0).max())


def numerical_residue(sys, omega0):
    """Richardson-extrapolated limit of (s - j w0) s G(s) along the real offset."""
    vals = {}
    for eps in (1e-4, 1e-5):
        s = 1j * omega0 + eps
        vals[eps] = eps * s * transfer_at(sys, s)
    return (10.0 * vals[1e-5] - vals[1e-4]) / 9.0


class TestResidueAtPole:
    def test_oscillator(self, osc):
        rep = residue_at_pole(osc, 1.0)
        np.testing.assert_allclose(rep.K0, [[0.5]], atol=1e-10)
        assert rep.is_simple and rep.accepted()
        assert rep.min_eig == pytest.approx(0.5, abs=1e-10)

    def test_matches_numerical_limit(self, osc):
        rep = residue_at_pole(osc, 1.0)
        num = numerical_residue(osc, 1.0)
        assert np.abs(rep.K0 - num).max() <= 1e-5 * max(1.0, np.abs(num).max())

    def test_non_hermitian_residue(self, s_over_s2):
        # lim (s - j) s^2/(s^2+1) = j/2: not Hermitian, so not NI-acceptable
        rep = residue_at_pole(s_over_s2, 1.0)
        np.testing.assert_allclose(rep.K0, [[0.5j]], atol=1e-10)
        assert rep.hermitian_residual > 0.5
        assert not rep.accepted()
        num = numerical_residue(s_over_s2, 1.0)
        assert np.abs(rep.K0 - num).max() <= 1e-5

    def test_not_a_pole(self, first_order):
        with pytest.raises(NotAPoleError):
            residue_at_pole(first_order, 1.0)

    @pytest.mark.parametrize("B, C, K0", [
        # I2/(s^2 + 1): the double eigenvalue j has two eigenvectors
        (np.kron(np.eye(2), [[0.0], [1.0]]), np.kron(np.eye(2), [[1.0, 0.0]]), np.eye(2) / 2),
        # two copies of one oscillator, 2/(s^2 + 1)
        ([[0.0], [1.0], [0.0], [1.0]], [[1.0, 0.0, 1.0, 0.0]], [[1.0]]),
    ], ids=["mimo", "two-copies"])
    def test_semisimple_repeated_eigenvalue_is_a_simple_pole(self, B, C, K0):
        sys = StateSpace(np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]]), B, C,
                         np.zeros((len(C), len(C))))
        rep = residue_at_pole(sys, 1.0)
        np.testing.assert_allclose(rep.K0, K0, atol=1e-12)
        assert rep.is_simple and rep.accepted()
        num = numerical_residue(sys, 1.0)
        assert np.abs(rep.K0 - num).max() <= 1e-5

    @staticmethod
    def _jordan_pair(B, similar):
        # the second oscillator drives the first, so +/-j are double and defective
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        A = np.block([[rot, np.eye(2)], [np.zeros((2, 2)), rot]])
        T = np.random.default_rng(3).standard_normal((4, 4)) + 2 * np.eye(4) if similar \
            else np.eye(4)
        Ti = np.linalg.inv(T)
        return StateSpace(Ti @ A @ T, Ti @ np.array(B), np.array([[1.0, 0.0, 0.0, 0.0]]) @ T,
                          [[0.0]])

    @pytest.mark.parametrize("similar", [False, True], ids=["jordan-form", "similar"])
    def test_jordan_block_out_of_reach_is_a_simple_pole(self, similar):
        # B feeds the first oscillator only: G = 1/(s^2 + 1)
        rep = residue_at_pole(self._jordan_pair([[0.0], [1.0], [0.0], [0.0]], similar), 1.0)
        np.testing.assert_allclose(rep.K0, [[0.5]], atol=1e-7)
        assert rep.accepted()

    @pytest.mark.parametrize("similar", [False, True], ids=["jordan-form", "similar"])
    def test_jordan_pair_rejected(self, similar):
        # B feeds the second: G has a double pole at j
        sys = self._jordan_pair([[0.0], [0.0], [0.0], [1.0]], similar)
        with pytest.raises(NotSimplePoleError, match="order 2"):
            residue_at_pole(sys, 1.0)
