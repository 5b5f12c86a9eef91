import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regretctl.system_model import (
    DefinitenessError,
    DimensionError,
    LqSystem,
    evaluate_cost,
    normalize_control_weight,
    pd_inv_sqrt,
    psd_sqrt,
    validate_system,
)
from helpers import random_disturbance, random_system, s1, to_normalized_u, to_original_u


class TestValidate:
    def test_s1_accepted(self):
        sys = s1()
        assert sys.validated
        assert (sys.T, sys.n, sys.m, sys.p) == (3, 1, 1, 1)

    def test_zero_r_rejected(self):
        bad = LqSystem.time_invariant([[1.0]], [[1.0]], [[1.0]], [[1.0]], [[0.0]], horizon=3)
        with pytest.raises(DefinitenessError, match="R.*positive definite"):
            validate_system(bad)

    @pytest.mark.parametrize("horizon", [2.7, 3.0, True, np.float64(3.0), "3"])
    def test_non_integer_horizon_refused(self, horizon):
        """time_invariant builds no truncated horizon (2.7 was T = 2, True
        was T = 1): a horizon that is not an int or np.integer is refused."""
        with pytest.raises(ValueError, match="horizon must be an integer"):
            LqSystem.time_invariant([[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], horizon=horizon)

    def test_numpy_integer_horizon_accepted(self):
        sys = LqSystem.time_invariant([[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], horizon=np.int64(3))
        assert sys.T == 3

    def test_r_error_names_step(self):
        sys = s1()
        R = sys.R.copy()
        R[1] = 0.0
        bad = LqSystem(sys.A, sys.B_u, sys.B_w, sys.Q, R, sys.Q_T)
        with pytest.raises(DefinitenessError, match="t=1"):
            validate_system(bad)

    def test_shape_mismatch_rejected(self):
        sys = s1()
        bad = LqSystem(sys.A, np.zeros((3, 2, 1)), sys.B_w, sys.Q, sys.R, sys.Q_T)
        with pytest.raises(DimensionError, match="B_u"):
            validate_system(bad)

    def test_indefinite_q_rejected(self):
        sys = s1()
        Q = sys.Q.copy()
        Q[0] = -1.0
        with pytest.raises(DefinitenessError, match="Q.*PSD"):
            validate_system(LqSystem(sys.A, sys.B_u, sys.B_w, Q, sys.R, sys.Q_T))

    def test_middle_step_definiteness_named(self):
        sys = random_system(71, T_max=10)
        mid = sys.T // 2
        Q = sys.Q.copy()
        Q[mid] = -np.eye(sys.n)
        with pytest.raises(DefinitenessError, match=rf"^Q at t={mid} is not PSD \(min eigenvalue -1\)$"):
            validate_system(LqSystem(sys.A, sys.B_u, sys.B_w, Q, sys.R, sys.Q_T))
        R = sys.R.copy()
        R[mid] = 0.0
        with pytest.raises(DefinitenessError, match=rf"^R at t={mid} is not positive definite"):
            validate_system(LqSystem(sys.A, sys.B_u, sys.B_w, sys.Q, R, sys.Q_T))
        # the earliest failing step is named, whichever matrix fails there
        R[mid] = sys.R[mid]
        R[mid + 1] = -np.eye(sys.m)
        with pytest.raises(DefinitenessError, match=rf"^Q at t={mid} "):
            validate_system(LqSystem(sys.A, sys.B_u, sys.B_w, Q, R, sys.Q_T))
        R[mid - 1] = -np.eye(sys.m)
        with pytest.raises(DefinitenessError, match=rf"^R at t={mid - 1} "):
            validate_system(LqSystem(sys.A, sys.B_u, sys.B_w, Q, R, sys.Q_T))

    def test_psd_tolerance_scales_with_step_norm(self):
        sys = s1(T=4)
        Q = sys.Q.copy()
        Q[2] = [[-0.5e-9]]  # within 1e-9 * (1 + ||Q_2||_F)
        validate_system(LqSystem(sys.A, sys.B_u, sys.B_w, Q, sys.R, sys.Q_T))
        Q[2] = [[-2e-9]]
        with pytest.raises(DefinitenessError, match="Q at t=2"):
            validate_system(LqSystem(sys.A, sys.B_u, sys.B_w, Q, sys.R, sys.Q_T))

    def test_cost_matrices_symmetrized(self):
        rng = np.random.default_rng(0)
        n, T = 3, 4
        Q = np.stack([np.eye(n) + 1e-12 * rng.standard_normal((n, n)) for _ in range(T)])
        sys = LqSystem(
            np.stack([np.eye(n)] * T),
            np.ones((T, n, 1)),
            np.ones((T, n, 1)),
            Q,
            np.ones((T, 1, 1)),
            np.zeros((n, n)),
        )
        out = validate_system(sys)
        assert np.array_equal(out.Q, np.transpose(out.Q, (0, 2, 1)))


    def test_nan_a_rejected(self):
        sys = s1()
        A = sys.A.copy()
        A[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="A has a non-finite"):
            validate_system(LqSystem(A, sys.B_u, sys.B_w, sys.Q, sys.R, sys.Q_T))

    def test_inf_q_rejected(self):
        sys = s1()
        Q = sys.Q.copy()
        Q[2, 0, 0] = np.inf
        with pytest.raises(ValueError, match="Q has a non-finite"):
            validate_system(LqSystem(sys.A, sys.B_u, sys.B_w, Q, sys.R, sys.Q_T))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_symmetrization_rejected(self):
        # finite entries whose sum (R + R')/2 overflows to inf
        bad = LqSystem.time_invariant([[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.7e308]], horizon=3)
        with pytest.raises(ValueError, match=r"^R overflows the float range in its symmetrization$"):
            validate_system(bad)
        bad = LqSystem.time_invariant([[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[-1.7e308]], horizon=3)
        with pytest.raises(ValueError, match=r"^Q_T overflows the float range in its symmetrization$"):
            validate_system(bad)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_psd_tolerance_rejected(self):
        # an indefinite Q whose Frobenius norm overflows: an infinite
        # tolerance would accept it
        Q = [[1e200, 0.0], [0.0, -1e200]]
        bad = LqSystem.time_invariant(np.eye(2), np.ones((2, 1)), np.eye(2), Q, [[1.0]], horizon=3)
        with pytest.raises(ValueError, match=r"^Q overflows the float range in its PSD tolerance$"):
            validate_system(bad)
        bad = LqSystem.time_invariant(np.eye(2), np.ones((2, 1)), np.eye(2), np.eye(2), [[1.0]], Q, horizon=3)
        with pytest.raises(ValueError, match=r"^Q_T overflows the float range in its PSD tolerance$"):
            validate_system(bad)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_finite_costs_keep_their_tolerance(self):
        # 1e150 squares to 1e300: near the range, but finite throughout
        Q = np.diag([1e150, 0.0])
        sys = validate_system(LqSystem.time_invariant(np.eye(2), np.ones((2, 1)), np.eye(2), Q, [[1e300]], Q, horizon=2))
        assert np.array_equal(sys.Q[0], Q) and np.array_equal(sys.Q_T, Q) and sys.R[0, 0, 0] == 1e300


def _psd_stack(seed, T=7):
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((T, 3, 3))
    M = C @ np.swapaxes(C, 1, 2)
    M[0] = np.diag([2.0, 0.0, 0.0])  # rank-deficient
    return M


class TestBatchedSquareRoots:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_psd_sqrt_stack_equals_per_matrix(self, seed):
        M = _psd_stack(seed)
        stacked = psd_sqrt(M)
        assert stacked.shape == M.shape
        for t in range(M.shape[0]):
            assert np.array_equal(stacked[t], psd_sqrt(M[t]))
        assert np.allclose(stacked @ stacked, M, atol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pd_inv_sqrt_stack_equals_per_matrix(self, seed):
        M = _psd_stack(seed)[1:] + 0.1 * np.eye(3)
        stacked = pd_inv_sqrt(M)
        for t in range(M.shape[0]):
            assert np.array_equal(stacked[t], pd_inv_sqrt(M[t]))
        assert np.allclose(stacked @ M @ stacked, np.eye(3), atol=1e-10)

    def test_two_dimensional_input(self):
        M = _psd_stack(3)[2]
        assert psd_sqrt(M).shape == (3, 3)
        assert np.array_equal(psd_sqrt(M), psd_sqrt(M[None])[0])
        assert np.array_equal(pd_inv_sqrt(M), pd_inv_sqrt(M[None])[0])

    def test_higher_rank_stack(self):
        M = _psd_stack(4, T=6).reshape(2, 3, 3, 3) + np.eye(3)
        assert np.array_equal(pd_inv_sqrt(M), pd_inv_sqrt(M.reshape(6, 3, 3)).reshape(M.shape))

    def test_one_indefinite_matrix_in_stack_rejected(self):
        M = _psd_stack(5) + np.eye(3)
        M[4] = np.diag([1.0, -1e-3, 2.0])
        with pytest.raises(DefinitenessError, match="not positive definite"):
            pd_inv_sqrt(M)
        M[4] = np.diag([1.0, 0.0, 2.0])
        with pytest.raises(DefinitenessError):
            pd_inv_sqrt(M)


class TestNormalize:
    def test_scalar_r4(self):
        sys = s1(R=4.0)
        norm = normalize_control_weight(sys)
        assert np.allclose(norm.system.B_u, 0.5)
        assert np.allclose(norm.system.R, 1.0)
        # u = R^{-1/2} u' = 0.5 u'
        assert np.allclose(to_original_u(norm, np.ones((3, 1))), 0.5)

    def test_identity_fixed_point(self):
        sys = s1()
        norm = normalize_control_weight(sys)
        assert np.allclose(norm.system.B_u, sys.B_u)
        assert np.allclose(norm.R_inv_sqrt, np.eye(1))

    def test_cost_equivalence_r2(self):
        sys = s1(R=2.0)
        norm = normalize_control_weight(sys)
        rng = np.random.default_rng(1)
        for _ in range(10):
            w = rng.standard_normal((3, 1))
            u = rng.standard_normal((3, 1))
            orig = evaluate_cost(sys, w, u).total_cost
            u_norm = to_normalized_u(sys, u)
            assert np.allclose(u_norm, np.sqrt(2.0) * u)
            normed = evaluate_cost(norm.system, w, u_norm).total_cost
            assert abs(orig - normed) <= 1e-10 * (1.0 + abs(orig))

    def test_random_roundtrip(self):
        for seed in range(5):
            sys = random_system(seed)
            norm = normalize_control_weight(sys)
            u = random_disturbance(seed + 50, sys)[:, : sys.p]
            u = np.random.default_rng(seed).standard_normal((sys.T, sys.m))
            back = to_original_u(norm, to_normalized_u(sys, u))
            assert np.allclose(back, u, atol=1e-10)


class TestEvaluateCost:
    def test_s1_zero_control(self):
        traj = evaluate_cost(s1(), [1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        assert np.allclose(traj.x[:, 0], [0.0, 1.0, 1.0, 1.0])
        assert traj.total_cost == pytest.approx(2.0, abs=1e-12)

    def test_zero_everything(self):
        for seed in range(3):
            sys = random_system(seed)
            traj = evaluate_cost(sys, np.zeros((sys.T, sys.p)), np.zeros((sys.T, sys.m)))
            assert traj.total_cost == 0.0

    def test_s1_optimal_control(self):
        traj = evaluate_cost(s1(), [1.0, 0.0, 0.0], [-0.6, -0.2, 0.0])
        assert traj.total_cost == pytest.approx(0.6, abs=1e-12)

    def test_terminal_term_included(self):
        sys = s1(Q_T=[[1.0]])
        base = evaluate_cost(s1(), [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]).total_cost
        with_qt = evaluate_cost(sys, [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]).total_cost
        assert with_qt == pytest.approx(base + 1.0, abs=1e-12)

    def test_cost_nonnegative_random(self):
        for seed in range(20):
            sys = random_system(seed)
            rng = np.random.default_rng(seed + 100)
            w = rng.standard_normal((sys.T, sys.p))
            u = rng.standard_normal((sys.T, sys.m))
            assert evaluate_cost(sys, w, u).total_cost >= 0.0

    @given(alpha=st.floats(-3.0, 3.0, allow_nan=False), seed=st.integers(0, 30))
    @settings(max_examples=30, deadline=None)
    def test_quadratic_scaling(self, alpha, seed):
        sys = random_system(seed, T_max=6)
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((sys.T, sys.p))
        u = rng.standard_normal((sys.T, sys.m))
        c = evaluate_cost(sys, w, u).total_cost
        c_scaled = evaluate_cost(sys, alpha * w, alpha * u).total_cost
        assert c_scaled == pytest.approx(alpha**2 * c, rel=1e-9, abs=1e-9)

    def test_normalization_equivalence_many(self):
        for seed in range(100):
            sys = random_system(seed, T_max=6)
            norm = normalize_control_weight(sys)
            rng = np.random.default_rng(seed + 1000)
            w = rng.standard_normal((sys.T, sys.p))
            u = rng.standard_normal((sys.T, sys.m))
            a = evaluate_cost(sys, w, u).total_cost
            b = evaluate_cost(norm.system, w, to_normalized_u(sys, u)).total_cost
            assert abs(a - b) <= 1e-10 * (1.0 + abs(a))


class TestBatchedEvaluateCost:
    def test_batch_equals_single_calls(self):
        sys = random_system(72, T_max=10, stable=False, with_terminal=True)
        rng = np.random.default_rng(3)
        w = rng.standard_normal((2, 4, sys.T, sys.p))
        u = rng.standard_normal((2, 4, sys.T, sys.m))
        batch = evaluate_cost(sys, w, u)
        assert batch.total_cost.shape == (2, 4) and batch.step_costs.shape == (2, 4, sys.T)
        for i in range(2):
            for j in range(4):
                one = evaluate_cost(sys, w[i, j], u[i, j])
                assert isinstance(one.total_cost, float)
                for field in ("x", "u", "w", "step_costs"):
                    assert np.array_equal(getattr(batch, field)[i, j], getattr(one, field))
                assert batch.total_cost[i, j] == one.total_cost

    def test_step_costs(self):
        sys = s1(Q_T=[[2.0]])
        traj = evaluate_cost(sys, [1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        # x = 0, 1, 1, 1: stage costs 0, 1, 1 and the terminal 2 at the last step
        assert np.array_equal(traj.step_costs, [0.0, 1.0, 3.0])
        assert traj.total_cost == 4.0

    def test_batch_shapes_must_agree(self):
        sys = s1()
        with pytest.raises(DimensionError, match="u has shape"):
            evaluate_cost(sys, np.zeros((2, 3, 1)), np.zeros((3, 3, 1)))
