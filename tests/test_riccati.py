import numpy as np
import pytest

from regretctl import controllers as ct
from regretctl import kernels, riccati
from regretctl.cli import pendulum_system
from regretctl.system_model import (
    LqSystem,
    evaluate_cost,
    normalize_control_weight,
    pd_inv_sqrt,
    validate_system,
)
from helpers import (
    random_system,
    reference_causal_factor,
    reference_dense_delta_operator,
    reference_dense_l_operator,
    s1,
)
import dense_oracle as dense


class TestBackwardLqr:
    def test_s1_values(self):
        tape = riccati.backward_lqr(s1())
        assert np.allclose(tape.P[:, 0, 0], [1.6, 1.5, 1.0, 0.0], atol=1e-12)

    def test_s1_values_exact(self):
        assert riccati.backward_lqr(s1()).P.ravel().tolist() == [1.6, 1.5, 1.0, 0.0]

    def test_h_check_names_the_first_singular_step(self):
        # R < 0 at t = 1 and 3 (validation bypassed on purpose): with B_u = 0,
        # H_t = R_t is not positive definite there; the check names t=1
        T = 5
        R = np.ones((T, 1, 1))
        R[1] = R[3] = -1.0
        sys = LqSystem(np.ones((T, 1, 1)), np.zeros((T, 1, 1)), np.ones((T, 1, 1)),
                       np.ones((T, 1, 1)), R, np.zeros((1, 1)), validated=True)
        with pytest.raises(ArithmeticError, match=r"^H at t=1 is singular$"):
            riccati.backward_lqr(sys)

    def test_zero_q_fixed_point(self):
        sys = s1()
        zero_q = validate_system(
            LqSystem(sys.A, sys.B_u, sys.B_w, np.zeros_like(sys.Q), sys.R, sys.Q_T)
        )
        tape = riccati.backward_lqr(zero_q)
        assert not tape.P.any()

    def test_terminal_default_is_qt(self):
        sys = s1(Q_T=[[2.0]])
        tape = riccati.backward_lqr(sys)
        assert tape.P[-1, 0, 0] == pytest.approx(2.0)

    def test_feedback_beats_random_controls(self):
        # from a perturbed initial state with w = 0 the tape's feedback is the
        # exact optimum: its cost x0' P_0 x0 lower-bounds every control choice
        def rollout_cost(sys, x0, u):
            x = x0.copy()
            cost = 0.0
            for t in range(sys.T):
                cost += x @ sys.Q[t] @ x + u[t] @ sys.R[t] @ u[t]
                x = sys.A[t] @ x + sys.B_u[t] @ u[t]
            return cost + x @ sys.Q_T @ x

        for seed in range(3):
            sys = random_system(seed, T_max=8)
            tape = riccati.backward_lqr(sys)
            rng = np.random.default_rng(seed + 11)
            x0 = rng.standard_normal(sys.n)
            x = x0.copy()
            u_fb = np.zeros((sys.T, sys.m))
            for t in range(sys.T):
                u_fb[t] = -np.linalg.solve(
                    tape.H[t], sys.B_u[t].T @ tape.P[t + 1] @ sys.A[t] @ x
                )
                x = sys.A[t] @ x + sys.B_u[t] @ u_fb[t]
            best = rollout_cost(sys, x0, u_fb)
            assert best == pytest.approx(x0 @ tape.P[0] @ x0, rel=1e-9)
            for _ in range(100):
                u = rng.standard_normal((sys.T, sys.m))
                assert best <= rollout_cost(sys, x0, u) + 1e-9

    def test_tapes_symmetric_psd(self):
        for seed in range(5):
            sys = random_system(seed)
            tape = riccati.backward_lqr(sys)
            for P in tape.P:
                assert np.allclose(P, P.T)
                assert np.linalg.eigvalsh(P).min() >= -1e-9


class TestBackwardHinf:
    def test_large_gamma_approaches_h2(self):
        sys = s1()
        hinf = ct.synthesize_hinf(sys, 1e6)
        h2 = ct.synthesize_h2(sys)
        assert np.abs(hinf.K_x - h2.K_x).max() <= 1e-4
        assert np.abs(hinf.K_w - h2.K_w).max() <= 1e-4

    def test_tiny_gamma_infeasible(self):
        tape = riccati.backward_hinf(s1(), 1e-9)
        assert not tape.feasible
        assert tape.first_infeasible_step is not None

    def test_feasibility_monotone_on_grid(self):
        sys = s1()
        grid = np.geomspace(0.05, 50.0, 20)
        flags = [riccati.backward_hinf(sys, g).feasible for g in grid]
        # once feasible, stays feasible
        assert flags == sorted(flags)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            riccati.backward_hinf(s1(), -1.0)

    @pytest.mark.parametrize(
        "sys",
        [pendulum_system(15), pendulum_system(47)]
        + [random_system(seed, T_max=40, stable=seed % 2 == 0) for seed in range(500, 506)],
        ids=["pendulum-T15", "pendulum-T47"] + [f"random{seed}" for seed in range(500, 506)],
    )
    def test_windows_equal_one_loop_below_48_steps(self, sys):
        # the windows are the horizon, or 16 steps and then fewer than 32, so
        # every window runs the loop
        assert all(t1 - t0 < kernels._SCAN_MIN_STEPS for t0, t1 in riccati._windows(sys.T))
        g_opt = ct.hinf_optimal(sys, 1e-6)[0].gamma_opt
        verdicts = set()
        for c in (0.5, 0.999, 1.0, 1.001, 2.0):
            tape = riccati.backward_hinf(sys, c * g_opt)
            loop = kernels._riccati_backward(sys.A, sys.B_u, sys.B_w, sys.Q, sys.R, sys.Q_T, c * g_opt, True)
            for a, b in zip((tape.P, tape.H, tape.margins), loop):
                assert np.array_equal(a, b)
            verdicts.add(tape.feasible)
        assert verdicts == {True, False}

    def test_sweep_stops_after_the_first_failing_window(self, monkeypatch):
        steps = []
        hinf_backward = kernels.hinf_backward

        def counted(A, *args):
            steps.append(A.shape[0])
            return hinf_backward(A, *args)

        monkeypatch.setattr(kernels, "hinf_backward", counted)
        sys = pendulum_system(100)
        assert riccati.backward_hinf(sys, 3.0).feasible
        assert steps == [16, 32, 52]
        steps.clear()
        tape = riccati.backward_hinf(sys, 1.0)
        t = tape.first_infeasible_step
        # it stops after the window that holds the failing step
        assert steps == [16 * 2**k for k in range(len(steps))]
        assert sum(steps[:-1]) < sys.T - t <= sum(steps) <= 2 * (sys.T - t) + 14
        assert tape.margins[t] >= 1.0 and np.all(tape.margins[:t] == tape.margins[t])
        assert not tape.P[: t + 1].any() and not tape.H[:t].any()

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, 0.0])
    def test_non_finite_or_nonpositive_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            riccati.backward_hinf(s1(), gamma)


class TestForwardKalman:
    def test_no_control_identity_factor(self):
        sys = s1()
        no_bu = validate_system(
            LqSystem(sys.A, np.zeros_like(sys.B_u), sys.B_w, sys.Q, sys.R, sys.Q_T)
        )
        norm = normalize_control_weight(no_bu)
        fwd = riccati.forward_kalman(norm)
        assert not fwd.P.any()
        L = reference_dense_l_operator(norm, fwd)
        assert np.allclose(L, np.eye(L.shape[0]), atol=1e-12)

    def test_s1_factorization_residual(self):
        sys = s1()
        norm = normalize_control_weight(sys)
        fwd = riccati.forward_kalman(norm)
        L = reference_dense_l_operator(norm, fwd)
        ops = dense.build_operators(norm.system)
        target = np.eye(ops.F.shape[0]) + ops.F @ ops.F.T
        assert np.linalg.norm(L @ L.T - target) <= 1e-8 * np.linalg.norm(target)

    def test_diagonal_blocks_invertible(self):
        for seed in range(5):
            sys = random_system(seed)
            norm = normalize_control_weight(sys)
            fwd = riccati.forward_kalman(norm)
            for t in range(sys.T + 1):
                assert np.linalg.eigvalsh(fwd.R_e[t]).min() > 0

    def test_factorization_random_systems(self):
        for seed in range(8):
            sys = random_system(seed, T_max=12)
            norm = normalize_control_weight(sys)
            fwd = riccati.forward_kalman(norm)
            L = reference_dense_l_operator(norm, fwd)
            ops = dense.build_operators(norm.system)
            target = np.eye(ops.F.shape[0]) + ops.F @ ops.F.T
            assert np.linalg.norm(L @ L.T - target) <= 1e-8 * np.linalg.norm(target)

    def test_linv_g_realization(self):
        # nu_{t+1} = Atil nu + B_w w, e_t = R_e^{-1/2} Q^{1/2} nu matches L^{-1}G
        for seed in range(5):
            sys = random_system(seed, T_max=10)
            norm = normalize_control_weight(sys)
            nsys = norm.system
            fwd = riccati.forward_kalman(norm)
            L = reference_dense_l_operator(norm, fwd)
            ops = dense.build_operators(nsys)
            linv_g = np.linalg.solve(L, ops.G)
            rng = np.random.default_rng(seed)
            w = rng.standard_normal((sys.T, sys.p))
            nu = np.zeros(sys.n)
            e = []
            for t in range(sys.T):
                e.append(pd_inv_sqrt(fwd.R_e[t]) @ fwd.sqQ[t] @ nu)
                nu = fwd.Atil[t] @ nu + nsys.B_w[t] @ w[t]
            if np.any(sys.Q_T != 0.0):
                e.append(pd_inv_sqrt(fwd.R_e[sys.T]) @ fwd.sqQ[sys.T] @ nu)
            e = np.concatenate(e)
            assert np.abs(linv_g @ w.reshape(-1) - e).max() <= 1e-8 * (1 + np.abs(e).max())


class TestBackwardKalman:
    def _delta(self, sys, gamma):
        norm = normalize_control_weight(sys)
        fwd = riccati.forward_kalman(norm)
        bwd = riccati.backward_kalman(norm, fwd, gamma)
        return norm, fwd, bwd

    def test_zero_q_gives_gamma_identity(self):
        sys = s1()
        zero_q = validate_system(
            LqSystem(sys.A, sys.B_u, sys.B_w, np.zeros_like(sys.Q), sys.R, sys.Q_T)
        )
        norm, fwd, bwd = self._delta(zero_q, 2.0)
        D = reference_dense_delta_operator(norm, fwd, bwd)
        assert np.allclose(D, 2.0 * np.eye(3), atol=1e-12)

    def test_s1_factorization_residual(self):
        norm, fwd, bwd = self._delta(s1(), 1.0)
        D = reference_dense_delta_operator(norm, fwd, bwd)
        ops = dense.build_operators(norm.system)
        F, G = ops.F, ops.G
        target = np.eye(3) + G.T @ np.linalg.solve(np.eye(F.shape[0]) + F @ F.T, G)
        assert np.linalg.norm(D.T @ D - target) <= 1e-8 * np.linalg.norm(target)

    def test_matches_dense_causal_factor(self):
        for seed in (0, 1):
            sys = random_system(seed, T_max=8)
            for gamma in (0.5, 1.0, 2.0):
                norm, fwd, bwd = self._delta(sys, gamma)
                D = reference_dense_delta_operator(norm, fwd, bwd)
                ops = dense.build_operators(norm.system)
                F, G = ops.F, ops.G
                target = gamma**2 * np.eye(G.shape[1]) + G.T @ np.linalg.solve(
                    np.eye(F.shape[0]) + F @ F.T, G
                )
                factored = reference_causal_factor(target, block=sys.p).M
                assert np.abs(D - factored).max() <= 1e-7 * (1 + np.abs(D).max())

    def test_factorization_random_gammas(self):
        for seed in range(6):
            sys = random_system(seed + 20, T_max=12)
            for gamma in (0.5, 1.0, 2.0):
                norm, fwd, bwd = self._delta(sys, gamma)
                D = reference_dense_delta_operator(norm, fwd, bwd)
                ops = dense.build_operators(norm.system)
                F, G = ops.F, ops.G
                target = gamma**2 * np.eye(G.shape[1]) + G.T @ np.linalg.solve(
                    np.eye(F.shape[0]) + F @ F.T, G
                )
                assert np.linalg.norm(D.T @ D - target) <= 1e-8 * np.linalg.norm(target)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, 0.0])
    def test_non_finite_or_nonpositive_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            self._delta(s1(), gamma)

    @pytest.mark.parametrize("cuts", [(), (1,), (1, 3), (2, 5, 6)])
    def test_windows_chained_by_their_carry_equal_one_sweep(self, cuts):
        sys = random_system(7, T_max=9, stable=False, with_terminal=True)  # T = 9
        norm, fwd, bwd = self._delta(sys, 1.5)
        T = sys.T
        bounds = [0] + [T - c for c in sorted(cuts, reverse=True)] + [T]
        carry = fwd.W[T]
        tapes = []
        for t0, t1 in reversed(list(zip(bounds, bounds[1:]))):
            *tape, carry = kernels.backward_kalman(
                fwd.Atil[t0:t1], norm.system.B_w[t0:t1], fwd.W[t0:t1], 1.5, carry
            )
            tapes.insert(0, tape)
        for k, full in enumerate((bwd.P_b, bwd.K_bl, bwd.R_be)):
            assert np.array_equal(np.concatenate([tape[k] for tape in tapes]), full)

    def test_tapes_symmetric_psd(self):
        norm, fwd, bwd = self._delta(random_system(4), 1.0)
        for P in bwd.P_b:
            assert np.allclose(P, P.T)
            assert np.linalg.eigvalsh(P).min() >= -1e-9
