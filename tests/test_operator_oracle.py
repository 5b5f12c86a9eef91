from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regretctl import cli
from regretctl import controllers as ct
from regretctl import operator_oracle as oo
from regretctl.augmentation import augment_delay, augment_predictions
from regretctl.cli import pendulum_system
from regretctl.system_model import (
    DefinitenessError,
    LqSystem,
    evaluate_cost,
    normalize_control_weight,
    psd_sqrt,
    validate_system,
)
from regretctl import riccati
from helpers import (
    REGRET_FREE,
    ZeroController,
    random_ltv,
    random_system,
    reference_causal_factor,
    reference_dense_delta_operator,
    reference_dense_l_operator,
    regret_free_system,
    s1,
    stacked_s,
    to_normalized_u,
)
import dense_oracle as dense
import rollout_oracle as ro


DATA = Path(__file__).parent / "data"


_S1 = s1()
# systems whose disturbance produces no cost: S1 with B_w = 0, and the
# pendulum at T = 20 with each choice of helpers.REGRET_FREE
_REGRET_FREE = {
    "s1-no-disturbance": validate_system(
        LqSystem(_S1.A, _S1.B_u, np.zeros_like(_S1.B_w), _S1.Q, _S1.R, _S1.Q_T)
    ),
    **{name: regret_free_system(zeroed) for name, zeroed in REGRET_FREE.items()},
}


def ops_for(sys):
    return dense.build_operators(normalize_control_weight(sys).system)


class TestBuildOperators:
    def test_s1_g_first_column(self):
        ops = ops_for(s1())
        assert np.allclose(ops.G[:, 0], [0.0, 1.0, 1.0])

    def test_requires_normalized_r(self):
        with pytest.raises(ValueError, match="R-normalized"):
            dense.build_operators(s1(R=2.0))

    def test_zero_weighting_gives_zero_operators(self):
        sys = s1()
        zero_q = validate_system(
            LqSystem(sys.A, sys.B_u, sys.B_w, np.zeros_like(sys.Q), sys.R, sys.Q_T)
        )
        ops = ops_for(zero_q)
        assert not ops.F.any() and not ops.G.any()

    def test_strict_causality(self):
        for seed in range(5):
            sys = random_system(seed, T_max=8)
            ops = ops_for(sys)
            n, m, p = sys.n, sys.m, sys.p
            for i in range(ops.n_rows):
                for j in range(sys.T):
                    if j >= i:
                        assert not ops.F[i * n:(i + 1) * n, j * m:(j + 1) * m].any()
                        assert not ops.G[i * n:(i + 1) * n, j * p:(j + 1) * p].any()

    def test_matches_rollout(self):
        for seed in range(10):
            sys = random_system(seed, T_max=8)
            nsys = normalize_control_weight(sys).system
            ops = dense.build_operators(nsys)
            rng = np.random.default_rng(seed + 7)
            w = rng.standard_normal(sys.T * sys.p)
            u = rng.standard_normal(sys.T * sys.m)
            traj = evaluate_cost(nsys, w.reshape(sys.T, sys.p), u.reshape(sys.T, sys.m))
            s = stacked_s(nsys, traj)
            assert np.abs(ops.F @ u + ops.G @ w - s).max() <= 1e-10 * (1 + np.abs(s).max())

    @pytest.mark.parametrize(
        "sys",
        [s1(), s1(1), s1(4, Q_T=[[2.0]]), s1(1, Q_T=[[1.0]])]
        + [random_system(seed, T_max=20, stable=seed % 2 == 0) for seed in range(70, 78)],
    )
    def test_rows_equal_per_block_products(self, sys):
        """Each block is the product the per-block loop makes, bit for bit."""
        nsys = normalize_control_weight(sys).system
        ops = dense.build_operators(nsys)
        T, n, m, p = sys.T, sys.n, sys.m, sys.p
        sqQ = psd_sqrt(np.concatenate((nsys.Q, nsys.Q_T[None])))
        F = np.zeros_like(ops.F)
        G = np.zeros_like(ops.G)
        for j in range(T):
            Mu, Mw = nsys.B_u[j].copy(), nsys.B_w[j].copy()
            for i in range(j + 1, ops.n_rows):
                F[i * n:(i + 1) * n, j * m:(j + 1) * m] = sqQ[min(i, T)] @ Mu
                G[i * n:(i + 1) * n, j * p:(j + 1) * p] = sqQ[min(i, T)] @ Mw
                if i < T:
                    Mu, Mw = nsys.A[i] @ Mu, nsys.A[i] @ Mw
        assert ops.n_rows == T + bool(np.any(nsys.Q_T))
        assert np.array_equal(ops.F, F) and np.array_equal(ops.G, G)

    def test_size_cap(self):
        big = s1(T=2001)
        with pytest.raises(ro.SizeCapError, match="2000"):
            dense.build_operators(big)


class TestOffline:
    def test_s1_impulse(self):
        ops = ops_for(s1())
        u, cost = dense.offline_optimal(ops, [1.0, 0.0, 0.0])
        assert np.allclose(u, [-0.6, -0.2, 0.0], atol=1e-10)
        assert cost == pytest.approx(0.6, abs=1e-10)

    def test_zero_disturbance(self):
        ops = ops_for(s1())
        u, cost = dense.offline_optimal(ops, np.zeros(3))
        assert not u.any() and cost == 0.0

    def test_minimality(self):
        for seed in range(5):
            sys = random_system(seed, T_max=8)
            nsys = normalize_control_weight(sys).system
            ops = dense.build_operators(nsys)
            rng = np.random.default_rng(seed)
            w = rng.standard_normal(sys.T * sys.p)
            _, best = dense.offline_optimal(ops, w)
            for _ in range(100):
                u = rng.standard_normal((sys.T, sys.m))
                c = evaluate_cost(nsys, w.reshape(sys.T, sys.p), u).total_cost
                assert best <= c + 1e-9

    def test_cost_form_consistent(self):
        ops = ops_for(s1())
        w = np.array([1.0, 0.0, 0.0])
        _, cost = dense.offline_optimal(ops, w)
        assert w @ dense.offline_cost_form(ops) @ w == pytest.approx(cost, abs=1e-12)


# stable and unstable, with and without a terminal cost, n, m, p up to 4
DENSE_FACTOR_SYSTEMS = [s1(), s1(4, Q_T=[[2.0]])] + [
    random_system(seed, n_max=4, m_max=4, p_max=4, T_max=14, stable=seed % 2 == 0,
                  with_terminal=seed % 4 < 2)
    for seed in range(80, 90)
]


class TestDenseFactors:
    """The reference realizations of L and Delta from the Kalman tapes, block
    by block against the reference block Cholesky factors of I + FF' and of
    gamma^2 I + G'(I + FF')^{-1}G: each factor is the unique one that is
    block-lower-triangular with symmetric PD pivots."""

    @staticmethod
    def _close(X, ref, *targets):
        # the two routes round differently, so the bound grows with the
        # condition of the operators; the 1e-11 floor covers the 1e-12
        # pivot regularization of the dense factor
        assert X.shape == ref.shape
        cond = max(np.linalg.cond(S) for S in targets)
        assert np.abs(X - ref).max() <= (1e-11 + 1e-14 * cond) * np.abs(ref).max()

    @pytest.mark.parametrize("sys", DENSE_FACTOR_SYSTEMS)
    def test_l_matches_reference(self, sys):
        norm = normalize_control_weight(sys)
        ops = dense.build_operators(norm.system)
        S = np.eye(ops.F.shape[0]) + ops.F @ ops.F.T
        ref = reference_causal_factor(S, sys.n, side="lower_times_upper").M
        self._close(reference_dense_l_operator(norm, riccati.forward_kalman(norm)), ref, S)

    @pytest.mark.parametrize("sys", DENSE_FACTOR_SYSTEMS)
    def test_delta_matches_reference(self, sys):
        norm = normalize_control_weight(sys)
        ops = dense.build_operators(norm.system)
        fwd = riccati.forward_kalman(norm)
        S = np.eye(ops.F.shape[0]) + ops.F @ ops.F.T
        for gamma in (0.3, 1.0, 2.5):
            bwd = riccati.backward_kalman(norm, fwd, gamma)
            target = gamma**2 * np.eye(ops.G.shape[1]) + dense.offline_cost_form(ops)
            ref = reference_causal_factor(target, sys.p).M
            self._close(reference_dense_delta_operator(norm, fwd, bwd), ref, S, target)

    def test_l_block_layout(self):
        # the terminal block column of L holds only its diagonal block
        sys = s1(3, Q_T=[[1.0]])
        norm = normalize_control_weight(sys)
        fwd = riccati.forward_kalman(norm)
        L = reference_dense_l_operator(norm, fwd)
        assert L.shape == (4, 4)
        assert not np.triu(L, k=1).any()
        assert np.array_equal(np.diag(L), psd_sqrt(fwd.R_e)[:, 0, 0])


def _ltv_system(seed, n, m, p, T):
    """A random LTV system with a terminal cost: A scaled to spectral radius
    0.85 at every step, random PSD Q and Q_T, PD R."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((T, n, n))
    A *= 0.85 / np.abs(np.linalg.eigvals(A)).max(axis=1)[:, None, None]
    C, D, E = rng.standard_normal((T, n, n)), rng.standard_normal((T, m, m)), rng.standard_normal((n, n))
    return validate_system(LqSystem(
        A, rng.standard_normal((T, n, m)), rng.standard_normal((T, n, p)),
        C.mT @ C / n, D.mT @ D / m + 0.5 * np.eye(m), E.T @ E / n,
    ))


# the stable ones, where L is accurate enough to give G back from W
FACTORED_STABLE_SYSTEMS = (
    [s1(), s1(7, R=2.0, Q_T=[[1.5]])]
    + [random_system(seed + 400, n_max=2, m_max=2, p_max=2, T_max=8) for seed in range(10)]
    + [_ltv_system(41, n=8, m=4, p=4, T=120)]
)


class TestFactoredOfflineTerm:
    """W = L^{-1}G from the forward Kalman tape gives the offline cost form
    as W'W; the dense solve of I + FF' is its referee."""

    @pytest.mark.parametrize("sys", FACTORED_STABLE_SYSTEMS + [random_system(104, stable=False)])
    def test_w_gram_matches_dense_form(self, sys):
        ops = ops_for(sys)
        assert ops.W.shape == ops.G.shape
        ref = dense.offline_cost_form(ops)
        assert np.abs(ops.W.T @ ops.W - ref).max() <= 1e-9 * np.abs(ref).max()

    @pytest.mark.parametrize("sys", FACTORED_STABLE_SYSTEMS)
    def test_l_times_w_is_g(self, sys):
        norm = normalize_control_weight(sys)
        ops = dense.build_operators(norm.system)
        L = reference_dense_l_operator(norm, riccati.forward_kalman(norm))
        assert np.abs(L @ ops.W - ops.G).max() <= 1e-10 * np.abs(ops.G).max()

    def test_strictly_causal(self):
        sys = s1(4, Q_T=[[2.0]])
        W = ops_for(sys).W
        assert W.shape == (5, 4)
        assert not np.triu(W).any()


class TestCausalFactor:
    """The reference block Cholesky factor: the referee of Delta and of the
    H2 operator form."""

    def test_identity(self):
        M = reference_causal_factor(np.eye(6), block=2).M
        assert np.allclose(M, np.eye(6), atol=1e-9)

    def test_scalar_blocks(self):
        M = reference_causal_factor(np.diag([4.0, 9.0]), block=1).M
        assert np.allclose(M, np.diag([2.0, 3.0]), atol=1e-10)

    def test_s1_delta_target(self):
        ops = ops_for(s1())
        F, G = ops.F, ops.G
        target = np.eye(3) + G.T @ np.linalg.solve(np.eye(3) + F @ F.T, G)
        M = reference_causal_factor(target, block=1).M
        resid = np.linalg.norm(M.T @ M - target) / np.linalg.norm(target)
        assert resid <= 1e-8

    def test_both_sides(self):
        # M'M = S directly; the MM' = S factor as E N' E, where N'N = E S E
        # and E reverses the block order
        rng = np.random.default_rng(3)
        M = rng.standard_normal((8, 8))
        S = M @ M.T + 8 * np.eye(8)
        E = np.kron(np.eye(4)[::-1], np.eye(2))
        up = reference_causal_factor(S, block=2).M
        lo = E @ reference_causal_factor(E @ S @ E, block=2).M.T @ E
        assert np.linalg.norm(lo @ lo.T - S) <= 1e-8 * np.linalg.norm(S)
        assert np.linalg.norm(up.T @ up - S) <= 1e-8 * np.linalg.norm(S)
        # both factors block-lower-triangular with PD symmetric pivots
        for f in (lo, up):
            for i in range(4):
                blk = f[i * 2:(i + 1) * 2, i * 2:(i + 1) * 2]
                assert np.allclose(blk, blk.T, atol=1e-9)
                assert np.linalg.eigvalsh(blk).min() > 0
                for j in range(i + 1, 4):
                    assert not f[i * 2:(i + 1) * 2, j * 2:(j + 1) * 2].any()

    def test_indefinite_rejected(self):
        with pytest.raises(DefinitenessError, match="pivot"):
            reference_causal_factor(np.diag([1.0, -1.0]), block=1)

    def test_indefinite_names_its_pivot_block(self):
        # the factorization runs from the last block up, so it meets -1 first
        with pytest.raises(DefinitenessError, match=r"at pivot block 1 \(min eigenvalue -1"):
            reference_causal_factor(np.diag([1.0, -1.0]), block=1)
        with pytest.raises(DefinitenessError, match="at pivot block 0 "):
            reference_causal_factor(np.diag([-1.0, 1.0, 2.0, 3.0]), block=2)

    def test_size_not_a_multiple_of_block(self):
        with pytest.raises(ValueError, match="not a multiple of block size 2"):
            reference_causal_factor(np.eye(3), block=2)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_matches_reference(self, seed, block):
        # LAPACK's Cholesky of the block-reversed operator gives a triangular
        # M0 with M0'M0 = S; rotating each diagonal block to its symmetric PD
        # square root gives the block factor, which is unique
        rng = np.random.default_rng(seed)
        nb = int(rng.integers(1, 7))
        N = nb * block
        X = rng.standard_normal((N, N))
        S = X @ X.T + rng.uniform(0.1, 3.0) * np.eye(N)
        M = reference_causal_factor(S, block).M
        E = np.eye(N)[::-1]
        # the same 1e-12 pivot regularization as the block factor
        M0 = E @ np.linalg.cholesky(E @ (S + 1e-12 * np.trace(S) / N * np.eye(N)) @ E).T @ E
        ref = np.empty_like(M0)
        for i in range(nb):
            rows = slice(i * block, (i + 1) * block)
            d = M0[rows, rows]
            ref[rows] = psd_sqrt(d.T @ d) @ np.linalg.solve(d, M0[rows])
        assert np.abs(M - ref).max() <= 1e-12 * np.abs(ref).max()


class TestCausalPart:
    def test_zeroes_upper_blocks(self):
        M = np.ones((4, 6))
        out = dense.causal_part(M, 2, 3)
        assert out[:2, 3:].sum() == 0 and out[:2, :3].sum() == 6

    @given(seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((6, 9))
        once = dense.causal_part(M, 2, 3)
        assert np.array_equal(dense.causal_part(once, 2, 3), once)

    @pytest.mark.parametrize("shape,rb,cb", [((6, 9), 2, 3), ((7, 10), 2, 3), ((5, 5), 1, 1)])
    def test_equals_per_block_loop(self, shape, rb, cb):
        M = np.random.default_rng(0).standard_normal(shape)
        ref = M.copy()
        for i in range(shape[0] // rb):
            for j in range(i + 1, shape[1] // cb):
                ref[i * rb:(i + 1) * rb, j * cb:(j + 1) * cb] = 0.0
        assert np.array_equal(dense.causal_part(M, rb, cb), ref)


class TestControllerOperator:
    def test_zero_controller(self):
        sys = s1()
        K = dense.controller_operator(sys, ZeroController(sys))
        assert not K.any()

    def test_h2_matches_rollouts(self):
        sys = s1()
        h2 = ct.synthesize_h2(sys)
        K = dense.controller_operator(sys, h2)
        rng = np.random.default_rng(2)
        for _ in range(20):
            w = rng.standard_normal((3, 1))
            u = h2.control_sequence(w)
            assert np.allclose(K @ w.reshape(-1), to_normalized_u(sys, u).reshape(-1), atol=1e-10)

    def test_offline_is_noncausal(self):
        sys = s1()
        with pytest.raises(ro.CausalityViolationError):
            dense.controller_operator(sys, ct.OfflineController(sys))

    @pytest.mark.parametrize(
        "sys,tol,message",
        [
            (s1(), 1e-9, "controller block (0, 1) has magnitude 0.2 > 1e-09"),
            (random_system(6, T_max=10), 0.2, "controller block (2, 3) has magnitude 0.213002 > 0.2"),
            (random_system(7, T_max=10), 0.5, "controller block (0, 2) has magnitude 0.500347 > 0.5"),
        ],
    )
    def test_violation_names_first_block_row_major(self, sys, tol, message):
        # messages recorded with the per-block loop the check replaced
        with pytest.raises(ro.CausalityViolationError) as info:
            dense.controller_operator(sys, ct.OfflineController(sys), tol=tol)
        assert str(info.value) == message

    @pytest.mark.parametrize("seed,stable", [(61, True), (62, False), (63, True)])
    def test_batched_probe_equals_per_impulse_probing(self, seed, stable):
        """One rollout over all T*p impulses gives the bits of probing each
        impulse alone."""
        from regretctl.sim_bench import rollout

        sys = random_system(seed, T_max=10, stable=stable)
        T, m, p = sys.T, sys.m, sys.p
        for ctrl in (
            ct.synthesize_h2(sys),
            ct.hinf_optimal(sys, 1e-6)[1],
            ct.regret_optimal(sys, 1e-6)[1],
        ):
            K_ref = np.zeros((T * m, T * p))
            for j in range(T):
                for c in range(p):
                    w = np.zeros((T, p))
                    w[j, c] = 1.0
                    u = to_normalized_u(sys, rollout(sys, ctrl, w).u)
                    K_ref[:, j * p + c] = u.reshape(-1)
            K = dense.controller_operator(sys, ctrl)
            assert K.flags.c_contiguous
            assert np.array_equal(K, K_ref)


    def test_probe_evaluates_no_cost(self, monkeypatch):
        from regretctl import sim_bench

        sys = random_system(64, T_max=10)
        ctrl = ct.regret_optimal(sys, 1e-6)[1]
        K_ref = dense.controller_operator(sys, ctrl)

        def refused(*args):
            raise AssertionError("the probe evaluated a cost")

        monkeypatch.setattr(sim_bench, "evaluate_cost", refused)
        monkeypatch.setattr(sim_bench, "rollout", refused)
        assert np.array_equal(dense.controller_operator(sys, ctrl), K_ref)


class TestRegretGain:
    def test_offline_operator_zero_regret(self):
        ops = ops_for(s1())
        F, G = ops.F, ops.G
        K_off = -np.linalg.solve(np.eye(F.shape[1]) + F.T @ F, F.T @ G)
        cert = dense.worst_case_regret_gain(ops, K_off)
        assert abs(cert.gain) <= 1e-9

    def test_zero_controller_gain(self):
        ops = ops_for(s1())
        G = ops.G
        expected = np.linalg.eigvalsh(
            G.T @ G - dense.offline_cost_form(ops)
        )[-1]
        cert = dense.worst_case_regret_gain(ops, np.zeros((3, 3)))
        assert cert.gain == pytest.approx(expected, rel=1e-10)
        assert cert.gain > 0

    def test_regret_optimal_matches_bisection(self):
        sys = s1()
        res, ctrl = ct.regret_optimal(sys, tol=1e-8)
        ops = ops_for(sys)
        K = dense.controller_operator(sys, ctrl)
        cert = dense.worst_case_regret_gain(ops, K)
        assert cert.gain == pytest.approx(res.gamma_opt**2, rel=1e-4)

    @pytest.mark.parametrize("T", [30, 40, 50, 60])
    def test_pendulum_certificate_holds(self, T):
        """On the unstable pendulum, where ||F|| grows like 1.95^T, the
        certified gain of the regret-optimal controller stays at
        gamma_opt^2: the closed-loop states and the offline term W'W stay
        bounded. The bound is the level's own resolution, since gamma_opt
        itself resolves to only a few 1e-6 on the pendulum whatever the tol
        (a change of state coordinates moves it by 2-3e-6). Up to T = 50 the
        dense referee, whose FK + G only cancels, holds it too; at T = 60 it
        reads 324."""
        sys = pendulum_system(T)
        res, ctrl = ct.regret_optimal(sys, tol=1e-8)
        level = res.gamma_opt**2
        assert abs(ro.regret_certificate(sys, ctrl).gain - level) <= 1e-5 * level
        if T <= 50:
            cert = dense.worst_case_regret_gain(ops_for(sys), dense.controller_operator(sys, ctrl))
            assert abs(cert.gain - level) <= 1e-5 * level

    def test_smoke_long_certificate_holds(self):
        """tests/data/smoke_long.json, the pendulum at T = 300, certifies
        within the same bound (its dense F K + G read 1.7e143)."""
        _assert_config_certificate_holds("smoke_long.json")

    def test_unstable_multi_input_certificate_holds(self):
        """So does tests/data/unstable_multi_input.json (rho(A) = 1.3,
        m = p = 2, R != I, T = 160), whose gain reads 5.3e-7 below the level."""
        _assert_config_certificate_holds("unstable_multi_input.json")

    def test_witness_self_consistency(self):
        sys = s1()
        _, ctrl = ct.regret_optimal(sys, tol=1e-8)
        ops = ops_for(sys)
        K = dense.controller_operator(sys, ctrl)
        cert = dense.worst_case_regret_gain(ops, K)
        quad = cert.witness @ cert.regret_quadratic_form @ cert.witness
        assert quad == pytest.approx(cert.gain * (cert.witness @ cert.witness), rel=1e-6)

    def test_cost_gain_upper_bounds_regret_gain(self):
        ops = ops_for(s1())
        K = np.zeros((3, 3))
        assert dense.worst_case_cost_gain(ops, K) >= dense.worst_case_regret_gain(ops, K).gain


class TestH2OperatorForm:
    def test_s1_matches_probe(self):
        sys = s1()
        ops = ops_for(sys)
        K = dense.h2_operator_form(ops)
        K_probe = dense.controller_operator(sys, ct.synthesize_h2(sys))
        assert np.abs(K - K_probe).max() <= 1e-8

    def test_zero_weighting_zero_controller(self):
        sys = s1()
        zero_q = validate_system(
            LqSystem(sys.A, sys.B_u, sys.B_w, np.zeros_like(sys.Q), sys.R, sys.Q_T)
        )
        assert not dense.h2_operator_form(ops_for(zero_q)).any()

    def test_lower_triangular(self):
        for seed in range(5):
            sys = random_system(seed, T_max=8)
            ops = ops_for(sys)
            K = dense.h2_operator_form(ops)
            m, p = sys.m, sys.p
            for i in range(sys.T):
                for j in range(i + 1, sys.T):
                    assert np.abs(K[i * m:(i + 1) * m, j * p:(j + 1) * p]).max() <= 1e-10


AUGMENTATIONS = {
    "plain": lambda sys: sys,
    "lookahead2": lambda sys: augment_predictions(sys, 2).system,
    "delay1": lambda sys: augment_delay(sys, 1).system,
}


class TestRegretCertificate:
    """`regret_certificate` against the dense referee
    `worst_case_regret_gain(build_operators(...), K)`."""

    @pytest.mark.parametrize("stable", [True, False], ids=["stable", "unstable"])
    @pytest.mark.parametrize("variant", list(AUGMENTATIONS))
    @pytest.mark.parametrize("seed", range(20, 32))
    def test_matches_dense_referee(self, seed, variant, stable):
        """K is the probe's bits. The gain agrees within
        `dense_oracle.referee_gap_bound`: 1e-12 relative (1e-15 absolute
        below 1e-3), plus eps ||F|| ||K||."""
        sys = AUGMENTATIONS[variant](random_system(seed, T_max=40, stable=stable))
        _, ctrl = ct.regret_optimal(sys, 1e-6)
        _assert_matches_dense_referee(sys, ctrl)

    @pytest.mark.parametrize("variant", list(AUGMENTATIONS))
    @pytest.mark.parametrize("seed", range(20, 26))
    def test_feedback_controllers_match_dense_referee(self, seed, variant):
        """The certificate needs nothing of a controller but its controls:
        the H2 and H-infinity controllers of stable systems certify as the
        dense referee does."""
        sys = AUGMENTATIONS[variant](random_system(seed, T_max=40))
        _assert_matches_dense_referee(sys, ct.synthesize_h2(sys))
        _assert_matches_dense_referee(sys, ct.hinf_optimal(sys, 1e-6)[1])

    def test_zero_controller(self):
        """The zero controller's states are the plant's open-loop response."""
        sys = s1()
        cert = ro.regret_certificate(sys, ZeroController(sys))
        referee = dense.worst_case_regret_gain(ops_for(sys), np.zeros((3, 3)))
        assert not cert.K.any()
        assert cert.gain == pytest.approx(referee.gain, rel=1e-12)

    @pytest.mark.parametrize("sys", _REGRET_FREE.values(), ids=list(_REGRET_FREE))
    def test_degenerate_certificate_is_the_referee_bits(self, sys):
        """With no disturbance input or no state weight every term of the
        form is exactly zero, as in the dense form."""
        res, ctrl = ct.regret_optimal(sys)
        assert res.gamma_opt == 0.0 and ctrl.feasible
        cert = ro.regret_certificate(sys, ctrl)
        referee = dense.worst_case_regret_gain(ops_for(sys), dense.controller_operator(sys, ctrl))
        assert cert.gain == referee.gain == 0.0
        assert np.array_equal(cert.witness, referee.witness)
        assert np.array_equal(cert.regret_quadratic_form, referee.regret_quadratic_form)

    def test_causality_violation(self):
        sys = s1()
        with pytest.raises(ro.CausalityViolationError, match=r"controller block \(0, 1\) has magnitude 0.2 > 1e-09"):
            ro.regret_certificate(sys, ct.OfflineController(sys))

    def test_non_finite_control(self):
        sys = s1()

        class Diverging:
            def control_sequence(self, w):
                return ZeroController(sys).control_sequence(w) + np.nan

        with pytest.raises(ArithmeticError, match="non-finite control"):
            ro.regret_certificate(sys, Diverging())

    def test_size_cap(self):
        sys = s1(T=2001)

        class Refused:
            def control_sequence(self, w):
                raise AssertionError("rolled out beyond the cap")

        with pytest.raises(ro.SizeCapError):
            ro.regret_certificate(sys, Refused())


def _assert_config_certificate_holds(name):
    cfg = cli.parse_config((DATA / name).read_text())
    sys = cli._augmented(cfg)
    res, ctrl = ct.regret_optimal(sys, cfg["resolved"]["tol"])
    level = res.gamma_opt**2
    assert abs(ro.regret_certificate(sys, ctrl).gain - level) <= 1e-5 * level


def _assert_matches_dense_referee(sys, ctrl):
    cert = ro.regret_certificate(sys, ctrl)
    K = dense.controller_operator(sys, ctrl)
    assert np.array_equal(cert.K, K)
    ops = ops_for(sys)
    referee = dense.worst_case_regret_gain(ops, K).gain
    assert abs(cert.gain - referee) <= dense.referee_gap_bound(ops, K, referee)


# The five tests/data configs whose certificates CI checks, and the system of
# the benchmark's certify workload at benchmark seed 41: perfbench builds it
# with the generator of helpers.random_ltv, seeded
# SeedSequence([41, 3]).generate_state(1)[0] & 0x7FFFFFFF.
CERTIFICATE_CONFIGS = [
    "smoke.json", "smoke_augmented.json", "pendulum_certify.json", "smoke_long.json", "unstable_multi_input.json",
]
W3_SEED = 861991420


def _config_search(name):
    """The augmented plant of a tests/data config, its regret search and its tol."""
    cfg = cli.parse_config((DATA / name).read_text())
    sys = cli._augmented(cfg)
    res, ctrl = ct.regret_optimal(sys, cfg["resolved"]["tol"])
    return sys, res, ctrl, cfg["resolved"]["tol"]


def _regret(sys, ctrl, w):
    """The realized regret of the disturbance w (T*p,): the cost of ctrl's
    loop minus the offline-optimal cost, as `compare` accounts them."""
    from regretctl.sim_bench import rollout

    w = w.reshape(sys.T, sys.p)
    return rollout(sys, ctrl, w).total_cost - rollout(sys, ct.OfflineController(sys), w).total_cost


def _assert_unit_witness(witness, sys):
    assert witness.shape == (sys.T * sys.p,)
    assert abs(np.linalg.norm(witness) - 1.0) <= 4 * np.finfo(float).eps
    assert witness[np.argmax(np.abs(witness))] > 0.0


def _assert_tight(sys, res, ctrl, tol):
    """The paper's tight bound at gamma_opt: the witness's realized regret is
    at most the certified gain, and within 1e-6 of it, and the gain is at
    most gamma_opt^2 to the search's resolution. The gain is `certify`'s,
    from the search started on the regret search's brackets."""
    gain, witness = oo.regret_gain(ctrl, res.bracket_history)
    _assert_unit_witness(witness, sys)
    regret = _regret(sys, ctrl, witness)
    assert regret <= gain <= res.gamma_opt**2 * (1 + 2 * tol)
    assert gain - regret <= 1e-6 * gain
    return gain


class TestAnalysisCertificate:
    """`operator_oracle.regret_gain`, the level of the H-infinity analysis of
    the regret controller's closed loop, against the rollout referee and the
    paper's tight bound."""

    @pytest.mark.parametrize(
        "case",
        CERTIFICATE_CONFIGS + ["w3"] + [f"random{seed}-{kind}" for seed in (20, 23) for kind in ("stable", "unstable")],
    )
    def test_matches_rollout_referee(self, case):
        """The gain within 1e-9 relative of `regret_certificate`'s (at most
        2.0e-10, on unstable_multi_input.json), and the witness tight
        (`_assert_tight`; smoke_long.json, T = 300, among them)."""
        if case.endswith(".json"):
            sys, res, ctrl, tol = _config_search(case)
        else:
            if case == "w3":
                sys = random_ltv(W3_SEED, n=8, m=4, p=4, T=120)
            else:
                seed, kind = case[len("random"):].split("-")
                sys = random_system(int(seed), T_max=40, stable=kind == "stable")
            tol = 1e-6
            res, ctrl = ct.regret_optimal(sys, tol)
        gain = _assert_tight(sys, res, ctrl, tol)
        referee = ro.regret_certificate(sys, ctrl).gain
        assert abs(gain - referee) <= 1e-9 * referee

    @pytest.mark.parametrize("case", ["pendulum1000", "w4"])
    def test_tight_bound_without_the_referee(self, case):
        """On the pendulum at T = 1000, where the rollout referee would peak
        at 90 MB, and on the benchmark's simulate plant: the pendulum with a
        delay of 1 and a lookahead of 3 (n = 9, T = 100)."""
        sys = pendulum_system(1000)
        if case == "w4":
            sys = augment_predictions(augment_delay(pendulum_system(100), 1).system, 3).system
        res, ctrl = ct.regret_optimal(sys, 1e-6)
        _assert_tight(sys, res, ctrl, 1e-6)

    def test_analysis_cost_is_the_regret(self):
        """The analysis system's weighted cost of a disturbance, along its
        own closed loop, is the realized regret of the controller's loop."""
        sys = random_system(104, stable=False, with_terminal=True)
        _, ctrl = ct.regret_optimal(sys, 1e-6)
        ana = oo.analysis_system(ctrl)
        assert (ana.n, ana.m, ana.p) == (2 * sys.n + sys.m, 1, sys.p)
        assert not ana.B_u.any() and np.array_equal(ana.R, np.ones((sys.T, 1, 1)))
        w = np.random.default_rng(5).standard_normal((sys.T, sys.p))
        xi, cost = np.zeros(ana.n), 0.0
        for t in range(sys.T):
            cost += xi @ ana.Q[t] @ xi
            xi = ana.A[t] @ xi + ana.B_w[t] @ w[t]
        cost += xi @ ana.Q_T @ xi
        regret = _regret(sys, ctrl, w)
        assert cost == pytest.approx(regret, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("sys", _REGRET_FREE.values(), ids=list(_REGRET_FREE))
    def test_degenerate_zero_controller(self, sys):
        """No disturbance produces cost: the controller's controls are 0, its
        gain 0.0, and its witness a unit impulse, since every disturbance
        attains the gain."""
        _, ctrl = ct.regret_optimal(sys)
        assert not ctrl.control_sequence(np.ones((sys.T, sys.p))).any()
        gain, witness = oo.regret_gain(ctrl)
        assert gain == 0.0
        assert witness.shape == (sys.T * sys.p,)
        assert witness.max() == 1.0 and np.count_nonzero(witness) == 1

    def test_rebuilt_controller_is_the_search_synthesis(self):
        """`regret_controller(plant, gamma_opt)` rebuilds the search's final
        synthesis on smoke.json bit for bit, so a certificate's config and
        gamma_opt give its controller back (CI rebuilds it so)."""
        sys, res, ctrl, _ = _config_search("smoke.json")
        rebuilt = ct.regret_controller(sys, res.gamma_opt)
        for name in ("Phat", "Hhat", "margins", "K_xi", "K_w"):
            assert np.array_equal(getattr(rebuilt, name), getattr(ctrl, name)), name
        gain, witness = oo.regret_gain(ctrl, res.bracket_history)
        rebuilt_gain, rebuilt_witness = oo.regret_gain(rebuilt, res.bracket_history)
        assert rebuilt_gain == gain and np.array_equal(rebuilt_witness, witness)

    @staticmethod
    def _search(monkeypatch, ctrl, path=()):
        """regret_gain(ctrl, path), the result of its level search and the
        steps its probes swept."""
        steps, results = [], []
        sweep, search = riccati._Sweep.sweep, oo._bisect_gamma

        def counted(probe, windows=None):
            steps.append(sweep(probe, windows))
            return steps[-1]

        monkeypatch.setattr(riccati._Sweep, "sweep", counted)
        monkeypatch.setattr(oo, "_bisect_gamma", lambda *args: results.append(search(*args)) or results[-1])
        gain, witness = oo.regret_gain(ctrl, path)
        return gain, witness, results[-1][0], sum(steps)

    @pytest.mark.parametrize(
        "case",
        CERTIFICATE_CONFIGS + ["w3"] + [f"random{seed}-{kind}" for seed in (20, 23) for kind in ("stable", "unstable")]
        + ["pendulum30", "pendulum100", "fallback-other-system"] + [f"fallback-{name}" for name in _REGRET_FREE],
    )
    def test_warm_search_is_the_cold_search(self, case, monkeypatch):
        """Started on the regret search's brackets, as `certify` starts it,
        the certificate's search returns the gain, witness and brackets of
        the search from gamma = 1, bit for bit, and sweeps fewer steps. On
        the pendulum gamma_cert lies several brackets above the regret
        search's last, and the search walks up to it. With no node whose lo
        fails and whose hi passes (the pendulum's brackets, gamma_opt = 1.72,
        for smoke.json's controller, gamma_opt = 0.12), or with the empty
        path of a system whose disturbance produces no cost, it runs from
        gamma = 1 to the same bits."""
        if case.endswith(".json"):
            _, res, ctrl, _ = _config_search(case)
        elif case == "fallback-other-system":
            _, _, ctrl, _ = _config_search("smoke.json")
            res = ct.regret_optimal(pendulum_system(30), 1e-6)[0]
        elif case.startswith("fallback-"):
            res, ctrl = ct.regret_optimal(_REGRET_FREE[case[len("fallback-"):]])
            assert res.bracket_history == []
        else:
            if case == "w3":
                sys = random_ltv(W3_SEED, n=8, m=4, p=4, T=120)
            elif case.startswith("pendulum"):
                sys = pendulum_system(int(case[len("pendulum"):]))
            else:
                seed, kind = case[len("random"):].split("-")
                sys = random_system(int(seed), T_max=40, stable=kind == "stable")
            res, ctrl = ct.regret_optimal(sys, 1e-6)
        path = res.bracket_history
        gain, witness, cold, cold_steps = self._search(monkeypatch, ctrl)
        warm_gain, warm_witness, warm, warm_steps = self._search(monkeypatch, ctrl, path)
        assert warm_gain == gain and np.array_equal(warm_witness, witness)
        assert warm.gamma_opt == cold.gamma_opt and warm.bracket_history == cold.bracket_history
        if case.startswith("fallback-"):
            return
        assert warm_steps < cold_steps
        if case == "w3":  # the benchmark's certify workload: 2552 steps of 4856
            assert warm_steps <= 2600 < cold_steps
        if case.startswith("pendulum"):
            assert warm.bracket_history[: len(path)] != path
