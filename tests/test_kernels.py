import warnings

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from regretctl import controllers as ct
from regretctl import kernels, riccati
from regretctl.cli import pendulum_system
from regretctl.system_model import LqSystem, normalize_control_weight, psd_sqrt, validate_system
from helpers import (
    random_system,
    reference_backward_kalman,
    reference_forward_kalman,
    reference_riccati_backward,
    reference_rollout_regret,
    s1,
)

# The public kernels. perfbench's tracer wraps each of these module attributes
# by name and reads their arguments, so renaming or removing one breaks it.
PUBLIC_KERNELS = (
    "lqr_backward",
    "hinf_backward",
    "forward_kalman",
    "backward_kalman",
    "regret_phat_backward",
    "rollout_feedback",
    "rollout_regret",
)


def test_public_kernel_surface():
    for name in PUBLIC_KERNELS:
        assert callable(vars(kernels).get(name)), name
    assert kernels.BACKEND == "numpy"


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


def assert_same_bits(a, b):
    assert _bits(a) == _bits(b)


def _matrices(seed, k, kind, count=12):
    """A stack of random symmetric matrices, positive definite or indefinite."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((count, k, k))
    if kind == "spd":
        return M @ np.swapaxes(M, 1, 2) + 0.1 * np.eye(k)
    return M + np.swapaxes(M, 1, 2)


class TestPrivateLinalgApi:
    """The kernels call the gufuncs behind np.linalg.solve and np.linalg.eigh
    directly. A numpy release that moves them or changes what they compute
    fails here."""

    def test_kernels_use_the_gufuncs(self):
        assert kernels._solve is _umath_linalg.solve
        assert kernels._eigh is _umath_linalg.eigh_lo

    @pytest.mark.parametrize("kind", ["spd", "indefinite"])
    @pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
    def test_solve_equals_public_solve(self, k, kind):
        a = _matrices(k, k, kind)
        rng = np.random.default_rng(100 + k)
        b = rng.standard_normal((a.shape[0], k, 3))
        bT = np.swapaxes(rng.standard_normal((a.shape[0], 3, k)), 1, 2)  # strided, as X.T
        with kernels._linalg_errstate():
            for rhs in (b, bT):
                assert_same_bits(kernels._solve(a, rhs, signature="dd->d"), np.linalg.solve(a, rhs))
                for ai, bi in zip(a, rhs):
                    assert_same_bits(kernels._solve(ai, bi, signature="dd->d"), np.linalg.solve(ai, bi))

    @pytest.mark.parametrize("kind", ["spd", "indefinite"])
    @pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
    def test_eigh_lo_equals_public_eigh(self, k, kind):
        a = _matrices(1000 + k, k, kind)
        with kernels._linalg_errstate():
            vals, vecs = kernels._eigh(a, signature="d->dd")
            assert_same_bits(vals, np.linalg.eigh(a).eigenvalues)
            assert_same_bits(vecs, np.linalg.eigh(a).eigenvectors)
            for ai in a:
                v, V = kernels._eigh(ai, signature="d->dd")
                ref = np.linalg.eigh(ai)
                assert_same_bits(v, ref.eigenvalues)
                assert_same_bits(V, ref.eigenvectors)
                assert_same_bits(kernels._max_eig(ai), np.linalg.eigh(kernels._sym(ai))[0][-1])

    @pytest.mark.parametrize(
        "a",
        [np.zeros((1, 1)), np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros((4, 4))],
        ids=["zero-1x1", "rank-1-2x2", "zero-4x4"],
    )
    def test_singular_pivot_raises_inside_kernel_errstate(self, a):
        with kernels._linalg_errstate():
            with pytest.raises(np.linalg.LinAlgError):
                kernels._solve(a, np.eye(a.shape[0]), signature="dd->d")
        with pytest.raises(np.linalg.LinAlgError):  # as the public call does
            np.linalg.solve(a, np.eye(a.shape[0]))

    def test_kernel_leaves_the_callers_error_state(self):
        sys = pendulum_system(20)
        before = np.geterr()
        with np.errstate(all="raise"):
            kernels.hinf_backward(sys.A, sys.B_u, sys.B_w, sys.Q, sys.R, sys.Q_T, 0.5)
            assert np.geterr() == {"divide": "raise", "over": "raise", "under": "raise", "invalid": "raise"}
        A, B_u, B_w, Q, R, P_T = _breakdown_system()
        with pytest.raises(np.linalg.LinAlgError):
            kernels.hinf_backward(A, B_u, B_w, Q, R, P_T, 1.0)
        assert np.geterr() == before


def _ltv(seed, stable):
    """Random LTV data with n = 1..8 cycling over seeds and m, p >= 2; an
    unstable A has spectral radius about 1.3 at every step."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 8
    m = int(rng.integers(2, 5))
    p = int(rng.integers(2, 5))
    T = int(rng.integers(8, 30))
    A = rng.standard_normal((T, n, n))
    radius = np.abs(np.linalg.eigvals(A)).max(axis=1)[:, None, None]
    A *= (0.85 if stable else 1.3) / np.maximum(radius, 1e-6)
    C = rng.standard_normal((T, n, n))
    D = rng.standard_normal((T, m, m))
    E = rng.standard_normal((n, n))
    return validate_system(
        LqSystem(
            A,
            rng.standard_normal((T, n, m)),
            rng.standard_normal((T, n, p)),
            C @ np.swapaxes(C, 1, 2) / n,
            D @ np.swapaxes(D, 1, 2) / m + 0.5 * np.eye(m),
            E @ E.T / n if seed % 2 else np.zeros((n, n)),
        )
    )


_LTV = [_ltv(seed, stable) for stable in (True, False) for seed in range(8)]


def _breakdown_system(T=4):
    """Unvalidated kernel data (Q = -I/2 on two decoupled channels) whose
    stacked recursion meets an exactly singular H_t at level 1 only: P_{T-2}
    is -I there, so H_{T-3} = I + P_{T-2} = 0."""
    eye = np.broadcast_to(np.eye(2), (T, 2, 2)).copy()
    return eye, eye.copy(), eye.copy(), -0.5 * eye, eye.copy(), np.zeros((2, 2))


class TestBitIdentityWithNpLinalgLoops:
    """The kernels against verbatim copies of their np.linalg versions."""

    @pytest.mark.parametrize("sys", _LTV, ids=lambda s: f"n{s.n}m{s.m}p{s.p}T{s.T}")
    def test_riccati_backward(self, sys):
        gamma_opt = ct.hinf_optimal(sys, tol=1e-4)[0].gamma_opt
        verdicts = set()
        for level in (0.5 * gamma_opt, 0.999 * gamma_opt, 1.001 * gamma_opt, 2.0 * gamma_opt):
            args = (sys.A, sys.B_u, sys.B_w, sys.Q, sys.R, sys.Q_T, level)
            for stacked in (True, False):
                new = kernels._riccati_backward(*args, stacked)
                for a, b in zip(new, reference_riccati_backward(*args, stacked)):
                    assert_same_bits(a, b)
            verdicts.add(bool(np.all(kernels.hinf_backward(*args)[2] < 0.0)))
        assert verdicts == {True, False}
        lqr = kernels.lqr_backward(sys.A, sys.B_u, sys.Q, sys.R, sys.Q_T)
        no_w = np.zeros((sys.T, sys.n, 0))
        ref = reference_riccati_backward(sys.A, sys.B_u, no_w, sys.Q, sys.R, sys.Q_T, 0.0, False)
        assert_same_bits(lqr[0], ref[0])
        assert_same_bits(lqr[1], ref[1])

    @pytest.mark.parametrize("sys", _LTV, ids=lambda s: f"n{s.n}m{s.m}p{s.p}T{s.T}")
    def test_kalman(self, sys):
        nsys = normalize_control_weight(sys).system
        sqQ = psd_sqrt(np.concatenate((nsys.Q, nsys.Q_T[None])))
        fwd = kernels.forward_kalman(nsys.A, nsys.B_u, sqQ)
        for a, b in zip(fwd, reference_forward_kalman(nsys.A, nsys.B_u, sqQ)):
            assert_same_bits(a, b)
        Atil, R_e = fwd[3], fwd[2]
        W = sqQ @ np.linalg.solve(R_e, sqQ)
        T = sys.T
        for gamma in (1e-3, 0.3, 1.0, 30.0):
            args = (Atil, nsys.B_w, W[:T], gamma, W[T])
            for a, b in zip(kernels.backward_kalman(*args), reference_backward_kalman(*args)):
                assert_same_bits(a, b)

    def test_breakdown_level(self):
        data = _breakdown_system()
        for fn in (kernels._riccati_backward, reference_riccati_backward):
            with pytest.raises(np.linalg.LinAlgError):
                fn(*data, 1.0, True)
        for level in (0.9, 1.1):
            new = kernels._riccati_backward(*data, level, True)
            for a, b in zip(new, reference_riccati_backward(*data, level, True)):
                assert_same_bits(a, b)

    def test_breakdown_margins_in_backward_hinf(self):
        A, B_u, B_w, Q, R, Q_T = _breakdown_system()
        sys = LqSystem(A, B_u, B_w, Q, R, Q_T, validated=True)  # Q < 0 on purpose
        tape = riccati.backward_hinf(sys, 1.0)
        assert tape.margins.tolist() == [1.0] * 4
        assert not tape.P.any() and not tape.H.any()

    @pytest.mark.parametrize("test", ["level1"])  # the one feasibility test, named in the ids
    def test_breakdown_margins_in_synthesize_regret(self, test):
        # Phat_T = diag(-1, 0) makes Hhat = 1 + Bhat_u' Phat_T Bhat_u = 0 at
        # the last step, a singular pivot at every level
        from dataclasses import replace

        problem = replace(ct.prepare_regret(s1()), Phat_T=np.diag([-1.0, 0.0]))
        syn = ct.synthesize_regret(problem, 2.0)
        assert syn.margins.tolist() == [1.0] * 3
        assert not syn.Phat.any() and not syn.Hhat.any()
        assert not syn.feasible


def _run_with_reference_kernels(fn):
    """fn() with the three loop kernels replaced by their np.linalg copies."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_riccati_backward", reference_riccati_backward)
        mp.setattr(kernels, "forward_kalman", reference_forward_kalman)
        mp.setattr(kernels, "backward_kalman", reference_backward_kalman)
        return fn()


class TestEndToEndBitIdentity:
    @pytest.mark.parametrize(
        "sys",
        [pendulum_system(40), _LTV[7], _LTV[12], random_system(5, stable=False)],
        ids=["pendulum", "ltv-stable", "ltv-unstable", "random-unstable"],
    )
    def test_bisections_and_gains(self, sys):
        def run():
            out = []
            res, ctrl = ct.regret_optimal(sys, tol=1e-6)
            out += [res.gamma_opt, res.bracket_history, res.final_margins,
                    ctrl.synthesis.M_state, ctrl.synthesis.M_z]
            res, ctrl = ct.hinf_optimal(sys, tol=1e-6)
            out += [res.gamma_opt, res.bracket_history, res.final_margins, ctrl.K_x, ctrl.K_w]
            h2 = ct.synthesize_h2(sys)
            return out + [h2.K_x, h2.K_w]

        for a, b in zip(run(), _run_with_reference_kernels(run)):
            assert_same_bits(a, b)


def _rollout_args(ctrl):
    """The arguments of `kernels.rollout_regret` before w, for a regret controller."""
    s = ctrl.synthesis
    nsys = s.norm.system
    n = nsys.n
    return (nsys.A, nsys.B_u, s.fwd.Atil, nsys.B_w, s.bwd.K_bl, s.bwd.R_be_sqrt,
            s.M_state[:, :, :n], s.M_state[:, :, n:], s.M_z)


class TestRegretRolloutBitIdentity:
    """The rollout kernel is the regret controller's one realization; its
    loop and the controller's controls keep the bits of the step function
    they were folded from (helpers.reference_rollout_regret)."""

    @pytest.mark.parametrize(
        "sys",
        [pendulum_system(100)]
        + [random_system(seed, n_max=4, T_max=30, stable=seed % 2 == 0) for seed in range(400, 408)],
        ids=["pendulum"] + [f"random{seed}-{'stable' if seed % 2 == 0 else 'unstable'}"
                            for seed in range(400, 408)],
    )
    def test_rollout_and_controls_equal_the_reference(self, sys):
        _, ctrl = ct.regret_optimal(sys, 1e-6)
        args = _rollout_args(ctrl)
        rng = np.random.default_rng(sys.T)
        for w in (rng.standard_normal((sys.T, sys.p)), rng.standard_normal((3, sys.T, sys.p))):
            expected = reference_rollout_regret(*args, w)
            for a, b in zip(kernels.rollout_regret(*args, w), expected):
                assert_same_bits(a, b)
            assert_same_bits(ctrl.control_sequence(w), ctrl.synthesis.norm.to_original_u(expected[0]))


def _overflow_system(T=30):
    """A validated system whose mode x_1 (A = 1e6) no input reaches: its value
    P_11 overflows to inf after ~26 steps, and 0 * inf in B'PB is invalid."""
    A = np.broadcast_to(np.diag([1e6, 0.5]), (T, 2, 2))
    B_u = np.broadcast_to(np.array([[0.0, 0.0], [1.0, 0.5]]), (T, 2, 2))
    B_w = np.broadcast_to(np.array([[0.0, 0.0], [1.0, -1.0]]), (T, 2, 2))
    eye = np.broadcast_to(np.eye(2), (T, 2, 2))
    return validate_system(LqSystem(A.copy(), B_u.copy(), B_w.copy(), eye.copy(), eye.copy(), np.eye(2)))


class TestNonFiniteArithmetic:
    """The kernels' error state also covers the loop's own arithmetic: an
    invalid value (inf - inf, 0 * inf) raises LinAlgError where the np.linalg
    loops warned and carried NaN on. Every verdict stays the same."""

    def test_kernels_raise_where_np_linalg_loops_carried_nan(self):
        sys = _overflow_system()
        args = (sys.A, sys.B_u, sys.B_w, sys.Q, sys.R, sys.Q_T, 2.0)
        for stacked in (True, False):
            with pytest.warns(RuntimeWarning):
                _, _, margins = reference_riccati_backward(*args, stacked)
            assert np.isnan(margins).any()  # a verdict of "infeasible"
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # and no warning on the way
                with pytest.raises(np.linalg.LinAlgError):
                    kernels._riccati_backward(*args, stacked)

    def test_lqr_tape_raises_instead_of_nan(self):
        sys = _overflow_system()
        with pytest.warns(RuntimeWarning):
            tape = _run_with_reference_kernels(lambda: riccati.backward_lqr(sys))
        assert np.isnan(tape.P).any()
        with pytest.raises(np.linalg.LinAlgError):
            riccati.backward_lqr(sys)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("gamma", [0.5, 3.0, 1e3])
    def test_probe_verdicts_unchanged(self, gamma):
        sys = _overflow_system()

        def verdicts():
            return [riccati.backward_hinf(sys, gamma).feasible, ct.synthesize_regret(sys, gamma).feasible]

        assert verdicts() == _run_with_reference_kernels(verdicts) == [False, False]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bisection_error_unchanged(self):
        sys = _overflow_system()
        for search in (ct.hinf_optimal, ct.regret_optimal):
            errors = []
            for run in (lambda: search(sys, 1e-3), lambda: _run_with_reference_kernels(lambda: search(sys, 1e-3))):
                with pytest.raises(ArithmeticError) as exc:
                    run()
                errors.append((type(exc.value), str(exc.value)))
            assert errors[0] == errors[1]
