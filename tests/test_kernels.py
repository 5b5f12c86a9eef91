import contextlib
import functools
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from regretctl import controllers as ct
from regretctl import kernels, riccati
from regretctl.cli import pendulum_system
from regretctl.system_model import (
    LqSystem,
    evaluate_cost,
    normalize_control_weight,
    psd_sqrt,
    validate_system,
)
from helpers import (
    full_horizon_reference,
    quiet_tail_pendulum,
    random_system,
    reference_backward_kalman,
    reference_forward_kalman,
    reference_riccati_backward,
    reference_rollout_feedback_regret,
    reference_rollout_regret,
    s1,
    z_form_args,
)
import dense_oracle as dense
import rollout_oracle as ro

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


def _filter_in_reversed_time(A, B_u, sqQ):
    """The arguments of the backward recursion whose step T-1-t is the
    forward Kalman step t: A_t' for A, Q_t^{1/2} for the input, no
    disturbance input, B_u B_u' for Q, R = I and P_T = 0, at level 0 and not
    stacked."""
    T, n, _ = A.shape
    A_r, sqQ_r, BB_r = (np.ascontiguousarray(x[::-1]) for x in (A.mT, sqQ[:T], B_u @ B_u.mT))
    R = np.broadcast_to(np.eye(n), (T, n, n))
    return A_r, sqQ_r, np.zeros((T, n, 0)), BB_r, R, np.zeros((n, n)), 0.0, False


def _assert_forward_on_the_loop(A, B_u, sqQ, fwd):
    """`kernels.forward_kalman`'s output `fwd` holds the bits of the Riccati
    loop's copy in reversed time (P reversed, R_e the reversed H), of K_p and
    Atil formed from its P step by step, and of R_e at the terminal weight."""
    T, n, _ = A.shape
    P, K_p, R_e, Atil = fwd
    P_r, H_r, _ = reference_riccati_backward(*_filter_in_reversed_time(A, B_u, sqQ))
    assert_same_bits(P, P_r[::-1])
    assert_same_bits(R_e[:T], H_r[::-1])
    assert_same_bits(R_e[T], kernels._sym(np.eye(n) + sqQ[T] @ P[T] @ sqQ[T]))
    K = np.array([A[t] @ P[t] @ np.linalg.solve(R_e[t], sqQ[t]).T for t in range(T)])
    assert_same_bits(K_p, K)
    assert_same_bits(Atil, np.array([A[t] - K[t] @ sqQ[t] for t in range(T)]))


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
        T, n, p = sys.T, sys.n, sys.p
        fwd = kernels.forward_kalman(nsys.A, nsys.B_u, sqQ)
        _, K_p, R_e, Atil = fwd
        # below `_SCAN_MIN_STEPS` steps, the Riccati loop in reversed time bit
        # for bit, and K_p and Atil from its P with the loop's products
        _assert_forward_on_the_loop(nsys.A, nsys.B_u, sqQ, fwd)
        # and the forward Kalman loop it replaced, to rounding
        for a, b in zip(fwd, reference_forward_kalman(nsys.A, nsys.B_u, sqQ)):
            _assert_close(a, b, rtol=1e-10)
        W = sqQ @ np.linalg.solve(R_e, sqQ)
        for gamma in (1e-3, 0.3, 1.0, 30.0):
            args = (Atil, nsys.B_w, W[:T], gamma, W[T])
            P_b, K_bl, R_be, carry = kernels.backward_kalman(*args)
            # the Riccati recursion with A = Atil, B_u = B_w, no disturbance
            # input, Q = W and R = gamma^2 I, bit for bit
            R = np.broadcast_to(gamma * gamma * np.eye(p), (T, p, p))
            P, H, _ = reference_riccati_backward(
                Atil, nsys.B_w, np.zeros((T, n, 0)), W[:T], R, W[T], 0.0, False
            )
            for a, b in zip((P_b, R_be, carry), (P[1:], H, P[0])):
                assert_same_bits(a, b)
            K = [Atil[t].T @ P_b[t] @ np.linalg.solve(R_be[t], nsys.B_w[t].T).T for t in range(T)]
            assert_same_bits(K_bl, np.array(K))
            # and the backward Kalman loop it replaced, to rounding
            for a, b in zip((P_b, K_bl, R_be, carry), reference_backward_kalman(*args)):
                _assert_close(a, b, rtol=1e-10)

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
        syn = ct._regret_probe(problem, 2.0).result()
        assert syn.margins.tolist() == [1.0] * 3
        assert not syn.Phat.any() and not syn.Hhat.any()
        assert not syn.feasible

    @pytest.mark.parametrize("probe", ["hinf", "regret"])
    def test_breakdown_after_feasible_windows(self, monkeypatch, probe):
        # a mode at A = 1e3 that neither input reaches: its value grows
        # 1e6-fold per step and overflows in the third window (64 steps), after
        # two windows (16 and 32 steps, the second a scan) whose margins are
        # all negative
        T = 120
        plant = LqSystem.time_invariant(
            np.diag([0.5, 1e3]), [[1.0], [0.0]], [[1.0], [0.0]], np.eye(2), [[1.0]], np.eye(2), horizon=T
        )
        sys = validate_system(plant)
        name = "hinf_backward" if probe == "hinf" else "regret_phat_backward"
        kernel, swept = getattr(kernels, name), []

        def spy(*args):
            out = kernel(*args)
            swept.append(out[2])
            return out

        monkeypatch.setattr(kernels, name, spy)
        if probe == "hinf":
            tape = riccati.backward_hinf(sys, 10.0)
            P, H = tape.P, tape.H
        else:
            tape = ct.synthesize_regret(sys, 10.0)
            P, H = tape.Phat, tape.Hhat
        assert [m.size for m in swept] == [16, 32]
        assert all((m < 0.0).all() for m in swept)
        assert tape.margins.tolist() == [1.0] * T
        assert not P.any() and not H.any()
        assert not tape.feasible


_riccati_sweep = kernels._riccati_sweep


def _reference_sweep(*args, chunk=None):
    """The np.linalg copy where the library runs the loop; a window the
    library scans runs the library's scan, whose steps it shares."""
    if chunk is None:
        return reference_riccati_backward(*args)
    return _riccati_sweep(*args, chunk=chunk)


def _run_with_reference_kernels(fn):
    """fn() with the loop kernel replaced by its np.linalg copy, which runs
    under the caller's error state; every recursion, the forward Kalman one
    included, runs on the swapped `_riccati_sweep`. Windows keep their
    schedule: on the horizons below 48 steps used here only the forward
    Kalman recursion of the pendulum at T=40 runs as a scan."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_riccati_sweep", _reference_sweep)
        mp.setattr(kernels, "_linalg_errstate", contextlib.nullcontext)
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
                    ctrl.K_xi, ctrl.K_w]
            res, ctrl = ct.hinf_optimal(sys, tol=1e-6)
            out += [res.gamma_opt, res.bracket_history, res.final_margins, ctrl.K_x, ctrl.K_w]
            h2 = ct.synthesize_h2(sys)
            return out + [h2.K_x, h2.K_w]

        for a, b in zip(run(), _run_with_reference_kernels(run)):
            assert_same_bits(a, b)


def _rollout_args(s):
    """The arguments of `kernels.rollout_regret` before w, for a regret controller."""
    nsys = s.norm.system
    n = nsys.n
    return (nsys.A, s.B_u, s.norm.R_inv_sqrt, s.fwd.Atil, nsys.B_w,
            s.K_xi[:, :, :n], s.K_xi[:, :, n:], s.K_w)


class TestRegretRolloutBitIdentity:
    """The rollout kernel is the regret controller's one realization; its
    loop and the controller's controls keep the bits of the step-by-step
    loop reference (helpers.reference_rollout_feedback_regret)."""

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
            expected = reference_rollout_feedback_regret(*args, w)
            for a, b in zip(kernels.rollout_regret(*args, w), expected):
                assert_same_bits(a, b)
            assert_same_bits(ctrl.control_sequence(w), expected[1])

    @pytest.mark.parametrize("seed", [None, 400, 401, 405], ids=["pendulum", "random400", "random401", "random405"])
    def test_impulse_batches_equal_the_reference(self, seed):
        """On the rollout referee's impulse batch (rollout_oracle.py), that
        batch shuffled and a random batch, every bit, sign bits included, is
        the reference's; and impulse j*p + c reads exactly +0.0 before its
        step j."""
        if seed is None:
            sys = pendulum_system(40)
        else:
            sys = random_system(seed, n_max=4, T_max=30, stable=seed % 2 == 0)
        _, ctrl = ct.regret_optimal(sys, 1e-6)
        args = _rollout_args(ctrl)
        impulses = ro._impulses(sys)
        rng = np.random.default_rng(sys.T)
        for w in (impulses, impulses[rng.permutation(len(impulses))], rng.standard_normal(impulses.shape)):
            for a, b in zip(kernels.rollout_regret(*args, w), reference_rollout_feedback_regret(*args, w)):
                assert_same_bits(a, b)
        x, u = kernels.rollout_regret(*args, impulses)
        for item in range(len(impulses)):
            j = item // sys.p
            assert_same_bits(x[item, :j + 1], np.zeros((j + 1, sys.n)))
            assert_same_bits(u[item, :j], np.zeros((j, sys.m)))

    @pytest.mark.parametrize("seed", [500, 501, 509, 511, 514])
    def test_state_tape_is_the_loop_evaluate_cost_scores(self, seed):
        """The rollout steps the plant with `evaluate_cost`'s expression on
        the plant's own B_u, so its state tape is the one `evaluate_cost`
        rebuilds from its controls, bit for bit, on unstable time-varying
        plants with m >= 2 and R != I at T = 135 to 284 (a rollout on the
        R-normalized B_u drifts from it there, by 7e18 to 8e52)."""
        sys = random_system(seed, n_max=4, T_max=300, stable=False)
        assert sys.m >= 2
        assert not np.array_equal(sys.R, np.broadcast_to(np.eye(sys.m), sys.R.shape))
        _, ctrl = ct.regret_optimal(sys, 1e-6)
        w = np.random.default_rng(seed).standard_normal((3, sys.T, sys.p))
        x, u = kernels.rollout_regret(*_rollout_args(ctrl), w)
        assert_same_bits(u, ctrl.control_sequence(w))
        assert_same_bits(x, evaluate_cost(sys, w, u).x)


def _z_form_family():
    """(id, system) of the systems the state feedback is held to the z-form
    on: six stable and six unstable random systems, and two test configs."""
    from regretctl import cli

    family = []
    for seed in range(600, 612):
        stable = seed % 2 == 0
        sys = random_system(seed, n_max=4, T_max=60, stable=stable)
        family.append((f"random{seed}-{'stable' if stable else 'unstable'}", sys))
    for name in ("smoke_augmented", "unstable_multi_input"):
        with open(Path(__file__).parent / "data" / f"{name}.json") as f:
            family.append((name, cli._augmented(cli.parse_config(f.read()))))
    return family


_Z_FORM_FAMILY = _z_form_family()
# Over this family at gamma_opt the two forms differed by at most 4.1e-10
# relative in the gains (random607, unstable) and 3.3e-10 in the controls
# (random601, unstable); stable systems and the two configs stayed within
# 2.2e-10.
Z_FORM_RTOL = 1e-9


class TestStateFeedbackEqualsZForm:
    """The controller u = K_xi (x, delta) + K_w w and the z-form it was
    derived from, u = M_x x + M_d delta + M_z z with
    z = R_be^{1/2}(K_bl' delta + w), are one law in exact arithmetic:
    Ahat xi + Bhat_w z = blkdiag(A, Atil) xi + [B_w; B_w] w on
    xi = (x, delta)."""

    @pytest.mark.parametrize("sys", [s for _, s in _Z_FORM_FAMILY], ids=[n for n, _ in _Z_FORM_FAMILY])
    def test_gains_and_controls_equal_the_z_form_referee(self, sys):
        _, ctrl = ct.regret_optimal(sys, 1e-6)
        z_args = z_form_args(ctrl)
        K_bl, R_be_sqrt, M_x, M_d, M_z = z_args[5:]
        D = M_z @ R_be_sqrt
        for ours, theirs in ((ctrl.K_xi, np.concatenate((M_x, M_d + D @ K_bl.mT), axis=2)), (ctrl.K_w, D)):
            assert np.abs(ours - theirs).max() <= Z_FORM_RTOL * np.abs(theirs).max()
        w = np.random.default_rng(sys.T).standard_normal((4, sys.T, sys.p))
        _, u = reference_rollout_regret(*z_args, w)
        assert np.abs(ctrl.control_sequence(w) - u).max() <= Z_FORM_RTOL * np.abs(u).max()


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


def _long_ltv(seed, stable, T=300):
    """Random LTV data long enough for the scan, n = 3 and m = p = 2; an
    unstable A has spectral radius 1.2 at every step."""
    rng = np.random.default_rng(seed)
    n, m, p = 3, 2, 2
    A = rng.standard_normal((T, n, n))
    A *= (0.9 if stable else 1.2) / np.abs(np.linalg.eigvals(A)).max(axis=1)[:, None, None]
    C = rng.standard_normal((T, n, n))
    D = rng.standard_normal((T, m, m))
    return validate_system(
        LqSystem(
            A,
            rng.standard_normal((T, n, m)),
            rng.standard_normal((T, n, p)),
            C @ np.swapaxes(C, 1, 2) / n,
            D @ np.swapaxes(D, 1, 2) / m + 0.5 * np.eye(m),
            np.eye(n),
        )
    )


_SCAN_SYSTEMS = {
    "pendulum-T100": lambda: pendulum_system(100),  # windows of 32 and 37 steps
    "pendulum-T300": lambda: pendulum_system(300),
    "pendulum-T1000": lambda: pendulum_system(1000),
    "ltv-stable-T300": lambda: _long_ltv(7, stable=True),
    "ltv-unstable-T300": lambda: _long_ltv(7, stable=False),
    "quiet-tail-pendulum-T1000": lambda: quiet_tail_pendulum(1000),
}


# the scan systems whose disturbance reaches every step (all but the quiet tail)
_FULL_SCAN_SYSTEMS = [k for k in _SCAN_SYSTEMS if "quiet" not in k]


@functools.cache
def _scan_case(name):
    """(system, prepared problem, gamma_opt at tol 1e-6) of a scan test system."""
    sys = _SCAN_SYSTEMS[name]()
    return sys, ct.prepare_regret(sys), ct.regret_optimal(sys, 1e-6)[0].gamma_opt


def _loop_only(fn):
    """fn() with every window run as the loop (one chunk), on the same
    windows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_chunk_length", lambda k: k)
        return fn()


def _scanned(fn):
    """fn() as the library runs it, checking that some window ran as a scan."""
    calls = []
    chunk_ends = kernels._chunk_ends
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_chunk_ends", lambda *a: calls.append(1) or chunk_ends(*a))
        out = fn()
    assert calls
    return out


@functools.cache
def _hinf_case(name):
    """(system, H-infinity gamma_opt at tol 1e-6) of a scan test system."""
    sys = _SCAN_SYSTEMS[name]()
    return sys, ct.hinf_optimal(sys, 1e-6)[0].gamma_opt


def _hinf_sweeps(sys, gamma):
    """The windowed H-infinity sweep and one kernel call over the horizon, as
    functions returning (P, H, margins)."""

    def windowed():
        tape = riccati.backward_hinf(sys, gamma)
        return tape.P, tape.H, tape.margins

    return windowed, lambda: kernels.hinf_backward(sys.A, sys.B_u, sys.B_w, sys.Q, sys.R, sys.Q_T, gamma)


def _syntheses(problem, sys, gamma):
    """The windowed synthesis and the one-window sweep over the horizon."""
    return ct._regret_probe(problem, gamma).result(), full_horizon_reference(sys, gamma, "level1")


def _assert_close(a, b, rtol=1e-9):
    assert a.shape == b.shape
    assert np.abs(a - b).max() <= rtol * np.abs(b).max()


class TestChunkedScan:
    """Windows of `_SCAN_MIN_STEPS` or more steps run as a chunked scan; the
    loop is the same kernel over one chunk. The two schedules agree to
    rounding, and a failure is flagged as the loop flags it."""

    @pytest.mark.parametrize("mult", [1.02, 1.1, 3.0])
    @pytest.mark.parametrize("name", _FULL_SCAN_SYSTEMS)
    def test_feasible_tapes_agree_with_the_loop(self, name, mult):
        sys, problem, g_opt = _scan_case(name)
        gamma = mult * g_opt
        scan = _scanned(lambda: _syntheses(problem, sys, gamma))
        loop = _loop_only(lambda: _syntheses(problem, sys, gamma))
        for s, l in zip(scan, loop):
            assert s.feasible and l.feasible
            for field in ("Phat", "Hhat", "margins", "K_xi", "K_w"):
                _assert_close(getattr(s, field), getattr(l, field))

    @pytest.mark.parametrize("mult", [0.5, 0.9])
    @pytest.mark.parametrize("name", list(_SCAN_SYSTEMS))
    def test_infeasible_levels_fail_where_the_loop_fails(self, name, mult):
        sys, problem, g_opt = _scan_case(name)
        gamma = mult * g_opt
        scan = _scanned(lambda: _syntheses(problem, sys, gamma))
        loop = _loop_only(lambda: _syntheses(problem, sys, gamma))
        for s, l in zip(scan, loop):
            assert not s.feasible and not l.feasible
            t = s.first_infeasible_step
            assert t == l.first_infeasible_step
            # flagged as the loop flags: every step up to the failure, and
            # nothing the loop never reached
            assert s.margins[t] >= 1.0 and np.all(s.margins[:t] == s.margins[t])
            assert not s.Phat[: t + 1].any() and not s.Hhat[:t].any()
            _assert_close(s.margins[t + 1:], l.margins[t + 1:])
            _assert_close(s.Phat[t + 1:], l.Phat[t + 1:])

    @pytest.mark.parametrize("mult", [1.02, 1.1, 3.0])
    @pytest.mark.parametrize("name", _FULL_SCAN_SYSTEMS)
    def test_hinf_feasible_tapes_agree_with_the_loop(self, name, mult):
        sys, g_opt = _hinf_case(name)
        for sweep in _hinf_sweeps(sys, mult * g_opt):
            scan, loop = _scanned(sweep), _loop_only(sweep)
            assert np.all(scan[2] < 0.0) and np.all(loop[2] < 0.0)
            for a, b in zip(scan, loop):
                _assert_close(a, b)

    @pytest.mark.parametrize("mult", [0.5, 0.9])
    @pytest.mark.parametrize("name", _FULL_SCAN_SYSTEMS)
    def test_hinf_infeasible_levels_fail_where_the_loop_fails(self, name, mult):
        sys, g_opt = _hinf_case(name)
        sweeps = _hinf_sweeps(sys, mult * g_opt)
        # the windowed sweep may fail before its first scanned window
        scan = _scanned(lambda: [sweep() for sweep in sweeps])
        loop = _loop_only(lambda: [sweep() for sweep in sweeps])
        for (P, H, margins), (P_l, _, margins_l) in zip(scan, loop):
            t = riccati._first_failing_step(margins)
            assert t is not None and t == riccati._first_failing_step(margins_l)
            # flagged as the loop flags: every step up to the failure, and
            # nothing the loop never reached
            assert margins[t] >= 1.0 and np.all(margins[:t] == margins[t])
            assert not P[: t + 1].any() and not H[:t].any()
            _assert_close(margins[t + 1:], margins_l[t + 1:])
            _assert_close(P[t + 1:], P_l[t + 1:])

    @pytest.mark.parametrize("name", ["pendulum-T1000", "ltv-unstable-T300"])
    def test_forward_kalman_agrees_with_the_loop(self, name):
        nsys = normalize_control_weight(_SCAN_SYSTEMS[name]()).system
        sqQ = psd_sqrt(np.concatenate((nsys.Q, nsys.Q_T[None])))
        scan = _scanned(lambda: kernels.forward_kalman(nsys.A, nsys.B_u, sqQ))
        loop = _loop_only(lambda: kernels.forward_kalman(nsys.A, nsys.B_u, sqQ))
        _assert_forward_on_the_loop(nsys.A, nsys.B_u, sqQ, loop)
        for a, b, c in zip(scan, loop, reference_forward_kalman(nsys.A, nsys.B_u, sqQ)):
            _assert_close(a, b, rtol=1e-10)
            _assert_close(a, c, rtol=1e-10)

    @staticmethod
    def _breakdown_window(k=200):
        """Scalar data (A = B = 1, R = 1) whose loop runs through but whose
        scan meets an exactly singular I + CJ in phase 1: the weight is 1 at
        every step but -1 at the last step of the second chunk, and C = 1."""
        c = kernels._chunk_length(k)
        weight = np.ones((k, 1, 1))
        weight[k % c + 2 * c - 1] = -1.0
        one = np.ones((k, 1, 1))
        return c, one, weight

    def test_scan_that_raises_returns_the_loop_bits(self):
        c, one, weight = self._breakdown_window()
        # the backward Kalman recursion at gamma = 1: R = 1, so C = 1
        kalman = (one, one, np.zeros((len(one), 1, 0)), weight, one, np.zeros((1, 1)), 0.0, False)
        with pytest.raises(np.linalg.LinAlgError), kernels._linalg_errstate():
            kernels._riccati_sweep(*kalman, chunk=c)
        P, H, _ = kernels._riccati_backward(*kalman)
        P_b, _, R_be, carry = kernels.backward_kalman(one, one, weight, 1.0, np.zeros((1, 1)))
        for a, b in zip((P_b, R_be, carry), (P[1:], H, P[0])):
            assert_same_bits(a, b)
        # the value recursion over [B_u B_w] = [1 0] at level 1: C = 1 as well
        value = (one, one, np.zeros_like(one), weight, np.zeros((1, 1)), 1.0, False)
        R = np.ones_like(one)
        with pytest.raises(np.linalg.LinAlgError), kernels._linalg_errstate():
            kernels._riccati_sweep(*value[:4], R, *value[4:6], True, chunk=c)
        loop = kernels._riccati_backward(*value[:4], R, *value[4:6], True)
        assert np.all(loop[2] < 0.0)  # the loop runs through, feasible
        for a, b in zip(kernels.regret_phat_backward(*value), loop):
            assert_same_bits(a, b)
        # the H-infinity recursion over the same input at gamma = 1
        for a, b in zip(kernels.hinf_backward(*value[:4], R, *value[4:6]), loop):
            assert_same_bits(a, b)

    @pytest.mark.parametrize("sys", [pendulum_system(1000), s1(T=2001)], ids=["pendulum-T1000", "s1-T2001"])
    def test_gamma_opt_within_one_final_bracket_of_the_loop(self, sys):
        scan, _ = _scanned(lambda: ct.regret_optimal(sys, 1e-6))
        loop, _ = _loop_only(lambda: ct.regret_optimal(sys, 1e-6))
        lo, hi = loop.bracket_history[-1]
        assert abs(scan.gamma_opt - loop.gamma_opt) <= hi - lo

    def test_regret_bound_and_structure_hold_through_the_scan(self):
        # criteria 4 and 6 on a horizon with scanned windows of 32 to 128 steps
        sys = s1(T=300)
        res, _ = _scanned(lambda: ct.regret_optimal(sys, 1e-8))
        norm = normalize_control_weight(sys)
        ops = dense.build_operators(norm.system)
        cost_form = dense.offline_cost_form(ops)
        W = np.random.default_rng(300).standard_normal((200, sys.T * sys.p))
        for mult in (1.02, 1.5, 3.0):
            gamma = mult * res.gamma_opt
            syn = _scanned(lambda: ct.regret_controller(sys, gamma))
            assert dense.structure_check(syn).max_p11_deviation <= 1e-8
            K = dense.controller_operator(sys, syn)
            U = W @ K.T
            S = U @ ops.F.T + W @ ops.G.T
            regret = (S * S).sum(axis=1) + (U * U).sum(axis=1) - np.einsum("ij,jk,ik->i", W, cost_form, W)
            assert np.all(regret < gamma**2 * (W * W).sum(axis=1))
