import numpy as np
import pytest

from regretctl import kernels
from regretctl.system_model import normalize_control_weight, psd_sqrt
from helpers import random_system

compiled = pytest.mark.skipif(
    kernels.BACKEND != "numba", reason="numba backend not active"
)


def _stacked(seed, T_max=10):
    sys = random_system(seed, T_max=T_max)
    return sys


def _close(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.abs(a - b).max() <= 1e-12 * (1.0 + np.abs(a).max())


class TestBackendParity:
    """The compiled kernels must agree with the pure-numpy fallbacks."""

    @compiled
    def test_lqr_backward(self):
        sys = _stacked(0)
        args = (sys.A, sys.B_u, sys.Q, sys.R, sys.Q_T)
        for a, b in zip(kernels.lqr_backward(*args), kernels.PY_KERNELS["lqr_backward"](*args)):
            _close(a, b)

    @compiled
    def test_hinf_backward(self):
        sys = _stacked(1)
        for gamma in (0.5, 2.0, 10.0):
            args = (sys.A, sys.B_u, sys.B_w, sys.Q, sys.R, sys.Q_T, gamma)
            jit_out = kernels.hinf_backward(*args)
            py_out = kernels.PY_KERNELS["hinf_backward"](*args)
            for a, b in zip(jit_out, py_out):
                _close(a, b)

    @compiled
    def test_forward_and_backward_kalman(self):
        sys = _stacked(2)
        nsys = normalize_control_weight(sys).system
        sqQ = np.zeros((sys.T + 1, sys.n, sys.n))
        for t in range(sys.T):
            sqQ[t] = psd_sqrt(nsys.Q[t])
        sqQ[sys.T] = psd_sqrt(nsys.Q_T)
        fargs = (nsys.A, nsys.B_u, sqQ)
        fjit = kernels.forward_kalman(*fargs)
        fpy = kernels.PY_KERNELS["forward_kalman"](*fargs)
        for a, b in zip(fjit, fpy):
            _close(a, b)
        P, K_p, R_e, Atil = fjit
        W = sqQ @ np.linalg.solve(R_e, sqQ)
        bargs = (Atil, nsys.B_w, W, 1.5)
        for a, b in zip(
            kernels.backward_kalman(*bargs), kernels.PY_KERNELS["backward_kalman"](*bargs)
        ):
            _close(a, b)

    @compiled
    def test_rollout_feedback(self):
        sys = _stacked(3)
        rng = np.random.default_rng(0)
        K_x = rng.standard_normal((sys.T, sys.m, sys.n)) * 0.1
        K_w = rng.standard_normal((sys.T, sys.m, sys.p)) * 0.1
        w = rng.standard_normal((sys.T, sys.p))
        args = (sys.A, sys.B_u, sys.B_w, K_x, K_w, w)
        for a, b in zip(
            kernels.rollout_feedback(*args), kernels.PY_KERNELS["rollout_feedback"](*args)
        ):
            _close(a, b)

    @compiled
    def test_regret_phat_backward(self):
        rng = np.random.default_rng(1)
        T, N, m, p = 6, 4, 1, 2
        Ahat = rng.standard_normal((T, N, N)) * 0.4
        Bu = rng.standard_normal((T, N, m))
        Bw = rng.standard_normal((T, N, p))
        Qh = np.zeros((T, N, N))
        for t in range(T):
            M = rng.standard_normal((N, N))
            Qh[t] = M @ M.T / N
        PT = np.zeros((N, N))
        for lqr_form in (False, True):
            args = (Ahat, Bu, Bw, Qh, PT, 8.0, lqr_form)
            for a, b in zip(
                kernels.regret_phat_backward(*args),
                kernels.PY_KERNELS["regret_phat_backward"](*args),
            ):
                _close(a, b)

    @compiled
    def test_rollout_regret(self):
        sys = _stacked(4)
        rng = np.random.default_rng(2)
        T, n, m, p = sys.T, sys.n, sys.m, sys.p
        Atil = rng.standard_normal((T, n, n)) * 0.3
        K_bl = rng.standard_normal((T, n, p)) * 0.2
        sqR = rng.standard_normal((T, p, p)) * 0.2
        M_x = rng.standard_normal((T, m, n)) * 0.1
        M_d = rng.standard_normal((T, m, n)) * 0.1
        M_z = rng.standard_normal((T, m, p)) * 0.1
        w = rng.standard_normal((T, p))
        args = (sys.A, sys.B_u, Atil, sys.B_w, K_bl, sqR, M_x, M_d, M_z, w)
        for a, b in zip(
            kernels.rollout_regret(*args), kernels.PY_KERNELS["rollout_regret"](*args)
        ):
            _close(a, b)


class TestBackendFlag:
    def test_backend_reported(self):
        assert kernels.BACKEND in ("numba", "numpy")

    def test_py_kernels_are_plain_functions(self):
        import types

        for fn in kernels.PY_KERNELS.values():
            assert isinstance(fn, types.FunctionType)

    def test_numpy_backend_uses_fallbacks(self):
        if kernels.BACKEND == "numpy":
            assert kernels.lqr_backward is kernels.PY_KERNELS["lqr_backward"]
