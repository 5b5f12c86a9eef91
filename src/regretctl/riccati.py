"""Riccati and Kalman recursion engines shared by all syntheses.

Four recursions: backward LQR, backward H-infinity with feasibility margins,
forward Kalman (factoring I + FF' = LL') and backward Kalman (producing the
causal factor Delta of gamma^2 I + G'(I + FF')^{-1} G).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import kernels
from .system_model import LqSystem, NormalizedSystem, as_validated, pd_inv_sqrt, psd_sqrt


@dataclass(frozen=True)
class LqrTape:
    """Value matrices P_t (t = 0..T) and H_t = R_t + B_u' P_{t+1} B_u."""

    P: np.ndarray  # (T+1, n, n)
    H: np.ndarray  # (T, m, m)


class Verdict:
    """The verdict of a tape with per-step feasibility margins `margins`: its
    level is attainable iff every margin is negative."""

    @property
    def feasible(self):
        return bool(np.all(self.margins < 0.0))

    @property
    def first_infeasible_step(self):
        return _first_failing_step(self.margins)


@dataclass(frozen=True)
class HinfTape(Verdict):
    """H-infinity value matrices, gains data, and per-step feasibility margins
    (largest eigenvalue of the disturbance block Schur complement)."""

    P: np.ndarray
    H: np.ndarray
    margins: np.ndarray  # (T,)
    gamma: float


@dataclass(frozen=True)
class ForwardKalmanTape:
    """Forward Kalman quantities: P (T+1), K_p, R_e (T+1; index T carries the
    terminal weight), Atil = A - K_p Q^{1/2}, sqQ = Q^{1/2} (T+1, the last
    entry being Q_T^{1/2}), and W = Q^{1/2} R_e^{-1} Q^{1/2} (T+1), the
    gamma-independent weight of the backward Kalman recursion."""

    P: np.ndarray
    K_p: np.ndarray
    R_e: np.ndarray
    Atil: np.ndarray
    sqQ: np.ndarray
    W: np.ndarray


@dataclass(frozen=True)
class BackwardKalmanTape:
    """Backward Kalman quantities realizing Delta: P_b (T), K_bl (T, n, p),
    R_be (T, p, p) and its inverse symmetric square root R_be^{-1/2}."""

    P_b: np.ndarray
    K_bl: np.ndarray
    R_be: np.ndarray
    R_be_inv_sqrt: np.ndarray


def _first_failing_step(margins):
    """The step where a backward sweep first met a margin that is not
    negative (>= 0, or NaN), which is the largest such t since the sweep runs
    from t = T - 1 down. None when every margin is negative, so exactly when
    the tape is feasible."""
    bad = np.nonzero(~(margins < 0.0))[0]
    return int(bad[-1]) if bad.size else None


def _windows(T):
    """The windows [t0, t1) of a backward sweep from t = T: 16, 32, 64, ...
    steps, the last one clipped at t = 0. The first window, half the scan's
    floor, is the longest the kernels run as the loop, so a probe that fails
    in it stops at its failing step; every later window but a short last one
    runs as a chunked scan."""
    t1, k = T, kernels._SCAN_MIN_STEPS // 2
    while t1 > 0:
        t0 = max(t1 - k, 0)
        yield t0, t1
        t1, k = t0, 2 * k


class _Sweep:
    """The backward sweep of one probe from t = T, window by window
    (`_windows`), which can pause after any window and resume from its carry.

    `window(t0, t1, carry, tapes)` runs the steps [t0, t1) from the carry at
    t1, writes them into the full-horizon tapes of the dict `tapes` ("P"
    over [t0, t1], "H" and "margins" over [t0, t1)) and returns the carry at
    t0. With `sizes` = (T, n, m) the tapes are P: (T+1, n, n), H: (T, m, m)
    and margins: (T,), and `build(tapes)` makes the probe's result from
    them. The sweep stops after the first window with a margin that is not
    negative (`failed` is then that window's index) and flags every earlier
    step with max(margin, 1), P and H being zero there. A LinAlgError (a
    singular pivot, or an overflow that became an invalid value) makes the
    level numerically unattainable: margins 1, P and H zero."""

    def __init__(self, window, carry, sizes, build):
        self.T, n, m = sizes
        self._shapes = {"P": (self.T + 1, n, n), "H": (self.T, m, m), "margins": (self.T,)}
        self._window, self._start, self._build = window, carry, build
        self._spans = list(_windows(self.T))
        self._restart()

    def _restart(self):
        self._carry, self._tapes, self._forgotten = self._start, None, False
        self.windows = self.swept = 0  # the windows and steps swept
        self.failed = None  # the index of the window it failed in

    @property
    def steps_left(self):
        """The steps a sweep to t = 0 would still take; 0 once it has failed."""
        return 0 if self.failed is not None else self.T - self.swept

    def sweep(self, windows=None):
        """Run on until `windows` windows have run (every window when None),
        the sweep has failed or it has reached t = 0. Returns the steps run."""
        before = self.swept
        while self.steps_left and (windows is None or self.windows < windows):
            if self._tapes is None:
                self._tapes = {name: np.zeros(shape) for name, shape in self._shapes.items()}
            tapes = self._tapes
            t0, t1 = self._spans[self.windows]
            self.windows += 1
            self.swept += t1 - t0
            try:
                self._carry = self._window(t0, t1, self._carry, tapes)
            except np.linalg.LinAlgError:
                self.failed = self.windows - 1
                tapes["P"][:] = 0.0
                tapes["H"][:] = 0.0
                tapes["margins"][:] = 1.0
                break
            failed = _first_failing_step(tapes["margins"][t0:t1])
            if failed is not None:
                self.failed = self.windows - 1
                tapes["margins"][:t0] = max(tapes["margins"][t0 + failed], 1.0)
        return self.swept - before

    def forget(self):
        """Drop the tapes but keep the carry: the sweep resumes as before,
        and `result` sweeps again from t = T."""
        self._tapes, self._forgotten = None, True

    def result(self):
        """`build(tapes)` of a sweep to t = 0 or to the failure, each tape
        zero where the sweep did not run."""
        if self._forgotten:
            self._restart()
        self.sweep()
        return self._build(self._tapes)


def _check_level(gamma):
    if not 0.0 < gamma < np.inf:  # written so that NaN fails too
        raise ValueError(f"gamma must be positive and finite, got {gamma}")


def backward_lqr(sys: LqSystem) -> LqrTape:
    """Backward LQR Riccati recursion from the terminal cost Q_T."""
    sys = as_validated(sys)
    P, H = kernels.lqr_backward(sys.A, sys.B_u, sys.Q, sys.R, sys.Q_T)
    bad = np.nonzero(np.linalg.eigvalsh(H).min(axis=1) <= 0)[0]
    if bad.size:  # R > 0 precludes this
        raise ArithmeticError(f"H at t={int(bad[0])} is singular")
    return LqrTape(P=P, H=H)


def _hinf_probe(sys: LqSystem, gamma: float, scan: bool = True) -> _Sweep:
    """The backward H-infinity sweep at level gamma as a `_Sweep` that has
    run no window yet; its carry is P, and its result the `HinfTape`. With
    scan False every window runs as the step loop, which stops at its
    failing step, instead of `kernels.hinf_backward`'s chunked scan."""
    _check_level(gamma)
    gamma = float(gamma)
    T, n, m = sys.T, sys.n, sys.m
    backward = kernels.hinf_backward if scan else functools.partial(kernels._riccati_backward, stacked=True)

    def window(t0, t1, P, tapes):
        A, B_u, B_w, Q, R = (X[t0:t1] for X in (sys.A, sys.B_u, sys.B_w, sys.Q, sys.R))
        P, tapes["H"][t0:t1], tapes["margins"][t0:t1] = backward(A, B_u, B_w, Q, R, P, gamma)
        tapes["P"][t0:t1 + 1] = P
        return P[0].copy()  # so that a paused probe holds no window's output

    return _Sweep(window, sys.Q_T, (T, n, m), lambda tapes: HinfTape(gamma=gamma, **tapes))


def backward_hinf(sys: LqSystem, gamma: float) -> HinfTape:
    """Backward H-infinity Riccati at performance level gamma, initialized at
    P_T = Q_T, with per-step feasibility margins.

    The sweep (`_Sweep`) runs backward from t = T in windows of 16, 32, 64,
    ... steps and stops after the first window with a failing step. The
    kernel runs a window of 32 steps or more as a chunked scan, which agrees
    with the loop to rounding; a horizon under 48 steps has no such window
    and keeps the loop's bits.
    """
    return _hinf_probe(as_validated(sys), gamma).result()


def forward_kalman(norm: NormalizedSystem) -> ForwardKalmanTape:
    """Forward Kalman recursion on an R-normalized system; the induced causal
    operator L satisfies LL' = I + FF'."""
    sys = norm.system
    sqQ = psd_sqrt(np.concatenate((sys.Q, sys.Q_T[None])))
    P, K_p, R_e, Atil = kernels.forward_kalman(sys.A, sys.B_u, sqQ)
    W = sqQ @ np.linalg.solve(R_e, sqQ)
    return ForwardKalmanTape(P=P, K_p=K_p, R_e=R_e, Atil=Atil, sqQ=sqQ, W=W)


def backward_kalman(norm: NormalizedSystem, fwd: ForwardKalmanTape, gamma: float) -> BackwardKalmanTape:
    """Backward Kalman recursion; the induced causal operator Delta satisfies
    Delta'Delta = gamma^2 I + G'(I + FF')^{-1} G."""
    _check_level(gamma)
    sys = norm.system
    T = sys.T
    P_b, K_bl, R_be, _ = kernels.backward_kalman(
        fwd.Atil, sys.B_w, fwd.W[:T], float(gamma), fwd.W[T]
    )
    return BackwardKalmanTape(P_b=P_b, K_bl=K_bl, R_be=R_be, R_be_inv_sqrt=pd_inv_sqrt(R_be))
