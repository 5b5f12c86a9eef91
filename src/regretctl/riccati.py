"""Riccati and Kalman recursion engines shared by all syntheses.

Four recursions: backward LQR, backward H-infinity with feasibility margins,
forward Kalman (factoring I + FF' = LL') and backward Kalman (producing the
causal factor Delta of gamma^2 I + G'(I + FF')^{-1} G). The dense
realizations of L and Delta are in `operator_oracle`.
"""

from __future__ import annotations

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
    R_be (T, p, p) plus symmetric square roots of R_be."""

    P_b: np.ndarray
    K_bl: np.ndarray
    R_be: np.ndarray
    R_be_sqrt: np.ndarray
    R_be_inv_sqrt: np.ndarray
    gamma: float


def _first_failing_step(margins):
    """The step where a backward sweep first met a margin >= 0, which is the
    largest such t since the sweep runs from t = T - 1 down. None when every
    margin is negative."""
    bad = np.nonzero(margins >= 0.0)[0]
    return int(bad[-1]) if bad.size else None


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


def backward_hinf(sys: LqSystem, gamma: float) -> HinfTape:
    """Backward H-infinity Riccati at performance level gamma, initialized at
    P_T = Q_T, with per-step feasibility margins."""
    sys = as_validated(sys)
    _check_level(gamma)
    try:
        P, H, margins = kernels.hinf_backward(
            sys.A, sys.B_u, sys.B_w, sys.Q, sys.R, sys.Q_T, float(gamma)
        )
    except np.linalg.LinAlgError:
        # recursion blew up before a margin turned positive (a singular
        # pivot, or an overflow that became an invalid value): numerically
        # unattainable level
        P = np.zeros((sys.T + 1, sys.n, sys.n))
        H = np.zeros((sys.T, sys.m, sys.m))
        margins = np.ones(sys.T)
    return HinfTape(P=P, H=H, margins=margins, gamma=float(gamma))


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
    return BackwardKalmanTape(
        P_b=P_b,
        K_bl=K_bl,
        R_be=R_be,
        R_be_sqrt=psd_sqrt(R_be),
        R_be_inv_sqrt=pd_inv_sqrt(R_be),
        gamma=float(gamma),
    )
