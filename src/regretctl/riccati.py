"""Riccati and Kalman recursion engines shared by all syntheses.

Four recursions: backward LQR, backward H-infinity with feasibility margins,
forward Kalman (factoring I + FF' = LL') and backward Kalman (producing the
causal factor Delta of gamma^2 I + G'(I + FF')^{-1} G).
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


@dataclass(frozen=True)
class HinfTape:
    """H-infinity value matrices, gains data, and per-step feasibility margins
    (largest eigenvalue of the disturbance block Schur complement; the level
    gamma is attainable iff every margin is negative)."""

    P: np.ndarray
    H: np.ndarray
    margins: np.ndarray  # (T,)
    gamma: float

    @property
    def feasible(self):
        return bool(np.all(self.margins < 0.0))

    @property
    def first_infeasible_step(self):
        return _first_failing_step(self.margins)


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


def backward_lqr(sys: LqSystem, P_T=None) -> LqrTape:
    """Backward LQR Riccati recursion; P_T defaults to the terminal cost Q_T."""
    sys = as_validated(sys)
    P_T = sys.Q_T if P_T is None else np.asarray(P_T, dtype=float)
    P, H = kernels.lqr_backward(sys.A, sys.B_u, sys.Q, sys.R, P_T)
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


def _transition(A, i, j):
    """Phi(i, j) = A_{i-1} ... A_j (identity when i == j)."""
    n = A.shape[1]
    M = np.eye(n)
    for k in range(j, i):
        M = A[k] @ M
    return M


def dense_l_operator(norm: NormalizedSystem, fwd: ForwardKalmanTape) -> np.ndarray:
    """Dense realization of L from the forward tape (desk-scale check).

    Block (i, j): R_e_i^{1/2} on the diagonal, Q_i^{1/2} A_{i-1}..A_{j+1}
    K_p_j R_e_j^{1/2} below. Includes the terminal block row/column when the
    system carries a terminal cost.
    """
    sys = norm.system
    T, n = sys.T, sys.n
    Tr = T + 1 if np.any(sys.Q_T != 0.0) else T
    L = np.zeros((Tr * n, Tr * n))
    Re_sqrt = psd_sqrt(fwd.R_e)
    for i in range(Tr):
        L[i * n:(i + 1) * n, i * n:(i + 1) * n] = Re_sqrt[i]
        for j in range(i):
            blk = fwd.sqQ[i] @ _transition(sys.A, i, j + 1) @ fwd.K_p[j] @ Re_sqrt[j]
            L[i * n:(i + 1) * n, j * n:(j + 1) * n] = blk
    return L


def dense_delta_operator(norm: NormalizedSystem, fwd: ForwardKalmanTape, bwd: BackwardKalmanTape) -> np.ndarray:
    """Dense realization of Delta from the backward tape (desk-scale check).

    Block (i, j): R_be_i^{1/2} on the diagonal, R_be_i^{1/2} K_bl_i'
    Atil_{i-1}..Atil_{j+1} B_w_j below.
    """
    sys = norm.system
    T, p = sys.T, sys.p
    D = np.zeros((T * p, T * p))
    for i in range(T):
        D[i * p:(i + 1) * p, i * p:(i + 1) * p] = bwd.R_be_sqrt[i]
        for j in range(i):
            blk = bwd.R_be_sqrt[i] @ bwd.K_bl[i].T @ _transition(fwd.Atil, i, j + 1) @ sys.B_w[j]
            D[i * p:(i + 1) * p, j * p:(j + 1) * p] = blk
    return D
