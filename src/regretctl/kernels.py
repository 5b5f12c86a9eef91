"""Hot recursion kernels.

Every kernel is written in nopython-compatible numpy over stacked (T, ., .)
arrays. If numba is importable and the environment variable REGRETCTL_BACKEND
is not set to "numpy", the kernels are compiled with @njit; otherwise the pure
numpy implementations run as-is. `PY_KERNELS` always holds the uncompiled
versions so the two paths can be benchmarked against each other.
"""

import os

import numpy as np

_want_numba = os.environ.get("REGRETCTL_BACKEND", "numba").lower() != "numpy"
try:
    if _want_numba:
        from numba import njit
    else:
        njit = None
except ImportError:  # pragma: no cover
    njit = None

BACKEND = "numba" if njit is not None else "numpy"


def _sym(M):
    return (M + M.T) / 2.0


def _max_eig(M):
    vals, _ = np.linalg.eigh(_sym(M))
    return vals[-1]


def lqr_backward(A, B_u, Q, R, P_T):
    """Backward LQR Riccati: P_t = Q_t + A'PA - A'PB (R+B'PB)^{-1} B'PA.

    Returns (P, H) with P: (T+1, n, n), H_t = R_t + B_u' P_{t+1} B_u: (T, m, m).
    """
    T, n, _ = A.shape
    m = B_u.shape[2]
    P = np.zeros((T + 1, n, n))
    H = np.zeros((T, m, m))
    P[T] = _sym(P_T)
    for t in range(T - 1, -1, -1):
        BtP = B_u[t].T @ P[t + 1]
        H[t] = _sym(R[t] + BtP @ B_u[t])
        AtP = A[t].T @ P[t + 1]
        P[t] = _sym(Q[t] + AtP @ A[t] - (AtP @ B_u[t]) @ np.linalg.solve(H[t], BtP @ A[t]))
    return P, H


def hinf_backward(A, B_u, B_w, Q, R, P_T, gamma):
    """Backward H-infinity Riccati with per-step feasibility margins.

    P_t = Q_t + A'PA - A'P Bhat Hhat^{-1} Bhat' P A with Bhat = [B_u B_w] and
    Hhat = blkdiag(R, -gamma^2 I) + Bhat' P Bhat. The margin at step t is the
    largest eigenvalue of
    -gamma^2 I + B_w'PB_w - B_w'PB_u H^{-1} B_u'PB_w;
    the synthesis is feasible iff every margin is negative.

    Returns (P, H, margins).
    """
    T, n, _ = A.shape
    m = B_u.shape[2]
    p = B_w.shape[2]
    P = np.zeros((T + 1, n, n))
    H = np.zeros((T, m, m))
    margins = np.zeros(T)
    P[T] = _sym(P_T)
    g2 = gamma * gamma
    for t in range(T - 1, -1, -1):
        Pn = P[t + 1]
        H[t] = _sym(R[t] + B_u[t].T @ Pn @ B_u[t])
        cross = B_w[t].T @ Pn @ B_u[t]
        marg = _sym(
            -g2 * np.eye(p)
            + B_w[t].T @ Pn @ B_w[t]
            - cross @ np.linalg.solve(H[t], cross.T)
        )
        margins[t] = _max_eig(marg)
        if margins[t] >= 0.0 or _max_eig(-H[t]) >= 0.0:
            # level unattainable from step t on; the stacked pivot is no
            # longer invertible, so stop and flag every earlier step
            for s in range(t + 1):
                margins[s] = max(margins[t], 1.0)
            break
        Bhat = np.concatenate((B_u[t], B_w[t]), axis=1)
        Hhat = np.zeros((m + p, m + p))
        Hhat[:m, :m] = R[t]
        Hhat[m:, m:] = -g2 * np.eye(p)
        Hhat = _sym(Hhat + Bhat.T @ Pn @ Bhat)
        AtP = A[t].T @ Pn
        P[t] = _sym(Q[t] + AtP @ A[t] - (AtP @ Bhat) @ np.linalg.solve(Hhat, Bhat.T @ Pn @ A[t]))
    return P, H, margins


def forward_kalman(A, B_u, sqQ):
    """Forward Kalman recursion factoring I + FF' = LL'.

    sqQ holds Q_t^{1/2} for t = 0..T-1 plus Q_T^{1/2} at index T (the terminal
    block row of the operators). Returns (P, K_p, R_e, Atil) with
    P: (T+1, n, n) (P_0 = 0), K_p: (T, n, n), R_e: (T+1, n, n) (index T uses
    the terminal weight), Atil_t = A_t - K_p_t Q_t^{1/2}.
    """
    T, n, _ = A.shape
    P = np.zeros((T + 1, n, n))
    K_p = np.zeros((T, n, n))
    R_e = np.zeros((T + 1, n, n))
    Atil = np.zeros((T, n, n))
    for t in range(T):
        R_e[t] = _sym(np.eye(n) + sqQ[t] @ P[t] @ sqQ[t])
        K_p[t] = A[t] @ P[t] @ np.linalg.solve(R_e[t], sqQ[t]).T
        Atil[t] = A[t] - K_p[t] @ sqQ[t]
        P[t + 1] = _sym(
            A[t] @ P[t] @ A[t].T + B_u[t] @ B_u[t].T - K_p[t] @ R_e[t] @ K_p[t].T
        )
    R_e[T] = _sym(np.eye(n) + sqQ[T] @ P[T] @ sqQ[T])
    return P, K_p, R_e, Atil


def backward_kalman(Atil, B_w, W, gamma):
    """Backward Kalman recursion producing the causal factor Delta of
    gamma^2 I + G'(I + FF')^{-1}G.

    W: (T+1, n, n) holds W_t = Q_t^{1/2} R_e_t^{-1} Q_t^{1/2} from the forward
    recursion, index T carrying the terminal weight.
    P_b[T-1] = W_T (zero when there is no terminal cost), then for
    t = T-1..1:
    P_b[t-1] = Atil' P_b Atil + W_t - K R_be K' with
    K^b_l[t] = Atil_t' P_b[t] B_w_t R_be[t]^{-1} and
    R_be[t] = gamma^2 I + B_w' P_b B_w.

    Returns (P_b, K_bl, R_be) with P_b: (T, n, n), K_bl: (T, n, p),
    R_be: (T, p, p).
    """
    T, n, _ = Atil.shape
    p = B_w.shape[2]
    P_b = np.zeros((T, n, n))
    K_bl = np.zeros((T, n, p))
    R_be = np.zeros((T, p, p))
    g2 = gamma * gamma
    P_b[T - 1] = _sym(W[T])
    for t in range(T - 1, -1, -1):
        R_be[t] = _sym(g2 * np.eye(p) + B_w[t].T @ P_b[t] @ B_w[t])
        K_bl[t] = Atil[t].T @ P_b[t] @ np.linalg.solve(R_be[t], B_w[t].T).T
        if t > 0:
            P_b[t - 1] = _sym(
                Atil[t].T @ P_b[t] @ Atil[t]
                + W[t]
                - K_bl[t] @ R_be[t] @ K_bl[t].T
            )
    return P_b, K_bl, R_be


def rollout_feedback(A, B_u, B_w, K_x, K_w, w):
    """Roll out u_t = K_x_t x_t + K_w_t w_t from x_0 = 0. Returns (x, u)."""
    T, n, _ = A.shape
    m = K_x.shape[1]
    x = np.zeros((T + 1, n))
    u = np.zeros((T, m))
    for t in range(T):
        u[t] = K_x[t] @ x[t] + K_w[t] @ w[t]
        x[t + 1] = A[t] @ x[t] + B_u[t] @ u[t] + B_w[t] @ w[t]
    return x, u


def regret_phat_backward(Ahat, Bhat_u, Bhat_w, Qhat, Phat_T, level, lqr_form):
    """Backward recursion for the value matrices of the transformed
    (2n-dimensional) synthesis at the given disturbance-attenuation level.

    When lqr_form is False (default path) the full H-infinity recursion over
    the stacked input [Bhat_u Bhat_w] is used; when True, the control-only
    recursion is used. Margins are computed at `level` in both cases.

    Returns (Phat, Hhat, margins).
    """
    T, N, _ = Ahat.shape
    m = Bhat_u.shape[2]
    p = Bhat_w.shape[2]
    Phat = np.zeros((T + 1, N, N))
    Hhat = np.zeros((T, m, m))
    margins = np.zeros(T)
    Phat[T] = _sym(Phat_T)
    l2 = level * level
    for t in range(T - 1, -1, -1):
        Pn = Phat[t + 1]
        Hhat[t] = _sym(np.eye(m) + Bhat_u[t].T @ Pn @ Bhat_u[t])
        cross = Bhat_w[t].T @ Pn @ Bhat_u[t]
        marg = _sym(
            -l2 * np.eye(p)
            + Bhat_w[t].T @ Pn @ Bhat_w[t]
            - cross @ np.linalg.solve(Hhat[t], cross.T)
        )
        margins[t] = _max_eig(marg)
        if not lqr_form and (margins[t] >= 0.0 or _max_eig(-Hhat[t]) >= 0.0):
            for s in range(t + 1):
                margins[s] = max(margins[t], 1.0)
            break
        AtP = Ahat[t].T @ Pn
        if lqr_form:
            Phat[t] = _sym(
                Qhat[t]
                + AtP @ Ahat[t]
                - (AtP @ Bhat_u[t]) @ np.linalg.solve(Hhat[t], Bhat_u[t].T @ Pn @ Ahat[t])
            )
        else:
            Bstk = np.concatenate((Bhat_u[t], Bhat_w[t]), axis=1)
            Hstk = np.zeros((m + p, m + p))
            Hstk[:m, :m] = np.eye(m)
            Hstk[m:, m:] = -l2 * np.eye(p)
            Hstk = _sym(Hstk + Bstk.T @ Pn @ Bstk)
            Phat[t] = _sym(
                Qhat[t]
                + AtP @ Ahat[t]
                - (AtP @ Bstk) @ np.linalg.solve(Hstk, Bstk.T @ Pn @ Ahat[t])
            )
    return Phat, Hhat, margins


def rollout_regret(A, B_u, Atil, B_w, K_bl, sqR_be, M_x, M_d, M_z, w):
    """Roll out the regret controller: the Delta-driver state delta feeds
    z_t = R_be^{1/2} K_bl' delta_t + R_be^{1/2} w_t and the control is
    u_t = M_x_t x_t + M_d_t delta_t + M_z_t z_t.

    In exact arithmetic the augmented state [zeta; nu] equals [x; delta], so
    the realization feeds the plant state back instead of simulating zeta
    open-loop through a possibly unstable A (where rounding differences
    between plant and internal copy would grow exponentially); delta only
    sees the stable closed-loop observer matrix Atil. Returns (u, z)."""
    T, n, _ = A.shape
    m = B_u.shape[2]
    p = B_w.shape[2]
    u = np.zeros((T, m))
    z = np.zeros((T, p))
    x = np.zeros(n)
    delta = np.zeros(n)
    for t in range(T):
        z[t] = sqR_be[t] @ (K_bl[t].T @ delta) + sqR_be[t] @ w[t]
        u[t] = M_x[t] @ x + M_d[t] @ delta + M_z[t] @ z[t]
        x = A[t] @ x + B_u[t] @ u[t] + B_w[t] @ w[t]
        delta = Atil[t] @ delta + B_w[t] @ w[t]
    return u, z


_KERNEL_NAMES = [
    "lqr_backward",
    "hinf_backward",
    "forward_kalman",
    "backward_kalman",
    "rollout_feedback",
    "regret_phat_backward",
    "rollout_regret",
]

PY_KERNELS = {name: globals()[name] for name in _KERNEL_NAMES}

if njit is not None:
    _sym = njit(cache=True)(_sym)
    _max_eig = njit(cache=True)(_max_eig)
    for _name in _KERNEL_NAMES:
        globals()[_name] = njit(cache=True)(PY_KERNELS[_name])
