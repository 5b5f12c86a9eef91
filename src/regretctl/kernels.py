"""Hot recursion kernels, pure numpy over stacked (T, ., .) arrays.

The three backward value recursions are one indefinite Riccati recursion,
`_riccati_backward`, over a control input B_u and a disturbance input B_w
with J = blkdiag(R, -level^2 I) + B'PB (the Krein-space view of H-infinity
control). Its three entry points are `lqr_backward` (no disturbance input,
p = 0), `hinf_backward` (the stacked input [B_u B_w] at level gamma) and
`regret_phat_backward` (R = I on the doubled state of the regret reduction,
stacked or control-only). The regret controller's step is `_regret_step`,
shared by `rollout_regret` and the stepping interface of the controller.

The two rollouts take disturbances with leading batch axes, (..., T, p), and
run every item in one sweep over time. Each product is a stacked
matrix-vector product (`_mv`), so an item gets the same bits as its rollout
alone.
"""

import numpy as np

BACKEND = "numpy"  # the only backend; benchmark environment records report it


def _sym(M):
    return (M + M.T) / 2.0


def _max_eig(M):
    vals, _ = np.linalg.eigh(_sym(M))
    return vals[-1]


def _riccati_backward(A, B_u, B_w, Q, R, P_T, level, stacked):
    """The one backward Riccati recursion behind the three public entry points.

    P_t = Q_t + A'PA - A'PB J^{-1} B'PA with P = P_{t+1}. When `stacked`, B is
    the stacked input [B_u B_w] and J = blkdiag(R, -level^2 I) + B'PB;
    otherwise B = B_u and J = H_t = R_t + B_u'PB_u. Whenever p > 0, the margin
    at step t is the largest eigenvalue of
    -level^2 I + B_w'PB_w - B_w'PB_u H_t^{-1} B_u'PB_w.
    In the stacked case a margin >= 0 or an H_t that is not positive definite
    makes J singular, so the recursion stops there and flags every earlier
    step with max(margin, 1).

    Returns (P, H, margins) with P: (T+1, n, n), H: (T, m, m), margins: (T,).
    """
    T, n, _ = A.shape
    m = B_u.shape[2]
    p = B_w.shape[2]
    P = np.zeros((T + 1, n, n))
    H = np.zeros((T, m, m))
    margins = np.zeros(T)
    P[T] = _sym(P_T)
    neg_l2 = -(level * level) * np.eye(p)
    if stacked:  # the stacked input and blkdiag(R, -level^2 I), once per call
        B = np.concatenate((B_u, B_w), axis=2)
        J0 = np.zeros((T, m + p, m + p))
        J0[:, :m, :m] = R
        J0[:, m:, m:] = neg_l2
    for t in range(T - 1, -1, -1):
        Pn = P[t + 1]
        BtP = B_u[t].T @ Pn
        H[t] = _sym(R[t] + BtP @ B_u[t])
        if p:
            WtP = B_w[t].T @ Pn
            cross = WtP @ B_u[t]
            marg = _sym(neg_l2 + WtP @ B_w[t] - cross @ np.linalg.solve(H[t], cross.T))
            margins[t] = _max_eig(marg)
            if stacked and (margins[t] >= 0.0 or _max_eig(-H[t]) >= 0.0):
                margins[: t + 1] = max(margins[t], 1.0)
                break
        AtP = A[t].T @ Pn
        if stacked:
            Bs = B[t]
            J = _sym(J0[t] + Bs.T @ Pn @ Bs)
            P[t] = _sym(Q[t] + AtP @ A[t] - (AtP @ Bs) @ np.linalg.solve(J, Bs.T @ Pn @ A[t]))
        else:
            P[t] = _sym(Q[t] + AtP @ A[t] - (AtP @ B_u[t]) @ np.linalg.solve(H[t], BtP @ A[t]))
    return P, H, margins


def lqr_backward(A, B_u, Q, R, P_T):
    """Backward LQR Riccati: the recursion with no disturbance input (p = 0).

    Returns (P, H) with P: (T+1, n, n), H_t = R_t + B_u' P_{t+1} B_u: (T, m, m).
    """
    B_w = np.zeros(B_u.shape[:2] + (0,))
    P, H, _ = _riccati_backward(A, B_u, B_w, Q, R, P_T, 0.0, False)
    return P, H


def hinf_backward(A, B_u, B_w, Q, R, P_T, gamma):
    """Backward H-infinity Riccati over the stacked input [B_u B_w] at level
    gamma, with per-step feasibility margins; the level is attainable iff
    every margin is negative. Returns (P, H, margins)."""
    return _riccati_backward(A, B_u, B_w, Q, R, P_T, gamma, True)


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


def backward_kalman(Atil, B_w, W, gamma, P_b_last):
    """Backward Kalman recursion producing the causal factor Delta of
    gamma^2 I + G'(I + FF')^{-1}G, over the k steps of a window.

    Atil, B_w and W hold the window's steps; W_t = Q_t^{1/2} R_e_t^{-1}
    Q_t^{1/2} comes from the forward recursion. P_b_last is P_b at the
    window's last step: W_T (zero when there is no terminal cost) for the
    window that ends at the horizon, else the carry of the window after it.
    Then, step by step backward,
    P_b[t-1] = Atil' P_b Atil + W_t - K R_be K' with
    K^b_l[t] = Atil_t' P_b[t] B_w_t R_be[t]^{-1} and
    R_be[t] = gamma^2 I + B_w' P_b B_w.

    Returns (P_b, K_bl, R_be, carry) with P_b: (k, n, n), K_bl: (k, n, p),
    R_be: (k, p, p) and carry the P_b of the step before the window.
    """
    k, n, _ = Atil.shape
    p = B_w.shape[2]
    P_b = np.zeros((k + 1, n, n))
    K_bl = np.zeros((k, n, p))
    R_be = np.zeros((k, p, p))
    g2 = gamma * gamma
    P_b[k] = _sym(P_b_last)
    for t in range(k - 1, -1, -1):
        R_be[t] = _sym(g2 * np.eye(p) + B_w[t].T @ P_b[t + 1] @ B_w[t])
        K_bl[t] = Atil[t].T @ P_b[t + 1] @ np.linalg.solve(R_be[t], B_w[t].T).T
        P_b[t] = _sym(
            Atil[t].T @ P_b[t + 1] @ Atil[t]
            + W[t]
            - K_bl[t] @ R_be[t] @ K_bl[t].T
        )
    return P_b[1:], K_bl, R_be, P_b[0]


def _mv(M, v):
    """M @ v for a vector v, or for each vector of a stack v: (..., k); M may
    be one matrix or a stack broadcasting against v. Each product is one
    matrix-vector call, so a stacked item gets the same bits as M @ v alone
    (the row form v @ M.T would go through a matrix-matrix product)."""
    return (M @ v[..., None])[..., 0]


def rollout_feedback(A, B_u, B_w, K_x, K_w, w):
    """Roll out u_t = K_x_t x_t + K_w_t w_t from x_0 = 0 for a disturbance
    w: (..., T, p), every leading index an independent rollout. Returns
    (x, u) with x: (..., T+1, n), u: (..., T, m)."""
    T, n, _ = A.shape
    batch = w.shape[:-2]
    x = np.zeros(batch + (T + 1, n))
    u = np.zeros(batch + (T, K_x.shape[1]))
    for t in range(T):
        xt, wt = x[..., t, :], w[..., t, :]
        u[..., t, :] = _mv(K_x[t], xt) + _mv(K_w[t], wt)
        x[..., t + 1, :] = _mv(A[t], xt) + _mv(B_u[t], u[..., t, :]) + _mv(B_w[t], wt)
    return x, u


def regret_phat_backward(Ahat, Bhat_u, Bhat_w, Qhat, Phat_T, level, lqr_form):
    """Backward recursion for the value matrices of the transformed
    (2n-dimensional) synthesis: the recursion with R = I, over the stacked
    input [Bhat_u Bhat_w] at attenuation `level`, or over Bhat_u alone (the
    control-only form) when lqr_form is True. Margins are computed at `level`
    in both cases. Returns (Phat, Hhat, margins).
    """
    T, _, m = Bhat_u.shape
    R = np.broadcast_to(np.eye(m), (T, m, m))
    return _riccati_backward(Ahat, Bhat_u, Bhat_w, Qhat, R, Phat_T, level, not lqr_form)


def _regret_step(Atil, B_w, K_bl, sqR_be, M_x, M_d, M_z, x, delta, w):
    """One step of the regret controller; every matrix is its step-t slice and
    x, delta, w may carry leading batch axes. Returns
    z = R_be^{1/2} K_bl' delta + R_be^{1/2} w, the normalized control
    u = M_x x + M_d delta + M_z z and the next driver state
    delta' = Atil delta + B_w w."""
    z = _mv(sqR_be, _mv(K_bl.T, delta)) + _mv(sqR_be, w)
    u = _mv(M_x, x) + _mv(M_d, delta) + _mv(M_z, z)
    return z, u, _mv(Atil, delta) + _mv(B_w, w)


def rollout_regret(A, B_u, Atil, B_w, K_bl, sqR_be, M_x, M_d, M_z, w):
    """Roll out the regret controller step by step (`_regret_step`) on the
    plant x_{t+1} = A x + B_u u + B_w w from x_0 = delta_0 = 0, for a
    disturbance w: (..., T, p), every leading index an independent rollout.

    In exact arithmetic the augmented state [zeta; nu] equals [x; delta], so
    the realization feeds the plant state back instead of simulating zeta
    open-loop through a possibly unstable A (where rounding differences
    between plant and internal copy would grow exponentially); delta only
    sees the stable closed-loop observer matrix Atil. Returns (u, z) with
    u: (..., T, m), z: (..., T, p)."""
    T, n, _ = A.shape
    batch = w.shape[:-2]
    u = np.zeros(batch + (T, B_u.shape[2]))
    z = np.zeros(batch + (T, B_w.shape[2]))
    x = np.zeros(batch + (n,))
    delta = np.zeros(batch + (n,))
    for t in range(T):
        wt = w[..., t, :]
        z[..., t, :], u[..., t, :], delta_next = _regret_step(
            Atil[t], B_w[t], K_bl[t], sqR_be[t], M_x[t], M_d[t], M_z[t], x, delta, wt
        )
        x = _mv(A[t], x) + _mv(B_u[t], u[..., t, :]) + _mv(B_w[t], wt)
        delta = delta_next
    return u, z
