"""Hot recursion kernels, pure numpy over stacked (T, ., .) arrays.

The backward recursions are one indefinite Riccati recursion,
`_riccati_sweep`, over a control input B_u and a disturbance input B_w
with J = blkdiag(R, -level^2 I) + B'PB (the Krein-space view of H-infinity
control). Its four entry points are `lqr_backward` (no disturbance input,
p = 0), `hinf_backward` (the stacked input [B_u B_w] at level gamma),
`regret_phat_backward` (R = I on the doubled state of the regret reduction,
stacked or control-only) and `backward_kalman` (A = Atil, B_u = B_w,
R = gamma^2 I and no disturbance input). `forward_kalman` runs it in
reversed time, so its step loop is the one every recursion runs on.
`rollout_regret` is the one realization of the regret controller. Both
rollouts step the plant in its own coordinates with `evaluate_cost`'s
expression, so the state tape x they return with the controls u is the one
`evaluate_cost` rebuilds from u, bit for bit.

The recursions solve and eigendecompose 1x1 to 4x4 matrices at every step,
where the public `np.linalg` wrappers cost more than LAPACK itself. So the
step loop calls the LAPACK gufuncs behind `np.linalg.solve` and
`np.linalg.eigh` directly, under the floating-point error state those
wrappers set up, entered once per kernel call (`_linalg_errstate`). The
results are the same bits. That state also covers the loop's own arithmetic,
so an invalid value there (an overflow that turns into inf - inf) raises
LinAlgError like a singular pivot does.

The forward and backward Kalman recursions, the stacked value recursion and
the H-infinity recursion run a window of at least `_SCAN_MIN_STEPS` steps as
a chunked scan (Sarkka and
Garcia-Fernandez, "Temporal parallelization of dynamic programming and
linear quadratic control", IEEE TAC 2023). Each of their steps is the map
P -> J + A'P(I + CP)^{-1}A with C = B R0^{-1} B', and these maps compose
associatively (Blelloch's O(k) schedule, in three phases). The last steps
of a k-step window are cut into chunks of c ~ sqrt(k/2) steps, laid out as
views of the window. Phase 1 composes the maps of each chunk, one position
at a time, batched over chunks; phase 2 carries P across the chunk
boundaries, one after another (`_chunk_ends`); phase 3 runs the step body
on all chunks at once, each from its boundary P. The loop is the same body
over one chunk, and it runs the k mod c steps before the chunks. A scan
that raises LinAlgError falls back to the loop (`_scheduled`), so a
breakdown means what it means in the loop. Every probe sweeps in windows of
16, 32, 64, ... steps (`riccati._windows`): the first runs as the loop, so
a probe that fails there stops at its failing step, and every later one of
32 steps or more as a scan. A horizon under 48 steps has no scanned window
and keeps the loop's bits; the forward Kalman recursion, one window over
the horizon, is scanned from 32 steps.

The two rollouts take disturbances with leading batch axes, (..., T, p), and
run every item in one sweep over time. Each product is a stacked
matrix-vector product (`_mv`), so an item gets the same bits as its rollout
alone.
"""

import math

import numpy as np
from numpy.linalg import _umath_linalg

BACKEND = "numpy"  # the only backend; benchmark environment records report it

# The gufuncs behind np.linalg.solve(a, b) for a 2-D b and np.linalg.eigh(a)
# (UPLO="L"); call them with signature="dd->d" and "d->dd", inside
# `_linalg_errstate`.
_solve = _umath_linalg.solve
_eigh = _umath_linalg.eigh_lo


def _raise_linalg_error(err, flag):
    raise np.linalg.LinAlgError(
        f"{err} in a recursion step (singular matrix, eigensolver failure or "
        "non-finite arithmetic)"
    )


def _linalg_errstate():
    """The error state np.linalg sets around each gufunc call: a LAPACK
    failure (flagged as an invalid value) raises LinAlgError; overflow,
    division by zero and underflow pass silently. Inside it, an invalid value
    in the loop's own arithmetic (inf - inf) raises LinAlgError too."""
    return np.errstate(
        call=_raise_linalg_error, invalid="call", over="ignore", divide="ignore", under="ignore"
    )


def _sym(M):
    """The symmetric part of a matrix, or of each matrix of a stack."""
    return (M + M.mT) / 2.0


def _max_eig(M):
    """Largest eigenvalue of the symmetric part of M (or of each matrix of a
    stack), as np.linalg.eigh computes it; call inside `_linalg_errstate`."""
    return _eigh(_sym(M), signature="d->dd")[0][..., -1]


# windows of at least this many steps run as a chunked scan, from where the
# scan beats the loop
_SCAN_MIN_STEPS = 32


def _chunk_length(k):
    """Steps per chunk of a k-step window: k (one chunk, the loop) below
    `_SCAN_MIN_STEPS`, else about sqrt(k/2), which makes the scan's 2c + k/c
    interpreted steps (c in each of phases 1 and 3, k/c in phase 2) least."""
    return k if k < _SCAN_MIN_STEPS else math.isqrt(k // 2)


def _scheduled(A, *args):
    """`_riccati_sweep(A, *args)` over the window of A's steps, as a chunked
    scan when `_chunk_length` cuts the window, else as the loop. A scan that
    raises LinAlgError is rerun as the loop, which decides what the breakdown
    means. Call inside `_linalg_errstate`."""
    k = A.shape[0]
    c = _chunk_length(k)
    if c < k:
        try:
            return _riccati_sweep(A, *args, chunk=c)
        except np.linalg.LinAlgError:
            pass
    return _riccati_sweep(A, *args)


def _chunked(x, c, r=0):
    """Steps r.. of a window x: (k, ...) in chunks of c steps, laid out by
    position, (c, N, ...) with step r + j*c + i at [i, j]; a view of x when
    x is contiguous. With c None (the loop), x itself."""
    if c is None:
        return x
    return x[r:].reshape(((x.shape[0] - r) // c, c) + x.shape[1:]).swapaxes(0, 1)


def _chunk_ends(A, B, R0, J, P_last):
    """Phases 1 and 2 of the scan over chunked steps (c, N, ...) whose maps
    are P -> J + A'P(I + CP)^{-1}A with C = B R0^{-1} B': compose the maps
    of each chunk but the first, batched over chunks, then carry P_last back
    across the chunk boundaries. Returns (N, n, n), the P at the end of each
    chunk (P_last for the last one). Call inside `_linalg_errstate`."""
    c, N, n, _ = A.shape
    eye = np.eye(n)

    def step(i):
        A_i, B_i = A[i, 1:], B[i, 1:]
        return A_i, B_i @ _solve(R0[i, 1:], B_i.mT, signature="dd->d"), J[i, 1:]

    # the composed map of steps i..c-1 of chunks 1..N-1, one earlier step at a time
    cA, cC, cJ = step(c - 1)
    for i in range(c - 2, -1, -1):
        A_i, C_i, J_i = step(i)
        Y = _solve(eye + C_i @ cJ, np.concatenate((A_i, C_i), axis=2), signature="dd->d")
        cJ = _sym(J_i + A_i.mT @ cJ @ Y[..., :n])
        cC = _sym(cA @ Y[..., n:] @ cA.mT + cC)
        cA = cA @ Y[..., :n]
    ends = np.empty((N, n, n))
    ends[N - 1] = P_last
    for j in range(N - 1, 0, -1):
        X = ends[j]
        ends[j - 1] = _sym(cJ[j - 1] + cA[j - 1].T @ X @ _solve(
            eye + cC[j - 1] @ X, cA[j - 1], signature="dd->d"))
    return ends


def _riccati_backward(A, B_u, B_w, Q, R, P_T, level, stacked, chunk=None):
    """`_riccati_sweep` inside its own `_linalg_errstate`, for a caller not
    yet inside it."""
    with _linalg_errstate():
        return _riccati_sweep(A, B_u, B_w, Q, R, P_T, level, stacked, chunk=chunk)


def _riccati_sweep(A, B_u, B_w, Q, R, P_T, level, stacked, chunk=None):
    """The one backward Riccati recursion behind the four public entry
    points; call inside `_linalg_errstate`.

    P_t = Q_t + A'PA - A'PB J^{-1} B'PA with P = P_{t+1}. When `stacked`, B is
    the stacked input [B_u B_w] and J = blkdiag(R, -level^2 I) + B'PB;
    otherwise B = B_u and J = H_t = R_t + B_u'PB_u. Whenever p > 0, the margin
    at step t is the largest eigenvalue of
    -level^2 I + B_w'PB_w - B_w'PB_u H_t^{-1} B_u'PB_w.
    In the stacked case a margin >= 0 or an H_t that is not positive definite
    makes J singular, so the recursion stops there and flags every earlier
    step with max(margin, 1).

    `chunk` runs the recursion as a chunked scan with chunks of that many
    steps (see the module docstring); by default it is the loop. The scan
    covers the last chunk * (T // chunk) steps and runs every step of every
    chunk; if none of them fails, the loop runs the T % chunk steps before
    them. A failure flags the last failing step and every earlier one as
    the loop does, and zeros what the loop would not have reached.

    Returns (P, H, margins) with P: (T+1, n, n), H: (T, m, m), margins: (T,).
    """
    T, n, _ = A.shape
    m = B_u.shape[2]
    p = B_w.shape[2]
    neg_l2 = -(level * level) * np.eye(p)
    if stacked:  # the stacked input and blkdiag(R, -level^2 I), once per call
        B = np.concatenate((B_u, B_w), axis=2)
        J0 = np.zeros((T, m + p, m + p))
        J0[:, :m, :m] = R
        J0[:, m:, m:] = neg_l2
    else:
        B, J0 = B_u, R
    P = np.zeros((T + 1, n, n))
    H = np.zeros((T, m, m))
    margins = np.zeros(T)
    P[T] = _sym(P_T)
    head = T % chunk if chunk else 0  # the steps before the scan
    A_, B_u_, B_w_, B_, Q_, R_, J0_, P_, H_, margins_ = (
        _chunked(x, chunk, head) for x in (A, B_u, B_w, B, Q, R, J0, P[:T], H, margins)
    )
    AT, B_uT, B_wT, BT = A_.mT, B_u_.mT, B_w_.mT, B_.mT  # transposed once per call
    t_fail = None  # the last failing step of a stacked recursion
    Pn = ends = _chunk_ends(A_, B_, J0_, Q_, P[T]) if chunk else P[T]
    for i in range(P_.shape[0] - 1, -1, -1):
        BtP = B_uT[i] @ Pn
        H_[i] = _sym(R_[i] + BtP @ B_u_[i])
        if p:
            WtP = B_wT[i] @ Pn
            cross = WtP @ B_u_[i]
            marg = _sym(
                neg_l2 + WtP @ B_w_[i] - cross @ _solve(H_[i], cross.mT, signature="dd->d")
            )
            margins_[i] = _max_eig(marg)
            if stacked and not chunk and (margins_[i] >= 0.0 or _max_eig(-H_[i]) >= 0.0):
                t_fail = i  # the loop stops at the failure
                break
        if stacked:
            BsP = BT[i] @ Pn
            J = _sym(J0_[i] + BsP @ B_[i])
        else:  # J is H
            BsP, J = BtP, H_[i]
        AtP = AT[i] @ Pn
        G = _solve(J, BsP @ A_[i], signature="dd->d")
        P_[i] = Pn = _sym(Q_[i] + AtP @ A_[i] - (AtP @ B_[i]) @ G)
    if chunk:
        P_[0, 1:] = ends[:-1]  # a chunk's first P is the one the step before it read
        if stacked and p:  # the scan ran every step; its last failure counts
            bad = np.flatnonzero((margins[head:] >= 0.0) | (_max_eig(-H[head:]) >= 0.0))
            t_fail = head + bad[-1] if bad.size else None
        if head and t_fail is None:
            P[: head + 1], H[:head], margins[:head] = _riccati_sweep(
                A[:head], B_u[:head], B_w[:head], Q[:head], R[:head], P[head], level, stacked
            )
    if t_fail is not None:  # flag it and every earlier step; zero what the loop never reached
        P[: t_fail + 1] = 0.0
        H[:t_fail] = 0.0
        margins[: t_fail + 1] = max(margins[t_fail], 1.0)
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
    every margin is negative. Runs a window of `_SCAN_MIN_STEPS` or more
    steps as a chunked scan. Returns (P, H, margins)."""
    with _linalg_errstate():
        return _scheduled(A, B_u, B_w, Q, R, P_T, gamma, True)


def forward_kalman(A, B_u, sqQ):
    """Forward Kalman recursion factoring I + FF' = LL'.

    sqQ holds Q_t^{1/2} for t = 0..T-1 plus Q_T^{1/2} at index T (the terminal
    block row of the operators). Returns (P, K_p, R_e, Atil) with
    P: (T+1, n, n) (P_0 = 0), K_p: (T, n, n), R_e: (T+1, n, n) (index T uses
    the terminal weight), Atil_t = A_t - K_p_t Q_t^{1/2}.

    The filter's map P -> BB' + AP(I + Q^{1/2} P Q^{1/2})^{-1}A' is the
    backward recursion's in reversed time: step t runs as step T-1-t with
    A_t' for A, Q_t^{1/2} for the input, no disturbance input, B_u B_u' for
    Q, R = I and P_T = 0, so a horizon of `_SCAN_MIN_STEPS` or more steps
    runs as a chunked scan. Its H is R_e; K_p and Atil follow from P in one
    stacked solve.
    """
    T, n, _ = A.shape
    eye = np.eye(n)
    A_r, sqQ_r, BB_r = (np.ascontiguousarray(x[::-1]) for x in (A.mT, sqQ[:T], B_u @ B_u.mT))
    R = np.broadcast_to(eye, (T, n, n))
    R_e = np.empty((T + 1, n, n))
    with _linalg_errstate():
        P, H, _ = _scheduled(A_r, sqQ_r, np.zeros((T, n, 0)), BB_r, R, np.zeros((n, n)), 0.0, False)
        P, R_e[:T] = P[::-1].copy(), H[::-1]
        K_p = A @ P[:T] @ _solve(R_e[:T], sqQ[:T], signature="dd->d").mT
    R_e[T] = _sym(eye + sqQ[T] @ P[T] @ sqQ[T])
    return P, K_p, R_e, A - K_p @ sqQ[:T]


def backward_kalman(Atil, B_w, W, gamma, P_b_last):
    """Backward Kalman recursion producing the causal factor Delta of
    gamma^2 I + G'(I + FF')^{-1}G, over the k steps of a window: the Riccati
    recursion with A = Atil, B_u = B_w, no disturbance input, Q = W and
    R = gamma^2 I, whose P_{t+1} is P_b[t] and whose H is R_be[t], and then
    K^b_l[t] = Atil_t' P_b[t] B_w_t R_be[t]^{-1}.

    W_t = Q_t^{1/2} R_e_t^{-1} Q_t^{1/2} comes from the forward recursion.
    P_b_last is P_b at the window's last step: W_T (zero when there is no
    terminal cost) for the window that ends at the horizon, else the carry
    of the window after it. Returns (P_b, K_bl, R_be, carry) with P_b:
    (k, n, n), K_bl: (k, n, p), R_be: (k, p, p) and carry the P_b of the
    step before the window.
    """
    k, n, p = B_w.shape
    R = np.full((k, p, p), (gamma * gamma) * np.eye(p))
    with _linalg_errstate():
        P, R_be, _ = _scheduled(Atil, B_w, np.zeros((k, n, 0)), W, R, P_b_last, 0.0, False)
        K_bl = Atil.mT @ P[1:] @ _solve(R_be, B_w.mT, signature="dd->d").mT
    return P[1:], K_bl, R_be, P[0]


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
    in both cases. Returns (Phat, Hhat, margins). The stacked form runs a
    window of `_SCAN_MIN_STEPS` or more steps as a chunked scan.
    """
    T, _, m = Bhat_u.shape
    R = np.broadcast_to(np.eye(m), (T, m, m))
    if lqr_form:
        return _riccati_backward(Ahat, Bhat_u, Bhat_w, Qhat, R, Phat_T, level, False)
    with _linalg_errstate():
        return _scheduled(Ahat, Bhat_u, Bhat_w, Qhat, R, Phat_T, level, True)


def _begun(w):
    """Per step t of a disturbance w: (items, ..., T, p), the leading items
    a rollout has to step: those up to the last item whose disturbance has
    begun by t (has an entry at or before t that is nonzero or -0.0). Every
    later item is still at rest, its tape exactly the zeros it started from.
    A single rollout, w: (T, p), and a batch whose last item begins at t = 0
    are stepped whole at every step."""
    T = w.shape[-2]
    bits = np.asarray(w, dtype=float).view(np.uint64)  # nonzero for any value but +0.0
    if w.ndim == 2 or (len(w) and bits[-1, ..., 0, :].any()):
        return [...] * T
    begun = bits.any(axis=(*range(1, w.ndim - 2), -1))  # (items, T)
    first = np.where(begun.any(axis=1), begun.argmax(axis=1), T)
    start = np.minimum.accumulate(first[::-1])[::-1]  # item i is stepped from min(first[i:]) on
    return [slice(0, k) for k in np.searchsorted(start, np.arange(T), side="right").tolist()]


def rollout_regret(A, B_u, R_inv_sqrt, Atil, B_w, K_bl, sqR_be, M_x, M_d, M_z, w):
    """Roll out the regret controller on the plant
    x_{t+1} = A x + B_u u + B_w w from x_0 = delta_0 = 0, for a disturbance
    w: (..., T, p), every leading index an independent rollout. Step t forms
    z = R_be^{1/2} K_bl' delta + R_be^{1/2} w, the control
    u = R^{-1/2}(M_x x + M_d delta + M_z z), whose gains act in the
    R-normalized coordinates of the synthesis, and the next driver state
    delta' = Atil delta + B_w w.

    In exact arithmetic the augmented state [zeta; nu] equals [x; delta], so
    the controller reads the plant state this rollout simulates instead of
    simulating zeta open-loop through a possibly unstable A (where rounding
    differences between plant and internal copy would grow exponentially);
    delta only sees the stable closed-loop observer matrix Atil. The plant
    step is `evaluate_cost`'s, on the plant's own B_u and controls, so the
    returned tape (x, u), x: (..., T+1, n) and u: (..., T, m), is the loop
    `evaluate_cost(sys, w, u)` scores.

    Step t steps only the leading items whose disturbance has begun
    (`_begun`); the items after them keep their exact +0.0 tapes. A batch of
    unit impulses ordered by their step, as `operator_oracle._impulses`
    orders them, so does about half the work; a batch whose last item
    begins at t = 0 steps every item at every step."""
    T, n, _ = A.shape
    batch = w.shape[:-2]
    steps = _begun(w)
    x = np.zeros(batch + (T + 1, n))
    u = np.zeros(batch + (T, B_u.shape[2]))
    delta = np.zeros(batch + (n,))
    for t, items in enumerate(steps):
        xs, us, ds = x[items], u[items], delta[items]
        xt, wt = xs[..., t, :], w[items][..., t, :]
        zt = _mv(sqR_be[t], _mv(K_bl[t].T, ds)) + _mv(sqR_be[t], wt)
        us[..., t, :] = _mv(R_inv_sqrt[t], _mv(M_x[t], xt) + _mv(M_d[t], ds) + _mv(M_z[t], zt))
        xs[..., t + 1, :] = _mv(A[t], xt) + _mv(B_u[t], us[..., t, :]) + _mv(B_w[t], wt)
        ds[...] = _mv(Atil[t], ds) + _mv(B_w[t], wt)
    return x, u
