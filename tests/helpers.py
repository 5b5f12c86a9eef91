"""Shared builders for the test suite."""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from regretctl import controllers as ct
from regretctl import kernels, riccati
from regretctl.cli import pendulum_system
from regretctl.riccati import BackwardKalmanTape, ForwardKalmanTape
from regretctl.system_model import (
    DefinitenessError,
    LqSystem,
    NormalizedSystem,
    as_signal,
    normalize_control_weight,
    psd_sqrt,
    validate_system,
)


def s1(T=3, R=1.0, Q_T=None):
    """The scalar workhorse: A = B_u = B_w = Q = 1, R configurable, T steps."""
    return validate_system(
        LqSystem.time_invariant(
            [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[float(R)]], Q_T, horizon=T
        )
    )


def quiet_tail_pendulum(T=1000, quiet_from=600):
    """The pendulum with no disturbance input from step `quiet_from` on: no
    disturbance reaches the steps after it, so a backward sweep at a level
    below gamma_opt fails only once it reaches t < quiet_from, deep in the
    horizon and clear of rounding noise."""
    sys = pendulum_system(T)
    B_w = sys.B_w.copy()
    B_w[quiet_from:] = 0.0
    return validate_system(LqSystem(sys.A, sys.B_u, B_w, sys.Q, sys.R, sys.Q_T))


# The systems whose disturbance produces no cost, by the blocks of the
# pendulum set to zero: no disturbance input, no state weighting, neither.
REGRET_FREE = {"no-disturbance": ("B_w",), "no-weight": ("Q", "Q_T"), "neither": ("B_w", "Q", "Q_T")}


def regret_free_system(zeroed, T=20):
    """The pendulum at horizon T with the blocks `zeroed` (a value of
    REGRET_FREE) set to zero; with B_w = 0 alone it is the plant of
    tests/data/degenerate.json."""
    sys = pendulum_system(T)
    blocks = {k: getattr(sys, k) for k in ("A", "B_u", "B_w", "Q", "R", "Q_T")}
    blocks.update({k: np.zeros_like(blocks[k]) for k in zeroed})
    return validate_system(LqSystem(**blocks))


def random_system(seed, n_max=3, m_max=3, p_max=3, T_max=15, stable=True,
                  with_terminal=None):
    """A random validated system; `stable` scales A to spectral radius < 1.

    with_terminal: None draws it from the seed, True/False forces Q_T.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    p = int(rng.integers(1, p_max + 1))
    T = int(rng.integers(2, T_max + 1))
    return _random_blocks(rng, n, m, p, T, stable, with_terminal)


def random_ltv(seed, n, m, p, T):
    """A random stable LTV system of the given sizes with a terminal cost,
    shaped like the benchmark's certify workload: A_t at spectral radius
    0.85, random PSD Q_t and PD R_t."""
    return _random_blocks(np.random.default_rng(seed), n, m, p, T, True, True)


def _random_blocks(rng, n, m, p, T, stable, with_terminal):
    A = np.zeros((T, n, n))
    B_u = np.zeros((T, n, m))
    B_w = np.zeros((T, n, p))
    Q = np.zeros((T, n, n))
    R = np.zeros((T, m, m))
    for t in range(T):
        M = rng.standard_normal((n, n))
        if stable:
            M *= 0.85 / max(np.abs(np.linalg.eigvals(M)).max(), 1e-6)
        A[t] = M
        B_u[t] = rng.standard_normal((n, m))
        B_w[t] = rng.standard_normal((n, p))
        C = rng.standard_normal((n, n))
        Q[t] = C.T @ C / n
        D = rng.standard_normal((m, m))
        R[t] = D.T @ D / m + 0.5 * np.eye(m)
    if with_terminal is None:
        with_terminal = bool(rng.integers(0, 2))
    if with_terminal:
        E = rng.standard_normal((n, n))
        Q_T = E.T @ E / n
    else:
        Q_T = np.zeros((n, n))
    return validate_system(LqSystem(A, B_u, B_w, Q, R, Q_T))


class ZeroController:
    """The controller u = 0 on the validated system `sys`."""

    def __init__(self, sys):
        self._sys = sys

    def control_sequence(self, w):
        w = as_signal(w, self._sys.T, self._sys.p)
        return np.zeros(w.shape[:-2] + (self._sys.T, self._sys.m))


def feedback_view(sys, ctrl) -> SimpleNamespace:
    """The H2 or H-infinity `FeedbackController` ctrl of the validated
    system sys as `operator_oracle.regret_gain` reads a `RegretSynthesis`:
    the regret synthesis' `norm` and `fwd` (`controllers.prepare_regret`),
    and the gains in R-normalized controls, K_xi = [R^{1/2} K_x, 0] on
    (x, delta) and K_w = R^{1/2} K_w. The observer state delta then carries
    only the offline cost."""
    problem = ct.prepare_regret(sys)
    sqR = psd_sqrt(sys.R)
    K_x = sqR @ ctrl.K_x
    return SimpleNamespace(
        norm=problem.norm, fwd=problem.fwd, K_xi=np.concatenate((K_x, np.zeros_like(K_x)), axis=2), K_w=sqR @ ctrl.K_w
    )


@dataclass(frozen=True)
class DoubledSystem:
    """The z-driven doubled system of the regret reduction at one level, over
    the whole horizon: the backward Kalman tape it is assembled from, and
    Ahat, Bhat_u = [B_u; 0], Bhat_w, Qhat = blkdiag(Q, 0) and
    Phat_T = blkdiag(Q_T, 0)."""

    bwd: BackwardKalmanTape
    Ahat: np.ndarray
    Bhat_u: np.ndarray
    Bhat_w: np.ndarray
    Qhat: np.ndarray
    Phat_T: np.ndarray


def doubled_system(norm, fwd, gamma):
    """The `DoubledSystem` at level gamma of the R-normalized system `norm`
    with forward Kalman tape `fwd`: one backward Kalman recursion over the
    horizon, then Ahat = [[A, -B_w K_bl'], [0, Atil - B_w K_bl']] and
    Bhat_w = [B_w R_be^{-1/2}; B_w R_be^{-1/2}], assembled as a probe's
    window assembles them."""
    nsys = norm.system
    T, n = nsys.T, nsys.n
    bwd = riccati.backward_kalman(norm, fwd, gamma)
    BwK = nsys.B_w @ np.swapaxes(bwd.K_bl, 1, 2)
    Bw_scaled = nsys.B_w @ bwd.R_be_inv_sqrt
    Ahat = np.zeros((T, 2 * n, 2 * n))
    Ahat[:, :n, :n] = nsys.A
    Ahat[:, :n, n:] = -BwK
    Ahat[:, n:, n:] = fwd.Atil - BwK
    Qhat = np.zeros((T, 2 * n, 2 * n))
    Qhat[:, :n, :n] = nsys.Q
    Phat_T = np.zeros((2 * n, 2 * n))
    Phat_T[:n, :n] = nsys.Q_T
    return DoubledSystem(
        bwd=bwd,
        Ahat=Ahat,
        Bhat_u=np.concatenate((nsys.B_u, np.zeros_like(nsys.B_u)), axis=1),
        Bhat_w=np.concatenate((Bw_scaled, Bw_scaled), axis=1),
        Qhat=Qhat,
        Phat_T=Phat_T,
    )


def full_horizon_reference(sys, gamma, test):
    """The regret synthesis at level gamma as one sweep over the whole
    horizon: the backward Kalman tape, the assembly of the doubled system
    (`doubled_system`) and one value recursion, with a margin of 1 at every
    step if it breaks down.

    test="level1" is the library's feasibility test (the attenuation-level-1
    recursion on the z-driven doubled system). test="printed" is the test the
    library no longer offers: the control-only value recursion with a
    -gamma^2 margin, whose level its own controller does not attain (see
    `printed_regret_optimal`)."""
    norm = normalize_control_weight(sys)
    nsys = norm.system
    T, n, m = nsys.T, nsys.n, nsys.m
    fwd = riccati.forward_kalman(norm)
    d = doubled_system(norm, fwd, gamma)
    level, lqr_form = {"level1": (1.0, False), "printed": (gamma, True)}[test]
    try:
        Phat, Hhat, margins = kernels.regret_phat_backward(
            d.Ahat, d.Bhat_u, d.Bhat_w, d.Qhat, d.Phat_T, level, lqr_form
        )
    except np.linalg.LinAlgError:
        Phat, Hhat, margins = np.zeros((T + 1, 2 * n, 2 * n)), np.zeros((T, m, m)), np.ones(T)
    return ct.RegretSynthesis(
        gamma=gamma, norm=norm, B_u=sys.B_u, fwd=fwd, Phat=Phat, Hhat=Hhat, margins=margins,
    )


def printed_regret_optimal(sys, tol):
    """The regret bisection under the "printed" feasibility test, over
    full-horizon syntheses. Returns (GammaSearchResult, RegretSynthesis)."""
    return eager_bisect_gamma(lambda g: full_horizon_reference(sys, g, "printed"), tol)


# `controllers._bisect_gamma` as it was while every probe swept to t = 0 or
# to its failure, kept verbatim apart from its name and module prefixes. The
# lazy search is held to its levels, results and controllers bit for bit.


def eager_bisect_gamma(probe, tol):
    """Search on gamma: `probe(gamma)` returns a tape or synthesis with
    `.feasible`, monotone in gamma, and `.gamma`. Returns
    (GammaSearchResult, best) with best the last feasible probe.

    One loop probes gamma = 1, then hi/2 while no level has failed, 2*lo
    while none has passed, else the midpoint of [lo, hi]. It stops at a
    feasible level at or below the 1e-8 floor (gamma_opt is then 0.0),
    after _MAX_DOUBLINGS doublings (ArithmeticError), once hi - lo <= tol*hi,
    or on adjacent floats (a smaller tol cannot be met). `hi` only ever
    takes a feasible level, so best.gamma is hi, which is gamma_opt.
    `bracket_history` gets (lo, hi) after each probe inside the bracket."""
    lo = hi = best = None
    history = []
    g, iters = 1.0, 0
    while True:
        bracketed = lo is not None and hi is not None
        result = probe(g)
        if result.feasible:
            hi, best = g, result
        else:
            lo = g
        del result  # no infeasible probe outlives its verdict
        if bracketed:
            history.append((lo, hi))
        if lo is None:
            if g <= 1e-8:
                break
            g = hi / 2.0
        elif hi is None:
            if iters == ct._MAX_DOUBLINGS:
                raise ArithmeticError(
                    f"no feasible level found after {ct._MAX_DOUBLINGS} doublings "
                    "(degenerate system)"
                )
            g = 2.0 * lo
        else:
            g = 0.5 * (hi + lo)
            if not (hi - lo > tol * hi and lo < g < hi):
                break
        iters += 1
    result = ct.GammaSearchResult(
        gamma_opt=hi if lo is not None else 0.0,
        bracket_history=history,
        iterations=iters,
        final_margins=best.margins,
    )
    return result, best


def eager_regret_optimal(sys, tol):
    """`controllers.regret_optimal` over the eager search. Returns
    (GammaSearchResult, RegretSynthesis)."""
    problem = ct.prepare_regret(sys)
    return eager_bisect_gamma(lambda g: ct._regret_probe(problem, g).result(), tol)


def eager_hinf_optimal(sys, tol):
    """`controllers.hinf_optimal` over the eager search. Returns
    (GammaSearchResult, FeedbackController)."""
    res, tape = eager_bisect_gamma(lambda g: riccati.backward_hinf(sys, g), tol)
    return res, ct.FeedbackController(sys, tape)


def generate(spec, T, p):
    """One disturbance (T, p) drawn from `spec` at its own seed: the bits
    `sim_bench.compare` draws for a trial seeded spec.seed."""
    return spec._sampler(T, p)(np.random.Generator(np.random.PCG64(spec.seed)))


def random_disturbance(seed, sys, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((sys.T, sys.p))


def to_original_u(norm, u_norm):
    """Map R-normalized controls (..., T, m) of `norm` back to original ones,
    u_t = R_t^{-1/2} u_t'."""
    return np.einsum("tij,...tj->...ti", norm.R_inv_sqrt, np.asarray(u_norm, dtype=float))


def to_normalized_u(sys, u):
    """Map original controls (..., T, m) of the validated system `sys` to
    R-normalized ones, u_t' = R_t^{1/2} u_t."""
    return np.einsum("tij,...tj->...ti", psd_sqrt(sys.R), np.asarray(u, dtype=float))


def stacked_s(sys, traj):
    """The weighted-state stack matching the operator row layout (terminal
    row included iff the system carries a terminal cost)."""
    rows = [psd_sqrt(sys.Q[t]) @ traj.x[t] for t in range(sys.T)]
    if np.any(sys.Q_T != 0.0):
        rows.append(psd_sqrt(sys.Q_T) @ traj.x[sys.T])
    return np.concatenate(rows)


# The loop kernels of regretctl.kernels as they were while every step called
# np.linalg.solve and np.linalg.eigh (each wrapper entering its own error
# state), kept verbatim apart from their names. The kernels now call the
# LAPACK gufuncs behind those wrappers under one error state per call; the
# bit-identity tests in test_kernels.py hold them to these copies. The
# backward Kalman recursion has since moved onto the Riccati kernel, so
# `reference_backward_kalman`, its own loop, holds it only to rounding.


def _sym(M):
    return (M + M.T) / 2.0


def _max_eig(M):
    vals, _ = np.linalg.eigh(_sym(M))
    return vals[-1]


def reference_riccati_backward(A, B_u, B_w, Q, R, P_T, level, stacked):
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


def reference_forward_kalman(A, B_u, sqQ):
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


def reference_backward_kalman(Atil, B_w, W, gamma, P_b_last):
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


# The dense oracle's factor realizations as they were while every block of L
# and Delta was formed from its own transition product and the block Cholesky
# factorization had both of its mirrored branches, kept verbatim apart from
# their names. The tests in test_operator_oracle.py hold the strip-wise
# factorization and the row-by-row realizations to these copies.


@dataclass(frozen=True)
class ReferenceCausalFactor:
    """Block-lower-triangular factor M of a positive-definite operator, with
    symmetric positive-definite diagonal blocks. side = "lower_times_upper"
    means M M' = target; side = "upper_times_lower" means M'M = target."""

    M: np.ndarray
    target: np.ndarray
    side: str
    block: int


def reference_causal_factor(target, block: int, side: str = "upper_times_lower") -> ReferenceCausalFactor:
    """Block Cholesky factorization of a positive-definite block operator with
    symmetric PD diagonal pivots (the convention the Kalman realizations use).

    Pivots are regularized by 1e-12 * mean-diagonal before the square root.
    """
    S = np.asarray(target, dtype=float)
    S = (S + S.T) / 2.0
    N = S.shape[0]
    if N % block != 0:
        raise ValueError(f"operator size {N} is not a multiple of block size {block}")
    nb = N // block
    reg = 1e-12 * np.trace(S) / max(N, 1)
    M = np.zeros_like(S)
    b = block

    def blk(X, i, j):
        return X[i * b:(i + 1) * b, j * b:(j + 1) * b]

    def put(i, j, val):
        M[i * b:(i + 1) * b, j * b:(j + 1) * b] = val

    if side == "lower_times_upper":
        order = range(nb)
        for i in order:
            D = blk(S, i, i) - sum(
                (blk(M, i, k) @ blk(M, i, k).T for k in range(i)), np.zeros((b, b))
            )
            D = (D + D.T) / 2.0 + reg * np.eye(b)
            vals, vecs = np.linalg.eigh(D)
            if vals.min() <= 0:
                raise DefinitenessError(
                    f"operator is not positive definite at pivot block {i} "
                    f"(min eigenvalue {vals.min():g})"
                )
            Dh = (vecs * np.sqrt(vals)) @ vecs.T
            Dh_inv = (vecs / np.sqrt(vals)) @ vecs.T
            put(i, i, Dh)
            for j in range(i + 1, nb):
                off = blk(S, j, i) - sum(
                    (blk(M, j, k) @ blk(M, i, k).T for k in range(i)), np.zeros((b, b))
                )
                put(j, i, off @ Dh_inv)
    elif side == "upper_times_lower":
        for i in range(nb - 1, -1, -1):
            D = blk(S, i, i) - sum(
                (blk(M, k, i).T @ blk(M, k, i) for k in range(i + 1, nb)),
                np.zeros((b, b)),
            )
            D = (D + D.T) / 2.0 + reg * np.eye(b)
            vals, vecs = np.linalg.eigh(D)
            if vals.min() <= 0:
                raise DefinitenessError(
                    f"operator is not positive definite at pivot block {i} "
                    f"(min eigenvalue {vals.min():g})"
                )
            Dh = (vecs * np.sqrt(vals)) @ vecs.T
            Dh_inv = (vecs / np.sqrt(vals)) @ vecs.T
            put(i, i, Dh)
            for j in range(i):
                off = blk(S, i, j) - sum(
                    (blk(M, k, i).T @ blk(M, k, j) for k in range(i + 1, nb)),
                    np.zeros((b, b)),
                )
                put(i, j, Dh_inv @ off)
    else:
        raise ValueError(f"unknown side {side!r}")
    return ReferenceCausalFactor(M=M, target=S, side=side, block=block)


def reference_transition(A, i, j):
    """Phi(i, j) = A_{i-1} ... A_j (identity when i == j)."""
    n = A.shape[1]
    M = np.eye(n)
    for k in range(j, i):
        M = A[k] @ M
    return M


def reference_dense_l_operator(norm: NormalizedSystem, fwd: ForwardKalmanTape) -> np.ndarray:
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
            blk = fwd.sqQ[i] @ reference_transition(sys.A, i, j + 1) @ fwd.K_p[j] @ Re_sqrt[j]
            L[i * n:(i + 1) * n, j * n:(j + 1) * n] = blk
    return L


def reference_dense_delta_operator(norm: NormalizedSystem, fwd: ForwardKalmanTape, bwd: BackwardKalmanTape) -> np.ndarray:
    """Dense realization of Delta from the backward tape (desk-scale check).

    Block (i, j): R_be_i^{1/2} on the diagonal, R_be_i^{1/2} K_bl_i'
    Atil_{i-1}..Atil_{j+1} B_w_j below.
    """
    sys = norm.system
    T, p = sys.T, sys.p
    R_be_sqrt = psd_sqrt(bwd.R_be)
    D = np.zeros((T * p, T * p))
    for i in range(T):
        D[i * p:(i + 1) * p, i * p:(i + 1) * p] = R_be_sqrt[i]
        for j in range(i):
            blk = R_be_sqrt[i] @ bwd.K_bl[i].T @ reference_transition(fwd.Atil, i, j + 1) @ sys.B_w[j]
            D[i * p:(i + 1) * p, j * p:(j + 1) * p] = blk
    return D


# The regret controller's step and rollout in their z-form, as they were
# while the controller read z = R_be^{1/2}(K_bl' delta + w) and the gains
# M_state = [M_x, M_d] and M_z, kept verbatim apart from their names, the
# rollout's returned tape, now (x, u), and its control, now mapped back by
# R^{-1/2} in each step to step the plant on its own B_u (and `_mv`, copied
# with them). The z-form equals the state feedback of
# `kernels.rollout_regret` in exact arithmetic only, so it is an independent
# referee: `z_form_args` rebuilds its arguments from a synthesis and the
# doubled system at its level, and test_kernels.py holds the controller to
# it within a relative bound.


def _mv(M, v):
    """M @ v for a vector v, or for each vector of a stack v: (..., k); M may
    be one matrix or a stack broadcasting against v. Each product is one
    matrix-vector call, so a stacked item gets the same bits as M @ v alone
    (the row form v @ M.T would go through a matrix-matrix product)."""
    return (M @ v[..., None])[..., 0]


def reference_regret_step(Atil, B_w, K_bl, sqR_be, M_x, M_d, M_z, x, delta, w):
    """One step of the regret controller; every matrix is its step-t slice and
    x, delta, w may carry leading batch axes. Returns
    z = R_be^{1/2} K_bl' delta + R_be^{1/2} w, the normalized control
    u = M_x x + M_d delta + M_z z and the next driver state
    delta' = Atil delta + B_w w."""
    z = _mv(sqR_be, _mv(K_bl.T, delta)) + _mv(sqR_be, w)
    u = _mv(M_x, x) + _mv(M_d, delta) + _mv(M_z, z)
    return z, u, _mv(Atil, delta) + _mv(B_w, w)


def reference_rollout_regret(A, B_u, R_inv_sqrt, Atil, B_w, K_bl, sqR_be, M_x, M_d, M_z, w):
    """Roll out the regret controller step by step (`reference_regret_step`,
    whose normalized control R_t^{-1/2} maps back) on the plant
    x_{t+1} = A x + B_u u + B_w w from x_0 = delta_0 = 0, for a
    disturbance w: (..., T, p), every leading index an independent rollout.

    In exact arithmetic the augmented state [zeta; nu] equals [x; delta], so
    the realization feeds the plant state back instead of simulating zeta
    open-loop through a possibly unstable A (where rounding differences
    between plant and internal copy would grow exponentially); delta only
    sees the stable closed-loop observer matrix Atil. Returns the
    closed-loop tape (x, u) with x: (..., T+1, n), u: (..., T, m)."""
    T, n, _ = A.shape
    batch = w.shape[:-2]
    u = np.zeros(batch + (T, B_u.shape[2]))
    xs = np.zeros(batch + (T + 1, n))
    x = np.zeros(batch + (n,))
    delta = np.zeros(batch + (n,))
    for t in range(T):
        wt = w[..., t, :]
        _, u_norm, delta_next = reference_regret_step(
            Atil[t], B_w[t], K_bl[t], sqR_be[t], M_x[t], M_d[t], M_z[t], x, delta, wt
        )
        u[..., t, :] = _mv(R_inv_sqrt[t], u_norm)
        x = _mv(A[t], x) + _mv(B_u[t], u[..., t, :]) + _mv(B_w[t], wt)
        xs[..., t + 1, :] = x
        delta = delta_next
    return xs, u


def z_form_args(s):
    """The arguments of `reference_rollout_regret` before w, for the regret
    synthesis s: the plant and observer, K_bl, R_be^{1/2}, and the gains
    -Hhat^{-1} Bhat_u' Phat X with X = Ahat (split into M_x and M_d) and
    X = Bhat_w (M_z), on the doubled system `doubled_system` rebuilds at
    s's level."""
    nsys = s.norm.system
    n = nsys.n
    d = doubled_system(s.norm, s.fwd, s.gamma)
    M_state = ct._gain(d.Bhat_u, s.Phat, s.Hhat, d.Ahat)
    M_z = ct._gain(d.Bhat_u, s.Phat, s.Hhat, d.Bhat_w)
    return (nsys.A, s.B_u, s.norm.R_inv_sqrt, s.fwd.Atil, nsys.B_w, d.bwd.K_bl,
            psd_sqrt(d.bwd.R_be), M_state[:, :, :n], M_state[:, :, n:], M_z)


# The state-feedback rollout of `kernels.rollout_regret` as a plain loop,
# with the kernel's arithmetic in the kernel's order. `kernels.rollout_regret`
# and `RegretSynthesis.control_sequence` are held to it bit for bit.


def reference_rollout_feedback_regret(A, B_u, R_inv_sqrt, Atil, B_w, K_x, K_d, K_w, w):
    """Roll out the regret controller's state feedback
    u = R^{-1/2}(K_x x + K_d delta + K_w w) on the plant
    x_{t+1} = A x + B_u u + B_w w and the observer
    delta_{t+1} = Atil delta + B_w w from x_0 = delta_0 = 0, for w:
    (..., T, p). Returns the closed-loop tape (x, u)."""
    T, n, _ = A.shape
    batch = w.shape[:-2]
    u = np.zeros(batch + (T, B_u.shape[2]))
    xs = np.zeros(batch + (T + 1, n))
    x = np.zeros(batch + (n,))
    delta = np.zeros(batch + (n,))
    for t in range(T):
        wt = w[..., t, :]
        u[..., t, :] = _mv(R_inv_sqrt[t], _mv(K_x[t], x) + _mv(K_d[t], delta) + _mv(K_w[t], wt))
        x = _mv(A[t], x) + _mv(B_u[t], u[..., t, :]) + _mv(B_w[t], wt)
        xs[..., t + 1, :] = x
        delta = _mv(Atil[t], delta) + _mv(B_w[t], wt)
    return xs, u


# The plain-Python document a JSON writer of regretctl.cli has to encode:
# numpy arrays as lists, numpy scalars as Python numbers, tuples as lists and
# booleans kept as booleans. test_cli.py holds what `cli.emit_json` writes,
# parsed back, to it.


def reference_jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    return obj


# The augmentations of regretctl.augmentation as they were while they filled
# each step's blocks in a Python loop; test_augmentation.py holds the stacked
# slice assignments to their arrays.


def reference_augment_predictions(sys, h):
    """(A, B_u, B_w, Q, R, Q_T) of the h-step lookahead augmentation."""
    T, n, m, p = sys.T, sys.n, sys.m, sys.p
    N = n + h * p
    A, B_u, B_w, Q = (np.zeros((T, N, k)) for k in (N, m, p, N))
    for t in range(T):
        A[t, :n, :n] = sys.A[t]
        A[t, :n, n:n + p] = sys.B_w[t]
        for k in range(h - 1):
            A[t, n + k * p:n + (k + 1) * p, n + (k + 1) * p:n + (k + 2) * p] = np.eye(p)
        B_u[t, :n, :] = sys.B_u[t]
        B_w[t, N - p:, :] = np.eye(p)
        Q[t, :n, :n] = sys.Q[t]
    Q_T = np.zeros((N, N))
    Q_T[:n, :n] = sys.Q_T
    return A, B_u, B_w, Q, sys.R.copy(), Q_T


def reference_augment_delay(sys, d):
    """(A, B_u, B_w, Q, R, Q_T) of the d-step input-delay augmentation."""
    T, n, m, p = sys.T, sys.n, sys.m, sys.p
    N = n + d * m
    A, B_u, B_w, Q = (np.zeros((T, N, k)) for k in (N, m, p, N))
    for t in range(T):
        A[t, :n, :n] = sys.A[t]
        if t - d >= 0:
            A[t, :n, N - m:] = sys.B_u[t - d]
        for k in range(d - 1):
            A[t, n + (k + 1) * m:n + (k + 2) * m, n + k * m:n + (k + 1) * m] = np.eye(m)
        B_u[t, n:n + m, :] = np.eye(m)
        B_w[t, :n, :] = sys.B_w[t]
        Q[t, :n, :n] = sys.Q[t]
    Q_T = np.zeros((N, N))
    Q_T[:n, :n] = sys.Q_T
    return A, B_u, B_w, Q, sys.R.copy(), Q_T
