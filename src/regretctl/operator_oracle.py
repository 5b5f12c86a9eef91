"""Dense block-operator representations and brute-force certificates.

Everything here is O(T^3) and intended for desk-scale verification: building
the causal operators F (controls -> weighted states) and G (disturbances ->
weighted states), W = L^{-1}G, and the dense realizations of the Kalman
factors L and Delta (all from one strictly-causal builder), the
offline-optimal controller in closed form, block-causal factorization of
positive-definite operators, controller probing, and exact worst-case regret
gains.

All operators live in R-normalized control coordinates (R_t = I), so the cost
is exactly ||Fu + Gw||^2 + ||u||^2.

For unstable plants the entries of F and G grow like the state-transition
products, so `regret_certificate` forms neither. Its closed-loop term is
X'X, with X the weighted plant states of the controller's own batched
impulse rollout: X = FK + G in exact arithmetic, but the closed-loop states
stay bounded where F K and G only cancel. Its offline term
G'(I + FF')^{-1}G is W'W, whose blocks pass only through the forward Kalman
recursion's stable observer matrices Atil. The dense forms,
`worst_case_regret_gain(build_operators(...), K)` and `offline_cost_form`,
stay as the referee on stable plants and short horizons; their accuracy
degrades like machine epsilon times ||F|| ||K|| and ||F||^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import riccati
from .riccati import BackwardKalmanTape, ForwardKalmanTape
from .sim_bench import closed_loop, controls
from .system_model import (
    DefinitenessError,
    LqSystem,
    NormalizedSystem,
    as_validated,
    normalize_control_weight,
    pd_inv_sqrt,
    psd_sqrt,
)

SIZE_CAP = 2000
CAUSALITY_TOL = 1e-9  # the largest block magnitude a probe allows above the diagonal


class SizeCapError(ValueError):
    """The dense oracle refuses instances with T * max(n, m, p) > 2000."""


class CausalityViolationError(ValueError):
    """A probed controller produced a non-causal operator."""


@dataclass(frozen=True)
class OperatorPair:
    """Strictly block-lower-triangular F and G with s = Fu + Gw, and
    W = L^{-1}G with LL' = I + FF', so that W'W = G'(I + FF')^{-1}G.

    Row blocks are the weighted states s_0..s_{T-1} (n each), plus one extra
    block row carrying Q_T^{1/2} when the system has a terminal cost. Column
    blocks are u_0..u_{T-1} (m each) for F and w_0..w_{T-1} (p each) for G
    and W; W is strictly block-lower-triangular with G's shape.
    """

    F: np.ndarray
    G: np.ndarray
    W: np.ndarray
    T: int
    n: int
    m: int
    p: int
    n_rows: int  # number of block rows (T or T+1)


def check_size(sys: LqSystem):
    """Raise SizeCapError if the dense operators of `sys` would exceed the cap."""
    if sys.T * max(sys.n, sys.m, sys.p) > SIZE_CAP:
        raise SizeCapError(
            f"dense oracle refuses T*max(n,m,p) = "
            f"{sys.T * max(sys.n, sys.m, sys.p)} > {SIZE_CAP}"
        )


def _block_rows(sys: LqSystem) -> int:
    """T block rows of weighted states, plus one when there is a terminal cost."""
    return sys.T + 1 if np.any(sys.Q_T != 0.0) else sys.T


def _strictly_causal(A, B, C) -> np.ndarray:
    """The strictly block-lower operator with block (i, j) = C_i A_{i-1}...
    A_{j+1} B_j for j < i, and zero blocks on and above the diagonal.

    C (rows, r, n) sets the block rows and B (cols, n, k) the block columns.
    The rows are filled one at a time from the stacked impulse responses of
    all earlier inputs, which advance by one product with A_i per row.
    """
    rows, r, _ = C.shape
    cols, _, k = B.shape
    out = np.zeros((rows * r, cols * k))
    M = B.copy()  # at row i, M[j] = A_{i-1}...A_{j+1} B_j for every j < i
    for i in range(1, rows):
        out[i * r:(i + 1) * r, :i * k] = np.concatenate(C[i] @ M[:i], axis=1)
        if i < len(A):
            M[:i] = A[i] @ M[:i]
    return out


def _block_diagonal(blocks) -> np.ndarray:
    """The block-diagonal matrix of a stack of blocks (N, r, k)."""
    N, r, k = blocks.shape
    out = np.zeros((N, r, N, k))
    out[np.arange(N), :, np.arange(N), :] = blocks
    return out.reshape(N * r, N * k)


def _offline_factor(sys: LqSystem):
    """(sqQ, W) of a validated, R-normalized system: the Q_t^{1/2} of its
    block rows (Q_T^{1/2} last when there is a terminal cost) and
    W = L^{-1}G, whose block (i, j) is R_e_i^{-1/2} Q_i^{1/2}
    Atil_{i-1}...Atil_{j+1} B_w_j from the forward Kalman tape (the
    innovations form of G)."""
    # R_t = I, so both control rescaling maps are the identity
    fwd = riccati.forward_kalman(NormalizedSystem(sys, sys.R, sys.R))
    n_rows = _block_rows(sys)
    sqQ = fwd.sqQ[:n_rows]
    return sqQ, _strictly_causal(fwd.Atil, sys.B_w, pd_inv_sqrt(fwd.R_e[:n_rows]) @ sqQ)


def build_operators(sys: LqSystem) -> OperatorPair:
    """Build the dense F, G and W of a validated, R-normalized system.

    Block (i, j) of F is Q_i^{1/2} A_{i-1}...A_{j+1} B_u_j for j < i (and
    likewise for G with B_w); the terminal cost contributes one extra block
    row Q_T^{1/2} A_{T-1}...A_{j+1} B_._j. Block (i, j) of W = L^{-1}G is
    R_e_i^{-1/2} Q_i^{1/2} Atil_{i-1}...Atil_{j+1} B_w_j from the forward
    Kalman tape (the innovations form of G), with the same terminal row.
    """
    sys = as_validated(sys)
    if not np.allclose(sys.R, np.eye(sys.m)[None, :, :], atol=1e-12):
        raise ValueError("build_operators requires an R-normalized system (R_t = I)")
    check_size(sys)
    sqQ, W = _offline_factor(sys)
    F, G = _strictly_causal(sys.A, sys.B_u, sqQ), _strictly_causal(sys.A, sys.B_w, sqQ)
    return OperatorPair(F=F, G=G, W=W, T=sys.T, n=sys.n, m=sys.m, p=sys.p, n_rows=len(sqQ))


def dense_l_operator(norm: NormalizedSystem, fwd: ForwardKalmanTape) -> np.ndarray:
    """Dense realization of L (LL' = I + FF') from the forward tape.

    Block (i, j): R_e_i^{1/2} on the diagonal, Q_i^{1/2} A_{i-1}..A_{j+1}
    K_p_j R_e_j^{1/2} below. Includes the terminal block row/column when the
    system carries a terminal cost.
    """
    sys = norm.system
    n_rows = _block_rows(sys)
    Re_sqrt = psd_sqrt(fwd.R_e[:n_rows])
    L = _block_diagonal(Re_sqrt)
    # the terminal block column, if any, has only its diagonal block
    L[:, :sys.T * sys.n] += _strictly_causal(sys.A, fwd.K_p @ Re_sqrt[:sys.T], fwd.sqQ[:n_rows])
    return L


def dense_delta_operator(norm: NormalizedSystem, fwd: ForwardKalmanTape, bwd: BackwardKalmanTape) -> np.ndarray:
    """Dense realization of Delta (Delta'Delta = gamma^2 I + G'(I + FF')^{-1}G)
    from the backward tape.

    Block (i, j): R_be_i^{1/2} on the diagonal, R_be_i^{1/2} K_bl_i'
    Atil_{i-1}..Atil_{j+1} B_w_j below.
    """
    C = bwd.R_be_sqrt @ np.swapaxes(bwd.K_bl, 1, 2)
    return _block_diagonal(bwd.R_be_sqrt) + _strictly_causal(fwd.Atil, norm.system.B_w, C)


def offline_optimal(ops: OperatorPair, w):
    """Closed-form clairvoyant optimum: u* = -(I + F'F)^{-1} F'G w and
    cost* = w' G'(I + FF')^{-1} G w. Returns (u_stacked, offline_cost)."""
    w = np.asarray(w, dtype=float).reshape(-1)
    F, G = ops.F, ops.G
    Gw = G @ w
    u = -np.linalg.solve(np.eye(F.shape[1]) + F.T @ F, F.T @ Gw)
    cost = float(Gw @ np.linalg.solve(np.eye(F.shape[0]) + F @ F.T, Gw))
    return u, cost


def offline_cost_form(ops: OperatorPair) -> np.ndarray:
    """The quadratic form G'(I + FF')^{-1}G of the offline-optimal cost, by a
    dense solve: the referee of the certificate's W'W."""
    F, G = ops.F, ops.G
    M = G.T @ np.linalg.solve(np.eye(F.shape[0]) + F @ F.T, G)
    return (M + M.T) / 2.0


def causal_factor(target, block: int) -> np.ndarray:
    """Block Cholesky factorization M'M = target of a positive-definite block
    operator: M is block-lower-triangular with symmetric PD diagonal pivots
    (the convention the Kalman realizations use), and is built from the last
    block row up.

    Pivots are regularized by 1e-12 * mean-diagonal before the square root.
    """
    S = np.asarray(target, dtype=float)
    S = (S + S.T) / 2.0
    N = S.shape[0]
    if N % block != 0:
        raise ValueError(f"operator size {N} is not a multiple of block size {block}")
    b = block
    reg = 1e-12 * np.trace(S) / max(N, 1)
    M = np.zeros_like(S)
    for i in range(N // b - 1, -1, -1):
        rows, below = slice(i * b, (i + 1) * b), slice((i + 1) * b, N)
        strip = M[below, rows]  # the blocks M_ki, k > i
        D = S[rows, rows] - strip.T @ strip
        D = (D + D.T) / 2.0 + reg * np.eye(b)
        vals, vecs = np.linalg.eigh(D)
        if vals.min() <= 0:
            raise DefinitenessError(
                f"operator is not positive definite at pivot block {i} "
                f"(min eigenvalue {vals.min():g})"
            )
        M[rows, rows] = (vecs * np.sqrt(vals)) @ vecs.T
        left = slice(0, i * b)  # the blocks j < i of row i
        M[rows, left] = (vecs / np.sqrt(vals)) @ vecs.T @ (S[rows, left] - strip.T @ M[below, left])
    return M


def causal_part(M, row_block: int, col_block: int) -> np.ndarray:
    """Zero out the strictly upper block triangle (blocks (i, j) with j > i)."""
    M = np.asarray(M, dtype=float)
    out = M.copy()
    rows = np.arange(M.shape[0] // row_block * row_block) // row_block
    cols = np.arange(M.shape[1] // col_block * col_block) // col_block
    out[: rows.size, : cols.size][cols[None, :] > rows[:, None]] = 0.0
    return out


def _impulses(sys: LqSystem) -> np.ndarray:
    """The T*p unit-impulse disturbances (T*p, T, p); item j*p + c is
    w[j, c] = 1."""
    return np.eye(sys.T * sys.p).reshape(sys.T * sys.p, sys.T, sys.p)


def _causal_operator(norm: NormalizedSystem, u, tol: float) -> np.ndarray:
    """The (Tm) x (Tp) operator of the controls u (T*p, T, m) of the impulse
    rollout, in R-normalized coordinates; raises CausalityViolationError
    naming the first block (i, j), j > i, in row-major order whose largest
    magnitude exceeds tol."""
    T, m = u.shape[1:]
    p = u.shape[0] // T
    K = np.ascontiguousarray(norm.to_normalized_u(u).reshape(T * p, T * m).T)
    blocks = np.abs(K.reshape(T, m, T, p)).max(axis=(1, 3))
    upper = np.triu(blocks > tol, k=1)
    if upper.any():
        i, j = np.argwhere(upper)[0]
        raise CausalityViolationError(
            f"controller block ({i}, {j}) has magnitude {blocks[i, j]:g} > {tol:g}"
        )
    return K


def controller_operator(sys: LqSystem, controller, tol: float = CAUSALITY_TOL) -> np.ndarray:
    """Extract the (Tm) x (Tp) operator of a linear causal controller by
    probing it with unit-impulse disturbances, all T*p of them in one batched
    rollout.

    The returned operator maps stacked disturbances to stacked R-normalized
    controls. Raises CausalityViolationError naming the first block (i, j),
    j > i, in row-major order whose largest magnitude exceeds tol.
    """
    sys = as_validated(sys)
    check_size(sys)
    u = controls(sys, controller, _impulses(sys))
    return _causal_operator(normalize_control_weight(sys), u, tol)


@dataclass(frozen=True)
class RegretGainCertificate:
    """Exact worst-case regret gain of a causal linear controller.

    regret_quadratic_form = X'X + K'K - W'W, where X = FK + G maps the
    disturbance to the weighted closed-loop states and
    W'W = G'(I + FF')^{-1}G is the offline-optimal cost; gain is its largest
    eigenvalue and witness the corresponding unit disturbance sequence (an
    array of its own, not a view of the eigenvectors).
    """

    K: np.ndarray
    regret_quadratic_form: np.ndarray
    gain: float
    witness: np.ndarray


def _certificate(K, E) -> RegretGainCertificate:
    """The certificate of K from its regret quadratic form E."""
    E = (E + E.T) / 2.0
    vals, vecs = np.linalg.eigh(E)
    gain = float(vals[-1])
    if -1e-9 < gain < 0.0:
        gain = 0.0
    return RegretGainCertificate(
        K=K, regret_quadratic_form=E, gain=gain, witness=vecs[:, -1].copy()
    )


def worst_case_regret_gain(ops: OperatorPair, K) -> RegretGainCertificate:
    """Largest eigenvalue (and witness) of the regret quadratic form of K,
    (FK + G)'(FK + G) + K'K - W'W, from the dense operators: the referee of
    `regret_certificate`."""
    K = np.asarray(K, dtype=float)
    F, G, W = ops.F, ops.G, ops.W
    closed = F @ K + G
    return _certificate(K, closed.T @ closed + K.T @ K - W.T @ W)


def regret_certificate(sys: LqSystem, controller) -> RegretGainCertificate:
    """The certificate of a controller that reports its closed-loop states
    (`closed_loop`), from its own batched impulse rollout and with no dense
    F or G.

    The rollout drives all T*p unit impulses at once. Its controls give K,
    the same bits `controller_operator` returns, under the same finiteness
    and causality checks. Its states give
    X = [Q_t^{1/2} x_t; Q_T^{1/2} x_T] per impulse, so the regret form is
    E = X'X + K'K - W'W. X follows the controls as the controller computes
    them, before the round trip through R^{-1/2} and R^{1/2} that gives K,
    so it can differ from FK + G by F times K's last bits.
    """
    sys = as_validated(sys)
    check_size(sys)
    norm = normalize_control_weight(sys)
    sqQ, W = _offline_factor(norm.system)
    x, u = closed_loop(sys, controller, _impulses(sys))
    K = _causal_operator(norm, u, CAUSALITY_TOL)
    X = (sqQ @ x[:, :len(sqQ), :, None]).reshape(len(x), -1)  # row j: impulse j's X column
    del x, u
    return _certificate(K, X @ X.T + K.T @ K - W.T @ W)


def worst_case_cost_gain(ops: OperatorPair, K) -> float:
    """Largest eigenvalue of K'K + (FK + G)'(FK + G): the squared H-infinity
    gain from disturbance energy to cost."""
    K = np.asarray(K, dtype=float)
    closed = ops.F @ K + ops.G
    E = closed.T @ closed + K.T @ K
    return float(np.linalg.eigvalsh((E + E.T) / 2.0)[-1])


def h2_operator_form(ops: OperatorPair) -> np.ndarray:
    """The H2-optimal controller as a causal operator.

    With Delta'Delta = I + F'F (Delta causal), the causal Wiener solution of
    min_K ||FK + G||_F^2 + ||K||_F^2 over causal K is
    K = -Delta^{-1} { Delta^{-T} F'G }_+.
    """
    F, G = ops.F, ops.G
    m, p = ops.m, ops.p
    target = np.eye(F.shape[1]) + F.T @ F
    delta = causal_factor(target, block=m)
    inner = np.linalg.solve(delta.T, F.T @ G)
    K = -np.linalg.solve(delta, causal_part(inner, m, p))
    return K
