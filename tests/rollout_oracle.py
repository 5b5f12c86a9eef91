"""The rollout referee of `regretctl certify`: the exact worst-case regret
gain of a causal linear controller, from its batched impulse rollout and a
dense eigen step, all O(T^3) and meant for desk-scale checks, so
`check_size` refuses T * max(n, m, p) > 2000.

All operators live in R-normalized control coordinates (R_t = I), so the
cost is exactly ||Fu + Gw||^2 + ||u||^2, with F (controls -> weighted
states) and G (disturbances -> weighted states) the plant's causal
operators. For unstable plants the entries of F and G grow like the
state-transition products, so `regret_certificate` forms neither. Its
closed-loop term is X'X, with X the weighted plant states of the
controller's batched impulse rollout (`sim_bench.rollout`): X = FK + G in
exact arithmetic, but the closed-loop states stay bounded where F K and G
only cancel. Its offline term G'(I + FF')^{-1}G is W'W, W = L^{-1}G
(LL' = I + FF'), whose blocks pass only through the forward Kalman
recursion's stable observer matrices Atil.

Every controller of regretctl steps the plant with `evaluate_cost`'s
arithmetic, so `sim_bench.rollout`'s states are the loop it closed, bit for
bit, and `regret_certificate` weighs the loop `simulate` scores. It holds
each tape-sized operator only while it needs it and computes only the
eigenpair it reports. `regretctl.operator_oracle.regret_gain`, which
`certify` runs, is held to it; the dense referee of dense_oracle.py shares
its `_strictly_causal`, its forward-Kalman W, its impulse probe and
its eigen step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from helpers import to_normalized_u
from regretctl import riccati
from regretctl.sim_bench import rollout
from regretctl.system_model import (
    LqSystem,
    NormalizedSystem,
    as_validated,
    normalize_control_weight,
    pd_inv_sqrt,
)

SIZE_CAP = 2000
CAUSALITY_TOL = 1e-9  # the largest block magnitude a probe allows above the diagonal
_STRIP = 16  # state-tape steps (`_weighed`) or rows (`_symmetrize`) per temporary
# sigma - gain of the witness's inverse iteration, relative to ||E||: above
# the N eps ||E|| rounding of eigvalsh and of the LU for every N <= SIZE_CAP,
# so E - sigma I is nonsingular, and far below the smallest top-eigenvalue
# gap of the test configs (6.9e-9 relative, smoke_long.json)
_SHIFT = 2.0**-40
_SOLVES = 3


class SizeCapError(ValueError):
    """The referees refuse instances with T * max(n, m, p) > 2000."""


class CausalityViolationError(ValueError):
    """A probed controller produced a non-causal operator."""


def check_size(sys: LqSystem):
    """Raise SizeCapError if the tape-sized operators of `sys` would exceed the cap."""
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


def _offline_factor(sys: LqSystem):
    """(sqQ, W) of a validated, R-normalized system: the Q_t^{1/2} of its
    block rows (Q_T^{1/2} last when there is a terminal cost) and
    W = L^{-1}G, whose block (i, j) is R_e_i^{-1/2} Q_i^{1/2}
    Atil_{i-1}...Atil_{j+1} B_w_j from the forward Kalman tape (the
    innovations form of G)."""
    # R_t = I, so both control rescaling maps are the identity
    fwd = riccati.forward_kalman(NormalizedSystem(sys, sys.R))
    n_rows = _block_rows(sys)
    sqQ = fwd.sqQ[:n_rows]
    return sqQ, _strictly_causal(fwd.Atil, sys.B_w, pd_inv_sqrt(fwd.R_e[:n_rows]) @ sqQ)


def _impulses(sys: LqSystem) -> np.ndarray:
    """The T*p unit-impulse disturbances (T*p, T, p); item j*p + c is
    w[j, c] = 1."""
    return np.eye(sys.T * sys.p).reshape(sys.T * sys.p, sys.T, sys.p)


def _causal_operator(sys: LqSystem, u, tol: float) -> np.ndarray:
    """The (Tm) x (Tp) operator of the controls u (T*p, T, m) of the impulse
    rollout on the validated system sys, in R-normalized coordinates
    (u_t' = R_t^{1/2} u_t); raises CausalityViolationError naming the first
    block (i, j), j > i, in row-major order whose largest magnitude exceeds
    tol."""
    T, m = u.shape[1:]
    p = u.shape[0] // T
    K = np.ascontiguousarray(to_normalized_u(sys, u).reshape(T * p, T * m).T)
    blocks = K.reshape(T, m, T, p)  # max |K| per block, with no |K| temporary
    blocks = np.maximum(blocks.max(axis=(1, 3)), -blocks.min(axis=(1, 3)))
    upper = np.triu(blocks > tol, k=1)
    if upper.any():
        i, j = np.argwhere(upper)[0]
        raise CausalityViolationError(
            f"controller block ({i}, {j}) has magnitude {blocks[i, j]:g} > {tol:g}"
        )
    return K


@dataclass(frozen=True)
class RegretGainCertificate:
    """Exact worst-case regret gain of a causal linear controller.

    regret_quadratic_form = X'X + K'K - W'W, where X = FK + G maps the
    disturbance to the weighted closed-loop states and
    W'W = G'(I + FF')^{-1}G is the offline-optimal cost; gain is its largest
    eigenvalue (from the eigenvalues alone) and witness a unit disturbance
    sequence that attains it, by inverse iteration. The witness's entry of
    largest magnitude (the first, among equals) is positive.
    """

    K: np.ndarray
    regret_quadratic_form: np.ndarray
    gain: float
    witness: np.ndarray


def _start_vector(N: int) -> np.ndarray:
    """The inverse iteration's start: 0.5 + frac(k g) for k = 1..N, with
    g = (sqrt 5 - 1) / 2. Its entries are distinct and lie in [0.5, 1.5), so
    it is orthogonal to no coordinate vector and to no difference of two."""
    return np.arange(1, N + 1) * ((np.sqrt(5.0) - 1.0) / 2.0) % 1.0 + 0.5


def _top_eigenvector(E, vals) -> np.ndarray:
    """The unit eigenvector of the symmetric E for its largest eigenvalue
    vals[-1], by `_SOLVES` solves with E - sigma I, sigma = vals[-1] +
    _SHIFT * ||E|| (||E|| from the whole spectrum vals; 1 when E = 0). E's
    diagonal is shifted in place and restored from a saved copy, so E keeps
    its bits; the solves copy it, one matrix at a time. The result has its
    entry of largest magnitude positive."""
    N = len(E)
    norm = max(-vals[0], vals[-1])
    sigma = vals[-1] + (_SHIFT * norm if norm > 0.0 else 1.0)
    diagonal = E.diagonal().copy()
    E.flat[:: N + 1] = diagonal - sigma
    try:
        y = _start_vector(N)
        for _ in range(_SOLVES):
            y = np.linalg.solve(E, y)
            y /= np.linalg.norm(y)
    finally:
        E.flat[:: N + 1] = diagonal
    if y[np.argmax(np.abs(y))] < 0.0:
        y = -y
    return y


def _symmetrize(E):
    """E <- (E + E') / 2 in place, with the bits of that sum, `_STRIP`
    rows (and the same columns) at a time: each strip reads only entries no
    earlier strip wrote, and its temporaries are strip-sized."""
    N = len(E)
    for r0 in range(0, N, _STRIP):
        rows = slice(r0, min(r0 + _STRIP, N))
        strip = E[rows, r0:] + E[r0:, rows].T
        strip /= 2.0
        E[rows, r0:] = strip
        E[r0:, rows] = strip.T


def _certificate(K, E) -> RegretGainCertificate:
    """The certificate of K from its regret quadratic form E, which it
    symmetrizes in place (`_symmetrize`; the bits of (E + E') / 2).

    gain is the largest eigenvalue from `np.linalg.eigvalsh`, which forms no
    eigenvectors and takes O(Tp) workspace; the witness is its eigenvector by
    shifted inverse iteration (`_top_eigenvector`). So the eigen step holds
    no (Tp)^2 array beyond E and LAPACK's copy of it. A gain within 1e-9
    below zero is reported as 0.
    """
    _symmetrize(E)
    vals = np.linalg.eigvalsh(E)
    witness = _top_eigenvector(E, vals)
    gain = float(vals[-1])
    if -1e-9 < gain < 0.0:
        gain = 0.0
    return RegretGainCertificate(K=K, regret_quadratic_form=E, gain=gain, witness=witness)


def _weighed(sqQ, x) -> np.ndarray:
    """The weighted states X (items, len(sqQ) * n) of a state tape x
    (items, T+1, n), row j = [Q_t^{1/2} x_t; Q_T^{1/2} x_T] of item j, written
    over x's own buffer and returned as a view of it. The tape is weighed
    `_STRIP` steps at a time, each block with the broadcast
    sqQ @ x[..., None] of the whole tape, so every state gets the same bits."""
    rows = len(sqQ)
    for t0 in range(0, rows, _STRIP):
        steps = slice(t0, min(t0 + _STRIP, rows))
        x[:, steps] = (sqQ[steps] @ x[:, steps, :, None])[..., 0]
    return x[:, :rows].reshape(len(x), -1)


def regret_certificate(sys: LqSystem, controller) -> RegretGainCertificate:
    """The certificate of a causal linear controller, from its batched
    impulse rollout (`sim_bench.rollout`) and with no dense F or G.

    The rollout drives all T*p unit impulses at once, under its finiteness
    check. Its controls give K (`_causal_operator`, which refuses a block
    above the diagonal beyond CAUSALITY_TOL). Its states give
    X = [Q_t^{1/2} x_t; Q_T^{1/2} x_T] per impulse, so the regret form is
    E = X'X + K'K - W'W. X is the plant driven by the controls themselves,
    before the R^{1/2} scaling that gives K, so it can differ from FK + G by
    F times K's last bits.

    Each tape-sized operator is held only while it is needed: W'W is formed
    as soon as W is built (before the rollout, so an overflowing forward
    Kalman recursion still fails first), the disturbances and costs of the
    rollout go at once, the controls once K is formed, X is weighed over the
    rollout's state tape, and E is accumulated in place, with the bits of
    X'X + K'K - W'W.
    """
    sys = as_validated(sys)
    check_size(sys)
    norm = normalize_control_weight(sys)
    sqQ, W = _offline_factor(norm.system)
    WtW = W.T @ W
    del W
    traj = rollout(sys, controller, _impulses(sys))
    x, u = traj.x, traj.u
    del traj
    K = _causal_operator(sys, u, CAUSALITY_TOL)
    del u
    X = _weighed(sqQ, x)  # row j: impulse j's X column
    del x
    E = X @ X.T
    del X
    E += K.T @ K
    E -= WtW
    del WtW
    return _certificate(K, E)
