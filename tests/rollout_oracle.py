"""The rollout referee of `regretctl certify`: the exact worst-case regret
gain of a causal linear controller, from its batched impulse rollout and
one `np.linalg.eigh`, all O(T^3) and meant for desk-scale checks, so
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
bit, and `regret_certificate` weighs the loop `simulate` scores.
`regretctl.operator_oracle.regret_gain`, which `certify` runs, is held to
it; the dense referee of dense_oracle.py shares its `_strictly_causal`, its
forward-Kalman W, its impulse probe and its eigen step.

Both matrix referees are kept. This one is the only one that stays bounded
on unstable long horizons: on tests/data/smoke_long.json (the pendulum at
T = 300) the dense F K + G reads 1.7e143, while the rollout's states are the
closed loop's own. The dense referee is the only one that takes a bare
operator K, which criterion 5, the offline optimum's non-causal operator
and `h2_operator_form` need.
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
    blocks = np.abs(K).reshape(T, m, T, p).max(axis=(1, 3))
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
    eigenvalue and witness a unit disturbance sequence that attains it, its
    eigenvector. The witness's entry of largest magnitude (the first, among
    equals) is positive.
    """

    K: np.ndarray
    regret_quadratic_form: np.ndarray
    gain: float
    witness: np.ndarray


def _certificate(K, E) -> RegretGainCertificate:
    """The certificate of K from its regret quadratic form E, symmetrized
    as (E + E') / 2: the top eigenpair from `np.linalg.eigh`, the witness
    scaled to unit length with its entry of largest magnitude positive. A
    gain within 1e-9 below zero is reported as 0."""
    E = (E + E.T) / 2.0
    vals, vecs = np.linalg.eigh(E)
    witness = vecs[:, -1] / np.linalg.norm(vecs[:, -1])
    if witness[np.argmax(np.abs(witness))] < 0.0:
        witness = -witness
    gain = float(vals[-1])
    if -1e-9 < gain < 0.0:
        gain = 0.0
    return RegretGainCertificate(K=K, regret_quadratic_form=E, gain=gain, witness=witness)


def regret_certificate(sys: LqSystem, controller) -> RegretGainCertificate:
    """The certificate of a causal linear controller, from its batched
    impulse rollout (`sim_bench.rollout`) and with no dense F or G.

    The rollout drives all T*p unit impulses at once, under its finiteness
    check. Its controls give K (`_causal_operator`, which refuses a block
    above the diagonal beyond CAUSALITY_TOL). Its states give
    X = [Q_t^{1/2} x_t; Q_T^{1/2} x_T] per impulse, so the regret form is
    E = X'X + K'K - W'W. X is the plant driven by the controls themselves,
    before the R^{1/2} scaling that gives K, so it can differ from FK + G by
    F times K's last bits. W is built before the rollout, so an overflowing
    forward Kalman recursion fails first.
    """
    sys = as_validated(sys)
    check_size(sys)
    sqQ, W = _offline_factor(normalize_control_weight(sys).system)
    traj = rollout(sys, controller, _impulses(sys))
    K = _causal_operator(sys, traj.u, CAUSALITY_TOL)
    x = traj.x[:, :len(sqQ)]
    X = (sqQ @ x[..., None]).reshape(len(x), -1)  # row j: impulse j's X column
    return _certificate(K, X @ X.T + K.T @ K - W.T @ W)
