"""The dense referee of the state-space code: block operators, closed forms
and brute-force gains, all O(T^3) and meant for desk-scale checks.

It builds the causal operators F (controls -> weighted states) and
G (disturbances -> weighted states) with W = L^{-1}G, the offline-optimal
controller in closed form, the H2 controller as a causal Wiener solution,
the operator of a controller probed with unit impulses, and exact worst-case
regret and cost gains. It shares its strictly-causal builder, its
forward-Kalman W, its impulse probe, its size cap and its eigen step with
the rollout referee of rollout_oracle.py, whose `regret_certificate` it
referees.

Both matrix referees are kept. This one is the only one that takes a bare
operator K rather than a controller to roll out: criterion 5 certifies
probed operators with it, and the offline optimum's non-causal operator and
`h2_operator_form`'s operator have no controller behind them. The rollout
referee is the only one that stays bounded on unstable long horizons (on
tests/data/smoke_long.json, T = 300, the dense F K + G reads 1.7e143).

All operators live in R-normalized control coordinates (R_t = I), so the cost
is exactly ||Fu + Gw||^2 + ||u||^2. For unstable plants the entries of F and
G grow like the state-transition products, so the dense forms hold only on
stable plants and short horizons; their accuracy degrades like machine
epsilon times ||F|| ||K|| and ||F||^2. The dense referee certifies K as an
open-loop operator and drifts from the rollout certificate like machine
epsilon times ||F|| ||K||.

`structure_check` is criterion 6's referee of the regret synthesis: its
control-only value recursion and the decomposition of its gains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from helpers import doubled_system, reference_causal_factor
from regretctl import kernels, riccati
from regretctl.controllers import RegretSynthesis
from regretctl.sim_bench import controls
from regretctl.system_model import LqSystem, as_validated
from rollout_oracle import (
    CAUSALITY_TOL,
    RegretGainCertificate,
    _causal_operator,
    _certificate,
    _impulses,
    _offline_factor,
    _strictly_causal,
    check_size,
)


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


def causal_part(M, row_block: int, col_block: int) -> np.ndarray:
    """Zero out the strictly upper block triangle (blocks (i, j) with j > i)."""
    M = np.asarray(M, dtype=float)
    out = M.copy()
    rows = np.arange(M.shape[0] // row_block * row_block) // row_block
    cols = np.arange(M.shape[1] // col_block * col_block) // col_block
    out[: rows.size, : cols.size][cols[None, :] > rows[:, None]] = 0.0
    return out


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
    return _causal_operator(sys, u, tol)


def worst_case_regret_gain(ops: OperatorPair, K) -> RegretGainCertificate:
    """Largest eigenvalue (and witness) of the regret quadratic form of K,
    (FK + G)'(FK + G) + K'K - W'W, from the dense operators: the referee of
    `regret_certificate`."""
    K = np.asarray(K, dtype=float)
    F, G, W = ops.F, ops.G, ops.W
    closed = F @ K + G
    return _certificate(K, closed.T @ closed + K.T @ K - W.T @ W)


def referee_gap_bound(ops: OperatorPair, K, gain: float) -> float:
    """How far the rollout certificate's gain of the controller operator K
    may sit from the dense referee's `gain`: 1e-12 relative (1e-15 absolute
    below 1e-3), plus eps ||F|| ||K||. The rollout's states X follow the
    controls before the R^{1/2} scaling that gives K, and F carries K's last
    bits into FK + G, so the two regret forms differ in their last bits and
    their top eigenvalues in a few ulps of the form."""
    amplified = np.finfo(float).eps * np.linalg.norm(ops.F, 2) * np.linalg.norm(K, 2)
    return 1e-12 * max(abs(gain), 1e-3) + amplified


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
    delta = reference_causal_factor(target, block=m).M
    inner = np.linalg.solve(delta.T, F.T @ G)
    K = -np.linalg.solve(delta, causal_part(inner, m, p))
    return K


class StructuralMismatchError(AssertionError):
    """The synthesized regret controller violates a structural identity."""


@dataclass
class StructureReport:
    """Structural identities of the regret synthesis: the top-left block of
    the control-only value recursion follows the plain LQR recursion, and the
    active control law decomposes as the H2 action on x plus terms in
    (delta, w) only."""

    max_p11_deviation: float
    max_decomposition_residual: float


def structural_value_tape(synthesis: RegretSynthesis) -> np.ndarray:
    """The control-only backward value recursion of the doubled system at
    the synthesis' level, rebuilt by `helpers.doubled_system`
    (P = Qhat + A'PA - A'PB_u H^{-1} B_u'PA); its top-left n x n block
    reproduces the plain LQR value matrices exactly."""
    s = synthesis
    d = doubled_system(s.norm, s.fwd, s.gamma)
    Phat, _, _ = kernels.regret_phat_backward(d.Ahat, d.Bhat_u, d.Bhat_w, d.Qhat, d.Phat_T, s.gamma, True)
    return Phat


def structure_check(synthesis: RegretSynthesis, tol: float = 1e-8) -> StructureReport:
    """Verify the H2-block identity P_11 == LQR P on the control-only value
    tape, and the control-action decomposition of the active gains; raises
    StructuralMismatchError beyond tol. The gains on xi = (x, delta) and w
    must be K_xi = -Hhat^{-1} B_u' [P_11 A, P_12 Atil] and
    K_w = -Hhat^{-1} B_u' (P_11 + P_12) B_w at every step, with P_ij the
    blocks of Phat_{t+1}: the H2 action on x, then the observer's part."""
    nsys = synthesis.norm.system
    n = nsys.n
    lqr = riccati.backward_lqr(nsys)
    Pstruct = structural_value_tape(synthesis)
    dev = float(np.abs(Pstruct[:, :n, :n] - lqr.P).max())

    P11, P12 = synthesis.Phat[1:, :n, :n], synthesis.Phat[1:, :n, n:]
    X = np.concatenate((P11 @ nsys.A, P12 @ synthesis.fwd.Atil, (P11 + P12) @ nsys.B_w), axis=2)
    expected = -np.linalg.solve(synthesis.Hhat, np.swapaxes(nsys.B_u, 1, 2) @ X)
    full = np.concatenate((synthesis.K_xi, synthesis.K_w), axis=2)
    resid = float(np.abs(full - expected).max())
    report = StructureReport(max_p11_deviation=dev, max_decomposition_residual=resid)
    if dev > tol:
        raise StructuralMismatchError(f"P_11 deviates from the LQR recursion by {dev:g} > {tol:g}")
    if resid > tol:
        raise StructuralMismatchError(f"control decomposition residual {resid:g} > {tol:g}")
    return report
