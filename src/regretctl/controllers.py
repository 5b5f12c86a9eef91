"""Controller syntheses: H2, suboptimal/optimal H-infinity, offline
noncausal, and the regret-suboptimal/regret-optimal controller obtained by
reduction to H-infinity synthesis through two Kalman spectral factorizations.

Every controller has one interface, `control_sequence(w)`: it takes one
disturbance (T, p) or a batch (..., T, p) and returns the controls
(..., T, m) of a rollout from x_0 = 0, each item bit-identical to its own
call. Causality is not declared but measured:
`operator_oracle.controller_operator` probes a controller with unit impulses
and refuses an operator that is not block lower triangular.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels, riccati
from .kernels import _mv
from .system_model import (
    LqSystem,
    NormalizedSystem,
    as_signal,
    as_validated,
    normalize_control_weight,
    pd_inv_sqrt,
    psd_sqrt,
)


class InfeasibleError(ValueError):
    """No controller exists at the requested performance level."""

    def __init__(self, gamma, step=None):
        self.gamma = gamma
        self.step = step
        where = "" if step is None else f" (first failing step t={step})"
        super().__init__(f"synthesis infeasible at gamma={gamma:g}{where}")


class StructuralMismatchError(AssertionError):
    """The synthesized regret controller violates a structural identity."""


class ZeroController:
    def __init__(self, sys: LqSystem):
        self._sys = sys

    def control_sequence(self, w):
        w = as_signal(w, self._sys.T, self._sys.p)
        return np.zeros(w.shape[:-2] + (self._sys.T, self._sys.m))


class FeedbackController:
    """u_t = K_x_t x_t + K_w_t w_t (the H2 and H-infinity central forms)."""

    def __init__(self, sys: LqSystem, K_x, K_w):
        self._sys = sys
        self.K_x = np.asarray(K_x, dtype=float)
        self.K_w = np.asarray(K_w, dtype=float)

    def control_sequence(self, w):
        w = as_signal(w, self._sys.T, self._sys.p)
        _, u = kernels.rollout_feedback(
            self._sys.A, self._sys.B_u, self._sys.B_w, self.K_x, self.K_w, w
        )
        return u


def _feedback_gains(sys: LqSystem, tape_P, tape_H):
    """K_x = -H_t^{-1} B_u' P_{t+1} A_t and K_w = -H_t^{-1} B_u' P_{t+1} B_w_t,
    stacked over t; each step gets the same bits as its own products."""
    BtP = np.swapaxes(sys.B_u, 1, 2) @ tape_P[1:]
    return -np.linalg.solve(tape_H, BtP @ sys.A), -np.linalg.solve(tape_H, BtP @ sys.B_w)


def _feedback_controller(sys: LqSystem, tape) -> FeedbackController:
    """The feedback controller of an LQR or H-infinity tape, carrying it."""
    K_x, K_w = _feedback_gains(sys, tape.P, tape.H)
    ctrl = FeedbackController(sys, K_x, K_w)
    ctrl.tape = tape
    return ctrl


def synthesize_h2(sys: LqSystem) -> FeedbackController:
    """H2-optimal controller: u_t = -H_t^{-1} B_u' P_{t+1}(A_t x_t + B_w_t w_t)
    with P from the backward LQR recursion."""
    sys = as_validated(sys)
    return _feedback_controller(sys, riccati.backward_lqr(sys))


def synthesize_hinf(sys: LqSystem, gamma: float) -> FeedbackController:
    """Suboptimal H-infinity controller at level gamma; raises
    InfeasibleError when the level is unattainable."""
    sys = as_validated(sys)
    tape = riccati.backward_hinf(sys, gamma)
    if not tape.feasible:
        raise InfeasibleError(gamma, tape.first_infeasible_step)
    return _feedback_controller(sys, tape)


@dataclass
class GammaSearchResult:
    """Outcome of a bisection on the performance level."""

    gamma_opt: float
    bracket_history: list
    iterations: int
    final_margins: np.ndarray
    tol: float


def _check_tol(tol):
    if not 0.0 < tol < 1.0:  # written so that NaN fails too
        raise ValueError(f"tol must lie strictly between 0 and 1, got {tol}")


# level doublings from gamma = 1 before a system counts as degenerate
_MAX_DOUBLINGS = 60


def _bisect_gamma(probe, tol):
    """Bisection on gamma: `probe(gamma)` returns a tape or synthesis with
    `.feasible`, monotone in gamma, and `.gamma`. Returns
    (GammaSearchResult, best) with best the last feasible probe. `hi` only
    ever takes a level that was feasible, so best.gamma is hi, which is
    gamma_opt. No infeasible probe outlives its verdict."""
    best = None

    def feasible(g):
        nonlocal best
        result = probe(g)
        ok = result.feasible
        if ok:
            best = result
        return ok

    history = []
    hi = 1.0
    iters = 0
    if feasible(hi):
        lo = None
        g = hi
        while g > 1e-8:
            g /= 2.0
            iters += 1
            if not feasible(g):
                lo = g
                break
            hi = g
        # lo is None when feasible down to ~0: degenerate, essentially zero level
    else:
        lo = hi
        g = hi
        for _ in range(_MAX_DOUBLINGS):
            g *= 2.0
            iters += 1
            if feasible(g):
                hi = g
                break
            lo = g
        else:
            raise ArithmeticError(
                f"no feasible level found after {_MAX_DOUBLINGS} doublings "
                "(degenerate system)"
            )
    while lo is not None and (hi - lo) > tol * hi:
        mid = 0.5 * (hi + lo)
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats: a smaller tol cannot be met
        iters += 1
        if feasible(mid):
            hi = mid
        else:
            lo = mid
        history.append((lo, hi))
    result = GammaSearchResult(
        gamma_opt=hi,
        bracket_history=history,
        iterations=iters,
        final_margins=best.margins,
        tol=tol,
    )
    return result, best


def hinf_optimal(sys: LqSystem, tol: float = 1e-6):
    """Bisection on gamma for the H-infinity-optimal controller.
    Returns (GammaSearchResult, FeedbackController)."""
    _check_tol(tol)
    sys = as_validated(sys)
    result, tape = _bisect_gamma(lambda g: riccati.backward_hinf(sys, g), tol)
    return result, _feedback_controller(sys, tape)


def _solve(H, b):
    """H^{-1} b for a vector b or each vector of a stack b: (..., m), solved
    one right-hand side at a time like np.linalg.solve(H, b) on one vector."""
    return np.linalg.solve(H, b[..., None])[..., 0]


class OfflineController:
    """Optimal noncausal (clairvoyant) controller in state-space form:
    u_t = -H_t^{-1} B_u'(P_{t+1} A_t x_t + P_{t+1} B_w_t w_t + v_{t+1}/2)
    where v runs backward over the full disturbance."""

    def __init__(self, sys: LqSystem):
        self._sys = as_validated(sys)
        self._tape = riccati.backward_lqr(self._sys)

    def plan(self, w):
        """Controls (..., T, m) for a disturbance (T, p) or a batch (..., T, p)."""
        sys, tape = self._sys, self._tape
        T, n = sys.T, sys.n
        w = as_signal(w, T, sys.p)
        batch = w.shape[:-2]
        P, H = tape.P, tape.H
        v = np.zeros(batch + (T + 1, n))
        for t in range(T - 1, -1, -1):
            PB = P[t + 1] @ sys.B_u[t]
            S = P[t + 1] - PB @ np.linalg.solve(H[t], sys.B_u[t].T @ P[t + 1])
            # A' S P^{-1} v == A'(I - P B_u H^{-1} B_u') v, avoiding singular P
            vn = v[..., t + 1, :]
            carry = _mv(sys.A[t].T, vn - _mv(PB, _solve(H[t], _mv(sys.B_u[t].T, vn))))
            v[..., t, :] = _mv(2.0 * sys.A[t].T @ S @ sys.B_w[t], w[..., t, :]) + carry
        x = np.zeros(batch + (n,))
        u = np.zeros(batch + (T, sys.m))
        for t in range(T):
            wt = w[..., t, :]
            rhs = _mv(P[t + 1], _mv(sys.A[t], x) + _mv(sys.B_w[t], wt)) + 0.5 * v[..., t + 1, :]
            u[..., t, :] = -_solve(H[t], _mv(sys.B_u[t].T, rhs))
            x = _mv(sys.A[t], x) + _mv(sys.B_u[t], u[..., t, :]) + _mv(sys.B_w[t], wt)
        return u

    def control_sequence(self, w):
        return self.plan(w)


def offline_noncausal(sys: LqSystem, w):
    """Optimal control sequence for a fully known disturbance (T, p), or for
    each of a batch (..., T, p) with one LQR tape."""
    return OfflineController(sys).plan(w)


@dataclass(frozen=True)
class RegretProblem:
    """The gamma-independent part of a regret synthesis, built once by
    `prepare_regret` and shared by every level a bisection probes: the
    R-normalization of the validated system, the forward Kalman tape (which
    carries the stacked Q^{1/2} and W = Q^{1/2} R_e^{-1} Q^{1/2}), and the
    blocks Bhat_u, Qhat and Phat_T of the doubled system."""

    norm: NormalizedSystem
    fwd: riccati.ForwardKalmanTape
    Bhat_u: np.ndarray
    Qhat: np.ndarray
    Phat_T: np.ndarray


def prepare_regret(sys: LqSystem) -> RegretProblem:
    """Validate and R-normalize `sys`, run the forward Kalman recursion and
    assemble the gamma-independent blocks of the doubled system."""
    norm = normalize_control_weight(as_validated(sys))
    nsys = norm.system
    T, n = nsys.T, nsys.n
    Bhat_u = np.concatenate((nsys.B_u, np.zeros_like(nsys.B_u)), axis=1)
    Qhat = np.zeros((T, 2 * n, 2 * n))
    Qhat[:, :n, :n] = nsys.Q
    Phat_T = np.zeros((2 * n, 2 * n))
    Phat_T[:n, :n] = nsys.Q_T
    return RegretProblem(
        norm=norm, fwd=riccati.forward_kalman(norm), Bhat_u=Bhat_u, Qhat=Qhat, Phat_T=Phat_T
    )


@dataclass
class RegretSynthesis(riccati.Verdict):
    """Frozen output of the regret-suboptimal synthesis at level gamma.

    Carries the augmented 2n-dimensional system (Ahat, Bhat_u, Bhat_w, Qhat),
    its backward value tape Phat with Hhat = I + Bhat_u' Phat Bhat_u, the
    embedded forward/backward Kalman tapes, and the per-step feasibility
    margins of the associated H-infinity test. The step gains M_state and M_z
    are computed on first access, so a feasibility probe never builds them.
    """

    gamma: float
    norm: NormalizedSystem
    fwd: riccati.ForwardKalmanTape
    bwd: riccati.BackwardKalmanTape
    Ahat: np.ndarray
    Bhat_u: np.ndarray
    Bhat_w: np.ndarray
    Qhat: np.ndarray
    Phat: np.ndarray
    Hhat: np.ndarray
    margins: np.ndarray

    @cached_property
    def M_state(self):
        """(T, m, 2n): gain on [zeta; nu]."""
        return self._gain(self.Ahat)

    @cached_property
    def M_z(self):
        """(T, m, p): gain on z_t."""
        return self._gain(self.Bhat_w)

    def _gain(self, X):
        """-Hhat_t^{-1} Bhat_u_t' Phat_{t+1} X_t per step; zero unless every
        margin is negative, since gains only exist on a feasible tape."""
        if not self.feasible:
            return np.zeros(self.Hhat.shape[:2] + X.shape[2:])
        BtP = np.swapaxes(self.Bhat_u, 1, 2) @ self.Phat[1:]
        return -np.linalg.solve(self.Hhat, BtP @ X)


class RegretController:
    """Regret-suboptimal controller at a fixed performance level.

    Its one realization, `kernels.rollout_regret`, runs the Delta-driver
    state delta_t producing z_t = R_be^{1/2} K_bl' delta_t + R_be^{1/2} w_t
    next to the plant state x_t that the rollout itself simulates; the
    control depends causally on w_0..w_t only.

    The augmented state [zeta_t; nu_t] of the synthesis equals [x_t; delta_t]
    in exact arithmetic, so the realization feeds that plant state back
    instead of simulating zeta through a possibly unstable A (rounding
    differences would grow exponentially there); delta only sees the stable
    closed-loop observer matrix Atil.
    """

    def __init__(self, synthesis: RegretSynthesis):
        self.synthesis = synthesis

    def control_sequence(self, w):
        s = self.synthesis
        nsys = s.norm.system
        w = as_signal(w, nsys.T, nsys.p)
        M_x, M_d = s.M_state[:, :, :nsys.n], s.M_state[:, :, nsys.n:]
        u_norm, _ = kernels.rollout_regret(
            nsys.A, nsys.B_u, s.fwd.Atil, nsys.B_w, s.bwd.K_bl, s.bwd.R_be_sqrt, M_x, M_d, s.M_z, w
        )
        return s.norm.to_original_u(u_norm)


def _windows(T):
    """The windows [t0, t1) of a backward sweep from t = T: 1, 2, 4, ...
    steps, the last one clipped at t = 0."""
    t1, k = T, 1
    while t1 > 0:
        t0 = max(t1 - k, 0)
        yield t0, t1
        t1, k = t0, 2 * k


def synthesize_regret(sys: LqSystem | RegretProblem, gamma: float) -> RegretSynthesis:
    """Regret-suboptimal synthesis at level gamma.

    `sys` is a system or a problem already prepared by `prepare_regret`; a
    system is prepared first. Its feasibility test is the reduction's: the
    attenuation-level-1 recursion on the z-driven doubled system.

    The sweep runs backward from t = T in windows of 1, 2, 4, ... steps. In
    each it runs the backward Kalman recursion from the carried P_b, takes
    the R_be roots, assembles Ahat and Bhat_w, and runs the value recursion
    from the carried Phat. It stops after the first window with a margin
    >= 0 and flags every earlier step with max(margin, 1), so the tapes of
    an infeasible level hold only the swept steps. At a feasible level every
    window runs and the tapes equal one sweep over the whole horizon.
    """
    riccati._check_level(gamma)
    gamma = float(gamma)
    problem = sys if isinstance(sys, RegretProblem) else prepare_regret(sys)
    norm, fwd = problem.norm, problem.fwd
    nsys = norm.system
    T, n, m, p = nsys.T, nsys.n, nsys.m, nsys.p

    P_b = np.zeros((T, n, n))
    K_bl = np.zeros((T, n, p))
    R_be = np.zeros((T, p, p))
    R_be_sqrt = np.zeros((T, p, p))
    R_be_inv_sqrt = np.zeros((T, p, p))
    Ahat = np.zeros((T, 2 * n, 2 * n))
    Bhat_w = np.zeros((T, 2 * n, p))
    Phat = np.zeros((T + 1, 2 * n, 2 * n))
    Hhat = np.zeros((T, m, m))
    margins = np.zeros(T)
    P_b_carry = fwd.W[T]
    Phat[T] = problem.Phat_T
    for t0, t1 in _windows(T):
        win = slice(t0, t1)
        try:
            P_b[win], K_bl[win], R_be[win], P_b_carry = kernels.backward_kalman(
                fwd.Atil[win], nsys.B_w[win], fwd.W[win], gamma, P_b_carry
            )
            R_be_sqrt[win] = psd_sqrt(R_be[win])
            R_be_inv_sqrt[win] = pd_inv_sqrt(R_be[win])
            BwK = nsys.B_w[win] @ np.swapaxes(K_bl[win], 1, 2)
            Bw_scaled = nsys.B_w[win] @ R_be_inv_sqrt[win]
            Ahat[win, :n, :n] = nsys.A[win]
            Ahat[win, :n, n:] = -BwK
            Ahat[win, n:, n:] = fwd.Atil[win] - BwK
            Bhat_w[win] = np.concatenate((Bw_scaled, Bw_scaled), axis=1)
            Phat[t0:t1 + 1], Hhat[win], margins[win] = kernels.regret_phat_backward(
                Ahat[win], problem.Bhat_u[win], Bhat_w[win], problem.Qhat[win], Phat[t1],
                1.0, False,
            )
        except np.linalg.LinAlgError:
            # a recursion blew up before a margin turned positive (a singular
            # pivot, or an overflow that became an invalid value): the level
            # is numerically unattainable
            Phat[:] = 0.0
            Hhat[:] = 0.0
            margins[:] = 1.0
            break
        failed = riccati._first_failing_step(margins[win])
        if failed is not None:
            margins[:t0] = max(margins[t0 + failed], 1.0)
            break
    bwd = riccati.BackwardKalmanTape(
        P_b=P_b,
        K_bl=K_bl,
        R_be=R_be,
        R_be_sqrt=R_be_sqrt,
        R_be_inv_sqrt=R_be_inv_sqrt,
        gamma=gamma,
    )
    return RegretSynthesis(
        gamma=gamma,
        norm=norm,
        fwd=fwd,
        bwd=bwd,
        Ahat=Ahat,
        Bhat_u=problem.Bhat_u,
        Bhat_w=Bhat_w,
        Qhat=problem.Qhat,
        Phat=Phat,
        Hhat=Hhat,
        margins=margins,
    )


def regret_controller(sys: LqSystem, gamma: float):
    """Synthesize at level gamma and wrap it as a controller; raises
    InfeasibleError when the level is unattainable."""
    synthesis = synthesize_regret(sys, gamma)
    if not synthesis.feasible:
        raise InfeasibleError(gamma, synthesis.first_infeasible_step)
    return RegretController(synthesis)


def _is_regret_degenerate(sys: LqSystem):
    """True when the disturbance cannot produce cost (G = 0): either no state
    weighting anywhere or no disturbance input."""
    no_weight = not (np.any(sys.Q != 0.0) or np.any(sys.Q_T != 0.0))
    no_disturbance = not np.any(sys.B_w != 0.0)
    return no_weight or no_disturbance


def regret_optimal(sys: LqSystem, tol: float = 1e-6):
    """Bisection on gamma for the regret-optimal controller.
    Returns (GammaSearchResult, controller). The gamma-independent work is
    prepared once; each probe reruns only the backward Kalman recursion, the
    assembly of the doubled system and its value recursion, and stops at
    the first window that fails. The controller is built from the last
    feasible probe, which is the one at gamma_opt."""
    _check_tol(tol)
    sys = as_validated(sys)
    if _is_regret_degenerate(sys):
        result = GammaSearchResult(
            gamma_opt=0.0,
            bracket_history=[],
            iterations=0,
            final_margins=np.full(sys.T, -np.inf),
            tol=tol,
        )
        return result, ZeroController(sys)
    problem = prepare_regret(sys)
    result, synthesis = _bisect_gamma(lambda g: synthesize_regret(problem, g), tol)
    return result, RegretController(synthesis)


@dataclass
class StructureReport:
    """Structural identities of the regret synthesis: the top-left block of
    the control-only value recursion follows the plain LQR recursion, and the
    active control law decomposes as the H2 action on zeta plus terms in
    (nu, z) only."""

    max_p11_deviation: float
    max_decomposition_residual: float


def structural_value_tape(synthesis: RegretSynthesis) -> np.ndarray:
    """The control-only backward value recursion of the augmented system
    (P = Qhat + A'PA - A'PB_u H^{-1} B_u'PA); its top-left n x n block
    reproduces the plain LQR value matrices exactly."""
    s = synthesis
    Phat, _, _ = kernels.regret_phat_backward(s.Ahat, s.Bhat_u, s.Bhat_w, s.Qhat, s.Phat[-1], s.gamma, True)
    return Phat


def structure_check(synthesis: RegretSynthesis, tol: float = 1e-8) -> StructureReport:
    """Verify the H2-block identity P_11 == LQR P on the control-only value
    tape, and the control-action decomposition of the active gains; raises
    StructuralMismatchError beyond tol. The gains [M_state, M_z] on
    [zeta; nu; z] must equal -Hhat^{-1} B_u' [P_11 A, P_12 (Atil - B_w K_bl')
    - P_11 B_w K_bl', (P_11 + P_12) B_w R_be^{-1/2}] at every step, with P_ij
    the blocks of Phat_{t+1}: the H2 action on zeta, then the (nu, z) part."""
    nsys = synthesis.norm.system
    n = nsys.n
    lqr = riccati.backward_lqr(nsys)
    Pstruct = structural_value_tape(synthesis)
    dev = float(np.abs(Pstruct[:, :n, :n] - lqr.P).max())

    P11, P12 = synthesis.Phat[1:, :n, :n], synthesis.Phat[1:, :n, n:]
    BwK = nsys.B_w @ np.swapaxes(synthesis.bwd.K_bl, 1, 2)
    Bz = nsys.B_w @ synthesis.bwd.R_be_inv_sqrt
    X = np.concatenate(
        (P11 @ nsys.A, P12 @ (synthesis.fwd.Atil - BwK) - P11 @ BwK, (P11 + P12) @ Bz), axis=2
    )
    expected = -np.linalg.solve(synthesis.Hhat, np.swapaxes(nsys.B_u, 1, 2) @ X)
    full = np.concatenate((synthesis.M_state, synthesis.M_z), axis=2)
    resid = float(np.abs(full - expected).max())
    report = StructureReport(max_p11_deviation=dev, max_decomposition_residual=resid)
    if dev > tol:
        raise StructuralMismatchError(f"P_11 deviates from the LQR recursion by {dev:g} > {tol:g}")
    if resid > tol:
        raise StructuralMismatchError(f"control decomposition residual {resid:g} > {tol:g}")
    return report
