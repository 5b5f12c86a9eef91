"""Controller syntheses: H2, suboptimal/optimal H-infinity, offline
noncausal, and the regret-suboptimal/regret-optimal controller obtained by
reduction to H-infinity synthesis through two Kalman spectral factorizations.

The H2, H-infinity and regret controllers are state feedbacks whose gains
come from one formula, -H_t^{-1} B_u_t' P_{t+1} X_t (`_gain`) on their own
value tape: X = A and B_w for the first two, and for the regret controller,
on the plant state and its observer state, X = blkdiag(A, Atil) and
[B_w; B_w].

Every controller has one interface, `control_sequence(w)`: it takes one
disturbance (T, p) or a batch (..., T, p) and returns the controls
(..., T, m) of a rollout from x_0 = 0, each item bit-identical to its own
call. Every controller here steps the plant with `evaluate_cost`'s
arithmetic, so the trajectory `evaluate_cost` rebuilds from its controls is
the loop it closed, bit for bit: what `sim_bench.rollout` scores. Each
realization reads only w_0..w_t at step t; the tests measure that causality
by probing a controller with unit impulses, and `operator_oracle` analyzes
the regret controller's closed loop as a state-space system.
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
)


class InfeasibleError(ValueError):
    """No controller exists at the requested performance level."""

    def __init__(self, gamma, step=None):
        self.gamma = gamma
        self.step = step
        where = "" if step is None else f" (first failing step t={step})"
        super().__init__(f"synthesis infeasible at gamma={gamma:g}{where}")


class ZeroController:
    def __init__(self, sys: LqSystem):
        self._sys = sys

    def control_sequence(self, w):
        w = as_signal(w, self._sys.T, self._sys.p)
        return np.zeros(w.shape[:-2] + (self._sys.T, self._sys.m))


def _gain(B_u, P, H, X):
    """-H_t^{-1} B_u_t' P_{t+1} X_t, stacked over t; each step gets the same
    bits as its own products."""
    return -np.linalg.solve(H, (np.swapaxes(B_u, 1, 2) @ P[1:]) @ X)


class FeedbackController:
    """u_t = K_x_t x_t + K_w_t w_t (the H2 and H-infinity central forms),
    carrying the LQR or H-infinity tape its gains K_x = -H^{-1} B_u' P A and
    K_w = -H^{-1} B_u' P B_w come from."""

    def __init__(self, sys: LqSystem, tape):
        self._sys = sys
        self.tape = tape
        self.K_x = _gain(sys.B_u, tape.P, tape.H, sys.A)
        self.K_w = _gain(sys.B_u, tape.P, tape.H, sys.B_w)

    def control_sequence(self, w):
        w = as_signal(w, self._sys.T, self._sys.p)
        _, u = kernels.rollout_feedback(
            self._sys.A, self._sys.B_u, self._sys.B_w, self.K_x, self.K_w, w
        )
        return u


def synthesize_h2(sys: LqSystem) -> FeedbackController:
    """H2-optimal controller: u_t = -H_t^{-1} B_u' P_{t+1}(A_t x_t + B_w_t w_t)
    with P from the backward LQR recursion."""
    sys = as_validated(sys)
    return FeedbackController(sys, riccati.backward_lqr(sys))


def synthesize_hinf(sys: LqSystem, gamma: float) -> FeedbackController:
    """Suboptimal H-infinity controller at level gamma; raises
    InfeasibleError when the level is unattainable."""
    sys = as_validated(sys)
    tape = riccati.backward_hinf(sys, gamma)
    if not tape.feasible:
        raise InfeasibleError(gamma, tape.first_infeasible_step)
    return FeedbackController(sys, tape)


@dataclass
class GammaSearchResult:
    """Outcome of a bisection on the performance level."""

    gamma_opt: float
    bracket_history: list
    iterations: int
    final_margins: np.ndarray


def _check_tol(tol):
    if not 0.0 < tol < 1.0:  # written so that NaN fails too
        raise ValueError(f"tol must lie strictly between 0 and 1, got {tol}")


# level doublings from gamma = 1 before a system counts as degenerate
_MAX_DOUBLINGS = 60


def _bisect_gamma(start, tol):
    """Search on gamma. `start(gamma)` returns a probe that has run no
    window: a `riccati._Sweep`, or anything with its `sweep`, `failed`,
    `steps_left`, `forget` and `result`, whose result has `.margins` and
    `.gamma`. Returns (GammaSearchResult, best) with best the result at
    gamma_opt.

    One loop probes gamma = 1, then hi/2 while no level has failed, 2*lo
    while none has passed, else the midpoint of [lo, hi]. It stops at a
    feasible level at or below the 1e-8 floor (gamma_opt is then 0.0),
    after _MAX_DOUBLINGS doublings (ArithmeticError), once hi - lo <= tol*hi,
    or on adjacent floats (a smaller tol cannot be met). `hi` only ever
    takes a level that passed, and best is its result, swept to t = 0.
    `bracket_history` gets (lo, hi) after each probe inside the bracket.

    The search is lazy:
    - until a probe of this pass has failed, every probe sweeps to t = 0 or
      to its failure, so the halving descent from gamma = 1 is eager
      (pausing there too cost the delayed pendulum with a lookahead a rerun
      and 4% more steps in its H-infinity search);
    - from the first failure on, doublings included, a probe sweeps only one
      window past the deepest window in which a probe of this search has
      failed, and one that passes there counts as feasible and is paused;
    - the newest paused level is swept on to t = 0 when the loop ends, and
      earlier once the probes made since the last probe that swept to t = 0
      have swept as many steps as finishing it would take;
    - if that sweep fails, its window becomes the deepest, and the loop runs
      again from gamma = 1 over the probes made so far, each swept on to the
      new depth.
    Only the probe at `hi` keeps its tapes; the others keep their carries,
    and a result of theirs runs their windows again. Feasibility is monotone
    in gamma, so a level that passes to t = 0 vouches for every paused level
    above it: the search probes the levels, and returns the results, of one
    that sweeps every probe to t = 0 or to its failure."""
    probes = {}  # level -> its probe while it passes, None once it has failed
    deepest = -1  # the deepest window in which a probe has failed

    def sweep(g, windows):
        """Level g's probe, run on to `windows` windows (to t = 0 when None),
        or None once it has failed; and the steps it ran."""
        nonlocal deepest
        probe = probes[g] if g in probes else start(g)
        if probe is None:
            return None, 0
        steps = probe.sweep(windows)
        if probe.failed is not None:
            deepest = max(deepest, probe.failed)
            probe = None  # no infeasible probe outlives its verdict
        probes[g] = probe
        return probe, steps

    while True:  # one pass from gamma = 1; a paused level that fails starts another
        lo = hi = None
        history = []
        g, iters, since = 1.0, 0, 0
        while True:
            bracketed = lo is not None and hi is not None
            probe, steps = sweep(g, deepest + 2 if lo is not None else None)
            since += steps
            if probe is None:
                lo = g
            else:
                if hi is not None:
                    probes[hi].forget()  # only the level that would end the search keeps its tapes
                hi = g
                if steps and not probe.steps_left:  # made now and swept to t = 0
                    since = 0
            # finishing a level leaves `since` running, so once later probes
            # have cost a finish, each level that passes is finished at once.
            # Restarting `since` here swept 3.8% more on the pendulum's
            # H-infinity search at T=1000 and 7% more on a random n=8 LTV one
            # at T=200; restarting it at a pass's first failure, when pausing
            # begins, swept up to 3.4% more on the LTV searches.
            if hi is not None and 0 < probes[hi].steps_left <= since and sweep(hi, None)[0] is None:
                break
            if bracketed:
                history.append((lo, hi))
            if lo is None:
                if g <= 1e-8:
                    break
                g = hi / 2.0
            elif hi is None:
                if iters == _MAX_DOUBLINGS:
                    raise ArithmeticError(
                        f"no feasible level found after {_MAX_DOUBLINGS} doublings "
                        "(degenerate system)"
                    )
                g = 2.0 * lo
            else:
                g = 0.5 * (hi + lo)
                if not (hi - lo > tol * hi and lo < g < hi):
                    break
            iters += 1
        if sweep(hi, None)[0] is not None:
            break
    best = probes[hi].result()
    result = GammaSearchResult(
        gamma_opt=hi if lo is not None else 0.0,
        bracket_history=history,
        iterations=iters,
        final_margins=best.margins,
    )
    return result, best


def hinf_optimal(sys: LqSystem, tol: float = 1e-6):
    """Bisection on gamma for the H-infinity-optimal controller.
    Returns (GammaSearchResult, FeedbackController)."""
    _check_tol(tol)
    sys = as_validated(sys)
    result, tape = _bisect_gamma(lambda g: riccati._hinf_probe(sys, g), tol)
    return result, FeedbackController(sys, tape)


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


@dataclass(frozen=True)
class RegretProblem:
    """The gamma-independent part of a regret synthesis, built once by
    `prepare_regret` and shared by every level a bisection probes: the
    R-normalization of the validated system, the plant's own B_u, the forward
    Kalman tape (which carries the stacked Q^{1/2} and
    W = Q^{1/2} R_e^{-1} Q^{1/2}), and the blocks Bhat_u, Qhat and Phat_T of
    the doubled system."""

    norm: NormalizedSystem
    B_u: np.ndarray
    fwd: riccati.ForwardKalmanTape
    Bhat_u: np.ndarray
    Qhat: np.ndarray
    Phat_T: np.ndarray


def prepare_regret(sys: LqSystem) -> RegretProblem:
    """Validate and R-normalize `sys`, run the forward Kalman recursion and
    assemble the gamma-independent blocks of the doubled system."""
    sys = as_validated(sys)
    norm = normalize_control_weight(sys)
    nsys = norm.system
    T, n = nsys.T, nsys.n
    Bhat_u = np.concatenate((nsys.B_u, np.zeros_like(nsys.B_u)), axis=1)
    Qhat = np.zeros((T, 2 * n, 2 * n))
    Qhat[:, :n, :n] = nsys.Q
    Phat_T = np.zeros((2 * n, 2 * n))
    Phat_T[:n, :n] = nsys.Q_T
    fwd = riccati.forward_kalman(norm)
    return RegretProblem(norm=norm, B_u=sys.B_u, fwd=fwd, Bhat_u=Bhat_u, Qhat=Qhat, Phat_T=Phat_T)


@dataclass
class RegretSynthesis(riccati.Verdict):
    """Frozen output of the regret-suboptimal synthesis at level gamma, and
    the regret controller it defines.

    Carries the augmented 2n-dimensional system (Ahat, Bhat_u, Bhat_w, Qhat),
    its backward value tape Phat with Hhat = I + Bhat_u' Phat Bhat_u, the
    embedded forward/backward Kalman tapes, and the per-step feasibility
    margins of the associated H-infinity test.

    The controller is a state feedback on the plant state x and its observer
    state delta, delta' = Atil delta + B_w w: on xi = (x, delta),
    Ahat xi + Bhat_w z = blkdiag(A, Atil) xi + [B_w; B_w] w with
    z = R_be^{1/2}(K_bl' delta + w), so the synthesis' control
    -Hhat^{-1} Bhat_u' Phat (Ahat xi + Bhat_w z) is u = K_xi xi + K_w w, the
    H2 and H-infinity formula -H^{-1} B_u' P X with X = blkdiag(A, Atil) and
    [B_w; B_w]. The gains are computed on first access, so a feasibility
    probe never builds them. They act in R-normalized coordinates;
    `control_sequence` (`kernels.rollout_regret`) maps each control back by
    R_t^{-1/2} to step the plant on its own B_u, and depends causally on
    w_0..w_t only.
    """

    gamma: float
    norm: NormalizedSystem
    B_u: np.ndarray  # the validated plant's
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
    def K_xi(self):
        """(T, m, 2n): gain on xi = (x, delta), X = blkdiag(A, Atil) taken
        by blocks, [-Hhat^{-1} B_u' P_11 A, -Hhat^{-1} B_u' P_12 Atil]."""
        nsys = self.norm.system
        n = nsys.n
        return np.concatenate(
            (self._gain(self.Phat[:, :n, :n], nsys.A), self._gain(self.Phat[:, :n, n:], self.fwd.Atil)), axis=2
        )

    @cached_property
    def K_w(self):
        """(T, m, p): gain on w_t, with X = [B_w; B_w]."""
        nsys = self.norm.system
        return self._gain(self.Phat[:, :nsys.n], np.concatenate((nsys.B_w, nsys.B_w), axis=1))

    def _gain(self, P, X):
        """-Hhat_t^{-1} B_u_t' P_{t+1} X_t per step, for P the first block
        row [P_11, P_12] of Phat or one of its blocks (Bhat_u = [B_u; 0]
        reads only that row); zero unless every margin is negative, since
        gains only exist on a feasible tape."""
        if not self.feasible:
            return np.zeros(self.Hhat.shape[:2] + X.shape[2:])
        return _gain(self.norm.system.B_u, P, self.Hhat, X)

    def control_sequence(self, w):
        """Controls (..., T, m) for w (T, p) or (..., T, p); raises
        InfeasibleError on a synthesis whose level is not attainable."""
        if not self.feasible:
            raise InfeasibleError(self.gamma, self.first_infeasible_step)
        nsys = self.norm.system
        w = as_signal(w, nsys.T, nsys.p)
        n = nsys.n
        _, u = kernels.rollout_regret(
            nsys.A, self.B_u, self.norm.R_inv_sqrt, self.fwd.Atil, nsys.B_w,
            self.K_xi[:, :, :n], self.K_xi[:, :, n:], self.K_w, w,
        )
        return u


def _regret_probe(problem: RegretProblem, gamma: float) -> riccati._Sweep:
    """The regret synthesis at level gamma as a `riccati._Sweep` that has run
    no window yet. Its carry is (Phat, P_b), and its result the
    `RegretSynthesis`. In each window it runs the backward Kalman recursion
    from the carried P_b, takes R_be^{-1/2}, assembles Ahat and Bhat_w, and
    runs the value recursion from the carried Phat."""
    gamma = float(gamma)
    norm, fwd = problem.norm, problem.fwd
    nsys = norm.system
    T, n, m, p = nsys.T, nsys.n, nsys.m, nsys.p

    def window(t0, t1, carry, tapes):
        Phat, P_b_last = carry
        win = slice(t0, t1)
        P_b, K_bl, R_be, R_be_inv_sqrt, Ahat, Bhat_w = (
            tapes[name][win] for name in ("P_b", "K_bl", "R_be", "R_be_inv_sqrt", "Ahat", "Bhat_w")
        )
        P_b[:], K_bl[:], R_be[:], P_b_last = kernels.backward_kalman(
            fwd.Atil[win], nsys.B_w[win], fwd.W[win], gamma, P_b_last
        )
        R_be_inv_sqrt[:] = pd_inv_sqrt(R_be)
        BwK = nsys.B_w[win] @ np.swapaxes(K_bl, 1, 2)
        Bw_scaled = nsys.B_w[win] @ R_be_inv_sqrt
        Ahat[:, :n, :n] = nsys.A[win]
        Ahat[:, :n, n:] = -BwK
        Ahat[:, n:, n:] = fwd.Atil[win] - BwK
        Bhat_w[:] = np.concatenate((Bw_scaled, Bw_scaled), axis=1)
        Phat, tapes["H"][win], tapes["margins"][win] = kernels.regret_phat_backward(
            Ahat, problem.Bhat_u[win], Bhat_w, problem.Qhat[win], Phat, 1.0, False
        )
        tapes["P"][t0:t1 + 1] = Phat
        return Phat[0].copy(), P_b_last.copy()  # so that a paused probe holds no window's output

    def build(tapes):
        bwd = riccati.BackwardKalmanTape(
            P_b=tapes["P_b"], K_bl=tapes["K_bl"], R_be=tapes["R_be"], R_be_inv_sqrt=tapes["R_be_inv_sqrt"]
        )
        return RegretSynthesis(
            gamma=gamma,
            norm=norm,
            B_u=problem.B_u,
            fwd=fwd,
            bwd=bwd,
            Ahat=tapes["Ahat"],
            Bhat_u=problem.Bhat_u,
            Bhat_w=tapes["Bhat_w"],
            Qhat=problem.Qhat,
            Phat=tapes["P"],
            Hhat=tapes["H"],
            margins=tapes["margins"],
        )

    shapes = {
        "P_b": (T, n, n), "K_bl": (T, n, p), "R_be": (T, p, p), "R_be_inv_sqrt": (T, p, p),
        "Ahat": (T, 2 * n, 2 * n), "Bhat_w": (T, 2 * n, p),
        "P": (T + 1, 2 * n, 2 * n), "H": (T, m, m), "margins": (T,),
    }
    return riccati._Sweep(window, (problem.Phat_T, fwd.W[T]), shapes, build)


def synthesize_regret(sys: LqSystem, gamma: float) -> RegretSynthesis:
    """Regret-suboptimal synthesis of the system `sys` at level gamma. Its
    feasibility test is the reduction's: the attenuation-level-1 recursion
    on the z-driven doubled system.

    The sweep (`_regret_probe`) runs backward from t = T in windows of 16,
    32, 64, ... steps and stops after the first window with a failing step,
    so the tapes of an infeasible level hold only the swept steps. At a
    feasible level every window runs. The kernels run a window of 32 steps
    or more as a chunked scan, which agrees with the step loop to rounding;
    a horizon under 48 steps has no such window, and its tapes equal one
    loop over the whole horizon from the same forward Kalman tape.
    """
    riccati._check_level(gamma)
    return _regret_probe(prepare_regret(sys), gamma).result()


def regret_controller(sys: LqSystem, gamma: float) -> RegretSynthesis:
    """The regret controller at level gamma: its synthesis; raises
    InfeasibleError when the level is unattainable."""
    synthesis = synthesize_regret(sys, gamma)
    if not synthesis.feasible:
        raise InfeasibleError(gamma, synthesis.first_infeasible_step)
    return synthesis


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
    assembly of the doubled system and its value recursion, as far as the
    lazy search (`_bisect_gamma`) sweeps it. The controller is the synthesis
    at gamma_opt, swept to t = 0 (a ZeroController when the disturbance
    cannot produce cost)."""
    _check_tol(tol)
    sys = as_validated(sys)
    if _is_regret_degenerate(sys):
        result = GammaSearchResult(
            gamma_opt=0.0,
            bracket_history=[],
            iterations=0,
            # every probe's margin: the level-1 test is -I where Bhat_w = 0 or Phat = 0
            final_margins=np.full(sys.T, -1.0),
        )
        return result, ZeroController(sys)
    problem = prepare_regret(sys)
    return _bisect_gamma(lambda g: _regret_probe(problem, g), tol)
