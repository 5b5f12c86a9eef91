"""The certificate `regretctl certify` writes: the worst-case regret gain of
the regret controller and a disturbance that attains it, from the
H-infinity analysis of its closed loop.

The regret of a linear controller is an indefinite quadratic form in the
disturbance, so its worst-case gain is the level of a finite-horizon
bounded-real test with an indefinite weight: the Krein-space view that
`kernels._riccati_sweep` takes (Hassibi, Sayed and Kailath,
*Indefinite-Quadratic Estimation and Control*, SIAM 1999).

In the R-normalized coordinates of a `RegretSynthesis`, the controller is
the state feedback u = Kxi (x, delta) + D w on the plant state x and its
observer state delta, delta' = Atil delta + B_w w, with the gains its
rollout reads, Kxi = `K_xi` and D = `K_w`. delta is also the state of the
offline-optimal cost, sum_t delta_t' W_t delta_t with W = `fwd.W`
(t = 0..T). So the regret is the cost, weighted by Qbar, of the closed loop
on xi = (x, delta, u_{t-1}), which carries the control for one step so
that the weight has no cross term:
- Abar = [[blkdiag(A, Atil) + [B_u; 0] Kxi, 0], [Kxi, 0]],
- Bbar = [B_u D + B_w; B_w; D],
- Qbar_t = blkdiag(Q_t, -W_t, I_m), with a zero block for I_m at t = 0,
  and Qbar_T = blkdiag(Q_T, -W_T, I_m).

`analysis_system` gives it one inert control column (B_u = 0, R = 1), so
the H-infinity probe's margin at level gamma is the largest eigenvalue of
-gamma^2 I + Bbar'P Bbar, and the gain is at most gamma^2 iff every margin
is negative. `regret_gain` brackets the worst-case regret gain by such a
level and by the regret quotient RQ = w'Ew/w'w that its witness w attains,
probing with `riccati._hinf_probe`, every window run as the step loop.
`certify` starts it on the brackets of the regret search that made the
controller, since gamma_cert lies close to gamma_opt. Once a bracket's hi
passes, one probe at sqrt(RQ)(1 + TOL) closes the bracket when it passes
too: on the benchmark's n = 8 system, 3 probes over 352 steps instead of the
22 over 2,552 of `controllers._bisect_gamma` on the same brackets (44 over
4,856 from gamma = 1). Where the witness lags the gain, as on the pendulum
family, that search runs, with the same bits, for at most one probe more.
The memory is O(T (2n + m)^2) floats, for any horizon.
"""

from __future__ import annotations

import numpy as np

from . import riccati
from .controllers import RegretSynthesis, _bisect_gamma
from .kernels import _sym
from .system_model import (
    LqSystem,
    # not called here; kept because the benchmark's self-test
    # perfbench/test_perfbench.py::test_tracer_installs_every_listed_binding_and_restores_it
    # lists this module's binding of psd_sqrt among those the tracer wraps
    psd_sqrt,  # noqa: F401
)

# The relative resolution of the level search, and the step of the jump
# above the witness's level. At 1e-10 the bisection's gain of
# tests/data/smoke.json read 1.0e-10 above the rollout referee's; at 1e-12,
# 8.1e-13, for 7 more probes. The jump's reads 2.0e-12 above, 2 TOL over its
# witness's attained regret. On unstable_multi_input.json, where the search
# falls back, the gain reads 2.0e-10 below at both. Started on the brackets
# of a regret search at tol 1e-6, the bisection at 1e-12 makes 22 probes on
# the benchmark's n = 8 system (44 from gamma = 1): two for the start bracket
# and 20 bisections, which the jump replaces by one probe.
TOL = 1e-12


def analysis_system(s: RegretSynthesis) -> LqSystem:
    """The closed loop of the feasible synthesis s as an `LqSystem` on the
    state (x, delta, u_{t-1}) of size 2n + m, with Abar as A, one zero
    control column as B_u, Bbar as B_w, Qbar as Q and Q_T, and R = 1. Its Q
    is indefinite, so it is not validated."""
    nsys = s.norm.system
    T, n, m = nsys.T, nsys.n, nsys.m
    N = 2 * n + m
    x, d, u = slice(0, n), slice(n, 2 * n), slice(2 * n, N)
    Kxi, D = s.K_xi, s.K_w
    A = np.zeros((T, N, N))
    A[:, x, x] = nsys.A
    A[:, d, d] = s.fwd.Atil
    A[:, x, : 2 * n] += nsys.B_u @ Kxi
    A[:, u, : 2 * n] = Kxi
    Q = np.zeros((T + 1, N, N))
    Q[:T, x, x] = nsys.Q
    Q[T, x, x] = nsys.Q_T
    Q[:, d, d] = -s.fwd.W
    Q[1:, u, u] = np.eye(m)
    B_w = np.concatenate((nsys.B_u @ D + nsys.B_w, nsys.B_w, D), axis=1)
    return LqSystem(A, np.zeros((T, N, 1)), B_w, Q[:T], np.ones((T, 1, 1)), Q[T])


def _witness(ana: LqSystem, tape: riccati.HinfTape) -> np.ndarray:
    """The worst disturbance of the analysis tape at level lambda = gamma^2,
    flattened to T*p: zero before the step t* whose margin is closest to 0,
    the top eigenvector of Bbar'P_{t*+1}Bbar at t*, and the maximizing
    feedback (lambda I - Bbar'P Bbar)^{-1} Bbar'P Abar xi_t after it; of
    unit length, with its entry of largest magnitude (the first, among
    equals) positive."""
    lam = tape.gamma**2
    t_star = int(np.argmax(tape.margins))
    w = np.zeros((ana.T, ana.p))
    xi = np.zeros(ana.n)
    for t in range(t_star, ana.T):
        B = ana.B_w[t]
        BtP = B.T @ tape.P[t + 1]
        M = _sym(BtP @ B)
        if t == t_star:
            w[t] = np.linalg.eigh(M)[1][:, -1]
        else:
            w[t] = np.linalg.solve(lam * np.eye(ana.p) - M, BtP @ (ana.A[t] @ xi))
        xi = ana.A[t] @ xi + B @ w[t]
    w = w.reshape(-1) / np.linalg.norm(w)
    return -w if w[np.argmax(np.abs(w))] < 0.0 else w


def regret_quotient(ana: LqSystem, w: np.ndarray) -> float:
    """w'Ew / w'w for a disturbance w (T*p,): the analysis system's weighted
    cost of w along its own loop, sum_t xi_t'Qbar_t xi_t + xi_T'Qbar_T xi_T,
    which is the regret the controller realizes on w, over w's squared
    length. A gain the controller attains, so a lower bound on its
    worst-case regret gain."""
    w = w.reshape(ana.T, ana.p)
    xi, cost = np.zeros(ana.n), 0.0
    for t in range(ana.T):
        cost += xi @ ana.Q[t] @ xi
        xi = ana.A[t] @ xi + ana.B_w[t] @ w[t]
    return float(cost + xi @ ana.Q_T @ xi) / float(np.vdot(w, w))


def regret_gain(synthesis: RegretSynthesis, path=()) -> tuple[float, np.ndarray, float]:
    """(gain, witness, attained) of the regret controller `regret_optimal`
    returns: the worst-case regret gain lies in [attained, gain].

    gain is gamma_cert^2, with gamma_cert a level the recursion proved
    feasible, so an upper bound on the worst-case regret gain. witness is
    `_witness` of the tape at gamma_cert, and attained its
    `regret_quotient`, the lower end. On a system whose disturbance produces
    no cost every level is feasible, so the gain is 0.0 and the witness a
    unit disturbance, which attains it as every disturbance does.

    `path` is the `bracket_history` of the regret search that made the
    controller. Walking up it from its deepest node that a search at TOL
    still bisects, each node's lo and then its hi are probed, until a node
    whose lo fails and whose hi passes here. The witness of hi's tape
    attains RQ, and a probe at gamma_j = sqrt(RQ)(1 + TOL), made only when
    lo < gamma_j < hi (at or below lo, which failed, it would fail too),
    closes the bracket [sqrt(RQ), gamma_j] to TOL if it passes: gamma_cert
    is then gamma_j, whose gain lies within 2 TOL relative of the
    bisection's (the jump lands on smoke.json and on the benchmark's n = 8
    system). Otherwise (the witness lags the gain, as on the pendulum
    family, or no node brackets) gamma_cert is the level
    `controllers._bisect_gamma` returns at resolution TOL, started on `path`
    with the probes made so far: the gain and witness of the search from
    gamma = 1, bit for bit, wherever the verdicts are monotone, for at
    most one probe more than that search started on `path`."""
    ana = analysis_system(synthesis)
    probes = {}  # level -> its probe, swept to t = 0 or to its failure

    def passes(g):
        if g not in probes:
            for probe in probes.values():
                probe.forget()  # only the newest probe keeps its tapes
            probes[g] = riccati._hinf_probe(ana, g, scan=False)
            probes[g].sweep()
        return probes[g].failed is None

    for lo, hi in reversed(path):
        if hi - lo > TOL * hi and not passes(lo) and passes(hi):
            rq = regret_quotient(ana, _witness(ana, probes[hi].result()))
            g = float(np.sqrt(max(rq, 0.0))) * (1.0 + TOL)
            if lo < g < hi and passes(g):
                return _certificate(ana, g**2, probes[g].result())
            break
    result, tape = _bisect_gamma(
        lambda g: probes.pop(g, None) or riccati._hinf_probe(ana, g, scan=False), TOL, path
    )
    return _certificate(ana, result.gamma_opt**2, tape)


def _certificate(ana, gain, tape):
    """(gain, witness, attained) with the witness of `tape`."""
    witness = _witness(ana, tape)
    return gain, witness, regret_quotient(ana, witness)
