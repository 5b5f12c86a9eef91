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
is negative. `regret_gain` finds that level with the library's own search,
`controllers._bisect_gamma` over `riccati._hinf_probe`, every window run as
the step loop. The memory is O(T (2n + m)^2) floats, for any horizon.
"""

from __future__ import annotations

import numpy as np

from . import riccati
from .controllers import RegretSynthesis, ZeroController, _bisect_gamma
from .kernels import _sym
from .system_model import (
    LqSystem,
    # not called here; kept because the benchmark's self-test
    # perfbench/test_perfbench.py::test_tracer_installs_every_listed_binding_and_restores_it
    # lists this module's binding of psd_sqrt among those the tracer wraps
    psd_sqrt,  # noqa: F401
)

# The relative resolution of the level search. At 1e-10 the gain of
# tests/data/smoke.json read 1.0e-10 above the rollout referee's; at 1e-12,
# 8.1e-13, for 7 more probes (43) and 0.02 s more on the benchmark's n = 8
# system. On unstable_multi_input.json it reads 2.0e-10 below at both.
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


def regret_gain(controller) -> tuple[float, np.ndarray]:
    """(gain, witness) of the regret controller `regret_optimal` returns.

    gain is gamma_cert^2, with gamma_cert the level the search returns at
    resolution TOL: a level the recursion proved feasible, so an upper bound
    on the worst-case regret gain to that resolution. witness is
    `_witness` of the tape at gamma_cert. The `ZeroController` of a system
    whose disturbance produces no cost has gain 0.0 and, since every
    disturbance attains it, the unit impulse w[0, 0] = 1 as its witness."""
    if isinstance(controller, ZeroController):
        sys = controller._sys
        witness = np.zeros(sys.T * sys.p)
        witness[0] = 1.0
        return 0.0, witness
    ana = analysis_system(controller)
    result, tape = _bisect_gamma(lambda g: riccati._hinf_probe(ana, g, scan=False), TOL)
    return result.gamma_opt**2, _witness(ana, tape)
