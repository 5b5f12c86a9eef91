"""State augmentations reducing disturbance lookahead and input delay to the
standard problem, so the same syntheses apply unchanged.

Prediction mode stacks the state with the next h disturbances; the augmented
plant is driven by w'_t = w_{t+h} (zero beyond the horizon). Delay mode stacks
the state with the last d control actions (zero before the horizon starts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sim_bench import controls
from .system_model import LqSystem, as_signal, as_validated, validate_system


@dataclass(frozen=True)
class AugmentedSystem:
    """An augmented plant plus the index maps between base and augmented
    signals. mode is "prediction" (param h) or "delay" (param d); identity
    when the parameter is zero."""

    base: LqSystem
    system: LqSystem
    mode: str
    length: int  # h or d

    def base_disturbance_to_augmented(self, w):
        """Map a base disturbance sequence (T, p), or a batch (..., T, p), to
        the augmented driving signal."""
        base = self.base
        w = as_signal(w, base.T, base.p)
        if self.mode == "prediction" and self.length > 0:
            h = self.length
            out = np.zeros_like(w)
            out[..., : base.T - h, :] = w[..., h:, :]
            return out
        return w.copy()


def augment_predictions(sys: LqSystem, h: int) -> AugmentedSystem:
    """Reduce h-step lookahead control to the standard problem.

    Augmented state (n + h*p) stacks x_t with w_t..w_{t+h-1}; a causal
    controller on the result is an h-lookahead controller on the base system.
    Disturbances beyond the horizon are zero.
    """
    sys = as_validated(sys)
    h = int(h)
    if not 0 <= h <= sys.T:
        raise ValueError(f"lookahead must satisfy 0 <= h <= T={sys.T}, got {h}")
    if h == 0:
        return AugmentedSystem(base=sys, system=sys, mode="prediction", length=0)
    T, n, m, p = sys.T, sys.n, sys.m, sys.p
    N = n + h * p
    A = np.zeros((T, N, N))
    B_u = np.zeros((T, N, m))
    B_w = np.zeros((T, N, p))
    Q = np.zeros((T, N, N))
    R = sys.R.copy()
    for t in range(T):
        A[t, :n, :n] = sys.A[t]
        A[t, :n, n:n + p] = sys.B_w[t]
        for k in range(h - 1):  # shift register over the prediction window
            A[t, n + k * p:n + (k + 1) * p, n + (k + 1) * p:n + (k + 2) * p] = np.eye(p)
        B_u[t, :n, :] = sys.B_u[t]
        B_w[t, N - p:, :] = np.eye(p)
        Q[t, :n, :n] = sys.Q[t]
    Q_T = np.zeros((N, N))
    Q_T[:n, :n] = sys.Q_T
    aug = LqSystem(A, B_u, B_w, Q, R, Q_T)
    return AugmentedSystem(base=sys, system=validate_system(aug), mode="prediction", length=h)


def augment_delay(sys: LqSystem, d: int) -> AugmentedSystem:
    """Reduce d-step input delay to the standard problem.

    The delayed plant is x_{t+1} = A_t x_t + B_u_{t-d} u_{t-d} + B_w_t w_t
    (gain indexed by emission time); the augmented state (n + d*m) stacks x_t
    with u_{t-1}..u_{t-d}, all zero before the horizon starts.
    """
    sys = as_validated(sys)
    d = int(d)
    if not 0 <= d < sys.T:
        raise ValueError(f"delay must satisfy 0 <= d < T={sys.T}, got {d}")
    if d == 0:
        return AugmentedSystem(base=sys, system=sys, mode="delay", length=0)
    T, n, m, p = sys.T, sys.n, sys.m, sys.p
    N = n + d * m
    A = np.zeros((T, N, N))
    B_u = np.zeros((T, N, m))
    B_w = np.zeros((T, N, p))
    Q = np.zeros((T, N, N))
    R = sys.R.copy()
    for t in range(T):
        A[t, :n, :n] = sys.A[t]
        if t - d >= 0:
            A[t, :n, N - m:] = sys.B_u[t - d]
        for k in range(d - 1):  # shift register over the control transcript
            A[t, n + (k + 1) * m:n + (k + 2) * m, n + k * m:n + (k + 1) * m] = np.eye(m)
        B_u[t, n:n + m, :] = np.eye(m)
        B_w[t, :n, :] = sys.B_w[t]
        Q[t, :n, :n] = sys.Q[t]
    Q_T = np.zeros((N, N))
    Q_T[:n, :n] = sys.Q_T
    aug = LqSystem(A, B_u, B_w, Q, R, Q_T)
    return AugmentedSystem(base=sys, system=validate_system(aug), mode="delay", length=d)


class WrappedController:
    """Drives a controller synthesized on the augmented system with
    base-system signals, owning all index bookkeeping."""

    def __init__(self, aug: AugmentedSystem, inner):
        self.aug = aug
        self.inner = inner

    def control_sequence(self, w):
        """Base controls (..., T, m) for a base disturbance (T, p) or a batch
        (..., T, p), from the controls of one sweep of the inner controller
        over the augmented plant; augmented controls are base controls."""
        return controls(self.aug.system, self.inner, self.aug.base_disturbance_to_augmented(w))


def wrap_controller(aug: AugmentedSystem, controller) -> WrappedController:
    """Re-index an augmented-system controller so the harness can drive it
    with base-system disturbances."""
    if aug.length == 0:
        return controller
    return WrappedController(aug, controller)
