"""Disturbance generation, rollouts, and multi-controller comparisons."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .system_model import LqSystem, Trajectory, as_signal, as_validated, evaluate_cost


def _is_numeric(value):
    """True for a number, or a nested list or array of numbers; a bool or a
    string is neither, though numpy would read both as one."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    if isinstance(value, (list, tuple)):
        return all(_is_numeric(v) for v in value)
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


@dataclass(frozen=True)
class DisturbanceSpec:
    """Reproducible disturbance recipe.

    kind: "gaussian" (params: mean vector, cov matrix), "alternating"
    (params: mean vector, period; the mean flips sign every `period` steps,
    starting positive, with unit-variance components), "sinusoid" (params:
    amplitude vector, frequency in cycles/step, phase), "constant" (params:
    vector), or "worst_case" (params: witness, a (T, p) array, typically a
    regret-certificate eigenvector). `generate` refuses a parameter its kind
    does not read, and a bool or a string where it reads a number.
    """

    PARAMS: ClassVar[dict] = {
        "gaussian": ("mean", "cov"),
        "alternating": ("mean", "period"),
        "sinusoid": ("amplitude", "frequency", "phase"),
        "constant": ("vector",),
        "worst_case": ("witness",),
    }

    kind: str
    params: dict
    seed: int = 0

    def _number(self, key, default):
        value = self.params.get(key, default)
        if not _is_numeric(value):
            raise ValueError(f"disturbance parameter {key!r} must be numeric, got {value!r}")
        return np.asarray(value, dtype=float)

    def generate(self, T: int, p: int) -> np.ndarray:
        reads = self.PARAMS.get(self.kind)
        if reads is None:
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        for key in self.params:
            if key not in reads:
                raise ValueError(
                    f"{self.kind} disturbance has no parameter {key!r} (it reads {', '.join(reads)})"
                )
        rng = np.random.Generator(np.random.PCG64(self.seed))
        if self.kind == "gaussian":
            mean = np.broadcast_to(self._number("mean", 0.0), (p,))
            cov = np.eye(p) if self.params.get("cov") is None else np.atleast_2d(self._number("cov", None))
            if cov.shape != (p, p):
                raise ValueError(f"cov has shape {cov.shape}, expected {(p, p)}")
            return rng.multivariate_normal(mean, cov, size=T, method="cholesky")
        if self.kind == "alternating":
            mean = np.broadcast_to(self._number("mean", 1.0), (p,))
            period = self.params.get("period", 15)
            if isinstance(period, bool) or not isinstance(period, (int, np.integer)) or period <= 0:
                raise ValueError(f"period must be a positive integer, got {period!r}")
            signs = np.array([1.0 if (t // period) % 2 == 0 else -1.0 for t in range(T)])
            return signs[:, None] * mean[None, :] + rng.standard_normal((T, p))
        if self.kind == "sinusoid":
            amp = np.broadcast_to(self._number("amplitude", 1.0), (p,))
            freq = float(self._number("frequency", 0.05))
            phase = float(self._number("phase", 0.0))
            t = np.arange(T)
            return amp[None, :] * np.sin(2.0 * np.pi * freq * t + phase)[:, None]
        if self.kind == "constant":
            vec = np.broadcast_to(self._number("vector", 0.0), (p,))
            return np.tile(vec, (T, 1))
        w = self._number("witness", None).reshape(T, p)
        return w.copy()


def generate_disturbance(spec: DisturbanceSpec, sys: LqSystem) -> np.ndarray:
    """Length-T, dimension-p disturbance; deterministic given (spec, seed)."""
    return spec.generate(sys.T, sys.p)


def controls(sys: LqSystem, controller, w) -> np.ndarray:
    """The controls (..., T, m) that `controller.control_sequence` chooses
    along w: (T, p), or (..., T, p) for a batch of independent rollouts run
    in one sweep; raises ArithmeticError if any is not finite."""
    sys = as_validated(sys)
    w = as_signal(w, sys.T, sys.p)
    u = np.asarray(controller.control_sequence(w), dtype=float)
    if not np.all(np.isfinite(u)):
        raise ArithmeticError("controller emitted a non-finite control")
    return u


def rollout(sys: LqSystem, controller, w) -> Trajectory:
    """Drive the controller along w (see `controls`) and return the
    trajectory with its costs; it satisfies the dynamics exactly."""
    sys = as_validated(sys)
    w = as_signal(w, sys.T, sys.p)
    return evaluate_cost(sys, w, controls(sys, controller, w))


@dataclass
class ComparisonReport:
    """Per-controller cost traces across trials, plus the offline baseline.

    time_averaged[name] is a (trials, T) array whose (k, t) entry is the
    cumulative cost of trial k through step t divided by (t + 1);
    total_costs[name] is the per-trial final total cost. realized_regret is
    total cost minus the offline cost of the same disturbance.
    """

    controllers: list
    total_costs: dict
    time_averaged: dict
    realized_regret: dict
    offline_costs: np.ndarray
    metadata: dict = field(default_factory=dict)


def compare(sys: LqSystem, controllers: dict, spec: DisturbanceSpec, trials: int = 1) -> ComparisonReport:
    """Roll every controller over `trials` disturbances drawn from spec
    (seed offset by trial index) and account costs and realized regret
    against the offline-optimal baseline. The trials are stacked into one
    (trials, T, p) batch: one offline plan and one rollout per controller."""
    from .controllers import offline_noncausal

    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    sys = as_validated(sys)
    names = list(controllers)
    counts = np.arange(sys.T) + 1.0
    t0 = time.perf_counter()
    w = np.stack(
        [
            generate_disturbance(DisturbanceSpec(spec.kind, spec.params, seed=spec.seed + k), sys)
            for k in range(trials)
        ]
    )

    def costs(traj):
        # only the costs outlive each batch of trajectories
        return traj.total_cost, np.cumsum(traj.step_costs, axis=-1) / counts

    off_totals, off_averaged = costs(evaluate_cost(sys, w, offline_noncausal(sys, w)))
    totals, averaged, regrets = {}, {}, {}
    for name in names:
        totals[name], averaged[name] = costs(rollout(sys, controllers[name], w))
        regrets[name] = totals[name] - off_totals
    # the baseline's trace, unless a controller is itself named "offline"
    averaged.setdefault("offline", off_averaged)
    meta = {
        "seed": spec.seed,
        "trials": trials,
        "kind": spec.kind,
        "runtime_s": time.perf_counter() - t0,
    }
    return ComparisonReport(
        controllers=names,
        total_costs=totals,
        time_averaged=averaged,
        realized_regret=regrets,
        offline_costs=off_totals,
        metadata=meta,
    )
