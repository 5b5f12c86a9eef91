"""Disturbance generation, rollouts, and multi-controller comparisons."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .controllers import OfflineController
from .system_model import LqSystem, Trajectory, as_signal, as_validated, evaluate_cost


def _is_numeric(value):
    """True for a number, or a nested list or array of numbers; a bool or a
    string is neither, though numpy would read both as one. The items' types
    are collected in one pass over an object array, not a Python recursion."""
    try:
        types = set(map(type, np.array(value, dtype=object).flat))
    except ValueError:
        return False
    numbers, bools = (int, float, np.integer, np.floating), (bool, np.bool_)
    return all(issubclass(t, numbers) and not issubclass(t, bools) for t in types)


def _is_finite(value):
    """True when every number of a numeric `value` is a finite float; an
    integer beyond the float range is not."""
    try:
        return bool(np.isfinite(np.asarray(value, dtype=float)).all())
    except OverflowError:
        return False


class DisturbanceError(ValueError):
    """A disturbance recipe that no horizon makes valid; `field` names the
    offending entry, "kind" or "params"."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class DisturbanceSpec:
    """Reproducible disturbance recipe.

    kind: "gaussian" (params: mean vector, cov matrix), "alternating"
    (params: mean vector, period; the mean flips sign every `period` steps,
    starting positive, with unit-variance components), "sinusoid" (params:
    amplitude vector, frequency in cycles/step, phase), "constant" (params:
    vector), or "worst_case" (params: witness, a (T, p) array, typically a
    regret-certificate eigenvector). Construction refuses, with a
    DisturbanceError, an unknown kind, a parameter the kind does not read,
    and a bool, a string, a NaN, an infinity or an integer beyond the float
    range where it reads a number; `_sampler` refuses a parameter whose
    shape does not fit (T, p) the same way.
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

    def __post_init__(self):
        reads = self.PARAMS.get(self.kind) if isinstance(self.kind, str) else None
        if reads is None:
            raise DisturbanceError("kind", f"unknown kind {self.kind!r}")
        if not isinstance(self.params, dict):
            raise DisturbanceError("params", "expected an object")
        for key in self.params:
            if key not in reads:
                raise DisturbanceError(
                    "params",
                    f"{self.kind} disturbance has no parameter {key!r} (it reads {', '.join(reads)})",
                )
        values = dict(self.params)
        if self.kind == "worst_case":
            values.setdefault("witness", None)  # the one parameter without a default
        for key, value in values.items():
            if key == "period":
                if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value <= 0:
                    raise DisturbanceError("params", f"period must be a positive integer, got {value!r}")
            elif not (_is_numeric(value) or (key == "cov" and value is None)):
                message = f"disturbance parameter {key!r} must be numeric, got {value!r}"
                raise DisturbanceError("params", message)
            elif value is not None and not _is_finite(value):
                raise DisturbanceError("params", f"disturbance parameter {key!r} must be finite, got {value!r}")

    def _number(self, key, default):
        return np.asarray(self.params.get(key, default), dtype=float)

    def _scalar(self, key, default):
        value = self._number(key, default)
        if value.ndim:
            raise DisturbanceError("params", f"{key} must be a number, got shape {value.shape}")
        return float(value)

    def _vector(self, key, default, p):
        """Parameter `key` as a length-p vector; a number is repeated."""
        value = self._number(key, default)
        try:
            return np.broadcast_to(value, (p,))
        except ValueError:
            message = f"{key} has shape {value.shape}, expected a number or a vector of length p = {p}"
            raise DisturbanceError("params", message) from None

    def _sampler(self, T, p):
        """A disturbance (T, p) as a function of the random generator, once
        every parameter is checked against (T, p). Building it draws nothing,
        so a config check does not load numpy.random (about 6 MB of memory)."""
        if self.kind == "gaussian":
            mean = self._vector("mean", 0.0, p)
            cov = np.eye(p) if self.params.get("cov") is None else np.atleast_2d(self._number("cov", None))
            if cov.shape != (p, p):
                raise DisturbanceError("params", f"cov has shape {cov.shape}, expected {(p, p)}")
            try:
                np.linalg.cholesky(cov)  # the factor multivariate_normal draws with
            except np.linalg.LinAlgError:
                raise DisturbanceError("params", "cov must be positive definite") from None
            return lambda rng: rng.multivariate_normal(mean, cov, size=T, method="cholesky")
        if self.kind == "alternating":
            mean = self._vector("mean", 1.0, p)
            period = self.params.get("period", 15)
            signs = np.array([1.0 if (t // period) % 2 == 0 else -1.0 for t in range(T)])
            return lambda rng: signs[:, None] * mean[None, :] + rng.standard_normal((T, p))
        if self.kind == "sinusoid":
            amp = self._vector("amplitude", 1.0, p)
            freq = self._scalar("frequency", 0.05)
            phase = self._scalar("phase", 0.0)
            w = amp[None, :] * np.sin(2.0 * np.pi * freq * np.arange(T) + phase)[:, None]
        elif self.kind == "constant":
            w = np.tile(self._vector("vector", 0.0, p), (T, 1))
        else:
            w = self._number("witness", None)
            if w.size != T * p:
                raise DisturbanceError("params", f"witness has {w.size} entries, expected T * p = {T} * {p}")
            w = w.reshape(T, p).copy()
        return lambda rng: w


def _finite(u) -> np.ndarray:
    """The controls u as a float array; raises ArithmeticError if any is not
    finite."""
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ArithmeticError("controller emitted a non-finite control")
    return u


def controls(sys: LqSystem, controller, w) -> np.ndarray:
    """The controls (..., T, m) that `controller.control_sequence` chooses
    along w: (T, p), or (..., T, p) for a batch of independent rollouts run
    in one sweep; raises ArithmeticError if any is not finite."""
    sys = as_validated(sys)
    return _finite(controller.control_sequence(as_signal(w, sys.T, sys.p)))


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

    total_costs: dict
    time_averaged: dict
    realized_regret: dict
    offline_costs: np.ndarray


def compare(sys: LqSystem, controllers: dict, spec: DisturbanceSpec, trials: int = 1) -> ComparisonReport:
    """Roll every controller over `trials` disturbances drawn from spec
    (seed offset by trial index) and account costs and realized regret
    against the offline-optimal baseline. The trials are stacked into one
    (trials, T, p) batch: one offline plan and one rollout per controller.
    The sampler is built once; trial k draws from its own generator seeded
    spec.seed + k."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    sys = as_validated(sys)
    counts = np.arange(sys.T) + 1.0
    sample = spec._sampler(sys.T, sys.p)
    w = np.stack([sample(np.random.Generator(np.random.PCG64(spec.seed + k))) for k in range(trials)])

    def costs(traj):
        # only the costs outlive each batch of trajectories
        return traj.total_cost, np.cumsum(traj.step_costs, axis=-1) / counts

    off_totals, off_averaged = costs(evaluate_cost(sys, w, OfflineController(sys).plan(w)))
    totals, averaged, regrets = {}, {}, {}
    for name in controllers:
        totals[name], averaged[name] = costs(rollout(sys, controllers[name], w))
        regrets[name] = totals[name] - off_totals
    # the baseline's trace, unless a controller is itself named "offline"
    averaged.setdefault("offline", off_averaged)
    return ComparisonReport(
        total_costs=totals,
        time_averaged=averaged,
        realized_regret=regrets,
        offline_costs=off_totals,
    )
