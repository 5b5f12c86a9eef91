"""Configuration parsing, experiment orchestration, and bit-stable CSV/JSON
emission.

Subcommands: gamma (regret-level bisection), synth (gains export), simulate
(per-step cost CSV), certify (the regret controller's worst-case regret
gain, from the H-infinity analysis of its closed loop), pendulum (the
inverted-pendulum benchmark presets).
"""

from __future__ import annotations

import functools
import gc
import json
import sys as _sys

import click
import numpy as np

from . import controllers as ct
from .augmentation import augment_delay, augment_predictions
from .sim_bench import DisturbanceError, DisturbanceSpec, _is_numeric, compare
from .system_model import LqSystem, validate_system

SCHEMA_VERSION = "2"
# gains.json (the regret controller's gains) and certificate.json (its
# certified gain and witness)
CONTROLLER_SCHEMA = "3"

# The floats one tape of a probe may hold, T (2n + m)^2 on the augmented
# system (the state of certify's closed-loop analysis): 128 MiB of float64.
# A probe holds a few such tapes.
TAPE_BUDGET = 2**24

_CONTROLLERS = ("h2", "hinf", "regret", "offline")
_DEFAULTS = {
    "controllers": list(_CONTROLLERS),
    "lookahead": 0,
    "delay": 0,
    "disturbance": {"kind": "gaussian", "params": {}},
    "trials": 1,
    "seed": 0,
    "tol": 1e-6,
    "output": {},
}
_CONFIG_FIELDS = {"system", "horizon", *_DEFAULTS}


class ConfigError(ValueError):
    pass


def _check_budget(T, n, m):
    """Refuse a horizon whose tapes, T (2n + m)^2 floats, exceed TAPE_BUDGET."""
    floats = T * (2 * n + m) ** 2
    if floats > TAPE_BUDGET:
        raise ConfigError(
            f"field 'horizon': T = {T} with n = {n} and m = {m} needs tapes of "
            f"T*(2n+m)^2 = {floats} floats, over the budget of {TAPE_BUDGET}"
        )


def _matrix(doc, field):
    if not _is_numeric(doc):  # numpy would read "1" and true as 1.0
        raise ConfigError(f"field {field!r}: not a numeric array")
    try:
        return np.array(doc, dtype=float)
    except OverflowError as e:  # an integer beyond the float range
        raise ConfigError(f"field {field!r}: not a numeric array ({e})")


def _steps(doc, field):
    if not isinstance(doc, list) or not doc:
        raise ConfigError(f"field {field!r}: expected a non-empty list of per-step matrices")
    return [_matrix(M, field) for M in doc]


def _int_field(value, field, minimum):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"field {field!r}: expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"field {field!r}: must be at least {minimum}, got {value}")
    return int(value)


def _number_field(value, field):
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"field {field!r}: expected a number, got {value!r}")
    return float(value)


def parse_config(document, seed=None, tol=None) -> dict:
    """Validate a config document (dict or JSON text) and resolve defaults;
    `seed` and `tol`, when given, replace the document's before the checks.

    Returns {"system": LqSystem, "resolved": echo-able dict, ...}; see
    `_resolve`.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config parse error at line {e.lineno}, column {e.colno}: {e.msg}")
    if not isinstance(document, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(document) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    if "system" not in document:
        raise ConfigError("missing required field 'system'")

    sysdoc = document["system"]
    if not isinstance(sysdoc, dict) or len(sysdoc) != 1 or next(iter(sysdoc)) not in ("lti", "ltv"):
        raise ConfigError("field 'system': expected {'lti': {...}} or {'ltv': {...}}")
    mode, blocks = next(iter(sysdoc.items()))
    needed = ("A", "Bu", "Bw", "Q", "R")
    if not isinstance(blocks, dict) or not set(needed) <= set(blocks):
        raise ConfigError(f"field 'system.{mode}': needs fields {sorted(needed)} (optional QT)")
    extra = set(blocks) - {*needed, "QT"}
    if extra:
        raise ConfigError(f"field 'system.{mode}': unknown fields {sorted(extra)}")
    if mode == "lti":
        if "horizon" not in document:
            raise ConfigError("missing required field 'horizon' for an lti system")
        T = _int_field(document["horizon"], "horizon", 1)
        matrices = [_matrix(blocks[k], k) for k in needed]
        A, B_u = (np.atleast_2d(M) for M in matrices[:2])
        _check_budget(T, A.shape[0], B_u.shape[-1])  # before the blocks are tiled T times
        QT = _matrix(blocks["QT"], "QT") if "QT" in blocks else None
        build = functools.partial(LqSystem.time_invariant, *matrices, QT, horizon=T)
    else:
        steps = [_steps(blocks[k], k) for k in needed]
        if "horizon" in document and _int_field(document["horizon"], "horizon", 1) != len(steps[0]):
            raise ConfigError("field 'horizon' disagrees with the ltv step count")
        QT = _matrix(blocks["QT"], "QT") if "QT" in blocks else np.zeros_like(steps[0][0])
        build = functools.partial(LqSystem.from_steps, *steps, QT)
    try:  # the blocks' shapes, finiteness and definiteness
        sys = validate_system(build())
    except ValueError as e:
        raise ConfigError(f"field 'system': {e}")

    cfg = _resolve(sys, {k: v for k, v in document.items() if k != "system"}, seed, tol)
    cfg["resolved"]["system"] = sysdoc
    return cfg


def _resolve(sys, fields, seed, tol) -> dict:
    """Check the experiment fields of a config for the validated system sys,
    after the command-line `seed` (which also reseeds the disturbance) and
    `tol` replace the fields' own. With parse_config's system checks, this
    raises every config error before any synthesis runs.

    Returns {"system": sys, "resolved": echo-able fields, "controllers":
    [(name, "auto" or a level)], "disturbance": DisturbanceSpec}.
    """
    cfg = {**_DEFAULTS, **fields}
    if seed is not None:
        cfg["seed"] = seed
    if tol is not None:
        cfg["tol"] = tol
    if not isinstance(cfg["controllers"], list) or not cfg["controllers"]:
        raise ConfigError("field 'controllers': expected a non-empty list")
    controllers = []
    for spec in cfg["controllers"]:
        name, level = spec, "auto"
        if isinstance(spec, dict) and len(spec) == 1:
            name, level = next(iter(spec.items()))
        if name not in _CONTROLLERS:
            raise ConfigError(f"field 'controllers': unknown controller {spec!r}")
        if name in dict(controllers):
            raise ConfigError(f"field 'controllers': controller {name!r} is listed more than once")
        if level != "auto":
            level = _number_field(level, f"controllers.{name}")
            if not 0.0 < level < np.inf:
                raise ConfigError(f"field 'controllers.{name}': the level must be positive and finite")
        controllers.append((name, level))
    resolved_seed = _int_field(cfg["seed"], "seed", 0)
    d = cfg["disturbance"]
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("field 'disturbance': needs a 'kind'")
    extra = set(d) - {"kind", "params", "seed"}
    if extra:
        raise ConfigError(f"field 'disturbance': unknown fields {sorted(extra)}")
    disturbance_seed = _int_field(d.get("seed", resolved_seed), "disturbance.seed", 0)
    try:
        disturbance = DisturbanceSpec(
            d["kind"], d.get("params", {}), seed=resolved_seed if seed is not None else disturbance_seed
        )
        disturbance._sampler(sys.T, sys.p)  # neither augmentation changes T or p
    except DisturbanceError as e:
        raise ConfigError(f"field 'disturbance.{e.field}': {e}")
    output = cfg["output"]
    if not isinstance(output, dict) or not all(isinstance(v, str) for v in output.values()):
        raise ConfigError("field 'output': expected an object of file paths")
    extra = set(output) - {"csv", "gains", "certificate"}
    if extra:
        raise ConfigError(f"field 'output': unknown fields {sorted(extra)}")
    lookahead = _int_field(cfg["lookahead"], "lookahead", 0)
    if lookahead > sys.T:
        raise ConfigError(f"field 'lookahead': must be at most the horizon {sys.T}, got {lookahead}")
    delay = _int_field(cfg["delay"], "delay", 0)
    if delay >= sys.T:
        raise ConfigError(f"field 'delay': must be less than the horizon {sys.T}, got {delay}")
    _check_budget(sys.T, sys.n + delay * sys.m + lookahead * sys.p, sys.m)
    tol = _number_field(cfg["tol"], "tol")
    try:
        ct._check_tol(tol)
    except ValueError as e:
        raise ConfigError(f"field 'tol': {e}")
    resolved = {
        "horizon": sys.T,
        "controllers": cfg["controllers"],
        "lookahead": lookahead,
        "delay": delay,
        "disturbance": {"kind": disturbance.kind, "params": disturbance.params, "seed": disturbance.seed},
        "trials": _int_field(cfg["trials"], "trials", 1),
        "seed": resolved_seed,
        "tol": tol,
        "output": output,
    }
    return {"system": sys, "resolved": resolved, "controllers": controllers, "disturbance": disturbance}


def _float_repr(x):
    return f"{float(x):.17g}"


def emit_csv(path, header, rows):
    """Fixed column order, 17 significant digits, newline-terminated."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_float_repr(v) if isinstance(v, (int, float, np.floating)) else str(v) for v in row))
    text = "\n".join(lines) + "\n"
    with open(path, "w") as f:
        f.write(text)


def _plain(obj):
    """The encoder's `default` hook: numpy scalars as Python numbers, numpy
    arrays as lists."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_plain, allow_nan=False)


def emit_json(path, obj, schema=SCHEMA_VERSION):
    """Compact JSON with sorted keys, a `schema_version` field and a final
    newline: the bytes of one `json.dumps(..., sort_keys=True,
    separators=(",", ":"), allow_nan=False)` call. A NaN or an infinity is
    refused with a ValueError, as any other unencodable value is with a
    TypeError; the text is built before the file is opened, so a refused
    document leaves no partial file."""
    text = _JSON.encode({**obj, "schema_version": schema}) + "\n"
    with open(path, "w") as f:
        f.write(text)


def _load(config_path, seed, tol):
    """Parse the config with the command-line overrides and echo the
    resolved config on stdout."""
    with open(config_path) as f:
        cfg = parse_config(f.read(), seed, tol)
    click.echo(json.dumps(cfg["resolved"], sort_keys=True, default=_plain))
    return cfg


def _augmented(cfg):
    """The system every subcommand synthesizes for: the config's plant with
    its delay, then its lookahead, augmented into the state."""
    sys = cfg["system"]
    r = cfg["resolved"]
    if r["delay"]:
        sys = augment_delay(sys, r["delay"]).system
    if r["lookahead"]:
        sys = augment_predictions(sys, r["lookahead"]).system
    return sys


def _build_controllers(synth_sys, cfg):
    """Synthesize the configured controllers on synth_sys, and their levels.
    "offline" is compare's own baseline and needs no synthesis."""
    tol = cfg["resolved"]["tol"]
    out = {}
    gammas = {}
    for name, level in cfg["controllers"]:
        if name == "h2":
            out[name] = ct.synthesize_h2(synth_sys)
        elif name != "offline":
            optimal, at_level = {
                "hinf": (ct.hinf_optimal, ct.synthesize_hinf),
                "regret": (ct.regret_optimal, ct.regret_controller),
            }[name]
            if level == "auto":
                res, out[name] = optimal(synth_sys, tol)
                level = res.gamma_opt
            else:
                out[name] = at_level(synth_sys, level)
            gammas[name] = level
    return out, gammas


def _simulate(cfg, csv_path):
    """Synthesize the configured controllers, compare them over the
    configured disturbance on the system they were synthesized for and write
    the cost CSV: one row per step t, then each controller's time-averaged
    cost at t averaged over the trials, in config order with the offline
    baseline last if requested. Returns the report, the controllers' levels
    and the CSV path. With a lookahead h, disturbance sample k is previewed
    at step k and reaches the plant at step k + h."""
    synth_sys = _augmented(cfg)
    ctrls, gammas = _build_controllers(synth_sys, cfg)
    r = cfg["resolved"]
    report = compare(synth_sys, ctrls, cfg["disturbance"], trials=r["trials"])
    names = list(ctrls) + [n for n, _ in cfg["controllers"] if n == "offline"]
    rows = [[t] + [report.time_averaged[n][:, t].mean() for n in names] for t in range(synth_sys.T)]
    out = csv_path or r["output"].get("csv", "simulate.csv")
    emit_csv(out, ["t"] + [f"cost_{n}" for n in names], rows)
    return report, gammas, out


@click.group()
def main():
    """Finite-horizon regret-optimal control synthesis and benchmarks."""


_OPTIONS = {
    "config": click.option("--config", "config_path", required=True, type=click.Path(exists=True)),
    "seed": click.option("--seed", type=int, default=None),
    "tol": click.option("--tol", type=float, default=None),
    "csv": click.option("--csv", "csv_path", type=click.Path(), default=None),
    "json": click.option("--json", "json_path", type=click.Path(), default=None),
}


def _options(*names):
    """Declare the named shared options on a subcommand, in this order."""

    def decorate(cmd):
        for name in reversed(names):
            cmd = _OPTIONS[name](cmd)
        return cmd

    return decorate


def _guarded(fn):
    """Turn any failure into a machine-readable error record on stderr plus a
    nonzero exit code."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # noqa: BLE001 - the CLI boundary
            record = {
                "error": {"type": type(e).__name__, "message": str(e)},
                "schema_version": SCHEMA_VERSION,
            }
            click.echo(json.dumps(record, sort_keys=True), err=True)
            _sys.exit(1)

    return wrapper


@main.command()
@_options("config", "seed", "tol", "json")
@_guarded
def gamma(config_path, seed, tol, json_path):
    """Bisect for the regret-optimal performance level."""
    cfg = _load(config_path, seed, tol)
    res, _ctrl = ct.regret_optimal(_augmented(cfg), cfg["resolved"]["tol"])
    click.echo(f"gamma_opt = {_float_repr(res.gamma_opt)}")
    if json_path:
        emit_json(
            json_path,
            {
                "config": cfg["resolved"],
                "gamma_opt": res.gamma_opt,
                "bracket_history": res.bracket_history,
                "iterations": res.iterations,
                "final_margins": res.final_margins,
            },
        )


@main.command()
@_options("config", "seed", "tol", "json")
@_guarded
def synth(config_path, seed, tol, json_path):
    """Synthesize the regret controller and export what its rollout reads
    besides the plant: the level, the gains K_xi and K_w, the observer's
    A_til and R^{-1/2}."""
    cfg = _load(config_path, seed, tol)
    _, s = ct.regret_optimal(_augmented(cfg), cfg["resolved"]["tol"])
    doc = {
        "config": cfg["resolved"],
        "gamma": s.gamma,
        "K_xi": s.K_xi,
        "K_w": s.K_w,
        "A_til": s.fwd.Atil,
        "R_inv_sqrt": s.norm.R_inv_sqrt,
    }
    out = json_path or cfg["resolved"]["output"].get("gains", "gains.json")
    emit_json(out, doc, CONTROLLER_SCHEMA)
    click.echo(f"gains written to {out}")


@main.command()
@_options("config", "seed", "tol", "csv", "json")
@_guarded
def simulate(config_path, seed, tol, csv_path, json_path):
    """Roll the configured controllers and write per-step time-averaged costs."""
    cfg = _load(config_path, seed, tol)
    report, gammas, out = _simulate(cfg, csv_path)
    click.echo(f"trace written to {out}")
    if json_path:
        emit_json(
            json_path,
            {
                "config": cfg["resolved"],
                "gamma_levels": gammas,
                "mean_total_costs": {n: c.mean() for n, c in report.total_costs.items()},
                "mean_offline_cost": report.offline_costs.mean(),
                "mean_realized_regret": {n: c.mean() for n, c in report.realized_regret.items()},
            },
        )


@main.command()
@_options("config", "seed", "tol", "json")
@_guarded
def certify(config_path, seed, tol, json_path):
    """Certify the regret controller's worst-case regret gain by the H-infinity analysis of its closed loop."""
    from . import operator_oracle as oo  # the only subcommand that loads the certificate

    cfg = _load(config_path, seed, tol)
    res, ctrl = ct.regret_optimal(_augmented(cfg), cfg["resolved"]["tol"])
    gain, witness = oo.regret_gain(ctrl, res.bracket_history)
    doc = {
        "config": cfg["resolved"],
        "gamma_opt": res.gamma_opt,
        "gamma_opt_squared": res.gamma_opt**2,
        "gain": gain,
        "witness": witness,
    }
    out = json_path or cfg["resolved"]["output"].get("certificate", "certificate.json")
    emit_json(out, doc, CONTROLLER_SCHEMA)
    click.echo(
        f"gamma_opt^2 = {_float_repr(res.gamma_opt ** 2)}, certified gain = {_float_repr(gain)}"
    )
    click.echo(f"certificate written to {out}")


PENDULUM_C = 0.1  # the c of pendulum_system's A


def pendulum_system(horizon: int) -> LqSystem:
    """Linearized inverted pendulum: A = [[1, 1], [1, 1-c]] with c =
    PENDULUM_C, B_u = [0, 1]', B_w = I, Q = I, R = 1, no terminal cost."""
    A = np.array([[1.0, 1.0], [1.0, 1.0 - PENDULUM_C]])
    B_u = np.array([[0.0], [1.0]])
    B_w = np.eye(2)
    return validate_system(
        LqSystem.time_invariant(A, B_u, B_w, np.eye(2), np.array([[1.0]]), horizon=horizon)
    )


@main.command()
@click.option("--mode", type=click.Choice(["stochastic", "alternating"]), default="stochastic")
@click.option("--horizon", type=int, default=100)
@click.option("--trials", type=int, default=50)
@_options("seed", "tol", "csv", "json")
@_guarded
def pendulum(mode, horizon, trials, seed, tol, csv_path, json_path):
    """Inverted-pendulum benchmark: stochastic N(0,1) noise or means
    alternating between +1 and -1 every 15 steps. A preset on simulate's
    path: the four default controllers on `pendulum_system(horizon)`."""
    horizon = _int_field(horizon, "horizon", 1)
    _check_budget(horizon, 2, 1)  # the pendulum's n and m, before its blocks are tiled
    if mode == "stochastic":
        disturbance = {"kind": "gaussian", "params": {"mean": [0.0, 0.0]}}
    else:
        disturbance = {"kind": "alternating", "params": {"mean": [1.0, 1.0], "period": 15}}
    fields = {"disturbance": disturbance, "trials": trials, "output": {"csv": f"pendulum_{mode}.csv"}}
    cfg = _resolve(pendulum_system(horizon), fields, seed, tol)
    r = cfg["resolved"]
    resolved = {
        "preset": "pendulum",
        "mode": mode,
        "horizon": horizon,
        "trials": r["trials"],
        "seed": r["seed"],
        "tol": r["tol"],
        "c": PENDULUM_C,
        "alternating_period": 15,
    }
    click.echo(json.dumps(resolved, sort_keys=True))
    report, gammas, out = _simulate(cfg, csv_path)
    click.echo(f"gamma_hinf = {_float_repr(gammas['hinf'])}")
    click.echo(f"gamma_regret = {_float_repr(gammas['regret'])}")
    click.echo(f"trace written to {out}")
    if json_path:
        emit_json(
            json_path,
            {
                "config": resolved,
                "gamma_hinf": gammas["hinf"],
                "gamma_regret": gammas["regret"],
                "mean_final_time_averaged": {n: a[:, -1].mean() for n, a in report.time_averaged.items()},
            },
        )


def run():
    """The process entry point, for `python -m regretctl.cli` and the
    `regretctl` script: move every object the imports made (numpy, click,
    this package) into the garbage collector's permanent generation, so its
    passes during the call and at exit never traverse them again, then run
    `main`. Those objects live until the process exits anyway. In-process
    callers of `main` freeze nothing."""
    gc.freeze()
    main()


if __name__ == "__main__":
    run()
