"""Configuration parsing, experiment orchestration, and bit-stable CSV/JSON
emission.

Subcommands: gamma (regret-level bisection), synth (gains export), simulate
(per-step cost CSV), certify (dense-oracle regret certificate), pendulum (the
inverted-pendulum benchmark presets).
"""

from __future__ import annotations

import json
import sys as _sys

import click
import numpy as np

from . import controllers as ct
from . import operator_oracle as oo
from .augmentation import augment_delay, augment_predictions, wrap_controller
from .sim_bench import DisturbanceSpec, compare
from .system_model import LqSystem, validate_system

SCHEMA_VERSION = "1"

_CONFIG_FIELDS = {
    "system",
    "horizon",
    "controllers",
    "lookahead",
    "delay",
    "disturbance",
    "trials",
    "seed",
    "tol",
    "output",
}
_DEFAULTS = {
    "controllers": ["h2", "hinf", "regret", "offline"],
    "lookahead": 0,
    "delay": 0,
    "disturbance": {"kind": "gaussian", "params": {}},
    "trials": 1,
    "seed": 0,
    "tol": 1e-6,
    "output": {},
}


class ConfigError(ValueError):
    pass


def _matrix(doc, field):
    try:
        return np.array(doc, dtype=float)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"field {field!r}: not a numeric array ({e})")


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


def parse_config(document) -> dict:
    """Validate a config document (dict or JSON text) and resolve defaults.

    Returns {"system": LqSystem, "resolved": echo-able dict, ...fields}.
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
    needed = {"A", "Bu", "Bw", "Q", "R"}
    if not isinstance(blocks, dict) or not needed <= set(blocks):
        raise ConfigError(f"field 'system.{mode}': needs fields {sorted(needed)} (optional QT)")
    extra = set(blocks) - needed - {"QT"}
    if extra:
        raise ConfigError(f"field 'system.{mode}': unknown fields {sorted(extra)}")
    if mode == "lti":
        if "horizon" not in document:
            raise ConfigError("missing required field 'horizon' for an lti system")
        T = _int_field(document["horizon"], "horizon", 1)
        sys = LqSystem.time_invariant(
            _matrix(blocks["A"], "A"),
            _matrix(blocks["Bu"], "Bu"),
            _matrix(blocks["Bw"], "Bw"),
            _matrix(blocks["Q"], "Q"),
            _matrix(blocks["R"], "R"),
            _matrix(blocks["QT"], "QT") if "QT" in blocks else None,
            horizon=T,
        )
    else:
        A = [_matrix(M, "A") for M in blocks["A"]]
        T = len(A)
        if "horizon" in document and _int_field(document["horizon"], "horizon", 1) != T:
            raise ConfigError("field 'horizon' disagrees with the ltv step count")
        QT = _matrix(blocks["QT"], "QT") if "QT" in blocks else np.zeros_like(A[0])
        sys = LqSystem.from_steps(
            A,
            [_matrix(M, "Bu") for M in blocks["Bu"]],
            [_matrix(M, "Bw") for M in blocks["Bw"]],
            [_matrix(M, "Q") for M in blocks["Q"]],
            [_matrix(M, "R") for M in blocks["R"]],
            QT,
        )
    try:
        sys = validate_system(sys)
    except ValueError as e:
        raise ConfigError(f"field 'system': {e}")

    cfg = dict(_DEFAULTS)
    cfg.update({k: v for k, v in document.items() if k not in ("system",)})
    cfg["horizon"] = sys.T
    if not isinstance(cfg["controllers"], list) or not cfg["controllers"]:
        raise ConfigError("field 'controllers': expected a non-empty list")
    names = set()
    for spec in cfg["controllers"]:
        name, level = spec, "auto"
        if isinstance(spec, dict) and len(spec) == 1:
            name, level = next(iter(spec.items()))
        if name not in ("h2", "hinf", "regret", "offline"):
            raise ConfigError(f"field 'controllers': unknown controller {spec!r}")
        if name in names:
            raise ConfigError(f"field 'controllers': controller {name!r} is listed more than once")
        names.add(name)
        if level != "auto" and not 0.0 < _number_field(level, f"controllers.{name}") < np.inf:
            raise ConfigError(f"field 'controllers.{name}': the level must be positive and finite")
    d = cfg["disturbance"]
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("field 'disturbance': needs a 'kind'")
    extra = set(d) - {"kind", "params", "seed"}
    if extra:
        raise ConfigError(f"field 'disturbance': unknown fields {sorted(extra)}")
    if not isinstance(d["kind"], str) or d["kind"] not in DisturbanceSpec.PARAMS:
        raise ConfigError(f"field 'disturbance.kind': unknown kind {d['kind']!r}")
    if not isinstance(d.get("params", {}), dict):
        raise ConfigError("field 'disturbance.params': expected an object")
    output = cfg["output"]
    if not isinstance(output, dict) or not all(isinstance(v, str) for v in output.values()):
        raise ConfigError("field 'output': expected an object of file paths")
    seed = _int_field(cfg["seed"], "seed", 0)
    lookahead = _int_field(cfg["lookahead"], "lookahead", 0)
    if lookahead > sys.T:
        raise ConfigError(f"field 'lookahead': must be at most the horizon {sys.T}, got {lookahead}")
    delay = _int_field(cfg["delay"], "delay", 0)
    if delay >= sys.T:
        raise ConfigError(f"field 'delay': must be less than the horizon {sys.T}, got {delay}")
    resolved = {
        "system": sysdoc,
        "horizon": sys.T,
        "controllers": cfg["controllers"],
        "lookahead": lookahead,
        "delay": delay,
        "disturbance": {
            "kind": d["kind"],
            "params": d.get("params", {}),
            "seed": _int_field(d.get("seed", seed), "disturbance.seed", 0),
        },
        "trials": _int_field(cfg["trials"], "trials", 1),
        "seed": seed,
        "tol": _number_field(cfg["tol"], "tol"),
        "output": output,
    }
    return {"system": sys, "resolved": resolved}


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


def _emit_cost_csv(path, report, names, T):
    """One row per step t < T: t, then each controller's time-averaged cost
    at t averaged over the trials."""
    rows = [[t] + [report.time_averaged[n][:, t].mean() for n in names] for t in range(T)]
    emit_csv(path, ["t"] + [f"cost_{n}" for n in names], rows)


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


def _layout(obj, inner, out):
    """Append the text `json.dumps(sort_keys=True, indent=2)` writes for obj
    to the chunk list out; `inner` is the newline and indentation of obj's
    items.

    Dicts, and sequences holding containers, are laid out here. A sequence
    of scalars (a 1-D array's `tolist()` among them) is one call of the C
    encoder whose item separator carries the indentation: the same text as
    the pure-Python encoder that `indent` selects.
    """
    if isinstance(obj, np.ndarray):
        obj = list(obj) if obj.ndim > 1 else obj.tolist()
    if isinstance(obj, dict) and obj:
        # the encoder's own key conversion: int, float, bool and None keys
        # become strings, other keys are refused
        opening, closing = "{", "}"
        items = [(json.dumps({k: None})[1:-7] + ": ", v) for k, v in sorted(obj.items())]
    elif isinstance(obj, (list, tuple)) and any(
        issubclass(t, (dict, list, tuple, np.ndarray)) for t in set(map(type, obj))
    ):
        opening, closing = "[", "]"
        items = [("", v) for v in obj]
    elif isinstance(obj, (list, tuple)) and obj:
        body = json.dumps(obj, separators=("," + inner, ": "), default=_plain)
        out.append("[" + inner + body[1:-1] + inner[:-2] + "]")
        return
    else:  # a scalar, {} or []
        out.append(json.dumps(obj, default=_plain))
        return
    out.append(opening)
    for i, (key, value) in enumerate(items):
        out.append(("," if i else "") + inner + key)
        _layout(value, inner + "  ", out)
    out.append(inner[:-2] + closing)


def emit_json(path, obj):
    """Stable key ordering, schema-version field, newline-terminated: the
    bytes of `json.dumps(doc, sort_keys=True, indent=2) + "\n"`. The whole
    text is built before the file is opened, so an unencodable value leaves
    no partial file."""
    doc = dict(obj)
    doc["schema_version"] = SCHEMA_VERSION
    chunks = []
    _layout(doc, "\n  ", chunks)
    chunks.append("\n")
    with open(path, "w") as f:
        f.writelines(chunks)


def _load(config_path, seed, tol):
    """Parse the config, apply the command-line overrides and echo the
    resolved config on stdout."""
    with open(config_path) as f:
        cfg = parse_config(f.read())
    if seed is not None:
        cfg["resolved"]["seed"] = int(seed)
        cfg["resolved"]["disturbance"]["seed"] = int(seed)
    if tol is not None:
        cfg["resolved"]["tol"] = float(tol)
    click.echo(json.dumps(cfg["resolved"], sort_keys=True, default=_plain))
    return cfg


def _augmented(cfg):
    sys = cfg["system"]
    r = cfg["resolved"]
    aug = None
    if r["delay"]:
        aug = augment_delay(sys, r["delay"])
        sys = aug.system
    if r["lookahead"]:
        aug = augment_predictions(sys, r["lookahead"])
        sys = aug.system
    return sys, aug


def _build_controllers(cfg, feasibility_test):
    """Instantiate the configured controllers on the (possibly augmented)
    synthesis system, wrapped back to base signals."""
    base = cfg["system"]
    synth_sys, aug = _augmented(cfg)
    tol = cfg["resolved"]["tol"]
    out = {}
    gammas = {}
    for spec in cfg["resolved"]["controllers"]:
        if isinstance(spec, str):
            name, level = spec, "auto"
        else:
            name, level = next(iter(spec.items()))
        if name == "h2":
            ctrl = ct.synthesize_h2(synth_sys)
        elif name == "hinf":
            if level == "auto":
                res, ctrl = ct.hinf_optimal(synth_sys, tol)
                gammas["hinf"] = res.gamma_opt
            else:
                ctrl = ct.synthesize_hinf(synth_sys, float(level))
                gammas["hinf"] = float(level)
        elif name == "regret":
            if level == "auto":
                res, ctrl = ct.regret_optimal(synth_sys, tol, feasibility_test)
                gammas["regret"] = res.gamma_opt
            else:
                ctrl = ct.regret_controller(synth_sys, float(level), feasibility_test)
                gammas["regret"] = float(level)
        elif name == "offline":
            out["offline_controller"] = ct.OfflineController(base)
            continue
        if aug is not None:
            ctrl = wrap_controller(aug, ctrl)
        out[name] = ctrl
    return out, gammas


@click.group()
def main():
    """Finite-horizon regret-optimal control synthesis and benchmarks."""


_common = [
    click.option("--config", "config_path", required=True, type=click.Path(exists=True)),
    click.option("--seed", type=int, default=None),
    click.option("--tol", type=float, default=None),
    click.option("--csv", "csv_path", type=click.Path(), default=None),
    click.option("--json", "json_path", type=click.Path(), default=None),
    click.option(
        "--feasibility-test",
        type=click.Choice(["level1", "printed"]),
        default="level1",
    ),
]


def _with_common(cmd):
    for opt in reversed(_common):
        cmd = opt(cmd)
    return cmd


def _guarded(fn):
    """Turn any failure into a machine-readable error record on stderr plus a
    nonzero exit code."""
    import functools

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
@_with_common
@_guarded
def gamma(config_path, seed, tol, csv_path, json_path, feasibility_test):
    """Bisect for the regret-optimal performance level."""
    cfg = _load(config_path, seed, tol)
    synth_sys, _ = _augmented(cfg)
    res, _ctrl = ct.regret_optimal(synth_sys, cfg["resolved"]["tol"], feasibility_test)
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
@_with_common
@_guarded
def synth(config_path, seed, tol, csv_path, json_path, feasibility_test):
    """Synthesize the regret controller and export its per-step gains."""
    cfg = _load(config_path, seed, tol)
    synth_sys, _ = _augmented(cfg)
    res, ctrl = ct.regret_optimal(synth_sys, cfg["resolved"]["tol"], feasibility_test)
    if not hasattr(ctrl, "synthesis"):
        raise click.ClickException("degenerate system: the zero controller has no gains to export")
    s = ctrl.synthesis
    doc = {
        "config": cfg["resolved"],
        "gamma": s.gamma,
        "feasibility_test": s.feasibility_test,
        "A_hat": s.Ahat,
        "B_hat_u": s.Bhat_u,
        "B_hat_w": s.Bhat_w,
        "P_hat": s.Phat,
        "K_bl": s.bwd.K_bl,
        "R_be": s.bwd.R_be,
        "A_til": s.fwd.Atil,
    }
    out = json_path or cfg["resolved"]["output"].get("gains", "gains.json")
    emit_json(out, doc)
    click.echo(f"gains written to {out}")


@main.command()
@_with_common
@_guarded
def simulate(config_path, seed, tol, csv_path, json_path, feasibility_test):
    """Roll the configured controllers and write per-step time-averaged costs."""
    cfg = _load(config_path, seed, tol)
    ctrls, gammas = _build_controllers(cfg, feasibility_test)
    offline_requested = ctrls.pop("offline_controller", None) is not None
    r = cfg["resolved"]
    spec = DisturbanceSpec(
        r["disturbance"]["kind"], r["disturbance"]["params"], seed=r["disturbance"]["seed"]
    )
    report = compare(cfg["system"], ctrls, spec, trials=r["trials"])
    names = list(ctrls)
    if offline_requested:
        names.append("offline")
    out = csv_path or r["output"].get("csv", "simulate.csv")
    _emit_cost_csv(out, report, names, cfg["system"].T)
    click.echo(f"trace written to {out}")
    if json_path:
        emit_json(
            json_path,
            {
                "config": r,
                "gamma_levels": gammas,
                "mean_total_costs": {n: report.total_costs[n].mean() for n in ctrls},
                "mean_offline_cost": report.offline_costs.mean(),
                "mean_realized_regret": {n: report.realized_regret[n].mean() for n in ctrls},
            },
        )


@main.command()
@_with_common
@_guarded
def certify(config_path, seed, tol, csv_path, json_path, feasibility_test):
    """Run the dense operator oracle on the synthesized regret controller."""
    cfg = _load(config_path, seed, tol)
    synth_sys, _ = _augmented(cfg)
    try:
        oo.check_size(synth_sys)
        res, ctrl = ct.regret_optimal(synth_sys, cfg["resolved"]["tol"], feasibility_test)
        from .system_model import normalize_control_weight

        ops = oo.build_operators(normalize_control_weight(synth_sys).system)
        K = oo.controller_operator(synth_sys, ctrl)
        cert = oo.worst_case_regret_gain(ops, K)
    except oo.SizeCapError as e:
        raise click.ClickException(str(e))
    doc = {
        "config": cfg["resolved"],
        "gamma_opt": res.gamma_opt,
        "gamma_opt_squared": res.gamma_opt**2,
        "gain": cert.gain,
        "witness": cert.witness,
        "controller_operator": cert.K,
        "regret_quadratic_form": cert.regret_quadratic_form,
    }
    out = json_path or cfg["resolved"]["output"].get("certificate", "certificate.json")
    emit_json(out, doc)
    click.echo(
        f"gamma_opt^2 = {_float_repr(res.gamma_opt ** 2)}, certified gain = {_float_repr(cert.gain)}"
    )
    click.echo(f"certificate written to {out}")


def pendulum_system(horizon: int, c: float = 0.1) -> LqSystem:
    """Linearized inverted pendulum: A = [[1, 1], [1, 1-c]], B_u = [0, 1]',
    B_w = I, Q = I, R = 1, no terminal cost."""
    A = np.array([[1.0, 1.0], [1.0, 1.0 - c]])
    B_u = np.array([[0.0], [1.0]])
    B_w = np.eye(2)
    return validate_system(
        LqSystem.time_invariant(A, B_u, B_w, np.eye(2), np.array([[1.0]]), horizon=horizon)
    )


@main.command()
@click.option("--mode", type=click.Choice(["stochastic", "alternating"]), default="stochastic")
@click.option("--horizon", type=int, default=100)
@click.option("--trials", type=int, default=50)
@click.option("--seed", type=int, default=0)
@click.option("--tol", type=float, default=1e-6)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
@click.option("--json", "json_path", type=click.Path(), default=None)
@click.option(
    "--feasibility-test", type=click.Choice(["level1", "printed"]), default="level1"
)
@_guarded
def pendulum(mode, horizon, trials, seed, tol, csv_path, json_path, feasibility_test):
    """Inverted-pendulum benchmark: stochastic N(0,1) noise or means
    alternating between +1 and -1 every 15 steps."""
    horizon = _int_field(horizon, "horizon", 1)
    trials = _int_field(trials, "trials", 1)
    sys = pendulum_system(horizon)
    resolved = {
        "preset": "pendulum",
        "mode": mode,
        "horizon": horizon,
        "trials": trials,
        "seed": seed,
        "tol": tol,
        "c": 0.1,
        "alternating_period": 15,
    }
    click.echo(json.dumps(resolved, sort_keys=True))
    h2 = ct.synthesize_h2(sys)
    hinf_res, hinf = ct.hinf_optimal(sys, tol)
    reg_res, regret = ct.regret_optimal(sys, tol, feasibility_test)
    if mode == "stochastic":
        spec = DisturbanceSpec("gaussian", {"mean": [0.0, 0.0]}, seed=seed)
    else:
        spec = DisturbanceSpec("alternating", {"mean": [1.0, 1.0], "period": 15}, seed=seed)
    report = compare(sys, {"h2": h2, "hinf": hinf, "regret": regret}, spec, trials=trials)
    out = csv_path or f"pendulum_{mode}.csv"
    _emit_cost_csv(out, report, ["h2", "hinf", "regret", "offline"], horizon)
    click.echo(f"gamma_hinf = {_float_repr(hinf_res.gamma_opt)}")
    click.echo(f"gamma_regret = {_float_repr(reg_res.gamma_opt)}")
    click.echo(f"trace written to {out}")
    if json_path:
        emit_json(
            json_path,
            {
                "config": resolved,
                "gamma_hinf": hinf_res.gamma_opt,
                "gamma_regret": reg_res.gamma_opt,
                "mean_final_time_averaged": {
                    n: report.time_averaged[n][:, -1].mean()
                    for n in ("h2", "hinf", "regret", "offline")
                },
            },
        )


if __name__ == "__main__":
    main()
