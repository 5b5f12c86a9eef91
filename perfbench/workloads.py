"""The four benchmark workloads: seeded inputs, CLI command, set-up probe and
output check.

Each workload writes its inputs into a directory from the benchmark seed
alone, so the same seed always gives the same files and arguments. The
program sees only those files and arguments. numpy is imported inside the
functions that need it, because the measuring process imports this module
and must not load numpy (see child.py).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

PENDULUM_LTI = {
    "A": [[1.0, 1.0], [1.0, 0.9]],
    "Bu": [[0.0], [1.0]],
    "Bw": [[1.0, 0.0], [0.0, 1.0]],
    "Q": [[1.0, 0.0], [0.0, 1.0]],
    "R": [[1.0]],
}


class CheckError(AssertionError):
    """A CLI call finished but its outputs are wrong."""


@dataclass(frozen=True)
class Workload:
    """One named workload.

    `inputs(seed, sizes, directory)` writes the input files and returns the
    CLI arguments (after `python -m regretctl.cli`). Output paths in those
    arguments are relative, so each call writes into its working directory.
    `check(call_dir, sizes, reference)` raises CheckError on a wrong output.
    `setup(argv, sizes)` builds and validates the workload's system and
    applies its augmentations, without synthesis. `reference` holds the
    outputs recorded when the benchmark was added, for workloads whose
    result does not depend on the seed.
    """

    name: str
    why: str
    sizes: dict
    inputs: Callable[[int, dict, Path], list]
    check: Callable[[Path, dict, dict], None]
    setup: Callable[[list, dict], object]
    reference: dict = field(default_factory=dict)


def derived_seed(seed: int, stream: int) -> int:
    """A 31-bit program seed drawn from the benchmark seed."""
    import numpy as np

    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0] & 0x7FFFFFFF)


def _write_config(directory: Path, doc: dict) -> str:
    path = directory / "config.json"
    path.write_text(json.dumps(doc))
    return str(path.resolve())


def _config_arg(argv: list) -> str:
    return argv[argv.index("--config") + 1]


def _parse_config(argv):
    from regretctl.cli import parse_config

    with open(_config_arg(argv)) as f:
        return parse_config(f.read())


def _close(value, ref, rel, what):
    if not abs(value - ref) <= rel * abs(ref):
        raise CheckError(f"{what} = {value!r}, reference {ref!r} (allowed relative error {rel:g})")


def _load_json(path: Path) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise CheckError(f"cannot read {path.name}: {e}")


def _read_csv(path: Path):
    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        raise CheckError(f"cannot read {path.name}: {e}")
    if not rows:
        raise CheckError(f"{path.name} is empty")
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


# W1: regret-level bisection alone.


def _gamma_inputs(seed, sizes, directory):
    doc = {"system": {"lti": PENDULUM_LTI}, "horizon": sizes["horizon"], "tol": sizes["tol"]}
    return ["gamma", "--config", _write_config(directory, doc), "--json", "gamma.json"]


def _gamma_check(call_dir, sizes, reference):
    doc = _load_json(call_dir / "gamma.json")
    _close(doc["gamma_opt"], reference["gamma_opt"], 2 * sizes["tol"], "gamma_opt")


# W2: the paper's pendulum experiment with alternating disturbance means.


def _pendulum_inputs(seed, sizes, directory):
    return [
        "pendulum", "--mode", "alternating",
        "--horizon", str(sizes["horizon"]), "--trials", str(sizes["trials"]),
        "--seed", str(derived_seed(seed, 2)), "--tol", repr(sizes["tol"]),
        "--csv", "pendulum.csv", "--json", "pendulum.json",
    ]


def _pendulum_check(call_dir, sizes, reference):
    doc = _load_json(call_dir / "pendulum.json")
    for key in ("gamma_hinf", "gamma_regret"):
        _close(doc[key], reference[key], 2 * sizes["tol"], key)
    final = doc["mean_final_time_averaged"]
    if not final["regret"] < final["h2"]:
        raise CheckError(f"alternating ordering regret < h2 fails: {final}")
    if not abs(final["regret"] - final["hinf"]) <= 0.15 * final["hinf"]:
        raise CheckError(f"regret is not within 15% of hinf: {final}")
    header, rows = _read_csv(call_dir / "pendulum.csv")
    if header != ["t", "cost_h2", "cost_hinf", "cost_regret", "cost_offline"]:
        raise CheckError(f"unexpected pendulum.csv header {header}")
    if len(rows) != sizes["horizon"]:
        raise CheckError(f"pendulum.csv has {len(rows)} rows, expected {sizes['horizon']}")


def _pendulum_setup(argv, sizes):
    from regretctl.cli import pendulum_system

    return pendulum_system(sizes["horizon"])


# W3: dense-oracle certificate of a seeded random LTV system.


def random_ltv(seed: int, n: int, m: int, p: int, T: int) -> dict:
    """A random LTV system document: A_t scaled to spectral radius 0.85,
    random PSD Q_t, PD R_t and a terminal cost."""
    import numpy as np

    rng = np.random.default_rng(derived_seed(seed, 3))
    blocks = {k: [] for k in ("A", "Bu", "Bw", "Q", "R")}
    for _ in range(T):
        M = rng.standard_normal((n, n))
        blocks["A"].append(M * (0.85 / max(np.abs(np.linalg.eigvals(M)).max(), 1e-6)))
        blocks["Bu"].append(rng.standard_normal((n, m)))
        blocks["Bw"].append(rng.standard_normal((n, p)))
        C = rng.standard_normal((n, n))
        blocks["Q"].append(C.T @ C / n)
        D = rng.standard_normal((m, m))
        blocks["R"].append(D.T @ D / m + 0.5 * np.eye(m))
    E = rng.standard_normal((n, n))
    blocks["QT"] = E.T @ E / n
    return {k: np.asarray(v).tolist() for k, v in blocks.items()}


def _certify_inputs(seed, sizes, directory):
    system = random_ltv(seed, sizes["n"], sizes["m"], sizes["p"], sizes["horizon"])
    doc = {"system": {"ltv": system}, "tol": sizes["tol"]}
    return ["certify", "--config", _write_config(directory, doc), "--json", "certificate.json"]


def _certify_check(call_dir, sizes, reference):
    doc = _load_json(call_dir / "certificate.json")
    _close(doc["gain"], doc["gamma_opt_squared"], 1e-4, "certified gain vs gamma_opt^2")
    expected = sizes["horizon"] * sizes["p"]
    if len(doc["witness"]) != expected:
        raise CheckError(f"witness has {len(doc['witness'])} entries, expected {expected}")


def _config_setup(argv, sizes):
    return _parse_config(argv)["system"]


# W4: all four controllers through the lookahead and delay augmentations.


def _simulate_inputs(seed, sizes, directory):
    doc = {
        "system": {"lti": PENDULUM_LTI},
        "horizon": sizes["horizon"],
        "lookahead": sizes["lookahead"],
        "delay": sizes["delay"],
        "disturbance": {"kind": "alternating", "params": {"mean": [1.0, 1.0], "period": 15}},
        "trials": sizes["trials"],
        "seed": derived_seed(seed, 4),
        "tol": sizes["tol"],
        "controllers": ["h2", "hinf", "regret", "offline"],
    }
    return ["simulate", "--config", _write_config(directory, doc), "--csv", "simulate.csv"]


def _simulate_check(call_dir, sizes, reference):
    header, rows = _read_csv(call_dir / "simulate.csv")
    names = ["h2", "hinf", "regret", "offline"]
    if header != ["t"] + [f"cost_{n}" for n in names]:
        raise CheckError(f"unexpected simulate.csv header {header}")
    if len(rows) != sizes["horizon"] or any(len(r) != len(header) for r in rows):
        raise CheckError(f"simulate.csv has {len(rows)} rows, expected {sizes['horizon']}")
    if not all(math.isfinite(v) for row in rows for v in row):
        raise CheckError("simulate.csv holds a non-finite cost")
    last = dict(zip(header, rows[-1]))
    for n in names[:-1]:
        if not last["cost_offline"] <= last[f"cost_{n}"]:
            raise CheckError(f"offline cost exceeds {n} at t = T-1: {last}")


def _augmented_setup(argv, sizes):
    from regretctl.augmentation import augment_delay, augment_predictions

    sys = _config_setup(argv, sizes)
    sys = augment_delay(sys, sizes["delay"]).system
    return augment_predictions(sys, min(sizes["lookahead"], sys.T)).system


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gamma-pendulum-T1000",
            why="regret bisection alone: 23 syntheses on 2x2 and 4x4 blocks, bound by per-step "
            "interpreter overhead and gamma-independent recomputation; no simulation or oracle",
            sizes={"horizon": 1000, "tol": 1e-6},
            inputs=_gamma_inputs,
            check=_gamma_check,
            setup=_config_setup,
            reference={"gamma_opt": 1.718541145324707},
        ),
        Workload(
            name="pendulum-alt-T100x200",
            why="the paper's experiment: compare over 200 trials takes about 90% and synthesis "
            "10%, so a simulate-side change shows and a bisection change barely does",
            sizes={"horizon": 100, "trials": 200, "tol": 1e-6},
            inputs=_pendulum_inputs,
            check=_pendulum_check,
            setup=_pendulum_setup,
            reference={"gamma_hinf": 1.8820199966430664, "gamma_regret": 1.7185392379760742},
        ),
        Workload(
            name="certify-ltv8-T120",
            why="the only workload with the dense oracle, LTV data, a doubled state of 16 and a "
            "12 MB JSON output; T*max(n,m,p) = 960 stays under the 2000 cap",
            sizes={"n": 8, "m": 4, "p": 4, "horizon": 120, "tol": 1e-6},
            inputs=_certify_inputs,
            check=_certify_check,
            setup=_config_setup,
        ),
        Workload(
            name="simulate-pendulum-h3d1",
            why="the only workload through augmentation and WrappedController, whose nested "
            "rollout on the 9-state plant uses sim_bench differently from the pendulum run",
            sizes={"horizon": 100, "lookahead": 3, "delay": 1, "trials": 100, "tol": 1e-6},
            inputs=_simulate_inputs,
            check=_simulate_check,
            setup=_augmented_setup,
        ),
    )
}
