"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

W1 = "gamma-pendulum-T1000"
W3 = "certify-ltv8-T120"
SMALL_T = 40


@pytest.fixture(scope="module")
def small_gamma():
    """W1 at a small horizon, with the reference computed here."""
    from regretctl import controllers as ct
    from regretctl.cli import pendulum_system

    wl = WORKLOADS[W1]
    sizes = dict(wl.sizes, horizon=SMALL_T)
    res, _ = ct.regret_optimal(pendulum_system(SMALL_T), sizes["tol"])
    return replace(wl, sizes=sizes, reference={"gamma_opt": res.gamma_opt})


def test_tracer_installs_every_listed_binding_and_restores_it():
    from regretctl import (
        augmentation,
        cli,
        controllers,
        kernels,
        operator_oracle,
        riccati,
        sim_bench,
        system_model,
    )

    listed = [(kernels, k) for k in (
        "lqr_backward", "hinf_backward", "forward_kalman", "backward_kalman",
        "regret_phat_backward", "rollout_feedback", "rollout_regret",
    )] + [
        (riccati, "backward_lqr"), (riccati, "backward_hinf"),
        (riccati, "forward_kalman"), (riccati, "backward_kalman"),
        (controllers, "synthesize_regret"), (controllers, "regret_optimal"),
        (system_model, "psd_sqrt"), (riccati, "psd_sqrt"), (riccati, "pd_inv_sqrt"),
        (operator_oracle, "psd_sqrt"), (sim_bench, "evaluate_cost"), (sim_bench, "compare"),
        (cli, "compare"), (cli, "augment_delay"), (cli, "augment_predictions"),
        (controllers, "normalize_control_weight"), (cli, "validate_system"),
        (controllers.OfflineController, "plan"),
        (augmentation.WrappedController, "control_sequence"),
    ]
    before = {(owner, attr): vars(owner)[attr] for owner, attr in listed}
    with tracer.installed(tracer.Tracer()):
        for (owner, attr), original in before.items():
            wrapped = vars(owner)[attr]
            assert wrapped is not original, f"{owner.__name__}.{attr} not wrapped"
            assert wrapped.__traced__ is original
    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"
    leftovers = [
        (name, attr)
        for name, module in sys.modules.items()
        if name.startswith("regretctl")
        for attr, obj in vars(module).items()
        if hasattr(obj, "__traced__")
    ]
    assert leftovers == []


def test_traced_and_untraced_calls_write_identical_bytes(tmp_path, small_gamma):
    result = run.run(small_gamma, seed=0, seconds=0.1, trace=True, work=tmp_path)
    assert result["correct"], result["errors"]
    plain = sorted((tmp_path / "plain").iterdir())
    assert [p.name for p in plain] == ["cli.stderr", "cli.stdout", "gamma.json"]
    for p in plain:
        assert p.read_bytes() == (tmp_path / "traced" / p.name).read_bytes()
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["controllers.bisect.probes"] == metrics["riccati.forward_kalman.calls"] > 0
    assert metrics["kernels.forward_kalman.steps"] == SMALL_T * metrics["kernels.forward_kalman.calls"]
    assert metrics["trace.coverage"] >= 0.9


def test_wrong_reference_drives_error_rate_to_one(tmp_path, small_gamma):
    wrong = replace(small_gamma, reference={"gamma_opt": 2 * small_gamma.reference["gamma_opt"]})
    result = run.run(wrong, seed=0, seconds=0.1, trace=False, work=tmp_path)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert not result["correct"]
    assert "gamma_opt" in result["errors"][0]


def test_same_seed_same_inputs(tmp_path):
    wl = WORKLOADS[W3]
    sizes = dict(wl.sizes, horizon=5)
    configs = []
    for i, seed in enumerate((7, 7, 8)):
        d = tmp_path / str(i)
        d.mkdir()
        argv = wl.inputs(seed, sizes, d)
        configs.append(Path(argv[argv.index("--config") + 1]).read_bytes())
    assert configs[0] == configs[1] != configs[2]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == [HERE.name]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.PER_LAYER


def test_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / HERE.name).mkdir()
    for p in HERE.glob("*.py"):
        shutil.copy(p, tmp_path / HERE.name)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", W1, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
