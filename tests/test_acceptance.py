"""Acceptance gate.

Each test exercises one release criterion end to end; a conftest hook prints
one "[criterion N] PASS/FAIL" line per test so the gate can be read off the
log. The criterion statement is the test docstring.
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from regretctl import controllers as ct
from regretctl import operator_oracle as oo
from regretctl import riccati
from regretctl.augmentation import augment_delay, augment_predictions
from regretctl.cli import main as cli_main
from regretctl.cli import pendulum_system
from regretctl.sim_bench import DisturbanceSpec, compare
from regretctl.system_model import evaluate_cost, normalize_control_weight
from helpers import random_system, s1


def _ops(sys):
    return oo.build_operators(normalize_control_weight(sys).system)


def _boot_lower_quantile(diff, seed, resamples=10000):
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(diff), (resamples, len(diff)))
    return np.quantile(diff[idx].mean(axis=1), 0.05)


def test_criterion_1_factorization_identities():
    """Kalman factorizations LL' = I+FF' and D'D = g^2 I + G'(I+FF')^-1 G, rel 1e-8, 25 systems x gamma in {0.5,1,2}, < 30 s"""
    t0 = time.perf_counter()
    for seed in range(25):
        sys = random_system(seed, n_max=3, m_max=3, p_max=3, T_max=15)
        norm = normalize_control_weight(sys)
        fwd = riccati.forward_kalman(norm)
        L = oo.dense_l_operator(norm, fwd)
        ops = oo.build_operators(norm.system)
        F, G = ops.F, ops.G
        tgt_l = np.eye(F.shape[0]) + F @ F.T
        assert np.linalg.norm(L @ L.T - tgt_l) <= 1e-8 * np.linalg.norm(tgt_l)
        inv = np.linalg.solve(tgt_l, G)
        for gamma in (0.5, 1.0, 2.0):
            bwd = riccati.backward_kalman(norm, fwd, gamma)
            D = oo.dense_delta_operator(norm, fwd, bwd)
            tgt_d = gamma**2 * np.eye(G.shape[1]) + G.T @ inv
            assert np.linalg.norm(D.T @ D - tgt_d) <= 1e-8 * np.linalg.norm(tgt_d)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_2_offline_equivalence():
    """state-space noncausal controller matches the dense offline solution to 1e-8 max-entry on 25 systems x 20 disturbances"""
    for seed in range(25):
        sys = random_system(seed + 100, T_max=10)
        norm = normalize_control_weight(sys)
        ops = oo.build_operators(norm.system)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            w = rng.standard_normal((sys.T, sys.p))
            u_ss = ct.OfflineController(sys).plan(w)
            u_dense, _ = oo.offline_optimal(ops, w.reshape(-1))
            u_dense = norm.to_original_u(u_dense.reshape(sys.T, sys.m))
            assert np.abs(u_ss - u_dense).max() <= 1e-8


def test_criterion_3_h2_equivalence():
    """state-space H2 controller agrees with the operator form to 1e-8; S1 impulse gives u = (-0.6, -0.2, 0), cost 0.6"""
    for seed in range(10):
        sys = random_system(seed + 200, T_max=10)
        K_probe = oo.controller_operator(sys, ct.synthesize_h2(sys))
        K_op = oo.h2_operator_form(_ops(sys))
        assert np.abs(K_probe - K_op).max() <= 1e-8
    u = ct.synthesize_h2(s1()).control_sequence([[1.0], [0.0], [0.0]])
    assert np.abs(u[:, 0] - [-0.6, -0.2, 0.0]).max() <= 1e-10
    assert abs(evaluate_cost(s1(), [1, 0, 0], u).total_cost - 0.6) <= 1e-10


def test_criterion_4_regret_bound():
    """realized regret < gamma^2 ||w||^2 with zero violations, 1000 disturbances per system, every feasible level tested"""
    systems = [s1(), random_system(301, T_max=6), random_system(302, T_max=6)]
    for i, sys in enumerate(systems):
        res, _ = ct.regret_optimal(sys, tol=1e-8)
        cost_form = oo.offline_cost_form(_ops(sys))
        norm = normalize_control_weight(sys)
        for mult in (1.01, 1.5, 2.0, 5.0):
            gamma = mult * res.gamma_opt
            ctrl = ct.regret_controller(sys, gamma)
            K = oo.controller_operator(sys, ctrl)
            ops = oo.build_operators(norm.system)
            rng = np.random.default_rng(1000 * i + int(100 * mult))
            W = rng.standard_normal((1000, sys.T * sys.p))
            for w in W:
                u = K @ w
                s = ops.F @ u + ops.G @ w
                cost = s @ s + u @ u
                regret = cost - w @ cost_form @ w
                assert regret < gamma**2 * (w @ w)


def test_criterion_5_optimality_certificate():
    """gamma_opt^2 matches the certificate's top eigenvalue to 1e-4 rel on 10 systems and never exceeds the H2 / H-infinity certificates (strictly smaller somewhere)"""
    strictly_smaller = False
    for seed in range(10):
        sys = random_system(seed + 400, n_max=2, m_max=2, p_max=2, T_max=8)
        assert sys.T * max(sys.n, sys.m, sys.p) <= 60
        res, ctrl = ct.regret_optimal(sys, tol=1e-8)
        ops = _ops(sys)
        cert = oo.worst_case_regret_gain(ops, oo.controller_operator(sys, ctrl))
        assert abs(cert.gain - res.gamma_opt**2) <= 1e-4 * max(cert.gain, 1e-12)
        h2_gain = oo.worst_case_regret_gain(
            ops, oo.controller_operator(sys, ct.synthesize_h2(sys))
        ).gain
        _, hinf = ct.hinf_optimal(sys, tol=1e-8)
        hinf_gain = oo.worst_case_regret_gain(ops, oo.controller_operator(sys, hinf)).gain
        assert res.gamma_opt**2 <= h2_gain * (1 + 1e-6)
        assert res.gamma_opt**2 <= hinf_gain * (1 + 1e-6)
        if res.gamma_opt**2 < min(h2_gain, hinf_gain) * (1 - 1e-6):
            strictly_smaller = True
    assert strictly_smaller


def test_criterion_6_structure_theorem():
    """the (1,1) block of the transformed value recursion equals the LQR Riccati tape to 1e-8 for all steps, systems, and feasible levels"""
    systems = [s1(), s1(Q_T=[[1.0]])] + [
        random_system(seed + 500, n_max=2, T_max=8) for seed in range(8)
    ]
    for sys in systems:
        # the level the bisection's controller is synthesized at: gamma_opt,
        # or the last feasible probe where gamma_opt reads 0.0 (seed 504)
        _, ctrl = ct.regret_optimal(sys, tol=1e-8)
        for mult in (1.02, 1.5, 3.0):
            syn = ct.synthesize_regret(sys, mult * ctrl.gamma)
            assert syn.feasible
            rep = ct.structure_check(syn)
            assert rep.max_p11_deviation <= 1e-8


def test_criterion_7_prediction_delay_monotonicity():
    """gamma_opt non-increasing in lookahead (zero at full lookahead), non-decreasing in short delays, and both augmentations cost-equivalent to 1e-10"""
    for sys in (s1(T=4), random_system(601, n_max=2, p_max=2, T_max=6)):
        gammas_h = [
            ct.regret_optimal(augment_predictions(sys, h).system, tol=1e-8)[0].gamma_opt
            for h in range(sys.T + 1)
        ]
        for a, b in zip(gammas_h, gammas_h[1:]):
            assert b <= a + 1e-8
        assert gammas_h[-1] <= 1e-6
        gammas_d = [
            ct.regret_optimal(augment_delay(sys, d).system, tol=1e-8)[0].gamma_opt
            for d in range(sys.T // 2 + 1)
        ]
        for a, b in zip(gammas_d, gammas_d[1:]):
            assert b >= a - 1e-8
    rng = np.random.default_rng(0)
    for seed in range(5):
        sys = random_system(seed + 650, T_max=8)
        h = int(rng.integers(1, sys.T + 1))
        d = int(rng.integers(1, sys.T))
        u = rng.standard_normal((sys.T, sys.m))
        w = rng.standard_normal((sys.T, sys.p))
        # prediction: disturbances entering after the preview window
        wp = w.copy()
        wp[:h] = 0.0
        aug = augment_predictions(sys, h)
        base = evaluate_cost(sys, wp, u).total_cost
        lifted = evaluate_cost(aug.system, aug.base_disturbance_to_augmented(wp), u).total_cost
        assert abs(base - lifted) <= 1e-10 * (1 + abs(base))
        # delay: the augmented plant equals the delayed-actuation plant
        aug = augment_delay(sys, d)
        x = np.zeros(sys.n)
        cost = 0.0
        for t in range(sys.T):
            cost += x @ sys.Q[t] @ x + u[t] @ sys.R[t] @ u[t]
            fed = sys.B_u[t - d] @ u[t - d] if t >= d else 0.0
            x = sys.A[t] @ x + fed + sys.B_w[t] @ w[t]
        cost += x @ sys.Q_T @ x
        assert abs(cost - evaluate_cost(aug.system, w, u).total_cost) <= 1e-10 * (1 + abs(cost))


def test_criterion_8_pendulum_orderings():
    """pendulum benchmark, 50 trials, horizon 100: stochastic ordering offline <= H2 <= regret <= H-infinity and alternating regret < H2 (95% bootstrap), regret within 15% of H-infinity, < 60 s"""
    # warm any JIT compilation outside the timed window
    warm = pendulum_system(10)
    ct.regret_optimal(warm, tol=1e-3)
    ct.hinf_optimal(warm, tol=1e-3)
    compare(warm, {"h2": ct.synthesize_h2(warm)}, DisturbanceSpec("gaussian", {}, seed=0), trials=1)

    t0 = time.perf_counter()
    sys = pendulum_system(100)
    h2 = ct.synthesize_h2(sys)
    _, hinf = ct.hinf_optimal(sys, tol=1e-6)
    _, regret = ct.regret_optimal(sys, tol=1e-6)
    ctrls = {"h2": h2, "hinf": hinf, "regret": regret}

    stoch = compare(sys, ctrls, DisturbanceSpec("gaussian", {"mean": [0.0, 0.0]}, seed=0), trials=50)
    finals = {n: stoch.time_averaged[n][:, -1] for n in ("offline", "h2", "regret", "hinf")}
    order = ["offline", "h2", "regret", "hinf"]
    for lo, hi in zip(order, order[1:]):
        assert _boot_lower_quantile(finals[hi] - finals[lo], seed=17) >= 0.0

    alt = compare(
        sys,
        ctrls,
        DisturbanceSpec("alternating", {"mean": [1.0, 1.0], "period": 15}, seed=0),
        trials=50,
    )
    alt_finals = {n: alt.time_averaged[n][:, -1] for n in ("h2", "regret", "hinf")}
    assert _boot_lower_quantile(alt_finals["h2"] - alt_finals["regret"], seed=23) > 0.0
    m_regret = alt_finals["regret"].mean()
    m_hinf = alt_finals["hinf"].mean()
    assert abs(m_regret - m_hinf) / m_hinf <= 0.15
    assert time.perf_counter() - t0 < 60.0


def test_criterion_9_cli_determinism(tmp_path):
    """identical config and seed produce byte-identical CSV/JSON across CLI reruns"""
    config = {
        "system": {
            "lti": {"A": [[1.0]], "Bu": [[1.0]], "Bw": [[1.0]], "Q": [[1.0]], "R": [[1.0]]}
        },
        "horizon": 3,
        "trials": 3,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    runner = CliRunner()
    artifacts = []
    for run in range(2):
        csv_out = tmp_path / f"sim{run}.csv"
        json_out = tmp_path / f"gamma{run}.json"
        r1 = runner.invoke(
            cli_main, ["simulate", "--config", str(cfg), "--csv", str(csv_out), "--seed", "7"]
        )
        r2 = runner.invoke(
            cli_main, ["gamma", "--config", str(cfg), "--json", str(json_out), "--seed", "7"]
        )
        assert r1.exit_code == 0 and r2.exit_code == 0
        artifacts.append((csv_out.read_bytes(), json_out.read_bytes()))
    assert artifacts[0] == artifacts[1]
