import re

import numpy as np
import pytest

from regretctl import controllers as ct
from regretctl.sim_bench import (
    ComparisonReport,
    DisturbanceError,
    DisturbanceSpec,
    compare,
    controls,
    rollout,
)
from regretctl.system_model import evaluate_cost, normalize_control_weight
from helpers import generate, random_system, s1
import dense_oracle as dense


class TestDisturbanceSpec:
    def test_constant_zero(self):
        spec = DisturbanceSpec("constant", {"vector": 0.0})
        assert not generate(spec, 10, 2).any()

    def test_alternating_sign_pattern(self):
        spec = DisturbanceSpec("alternating", {"mean": 1.0, "period": 15}, seed=0)
        w = generate(spec, 45, 1)
        blocks = w.reshape(3, 15)
        means = blocks.mean(axis=1)
        assert means[0] > 0 and means[1] < 0 and means[2] > 0

    def test_deterministic_given_seed(self):
        spec = DisturbanceSpec("gaussian", {}, seed=42)
        assert np.array_equal(generate(spec, 8, 3), generate(spec, 8, 3))

    def test_gaussian_covariance_shape_check(self):
        spec = DisturbanceSpec("gaussian", {"cov": np.eye(3)}, seed=0)
        with pytest.raises(ValueError, match="cov"):
            generate(spec, 5, 2)

    def test_sinusoid_and_constant(self):
        w = generate(DisturbanceSpec("sinusoid", {"amplitude": 2.0, "frequency": 0.25}), 4, 1)
        assert w[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert w[1, 0] == pytest.approx(2.0, abs=1e-12)
        w = generate(DisturbanceSpec("constant", {"vector": [1.0, -1.0]}), 3, 2)
        assert np.allclose(w, [[1.0, -1.0]] * 3)

    @pytest.mark.parametrize("period", [2.7, True, "3", 0.5, 0, -2, None])
    def test_alternating_period_must_be_a_positive_integer(self, period):
        with pytest.raises(ValueError, match=re.escape(f"period must be a positive integer, got {period!r}")):
            DisturbanceSpec("alternating", {"mean": 1.0, "period": period})

    def test_alternating_integer_period_types(self):
        w = generate(DisturbanceSpec("alternating", {"mean": 1.0, "period": 2}, seed=1), 6, 1)
        w_np = generate(DisturbanceSpec("alternating", {"mean": 1.0, "period": np.int64(2)}, seed=1), 6, 1)
        assert np.array_equal(w, w_np)

    @pytest.mark.parametrize(
        "kind, params, key",
        [
            ("alternating", {"periode": 2}, "periode"),
            ("gaussian", {"mean": 0.0, "period": 3}, "period"),
            ("sinusoid", {"vector": 1.0}, "vector"),
            ("constant", {"mean": 1.0}, "mean"),
            ("worst_case", {"witness": [0.0] * 3, "seed": 1}, "seed"),
        ],
    )
    def test_unread_parameter_refused(self, kind, params, key):
        with pytest.raises(ValueError, match=f"{kind} disturbance has no parameter {key!r}"):
            DisturbanceSpec(kind, params)

    @pytest.mark.parametrize(
        "kind, params, key, need",
        [
            ("sinusoid", {"frequency": "0.25"}, "frequency", "numeric"),
            ("sinusoid", {"amplitude": True}, "amplitude", "numeric"),
            ("sinusoid", {"phase": None}, "phase", "numeric"),
            ("gaussian", {"mean": [1.0, True]}, "mean", "numeric"),
            ("gaussian", {"cov": [["1", 0.0], [0.0, 1.0]]}, "cov", "numeric"),
            ("gaussian", {"cov": np.eye(2, dtype=bool)}, "cov", "numeric"),
            ("alternating", {"mean": "1"}, "mean", "numeric"),
            ("constant", {"vector": [np.True_, 1.0]}, "vector", "numeric"),
            ("worst_case", {}, "witness", "numeric"),
            # json reads NaN and Infinity as floats
            ("constant", {"vector": np.nan}, "vector", "finite"),
            ("gaussian", {"mean": np.inf}, "mean", "finite"),
            ("gaussian", {"cov": [[1.0, 0.0], [0.0, -np.inf]]}, "cov", "finite"),
            ("sinusoid", {"frequency": np.nan}, "frequency", "finite"),
            ("worst_case", {"witness": [0.0, np.nan]}, "witness", "finite"),
            # and a long run of digits as a Python int that no float holds
            ("gaussian", {"mean": 10**400}, "mean", "finite"),
            ("constant", {"vector": [1.0, -(10**400)]}, "vector", "finite"),
            ("worst_case", {"witness": [[0.0], [10**400]]}, "witness", "finite"),
        ],
    )
    def test_bool_or_string_for_a_number_refused(self, kind, params, key, need):
        with pytest.raises(DisturbanceError, match=f"disturbance parameter {key!r} must be {need}") as info:
            DisturbanceSpec(kind, params)
        assert info.value.field == "params"

    def test_valid_params_keep_their_bits(self):
        w = generate(DisturbanceSpec("alternating", {"mean": [1.0, 1.0], "period": 15}, seed=3), 40, 2)
        signs = np.where((np.arange(40) // 15) % 2 == 0, 1.0, -1.0)
        noise = np.random.Generator(np.random.PCG64(3)).standard_normal((40, 2))
        assert np.array_equal(w, signs[:, None] * np.array([1.0, 1.0])[None, :] + noise)
        a = generate(DisturbanceSpec("sinusoid", {"amplitude": [2, 1], "frequency": 0.25, "phase": 1}), 5, 2)
        b = generate(DisturbanceSpec(
            "sinusoid", {"amplitude": np.array([2.0, 1.0]), "frequency": np.float64(0.25), "phase": 1.0}
        ), 5, 2)
        assert np.array_equal(a, b)
        c = generate(DisturbanceSpec("gaussian", {"mean": 0.5, "cov": [[2.0, 0.5], [0.5, 1.0]]}, seed=2), 6, 2)
        d = np.random.Generator(np.random.PCG64(2)).multivariate_normal(
            np.full(2, 0.5), np.array([[2.0, 0.5], [0.5, 1.0]]), size=6, method="cholesky"
        )
        assert np.array_equal(c, d)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind 'perlin'"):
            DisturbanceSpec("perlin", {})

    def test_worst_case_witness_replay(self):
        sys = s1()
        res, ctrl = ct.regret_optimal(sys, tol=1e-8)
        ops = dense.build_operators(normalize_control_weight(sys).system)
        cert = dense.worst_case_regret_gain(ops, dense.controller_operator(sys, ctrl))
        spec = DisturbanceSpec("worst_case", {"witness": cert.witness})
        w = generate(spec, sys.T, sys.p)
        cost = rollout(sys, ctrl, w).total_cost
        _, off = dense.offline_optimal(ops, w.reshape(-1))
        ratio = (cost - off) / (w**2).sum()
        assert ratio == pytest.approx(res.gamma_opt**2, rel=1e-4)


class TestRollout:
    def test_zero_controller_cost(self):
        sys = s1()
        traj = rollout(sys, ct.ZeroController(sys), [[1.0], [0.0], [0.0]])
        assert traj.total_cost == pytest.approx(2.0, abs=1e-12)

    def test_h2_cost(self):
        sys = s1()
        traj = rollout(sys, ct.synthesize_h2(sys), [[1.0], [0.0], [0.0]])
        assert traj.total_cost == pytest.approx(0.6, abs=1e-10)

    def test_zero_disturbance_all_controllers(self):
        sys = s1()
        res, regret = ct.regret_optimal(sys, tol=1e-6)
        controllers = [
            ct.synthesize_h2(sys),
            ct.hinf_optimal(sys, 1e-6)[1],
            regret,
            ct.OfflineController(sys),
        ]
        for ctrl in controllers:
            assert rollout(sys, ctrl, np.zeros((3, 1))).total_cost == 0.0

    def test_nonfinite_control_rejected(self):
        sys = s1()

        class Broken:
            def control_sequence(self, w):
                return np.full(w.shape[:-2] + (sys.T, sys.m), np.inf)

        with pytest.raises(ArithmeticError, match="non-finite"):
            rollout(sys, Broken(), np.ones((3, 1)))

    def test_dynamics_satisfied(self):
        sys = random_system(13, T_max=8)
        ctrl = ct.synthesize_h2(sys)
        rng = np.random.default_rng(5)
        w = rng.standard_normal((sys.T, sys.p))
        traj = rollout(sys, ctrl, w)
        for t in range(sys.T):
            nxt = sys.A[t] @ traj.x[t] + sys.B_u[t] @ traj.u[t] + sys.B_w[t] @ w[t]
            assert np.allclose(traj.x[t + 1], nxt, atol=1e-12)


class TestCompare:
    def test_zero_disturbance_all_zero(self):
        sys = s1()
        spec = DisturbanceSpec("constant", {"vector": 0.0})
        report = compare(sys, {"h2": ct.synthesize_h2(sys)}, spec, trials=1)
        assert report.total_costs["h2"][0] == 0.0
        assert not report.time_averaged["h2"].any()
        assert not report.time_averaged["offline"].any()

    def test_h2_beats_hinf_on_iid_noise(self):
        sys = s1(T=8)
        h2 = ct.synthesize_h2(sys)
        _, hinf = ct.hinf_optimal(sys, 1e-6)
        spec = DisturbanceSpec("gaussian", {}, seed=3)
        report = compare(sys, {"h2": h2, "hinf": hinf}, spec, trials=100)
        diff = report.total_costs["hinf"] - report.total_costs["h2"]
        rng = np.random.default_rng(0)
        boots = np.array(
            [diff[rng.integers(0, 100, 100)].mean() for _ in range(2000)]
        )
        assert np.quantile(boots, 0.05) >= 0.0

    def test_offline_dominance(self):
        sys = random_system(17, T_max=8)
        res, regret = ct.regret_optimal(sys, tol=1e-6)
        spec = DisturbanceSpec("gaussian", {}, seed=1)
        report = compare(sys, {"h2": ct.synthesize_h2(sys), "regret": regret}, spec, trials=20)
        for name in ("h2", "regret"):
            assert np.all(report.offline_costs <= report.total_costs[name] + 1e-9)

    def test_regret_bound_replay(self):
        sys = random_system(18, T_max=8)
        res, regret = ct.regret_optimal(sys, tol=1e-6)
        spec = DisturbanceSpec("gaussian", {}, seed=2)
        report = compare(sys, {"regret": regret}, spec, trials=20)
        for k in range(20):
            w = generate(DisturbanceSpec(spec.kind, spec.params, seed=spec.seed + k), sys.T, sys.p)
            bound = res.gamma_opt**2 * (w**2).sum()
            assert report.realized_regret["regret"][k] < bound + 1e-9

    def test_deterministic_reports(self):
        sys = s1()
        spec = DisturbanceSpec("gaussian", {}, seed=7)
        a = compare(sys, {"h2": ct.synthesize_h2(sys)}, spec, trials=5)
        b = compare(sys, {"h2": ct.synthesize_h2(sys)}, spec, trials=5)
        assert np.array_equal(a.total_costs["h2"], b.total_costs["h2"])
        assert np.array_equal(a.time_averaged["h2"], b.time_averaged["h2"])
        assert np.array_equal(a.offline_costs, b.offline_costs)

    def test_time_averaged_final_matches_total(self):
        sys = s1(T=6)
        spec = DisturbanceSpec("gaussian", {}, seed=9)
        report = compare(sys, {"h2": ct.synthesize_h2(sys)}, spec, trials=3)
        assert np.allclose(
            report.time_averaged["h2"][:, -1] * sys.T, report.total_costs["h2"]
        )

    def test_zero_trials_rejected(self):
        sys = s1()
        spec = DisturbanceSpec("gaussian", {}, seed=0)
        with pytest.raises(ValueError, match="trials must be at least 1"):
            compare(sys, {"h2": ct.synthesize_h2(sys)}, spec, trials=0)


def _controllers(sys):
    return {
        "h2": ct.synthesize_h2(sys),
        "hinf": ct.hinf_optimal(sys, 1e-6)[1],
        "regret": ct.regret_optimal(sys, 1e-6)[1],
        "offline_controller": ct.OfflineController(sys),
        "zero": ct.ZeroController(sys),
    }


def _wrapped_controllers(sys, delay, lookahead):
    """h2, hinf and regret synthesized after `delay` then `lookahead`
    augmentation, wrapped back to base signals."""
    from regretctl.augmentation import WrappedController, augment_delay, augment_predictions

    aug, synth = None, sys
    if delay:
        aug = augment_delay(synth, delay)
        synth = aug.system
    if lookahead:
        aug = augment_predictions(synth, lookahead)
        synth = aug.system
    return {
        "h2": WrappedController(aug, ct.synthesize_h2(synth)),
        "hinf": WrappedController(aug, ct.hinf_optimal(synth, 1e-6)[1]),
        "regret": WrappedController(aug, ct.regret_optimal(synth, 1e-6)[1]),
    }


def _per_trial_reference(sys, controllers, spec, trials):
    """`compare` as one single-trial rollout per controller and trial, with
    the per-step costs summed in this loop."""

    def averaged(traj):
        c = np.zeros(sys.T)
        for t in range(sys.T):
            c[t] = traj.x[t] @ sys.Q[t] @ traj.x[t] + traj.u[t] @ sys.R[t] @ traj.u[t]
        c[-1] += traj.x[sys.T] @ sys.Q_T @ traj.x[sys.T]
        return np.cumsum(c) / (np.arange(sys.T) + 1.0)

    ref = {"time_averaged": {}, "total_costs": {}, "realized_regret": {}}
    offline = []
    for k in range(trials):
        w = generate(DisturbanceSpec(spec.kind, spec.params, seed=spec.seed + k), sys.T, sys.p)
        off = evaluate_cost(sys, w, ct.OfflineController(sys).plan(w))
        offline.append(off.total_cost)
        ref["time_averaged"].setdefault("offline", []).append(averaged(off))
        for name, ctrl in controllers.items():
            traj = rollout(sys, ctrl, w)
            ref["time_averaged"].setdefault(name, []).append(averaged(traj))
            ref["total_costs"].setdefault(name, []).append(traj.total_cost)
            ref["realized_regret"].setdefault(name, []).append(traj.total_cost - off.total_cost)
    return ref, np.array(offline)


def _assert_report_matches_reference(sys, controllers, spec, trials):
    report = compare(sys, controllers, spec, trials=trials)
    ref, offline = _per_trial_reference(sys, controllers, spec, trials)
    assert np.array_equal(report.offline_costs, offline)
    for field, per_name in ref.items():
        got = getattr(report, field)
        assert sorted(got) == sorted(per_name)
        for name, values in per_name.items():
            assert np.array_equal(got[name], np.array(values)), (field, name)


class TestBatchedCompareBitIdentity:
    """`compare` rolls every controller once over all trials; each trial must
    give the bits of its own single-trial rollout."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: s1(),
            lambda: s1(T=6, R=2.0, Q_T=[[3.0]]),
            lambda: __import__("regretctl.cli").cli.pendulum_system(40),
            lambda: random_system(21, T_max=10),
            lambda: random_system(22, T_max=10, with_terminal=True),
            lambda: random_system(23, T_max=10, stable=False),
            lambda: random_system(24, T_max=10, stable=False, with_terminal=True),
        ],
        ids=["s1", "s1_qt_r2", "pendulum", "stable", "stable_qt", "unstable", "unstable_qt"],
    )
    @pytest.mark.parametrize("kind", ["gaussian", "alternating"])
    def test_every_controller(self, make, kind):
        sys = make()
        spec = DisturbanceSpec(kind, {"mean": 1.0, "period": 3} if kind == "alternating" else {}, seed=4)
        _assert_report_matches_reference(sys, _controllers(sys), spec, trials=7)

    @pytest.mark.parametrize("delay,lookahead", [(1, 3), (0, 2), (2, 0)])
    def test_wrapped_delay_and_lookahead(self, delay, lookahead):
        from regretctl.cli import pendulum_system

        sys = pendulum_system(30)
        spec = DisturbanceSpec("alternating", {"mean": [1.0, 1.0], "period": 15}, seed=3)
        ctrls = _wrapped_controllers(sys, delay, lookahead)
        _assert_report_matches_reference(sys, ctrls, spec, trials=5)

    def test_one_rollout_per_controller(self, monkeypatch):
        from regretctl import sim_bench

        calls = []
        real = sim_bench.rollout
        monkeypatch.setattr(sim_bench, "rollout", lambda *a: calls.append(a) or real(*a))
        sys = s1(T=5)
        compare(sys, _controllers(sys), DisturbanceSpec("gaussian", {}, seed=1), trials=6)
        assert [np.shape(a[2]) for a in calls] == [(6, 5, 1)] * 5


    @pytest.mark.parametrize(
        "kind, params",
        [
            ("gaussian", {"mean": [0.5, -1.0], "cov": [[2.0, 0.5], [0.5, 1.0]]}),
            ("alternating", {"mean": 1.0, "period": 7}),
            ("sinusoid", {"amplitude": [2.0, 1.0], "frequency": 0.1, "phase": 0.3}),
            ("constant", {"vector": [1.0, -2.0]}),
            ("worst_case", {"witness": np.arange(80.0).reshape(40, 2)}),
        ],
    )
    def test_stacked_draw_equals_each_trials_own(self, monkeypatch, kind, params):
        from regretctl import sim_bench
        from regretctl.cli import pendulum_system

        drawn = []

        class Recorded(ct.OfflineController):
            def plan(self, w):
                drawn.append(w)
                return super().plan(w)

        monkeypatch.setattr(sim_bench, "OfflineController", Recorded)
        sys = pendulum_system(40)
        spec = DisturbanceSpec(kind, params, seed=9)
        compare(sys, {}, spec, trials=6)
        expected = [generate(DisturbanceSpec(kind, params, seed=9 + k), sys.T, sys.p) for k in range(6)]
        assert drawn[0].shape == (6, 40, 2)
        assert drawn[0].tobytes() == np.stack(expected).tobytes()


class TestBatchedRollout:
    def test_batch_equals_single_rollouts(self):
        sys = random_system(31, T_max=9, stable=False)
        w = np.random.default_rng(0).standard_normal((2, 3, sys.T, sys.p))
        for ctrl in _controllers(sys).values():
            batch = rollout(sys, ctrl, w)
            assert batch.total_cost.shape == (2, 3)
            for i in range(2):
                for j in range(3):
                    one = rollout(sys, ctrl, w[i, j])
                    for field in ("x", "u", "w", "step_costs"):
                        assert np.array_equal(getattr(batch, field)[i, j], getattr(one, field))
                    assert batch.total_cost[i, j] == one.total_cost

    def test_controls_are_the_rollout_controls(self):
        sys = random_system(33, T_max=9, stable=False)
        w = np.random.default_rng(2).standard_normal((3, sys.T, sys.p))
        for ctrl in _controllers(sys).values():
            assert np.array_equal(controls(sys, ctrl, w), rollout(sys, ctrl, w).u)
            assert np.array_equal(controls(sys, ctrl, w[0]), rollout(sys, ctrl, w[0]).u)

    def test_nonfinite_control_in_one_item_rejected(self):
        class BrokenOnPositive:
            def control_sequence(self, w):
                return np.where(w[..., :1] > 0, np.inf, 0.0)

        sys = s1()
        w = np.zeros((3, sys.T, 1))
        assert rollout(sys, BrokenOnPositive(), w).total_cost.shape == (3,)
        w[1, 2, 0] = 1.0
        with pytest.raises(ArithmeticError, match="non-finite"):
            rollout(sys, BrokenOnPositive(), w)
