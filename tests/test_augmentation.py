import numpy as np
import pytest

from regretctl import controllers as ct
from regretctl.augmentation import WrappedController, augment_delay, augment_predictions
from regretctl.sim_bench import rollout
from regretctl.system_model import LqSystem, evaluate_cost, validate_system
from helpers import random_system, reference_augment_delay, reference_augment_predictions, s1
import dense_oracle as dense
import rollout_oracle as ro


class TestAugmentPredictions:
    def test_h0_identity(self):
        sys = s1()
        aug = augment_predictions(sys, 0)
        assert aug.system is sys and aug.length == 0

    def test_dimensions(self):
        sys = random_system(12, n_max=2, p_max=2, T_max=8)
        # force n=2, p=2 deterministically
        sys = validate_system(
            LqSystem.time_invariant(
                np.eye(2) * 0.5, np.ones((2, 1)), np.eye(2), np.eye(2), [[1.0]], horizon=6
            )
        )
        aug = augment_predictions(sys, 3)
        assert aug.system.n == 2 + 3 * 2

    def test_full_lookahead_zero_regret(self):
        sys = s1()
        aug = augment_predictions(sys, sys.T)
        res, _ = ct.regret_optimal(aug.system, tol=1e-8)
        assert res.gamma_opt == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="lookahead"):
            augment_predictions(s1(), 4)

    @pytest.mark.parametrize("h", [2.7, 3.0, True, np.float64(1.0), "1"])
    def test_non_integer_refused(self, h):
        """A lookahead int() would truncate is refused, as the CLI refuses it."""
        with pytest.raises(ValueError, match="lookahead must be an integer"):
            augment_predictions(s1(), h)

    def test_cost_equivalence(self):
        # same controls, disturbances with h leading zeros: identical costs
        rng = np.random.default_rng(0)
        for seed in range(10):
            sys = random_system(seed + 30, T_max=8)
            h = int(rng.integers(1, sys.T + 1))
            aug = augment_predictions(sys, h)
            w = rng.standard_normal((sys.T, sys.p))
            w[:h] = 0.0
            u = rng.standard_normal((sys.T, sys.m))
            base_cost = evaluate_cost(sys, w, u).total_cost
            w_aug = aug.base_disturbance_to_augmented(w)
            aug_cost = evaluate_cost(aug.system, w_aug, u).total_cost
            assert abs(base_cost - aug_cost) <= 1e-10 * (1 + abs(base_cost))

    def test_lookahead_monotone(self):
        sys = s1(T=4)
        gammas = [
            ct.regret_optimal(augment_predictions(sys, h).system, tol=1e-8)[0].gamma_opt
            for h in range(sys.T + 1)
        ]
        for a, b in zip(gammas, gammas[1:]):
            assert b <= a + 1e-8


class TestAugmentDelay:
    def test_d0_identity(self):
        sys = s1()
        aug = augment_delay(sys, 0)
        assert aug.system is sys and aug.length == 0

    def test_dimensions(self):
        sys = validate_system(
            LqSystem.time_invariant(
                np.eye(2) * 0.5, np.ones((2, 1)), np.eye(2), np.eye(2), [[1.0]], horizon=6
            )
        )
        aug = augment_delay(sys, 2)
        assert aug.system.n == 2 + 2 * 1

    def test_delay_restricts(self):
        sys = s1()
        g0 = ct.regret_optimal(sys, tol=1e-8)[0].gamma_opt
        g1 = ct.regret_optimal(augment_delay(sys, 1).system, tol=1e-8)[0].gamma_opt
        assert g1 >= g0 - 1e-8

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="delay"):
            augment_delay(s1(), 3)

    @pytest.mark.parametrize("d", [1.5, 1.0, True, np.float64(1.0), "1"])
    def test_non_integer_refused(self, d):
        """A delay int() would truncate is refused, as the CLI refuses it."""
        with pytest.raises(ValueError, match="delay must be an integer"):
            augment_delay(s1(), d)

    def test_numpy_integer_accepted(self):
        assert augment_delay(s1(), np.int64(1)).system.n == augment_delay(s1(), 1).system.n

    def test_cost_equivalence(self):
        # hand-rolled delayed dynamics vs the augmented system, same controls
        rng = np.random.default_rng(1)
        for seed in range(10):
            sys = random_system(seed + 60, T_max=8)
            d = int(rng.integers(1, sys.T))
            aug = augment_delay(sys, d)
            w = rng.standard_normal((sys.T, sys.p))
            u = rng.standard_normal((sys.T, sys.m))
            x = np.zeros(sys.n)
            cost = 0.0
            for t in range(sys.T):
                cost += x @ sys.Q[t] @ x + u[t] @ sys.R[t] @ u[t]
                fed = sys.B_u[t - d] @ u[t - d] if t >= d else 0.0
                x = sys.A[t] @ x + fed + sys.B_w[t] @ w[t]
            cost += x @ sys.Q_T @ x
            aug_cost = evaluate_cost(aug.system, w, u).total_cost
            assert abs(cost - aug_cost) <= 1e-10 * (1 + abs(cost))

    def test_delay_monotone_short_range(self):
        sys = s1(T=10)
        gammas = [
            ct.regret_optimal(augment_delay(sys, d).system, tol=1e-8)[0].gamma_opt
            for d in range(6)
        ]
        for a, b in zip(gammas, gammas[1:]):
            assert b >= a - 1e-8

    def test_transcript_reproduces_controls(self):
        sys = s1()
        aug = augment_delay(sys, 1)
        ctrl = ct.synthesize_h2(aug.system)
        rng = np.random.default_rng(2)
        w = rng.standard_normal((3, 1))
        traj = rollout(aug.system, ctrl, w)
        for t in range(1, 4):
            assert traj.x[t, 1] == pytest.approx(traj.u[t - 1, 0], abs=1e-12)


class TestWrapController:
    def test_prediction_wrap_costs_match(self):
        sys = s1()
        aug = augment_predictions(sys, 1)
        inner = ct.synthesize_h2(aug.system)
        wrapped = WrappedController(aug, inner)
        with pytest.raises(ro.CausalityViolationError):  # uses future base disturbances
            dense.controller_operator(sys, wrapped)
        rng = np.random.default_rng(3)
        w = rng.standard_normal((3, 1))
        w[0] = 0.0
        u = wrapped.control_sequence(w)
        base_cost = evaluate_cost(sys, w, u).total_cost
        aug_traj = rollout(aug.system, inner, aug.base_disturbance_to_augmented(w))
        assert base_cost == pytest.approx(aug_traj.total_cost, rel=1e-10, abs=1e-10)

    def test_delay_wrap_costs_match(self):
        sys = s1()
        aug = augment_delay(sys, 1)
        inner = ct.synthesize_h2(aug.system)
        wrapped = WrappedController(aug, inner)
        dense.controller_operator(sys, wrapped)  # raises if it is not causal
        rng = np.random.default_rng(4)
        w = rng.standard_normal((3, 1))
        u = wrapped.control_sequence(w)
        base_aug_cost = rollout(aug.system, inner, w).total_cost
        # the augmented cost equals the delayed plant's cost under the same u
        x = np.zeros(1)
        cost = 0.0
        for t in range(3):
            cost += x @ sys.Q[t] @ x + u[t] @ sys.R[t] @ u[t]
            fed = sys.B_u[t - 1] @ u[t - 1] if t >= 1 else 0.0
            x = sys.A[t] @ x + fed + sys.B_w[t] @ w[t]
        assert float(cost) == pytest.approx(base_aug_cost, rel=1e-10, abs=1e-10)


class TestComposability:
    def test_order_independent_gamma(self):
        sys = s1(T=4)
        for h, d in [(1, 1), (2, 1)]:
            a = augment_predictions(augment_delay(sys, d).system, h).system
            b = augment_delay(augment_predictions(sys, h).system, d).system
            ga = ct.regret_optimal(a, tol=1e-9)[0].gamma_opt
            gb = ct.regret_optimal(b, tol=1e-9)[0].gamma_opt
            assert ga == pytest.approx(gb, abs=1e-8)


class TestBatchedWrappedController:
    @pytest.mark.parametrize("delay,lookahead", [(1, 3), (0, 2), (2, 0)])
    def test_batch_equals_stacked_single_calls(self, delay, lookahead):
        sys = random_system(51, T_max=10)
        aug, synth = None, sys
        if delay:
            aug = augment_delay(synth, delay)
            synth = aug.system
        if lookahead:
            aug = augment_predictions(synth, lookahead)
            synth = aug.system
        w = np.random.default_rng(8).standard_normal((5, sys.T, sys.p))
        for inner in (ct.synthesize_h2(synth), ct.regret_optimal(synth, 1e-6)[1]):
            wrapped = WrappedController(aug, inner)
            batch = wrapped.control_sequence(w)
            for k in range(5):
                assert np.array_equal(batch[k], wrapped.control_sequence(w[k]))

    def test_base_disturbance_map_batch(self):
        sys = s1(T=5)
        aug = augment_predictions(sys, 2)
        w = np.arange(10.0).reshape(2, 5, 1)
        out = aug.base_disturbance_to_augmented(w)
        for k in range(2):
            assert np.array_equal(out[k], aug.base_disturbance_to_augmented(w[k]))
        assert np.array_equal(out[1, :, 0], [7.0, 8.0, 9.0, 0.0, 0.0])

    @pytest.mark.parametrize("delay,lookahead", [(1, 3), (2, 0), (0, 2)])
    def test_controls_evaluate_no_cost(self, delay, lookahead, monkeypatch):
        from regretctl import sim_bench

        sys = random_system(52, T_max=10)
        aug, synth = None, sys
        if delay:
            aug = augment_delay(synth, delay)
            synth = aug.system
        if lookahead:
            aug = augment_predictions(synth, lookahead)
            synth = aug.system
        w = np.random.default_rng(9).standard_normal((3, sys.T, sys.p))
        wrapped = WrappedController(aug, ct.regret_optimal(synth, 1e-6)[1])
        expected = rollout(synth, wrapped.inner, aug.base_disturbance_to_augmented(w)).u

        def refused(*args):
            raise AssertionError("the wrapped controller evaluated a cost")

        monkeypatch.setattr(sim_bench, "evaluate_cost", refused)
        assert np.array_equal(wrapped.control_sequence(w), expected)


def _systems():
    yield s1()
    yield validate_system(
        LqSystem.time_invariant(np.eye(2) * 0.5, np.ones((2, 1)), np.eye(2), np.eye(2), [[1.0]], horizon=6)
    )
    for seed in (30, 31, 32):
        yield random_system(seed, T_max=8)


@pytest.mark.parametrize("lookahead, delay", [(1, 0), (0, 1), (3, 1), (2, 2), (1, 3), ("T", 0), (0, "T-1")])
def test_stacked_blocks_equal_the_per_step_construction(lookahead, delay):
    """Delay then lookahead, as the CLI composes them: every array of each
    stage equals the per-step loop's, bit for bit."""
    for sys in _systems():
        d = sys.T - 1 if delay == "T-1" else min(delay, sys.T - 1)
        got = augment_delay(sys, d)
        stage = got.system
        if d:
            want = validate_system(LqSystem(*reference_augment_delay(sys, d)))
            for name in ("A", "B_u", "B_w", "Q", "R", "Q_T"):
                assert np.array_equal(getattr(stage, name), getattr(want, name)), (name, d)
        h = stage.T if lookahead == "T" else min(lookahead, stage.T)
        got = augment_predictions(stage, h)
        if h:
            want = validate_system(LqSystem(*reference_augment_predictions(stage, h)))
            for name in ("A", "B_u", "B_w", "Q", "R", "Q_T"):
                assert np.array_equal(getattr(got.system, name), getattr(want, name)), (name, h)
