import dataclasses
import weakref

import numpy as np
import pytest

from regretctl import controllers as ct
from regretctl import kernels, riccati
from regretctl import operator_oracle as oo
from regretctl.augmentation import augment_delay, augment_predictions
from regretctl.cli import pendulum_system
from regretctl.system_model import (
    LqSystem,
    evaluate_cost,
    normalize_control_weight,
    validate_system,
)
from helpers import (
    REGRET_FREE,
    doubled_system,
    eager_hinf_optimal,
    eager_regret_optimal,
    feedback_view,
    full_horizon_reference,
    printed_regret_optimal,
    quiet_tail_pendulum,
    random_system,
    regret_free_system,
    s1,
    to_original_u,
)
import dense_oracle as dense


def ops_for(sys):
    return dense.build_operators(normalize_control_weight(sys).system)


class TestH2:
    def test_s1_impulse(self):
        h2 = ct.synthesize_h2(s1())
        u = h2.control_sequence([[1.0], [0.0], [0.0]])
        assert np.allclose(u[:, 0], [-0.6, -0.2, 0.0], atol=1e-10)
        assert evaluate_cost(s1(), [1, 0, 0], u).total_cost == pytest.approx(0.6, abs=1e-10)

    def test_zero_disturbance(self):
        h2 = ct.synthesize_h2(s1())
        assert not h2.control_sequence(np.zeros((3, 1))).any()

    def test_matches_operator_form(self):
        for seed in range(5):
            sys = random_system(seed, T_max=8)
            K = dense.controller_operator(sys, ct.synthesize_h2(sys))
            K_op = dense.h2_operator_form(ops_for(sys))
            assert np.abs(K - K_op).max() <= 1e-8


class TestHinf:
    def test_s1_gamma_10_feasible(self):
        ctrl = ct.synthesize_hinf(s1(), 10.0)
        assert ctrl.tape.feasible

    def test_below_optimum_infeasible(self):
        sys = s1()
        res, _ = ct.hinf_optimal(sys, tol=1e-8)
        with pytest.raises(ct.InfeasibleError):
            ct.synthesize_hinf(sys, 0.99 * res.gamma_opt)

    def test_gamma_to_infinity_is_h2(self):
        sys = random_system(1, T_max=8)
        hinf = ct.synthesize_hinf(sys, 1e6)
        h2 = ct.synthesize_h2(sys)
        assert np.abs(hinf.K_x - h2.K_x).max() <= 1e-4
        assert np.abs(hinf.K_w - h2.K_w).max() <= 1e-4

    def test_bisection_soundness(self):
        sys = random_system(2, T_max=8)
        tol = 1e-6
        res, _ = ct.hinf_optimal(sys, tol=tol)
        from regretctl import riccati

        assert riccati.backward_hinf(sys, res.gamma_opt * (1 + tol)).feasible
        assert not riccati.backward_hinf(sys, res.gamma_opt * (1 - tol)).feasible

    def test_pendulum_gamma_recorded_at_seed(self):
        res, _ = ct.hinf_optimal(pendulum_system(100), 1e-6)
        assert res.gamma_opt == 1.8820199966430664

    def test_infeasible_level_names_the_step_that_failed(self):
        with pytest.raises(ct.InfeasibleError, match=r"first failing step t=98\)") as info:
            ct.synthesize_hinf(pendulum_system(100), 1.0)
        assert info.value.step == 98

    @pytest.mark.parametrize("sys", [random_system(2, T_max=8), pendulum_system(100)], ids=["random", "pendulum"])
    def test_bisection_returns_the_tape_at_gamma_opt(self, sys):
        """The lazy search pauses probes, so its tape is the one at gamma_opt
        swept again to t = 0: the same bits as a sweep of its own."""
        res, ctrl = ct.hinf_optimal(sys, 1e-6)
        tape = riccati.backward_hinf(sys, res.gamma_opt)
        assert ctrl.tape.gamma == res.gamma_opt and ctrl.tape.feasible
        for field in ("P", "H", "margins"):
            assert np.array_equal(getattr(ctrl.tape, field), getattr(tape, field)), field
        assert res.final_margins is ctrl.tape.margins
        again = ct.FeedbackController(sys, tape)
        assert np.array_equal(ctrl.K_x, again.K_x) and np.array_equal(ctrl.K_w, again.K_w)

    def test_achieves_gain_bound(self):
        sys = s1()
        res, ctrl = ct.hinf_optimal(sys, tol=1e-8)
        ops = ops_for(sys)
        K = dense.controller_operator(sys, ctrl)
        assert dense.worst_case_cost_gain(ops, K) <= res.gamma_opt**2 * (1 + 1e-6)


def _feedback_gains_loop(sys, tape_P, tape_H):
    """The per-step loop that the stacked `_gain` replaced."""
    T = sys.T
    K_x = np.zeros((T, sys.m, sys.n))
    K_w = np.zeros((T, sys.m, sys.p))
    for t in range(T):
        BtP = sys.B_u[t].T @ tape_P[t + 1]
        K_x[t] = -np.linalg.solve(tape_H[t], BtP @ sys.A[t])
        K_w[t] = -np.linalg.solve(tape_H[t], BtP @ sys.B_w[t])
    return K_x, K_w


class TestFeedbackGains:
    """The stacked gains reach CLI bytes, so they must keep the loop's bits."""

    @pytest.mark.parametrize(
        "sys",
        [s1(), s1(7, R=2.0, Q_T=[[1.5]]), pendulum_system(100)]
        + [random_system(seed, n_max=6, m_max=4, p_max=4, T_max=30, stable=seed % 2 == 0)
           for seed in range(300, 312)],
    )
    def test_stacked_gains_equal_the_loop(self, sys):
        tapes = [riccati.backward_lqr(sys)]
        gamma = ct.hinf_optimal(sys, tol=1e-4)[0].gamma_opt
        tapes.append(riccati.backward_hinf(sys, 1.5 * gamma))
        for tape in tapes:
            stacked = [ct._gain(sys.B_u, tape.P, tape.H, X) for X in (sys.A, sys.B_w)]
            for a, b in zip(stacked, _feedback_gains_loop(sys, tape.P, tape.H)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestOffline:
    def test_s1_impulse(self):
        u = ct.OfflineController(s1()).plan([[1.0], [0.0], [0.0]])
        assert np.allclose(u[:, 0], [-0.6, -0.2, 0.0], atol=1e-10)

    def test_zero_disturbance(self):
        assert not ct.OfflineController(s1()).plan(np.zeros((3, 1))).any()

    def test_matches_dense_solution(self):
        sys = random_system(7, n_max=2, T_max=8)
        nsys = normalize_control_weight(sys)
        ops = dense.build_operators(nsys.system)
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.standard_normal((sys.T, sys.p))
            u_ss = ct.OfflineController(sys).plan(w)
            u_dense, _ = dense.offline_optimal(ops, w.reshape(-1))
            u_dense = to_original_u(nsys, u_dense.reshape(sys.T, sys.m))
            assert np.abs(u_ss - u_dense).max() <= 1e-8


class TestRegretController:
    def test_zero_disturbance_zero_everything(self):
        sys = s1()
        res, _ = ct.regret_optimal(sys, tol=1e-8)
        ctrl = ct.regret_controller(sys, 2.0 * res.gamma_opt)
        w = np.zeros((3, 1))
        assert not ctrl.control_sequence(w).any()

    def test_regret_bound_1000_disturbances(self):
        sys = s1()
        res, _ = ct.regret_optimal(sys, tol=1e-8)
        gamma = 2.0 * res.gamma_opt
        ctrl = ct.regret_controller(sys, gamma)
        rng = np.random.default_rng(9)
        for _ in range(1000):
            w = rng.standard_normal((3, 1))
            cost = evaluate_cost(sys, w, ctrl.control_sequence(w)).total_cost
            _, off = dense.offline_optimal(ops_for(sys), w.reshape(-1))
            assert cost - off < gamma**2 * (w**2).sum() + 1e-9

    def test_probed_operator_causal(self):
        sys = random_system(5, T_max=8)
        res, ctrl = ct.regret_optimal(sys, tol=1e-6)
        K = dense.controller_operator(sys, ctrl, tol=1e-9)  # raises on violation
        assert K.shape == (sys.T * sys.m, sys.T * sys.p)

    def test_infeasible_level_raises(self):
        sys = s1()
        res, _ = ct.regret_optimal(sys, tol=1e-8)
        with pytest.raises(ct.InfeasibleError):
            ct.regret_controller(sys, 0.5 * res.gamma_opt)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_non_finite_or_nonpositive_level_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            ct.synthesize_regret(s1(), gamma)
        with pytest.raises(ValueError, match="gamma must be positive and finite") as info:
            ct.regret_controller(s1(), gamma)
        assert not isinstance(info.value, ct.InfeasibleError)


class TestRegretOptimal:
    def test_degenerate_zero_weighting(self):
        sys = s1()
        zero_q = validate_system(
            LqSystem(sys.A, sys.B_u, sys.B_w, np.zeros_like(sys.Q), sys.R, sys.Q_T)
        )
        res, ctrl = ct.regret_optimal(zero_q)
        assert res.gamma_opt == 0.0
        assert ctrl.feasible and ctrl.gamma == 2.0**-27
        assert not ctrl.control_sequence(np.ones((3, 1))).any()

    @pytest.mark.parametrize("zeroed", list(REGRET_FREE.values()), ids=list(REGRET_FREE))
    def test_degenerate_margins_equal_every_probes(self, zeroed):
        """A system whose disturbance produces no cost runs the search of
        any other: the level-1 test is -I at every level, since Bhat_w = 0
        or Phat = 0, so every probe reads -1 at each step and the search
        halves down to the 1e-8 floor. Its controller is the synthesis
        there, and its controls are 0."""
        sys = regret_free_system(zeroed)
        res, ctrl = ct.regret_optimal(sys)
        assert res.gamma_opt == 0.0 and res.iterations == 27 and res.bracket_history == []
        assert res.final_margins.tolist() == [-1.0] * 20
        assert isinstance(ctrl, ct.RegretSynthesis) and ctrl.feasible and ctrl.gamma == 2.0**-27
        assert res.final_margins is ctrl.margins
        w = np.random.default_rng(20).standard_normal((8, 20, sys.p))
        assert not ctrl.control_sequence(w).any()
        for gamma in (1e-3, 1.0, 30.0):
            assert np.array_equal(ct.synthesize_regret(sys, gamma).margins, res.final_margins)

    @pytest.mark.parametrize(
        "search, T", [(ct.regret_optimal, 1), (ct.regret_optimal, 2), (ct.hinf_optimal, 1)],
        ids=["regret-T1", "regret-T2", "hinf-T1"],
    )
    def test_feasible_down_to_the_floor_reports_zero(self, search, T):
        """A level feasible at every halving down to the 1e-8 floor is
        reported as 0.0; the controller stays the last feasible synthesis."""
        res, ctrl = search(s1(T=T), tol=1e-6)
        assert res.gamma_opt == 0.0
        assert res.iterations == 27 and res.bracket_history == []
        synthesis = getattr(ctrl, "tape", ctrl)
        assert synthesis.feasible and synthesis.gamma == 2.0**-27

    def test_s1_certificate_match(self):
        sys = s1()
        res, ctrl = ct.regret_optimal(sys, tol=1e-8)
        cert = dense.worst_case_regret_gain(ops_for(sys), dense.controller_operator(sys, ctrl))
        assert cert.gain == pytest.approx(res.gamma_opt**2, rel=1e-4)

    def test_baseline_dominance(self):
        sys = s1()
        res, _ = ct.regret_optimal(sys, tol=1e-8)
        ops = ops_for(sys)
        h2_gain = dense.worst_case_regret_gain(ops, dense.controller_operator(sys, ct.synthesize_h2(sys))).gain
        _, hinf = ct.hinf_optimal(sys, tol=1e-8)
        hinf_gain = dense.worst_case_regret_gain(ops, dense.controller_operator(sys, hinf)).gain
        assert res.gamma_opt**2 <= h2_gain * (1 + 1e-6)
        assert res.gamma_opt**2 <= hinf_gain * (1 + 1e-6)

    def test_bisection_soundness(self):
        sys = random_system(6, T_max=8)
        tol = 1e-6
        res, _ = ct.regret_optimal(sys, tol=tol)
        assert ct.synthesize_regret(sys, res.gamma_opt * (1 + tol)).feasible
        assert not ct.synthesize_regret(sys, res.gamma_opt * (1 - tol)).feasible

    def test_printed_level_is_not_attained_by_its_controller(self):
        """Why the library has one feasibility test: the level the retired
        "printed" test reports is less than half the worst-case regret its
        own controller certifies, where level1's controller attains its level
        (within 1e-6 on the first two systems; the pendulum's level itself
        resolves to only a few 1e-6, so there within 1e-5)."""
        systems = [
            (random_system(0), 1e-6),
            (random_system(104, stable=False), 1e-6),
            (pendulum_system(30), 1e-5),
        ]
        for k, (sys, rel) in enumerate(systems):
            res, ctrl = printed_regret_optimal(sys, 1e-8)
            cert = dense.worst_case_regret_gain(ops_for(sys), dense.controller_operator(sys, ctrl))
            assert cert.gain > 2.0 * res.gamma_opt**2, k
            res, ctrl = ct.regret_optimal(sys, 1e-8)
            cert = dense.worst_case_regret_gain(ops_for(sys), dense.controller_operator(sys, ctrl))
            assert cert.gain == pytest.approx(res.gamma_opt**2, rel=rel), k


    @pytest.mark.parametrize("tol", [0.0, -1e-3, 1.0, float("nan")])
    def test_tol_outside_unit_interval_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            ct.regret_optimal(s1(), tol=tol)
        with pytest.raises(ValueError, match="tol"):
            ct.hinf_optimal(s1(), tol=tol)

    def test_tol_below_float_resolution_terminates(self):
        res, _ = ct.regret_optimal(s1(), tol=1e-20)
        lo, hi = res.bracket_history[-1]
        assert hi == res.gamma_opt and np.nextafter(lo, np.inf) == hi
        assert ct.hinf_optimal(s1(), tol=1e-20)[0].gamma_opt > 0

    def test_pendulum_gamma_recorded_at_seed(self):
        res, _ = ct.regret_optimal(pendulum_system(100), 1e-6)
        assert res.gamma_opt == 1.7185392379760742


# the windows of a fake probe's sweep: those of a 1000-step horizon, 16 to 504 steps
_WINDOWS = [t1 - t0 for t0, t1 in riccati._windows(1000)]


class TestPaperOrdering:
    """The paper's ordering of the regret controller between the H2 and
    H-infinity controllers, certified by `operator_oracle.regret_gain` at
    horizons the dense referee cannot reach. The H2 and H-infinity
    controllers enter it as `helpers.feedback_view`."""

    @pytest.mark.parametrize(
        "sys",
        [pendulum_system(30)] + [random_system(seed, T_max=30, stable=stable) for seed in (20, 23) for stable in (True, False)],
        ids=["pendulum30", "random20-stable", "random20-unstable", "random23-stable", "random23-unstable"],
    )
    def test_feedback_view_matches_dense_referee(self, sys):
        """The view's gain within 1e-9 relative of the dense referee's, plus
        `dense_oracle.referee_gap_bound` (eps ||F|| ||K|| is 1e-8 relative
        on the unstable pendulum, whose gap reads 5.7e-11)."""
        ops = ops_for(sys)
        for ctrl in (ct.synthesize_h2(sys), ct.hinf_optimal(sys, 1e-6)[1]):
            gain, _ = oo.regret_gain(feedback_view(sys, ctrl))
            K = dense.controller_operator(sys, ctrl)
            referee = dense.worst_case_regret_gain(ops, K).gain
            assert abs(gain - referee) <= 1e-9 * referee + dense.referee_gap_bound(ops, K, referee)

    def test_regret_below_hinf_below_h2_at_t100(self):
        """On the pendulum at T = 100 (T p = 200), the certified regret gains
        read 2.95337 (regret), 3.33335 (H-infinity) and 6.28402 (H2). The
        attained gain of a searched controller wanders about 1e-5 relative
        around its level across tols, so each comparison holds with a
        margin of 1e-5 and the regret gain is held to gamma_opt^2 within
        it."""
        wander = 1e-5
        sys = pendulum_system(100)
        res, reg = ct.regret_optimal(sys, 1e-6)
        regret = oo.regret_gain(reg, res.bracket_history)[0]
        hinf = oo.regret_gain(feedback_view(sys, ct.hinf_optimal(sys, 1e-6)[1]))[0]
        h2 = oo.regret_gain(feedback_view(sys, ct.synthesize_h2(sys)))[0]
        assert abs(regret - res.gamma_opt**2) <= wander * res.gamma_opt**2
        assert regret * (1 + wander) < hinf
        assert hinf * (1 + wander) < h2


class _Probe:
    """A fake probe at level gamma over the windows `_WINDOWS`, with the
    resumable interface of `riccati._Sweep`: it fails in window `fail`, or
    never when fail is None. It reports every sweep to its `_Threshold`."""

    def __init__(self, owner, gamma, fail):
        self.owner, self.gamma, self.fail = owner, gamma, fail
        self.feasible = fail is None
        self.margins = np.array([-gamma if self.feasible else gamma])
        self.windows, self.failed, self.forgotten = 0, None, False

    @property
    def steps_left(self):
        return 0 if self.failed is not None else sum(_WINDOWS[self.windows:])

    def sweep(self, windows=None):
        end = len(_WINDOWS) if windows is None else min(windows, len(_WINDOWS))
        if self.fail is not None:
            end = min(end, self.fail + 1)
        before = self.windows
        self.windows = max(before, end)
        if self.fail is not None and self.windows == self.fail + 1:
            self.failed = self.fail
            self.owner.infeasible.append(weakref.ref(self))
        steps = sum(_WINDOWS[before:self.windows])
        self.owner.sweeps.append((self.gamma, windows, before, steps, self.failed))
        return steps

    def forget(self):
        self.forgotten = True
        self.owner.sweeps.append((self.gamma, "forget", self.windows, 0, None))

    def result(self):
        self.sweep()
        # a probe that forgot its tapes sweeps again from t = T
        self.owner.sweeps.append((self.gamma, "again", 0, sum(_WINDOWS) if self.forgotten else 0, None))
        return self


class _Threshold:
    """A fake search, feasible iff gamma >= theta, that records every level
    it starts and every sweep. An infeasible level fails in window
    `fail(gamma)` (the first by default). It fails a search that does not
    end within 1000 probes, or that still holds a probe that has failed when
    it starts the next one (each probe of a long horizon holds its tapes)."""

    def __init__(self, theta, fail=lambda gamma: 0):
        self.theta, self.fail, self.levels, self.infeasible, self.sweeps = theta, fail, [], [], []

    def __call__(self, gamma):
        assert all(ref() is None for ref in self.infeasible), "an infeasible probe outlived its verdict"
        self.levels.append(gamma)
        assert len(self.levels) <= 1000, "the search does not end"
        return _Probe(self, gamma, None if gamma >= self.theta else self.fail(gamma))

    @property
    def steps(self):
        return sum(steps for _, _, _, steps, _ in self.sweeps)

    def finished(self):
        """The levels a sweep took to t = 0, and the paused levels whose
        sweep on to t = 0 failed."""
        ends, failures = [], []
        for g, windows, before, steps, failed in self.sweeps:
            if windows is None and steps:
                if failed is None:
                    ends.append(g)
                elif before:
                    failures.append(g)
        return ends, failures


def _eager_steps(levels, theta, fail):
    """The steps an eager search sweeps over `levels`: every window of a
    feasible level, an infeasible one's up to its failing window."""
    return sum(sum(_WINDOWS[: fail(g) + 1]) if g < theta else sum(_WINDOWS) for g in levels)


def _bisected(levels, lo, hi, theta, tol):
    """`levels` extended by the midpoints a plain bisection of [lo, hi]
    probes, and the bracket after each."""
    levels, history = list(levels), []
    while hi - lo > tol * hi and lo < 0.5 * (hi + lo) < hi:
        mid = 0.5 * (hi + lo)
        levels.append(mid)
        lo, hi = (lo, mid) if mid >= theta else (mid, hi)
        history.append((lo, hi))
    return levels, history


class TestGammaSearch:
    """The probe sequence of `_bisect_gamma`: halve from 1 while every level
    passes, double while every level fails, then bisect the bracket; and
    how far the lazy search sweeps each probe."""

    def test_feasible_everywhere_halves_to_the_floor(self):
        probe = _Threshold(0.0)
        res, best = ct._bisect_gamma(probe, 1e-6)
        assert probe.levels == [2.0**-k for k in range(28)]
        assert res.gamma_opt == 0.0 and res.iterations == 27 and res.bracket_history == []
        assert best.gamma == 2.0**-27 and res.final_margins.tolist() == [-(2.0**-27)]

    def test_infeasible_everywhere_stops_after_the_last_doubling(self):
        probe = _Threshold(np.inf)
        with pytest.raises(ArithmeticError, match="no feasible level found after 60 doublings"):
            ct._bisect_gamma(probe, 1e-6)
        assert probe.levels == [2.0**k for k in range(61)]

    @pytest.mark.parametrize(
        "theta, tol, start",
        [
            (0.3, 1e-6, [1.0, 0.5, 0.25]),
            (1.0, 1e-6, [1.0, 0.5]),
            (1e-8, 1e-6, [2.0**-k for k in range(28)]),
            (5.0, 1e-6, [1.0, 2.0, 4.0, 8.0]),
            (2.0**60, 1e-9, [2.0**k for k in range(61)]),
            (0.3, 0.7, [1.0, 0.5, 0.25]),
            (5.0, 0.5, [1.0, 2.0, 4.0, 8.0]),
        ],
        ids=["halving", "at-one", "floor-infeasible", "doubling", "last-doubling", "tol-0.7", "tol-0.5"],
    )
    def test_bisects_the_bracket_it_found(self, theta, tol, start):
        probe = _Threshold(theta)
        res, best = ct._bisect_gamma(probe, tol)
        bracket = sorted(start[-2:])
        levels, history = _bisected(start, *bracket, theta, tol)
        assert probe.levels == levels
        assert res.bracket_history == history
        assert res.iterations == len(levels) - 1
        lo, hi = history[-1] if history else bracket
        assert lo < theta <= hi and res.gamma_opt == hi == best.gamma
        assert hi - lo <= tol * hi

    @pytest.mark.parametrize("theta", [1 / 3, 5.0, 2.0**-20])
    def test_tol_below_float_resolution_ends_on_adjacent_floats(self, theta):
        probe = _Threshold(theta)
        res, _ = ct._bisect_gamma(probe, 1e-20)
        lo, hi = res.bracket_history[-1]
        assert np.nextafter(lo, np.inf) == hi and res.gamma_opt == hi == theta
        assert len(set(probe.levels)) == len(probe.levels) == res.iterations + 1

    @pytest.mark.parametrize(
        "theta, start",
        [(0.3, [1.0, 0.5, 0.25]), (5.0, [1.0, 2.0, 4.0, 8.0]), (8.0, [1.0, 2.0, 4.0, 8.0])],
        ids=["halving", "doubling", "doubling-at-theta"],
    )
    def test_first_window_failures_finish_only_the_final_level(self, theta, start):
        """W1's pattern: every failure falls in the first window, so a probe
        made after the first failure sweeps two windows, and only the probes
        before it and the level that ends the search are swept to t = 0. At
        theta = 8 the first level that passes, paused, is gamma_opt."""
        probe = _Threshold(theta)
        res, best = ct._bisect_gamma(probe, 1e-6)
        levels, history = _bisected(start, *sorted(start[-2:]), theta, 1e-6)
        assert probe.levels == levels and res.bracket_history == history
        assert res.gamma_opt == best.gamma == history[-1][1]
        first = next(k for k, g in enumerate(levels) if g < theta) + 1  # the probes up to the first failure
        ends, failures = probe.finished()
        assert ends == [g for g in levels[:first] if g >= theta] + [res.gamma_opt] and failures == []
        swept = [(g, windows) for g, windows, _, _, _ in probe.sweeps if windows != "forget"]
        assert swept[:first] == [(g, None) for g in levels[:first]]
        assert swept[first:-3] == [(g, 2) for g in levels[first:]]
        assert swept[-3:] == [(res.gamma_opt, None)] * 2 + [(res.gamma_opt, "again")]
        # each passing level drops its tapes once a lower one passes
        forgotten = [g for g, windows, _, _, _ in probe.sweeps if windows == "forget"]
        assert sorted(forgotten) == sorted(g for g in levels if g >= theta and g != res.gamma_opt)
        # a passing level saves steps only if a lower one passes after it
        eager = _eager_steps(levels, theta, probe.fail)
        assert probe.steps < eager if forgotten else probe.steps == eager

    def test_paused_level_finished_once_later_probes_cost_as_much(self):
        """At tol 1e-12 the probes inside the bracket sweep more steps in all
        than finishing a paused level takes (952 of 1000). The newest paused
        level is swept to t = 0 right after the probe that brings their sum
        there, and from then on each level that passes right after its pause."""
        probe = _Threshold(0.3)
        res, _ = ct._bisect_gamma(probe, 1e-12)
        start = [1.0, 0.5, 0.25]
        levels, history = _bisected(start, 0.25, 0.5, 0.3, 1e-12)
        assert probe.levels == levels and res.bracket_history == history
        # the sweeps since 0.5, the last probe swept to t = 0 when it was made
        inside = [entry for entry in probe.sweeps if entry[1] in (2, None)][len(start) - 1:]
        first = next(k for k, (_, windows, before, _, _) in enumerate(inside) if windows is None and before)
        since = sum(steps for _, _, _, steps, _ in inside[:first])
        assert since >= 952 > since - inside[first - 1][3]
        paused = [g for g, windows, _, _, failed in inside[:first] if windows == 2 and failed is None]
        assert inside[first][:2] == (paused[-1], None)
        for (g, windows, _, _, failed), after in zip(inside[first + 1:], inside[first + 2:]):
            if windows == 2 and failed is None:
                assert after[:2] == (g, None)

    def test_failures_two_windows_deeper_just_below_theta(self):
        """Levels within 1% below theta fail in the third window. The first
        of them passes its two windows and is paused; the level that would
        end the search fails its sweep to t = 0, and the search runs again
        from gamma = 1, sweeping four windows, to the eager result."""
        theta = 0.3
        probe = _Threshold(theta, lambda g: 2 if g >= 0.99 * theta else 0)
        res, best = ct._bisect_gamma(probe, 1e-6)
        start = [1.0, 0.5, 0.25]
        levels, history = _bisected(start, 0.25, 0.5, theta, 1e-6)
        assert res.bracket_history == history and res.iterations == len(levels) - 1
        assert res.gamma_opt == best.gamma == history[-1][1]
        assert set(levels) <= set(probe.levels)  # each level started once, the rerun's from memory
        assert len(set(probe.levels)) == len(probe.levels)
        ends, failures = probe.finished()
        assert len(failures) == 1 and 0.99 * theta <= failures[0] < theta
        assert ends[-1] == res.gamma_opt
        # after it, each probe inside the bracket sweeps four windows
        failed = [(g, windows, f) for g, windows, _, _, f in probe.sweeps].index((failures[0], None, 2))
        assert {windows for _, windows, _, _, _ in probe.sweeps[failed + 1:]} == {4, None, "again", "forget"}

    @pytest.mark.parametrize(
        "theta_path, tol_path, theta, tol, start",
        [
            (0.3, 1e-6, 0.3, 1e-12, "last"),
            (5.0, 1e-6, 5.0, 1e-12, "last"),
            (0.3, 1e-6, 0.3 * (1 - 1e-5), 1e-12, "above"),
            (0.3, 1e-12, 0.3, 1e-6, "above"),
            (5.0, 1e-6, 0.3, 1e-12, "one"),
        ],
        ids=["halving", "doubling", "walks-up", "path-finer-than-tol", "no-node-verifies"],
    )
    def test_path_start_returns_the_search_from_one(self, theta_path, tol_path, theta, tol, start):
        """A search given the `bracket_history` of an earlier one starts at
        the deepest node whose lo fails and whose hi passes, a node of its
        own search from gamma = 1, and returns that search's gamma_opt,
        history and best, each level probed once. Started at the path's last
        node, it probes that node's ends and then the levels the search from
        gamma = 1 probes after it, and sweeps fewer steps. With no such node
        it probes the path's ends it needs and then the levels from gamma = 1."""
        path = ct._bisect_gamma(_Threshold(theta_path), tol_path)[0].bracket_history
        cold, warm = _Threshold(theta), _Threshold(theta)
        res_c, best_c = ct._bisect_gamma(cold, tol)
        res_w, best_w = ct._bisect_gamma(warm, tol, path)
        assert res_w.gamma_opt == res_c.gamma_opt == best_w.gamma == best_c.gamma
        assert res_w.bracket_history == res_c.bracket_history
        assert len(set(warm.levels)) == len(warm.levels)
        # only the level that ends the search keeps its tapes
        forgotten = {g for g, windows, _, _, _ in warm.sweeps if windows == "forget"}
        assert {g for g in warm.levels if g >= theta} - {res_w.gamma_opt} <= forgotten
        lo, hi = path[-1]
        if start == "last":
            assert warm.levels[:2] == [lo, hi]
            assert warm.levels[2:] == cold.levels[cold.levels.index(0.5 * (lo + hi)):]
            assert warm.steps < cold.steps
        elif start == "above":
            assert res_w.bracket_history[: len(path)] != path and 1.0 not in warm.levels
        else:
            assert warm.levels[-len(cold.levels):] == cold.levels
            assert set(warm.levels[: -len(cold.levels)]) == {lo for lo, _ in path}  # each lo passes

    @pytest.mark.parametrize("theta", [0.3, 5.0])
    def test_deep_failures_sweep_no_more_than_the_eager_search(self, theta):
        """The pattern of W3's regret search and W4's H-infinity search:
        every failure falls in one of the last two windows, so from the
        first failure on each probe sweeps to t = 0 or to its failure."""
        K = len(_WINDOWS)
        probe = _Threshold(theta, lambda g: K - 1 if g > 0.9 * theta else K - 2)
        res, _ = ct._bisect_gamma(probe, 1e-6)
        start = [1.0, 0.5, 0.25] if theta < 1 else [1.0, 2.0, 4.0, 8.0]
        levels, history = _bisected(start, *sorted(start[-2:]), theta, 1e-6)
        assert probe.levels == levels and res.bracket_history == history
        assert probe.steps <= _eager_steps(levels, theta, probe.fail)


_TAPES = (
    "Phat", "Hhat", "margins", "K_xi", "K_w",
    "norm.R_inv_sqrt", "norm.system.B_u",
    "fwd.P", "fwd.K_p", "fwd.R_e", "fwd.Atil", "fwd.sqQ", "fwd.W",
)


def _tape(syn, path):
    for attr in path.split("."):
        syn = getattr(syn, attr)
    return syn


def _lazy_family():
    """(id, system, searches) of the systems the lazy search is held to the
    eager one on: random systems, a third with two steps of lookahead and a
    third with one step of input delay, the pendulum, and the pendulum with
    one step of delay and three of lookahead (the plant of the benchmark's
    simulate workload). The pendulum at T = 100 and T = 1000 is the plant of
    the benchmark's pendulum and gamma workloads."""
    for seed in range(300, 312):
        sys = random_system(seed, T_max=120, stable=seed % 2 == 0)
        if seed % 3 == 1:
            sys = augment_predictions(sys, 2).system
        elif seed % 3 == 2:
            sys = augment_delay(sys, 1).system
        yield f"random{seed}", sys, ("regret",)
    yield "pendulum-T100", pendulum_system(100), ("regret", "hinf")
    yield "pendulum-T300", pendulum_system(300), ("regret", "hinf")
    yield "pendulum-T1000", pendulum_system(1000), ("regret",)
    h3d1 = augment_predictions(augment_delay(pendulum_system(100), 1).system, 3).system
    yield "pendulum-h3d1", h3d1, ("regret", "hinf")


_SEARCHES = {
    "regret": (ct.regret_optimal, eager_regret_optimal, "backward_kalman", (ct, "_regret_probe")),
    "hinf": (ct.hinf_optimal, eager_hinf_optimal, "hinf_backward", (riccati, "_hinf_probe")),
}


def _swept(kind, search, sys):
    """search(sys, 1e-6), the steps its probes swept and the levels they
    probed."""
    _, _, kernel, (owner, start) = _SEARCHES[kind]
    steps, levels = [], []
    spied, started = getattr(kernels, kernel), getattr(owner, start)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, kernel, lambda A, *args: steps.append(A.shape[0]) or spied(A, *args))
        mp.setattr(owner, start, lambda sys, g: levels.append(g) or started(sys, g))
        out = search(sys, 1e-6)
    return out, sum(steps), levels


def _same_search(a, b, kind):
    (res_a, ctrl_a), (res_b, ctrl_b) = a, b
    same = (
        res_a.gamma_opt == res_b.gamma_opt
        and res_a.bracket_history == res_b.bracket_history
        and res_a.iterations == res_b.iterations
        and np.array_equal(res_a.final_margins, res_b.final_margins)
    )
    paths = _TAPES if kind == "regret" else ("K_x", "K_w", "tape.P", "tape.H", "tape.margins")
    return same and all(np.array_equal(_tape(ctrl_a, path), _tape(ctrl_b, path)) for path in paths)


class TestLazySearch:
    """The lazy search against the eager one, which sweeps every probe to
    t = 0 or to its failure (`helpers.eager_bisect_gamma`)."""

    @pytest.mark.parametrize("kind", ["regret", "hinf"])
    def test_equals_the_eager_search_and_sweeps_no_more(self, kind):
        lazy, eager, _, _ = _SEARCHES[kind]
        total = {"lazy": 0, "eager": 0}
        for name, sys, searches in _lazy_family():
            if kind not in searches:
                continue
            a, total_a, levels_a = _swept(kind, lazy, sys)
            b, total_b, levels_b = _swept(kind, eager, sys)
            total["lazy"] += total_a
            total["eager"] += total_b
            if name in ("pendulum-T100", "pendulum-T1000", "pendulum-h3d1"):
                # the benchmark's searches, which get no path; the last is not
                # monotone near gamma_opt, yet both searches keep the eager results
                assert _same_search(a, b, kind), name
            elif not _same_search(a, b, kind):
                # allowed only where the eager verdicts are not monotone in
                # the level over the levels either search probed
                probe = {"regret": ct.synthesize_regret, "hinf": riccati.backward_hinf}[kind]
                verdicts = [probe(sys, g).feasible for g in sorted(set(levels_a + levels_b))]
                assert verdicts != sorted(verdicts), name
            # the regret search of the benchmark's gamma workload, paused from
            # its first failure on, and the H-infinity search of its simulate
            # workload, which pausing during the halving descent made longer
            if name == "pendulum-T1000":
                assert total_a <= min(1912, total_b / 2), (total_a, total_b)
            if name == "pendulum-h3d1" and kind == "hinf":
                assert total_a <= 2148, (total_a, total_b)
        assert total["lazy"] <= total["eager"], total


class TestRegretProblem:
    @pytest.mark.parametrize("test", ["level1"])  # the one feasibility test, named in the ids
    @pytest.mark.parametrize(
        "sys",
        [s1(), s1(7, R=2.0, Q_T=[[1.5]]), pendulum_system(30)]
        + [random_system(seed) for seed in (0, 3, 8)]
        + [random_system(104, stable=False)],
    )
    def test_one_preparation_serves_every_level(self, sys, test):
        """A bisection prepares the problem once and probes every level on
        it: each probe, an infeasible one between feasible ones included,
        has the bits of a synthesis from a fresh preparation, and leaves the
        shared arrays it reads as it found them."""
        problem = ct.prepare_regret(sys)
        shared = {
            "Phat_T": problem.Phat_T, "Qhat": problem.Qhat, "Bhat_u": problem.Bhat_u,
            "Atil": problem.fwd.Atil, "W": problem.fwd.W, "A": problem.norm.system.A,
            "B_u": problem.norm.system.B_u, "B_w": problem.norm.system.B_w,
        }
        before = {name: a.copy() for name, a in shared.items()}
        g_opt = ct.regret_optimal(sys, 1e-3)[0].gamma_opt
        for gamma in (2.0 * g_opt, 0.5 * g_opt, g_opt):
            a = ct._regret_probe(problem, gamma).result()
            b = ct.synthesize_regret(sys, gamma)
            assert a.feasible == b.feasible == (gamma >= g_opt)
            for path in _TAPES:
                assert np.array_equal(_tape(a, path), _tape(b, path)), path
        for name, a in shared.items():
            assert np.array_equal(a, before[name]), name

    @pytest.mark.parametrize("seed", [0, 3, 104])
    def test_assembly_and_gains_match_per_step_loop(self, seed):
        """The doubled system the referees rebuild (`doubled_system`), step
        by step, and the gains the synthesis reads from it by blocks."""
        sys = random_system(seed, stable=seed < 100)
        syn = ct.synthesize_regret(sys, 2.0 * ct.regret_optimal(sys, 1e-3)[0].gamma_opt)
        nsys, fwd = syn.norm.system, syn.fwd
        d = doubled_system(syn.norm, fwd, syn.gamma)
        n = nsys.n
        for t in range(nsys.T):
            BwK = nsys.B_w[t] @ d.bwd.K_bl[t].T
            Bw_scaled = nsys.B_w[t] @ d.bwd.R_be_inv_sqrt[t]
            assert np.array_equal(d.Ahat[t, :n, :n], nsys.A[t])
            assert np.array_equal(d.Ahat[t, :n, n:], -BwK)
            assert np.array_equal(d.Ahat[t, n:, n:], fwd.Atil[t] - BwK)
            assert not d.Ahat[t, n:, :n].any()
            assert np.array_equal(d.Bhat_u[t, :n], nsys.B_u[t]) and not d.Bhat_u[t, n:].any()
            assert np.array_equal(d.Bhat_w[t], np.vstack((Bw_scaled, Bw_scaled)))
            assert np.array_equal(d.Qhat[t, :n, :n], nsys.Q[t])
            assert np.count_nonzero(d.Qhat[t]) == np.count_nonzero(nsys.Q[t])
            H, P = syn.Hhat[t], syn.Phat[t + 1]
            X_xi = np.block([[nsys.A[t], np.zeros((n, n))], [np.zeros((n, n)), fwd.Atil[t]]])
            X_w = np.vstack((nsys.B_w[t], nsys.B_w[t]))
            # by blocks, bit for bit ...
            K_x = -np.linalg.solve(H, (nsys.B_u[t].T @ P[:n, :n]) @ nsys.A[t])
            K_d = -np.linalg.solve(H, (nsys.B_u[t].T @ P[:n, n:]) @ fwd.Atil[t])
            assert np.array_equal(syn.K_xi[t], np.hstack((K_x, K_d)))
            assert np.array_equal(syn.K_w[t], -np.linalg.solve(H, (nsys.B_u[t].T @ P[:n]) @ X_w))
            # ... the doubled system's -Hhat^{-1} Bhat_u' Phat X
            BtP = d.Bhat_u[t].T @ P
            assert np.allclose(syn.K_xi[t], -np.linalg.solve(H, BtP @ X_xi), rtol=1e-12, atol=1e-14)
            assert np.allclose(syn.K_w[t], -np.linalg.solve(H, BtP @ X_w), rtol=1e-12, atol=1e-14)

    def test_probe_builds_no_gains(self):
        syn = ct.synthesize_regret(s1(), 2.0)
        assert syn.feasible
        assert "K_xi" not in vars(syn) and "K_w" not in vars(syn)
        K_xi = syn.K_xi
        assert "K_xi" in vars(syn) and "K_w" not in vars(syn)
        assert syn.K_xi is K_xi
        assert syn.K_w.shape == (3, 1, 1)

    def test_bisection_builds_gains_only_when_used(self, monkeypatch):
        built = []
        gain = ct.RegretSynthesis._gain

        def counted_gain(synthesis, P, X):
            built.append(X.shape)
            return gain(synthesis, P, X)

        monkeypatch.setattr(ct.RegretSynthesis, "_gain", counted_gain)
        sys = random_system(3)
        _, ctrl = ct.regret_optimal(sys, 1e-6)
        assert built == []
        ctrl.control_sequence(np.ones((sys.T, sys.p)))
        assert len(built) == 3  # K_xi's two blocks and K_w

    @pytest.mark.parametrize("sys", [pendulum_system(30), pendulum_system(100)], ids=["T30", "T100"])
    def test_regret_optimal_returns_the_synthesis_at_gamma_opt(self, sys):
        """Every tape of the controller, paused and resumed or not, has the
        bits of a synthesis of its own at gamma_opt."""
        res, ctrl = ct.regret_optimal(sys, 1e-6)
        syn = ct.synthesize_regret(sys, res.gamma_opt)
        assert ctrl.gamma == res.gamma_opt and ctrl.feasible
        for path in _TAPES:
            assert np.array_equal(_tape(ctrl, path), _tape(syn, path)), path
        assert res.final_margins is ctrl.margins

    def test_infeasible_gains_are_zero(self):
        syn = ct.synthesize_regret(s1(), 0.1)
        assert not syn.feasible
        assert syn.K_xi.shape == (3, 1, 2) and not syn.K_xi.any()
        assert syn.K_w.shape == (3, 1, 1) and not syn.K_w.any()

    def test_infeasible_synthesis_refuses_to_run(self):
        syn = ct.synthesize_regret(s1(), 0.1)
        with pytest.raises(ct.InfeasibleError, match=r"gamma=0\.1 \(first failing step t=") as info:
            syn.control_sequence(np.ones((3, 1)))
        assert info.value.step == syn.first_infeasible_step


_SWEEP_SYSTEMS = (
    [s1(), s1(10), s1(7, R=2.0, Q_T=[[1.5]]), pendulum_system(30), pendulum_system(100)]
    + [random_system(seed, T_max=20) for seed in range(120, 126)]
    + [random_system(seed, T_max=20, stable=False) for seed in range(220, 226)]
)


class TestWindowedSweep:
    """The sweep in doubling windows against one sweep over the horizon."""

    @pytest.mark.parametrize("test", ["level1"])  # the one feasibility test, named in the ids
    @pytest.mark.parametrize("sys", _SWEEP_SYSTEMS)
    def test_matches_full_horizon_sweep(self, sys, test, monkeypatch):
        g_opt = ct.regret_optimal(sys, 1e-6)[0].gamma_opt
        # a window of 32 steps or more runs as a scan (here only on the
        # pendulum at T=100, from its window of 32 steps on); the reference
        # is one loop over the horizon from the synthesis' own forward Kalman
        # tape (which the pendulum at T=100 also scans)
        scanned = any(t1 - t0 >= kernels._SCAN_MIN_STEPS for t0, t1 in riccati._windows(sys.T))
        for c in (0.3, 0.9, 0.999, 1.0, 1.001, 1.1, 3.0):
            syn = ct.synthesize_regret(sys, c * g_opt)
            with monkeypatch.context() as mp:
                mp.setattr(kernels, "_chunk_length", lambda k: k)
                mp.setattr(riccati, "forward_kalman", lambda norm: syn.fwd)
                ref = full_horizon_reference(sys, c * g_opt, test)
            # the margins alone decide, as the positive definite Hhat test
            # they once came with would have
            feasible = ref.feasible and bool(np.all(np.linalg.eigvalsh(ref.Hhat).min(axis=1) > 0))
            assert syn.feasible == feasible, c
            assert syn.first_infeasible_step == ref.first_infeasible_step, c
            if feasible and scanned:
                # scan and loop agree to rounding, except at levels on the
                # singular boundary (c = 1, 1.001), where only the verdict holds
                if c >= 1.02:
                    for field, a, b in self._tapes(syn, ref):
                        assert np.abs(a - b).max() <= 1e-9 * np.abs(b).max(), field
            elif feasible:
                for field, a, b in self._tapes(syn, ref):
                    assert np.array_equal(a, b), field
            elif np.any(ref.Hhat):  # the swept steps after the failure hold the same bits
                t = syn.first_infeasible_step
                assert np.array_equal(syn.margins[t + 1:], ref.margins[t + 1:])
                assert np.array_equal(syn.Phat[t + 1:], ref.Phat[t + 1:])
                # the failure flags every earlier step
                assert syn.margins[t] >= 1.0 and np.all(syn.margins[:t] == syn.margins[t])

    @staticmethod
    def _tapes(syn, ref):
        """(name, synthesis field, reference field) for every tape and gain."""
        for field in ("Phat", "Hhat", "margins", "K_xi", "K_w"):
            yield field, getattr(syn, field), getattr(ref, field)

    def test_infeasible_level_names_the_step_that_failed(self):
        with pytest.raises(ct.InfeasibleError, match=r"first failing step t=97\)") as info:
            ct.regret_controller(pendulum_system(100), 1.0)
        assert info.value.step == 97

    def test_infeasible_probe_stops_within_twice_its_depth(self, monkeypatch):
        steps = []
        backward_kalman = kernels.backward_kalman

        def counted(Atil, *args):
            steps.append(Atil.shape[0])
            return backward_kalman(Atil, *args)

        monkeypatch.setattr(kernels, "backward_kalman", counted)
        T = 1000
        # the pendulum fails within ~10 steps of T at levels clear of
        # gamma_opt; with no disturbance after t = 600 a level fails only
        # once the sweep gets there, in the window of 256 steps
        for sys, levels in ((pendulum_system(T), (0.5, 1.0, 1.7)), (quiet_tail_pendulum(T), (0.5, 1.7))):
            problem = ct.prepare_regret(sys)
            for gamma in levels:
                steps.clear()
                syn = ct._regret_probe(problem, gamma).result()
                t_fail = syn.first_infeasible_step
                assert t_fail is not None
                # it stops after the window that holds the failing step, so
                # within twice its depth and the first window's 16 steps
                assert steps == [16 * 2**k for k in range(len(steps) - 1)] + steps[-1:]
                assert sum(steps[:-1]) < T - t_fail <= sum(steps) <= 2 * (T - t_fail) + 14
        assert T - t_fail > 256  # the last level fails deep into the horizon

    def test_feasible_probe_sweeps_every_step_once(self, monkeypatch):
        steps = []
        backward_kalman = kernels.backward_kalman

        def counted(Atil, *args):
            steps.append(Atil.shape[0])
            return backward_kalman(Atil, *args)

        monkeypatch.setattr(kernels, "backward_kalman", counted)
        syn = ct.synthesize_regret(pendulum_system(100), 3.0)
        assert syn.feasible
        assert steps == [16, 32, 52]

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, 0.0, -1.0])
    def test_level_rejected_before_any_work(self, gamma, monkeypatch):
        monkeypatch.setattr(ct, "prepare_regret", None)  # any use would fail
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            ct.synthesize_regret(s1(), gamma)


class TestStructure:
    @staticmethod
    def _feasible_synthesis():
        sys = random_system(11, n_max=2, T_max=8)
        res, _ = ct.regret_optimal(sys, tol=1e-8)
        syn = ct.synthesize_regret(sys, 1.5 * res.gamma_opt)
        assert syn.feasible
        dense.structure_check(syn)
        return syn

    def test_p11_deviation_raises(self, monkeypatch):
        syn = self._feasible_synthesis()
        n = syn.norm.system.n

        def tampered(*args):
            d = doubled_system(*args)
            Qhat = d.Qhat.copy()
            Qhat[:, :n, :n] *= 1.01  # the control-only recursion no longer tracks LQR
            return dataclasses.replace(d, Qhat=Qhat)

        monkeypatch.setattr(dense, "doubled_system", tampered)
        with pytest.raises(dense.StructuralMismatchError, match="P_11 deviates from the LQR"):
            dense.structure_check(syn)

    def test_gain_decomposition_raises(self):
        syn = self._feasible_synthesis()
        tampered = dataclasses.replace(syn)
        tampered.K_w = 1.01 * syn.K_w  # K_xi keeps its bits
        assert np.array_equal(tampered.K_xi, syn.K_xi)
        with pytest.raises(dense.StructuralMismatchError, match="control decomposition residual"):
            dense.structure_check(tampered)

    def test_s1_structure_report(self):
        sys = s1()
        res, _ = ct.regret_optimal(sys, tol=1e-8)
        syn = ct.synthesize_regret(sys, 1.5 * res.gamma_opt)
        rep = dense.structure_check(syn)
        assert rep.max_p11_deviation <= 1e-8
        assert rep.max_decomposition_residual <= 1e-8

    def test_qt_variant(self):
        sys = s1(Q_T=[[1.0]])
        res, _ = ct.regret_optimal(sys, tol=1e-8)
        syn = ct.synthesize_regret(sys, 1.5 * res.gamma_opt)
        rep = dense.structure_check(syn)
        assert rep.max_p11_deviation <= 1e-8

    def test_random_decomposition_residual(self):
        sys = random_system(11, n_max=2, T_max=8)
        res, _ = ct.regret_optimal(sys, tol=1e-8)
        syn = ct.synthesize_regret(sys, 1.5 * res.gamma_opt)
        rep = dense.structure_check(syn)
        assert rep.max_decomposition_residual <= 1e-8

    def test_zero_weighting_zero_blocks(self):
        sys = s1()
        zero_q = validate_system(
            LqSystem(sys.A, sys.B_u, sys.B_w, np.zeros_like(sys.Q), sys.R, sys.Q_T)
        )
        syn = ct.synthesize_regret(zero_q, 1.0)
        assert not syn.Phat.any()
        assert not dense.structural_value_tape(syn).any()


class TestBatchedControlSequence:
    """control_sequence on a (k, T, p) batch equals the stacked single calls
    bit for bit, for every controller class."""

    @staticmethod
    def _controllers(sys):
        return [
            ct.synthesize_h2(sys),
            ct.hinf_optimal(sys, 1e-6)[1],
            ct.regret_optimal(sys, 1e-6)[1],
            ct.OfflineController(sys),
        ]

    @pytest.mark.parametrize(
        "sys",
        [
            s1(R=2.0),
            pendulum_system(30),
            random_system(41, T_max=10),
            random_system(42, T_max=10, stable=False, with_terminal=True),
        ],
        ids=["s1_r2", "pendulum", "stable", "unstable"],
    )
    def test_batch_equals_stacked_single_calls(self, sys):
        w = np.random.default_rng(5).standard_normal((6, sys.T, sys.p))
        for ctrl in self._controllers(sys):
            batch = ctrl.control_sequence(w)
            single = np.stack([ctrl.control_sequence(w[k]) for k in range(6)])
            assert batch.shape == (6, sys.T, sys.m)
            assert np.array_equal(batch, single), type(ctrl).__name__

    def test_two_batch_axes(self):
        sys = random_system(43, T_max=8)
        w = np.random.default_rng(6).standard_normal((2, 3, sys.T, sys.p))
        for ctrl in self._controllers(sys):
            batch = ctrl.control_sequence(w)
            assert batch.shape == (2, 3, sys.T, sys.m)
            assert np.array_equal(batch[1, 2], ctrl.control_sequence(w[1, 2]))

    def test_offline_plan_batch(self):
        sys = random_system(44, T_max=8)
        w = np.random.default_rng(7).standard_normal((4, sys.T, sys.p))
        batch = ct.OfflineController(sys).plan(w)
        for k in range(4):
            assert np.array_equal(batch[k], ct.OfflineController(sys).plan(w[k]))
