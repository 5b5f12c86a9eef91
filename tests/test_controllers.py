import dataclasses
import weakref

import numpy as np
import pytest

from regretctl import controllers as ct
from regretctl import kernels, riccati
from regretctl import operator_oracle as oo
from regretctl.cli import pendulum_system
from regretctl.system_model import (
    LqSystem,
    evaluate_cost,
    normalize_control_weight,
    validate_system,
)
from helpers import (
    full_horizon_reference,
    printed_regret_optimal,
    quiet_tail_pendulum,
    random_system,
    s1,
)


def ops_for(sys):
    return oo.build_operators(normalize_control_weight(sys).system)


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
            K = oo.controller_operator(sys, ct.synthesize_h2(sys))
            K_op = oo.h2_operator_form(ops_for(sys))
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

    @staticmethod
    def _tapes(syn, ref):
        """(name, synthesis field, reference field) for every tape."""
        for field in ("P_b", "K_bl", "R_be", "R_be_sqrt", "R_be_inv_sqrt"):
            yield field, getattr(syn.bwd, field), getattr(ref.bwd, field)
        for field in ("Ahat", "Bhat_w", "Phat", "Hhat", "margins"):
            yield field, getattr(syn, field), getattr(ref, field)

    def test_infeasible_level_names_the_step_that_failed(self):
        with pytest.raises(ct.InfeasibleError, match=r"first failing step t=98\)") as info:
            ct.synthesize_hinf(pendulum_system(100), 1.0)
        assert info.value.step == 98

    def test_bisection_keeps_its_last_feasible_tape(self, monkeypatch):
        tapes = []
        backward_hinf = riccati.backward_hinf

        def recorded(sys, gamma):
            tapes.append(backward_hinf(sys, gamma))
            return tapes[-1]

        monkeypatch.setattr(riccati, "backward_hinf", recorded)
        sys = random_system(2, T_max=8)
        res, ctrl = ct.hinf_optimal(sys, 1e-6)
        assert len(tapes) == res.iterations + 1  # one call per probe, none after
        last = [tape for tape in tapes if tape.feasible][-1]
        assert ctrl.tape is last and last.gamma == res.gamma_opt
        assert res.final_margins is last.margins
        monkeypatch.undo()
        again = ct.synthesize_hinf(sys, res.gamma_opt)
        assert np.array_equal(ctrl.K_x, again.K_x) and np.array_equal(ctrl.K_w, again.K_w)

    def test_achieves_gain_bound(self):
        sys = s1()
        res, ctrl = ct.hinf_optimal(sys, tol=1e-8)
        ops = ops_for(sys)
        K = oo.controller_operator(sys, ctrl)
        assert oo.worst_case_cost_gain(ops, K) <= res.gamma_opt**2 * (1 + 1e-6)


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
        ops = oo.build_operators(nsys.system)
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.standard_normal((sys.T, sys.p))
            u_ss = ct.OfflineController(sys).plan(w)
            u_dense, _ = oo.offline_optimal(ops, w.reshape(-1))
            u_dense = nsys.to_original_u(u_dense.reshape(sys.T, sys.m))
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
            _, off = oo.offline_optimal(ops_for(sys), w.reshape(-1))
            assert cost - off < gamma**2 * (w**2).sum() + 1e-9

    def test_probed_operator_causal(self):
        sys = random_system(5, T_max=8)
        res, ctrl = ct.regret_optimal(sys, tol=1e-6)
        K = oo.controller_operator(sys, ctrl, tol=1e-9)  # raises on violation
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
        assert isinstance(ctrl, ct.ZeroController)

    @pytest.mark.parametrize("zeroed", [("B_w",), ("Q", "Q_T")], ids=["no-disturbance", "no-weight"])
    def test_degenerate_margins_equal_every_probes(self, zeroed):
        """The degenerate fast path reports the margins that every probe of
        such a system reads: -1 at each step, since the level-1 test is -I
        where Bhat_w = 0 or Phat = 0."""
        sys = pendulum_system(40)
        blocks = {k: getattr(sys, k) for k in ("A", "B_u", "B_w", "Q", "R", "Q_T")}
        blocks.update({k: np.zeros_like(blocks[k]) for k in zeroed})
        degenerate = validate_system(LqSystem(**blocks))
        res, _ = ct.regret_optimal(degenerate)
        assert res.final_margins.tolist() == [-1.0] * 40
        for gamma in (1e-3, 1.0, 30.0):
            assert np.array_equal(ct.synthesize_regret(degenerate, gamma).margins, res.final_margins)

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
        cert = oo.worst_case_regret_gain(ops_for(sys), oo.controller_operator(sys, ctrl))
        assert cert.gain == pytest.approx(res.gamma_opt**2, rel=1e-4)

    def test_baseline_dominance(self):
        sys = s1()
        res, _ = ct.regret_optimal(sys, tol=1e-8)
        ops = ops_for(sys)
        h2_gain = oo.worst_case_regret_gain(ops, oo.controller_operator(sys, ct.synthesize_h2(sys))).gain
        _, hinf = ct.hinf_optimal(sys, tol=1e-8)
        hinf_gain = oo.worst_case_regret_gain(ops, oo.controller_operator(sys, hinf)).gain
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
        (the dense oracle is accurate on the first two systems; on the
        pendulum at T=30 it is off by about 0.6%)."""
        systems = [random_system(0), random_system(104, stable=False), pendulum_system(30)]
        for k, sys in enumerate(systems):
            res, ctrl = printed_regret_optimal(sys, 1e-8)
            cert = oo.worst_case_regret_gain(ops_for(sys), oo.controller_operator(sys, ctrl))
            assert cert.gain > 2.0 * res.gamma_opt**2, k
            if k < 2:
                res, ctrl = ct.regret_optimal(sys, 1e-8)
                cert = oo.worst_case_regret_gain(ops_for(sys), oo.controller_operator(sys, ctrl))
                assert cert.gain == pytest.approx(res.gamma_opt**2, rel=1e-6), k


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


class _Probe:
    def __init__(self, gamma, feasible):
        self.gamma, self.feasible = gamma, feasible
        self.margins = np.array([-gamma if feasible else gamma])


class _Threshold:
    """A fake probe, feasible iff gamma >= theta, that records every level.
    It fails a search that does not end within 1000 probes, or that still
    holds an infeasible probe when it asks for the next one (each probe of
    a long horizon holds its tapes)."""

    def __init__(self, theta):
        self.theta, self.levels, self.infeasible = theta, [], []

    def __call__(self, gamma):
        assert all(ref() is None for ref in self.infeasible), "an infeasible probe outlived its verdict"
        self.levels.append(gamma)
        assert len(self.levels) <= 1000, "the search does not end"
        result = _Probe(gamma, gamma >= self.theta)
        if not result.feasible:
            self.infeasible.append(weakref.ref(result))
        return result


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
    passes, double while every level fails, then bisect the bracket."""

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


_TAPES = (
    "Ahat", "Bhat_u", "Bhat_w", "Qhat", "Phat", "Hhat", "margins", "M_state", "M_z",
    "norm.R_sqrt", "norm.R_inv_sqrt", "norm.system.B_u",
    "fwd.P", "fwd.K_p", "fwd.R_e", "fwd.Atil", "fwd.sqQ", "fwd.W",
    "bwd.P_b", "bwd.K_bl", "bwd.R_be", "bwd.R_be_sqrt", "bwd.R_be_inv_sqrt",
)


def _tape(syn, path):
    for attr in path.split("."):
        syn = getattr(syn, attr)
    return syn


class TestRegretProblem:
    @pytest.mark.parametrize("test", ["level1"])  # the one feasibility test, named in the ids
    @pytest.mark.parametrize(
        "sys",
        [s1(), s1(7, R=2.0, Q_T=[[1.5]]), pendulum_system(30)]
        + [random_system(seed) for seed in (0, 3, 8)]
        + [random_system(104, stable=False)],
    )
    def test_prepared_equals_unprepared(self, sys, test):
        problem = ct.prepare_regret(sys)
        g_opt = ct.regret_optimal(sys, 1e-3)[0].gamma_opt
        for gamma in (0.5 * g_opt, g_opt, 2.0 * g_opt):
            a = ct.synthesize_regret(problem, gamma)
            b = ct.synthesize_regret(sys, gamma)
            assert a.feasible == b.feasible
            for path in _TAPES:
                assert np.array_equal(_tape(a, path), _tape(b, path)), path

    @pytest.mark.parametrize("seed", [0, 3, 104])
    def test_assembly_and_gains_match_per_step_loop(self, seed):
        sys = random_system(seed, stable=seed < 100)
        syn = ct.synthesize_regret(sys, 2.0 * ct.regret_optimal(sys, 1e-3)[0].gamma_opt)
        nsys, fwd, bwd = syn.norm.system, syn.fwd, syn.bwd
        n = nsys.n
        for t in range(nsys.T):
            BwK = nsys.B_w[t] @ bwd.K_bl[t].T
            Bw_scaled = nsys.B_w[t] @ bwd.R_be_inv_sqrt[t]
            assert np.array_equal(syn.Ahat[t, :n, :n], nsys.A[t])
            assert np.array_equal(syn.Ahat[t, :n, n:], -BwK)
            assert np.array_equal(syn.Ahat[t, n:, n:], fwd.Atil[t] - BwK)
            assert not syn.Ahat[t, n:, :n].any()
            assert np.array_equal(syn.Bhat_u[t, :n], nsys.B_u[t]) and not syn.Bhat_u[t, n:].any()
            assert np.array_equal(syn.Bhat_w[t], np.vstack((Bw_scaled, Bw_scaled)))
            assert np.array_equal(syn.Qhat[t, :n, :n], nsys.Q[t])
            assert np.count_nonzero(syn.Qhat[t]) == np.count_nonzero(nsys.Q[t])
            BtP = syn.Bhat_u[t].T @ syn.Phat[t + 1]
            assert np.array_equal(syn.M_state[t], -np.linalg.solve(syn.Hhat[t], BtP @ syn.Ahat[t]))
            assert np.array_equal(syn.M_z[t], -np.linalg.solve(syn.Hhat[t], BtP @ syn.Bhat_w[t]))

    def test_probe_builds_no_gains(self):
        problem = ct.prepare_regret(s1())
        syn = ct.synthesize_regret(problem, 2.0)
        assert syn.feasible
        assert "M_state" not in vars(syn) and "M_z" not in vars(syn)
        M_state = syn.M_state
        assert "M_state" in vars(syn) and "M_z" not in vars(syn)
        assert syn.M_state is M_state
        assert syn.M_z.shape == (3, 1, 1)

    def test_bisection_builds_gains_only_when_used(self, monkeypatch):
        built = []
        gain = ct.RegretSynthesis._gain

        def counted_gain(synthesis, X):
            built.append(X.shape)
            return gain(synthesis, X)

        monkeypatch.setattr(ct.RegretSynthesis, "_gain", counted_gain)
        sys = random_system(3)
        _, ctrl = ct.regret_optimal(sys, 1e-6)
        assert built == []
        ctrl.control_sequence(np.ones((sys.T, sys.p)))
        assert len(built) == 2

    def test_regret_optimal_returns_its_last_feasible_probe(self, monkeypatch):
        probes = []
        synthesize = ct.synthesize_regret

        def recorded(*args):
            probes.append(synthesize(*args))
            return probes[-1]

        monkeypatch.setattr(ct, "synthesize_regret", recorded)
        res, ctrl = ct.regret_optimal(pendulum_system(30), 1e-6)
        assert len(probes) == res.iterations + 1  # one synthesis per probe, none after
        last = [syn for syn in probes if syn.feasible][-1]
        assert ctrl is last and last.gamma == res.gamma_opt
        assert res.final_margins is last.margins

    def test_infeasible_gains_are_zero(self):
        syn = ct.synthesize_regret(s1(), 0.1)
        assert not syn.feasible
        assert syn.M_state.shape == (3, 1, 2) and not syn.M_state.any()
        assert syn.M_z.shape == (3, 1, 1) and not syn.M_z.any()

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
                assert np.array_equal(syn.bwd.P_b[t:], ref.bwd.P_b[t:])
                # the failure flags every earlier step
                assert syn.margins[t] >= 1.0 and np.all(syn.margins[:t] == syn.margins[t])

    @staticmethod
    def _tapes(syn, ref):
        """(name, synthesis field, reference field) for every tape."""
        for field in ("P_b", "K_bl", "R_be", "R_be_sqrt", "R_be_inv_sqrt"):
            yield field, getattr(syn.bwd, field), getattr(ref.bwd, field)
        for field in ("Ahat", "Bhat_w", "Phat", "Hhat", "margins"):
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
                syn = ct.synthesize_regret(problem, gamma)
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
        ct.structure_check(syn)
        return syn

    def test_p11_deviation_raises(self):
        syn = self._feasible_synthesis()
        n = syn.norm.system.n
        Qhat = syn.Qhat.copy()
        Qhat[:, :n, :n] *= 1.01  # the control-only recursion no longer tracks LQR
        with pytest.raises(ct.StructuralMismatchError, match="P_11 deviates from the LQR"):
            ct.structure_check(dataclasses.replace(syn, Qhat=Qhat))

    def test_gain_decomposition_raises(self):
        syn = self._feasible_synthesis()
        tampered = dataclasses.replace(syn, Bhat_w=1.01 * syn.Bhat_w)  # moves M_z only
        assert np.array_equal(tampered.M_state, syn.M_state)
        with pytest.raises(ct.StructuralMismatchError, match="control decomposition residual"):
            ct.structure_check(tampered)

    def test_s1_structure_report(self):
        sys = s1()
        res, _ = ct.regret_optimal(sys, tol=1e-8)
        syn = ct.synthesize_regret(sys, 1.5 * res.gamma_opt)
        rep = ct.structure_check(syn)
        assert rep.max_p11_deviation <= 1e-8
        assert rep.max_decomposition_residual <= 1e-8

    def test_qt_variant(self):
        sys = s1(Q_T=[[1.0]])
        res, _ = ct.regret_optimal(sys, tol=1e-8)
        syn = ct.synthesize_regret(sys, 1.5 * res.gamma_opt)
        rep = ct.structure_check(syn)
        assert rep.max_p11_deviation <= 1e-8

    def test_random_decomposition_residual(self):
        sys = random_system(11, n_max=2, T_max=8)
        res, _ = ct.regret_optimal(sys, tol=1e-8)
        syn = ct.synthesize_regret(sys, 1.5 * res.gamma_opt)
        rep = ct.structure_check(syn)
        assert rep.max_decomposition_residual <= 1e-8

    def test_zero_weighting_zero_blocks(self):
        sys = s1()
        zero_q = validate_system(
            LqSystem(sys.A, sys.B_u, sys.B_w, np.zeros_like(sys.Q), sys.R, sys.Q_T)
        )
        syn = ct.synthesize_regret(zero_q, 1.0)
        assert not syn.Phat.any()
        assert not ct.structural_value_tape(syn).any()


class TestBatchedControlSequence:
    """control_sequence on a (k, T, p) batch equals the stacked single calls
    bit for bit, for every controller class."""

    @staticmethod
    def _controllers(sys):
        return [
            ct.ZeroController(sys),
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
