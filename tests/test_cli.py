import copy
import gc
import importlib
import importlib.abc
import json
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
import weakref
from datetime import timedelta
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from helpers import REGRET_FREE, ZeroController, generate, random_system, reference_jsonable
import dense_oracle as dense
import regretctl
import rollout_oracle as ro
from regretctl import cli
from regretctl import controllers as ct
from regretctl import kernels
from regretctl import operator_oracle as oo
from regretctl import riccati
from regretctl.cli import (
    ConfigError,
    emit_csv,
    emit_json,
    main,
    parse_config,
    pendulum_system,
)
from regretctl.sim_bench import DisturbanceSpec
from regretctl.system_model import normalize_control_weight

S1_CONFIG = {
    "system": {
        "lti": {"A": [[1.0]], "Bu": [[1.0]], "Bw": [[1.0]], "Q": [[1.0]], "R": [[1.0]]}
    },
    "horizon": 3,
}
DATA = Path(__file__).parent / "data"
# the configs of tests/data that every subcommand accepts, and those it refuses
VALID_CONFIGS = sorted(p.name for p in DATA.glob("*.json") if not p.name.startswith("bad_"))
BAD_CONFIGS = sorted(p.name for p in DATA.glob("bad_*.json"))


def _regret_free_config(tmp_path, zeroed):
    """tests/data/degenerate.json with the pendulum's blocks `zeroed` (a
    value of helpers.REGRET_FREE) set to zero and the others restored:
    its own plant (B_w = 0) for ("B_w",)."""
    doc = json.loads((DATA / "degenerate.json").read_text())
    lti = doc["system"]["lti"]
    lti["Bw"] = np.zeros((2, 2)).tolist() if "B_w" in zeroed else np.eye(2).tolist()
    if "Q" in zeroed:
        lti["Q"] = np.zeros((2, 2)).tolist()
    path = tmp_path / "regret_free.json"
    path.write_text(json.dumps(doc))
    return path


def _pendulum_doc(kind, params):
    """The pendulum config of tests/data/bad_disturbance.json (T = 100,
    p = 2) with the given disturbance."""
    doc = json.loads((DATA / "bad_disturbance.json").read_text())
    return dict(doc, disturbance={"kind": kind, "params": params})


def _refuse_synthesis(monkeypatch):
    """Make every synthesis entry point the CLI calls fail the test."""

    def refused(*args, **kwargs):
        raise AssertionError("synthesis ran")

    for name in ("synthesize_h2", "synthesize_hinf", "hinf_optimal", "regret_controller", "regret_optimal"):
        monkeypatch.setattr(ct, name, refused)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def s1_config(tmp_path):
    path = tmp_path / "s1.json"
    path.write_text(json.dumps(S1_CONFIG))
    return str(path)


class TestParseConfig:
    def test_minimal_accepted_with_defaults(self):
        cfg = parse_config(json.dumps(S1_CONFIG))
        r = cfg["resolved"]
        assert cfg["system"].T == 3
        assert r["controllers"] == ["h2", "hinf", "regret", "offline"]
        assert r["lookahead"] == 0 and r["delay"] == 0
        assert r["trials"] == 1 and r["seed"] == 0
        assert r["tol"] == 1e-6
        assert r["disturbance"]["kind"] == "gaussian"

    def test_rejects_indefinite_r(self):
        doc = json.loads(json.dumps(S1_CONFIG))
        doc["system"]["lti"]["R"] = [[0.0]]
        with pytest.raises(ConfigError, match="positive definite"):
            parse_config(doc)

    def test_rejects_unknown_field(self):
        doc = dict(S1_CONFIG, solver="fast")
        with pytest.raises(ConfigError, match="unknown config fields.*solver"):
            parse_config(doc)

    def test_rejects_unknown_system_field(self):
        doc = json.loads(json.dumps(S1_CONFIG))
        doc["system"]["lti"]["C"] = [[1.0]]
        with pytest.raises(ConfigError, match="unknown fields"):
            parse_config(doc)

    def test_parse_error_reports_location(self):
        with pytest.raises(ConfigError, match="line 1, column"):
            parse_config('{"system": }')

    @pytest.mark.parametrize("field, value", [("A", float("nan")), ("Q", float("inf"))])
    def test_rejects_non_finite_matrix(self, field, value):
        doc = json.loads(json.dumps(S1_CONFIG))
        doc["system"]["lti"][field] = [[value]]
        with pytest.raises(ConfigError, match=f"{field} has a non-finite"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("horizon", 2.7, "expected an integer"),
            ("horizon", True, "expected an integer"),
            ("horizon", "3", "expected an integer"),
            ("horizon", 0, "must be at least 1"),
            ("trials", 0, "must be at least 1"),
            ("trials", 2.0, "expected an integer"),
            ("delay", 1.5, "expected an integer"),
            ("delay", -1, "must be at least 0"),
            ("lookahead", False, "expected an integer"),
            ("lookahead", -2, "must be at least 0"),
            ("seed", "7", "expected an integer"),
            ("seed", 7.0, "expected an integer"),
            ("disturbance.seed", True, "expected an integer"),
        ],
    )
    def test_rejects_non_integer_fields(self, field, value, message):
        doc = json.loads(json.dumps(S1_CONFIG))
        if field == "disturbance.seed":
            doc["disturbance"] = {"kind": "gaussian", "seed": value}
        else:
            doc[field] = value
        with pytest.raises(ConfigError, match=f"field '{field}': {message}"):
            parse_config(doc)

    @pytest.mark.parametrize(
        "update, message",
        [
            ({"tol": "1e-3"}, "field 'tol': expected a number, got '1e-3'"),
            ({"tol": True}, "field 'tol': expected a number, got True"),
            ({"tol": [1]}, "field 'tol': expected a number, got [1]"),
            ({"output": []}, "field 'output': expected an object of file paths"),
            ({"output": {"csv": 5}}, "field 'output': expected an object of file paths"),
            ({"controllers": [{"hinf": "1.5"}]}, "field 'controllers.hinf': expected a number, got '1.5'"),
            ({"controllers": [{"hinf": True}]}, "field 'controllers.hinf': expected a number, got True"),
            ({"controllers": [{"regret": 0}]}, "field 'controllers.regret': the level must be positive"),
            ({"controllers": [{"h2": "auto", "hinf": "auto"}]}, "field 'controllers': unknown controller"),
            ({"disturbance": {"kind": "gaussian", "params": [1]}},
             "field 'disturbance.params': expected an object"),
            ({"disturbance": {"kind": "perlin"}}, "field 'disturbance.kind': unknown kind 'perlin'"),
            ({"disturbance": {"kind": ["gaussian"]}}, "field 'disturbance.kind': unknown kind ['gaussian']"),
            ({"disturbance": {"kind": "gaussian", "parms": {}}},
             "field 'disturbance': unknown fields ['parms']"),
            ({"controllers": []}, "field 'controllers': expected a non-empty list"),
            ({"controllers": "h2"}, "field 'controllers': expected a non-empty list"),
            ({"controllers": ["h2", "h2", {"hinf": 3.0}, "hinf"]},
             "field 'controllers': controller 'h2' is listed more than once"),
            ({"controllers": [{"hinf": 3.0}, "hinf"]},
             "field 'controllers': controller 'hinf' is listed more than once"),
            ({"lookahead": 4}, "field 'lookahead': must be at most the horizon 3, got 4"),
            ({"delay": 3}, "field 'delay': must be less than the horizon 3, got 3"),
        ],
    )
    def test_rejects_malformed_fields(self, update, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(dict(S1_CONFIG, **update))

    def test_numbers_and_levels_accepted(self):
        doc = dict(S1_CONFIG, tol=np.float32(0.5), controllers=[{"hinf": 2}, {"regret": "auto"}, "h2"],
                   output={"csv": "out.csv"})
        doc["disturbance"] = {"kind": "alternating", "params": {"period": 2}, "seed": 1}
        r = parse_config(doc)["resolved"]
        assert type(r["tol"]) is float and r["tol"] == 0.5
        assert r["controllers"] == [{"hinf": 2}, {"regret": "auto"}, "h2"]

    def test_integer_fields_accepted(self):
        doc = dict(S1_CONFIG, horizon=4, trials=2, delay=3, lookahead=4, seed=7)
        doc["disturbance"] = {"kind": "gaussian", "seed": np.int64(3)}
        r = parse_config(doc)["resolved"]
        assert (r["horizon"], r["trials"], r["delay"], r["lookahead"], r["seed"]) == (4, 2, 3, 4, 7)
        assert type(r["disturbance"]["seed"]) is int and r["disturbance"]["seed"] == 3

    def test_ltv_roundtrip(self):
        doc = {
            "system": {
                "ltv": {
                    "A": [[[1.0]], [[2.0]]],
                    "Bu": [[[1.0]], [[1.0]]],
                    "Bw": [[[1.0]], [[1.0]]],
                    "Q": [[[1.0]], [[1.0]]],
                    "R": [[[1.0]], [[1.0]]],
                }
            }
        }
        cfg = parse_config(doc)
        assert cfg["system"].T == 2
        assert cfg["system"].A[1, 0, 0] == 2.0

    def test_unknown_controller(self):
        doc = dict(S1_CONFIG, controllers=["pid"])
        with pytest.raises(ConfigError, match="unknown controller"):
            parse_config(doc)


def _strict_loads(text):
    """json.loads refusing NaN, Infinity and -Infinity, which are not JSON,
    and keys out of sorted order, which `emit_json` never writes."""

    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    def sorted_object(pairs):
        keys = [k for k, _ in pairs]
        assert keys == sorted(keys), keys
        return dict(pairs)

    return json.loads(text, parse_constant=refuse, object_pairs_hook=sorted_object)


_keys = st.text(st.sampled_from('aZ_09 "\\/\b\f\n\r\t\x00\x1f\x7fé€\u2028\ud800😀'), max_size=6)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**100), 2**100),
    st.floats(allow_nan=False, allow_infinity=False),  # −0.0 and subnormals included
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e308]),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    _keys,
)
_arrays = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
    elements={"allow_nan": False, "allow_infinity": False},
)
_documents = st.dictionaries(
    _keys,
    st.recursive(
        st.one_of(_scalars, _arrays),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(_keys, inner, max_size=4),
        ),
        max_leaves=12,
    ),
    max_size=5,
)


# Documents whose top-level values are often arrays of two or three
# dimensions, which `emit_json` encodes one row at a time.
_row_arrays = hnp.arrays(
    st.sampled_from([np.float64, np.float32]),
    hnp.array_shapes(min_dims=2, max_dims=3, min_side=0, max_side=4),
    elements={"allow_nan": False, "allow_infinity": False},
)
_row_documents = st.dictionaries(_keys, st.one_of(_row_arrays, _documents), max_size=4)


class TestEmitters:
    @settings(max_examples=50, deadline=None)
    @given(doc=_documents)
    def test_json_parses_back_to_reference(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("json") / "got.json"
        emit_json(str(path), doc)
        text = path.read_text()
        assert _strict_loads(text) == {**reference_jsonable(doc), "schema_version": "2"}
        assert text.endswith("\n") and not text.endswith("\n\n")

    @settings(max_examples=50, deadline=None)
    @given(doc=_row_documents)
    @example(doc={"A_hat": np.array([[[-0.0, 1.5]], [[2.0, -3.25]]], dtype=np.float32), "K": np.zeros((3, 0))})
    @example(doc={"K": np.array([[-0.0, 0.1], [1e308, 5e-324]]), "empty": np.zeros((0, 2, 2))})
    def test_json_is_the_one_shot_bytes(self, tmp_path_factory, doc):
        """The file is byte for byte the one-shot encoding of the plain
        document."""
        path = tmp_path_factory.mktemp("json") / "got.json"
        emit_json(str(path), doc)
        plain = reference_jsonable({**doc, "schema_version": "2"})
        expected = json.dumps(plain, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("bad", [object(), [1.0, 2j], {"z": np.complex128(1)}])
    def test_unencodable_value_leaves_target_untouched(self, tmp_path, bad):
        path = tmp_path / "out.json"
        path.write_text("previous\n")
        with pytest.raises(TypeError, match="not JSON serializable"):
            emit_json(str(path), {"a": np.arange(3.0), "b": bad})
        assert path.read_text() == "previous\n"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "wrap",
        [float, np.float32, lambda v: np.array([1.0, v]), lambda v: np.array([[1.0, v]])],
        ids=["float", "float32", "ndarray", "ndarray-row"],
    )
    def test_non_finite_value_is_refused(self, tmp_path, wrap, value):
        path = tmp_path / "out.json"
        path.write_text("previous\n")
        with pytest.raises(ValueError, match="not JSON compliant"):
            emit_json(str(path), {"a": np.arange(3.0), "b": wrap(value)})
        assert path.read_text() == "previous\n"

    def test_csv_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(str(path), ["t", "cost"], [])
        assert path.read_text() == "t,cost\n"

    def test_csv_full_precision(self, tmp_path):
        path = tmp_path / "x.csv"
        emit_csv(str(path), ["v"], [[1.0 / 3.0]])
        value = path.read_text().splitlines()[1]
        assert float(value) == 1.0 / 3.0


class TestGamma:
    def test_matches_certificate(self, runner, s1_config, tmp_path):
        out = tmp_path / "gamma.json"
        result = runner.invoke(main, ["gamma", "--config", s1_config, "--json", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == "2"
        assert doc["gamma_opt"] ** 2 == pytest.approx(0.1, rel=1e-4)

    def test_feasibility_test_option_is_gone(self, runner, s1_config):
        result = runner.invoke(main, ["gamma", "--config", s1_config, "--feasibility-test", "level1"])
        assert result.exit_code == 2
        assert "No such option '--feasibility-test'" in result.stderr

    def test_byte_identical_reruns(self, runner, s1_config, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            result = runner.invoke(main, ["gamma", "--config", s1_config, "--json", str(out)])
            assert result.exit_code == 0, result.output
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("zeroed", list(REGRET_FREE.values()), ids=list(REGRET_FREE))
    def test_degenerate_margins_are_strict_json(self, runner, tmp_path, zeroed):
        """A system whose disturbance produces no cost writes the margin
        every probe reads, -1, not -Infinity, which is not JSON; its search
        halves down to the 1e-8 floor."""
        out = tmp_path / "gamma.json"
        config = _regret_free_config(tmp_path, zeroed)
        result = runner.invoke(main, ["gamma", "--config", str(config), "--json", str(out)])
        assert result.exit_code == 0, result.output
        doc = _strict_loads(out.read_text())
        assert doc["gamma_opt"] == 0.0 and doc["iterations"] == 27
        assert doc["final_margins"] == [-1.0] * doc["config"]["horizon"]

    def test_smoke_long_search_recorded_at_seed(self, runner, tmp_path):
        """tests/data/smoke_long.json, the pendulum at T = 300, sweeps five
        windows, those of 32 steps or more as a chunked scan, and the lazy
        search pauses probes there; its search keeps its recorded level,
        iterations and brackets."""
        out = tmp_path / "gamma.json"
        result = runner.invoke(main, ["gamma", "--config", str(DATA / "smoke_long.json"), "--json", str(out)])
        assert result.exit_code == 0, result.output
        doc = _strict_loads(out.read_text())
        assert doc["gamma_opt"] == 1.7185401916503906
        assert doc["iterations"] == 21
        assert len(doc["bracket_history"]) == 20


class TestSynth:
    @pytest.mark.parametrize("name", VALID_CONFIGS)
    def test_gains_roundtrip_full_precision(self, runner, tmp_path, name):
        """The gains file holds what `kernels.rollout_regret` reads besides
        the plant: with the plant of its echoed config it rolls out the
        controls of `regret_optimal`'s controller bit for bit."""
        out = tmp_path / "gains.json"
        result = runner.invoke(main, ["synth", "--config", str(DATA / name), "--json", str(out)])
        assert result.exit_code == 0, result.output
        doc = _strict_loads(out.read_text())
        assert set(doc) == {"config", "gamma", "K_xi", "K_w", "A_til", "R_inv_sqrt", "schema_version"}
        assert doc["schema_version"] == "3"
        plant = cli._augmented(parse_config(doc["config"]))
        _, s = ct.regret_optimal(plant, doc["config"]["tol"])
        assert doc["gamma"] == s.gamma
        K_xi, K_w, A_til, R_inv_sqrt = (np.array(doc[k]) for k in ("K_xi", "K_w", "A_til", "R_inv_sqrt"))
        w = np.random.default_rng(plant.T).standard_normal((5, plant.T, plant.p))
        _, u = kernels.rollout_regret(
            plant.A, plant.B_u, R_inv_sqrt, A_til, plant.B_w, K_xi[:, :, :plant.n], K_xi[:, :, plant.n:], K_w, w
        )
        assert np.array_equal(u, s.control_sequence(w))


class TestSimulate:
    def test_zero_disturbance_zero_costs(self, runner, tmp_path):
        doc = dict(
            S1_CONFIG,
            disturbance={"kind": "constant", "params": {"vector": 0.0}},
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "sim.csv"
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--csv", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0] == "t,cost_h2,cost_hinf,cost_regret,cost_offline"
        for line in lines[1:]:
            assert all(float(v) == 0.0 for v in line.split(",")[1:])

    def test_byte_identical_reruns(self, runner, s1_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            result = runner.invoke(
                main, ["simulate", "--config", s1_config, "--csv", str(out), "--seed", "5"]
            )
            assert result.exit_code == 0, result.output
        assert a.read_bytes() == b.read_bytes()


def _assert_mean_pathwise_bound(runner, tmp_path, name):
    """`simulate` on tests/data/`name`: the regret controller's mean realized
    regret stays within gamma_opt^2 times the mean disturbance energy."""
    out = tmp_path / "sim.json"
    argv = ["simulate", "--config", str(DATA / name), "--csv", str(tmp_path / "sim.csv"), "--json", str(out)]
    result = runner.invoke(main, argv)
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    d, trials, T = doc["config"]["disturbance"], doc["config"]["trials"], doc["config"]["horizon"]
    p = len(doc["config"]["system"]["lti"]["Bw"][0])
    energy = np.mean([
        np.sum(generate(DisturbanceSpec(d["kind"], d["params"], seed=d["seed"] + k), T, p) ** 2)
        for k in range(trials)
    ])
    regret, gamma = doc["mean_realized_regret"]["regret"], doc["gamma_levels"]["regret"]
    assert regret <= gamma**2 * energy * (1 + 1e-9), (regret, gamma**2 * energy)


class TestSimulateAugmented:
    def test_smoke_augmented_mean_regret_bound(self, runner, tmp_path):
        """tests/data/smoke_augmented.json (a lookahead of 2 and a delay of 1
        on the pendulum): simulate scores the regret controller on the
        system it was synthesized for, so the bound holds."""
        _assert_mean_pathwise_bound(runner, tmp_path, "smoke_augmented.json")

    @pytest.mark.parametrize("lookahead, delay", [(2, 0), (0, 1), (3, 1)])
    def test_pathwise_regret_bound(self, tmp_path, lookahead, delay):
        """simulate scores its controllers on the system they were
        synthesized for, so the regret controller meets the paper's pathwise
        bound on every trial: realized regret <= gamma_opt^2 ||w||^2."""
        disturbance = {"kind": "alternating", "params": {"mean": [1.0, 1.0], "period": 15}}
        fields = {"lookahead": lookahead, "delay": delay, "disturbance": disturbance, "trials": 5}
        cfg = cli._resolve(pendulum_system(30), fields, None, None)
        report, gammas, _ = cli._simulate(cfg, str(tmp_path / "sim.csv"))
        spec = cfg["disturbance"]
        for k, regret in enumerate(report.realized_regret["regret"]):
            w = generate(DisturbanceSpec(spec.kind, spec.params, seed=spec.seed + k), 30, 2)
            assert regret <= gammas["regret"] ** 2 * np.sum(w**2) * (1 + 1e-9), k


class TestSimulateUnstableMultiInput:
    def test_pathwise_regret_bound(self, runner, tmp_path):
        """tests/data/unstable_multi_input.json (rho(A) = 1.3, m = p = 2,
        R != I, T = 160): simulate scores the loop the regret controller
        closed, so its mean realized regret stays within gamma_opt^2 times
        the mean disturbance energy (it read 12,917 against 9.17 while the
        scored trajectory was re-simulated from R-normalized controls)."""
        _assert_mean_pathwise_bound(runner, tmp_path, "unstable_multi_input.json")


class TestErrors:
    def test_error_record_on_stderr(self, runner, tmp_path):
        doc = json.loads(json.dumps(S1_CONFIG))
        doc["system"]["lti"]["R"] = [[-1.0]]
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        result = runner.invoke(main, ["gamma", "--config", str(cfg)])
        assert result.exit_code == 1
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"]["type"] == "ConfigError"
        assert "positive definite" in record["error"]["message"]
        assert record["schema_version"] == "2"

    @pytest.mark.parametrize("command", ["gamma", "synth", "simulate", "certify", "pendulum"])
    def test_horizon_over_the_tape_budget(self, runner, tmp_path, monkeypatch, command):
        """horizon: 10**12 is one ConfigError record naming the horizon, from
        every subcommand alike, before the echo and with nothing allocated
        (it ended in a MemoryError record, "Unable to allocate 7.28 TiB")."""
        _refuse_synthesis(monkeypatch)
        if command == "pendulum":
            argv, n = ["pendulum", "--horizon", str(10**12)], 2
        else:
            cfg = tmp_path / "huge.json"
            cfg.write_text(json.dumps(dict(json.loads((DATA / "smoke.json").read_text()), horizon=10**12)))
            argv, n = [command, "--config", str(cfg)], 1
        tracemalloc.start()
        try:
            result = runner.invoke(main, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert result.exit_code == 1
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        floats = 10**12 * (2 * n + 1) ** 2
        assert json.loads(line)["error"] == {
            "type": "ConfigError",
            "message": f"field 'horizon': T = {10**12} with n = {n} and m = 1 needs tapes of "
            f"T*(2n+m)^2 = {floats} floats, over the budget of {cli.TAPE_BUDGET}",
        }

    def test_tape_budget_counts_the_augmented_state(self, runner, tmp_path, monkeypatch):
        """A lookahead of h adds h*p states and a delay of d adds d*m: S1 at
        T = 1000 with a lookahead of 3 and a delay of 1 (n = 5) is within the
        budget, and with p = 100, a lookahead of 1000 and a delay of 1
        (n = 100,002, whose augmentation would ask for 80 TB) it is over it."""
        assert parse_config(dict(S1_CONFIG, horizon=1000, lookahead=3, delay=1))["system"].T == 1000
        _refuse_synthesis(monkeypatch)
        lti = dict(S1_CONFIG["system"]["lti"], Bw=[[1.0] * 100])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": {"lti": lti}, "horizon": 1000, "lookahead": 1000, "delay": 1}))
        result = runner.invoke(main, ["gamma", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert json.loads(result.stderr)["error"] == {
            "type": "ConfigError",
            "message": "field 'horizon': T = 1000 with n = 100002 and m = 1 needs tapes of "
            f"T*(2n+m)^2 = {1000 * 200005**2} floats, over the budget of {cli.TAPE_BUDGET}",
        }

    @pytest.mark.parametrize("tol", ["0", "-1e-3", "1.0", "nan"])
    def test_tol_outside_unit_interval(self, runner, s1_config, tol, monkeypatch):
        _refuse_synthesis(monkeypatch)
        for argv in (["gamma", "--config", s1_config], ["pendulum", "--horizon", "5"]):
            result = runner.invoke(main, argv + ["--tol", tol])
            assert result.exit_code == 1
            assert result.stdout == ""
            [line] = result.stderr.splitlines()
            assert json.loads(line)["error"] == {
                "type": "ConfigError",
                "message": f"field 'tol': tol must lie strictly between 0 and 1, got {float(tol)}",
            }

    @pytest.mark.parametrize(
        "block, value, name",
        [("Bw", [[1.0, 2.0, 3.0, 4.0]], "B_w"), ("Bw", [], "B_w"), ("Bu", [0.0, 1.0], "B_u")],
        ids=["Bw-flat", "Bw-empty", "Bu-flat"],
    )
    def test_wrong_block_shape_record(self, runner, tmp_path, monkeypatch, block, value, name):
        """A block is read with the shape it is written in: an input block
        with one row on a 2-state plant is refused, not reshaped to two rows,
        and the record names the row count, not a shape built from the
        malformed block's own column count."""
        _refuse_synthesis(monkeypatch)
        eye = np.eye(2).tolist()
        lti = {"A": eye, "Bu": [[0.0], [1.0]], "Bw": eye, "Q": eye, "R": [[1.0]], block: value}
        cfg = tmp_path / "b.json"
        cfg.write_text(json.dumps({"system": {"lti": lti}, "horizon": 3}))
        result = runner.invoke(main, ["gamma", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert json.loads(line)["error"] == {
            "type": "ConfigError", "message": f"field 'system': {name} has 1 row, expected n = 2",
        }

    def test_non_integer_horizon_record(self, runner, tmp_path):
        cfg = tmp_path / "frac.json"
        cfg.write_text(json.dumps(dict(S1_CONFIG, horizon=2.7)))
        result = runner.invoke(main, ["gamma", "--config", str(cfg)])
        assert result.exit_code == 1
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"]["type"] == "ConfigError"
        assert "horizon" in record["error"]["message"]

    def test_unknown_disturbance_kind_record_before_synthesis(self, runner, tmp_path, monkeypatch):
        def refused(*args):
            raise AssertionError("synthesis ran")

        monkeypatch.setattr(ct, "synthesize_h2", refused)
        cfg = tmp_path / "kind.json"
        cfg.write_text(json.dumps(dict(S1_CONFIG, controllers=["h2"], disturbance={"kind": "perlin"})))
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--csv", str(tmp_path / "o.csv")])
        assert result.exit_code == 1
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"] == {
            "type": "ConfigError", "message": "field 'disturbance.kind': unknown kind 'perlin'"
        }

    def test_non_integer_period_record(self, runner, tmp_path, monkeypatch):
        _refuse_synthesis(monkeypatch)
        doc = dict(
            S1_CONFIG,
            disturbance={"kind": "alternating", "params": {"mean": 1.0, "period": 2.7}},
        )
        cfg = tmp_path / "period.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "sim.csv"
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--csv", str(out)])
        assert result.exit_code == 1
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"]["type"] == "ConfigError"
        assert record["error"]["message"] == (
            "field 'disturbance.params': period must be a positive integer, got 2.7"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, doc, message",
        [
            (["simulate", "--seed", "-1"], S1_CONFIG, "field 'seed': must be at least 0, got -1"),
            (["pendulum", "--horizon", "5", "--seed", "-3"], None, "field 'seed': must be at least 0, got -3"),
            (
                ["simulate"],
                dict(S1_CONFIG, disturbance={"kind": "alternating", "params": {"periode": 2}}),
                "field 'disturbance.params': alternating disturbance has no parameter 'periode' "
                "(it reads mean, period)",
            ),
            (
                ["simulate"],
                dict(S1_CONFIG, disturbance={"kind": "sinusoid", "params": {"frequency": "0.25"}}),
                "field 'disturbance.params': disturbance parameter 'frequency' must be numeric, got '0.25'",
            ),
            # a disturbance that does not fit the pendulum (p = 2, T = 100)
            (
                ["simulate"],
                _pendulum_doc("gaussian", {"mean": [1, 2, 3]}),
                "field 'disturbance.params': mean has shape (3,), expected a number or a vector of length p = 2",
            ),
            (
                ["simulate"],
                _pendulum_doc("gaussian", {"cov": [[1.0, 0.0], [0.0, -1.0]]}),
                "field 'disturbance.params': cov must be positive definite",
            ),
            (
                ["simulate"],
                _pendulum_doc("worst_case", {"witness": [1.0, 2.0]}),
                "field 'disturbance.params': witness has 2 entries, expected T * p = 100 * 2",
            ),
            (
                ["simulate"],
                _pendulum_doc("sinusoid", {"frequency": [0.1, 0.2]}),
                "field 'disturbance.params': frequency must be a number, got shape (2,)",
            ),
            (
                ["simulate"],
                _pendulum_doc("sinusoid", {"phase": [[1]]}),
                "field 'disturbance.params': phase must be a number, got shape (1, 1)",
            ),
        ],
    )
    def test_config_error_records_before_synthesis(self, runner, tmp_path, monkeypatch, argv, doc, message):
        _refuse_synthesis(monkeypatch)
        if doc is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            argv = argv + ["--config", str(cfg)]
        out = tmp_path / "out.csv"
        result = runner.invoke(main, argv + ["--csv", str(out)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert [json.loads(line) for line in result.stderr.splitlines()] == [
            {"error": {"type": "ConfigError", "message": message}, "schema_version": "2"}
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "option,value", [("--trials", "0"), ("--horizon", "0"), ("--horizon", "-1")]
    )
    def test_pendulum_sizes_below_one_record(self, runner, tmp_path, option, value):
        out = tmp_path / "pend.csv"
        argv = ["pendulum", "--horizon", "5", "--trials", "2", "--csv", str(out)]
        argv[argv.index(option) + 1] = value
        result = runner.invoke(main, argv)
        assert result.exit_code == 1
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"]["type"] == "ConfigError"
        assert record["error"]["message"] == (
            f"field {option[2:]!r}: must be at least 1, got {value}"
        )
        assert not out.exists()

    def test_non_finite_matrix_record(self, runner, tmp_path):
        doc = json.loads(json.dumps(S1_CONFIG))
        doc["system"]["lti"]["A"] = [[float("nan")]]
        cfg = tmp_path / "nan.json"
        cfg.write_text(json.dumps(doc))
        result = runner.invoke(main, ["gamma", "--config", str(cfg)])
        assert result.exit_code == 1
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"]["type"] == "ConfigError"
        assert "A has a non-finite" in record["error"]["message"]


def _ltv_config(tmp_path, seed):
    sys = random_system(seed, n_max=2, m_max=2, p_max=2, T_max=5)
    blocks = {"A": sys.A, "Bu": sys.B_u, "Bw": sys.B_w, "Q": sys.Q, "R": sys.R, "QT": sys.Q_T}
    path = tmp_path / "ltv.json"
    path.write_text(json.dumps({"system": {"ltv": {k: v.tolist() for k, v in blocks.items()}}}))
    return str(path)


@pytest.mark.parametrize("command", ["certify", "synth"])
@pytest.mark.parametrize("seed", [3, 11])
def test_cli_json_parses_strictly_to_reference(runner, tmp_path, monkeypatch, command, seed):
    documents = []

    def capture(path, obj, *schema):
        documents.append(obj)
        emit_json(path, obj, *schema)

    monkeypatch.setattr(cli, "emit_json", capture)
    out = tmp_path / "out.json"
    result = runner.invoke(main, [command, "--config", _ltv_config(tmp_path, seed), "--json", str(out)])
    assert result.exit_code == 0, result.output
    # both write a file of the regret controller, at schema 3
    assert _strict_loads(out.read_text()) == {**reference_jsonable(documents[0]), "schema_version": "3"}


@pytest.mark.parametrize(
    "kind, params, message",
    [
        ("gaussian", {"mean": [True, 0.5]}, "disturbance parameter 'mean' must be numeric, got [True, 0.5]"),
        # json.dumps writes these as NaN and Infinity, which json.loads reads
        ("constant", {"vector": np.nan}, "disturbance parameter 'vector' must be finite, got nan"),
        ("gaussian", {"mean": np.inf}, "disturbance parameter 'mean' must be finite, got inf"),
        ("sinusoid", {"frequency": np.nan}, "disturbance parameter 'frequency' must be finite, got nan"),
        # and a 401-digit integer as a Python int beyond the float range
        ("constant", {"vector": 10**400}, f"disturbance parameter 'vector' must be finite, got {10**400}"),
    ],
)
def test_boolean_disturbance_params_refused_before_echo(runner, tmp_path, kind, params, message):
    """Every subcommand that reads a config refuses a boolean, a NaN, an
    infinity or an integer beyond the float range where a disturbance
    parameter is read as a number, before it echoes the config."""
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(dict(S1_CONFIG, disturbance={"kind": kind, "params": params})))
    out = tmp_path / "gamma.json"
    result = runner.invoke(main, ["gamma", "--config", str(cfg), "--json", str(out)])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"] == {
        "type": "ConfigError",
        "message": f"field 'disturbance.params': {message}",
    }
    assert not out.exists()


@pytest.mark.parametrize("name", BAD_CONFIGS)
def test_bad_config_is_one_config_error_record(runner, monkeypatch, name):
    """Each refused config of tests/data exits 1 before any synthesis, with
    nothing on stdout and one ConfigError record on stderr."""
    _refuse_synthesis(monkeypatch)
    result = runner.invoke(main, ["simulate", "--config", str(DATA / name)])
    assert result.exit_code == 1
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert json.loads(line)["error"]["type"] == "ConfigError"


class TestCertify:
    def test_certificate_matches_gamma(self, runner, s1_config, tmp_path):
        out = tmp_path / "cert.json"
        result = runner.invoke(main, ["certify", "--config", s1_config, "--json", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert doc["gain"] == pytest.approx(doc["gamma_opt_squared"], rel=1e-4)
        assert doc["gamma_opt_squared"] == pytest.approx(0.1, rel=1e-4)
        assert set(doc) == {"config", "gamma_opt", "gamma_opt_squared", "gain", "attained", "witness", "schema_version"}
        assert doc["schema_version"] == "3"
        assert doc["attained"] <= doc["gain"]
        assert result.output.splitlines()[-2] == (
            f"gamma_opt^2 = {cli._float_repr(doc['gamma_opt_squared'])}, certified gain = "
            f"{cli._float_repr(doc['gain'])}, attained = {cli._float_repr(doc['attained'])}"
        )
        # the echoed config and gamma_opt give the controller back; the
        # rollout and dense referees certify it with the same bits, and the
        # analysis gain is theirs to its search's resolution
        plant = cli._augmented(cli.parse_config(doc["config"]))
        cert = ro.regret_certificate(plant, ct.regret_controller(plant, doc["gamma_opt"]))
        ops = dense.build_operators(normalize_control_weight(plant).system)
        assert dense.worst_case_regret_gain(ops, cert.K).gain == cert.gain
        assert abs(doc["gain"] - cert.gain) <= 1e-11 * cert.gain
        assert np.abs(cert.witness - doc["witness"]).max() <= 1e-12

    def test_smoke_certificate_referees_agree(self, runner, tmp_path):
        """`certify --config smoke.json` writes a schema "3" certificate with
        no controller operator; its echoed config and gamma_opt rebuild the
        controller, which the rollout and dense referees certify within
        `dense_oracle.referee_gap_bound` of each other (7.2e-15 relative
        apart, under a bound of 1.0e-12), and the printed gain and witness
        are the rollout referee's to 1e-11 and 1e-12."""
        out = tmp_path / "cert.json"
        result = runner.invoke(main, ["certify", "--config", str(DATA / "smoke.json"), "--json", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == "3"
        assert "controller_operator" not in doc and "regret_quadratic_form" not in doc
        plant = cli._augmented(cli.parse_config(doc["config"]))
        cert = ro.regret_certificate(plant, ct.regret_controller(plant, doc["gamma_opt"]))
        ops = dense.build_operators(normalize_control_weight(plant).system)
        referee = dense.worst_case_regret_gain(ops, cert.K).gain
        assert abs(referee - cert.gain) <= dense.referee_gap_bound(ops, cert.K, referee), (referee, cert.gain)
        assert abs(doc["gain"] - cert.gain) <= 1e-11 * cert.gain
        assert np.abs(cert.witness - doc["witness"]).max() <= 1e-12
        assert doc["attained"] <= min(doc["gain"], cert.gain * (1 + 1e-9))

    def test_oracle_objects_are_freed_before_encoding(self, runner, tmp_path, monkeypatch):
        """The analysis system and its probes' tapes are gone when the
        certificate is encoded, and the document is the one written without
        the check."""
        config = str(DATA / "smoke.json")
        plain = tmp_path / "plain.json"
        assert runner.invoke(main, ["certify", "--config", config, "--json", str(plain)]).exit_code == 0
        gc.collect()
        before = {id(o) for o in gc.get_objects() if isinstance(o, riccati.HinfTape)}
        analyses, live = [], []
        analysis_system = oo.analysis_system

        def recorded(s):
            ana = analysis_system(s)
            analyses.append(weakref.ref(ana.A))
            return ana

        def checked(path, obj, *schema):
            live.extend(
                type(o).__name__ for o in gc.get_objects() if isinstance(o, riccati.HinfTape) and id(o) not in before
            )
            live.extend("analysis_system" for ref in analyses if ref() is not None)
            emit_json(path, obj, *schema)

        monkeypatch.setattr(oo, "analysis_system", recorded)
        monkeypatch.setattr(cli, "emit_json", checked)
        out = tmp_path / "checked.json"
        result = runner.invoke(main, ["certify", "--config", config, "--json", str(out)])
        assert result.exit_code == 0, result.output
        assert len(analyses) == 1
        assert live == []
        assert out.read_bytes() == plain.read_bytes()

    def test_certify_runs_past_the_old_size_cap(self, runner, tmp_path):
        """T * max(n, m, p) = 2005 > 2000, which the dense certificate
        refused with a SizeCapError record."""
        cfg = tmp_path / "wide.json"
        lti = dict(S1_CONFIG["system"]["lti"], Bw=[[1.0, 0.5, -0.25, 0.0, 2.0]])
        cfg.write_text(json.dumps({"system": {"lti": lti}, "horizon": 401}))
        out = tmp_path / "cert.json"
        result = runner.invoke(main, ["certify", "--config", str(cfg), "--json", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert abs(doc["gain"] - doc["gamma_opt_squared"]) <= 1e-5 * doc["gamma_opt_squared"]
        assert doc["attained"] <= doc["gain"]
        assert len(doc["witness"]) == 401 * 5
        assert abs(np.linalg.norm(doc["witness"]) - 1.0) <= 1e-15

    def test_certify_runs_no_dense_referee(self, runner, tmp_path, monkeypatch):
        """The referees live in tests/dense_oracle.py and
        tests/rollout_oracle.py: no regretctl module defines their entry
        points, and certify on smoke.json, run in process, never imports
        them."""
        referee = {
            "build_operators", "worst_case_regret_gain", "controller_operator", "structure_check",
            "regret_certificate",
        }
        modules = [regretctl] + [
            importlib.import_module(f"regretctl.{info.name}") for info in pkgutil.iter_modules(regretctl.__path__)
        ]
        assert {m.__name__: sorted(referee & set(vars(m))) for m in modules if referee & set(vars(m))} == {}

        attempts = []

        class Refused(importlib.abc.MetaPathFinder):
            def find_spec(self, name, path, target=None):
                if name in ("dense_oracle", "rollout_oracle"):
                    attempts.append(name)
                    raise ImportError("certify imported a referee")
                return None

        monkeypatch.delitem(sys.modules, "dense_oracle")
        monkeypatch.delitem(sys.modules, "rollout_oracle")
        monkeypatch.setattr(sys, "meta_path", [Refused(), *sys.meta_path])
        out = tmp_path / "cert.json"
        result = runner.invoke(main, ["certify", "--config", str(DATA / "smoke.json"), "--json", str(out)])
        assert result.exit_code == 0, result.output
        assert attempts == [] and not {"dense_oracle", "rollout_oracle"} & set(sys.modules)

    @pytest.mark.parametrize("zeroed", list(REGRET_FREE.values()), ids=list(REGRET_FREE))
    def test_degenerate_certificate(self, runner, tmp_path, zeroed):
        """Where no disturbance produces regret (degenerate.json's B_w = 0,
        or Q = 0, or both), the gain is the dense referee's 0.0 for the zero
        controller, and every disturbance attains it: the witness is a unit
        impulse."""
        config = str(_regret_free_config(tmp_path, zeroed))
        out = tmp_path / "cert.json"
        assert runner.invoke(main, ["certify", "--config", config, "--json", str(out)]).exit_code == 0
        doc = _strict_loads(out.read_text())
        plant = cli._augmented(cli.parse_config(doc["config"]))
        ops = dense.build_operators(normalize_control_weight(plant).system)
        referee = dense.worst_case_regret_gain(ops, dense.controller_operator(plant, ZeroController(plant)))
        assert doc["gain"] == doc["attained"] == referee.gain == 0.0
        assert len(doc["witness"]) == plant.T * plant.p
        assert sorted(doc["witness"])[-1] == 1.0 and np.count_nonzero(doc["witness"]) == 1


class TestPendulum:
    def test_preset_matrices(self):
        sys = pendulum_system(5)
        assert np.array_equal(sys.A[0], [[1.0, 1.0], [1.0, 0.9]])
        assert np.array_equal(sys.B_u[0], [[0.0], [1.0]])
        assert np.array_equal(sys.B_w[0], np.eye(2))
        assert np.array_equal(sys.Q[0], np.eye(2))
        assert np.array_equal(sys.R[0], [[1.0]])
        assert not sys.Q_T.any()
        assert sys.T == 5

    def test_command_runs_and_writes_csv(self, runner, tmp_path):
        out = tmp_path / "pend.csv"
        result = runner.invoke(
            main,
            [
                "pendulum",
                "--mode",
                "alternating",
                "--horizon",
                "20",
                "--trials",
                "2",
                "--tol",
                "1e-4",
                "--csv",
                str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0] == "t,cost_h2,cost_hinf,cost_regret,cost_offline"
        assert len(lines) == 21
        assert "gamma_regret = " in result.output


def _src_env():
    """The environment of a new interpreter that imports this checkout's src."""
    src = str(Path(cli.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _fresh_python(code):
    """Run `code` in a new interpreter and return its stdout."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_src_env())
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestRun:
    """`run`, the process entry, freezes the import-time heap and then calls
    `main`; `main` itself freezes nothing. Every test unfreezes, so the rest
    of the suite keeps a heap the collector can reach."""

    def test_freezes_then_calls_main_once(self, monkeypatch):
        counts = []
        monkeypatch.setattr(cli, "main", lambda: counts.append(gc.get_freeze_count()))
        try:
            cli.run()
        finally:
            gc.unfreeze()
        assert len(counts) == 1
        assert counts[0] > 0

    def test_main_in_process_freezes_nothing(self, runner):
        before = gc.get_freeze_count()
        try:
            result = runner.invoke(main, ["gamma", "--config", str(DATA / "smoke.json")])
            after = gc.get_freeze_count()
        finally:
            gc.unfreeze()
        assert result.exit_code == 0, result.output
        assert after == before

    def _run(self, monkeypatch, capsys, *args):
        monkeypatch.setattr(sys, "argv", ["regretctl", *args])
        try:
            with pytest.raises(SystemExit) as exit_:
                cli.run()
        finally:
            gc.unfreeze()
        out, err = capsys.readouterr()
        return exit_.value.code, out, err

    def test_unknown_option_is_a_usage_error(self, monkeypatch, capsys):
        code, _, _ = self._run(
            monkeypatch, capsys, "gamma", "--config", str(DATA / "smoke.json"), "--feasibility-test", "level1"
        )
        assert code == 2

    def test_refused_config_matches_the_module_entry(self, monkeypatch, capsys):
        argv = ["simulate", "--config", str(DATA / "bad_period.json")]
        code, out, err = self._run(monkeypatch, capsys, *argv)
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert json.loads(line)["error"]["type"] == "ConfigError"
        module = subprocess.run(
            [sys.executable, "-m", "regretctl.cli", *argv], capture_output=True, text=True, env=_src_env()
        )
        assert (module.returncode, module.stdout, module.stderr) == (code, out, err)


class TestLazyOracle:
    """`regretctl` loads `operator_oracle` on first access, so of the
    subcommands only `certify` loads the certificate."""

    def test_cli_import_leaves_the_oracle_unloaded(self):
        out = _fresh_python("import regretctl.cli, sys; print('regretctl.operator_oracle' in sys.modules)")
        assert out == "False\n"

    def test_gamma_run_as_main_leaves_the_oracle_unloaded(self, tmp_path):
        """`gamma` entered as `python -m regretctl.cli` enters it, through
        `runpy` with `cli` as `__main__`, never loads the certificate."""
        out = tmp_path / "gamma.json"
        argv = ["regretctl", "gamma", "--config", str(DATA / "smoke.json"), "--json", str(out)]
        printed = _fresh_python(
            "import runpy, sys\n"
            f"sys.argv = {argv!r}\n"
            "try:\n"
            "    runpy.run_module('regretctl.cli', run_name='__main__')\n"
            "except SystemExit as e:\n"
            "    assert e.code in (0, None), e.code\n"
            "print('regretctl.operator_oracle' in sys.modules)\n"
        )
        assert printed.splitlines()[-1] == "False"
        assert out.exists()

    def test_attribute_loads_the_oracle(self):
        out = _fresh_python("import regretctl; print(regretctl.operator_oracle.__name__)")
        assert out == "regretctl.operator_oracle\n"

    def test_star_import_loads_the_oracle(self):
        out = _fresh_python(
            "import sys, regretctl\n"
            "names = {}\n"
            "exec('from regretctl import *', names)\n"
            "print(sorted(set(regretctl.__all__) - set(names)))\n"
            "print(names['operator_oracle'] is sys.modules['regretctl.operator_oracle'])\n"
        )
        assert out == "[]\nTrue\n"

    def test_unknown_attribute_raises(self):
        import regretctl

        with pytest.raises(AttributeError, match="has no attribute 'oracle'"):
            regretctl.oracle
        assert not hasattr(regretctl, "oracle")


def test_each_subcommand_declares_only_the_options_it_reads(runner, s1_config):
    shared = ["--config", "--json", "--seed", "--tol"]
    declared = {name: sorted(o for p in cmd.params for o in p.opts) for name, cmd in main.commands.items()}
    assert declared == {
        "gamma": shared,
        "synth": shared,
        "certify": shared,
        "simulate": sorted(shared + ["--csv"]),
        "pendulum": ["--csv", "--horizon", "--json", "--mode", "--seed", "--tol", "--trials"],
    }
    assert sum(map(len, declared.values())) == 24
    result = runner.invoke(main, ["gamma", "--config", s1_config, "--csv", "x.csv"])
    assert result.exit_code == 2
    assert "No such option '--csv'" in result.stderr


# The one config boundary: a small valid S1 experiment, and mutations of one
# field each that `parse_config` must refuse before any synthesis runs.
_VALID = dict(
    S1_CONFIG,
    controllers=["h2", {"regret": "auto"}, "offline"],
    trials=2,
    seed=1,
    disturbance={"kind": "alternating", "params": {"mean": 1.0, "period": 2}, "seed": 4},
    output={"gains": "gains.json"},
)
_not_int = st.one_of(
    st.floats(), st.booleans(), st.text(max_size=3), st.none(), st.lists(st.integers(), max_size=2)
)
_not_number = st.one_of(
    st.booleans(), st.text(max_size=3), st.none(), st.lists(st.floats(), max_size=2), st.just({})
)


def _bad_int(minimum, maximum=None):
    below = st.integers(max_value=minimum - 1)
    return st.one_of(_not_int, below) if maximum is None else st.one_of(_not_int, below, st.integers(min_value=maximum + 1))


def _unknown(known):
    return st.text(max_size=6).filter(lambda k: k not in known)


_LTV_BLOCKS = ["A", "Bu", "Bw", "Q", "R"]


def _ltv(steps=3, key=None, value=None):
    """S1 as an ltv system of `steps` steps ([[1.0]] each), with the per-step
    list of `key` replaced by `value`."""
    blocks = {k: [[[1.0]]] * steps for k in _LTV_BLOCKS}
    if key is not None:
        blocks[key] = value
    return {"ltv": blocks}


def _ltv_with_step(key, t, value):
    """`_ltv()` with step t of `key` replaced by `value`."""
    doc = _ltv()
    doc["ltv"][key] = [value if s == t else M for s, M in enumerate(doc["ltv"][key])]
    return doc


# one `system` mutation of _VALID (horizon 3) to an ltv form
_ltv_mutations = st.one_of(
    # one per-step list of the wrong length (an empty one included)
    st.builds(
        lambda key, n: _ltv(3, key, [[[1.0]]] * n),
        st.sampled_from(_LTV_BLOCKS), st.integers(0, 6).filter(lambda n: n != 3),
    ),
    # a step entry that is not a list; a bare number reads as a 1x1 block, as
    # in the lti form, so it is not among them
    st.builds(
        _ltv_with_step,
        st.sampled_from(_LTV_BLOCKS), st.integers(0, 2),
        st.one_of(st.text(max_size=2), st.none(), st.booleans(), st.just({})),
    ),
    # every list of one length, which the horizon disagrees with
    st.integers(1, 6).filter(lambda n: n != 3).map(_ltv),
    # a NaN or an infinity in one step
    st.builds(
        lambda key, t, x: _ltv_with_step(key, t, [[x]]),
        st.sampled_from(_LTV_BLOCKS), st.integers(0, 2), st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    ),
)

_mutations = st.one_of(
    st.tuples(st.just(("horizon",)), _bad_int(1)),
    st.tuples(st.just(("horizon",)), st.integers(min_value=2**21)),  # over the tape budget
    st.tuples(st.just(("trials",)), _bad_int(1)),
    st.tuples(st.just(("seed",)), _bad_int(0)),
    st.tuples(st.just(("lookahead",)), _bad_int(0, 3)),
    st.tuples(st.just(("delay",)), _bad_int(0, 2)),
    st.tuples(st.just(("tol",)), st.one_of(_not_number, st.sampled_from([0, 1, -1e-3]))),
    st.tuples(st.just(("output",)), st.one_of(st.lists(st.text(max_size=2), max_size=2), st.text(max_size=2))),
    st.tuples(
        st.tuples(st.just("output"), st.sampled_from(["csv", "gains", "certificate"])),
        st.one_of(st.integers(), st.none(), st.booleans(), st.lists(st.text(max_size=2), max_size=1)),
    ),
    st.tuples(st.tuples(st.just("output"), _unknown({"csv", "gains", "certificate"})), st.just("x.csv")),
    st.tuples(st.tuples(_unknown(cli._CONFIG_FIELDS)), st.integers()),
    st.tuples(
        st.just(("controllers",)),
        st.one_of(
            st.just([]),
            st.text(max_size=3),
            st.lists(_unknown(cli._CONTROLLERS), min_size=1, max_size=2),
            st.sampled_from([["h2", "h2"], [{"hinf": 2.0}, "hinf"], [{"h2": "auto", "hinf": "auto"}]]),
            st.one_of(
                _not_number.filter(lambda v: v != "auto"),
                st.floats(max_value=0.0),
                st.sampled_from([float("inf"), float("nan")]),
            ).map(lambda level: [{"regret": level}]),
        ),
    ),
    st.tuples(st.just(("system", "lti", "R")), st.floats(max_value=0.0).map(lambda r: [[r]])),
    st.tuples(
        st.tuples(st.just("system"), st.just("lti"), st.sampled_from(["A", "Bu", "Bw", "Q", "R", "QT"])),
        st.one_of(st.text(max_size=2), st.sampled_from(["1", [["1.0"]], [[True]], True, None, [[1.0], [1.0, 2.0]], [[10**400]]])),
    ),
    st.tuples(st.tuples(st.just("system"), st.just("lti"), _unknown({"A", "Bu", "Bw", "Q", "R", "QT"})), st.just([[1.0]])),
    st.tuples(st.just(("system",)), _ltv_mutations),
    st.tuples(st.just(("disturbance",)), st.one_of(st.none(), st.text(max_size=3), st.just({"params": {}}))),
    st.tuples(st.tuples(st.just("disturbance"), _unknown({"kind", "params", "seed"})), st.integers()),
    st.tuples(
        st.just(("disturbance", "kind")),
        st.one_of(_unknown(DisturbanceSpec.PARAMS), st.integers(), st.none(), st.lists(st.text(max_size=2), max_size=1)),
    ),
    st.tuples(st.just(("disturbance", "seed")), _bad_int(0)),
    st.tuples(st.just(("disturbance", "params")), st.one_of(st.lists(st.integers(), max_size=2), st.text(max_size=2))),
    st.tuples(st.tuples(st.just("disturbance"), st.just("params"), _unknown({"mean", "period"})), st.integers()),
    st.tuples(
        st.just(("disturbance", "params", "period")),
        st.one_of(st.integers(max_value=0), st.floats(), st.booleans(), st.text(max_size=2), st.none()),
    ),
    st.tuples(
        st.just(("disturbance", "params", "mean")),
        st.one_of(st.booleans(), st.text(max_size=2), st.none(), st.lists(st.booleans(), min_size=1, max_size=2)),
    ),
)


def _simulate(directory, doc, refuse_synthesis):
    cfg = directory / "cfg.json"
    cfg.write_text(json.dumps(doc))
    with pytest.MonkeyPatch.context() as mp:
        if refuse_synthesis:
            _refuse_synthesis(mp)
        return CliRunner().invoke(main, ["simulate", "--config", str(cfg), "--csv", str(directory / "o.csv")])


class TestConfigBoundary:
    @settings(max_examples=150, deadline=timedelta(seconds=2))
    @given(mutation=_mutations)
    # one of each ltv mutation on every run: a wrong-length list, a step that
    # is not a list, a horizon that disagrees, a NaN in one step
    @example(mutation=(("system",), _ltv(3, "Bw", [[[1.0]]] * 2)))
    @example(mutation=(("system",), _ltv_with_step("A", 1, "x")))
    @example(mutation=(("system",), _ltv(4)))
    @example(mutation=(("system",), _ltv_with_step("Q", 2, [[float("nan")]])))
    def test_one_bad_field_is_one_config_error_before_synthesis(self, tmp_path_factory, mutation):
        path, value = mutation
        doc = copy.deepcopy(_VALID)
        *parents, key = path
        target = doc
        for name in parents:
            target = target[name]
        target[key] = value
        directory = tmp_path_factory.mktemp("bad")
        result = _simulate(directory, doc, refuse_synthesis=True)
        assert result.exit_code == 1, (doc, result.output)
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert json.loads(line)["error"]["type"] == "ConfigError", line
        assert not (directory / "o.csv").exists()

    @settings(max_examples=20, deadline=timedelta(seconds=10))
    @given(
        seed=st.integers(0, 2**32),
        trials=st.integers(1, 3),
        lookahead=st.integers(0, 3),
        delay=st.integers(0, 2),
        controllers=st.lists(
            st.sampled_from(["h2", "hinf", "regret", "offline", {"hinf": "auto"}, {"regret": "auto"}]),
            min_size=1,
            max_size=4,
            unique_by=lambda c: c if isinstance(c, str) else next(iter(c)),
        ),
        disturbance=st.sampled_from(
            [
                {"kind": "gaussian", "params": {}},
                {"kind": "gaussian", "params": {"mean": 0.5, "cov": None}},
                {"kind": "alternating", "params": {"mean": [1.0], "period": 1}},
                {"kind": "sinusoid", "params": {"amplitude": 2, "frequency": 0.25, "phase": 1.0}},
                {"kind": "constant", "params": {"vector": -1.0}, "seed": 3},
            ]
        ),
    )
    def test_valid_configs_run(self, tmp_path_factory, seed, trials, lookahead, delay, controllers, disturbance):
        doc = dict(
            _VALID, seed=seed, trials=trials, lookahead=lookahead, delay=delay,
            controllers=controllers, disturbance=disturbance,
        )
        directory = tmp_path_factory.mktemp("ok")
        result = _simulate(directory, doc, refuse_synthesis=False)
        assert result.exit_code == 0, (doc, result.output)
        assert json.loads(result.stdout.splitlines()[0])["seed"] == seed
        assert (directory / "o.csv").exists()
