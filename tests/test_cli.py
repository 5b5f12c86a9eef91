import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from regretctl import controllers as ct
from regretctl.cli import (
    ConfigError,
    emit_csv,
    main,
    parse_config,
    pendulum_system,
)

S1_CONFIG = {
    "system": {
        "lti": {"A": [[1.0]], "Bu": [[1.0]], "Bw": [[1.0]], "Q": [[1.0]], "R": [[1.0]]}
    },
    "horizon": 3,
}


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
        ],
    )
    def test_rejects_malformed_fields(self, update, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(dict(S1_CONFIG, **update))

    def test_numbers_and_levels_accepted(self):
        doc = dict(S1_CONFIG, tol=1, controllers=[{"hinf": 2}, {"regret": "auto"}, "h2"],
                   output={"csv": "out.csv"})
        doc["disturbance"] = {"kind": "alternating", "params": {"period": 2}, "seed": 1}
        r = parse_config(doc)["resolved"]
        assert type(r["tol"]) is float and r["tol"] == 1.0
        assert r["controllers"] == [{"hinf": 2}, {"regret": "auto"}, "h2"]

    def test_integer_fields_accepted(self):
        doc = dict(S1_CONFIG, horizon=4, trials=2, delay=1, lookahead=0, seed=7)
        doc["disturbance"] = {"kind": "gaussian", "seed": np.int64(3)}
        r = parse_config(doc)["resolved"]
        assert (r["horizon"], r["trials"], r["delay"], r["lookahead"], r["seed"]) == (4, 2, 1, 0, 7)
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


class TestEmitters:
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
        assert doc["schema_version"] == "1"
        assert doc["gamma_opt"] ** 2 == pytest.approx(0.1, rel=1e-4)

    def test_printed_feasibility_variant(self, runner, s1_config):
        result = runner.invoke(
            main, ["gamma", "--config", s1_config, "--feasibility-test", "printed"]
        )
        assert result.exit_code == 0, result.output
        assert "gamma_opt = " in result.output

    def test_byte_identical_reruns(self, runner, s1_config, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            result = runner.invoke(main, ["gamma", "--config", s1_config, "--json", str(out)])
            assert result.exit_code == 0, result.output
        assert a.read_bytes() == b.read_bytes()


class TestSynth:
    def test_gains_roundtrip_full_precision(self, runner, s1_config, tmp_path):
        out = tmp_path / "gains.json"
        result = runner.invoke(main, ["synth", "--config", s1_config, "--json", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        res, ctrl = ct.regret_optimal(parse_config(S1_CONFIG)["system"], tol=1e-6)
        s = ctrl.synthesis
        assert np.array_equal(np.array(doc["P_hat"]), s.Phat)
        assert np.array_equal(np.array(doc["K_bl"]), s.bwd.K_bl)
        assert np.array_equal(np.array(doc["A_til"]), s.fwd.Atil)
        assert doc["gamma"] == s.gamma


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
        assert record["schema_version"] == "1"

    def test_certify_size_cap_refusal(self, runner, tmp_path):
        doc = dict(S1_CONFIG, horizon=2001)
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps(doc))
        result = runner.invoke(main, ["certify", "--config", str(cfg)])
        assert result.exit_code == 1
        assert "2000" in result.stderr


    @pytest.mark.parametrize("tol", ["0", "-1e-3", "1.0", "nan"])
    def test_tol_outside_unit_interval(self, runner, s1_config, tol):
        for argv in (["gamma", "--config", s1_config], ["pendulum", "--horizon", "5"]):
            result = runner.invoke(main, argv + ["--tol", tol])
            assert result.exit_code == 1
            record = json.loads(result.stderr.strip().splitlines()[-1])
            assert record["error"]["type"] == "ValueError"
            assert "tol" in record["error"]["message"]

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

    def test_non_integer_period_record(self, runner, tmp_path):
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
        assert record["error"]["type"] == "ValueError"
        assert record["error"]["message"] == "period must be a positive integer, got 2.7"
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


class TestCertify:
    def test_certificate_matches_gamma(self, runner, s1_config, tmp_path):
        out = tmp_path / "cert.json"
        result = runner.invoke(main, ["certify", "--config", s1_config, "--json", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert doc["gain"] == pytest.approx(doc["gamma_opt_squared"], rel=1e-4)
        assert doc["gamma_opt_squared"] == pytest.approx(0.1, rel=1e-4)


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
