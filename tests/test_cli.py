"""Command-line runner: config schema, round-trips, and end-to-end smokes."""
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from granular_bath import cli
from granular_bath.background import load_table
from granular_bath.carleman import ConvergenceError, KernelBuildError
from granular_bath.cli import (
    DEFAULTS,
    MODES,
    ConfigError,
    execute,
    main,
    parse_config,
    parse_config_dict,
    run_validation,
    serialize_config,
)
from granular_bath.observables import read_records


def write_config(tmp_path: Path, obj: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


COOLING_SMOKE = {
    "mode": "cooling",
    "tau": 1.0,
    "epsilon": 0.8,
    "dt": 0.01,
    "t_end": 0.6,
    "n_particles": 400,
    "record_every": 3,
    "seed": 5,
}

LINEAR_SMOKE = {
    "mode": "linear",
    "e": 0.8,
    "m1": 1.0,
    "theta1": 1.0,
    "lambda": 1.0,
    "dt": 0.01,
    "t_end": 0.4,
    "n_particles": 400,
    "record_every": 1,
    "seed": 6,
    "grid": {"nodes": 8, "extent": 5.0},
}

FULL_SMOKE = {
    "mode": "full",
    "tau": 1.0,
    "epsilon": 0.8,
    "e": 0.8,
    "m1": 1.0,
    "theta1": 1.0,
    "lambda": 1.0,
    "dt": 0.01,
    "t_end": 0.8,
    "n_particles": 400,
    "record_every": 2,
    "seed": 7,
}


class TestSchema:
    @pytest.mark.parametrize("mode", MODES)
    def test_minimal_config_round_trips(self, mode):
        first = parse_config_dict({"mode": mode})
        text = serialize_config(first)
        second = parse_config_dict(json.loads(text))
        assert second.normalized == first.normalized
        assert serialize_config(second) == text

    def test_defaults_applied(self):
        parsed = parse_config_dict({"mode": "cooling"})
        assert parsed.sim.tau == DEFAULTS["tau"]
        assert parsed.sim.dt == DEFAULTS["dt"]
        assert parsed.sim.n_particles == DEFAULTS["n_particles"]
        assert parsed.normalized["epsilon"] == DEFAULTS["epsilon"]
        assert parsed.normalized["seed"] == DEFAULTS["seed"]

    def test_linear_defaults_to_zero_tau(self):
        parsed = parse_config_dict({"mode": "linear"})
        assert parsed.sim.tau == 0.0
        assert parsed.normalized["tau"] == 0.0
        assert parsed.normalized["grid"] == DEFAULTS["grid"]

    def test_custom_values_survive_round_trip(self):
        raw = {
            "mode": "full",
            "tau": 0.5,
            "epsilon": 0.9,
            "e": 0.7,
            "m1": 2.0,
            "u1": [0.1, -0.2, 0.3],
            "theta1": 1.5,
            "lambda": 2.0,
            "dt": 0.005,
            "t_end": 1.0,
            "n_particles": 1000,
            "record_every": 4,
            "seed": 99,
        }
        parsed = parse_config_dict(raw)
        again = parse_config_dict(json.loads(serialize_config(parsed)))
        assert again.normalized == parsed.normalized
        assert again.sim.tau == 0.5
        assert again.sim.restitution.e == 0.7
        np.testing.assert_allclose(again.sim.bath.u1, [0.1, -0.2, 0.3])
        assert again.sim.bath.lambda_ == 2.0

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config_dict({"mode": "cooling", "frobnicate": 1})

    def test_misplaced_known_keys_rejected(self):
        with pytest.raises(ConfigError, match="theta1.*not allowed in cooling"):
            parse_config_dict({"mode": "cooling", "theta1": 1.0})
        with pytest.raises(ConfigError, match="epsilon.*not allowed in linear"):
            parse_config_dict({"mode": "linear", "epsilon": 0.9})
        with pytest.raises(ConfigError, match="not allowed in validate"):
            parse_config_dict({"mode": "validate", "dt": 0.1})
        with pytest.raises(ConfigError, match="grid.*not allowed in full"):
            parse_config_dict({"mode": "full", "grid": {"nodes": 8}})

    def test_tau_mode_coupling(self):
        with pytest.raises(ConfigError, match="tau"):
            parse_config_dict({"mode": "linear", "tau": 1.0})
        with pytest.raises(ConfigError, match="tau"):
            parse_config_dict({"mode": "cooling", "tau": 0.0})

    def test_table_conflicts_with_bulk_state(self):
        with pytest.raises(ConfigError, match="theta1.*f1_table"):
            parse_config_dict({"mode": "full", "f1_table": "f.csv", "theta1": 2.0})
        with pytest.raises(ConfigError, match="u1.*f1_table"):
            parse_config_dict({"mode": "full", "f1_table": "f.csv", "u1": [0, 0, 0]})
        with pytest.raises(ConfigError, match="f1_table"):
            parse_config_dict({"mode": "full", "f1_table": 7})

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError, match="dt"):
            parse_config_dict({"mode": "cooling", "dt": True})
        with pytest.raises(ConfigError, match="n_particles"):
            parse_config_dict({"mode": "cooling", "n_particles": True})

    @pytest.mark.parametrize(
        "patch",
        [
            {"epsilon": 0.0},
            {"epsilon": 1.5},
            {"dt": 0.0},
            {"dt": -0.01},
            {"t_end": 0.001},  # below dt
            {"n_particles": 1},
            {"record_every": 0},
            {"seed": -1},
            {"seed": 2**64},
            {"tau": -1.0},
        ],
    )
    def test_numeric_bounds(self, patch):
        raw = {"mode": "cooling", "dt": 0.01, **patch}
        with pytest.raises(ConfigError):
            parse_config_dict(raw)

    @pytest.mark.parametrize(
        "u1",
        [[0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, "x"], "origin",
         [0.0, 0.0, float("nan")]],
    )
    def test_u1_validation(self, u1):
        with pytest.raises(ConfigError, match="u1"):
            parse_config_dict({"mode": "linear", "u1": u1})

    def test_grid_validation(self):
        with pytest.raises(ConfigError, match="grid"):
            parse_config_dict({"mode": "linear", "grid": 5})
        with pytest.raises(ConfigError, match="grid.spacing"):
            parse_config_dict({"mode": "linear", "grid": {"spacing": 1.0}})
        with pytest.raises(ConfigError):
            parse_config_dict({"mode": "linear", "grid": {"nodes": 3}})
        with pytest.raises(ConfigError):
            parse_config_dict({"mode": "linear", "grid": {"extent": 0.0}})

    def test_invalid_mode_and_shape(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config_dict({"mode": "quench"})
        with pytest.raises(ConfigError, match="mode"):
            parse_config_dict({})
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config_dict([1, 2, 3])

    def test_mode_mismatch_with_command_line(self):
        with pytest.raises(ConfigError, match="cooling.*full"):
            parse_config_dict({"mode": "cooling"}, expect_mode="full")

    def test_seed_override(self):
        parsed = parse_config_dict({"mode": "cooling", "seed": 1}, seed_override=7)
        assert parsed.normalized["seed"] == 7
        assert parsed.sim.seed == 7

    def test_parse_config_reads_file(self, tmp_path):
        path = write_config(tmp_path, COOLING_SMOKE)
        parsed = parse_config(path)
        assert parsed.normalized == parse_config_dict(COOLING_SMOKE).normalized


class TestValidation:
    def test_all_checks_pass(self):
        buf = io.StringIO()
        rc = run_validation(stream=buf)
        text = buf.getvalue()
        assert rc == 0
        assert text.count("PASS") == 13
        assert "FAIL" not in text
        assert "13/13 checks passed" in text


class TestExecute:
    def test_cooling_smoke(self, tmp_path):
        parsed = parse_config_dict(COOLING_SMOKE)
        rc = execute(parsed, out_dir=tmp_path)
        assert rc == 0
        for name in ("trajectory.csv", "bound_report.txt", "plot.gp"):
            assert (tmp_path / name).exists()
        records = read_records(tmp_path / "trajectory.csv")
        assert len(records) == 21  # initial record + 60 steps / record_every 3
        assert records[-1].theta < records[0].theta  # pair collisions cool
        report = (tmp_path / "bound_report.txt").read_text()
        assert "bath: none" in report
        assert "theta final" in report
        plot = (tmp_path / "plot.gp").read_text()
        assert "trajectory.csv" in plot
        assert "h_functional" not in plot  # no reference density in this mode

    def test_linear_smoke(self, tmp_path, capsys):
        parsed = parse_config_dict(LINEAR_SMOKE)
        rc = execute(parsed, out_dir=tmp_path)
        assert rc == 0
        table = load_table(tmp_path / "steady_f1.csv")
        assert table.axes[0].size == 8
        assert np.all(table.values >= 0.0)
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert "Hquad" in header
        out = capsys.readouterr().out
        assert "theta grid steady:" in out
        assert "theta simulation steady:" in out
        plot = (tmp_path / "plot.gp").read_text()
        assert "h_functional" in plot

    def test_linear_run_does_not_import_scipy_interpolate(self, tmp_path):
        # The H reference is trilinear in numpy; importing scipy.interpolate
        # alone costs about 0.3 s of a run.  A fresh interpreter, since this
        # one may already hold the module.
        path = write_config(tmp_path, LINEAR_SMOKE)
        code = (
            "import sys\n"
            "from granular_bath.cli import main\n"
            f"rc = main(['linear', '--config', {str(path)!r}, '--out', {str(tmp_path / 'o')!r}])\n"
            "print(rc, 'scipy.interpolate' in sys.modules)\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env,
            timeout=120, check=True,
        )
        assert proc.stdout.splitlines()[-1] == "0 False"

    def test_full_smoke(self, tmp_path, capsys):
        parsed = parse_config_dict(FULL_SMOKE)
        rc = execute(parsed, out_dir=tmp_path)
        assert rc == 0
        out = capsys.readouterr().out
        assert "steady verdict:" in out
        report = (tmp_path / "bound_report.txt").read_text()
        assert "verdict: OK" in report
        assert "gamma1:" in report

    def test_short_run_has_no_steady_window(self, tmp_path, capsys):
        config = dict(FULL_SMOKE, t_end=0.1)  # 10 records < 2 * window
        rc = execute(parse_config_dict(config), out_dir=tmp_path)
        assert rc == 0
        assert "not enough records" in capsys.readouterr().out

    def test_timestep_error_exits_one(self, tmp_path, capsys):
        config = dict(COOLING_SMOKE, dt=50.0, t_end=50.0, n_particles=100)
        rc = execute(parse_config_dict(config), out_dir=tmp_path)
        assert rc == 1
        assert "time-step error" in capsys.readouterr().err

    def test_reruns_are_byte_identical(self, tmp_path):
        parsed = parse_config_dict(COOLING_SMOKE)
        execute(parsed, out_dir=tmp_path / "a")
        execute(parsed, out_dir=tmp_path / "b")
        first = (tmp_path / "a" / "trajectory.csv").read_bytes()
        second = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert first == second


class TestMain:
    def test_validate_mode(self, tmp_path, capsys):
        path = write_config(tmp_path, {"mode": "validate"})
        rc = main(["validate", "--config", str(path)])
        assert rc == 0
        assert "13/13 checks passed" in capsys.readouterr().out

    def test_validate_mode_needs_no_config(self, capsys):
        rc = main(["validate"])
        assert rc == 0
        assert "13/13 checks passed" in capsys.readouterr().out

    def test_other_modes_require_config(self, capsys):
        rc = main(["cooling"])
        assert rc == 1
        assert "--config is required" in capsys.readouterr().err

    def test_seed_override_changes_output(self, tmp_path):
        config = dict(COOLING_SMOKE, t_end=0.3, n_particles=200)
        path = write_config(tmp_path, config)
        outs = {}
        for seed, sub in [(1, "s1"), (2, "s2"), (1, "s1again")]:
            rc = main(["cooling", "--config", str(path), "--seed", str(seed),
                       "--out", str(tmp_path / sub)])
            assert rc == 0
            outs[sub] = (tmp_path / sub / "trajectory.csv").read_bytes()
        assert outs["s1"] == outs["s1again"]
        assert outs["s1"] != outs["s2"]

    def test_mode_mismatch_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, COOLING_SMOKE)
        rc = main(["full", "--config", str(path)])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exits_one(self, tmp_path, capsys):
        rc = main(["cooling", "--config", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        rc = main(["cooling", "--config", str(path)])
        assert rc == 1
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bogus"], "invalid choice"),
            (["validate", "--nope"], "unrecognized arguments: --nope"),
        ],
    )
    def test_usage_errors_exit_one(self, capsys, argv, message):
        # argparse alone would exit 2, the code of a violated moment bound.
        rc = main(argv)
        assert rc == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--help"])
        assert exc_info.value.code == 0
        assert "usage: granular-bath" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "grid, message",
        [
            # Too narrow: occupied histogram cells fall outside the grid support.
            ({"nodes": 5, "extent": 0.5}, "reference density vanishes"),
            # Too coarse: the grid steady temperature is 25 against theta1 = 1.
            ({"nodes": 4, "extent": 20.0}, "grid steady temperature"),
        ],
    )
    def test_unusable_grid_exits_three(self, tmp_path, capsys, grid, message):
        path = write_config(tmp_path, dict(LINEAR_SMOKE, t_end=0.1, grid=grid))
        rc = main(["linear", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "target, exc",
        [
            ("make_grid", KernelBuildError("kernel column sums overshoot nu")),
            ("steady_state", ConvergenceError("no convergence", np.zeros(1), 1.0)),
        ],
    )
    def test_grid_failures_exit_three(self, tmp_path, capsys, monkeypatch, target, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, target, fail)
        path = write_config(tmp_path, dict(LINEAR_SMOKE, t_end=0.1))
        rc = main(["linear", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(exc) in err
        assert "Traceback" not in err

    def test_out_directory_created(self, tmp_path):
        path = write_config(tmp_path, dict(COOLING_SMOKE, t_end=0.2))
        target = tmp_path / "deep" / "nested" / "dir"
        rc = main(["cooling", "--config", str(path), "--out", str(target)])
        assert rc == 0
        assert (target / "trajectory.csv").exists()

    def test_log_level_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GB_LOG", "DEBUG")
        path = write_config(tmp_path, dict(COOLING_SMOKE, t_end=0.2))
        rc = main(["cooling", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 0
