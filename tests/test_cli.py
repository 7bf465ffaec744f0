"""Command-line runner: config schema, round-trips, and end-to-end smokes."""
import json
import os
import re
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import sigma_shift_form

from granular_bath import carleman, cli, dsmc
from granular_bath.background import NumericalFault, load_table
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
from granular_bath.dsmc import ObserverConfig, run
from granular_bath.observables import CSV_COLUMNS, read_records, write_records


def write_config(tmp_path: Path, obj: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def fresh_interpreter(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter that imports this package: its
    modules start unloaded, and an exception escaping main shows as the
    interpreter's own traceback on standard error.  A run past ``timeout``
    seconds is killed and fails the test."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def grid_l1(report):
    """The value on a linear run's ``grid L1 to closed form:`` line."""
    prefix = "grid L1 to closed form: "
    (line,) = [line for line in report.splitlines() if line.startswith(prefix)]
    return float(line[len(prefix):])


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

# A cooling run whose theta decays 155x, so the bound report holds a fit.
COOLING_FIT = {
    "mode": "cooling", "epsilon": 0.5, "n_particles": 2000, "dt": 0.02,
    "t_end": 40, "record_every": 10, "seed": 3,
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

    def test_linear_runs_at_zero_tau_and_has_no_tau_key(self):
        parsed = parse_config_dict({"mode": "linear"})
        assert parsed.sim.tau == 0.0
        assert "tau" not in parsed.normalized
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
        # Linear mode has no pair collisions, so it takes no tau at all, not
        # even the 0 it runs at.
        for tau in (1.0, 0.0):
            with pytest.raises(ConfigError, match="'tau' is not allowed in linear mode"):
                parse_config_dict({"mode": "linear", "tau": tau})
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

    @pytest.mark.parametrize("key, lo", [("n_particles", 2), ("record_every", 1)])
    def test_lower_bound_only_integers_name_their_bound(self, key, lo):
        message = rf"^key '{key}' must be at least {lo}, got {lo - 1}$"
        with pytest.raises(ConfigError, match=message):
            parse_config_dict({"mode": "full", key: lo - 1})

    @pytest.mark.parametrize("dt, t_end", [(0.6, 1.0), (0.4, 1.0), (0.3, 1.0)])
    def test_t_end_off_the_step_grid_is_named(self, dt, t_end):
        with pytest.raises(ConfigError, match=r"^key 't_end' must be a whole number of steps"):
            parse_config_dict({"mode": "full", "dt": dt, "t_end": t_end})

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
        with pytest.raises(ConfigError, match=r"^key 'grid.nodes' out of range"):
            parse_config_dict({"mode": "linear", "grid": {"nodes": 3}})
        assert parse_config_dict({"mode": "linear", "grid": {"nodes": 64}}).grid_nodes == 64
        with pytest.raises(ConfigError, match=r"^key 'grid.extent' must be greater than 0"):
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
    def test_all_checks_pass(self, capsys):
        rc = run_validation(seed=12345)
        text = capsys.readouterr().out
        assert rc == 0
        assert text.count("PASS") == 14
        assert "FAIL" not in text
        assert "14/14 checks passed" in text


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
        # 16^3 nodes over +-8 bath widths: the grid steady state lies within
        # 1e-6 in L1 of the gas Maxwellian at theta_lin (5.8e-7; the
        # smoke's coarse 8^3 grid over +-5 widths reads 1.9e-4).
        parsed = parse_config_dict(dict(LINEAR_SMOKE, grid={"nodes": 16, "extent": 8.0}))
        rc = execute(parsed, out_dir=tmp_path)
        assert rc == 0
        table = load_table(tmp_path / "steady_f1.csv")
        assert table.axes[0].size == 16
        assert np.all(table.values >= 0.0)
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert "Hquad" in header
        out = capsys.readouterr().out
        assert "theta grid steady:" in out
        assert "\ntheta exact: 0.8181818181818181\ngrid L1 to closed form: " in out
        assert "theta simulation steady:" in out
        assert grid_l1(out) <= 1e-6
        assert grid_l1((tmp_path / "bound_report.txt").read_text()) == grid_l1(out)
        plot = (tmp_path / "plot.gp").read_text()
        assert "h_functional" in plot

    def test_linear_frees_the_grid_before_the_particle_run(self, tmp_path, monkeypatch):
        # After the H reference is built only the steady state is read, so
        # the grid's reduced matrix and node arrays are gone when run starts.
        grids, alive_at_run = [], []

        def make_grid(*args, **kwargs):
            grid = cli_make_grid(*args, **kwargs)
            grids.append(weakref.ref(grid))
            return grid

        def run(*args, **kwargs):
            alive_at_run.extend(ref() is not None for ref in grids)
            return cli_run(*args, **kwargs)

        cli_make_grid, cli_run = cli.make_grid, cli.run
        monkeypatch.setattr(cli, "make_grid", make_grid)
        monkeypatch.setattr(cli, "run", run)
        assert execute(parse_config_dict(LINEAR_SMOKE), out_dir=tmp_path) == 0
        assert alive_at_run == [False]

    @pytest.mark.parametrize(
        "config", [FULL_SMOKE, LINEAR_SMOKE, COOLING_FIT], ids=["full", "linear", "cooling-fit"]
    )
    def test_runs_load_no_scipy(self, tmp_path, config):
        # The run path, the cooling fit included, is numpy only: importing
        # scipy.special alone costs about 0.2 s of a run, scipy.interpolate
        # 0.3 s, scipy.optimize 0.55 s.  A fresh interpreter, since this one
        # may already hold scipy modules.
        path = write_config(tmp_path, config)
        code = (
            "import sys\n"
            "from granular_bath.cli import main\n"
            f"rc = main([{config['mode']!r}, '--config', {str(path)!r}, "
            f"'--out', {str(tmp_path / 'o')!r}])\n"
            "print(rc, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        proc = fresh_interpreter("-c", code)
        proc.check_returncode()
        assert proc.stdout.splitlines()[-1] == "0 []"
        if config is COOLING_FIT:
            report = (tmp_path / "o" / "bound_report.txt").read_text(encoding="utf-8")
            assert "\ncooling exponent: " in report

    def test_full_smoke(self, tmp_path, capsys):
        parsed = parse_config_dict(FULL_SMOKE)
        rc = execute(parsed, out_dir=tmp_path)
        assert rc == 0
        out = capsys.readouterr().out
        assert "steady verdict:" in out
        report = (tmp_path / "bound_report.txt").read_text()
        assert "verdict: OK" in report
        assert "gamma1:" in report

    def test_full_trajectory_survives_read_and_write(self, tmp_path):
        # Every column, the NaN H columns of a run without a grid included.
        assert execute(parse_config_dict(FULL_SMOKE), out_dir=tmp_path) == 0
        records = read_records(tmp_path / "trajectory.csv")
        assert all(np.isnan(r.h_quad) and np.isnan(r.h_ent) for r in records)
        write_records(tmp_path / "again.csv", records)
        again = (tmp_path / "again.csv").read_bytes()
        assert again == (tmp_path / "trajectory.csv").read_bytes()

    def test_record_sigma_is_the_shift_design_mean(self):
        # N^2 > 2^17, so the pair term is sampled: the last record's sigma
        # is tau times the shift-design mean plus the mean of nu, both over
        # the final velocities.
        parsed = parse_config_dict(dict(FULL_SMOKE, n_particles=2000, t_end=0.1,
                                        record_every=10))
        sim = parsed.sim
        traj = run(sim, observers=ObserverConfig(record_every=parsed.record_every,
                                                 compute_sigma=True))
        assert len(traj.records) == 2
        want = sigma_shift_form(traj.final, sim.bath, sim.tau)
        assert traj.records[-1].sigma_mean == want

    def test_short_run_has_no_steady_window(self, tmp_path, capsys):
        config = dict(FULL_SMOKE, t_end=0.1)  # 10 records < 2 * window
        rc = execute(parse_config_dict(config), out_dir=tmp_path)
        assert rc == 0
        assert "not enough records" in capsys.readouterr().out

    @pytest.mark.parametrize("dt, t_end", [(0.01, 0.02), (50.0, 50.0)])
    def test_two_record_cooling_run_refuses_the_fit(self, tmp_path, capsys, dt, t_end):
        # Two records are too few for the cooling fit, which the report
        # refuses; the one step of dt = 50 runs as sub-steps.
        config = dict(COOLING_SMOKE, dt=dt, t_end=t_end, n_particles=100)
        path = write_config(tmp_path, config)
        rc = main(["cooling", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 0
        assert capsys.readouterr().err == ""
        assert [r.t for r in read_records(tmp_path / "o" / "trajectory.csv")] == [0.0, t_end]
        report = (tmp_path / "o" / "bound_report.txt").read_text(encoding="utf-8")
        assert "cooling fit: refused (2 records; need >= 4 for a fit)" in report

    def test_loose_fixed_centre_is_no_time_step_error(self, tmp_path):
        # The fixed-centre gas bound about u1 puts the event probability of
        # step 1 above 1; the step runs as sub-steps and the run goes on.
        config = dict(FULL_SMOKE, u1=[3.0, 0.0, 0.0], dt=0.05, t_end=1.0,
                      n_particles=20_000, seed=5)
        path = write_config(tmp_path, config)
        rc = main(["full", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 0
        assert len(read_records(tmp_path / "o" / "trajectory.csv")) == 11

    def test_tabulated_full_run(self, tmp_path):
        # A small anisotropic, off-centre table: the run takes sigma's bath
        # term from fixed draws of the cell law, so it is finite, positive
        # and the same in a rerun.
        ax = np.linspace(-3.0, 3.0, 9)
        g = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
        density = np.exp(-0.5 * np.sum((g - [0.3, 0.0, -0.2]) ** 2 / [1.3, 0.8, 1.0], axis=1))
        table = tmp_path / "f1.csv"
        table.write_text("vx,vy,vz,density\n" + "".join(
            f"{x!r},{y!r},{z!r},{d!r}\n" for (x, y, z), d in zip(g.tolist(), density.tolist())
        ), encoding="utf-8")
        config = {k: v for k, v in FULL_SMOKE.items() if k != "theta1"}
        path = write_config(tmp_path, dict(config, f1_table=str(table), n_particles=500,
                                           t_end=0.2))
        outputs = []
        for name in ("a", "b"):
            assert main(["full", "--config", str(path), "--out", str(tmp_path / name)]) == 0
            outputs.append({f.name: f.read_bytes() for f in sorted((tmp_path / name).iterdir())})
        sigma = np.array([r.sigma_mean for r in read_records(tmp_path / "a" / "trajectory.csv")])
        assert sigma.size == 11 and np.all(np.isfinite(sigma)) and np.all(sigma > 0.0)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("bound", [None, 2.5])
    @pytest.mark.parametrize("has_h", [False, True])
    def test_plot_columns_are_the_plotted_fields(self, bound, has_h):
        # Each "using 1:k" reads the trajectory column its title names.
        titles = {"Theta(t)": "theta", "F(t)": "F", "H quadratic": "Hquad",
                  "H entropy": "Hent"}
        plotted = re.findall(r'using 1:(\d+) with lines lw 2 title "([^"]+)"',
                             cli._plot_script(bound, has_h))
        assert len(plotted) == (4 if has_h else 2)
        for k, title in plotted:
            assert CSV_COLUMNS[int(k) - 1] == titles[title]

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
        assert "14/14 checks passed" in capsys.readouterr().out

    def test_validate_mode_needs_no_config(self, capsys):
        rc = main(["validate"])
        assert rc == 0
        assert "14/14 checks passed" in capsys.readouterr().out

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

    def test_t_end_off_the_step_grid_is_one_config_error_line(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(FULL_SMOKE, dt=0.3, t_end=1.0))
        rc = main(["full", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == (
            "config error: key 't_end' must be a whole number of steps dt = 0.3, got 1.0\n"
        )
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize(
        "row, message",
        [
            ("np.float64(-4.0),0,0,1", "malformed numeric row"),
            ("-4,0,0", "expected 4 columns, got 3"),
        ],
        ids=["numpy-repr-cell", "three-columns"],
    )
    def test_malformed_table_is_one_config_error_line(self, tmp_path, row, message):
        table = tmp_path / "f1.csv"
        table.write_text(f"vx,vy,vz,density\n{row}\n", encoding="utf-8")
        config = {k: v for k, v in FULL_SMOKE.items() if k != "theta1"}
        path = write_config(tmp_path, dict(config, f1_table=str(table)))
        proc = fresh_interpreter(
            "-m", "granular_bath.cli", "full", "--config", str(path), "--out", str(tmp_path / "o")
        )
        assert proc.returncode == 1
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("config error: key 'f1_table': ")
        assert message in lines[0]
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "mode, table, message",
        [
            ("full", False, "got kappa = 0.999999999999999"),
            ("linear", False, "got kappa = 0.999999999999999"),
            ("full", True, "bath with zero spread"),
        ],
        ids=["kappa-full", "kappa-linear", "point-table"],
    )
    def test_degenerate_bound_is_one_config_error_line(self, tmp_path, mode, table, message):
        # e = 1 and m1 = 1e15 put kappa within 1e-14 of 1, and a table with
        # one nonzero node has C0 = 0: the report's temperature bound does
        # not exist, and the parser refuses the config before any output.
        config = {"mode": mode, "m1": 1e15, "e": 1.0, "n_particles": 100, "t_end": 0.02}
        if table:
            f1 = tmp_path / "f1.csv"
            f1.write_text("vx,vy,vz,density\n" + "".join(
                f"{x},{y},{z},{float(x == y == z == 0)}\n"
                for x in (-1, 0, 1) for y in (-1, 0, 1) for z in (-1, 0, 1)
            ), encoding="utf-8")
            config = {"mode": mode, "f1_table": str(f1), "n_particles": 100, "t_end": 0.02}
        path = write_config(tmp_path, config)
        proc = fresh_interpreter(
            "-m", "granular_bath.cli", mode, "--config", str(path), "--out", str(tmp_path / "o")
        )
        assert proc.returncode == 1
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("config error: the bath keys give no temperature bound: ")
        assert message in lines[0]
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o" / "trajectory.csv").exists()

    def test_unallocatable_ensemble_is_one_line_exit_3(self, tmp_path):
        # 10^13 particles need 218 TiB for the initial draw: numpy's
        # MemoryError must end the run with exit 3 and one line on standard
        # error, not a traceback.
        config = {"mode": "cooling", "n_particles": 10**13, "t_end": 0.02}
        path = write_config(tmp_path, config)
        proc = fresh_interpreter(
            "-m", "granular_bath.cli", "cooling", "--config", str(path), "--out", str(tmp_path / "o")
        )
        assert proc.returncode == 3
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("out of memory: ")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "config",
        [
            {"mode": "full", "lambda": 1e-12, "n_particles": 100, "t_end": 0.01},
            {"mode": "linear", "lambda": 1e-12, "n_particles": 100, "t_end": 0.01},
            {"mode": "cooling", "epsilon": 1.0, "tau": 1e4, "n_particles": 100, "t_end": 10.0},
            {"mode": "cooling", "epsilon": 0.999, "tau": 1e5, "n_particles": 100, "t_end": 1e4},
        ],
        ids=["full-lambda", "linear-lambda", "elastic-cooling-tau", "near-elastic-cooling"],
    )
    def test_unbounded_work_is_one_config_error_line(self, tmp_path, config):
        # At lambda = 1e-12 one step of 0.01 splits into about 5e10 sub-steps,
        # which the run would take 8e6 s to draw, and an elastic gas at
        # tau = 1e4 keeps its radius for 7e5 events per particle, about 100 s.
        # A near-elastic gas cools slowly: Haff's law puts that run at
        # 1.25e5 events per particle, 1.1 times that with the pad.  The parser
        # refuses all four before any output, and the short timeout fails a
        # run that starts instead.
        path = write_config(tmp_path, config)
        proc = fresh_interpreter(
            "-m", "granular_bath.cli", config["mode"], "--config", str(path),
            "--out", str(tmp_path / "o"), timeout=20,
        )
        assert proc.returncode == 1
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("config error: the run would draw about ")
        assert "above the cap of 1e+05" in lines[0]
        assert not (tmp_path / "o").exists()

    def test_cheap_cooling_run_at_a_large_tau_runs(self, tmp_path):
        # A gas at epsilon = 0.8 and tau = 1e4 cools within t0 = 7e-4, so
        # its radius shrinks and the run draws about 480 candidate
        # collisions per particle: Haff's law estimates 490 (540 padded),
        # where the starting radius alone gave 7e5, above the cap.
        config = {"mode": "cooling", "tau": 1e4, "n_particles": 100, "t_end": 10.0}
        path = write_config(tmp_path, config)
        proc = fresh_interpreter(
            "-m", "granular_bath.cli", "cooling", "--config", str(path),
            "--out", str(tmp_path / "o"), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "o" / "trajectory.csv").exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--help"])
        assert exc_info.value.code == 0
        assert "usage: granular-bath" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "grid, message",
        [
            # Too narrow: the grid steady temperature is 0.077.
            ({"nodes": 5, "extent": 0.5}, "grid steady temperature"),
            # Too coarse: the grid steady temperature is 25.
            ({"nodes": 4, "extent": 20.0}, "grid steady temperature"),
            # Too narrow by 16% only, where every particle lies inside the grid.
            ({"nodes": 24, "extent": 2.0}, "grid steady temperature 0.68982"),
        ],
    )
    def test_unusable_grid_exits_three(self, tmp_path, capsys, monkeypatch, grid, message):
        # The grid is judged against theta_lin = 9/11 before any particle runs.
        runs = []
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args))
        path = write_config(tmp_path, dict(LINEAR_SMOKE, t_end=0.1, grid=grid))
        rc = main(["linear", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert runs == []
        err = capsys.readouterr().err
        assert message in err
        assert "theta_lin = 0.8181818181818181;" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_coarse_grid_names_the_spacing(self, tmp_path, capsys):
        # At 8 nodes over +-20 thermal widths the lattice column sums
        # overshoot nu by 13%: the grid is too coarse for the bath.
        path = write_config(tmp_path, dict(LINEAR_SMOKE, grid={"nodes": 8, "extent": 20.0}))
        rc = main(["linear", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical fault: kernel column sums overshoot nu by ")
        assert err.endswith(
            " (relative) at h = 5 bath thermal widths; the grid is too coarse "
            "for the bath, or else the kernel is mis-normalized\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("nodes", [8, 32])
    @pytest.mark.parametrize(
        "extent, h3", [(1e160, "inf"), (1e300, "inf"), (1e-300, "0.000e+00")]
    )
    def test_cell_volume_outside_the_float_range_exits_three(
        self, tmp_path, capsys, monkeypatch, nodes, extent, h3
    ):
        # h^3 overflows or underflows: the build stops before it evaluates
        # nu, and no steady iteration runs.
        calls = []
        monkeypatch.setattr(carleman, "nu", lambda *args: calls.append("nu"))
        monkeypatch.setattr(cli, "steady_state", lambda *args: calls.append("steady"))
        grid = {"nodes": nodes, "extent": extent}
        path = write_config(tmp_path, dict(LINEAR_SMOKE, grid=grid))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["linear", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith(f"numerical fault: grid cell volume h^3 = {h3} (h = ")
        assert err.endswith(") is not a positive normal float\n")
        assert not (tmp_path / "o").exists()

    def test_grid_nodes_above_64_is_one_config_error_line(self, tmp_path, capsys):
        # The reduced matrix of a 65^3 grid would take 0.3 GiB, of 128^3 16 GiB.
        path = write_config(tmp_path, dict(LINEAR_SMOKE, grid={"nodes": 65, "extent": 5.0}))
        rc = main(["linear", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: key 'grid.nodes' out of range [4, 64], got 65")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "target, exc",
        [
            ("make_grid", NumericalFault("kernel column sums overshoot nu")),
            ("steady_state", NumericalFault("no convergence after 1 iterations")),
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
        assert err == f"numerical fault: {exc}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("out, made", [("o", "o"), ("deep/o", "deep"), ("kept", None)])
    def test_linear_fault_after_the_grid_leaves_no_file(
        self, tmp_path, capsys, monkeypatch, out, made
    ):
        # The bath sweep writes a NaN at step 10, after steady_f1.csv is
        # written: the run exits 3, the file goes, and so does the topmost
        # directory the run made; a directory that was there stays as it was.
        step_l, calls = dsmc.step_l, []

        def nan_at_step_10(velocities, *args, **kwargs):
            calls.append(None)
            if len(calls) == 10:
                velocities[0] = np.nan
                kwargs["d2"][0] = np.nan
            return step_l(velocities, *args, **kwargs)

        monkeypatch.setattr(dsmc, "step_l", nan_at_step_10)
        if made is None:
            (tmp_path / out).mkdir()
            (tmp_path / out / "other.txt").write_text("x", encoding="utf-8")
        path = write_config(tmp_path, LINEAR_SMOKE)
        rc = main(["linear", "--config", str(path), "--out", str(tmp_path / out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical fault: ") and err.endswith("at step 10, t = 0.1\n")
        if made is None:
            assert sorted(p.name for p in (tmp_path / out).iterdir()) == ["other.txt"]
        else:
            assert not (tmp_path / made).exists()

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
