"""Command-line runner: configured simulations, reports, and a validation suite.

Modes
-----
cooling   pair collisions only (no bath): algebraic temperature decay.
linear    bath only (tau = 0): relaxation to the bath-driven equilibrium,
          the closed-form Maxwellian at theta_lin, which also checks the
          velocity-grid steady state.
full      pair collisions + bath: driven steady state with bound report.
validate  fast self-check suite, one PASS/FAIL line per invariant.

Config files are strict JSON: every key must be known *and* meaningful for
the requested mode (e.g. bath keys are rejected in cooling mode, ``tau`` and
``epsilon`` are rejected in linear mode, where pair collisions are switched
off).  All defaults are in ``DEFAULTS``; ``lambda`` is the JSON spelling of
the bath coupling scale.  The initial ensemble is always the standard normal
draw (unit temperature, zero mean) from the run seed, so a (config, seed)
pair pins the entire trajectory bit-for-bit.  A config whose collision work
per particle would pass ``_EVENTS_CAP`` is refused.

Exit codes: 0 success, 1 configuration error, 2 temperature-bound violation
beyond the Monte Carlo allowance, 3 numerical fault or memory exhausted (a
run too large to allocate).  ``GB_LOG`` sets the log level.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NoReturn, Sequence

import numpy as np

from .background import (
    BathParams, NumericalFault, TableFormatError, abs_moment, erf, linear_steady,
    load_table, nu,
)
from .carleman import (
    dense_matrix,
    kernel_closed_form,
    kernel_quadrature,
    make_grid,
    steady_state,
    write_grid_csv,
)
from .dsmc import (
    MomentTrajectory,
    ObserverConfig,
    SimConfig,
    _whole_steps,
    detect_steady,
    run,
    step_l,
    step_q,
)
from .kinematics import (
    RestitutionParams,
    _sq_norm,
    collide_l_n,
    collide_l_sigma,
    collide_q,
    energy_split_check,
    sphere_average_l,
    sphere_average_q,
)
from .observables import (
    CSV_COLUMNS,
    BoundParams,
    DegenerateParameterError,
    FitRefusedError,
    _fmt,
    bound_params,
    box_edges,
    f_aux_stderr,
    haff_fit,
    maxwellian_cells,
)

__all__ = [
    "ConfigError",
    "ParsedConfig",
    "DEFAULTS",
    "MODES",
    "parse_config",
    "parse_config_dict",
    "serialize_config",
    "execute",
    "run_validation",
    "main",
]

log = logging.getLogger(__name__)

MODES = ("cooling", "linear", "full", "validate")

_H_BINS = 32  # cells per axis of the linear-mode H box
# Largest relative distance of the grid steady temperature from the closed
# form theta_lin that a linear run accepts.  At e = 0.8, m1 = 1 the accepted
# grids (nodes/extent 8/5, 10/4, 12/3, 32/8) lie within 1%, and too narrow
# or too coarse ones (24/2, 6/6, 5/0.5, 4/20) 15% or more off.
_GRID_THETA_TOL = 0.02
# Most candidate collisions per particle that a config may ask for.  A run
# splits each step into about dt (2 tau R + (R + b) / lambda) sub-steps, R the
# radius max|v - c| (see dsmc), so a run at the cap spends about 14 s in its
# sweeps at N = 100 and 3.4 min at N = 2e4 (see the README).
_EVENTS_CAP = 1e5
# Factor on the Haff-law estimate of a cooling run's work: the counted
# candidates reached 1.081 times the bare estimate (epsilon = 0.5, N = 2000;
# see the README), and 1.1 covers that.
_HAFF_PAD = 1.1

DEFAULTS: dict = {
    "tau": 1.0,
    "epsilon": 0.8,
    "e": 0.8,
    "m1": 1.0,
    "u1": [0.0, 0.0, 0.0],
    "theta1": 1.0,
    "lambda": 1.0,
    "dt": 0.01,
    "t_end": 30.0,
    "n_particles": 20_000,
    "seed": 12345,
    "record_every": 10,
    "grid": {"nodes": 32, "extent": 8.0},
}

_COMMON_KEYS = ("mode", "seed")
_ALLOWED_KEYS = {
    "cooling": _COMMON_KEYS
    + ("tau", "epsilon", "dt", "t_end", "n_particles", "record_every"),
    "linear": _COMMON_KEYS
    + ("e", "m1", "u1", "theta1", "lambda", "dt", "t_end",
       "n_particles", "record_every", "grid"),
    "full": _COMMON_KEYS
    + ("tau", "epsilon", "e", "m1", "u1", "theta1", "lambda", "dt", "t_end",
       "n_particles", "record_every", "f1_table"),
    "validate": _COMMON_KEYS,
}


class ConfigError(ValueError):
    """Configuration file violates the schema; the message names the key."""


@dataclass(frozen=True)
class ParsedConfig:
    """A validated configuration: run mode, solver config, output knobs.

    ``normalized`` is the canonical JSON object (all defaults explicit, keys
    in schema order); serializing and re-parsing it reproduces this object.
    """

    mode: str
    sim: SimConfig | None
    record_every: int
    grid_nodes: int
    grid_extent: float
    normalized: dict


def _as_float(raw: dict, key: str, lo: float | None = None,
              lo_open: bool = False, hi: float | None = None) -> float:
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key {key!r} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r} must be finite, got {value!r}")
    if lo is not None and (value <= lo if lo_open else value < lo):
        bound = "greater than" if lo_open else "at least"
        raise ConfigError(f"key {key!r} must be {bound} {lo}, got {value!r}")
    if hi is not None and value > hi:
        raise ConfigError(f"key {key!r} must be at most {hi}, got {value!r}")
    return value


def _as_int(raw: dict, key: str, lo: int, hi: int | None = None) -> int:
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"key {key!r} must be an integer, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        bound = f"must be at least {lo}" if hi is None else f"out of range [{lo}, {hi}]"
        raise ConfigError(f"key {key!r} {bound}, got {value}")
    return value


def _start_radius(n: int) -> float:
    """The median of max|v| over ``n`` standard-normal velocities.

    That is the r with P(|v| > r) = 1 - 2^(-1/n), where P(|v| > r) =
    erfc(r / sqrt 2) + sqrt(2 / pi) r exp(-r^2 / 2); bisection on [0, 40].
    """
    target = -math.expm1(-math.log(2.0) / n)
    lo, hi = 0.0, 40.0
    for _ in range(60):
        r = 0.5 * (lo + hi)
        tail = math.erfc(r / math.sqrt(2.0)) + math.sqrt(2.0 / math.pi) * r * math.exp(-r * r / 2)
        lo, hi = (r, hi) if tail > target else (lo, r)
    return hi


def parse_config(
    path: str | Path,
    expect_mode: str | None = None,
    seed_override: int | None = None,
) -> ParsedConfig:
    """Load, validate, and normalize a JSON config file."""
    with Path(path).open("r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return parse_config_dict(raw, expect_mode=expect_mode, seed_override=seed_override)


def parse_config_dict(
    raw: dict,
    expect_mode: str | None = None,
    seed_override: int | None = None,
) -> ParsedConfig:
    """Validate a config object (see :func:`parse_config`)."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    mode = raw.get("mode")
    if mode not in MODES:
        raise ConfigError(f"key 'mode' must be one of {MODES}, got {mode!r}")
    if expect_mode is not None and mode != expect_mode:
        raise ConfigError(
            f"config file says mode {mode!r} but the command line asked for "
            f"{expect_mode!r}"
        )
    allowed = _ALLOWED_KEYS[mode]
    for key in sorted(raw):
        if key not in allowed:
            if key in set(DEFAULTS) | {"f1_table", "mode"}:
                raise ConfigError(f"key {key!r} is not allowed in {mode} mode")
            raise ConfigError(f"unknown key {key!r}")
    if mode == "full" and "f1_table" in raw:
        for key in ("u1", "theta1"):
            if key in raw:
                raise ConfigError(
                    f"key {key!r} conflicts with 'f1_table' (bulk state is "
                    f"derived from the table)"
                )

    merged = dict(raw)
    for key in allowed:
        if key in ("mode", "f1_table"):
            continue
        merged.setdefault(key, DEFAULTS[key])
    if seed_override is not None:
        merged["seed"] = seed_override

    seed = _as_int(merged, "seed", 0, 2**64 - 1)
    normalized: dict = {"mode": mode, "seed": seed}
    if mode == "validate":
        return ParsedConfig(
            mode=mode, sim=None, record_every=1, grid_nodes=0, grid_extent=0.0,
            normalized=normalized,
        )

    tau = 0.0 if mode == "linear" else _as_float(merged, "tau", lo=0.0)
    if mode == "cooling" and tau == 0.0:
        raise ConfigError("key 'tau' must be positive in cooling mode")
    dt = _as_float(merged, "dt", lo=0.0, lo_open=True)
    t_end = _as_float(merged, "t_end", lo=dt)
    _whole_steps("key 't_end'", t_end, dt, ConfigError)
    n_particles = _as_int(merged, "n_particles", 2)
    record_every = _as_int(merged, "record_every", 1)

    if mode == "cooling":
        epsilon = _as_float(merged, "epsilon", lo=0.0, lo_open=True, hi=1.0)
        restitution = RestitutionParams(epsilon=epsilon, e=1.0, m1=1.0)
        bath = None
    else:
        e = _as_float(merged, "e", lo=0.0, lo_open=True, hi=1.0)
        m1 = _as_float(merged, "m1", lo=0.0, lo_open=True)
        lambda_ = _as_float(merged, "lambda", lo=0.0, lo_open=True)
        epsilon = (
            _as_float(merged, "epsilon", lo=0.0, lo_open=True, hi=1.0)
            if mode == "full"
            else 1.0
        )
        restitution = RestitutionParams(epsilon=epsilon, e=e, m1=m1)
        if merged.get("f1_table") is not None:
            table_path = merged["f1_table"]
            if not isinstance(table_path, str):
                raise ConfigError(f"key 'f1_table' must be a path string, got {table_path!r}")
            try:
                table = load_table(table_path)
            except TableFormatError as exc:
                raise ConfigError(f"key 'f1_table': {exc}") from exc
            bath = BathParams(
                m1=m1, u1=np.zeros(3), theta1=1.0, lambda_=lambda_, table=table,
            )
        else:
            u1 = merged["u1"]
            if (not isinstance(u1, (list, tuple)) or len(u1) != 3
                    or any(isinstance(x, bool) or not isinstance(x, (int, float))
                           or not math.isfinite(float(x)) for x in u1)):
                raise ConfigError(f"key 'u1' must be a list of 3 finite numbers, got {u1!r}")
            theta1 = _as_float(merged, "theta1", lo=0.0, lo_open=True)
            bath = BathParams(
                m1=m1, u1=np.asarray(u1, dtype=float), theta1=theta1, lambda_=lambda_,
            )
        # Refuse before the run a bath for which the report has no bound.
        try:
            bound_params(restitution, bath, 0.0)
        except DegenerateParameterError as exc:
            raise ConfigError(f"the bath keys give no temperature bound: {exc}") from exc

    grid_nodes, grid_extent = 0, 0.0
    if mode == "linear":
        grid = merged["grid"]
        if not isinstance(grid, dict):
            raise ConfigError(f"key 'grid' must be an object, got {grid!r}")
        for sub in sorted(grid):
            if sub not in ("nodes", "extent"):
                raise ConfigError(f"unknown key 'grid.{sub}'")
        grid = {f"grid.{sub}": value for sub, value in {**DEFAULTS["grid"], **grid}.items()}
        # The reduced matrix takes C(n/2 + 2, 3)^2 doubles: 273 MiB at n = 64.
        grid_nodes = _as_int(grid, "grid.nodes", 4, 64)
        grid_extent = _as_float(grid, "grid.extent", lo=0.0, lo_open=True)
        merged["grid"] = {"nodes": grid_nodes, "extent": grid_extent}

    # Candidate collisions per particle over the run, t_end (2 tau R0 +
    # (R0 + b) / lambda), at the start's radius R0 about c: u1, or the mean.
    # An inelastic gas without a bath cools, and its radius with it: Haff's
    # law under the Gaussian closure gives R0 / (1 + t / t0), and so
    # 2 tau R0 t0 ln(1 + t_end / t0), padded by _HAFF_PAD.  It is formed
    # from tau t0 = 1.5 sqrt(pi) / (1 - epsilon^2), which a tiny tau cannot
    # send to 0 or inf.
    r0 = _start_radius(n_particles)
    bath_rate = 0.0
    if bath is not None:
        r0 += float(np.linalg.norm(bath.u1))
        bath_rate = (r0 + bath.bound_mean) / bath.lambda_
    if bath is None and restitution.epsilon < 1.0:
        tau_t0 = 1.5 * math.sqrt(math.pi) / (1.0 - restitution.epsilon**2)
        events = _HAFF_PAD * 2.0 * r0 * tau_t0 * math.log1p(t_end * tau / tau_t0)
        formula = f"{_HAFF_PAD} x 2 tau R0 t0 ln(1 + t_end / t0) by Haff's law"
    else:
        events = t_end * (2.0 * tau * r0 + bath_rate)
        formula = "t_end (2 tau R0 + (R0 + b) / lambda)"
    if events > _EVENTS_CAP:
        keys = "lower 'tau' or 't_end'"  # cooling mode has no 'lambda'
        if bath is not None:
            keys = "raise 'lambda' or " + keys
        raise ConfigError(
            f"the run would draw about {events:.3g} candidate collisions per "
            f"particle, {formula}, above the cap of {_EVENTS_CAP:.0e}; {keys}"
        )
    sim = SimConfig(
        tau=tau, restitution=restitution, bath=bath, dt=dt, t_end=t_end,
        n_particles=n_particles, seed=seed,
    )
    for key in allowed:
        if key in ("mode", "seed"):
            continue
        if key == "f1_table":
            if merged.get("f1_table") is not None:
                normalized["f1_table"] = merged["f1_table"]
            continue
        normalized[key] = merged[key]
    return ParsedConfig(
        mode=mode, sim=sim, record_every=record_every,
        grid_nodes=grid_nodes, grid_extent=grid_extent, normalized=normalized,
    )


def serialize_config(parsed: ParsedConfig) -> str:
    """Canonical JSON text whose parse reproduces ``parsed`` exactly."""
    return json.dumps(parsed.normalized, indent=2) + "\n"


def _plot_script(bound: float | None, has_h: bool) -> str:
    """Gnuplot text plotting the trajectory CSV written beside it."""
    col = {name: i + 1 for i, name in enumerate(CSV_COLUMNS)}  # gnuplot counts from 1
    curve = '"trajectory.csv" using 1:{} with lines lw 2 title "{}"'.format
    lines = [
        "# Render with: gnuplot plot.gp  (reads trajectory.csv in this directory)",
        'set datafile separator ","',
        "set key autotitle columnhead",
        "set terminal pngcairo size 960,640",
        'set xlabel "t"',
        "",
        'set output "theta.png"',
        'set ylabel "temperature"',
        "plot " + curve(col["theta"], "Theta(t)"),
        "",
        'set output "aux_moment.png"',
        'set ylabel "F(t) = 3 Theta + |u-u1|^2 + 3 Theta1/m1"',
    ]
    if bound is not None:
        lines += [
            f"# const bound line excludes the 3 Theta1/m1 shift of column {col['F']}",
            f"plot {curve(col['F'], 'F(t)')}, \\",
            f'     {_fmt(bound)} with lines dashtype 2 title "bound + shift"',
        ]
    else:
        lines.append("plot " + curve(col["F"], "F(t)"))
    if has_h:
        lines += ["", 'set output "h_functional.png"', 'set ylabel "H(t)"',
                  f"plot {curve(col['Hquad'], 'H quadratic')}, \\",
                  "     " + curve(col["Hent"], "H entropy")]
    return "\n".join(lines) + "\n"


def _write_bound_report(
    path: Path,
    parsed: ParsedConfig,
    traj: MomentTrajectory,
    bp: BoundParams | None,
    extra_lines: Sequence[str] = (),
) -> bool:
    """Write the bound-compliance report, with ``bp`` None when there is no
    bath; returns True on a violation."""
    sim = parsed.sim
    assert sim is not None
    lines = [f"mode: {parsed.mode}", f"seed: {sim.seed}",
             f"particles: {sim.n_particles}", f"records: {len(traj.records)}"]
    violated = False
    if sim.bath is None:
        lines.append("bath: none (temperature bound not applicable)")
        t = np.asarray(traj.times())
        th = np.asarray(traj.thetas())
        lines.append(f"theta initial: {_fmt(th[0])}")
        lines.append(f"theta final: {_fmt(th[-1])}")
        try:
            fit = haff_fit(t, th)
            lines.append(f"cooling exponent: {_fmt(fit.exponent)}")
            lines.append(f"cooling timescale t0: {_fmt(fit.t0)}")
            lines.append(f"cooling fit residual: {_fmt(fit.residual)}")
        except FitRefusedError as exc:
            lines.append(f"cooling fit: refused ({exc})")
    else:
        bath = sim.bath
        lines.append(f"gamma1: {_fmt(bp.gamma1)}")
        lines.append(f"gamma2: {_fmt(bp.gamma2)}")
        lines.append(f"bound max((gamma2/gamma1)^2, F(0)): {_fmt(bp.bound)}")
        shift = 3.0 * bath.theta1 / bath.m1
        worst = -math.inf
        worst_t = 0.0
        for rec in traj.records:
            allowance = 4.0 * f_aux_stderr(rec, bath, sim.n_particles)
            excess = (rec.f_aux - shift) - (bp.bound + allowance)
            if excess > worst:
                worst, worst_t = excess, rec.t
            if excess > 0.0:
                violated = True
        lines.append(f"largest F excess over bound + 4 sigma: {_fmt(worst)} at t = {_fmt(worst_t)}")
        lines.append(f"verdict: {'VIOLATION' if violated else 'OK'}")
    lines.extend(extra_lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return violated


def _steady_theta(traj: MomentTrajectory):
    """detect_steady plus the mean/SE of theta over the steady tail.

    Returns ``(None, nan, nan)`` when the trajectory is too short for the
    steady window: a short run is a legitimate configuration, not an error.
    """
    try:
        verdict = detect_steady(traj)
    except ValueError as exc:
        log.warning("steady detection skipped: %s", exc)
        return None, math.nan, math.nan
    if not verdict.steady:
        return verdict, math.nan, math.nan
    tail = np.asarray(traj.thetas()[verdict.index :])
    se = float(tail.std(ddof=1) / math.sqrt(tail.size)) if tail.size > 1 else math.nan
    return verdict, float(tail.mean()), se


def execute(parsed: ParsedConfig, out_dir: str | Path = ".") -> int:
    """Run one configured pipeline, writing outputs into ``out_dir``.

    ``out_dir`` is created just before the first file is written, so a run
    that fails before then leaves no directory behind.  A linear run writes
    ``steady_f1.csv`` before its particle run; if that run raises, the file
    goes, and so does the topmost directory of ``out_dir`` that this call
    made.  NumericalFault and
    MemoryError propagate; :func:`main` maps them to exit code 3.
    """
    if parsed.mode == "validate":
        return run_validation(seed=parsed.normalized["seed"])
    sim = parsed.sim
    assert sim is not None
    out = Path(out_dir)

    h_reference = None
    steady_grid = None
    steady_csv = made = None
    try:
        if parsed.mode == "linear":  # linear mode takes no f1_table: a Maxwellian bath
            log.info("building %d^3 kernel grid", parsed.grid_nodes)
            grid = make_grid(
                sim.restitution, sim.bath, n=parsed.grid_nodes,
                extent_sigma=parsed.grid_extent,
            )
            steady_grid = steady_state(grid)
            theta_lin = linear_steady(sim.restitution, sim.bath)
            if not abs(steady_grid.theta - theta_lin) <= _GRID_THETA_TOL * theta_lin:
                raise NumericalFault(
                    f"grid steady temperature {_fmt(steady_grid.theta)} is more than "
                    f"{_GRID_THETA_TOL:.0%} from the closed form theta_lin = "
                    f"{_fmt(theta_lin)}; the grid is too coarse or too narrow for the bath"
                )
            made = next((p for p in (*reversed(out.parents), out) if not p.exists()), None)
            out.mkdir(parents=True, exist_ok=True)
            steady_csv = out / "steady_f1.csv"
            write_grid_csv(steady_csv, grid, steady_grid.f)
            # L1 distance of the grid steady state to the closed form, the gas
            # Maxwellian at (u1, theta_lin) at the nodes: a product of 1-D factors.
            gauss = [
                np.exp(-0.5 * (ax - c) ** 2 / theta_lin) / math.sqrt(2.0 * math.pi * theta_lin)
                for ax, c in zip(grid.axes, sim.bath.u1)
            ]
            exact = np.multiply.outer(np.multiply.outer(*gauss[:2]), gauss[2]).ravel()
            l1_exact = float(np.abs(steady_grid.f - exact).sum() * grid.cell_volume)
            # Only steady_grid is read from here on: free the grid's reduced
            # matrix and node arrays before the particle run allocates.
            del grid
            # The H reference: the closed-form steady state's averages over
            # _H_BINS^3 cells on 90% of the grid's half-width.
            edges = box_edges(sim.bath.u1, 0.9 * parsed.grid_extent * sim.bath.sigma_th, _H_BINS)
            h_reference = (edges, maxwellian_cells(sim.bath.u1, theta_lin, edges))

        observers = ObserverConfig(
            record_every=parsed.record_every,
            compute_lp=True,
            compute_sigma=True,
            h_reference=h_reference,
        )
        traj = run(sim, observers=observers)
    except BaseException:
        # A failed run leaves no file: the grid's CSV goes, and so does the
        # topmost directory of out that this call made for it.
        if steady_csv is not None:
            steady_csv.unlink(missing_ok=True)
            if made is not None:
                shutil.rmtree(made, ignore_errors=True)
        raise
    out.mkdir(parents=True, exist_ok=True)
    traj.to_csv(out / "trajectory.csv")

    extra: list[str] = []
    if parsed.mode != "cooling":
        verdict, theta_s, theta_se = _steady_theta(traj)
        if verdict is None:
            line = "steady verdict: not enough records for the steady window"
        elif not verdict.steady:
            line = "steady verdict: not steady"
        else:
            line = f"steady verdict: steady at t = {_fmt(verdict.t_steady)}"
            if parsed.mode == "full":
                line += f", theta = {_fmt(theta_s)} +- {_fmt(theta_se)}"
        extra.append(line)
    if parsed.mode == "linear":
        extra += [
            f"theta grid steady: {_fmt(steady_grid.theta)}",
            f"theta exact: {_fmt(theta_lin)}",
            f"grid L1 to closed form: {_fmt(l1_exact)}",
            f"theta simulation steady: {_fmt(theta_s)} +- {_fmt(theta_se)}",
            f"theta discrepancy: {_fmt(abs(theta_s - theta_lin))}",
        ]
    for line in extra:
        print(line)

    bp = bound_value = None
    if sim.bath is not None:
        bp = bound_params(sim.restitution, sim.bath, traj.records[0].f_aux)
        # Plot line includes the 3 Theta1/m1 shift so it is comparable to F.
        bound_value = bp.bound + 3.0 * sim.bath.theta1 / sim.bath.m1
    violated = _write_bound_report(out / "bound_report.txt", parsed, traj, bp, extra)
    (out / "plot.gp").write_text(
        _plot_script(bound_value, has_h=h_reference is not None), encoding="utf-8"
    )
    if violated:
        print("temperature bound violated beyond the 4 sigma allowance", file=sys.stderr)
        return 2
    return 0


# --------------------------------------------------------------------------
# validation suite


def _check_pair_collision_example(rng: np.random.Generator) -> None:
    params = RestitutionParams(epsilon=0.5, e=1.0, m1=1.0)
    v, w = collide_q([1.0, 0, 0], [-1.0, 0, 0], [0.0, 1.0, 0.0], params)
    assert np.allclose(v, [0.25, 0.75, 0.0], atol=1e-14), v
    assert np.allclose(w, [-0.25, -0.75, 0.0], atol=1e-14), w


def _check_bath_collision_examples(rng: np.random.Generator) -> None:
    params = RestitutionParams(epsilon=1.0, e=0.5, m1=1.0)  # alpha=0.5, beta=0.25
    v, w = collide_l_sigma([1.0, 0, 0], [0.0, 0, 0], [-1.0, 0, 0], params)
    assert np.allclose(v, [0.25, 0, 0], atol=1e-14), v
    assert np.allclose(w, [0.75, 0, 0], atol=1e-14), w
    params = RestitutionParams(epsilon=1.0, e=1.0, m1=1.0)  # alpha=0.5, beta=0
    v, w = collide_l_n([2.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0], params)
    assert np.allclose(v, [0.0, 0, 0], atol=1e-14), v
    assert np.allclose(w, [2.0, 0, 0], atol=1e-14), w


def _check_momentum_conservation(rng: np.random.Generator) -> None:
    params = RestitutionParams(epsilon=0.7, e=0.6, m1=1.7)
    v, w = rng.standard_normal((2, 500, 3)) * 3.0
    sigma = v + rng.standard_normal((500, 3))
    sigma /= np.linalg.norm(sigma, axis=1, keepdims=True)
    v1, w1 = collide_q(v, w, sigma, params)
    drift = np.abs((v1 + w1) - (v + w)).max()
    assert drift <= 1e-12, drift
    v2, w2 = collide_l_sigma(v, w, sigma, params)
    drift = np.abs((v2 + params.m1 * w2) - (v + params.m1 * w)).max()
    assert drift <= 1e-12, drift


def _check_restitution_law(rng: np.random.Generator) -> None:
    params = RestitutionParams(epsilon=1.0, e=0.55, m1=0.8)
    v, w = rng.standard_normal((2, 200, 3))
    n = rng.standard_normal((200, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    v1, w1 = collide_l_n(v, w, n, params)
    pre = np.sum((v - w) * n, axis=1)
    post = np.sum((v1 - w1) * n, axis=1)
    err = np.abs(post + params.e * pre).max()
    assert err <= 1e-12, err


def _check_energy_split(rng: np.random.Generator) -> None:
    params = RestitutionParams(epsilon=1.0, e=0.8, m1=1.5)  # alpha=0.6, beta=0.1
    v, w = rng.standard_normal((2, 2000, 3))
    sigma = rng.standard_normal((2000, 3))
    sigma /= np.linalg.norm(sigma, axis=1, keepdims=True)
    v1, w1 = collide_l_sigma(v, w, sigma, params)
    ell, residual = energy_split_check(v, w, v1, w1, params)
    assert np.max(residual) <= 1e-12, np.max(residual)
    assert np.all(ell >= params.e - 1e-12) and np.all(ell <= 1.0 + 1e-12)


def _check_sphere_averages(rng: np.random.Generator) -> None:
    params = RestitutionParams(epsilon=0.8, e=0.75, m1=1.3)
    u1 = np.array([0.3, -0.2, 0.5])
    kappa = params.kappa
    for _ in range(10):
        v, w = rng.standard_normal((2, 3)) * 2.0
        q = v - w
        got = sphere_average_q(lambda x: np.sum(x**2, axis=-1), v, w, params, order=32)
        want = -(1.0 - params.epsilon**2) / 4.0 * float(q @ q)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), (got, want)
        got = sphere_average_l(
            lambda x: np.sum((x - u1) ** 2, axis=-1), v, w, params, order=32
        )
        want = -2.0 * kappa * (1.0 - kappa) * float(q @ q) - 2.0 * kappa * float(
            q @ (w - u1)
        )
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), (got, want)


def _check_collision_frequency(rng: np.random.Generator) -> None:
    bath = BathParams(m1=1.3, u1=np.array([0.1, 0.0, -0.4]), theta1=0.9, lambda_=1.7)
    v_far = bath.u1 + np.array([1e7, 0.0, 0.0])
    ratio = nu(bath, v_far) * bath.lambda_ / 1e7
    assert abs(ratio - 1.0) <= 1e-6, ratio
    # continuity across the small-speed series switch
    s = bath.sigma_th
    lo = nu(bath, bath.u1 + np.array([0.99e-4 * s, 0, 0]))
    hi = nu(bath, bath.u1 + np.array([1.01e-4 * s, 0, 0]))
    assert abs(lo - hi) <= 1e-10 * lo, (lo, hi)
    mean_speed = abs_moment(bath, 1.0)
    for _ in range(50):
        v = rng.standard_normal(3) * 3.0
        dist = float(np.linalg.norm(v - bath.u1))
        val = nu(bath, v)
        assert val >= abs(dist - mean_speed) / bath.lambda_ - 1e-12
        assert val <= (dist + mean_speed) / bath.lambda_ + 1e-12


def _check_vectorized_erf(rng: np.random.Generator) -> None:
    # Every interval of the port, both sides of each edge, tiny arguments.
    edges = np.array([0.0, 2.0**-28, 0.84375, 1.25, 1.0 / 0.35, 6.0])
    x = np.concatenate([
        rng.uniform(-7.0, 7.0, 20_000),
        np.exp(rng.uniform(-40.0, 2.0, 2_000)),
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
    ])
    got = erf(x)
    want = np.array([math.erf(t) for t in x.tolist()])
    ulps = float(np.max(np.abs(got - want) / np.spacing(np.abs(want))))
    assert ulps <= 1.0, ulps
    assert np.array_equal(erf(-x), -got)
    ends = erf(np.array([np.inf, -np.inf, np.nan]))
    assert ends[0] == 1.0 and ends[1] == -1.0 and np.isnan(ends[2]), ends


def _check_abs_moments(rng: np.random.Generator) -> None:
    bath = BathParams(m1=2.0, u1=np.zeros(3), theta1=1.4, lambda_=1.0)
    assert abs(abs_moment(bath, 0.0) - 1.0) <= 1e-12
    want = 3.0 * bath.theta1 / bath.m1
    assert abs(abs_moment(bath, 2.0) - want) <= 1e-12 * want


def _check_kernel_oracle(rng: np.random.Generator) -> None:
    params = RestitutionParams(epsilon=1.0, e=0.8, m1=1.0)
    bath = BathParams(m1=1.0, u1=np.zeros(3), theta1=1.0, lambda_=1.0)
    for _ in range(5):
        v, w = rng.standard_normal((2, 3))
        closed = float(kernel_closed_form(v, w, params, bath))
        quad = kernel_quadrature(v, w, params, bath)
        assert abs(closed - quad) <= 1e-6 * max(abs(closed), 1e-300), (closed, quad)


def _check_grid_mass_conservation(rng: np.random.Generator) -> None:
    params = RestitutionParams(epsilon=1.0, e=0.8, m1=1.0)
    bath = BathParams(m1=1.0, u1=np.zeros(3), theta1=1.0, lambda_=1.0)
    grid = make_grid(params, bath, n=8, extent_sigma=5.0)
    f = rng.random(grid.n_nodes)
    rate = float((dense_matrix(grid) @ f - grid.nu_vec * f).sum()) * grid.cell_volume
    scale = float((grid.nu_vec * f).sum()) * grid.cell_volume
    assert abs(rate) <= 1e-12 * scale, rate


def _check_elastic_fixed_point(rng: np.random.Generator) -> None:
    params = RestitutionParams(epsilon=1.0, e=1.0, m1=1.0)
    bath = BathParams(m1=1.0, u1=np.zeros(3), theta1=1.0, lambda_=1.0)
    grid = make_grid(params, bath, n=10, extent_sigma=5.0)
    m = grid.maxwellian()
    res = dense_matrix(grid) @ m - grid.nu_vec * m
    scale = float(np.max(grid.nu_vec * m))
    assert np.max(np.abs(res)) <= 1e-10 * scale, np.max(np.abs(res))


def _check_run_reproducibility(rng: np.random.Generator) -> None:
    params = RestitutionParams(epsilon=0.8, e=0.8, m1=1.0)
    bath = BathParams(m1=1.0, u1=np.zeros(3), theta1=1.0, lambda_=1.0)
    config = SimConfig(
        tau=1.0, restitution=params, bath=bath, dt=0.01, t_end=0.3,
        n_particles=500, seed=777,
    )
    one = run(config)
    two = run(config)
    assert one.final.tobytes() == two.final.tobytes()
    assert one.times().tobytes() == two.times().tobytes()
    assert one.thetas().tobytes() == two.thetas().tobytes()


def _check_sweep_cache(rng: np.random.Generator) -> None:
    # Ten steps of both sweeps on N = 2000 particles, each from one generator
    # state with run's |v - u1|^2 cache and with a reference cache that is
    # exact at the bath rows and q_max^2 at the pair rows, where it screens
    # out no pair.  1800 particles form pairs with w - u1 = -t (v - u1),
    # where |v - w| = |v - u1| + |w - u1| and q_max lies just above it, so a
    # screen tighter than the triangle inequality rejects pairs that the
    # unscreened sweep accepts.
    params = RestitutionParams(epsilon=0.8, e=0.8, m1=2.0)
    bath = BathParams(m1=2.0, u1=np.array([0.3, -0.2, 0.5]), theta1=1.3, lambda_=1.0)
    n, h = 2000, 900
    pairs, bath_rows = np.arange(2 * h), np.arange(2 * h, n)
    for _ in range(10):
        direction = rng.standard_normal((h, 3))
        direction /= np.sqrt(_sq_norm(direction))[:, None]
        a = rng.uniform(0.9, 1.0, (h, 1))
        t = rng.uniform(0.9, 1.0, (h, 1))
        vel = bath.u1 + np.concatenate(
            [a * direction, -t * a * direction, rng.standard_normal((n - 2 * h, 3))]
        )
        d2 = _sq_norm(vel, bath.u1)
        q_max = 2.002
        l_max = float(np.sqrt(d2[bath_rows].max())) * 1.001 + bath.bound_mean
        reference = d2.copy()
        reference[pairs] = q_max**2
        state = rng.bit_generator.state
        got = []
        for cache in (reference, d2):
            rng.bit_generator.state = state
            v = vel.copy()
            (nl,) = step_l(v, 0.01, params, bath, l_max, rng, candidates=bath_rows, d2=cache)
            (nq,) = step_q(v, 0.01, 1.0, params, q_max, rng, candidates=pairs,
                           d2=cache, centre=bath.u1)
            got.append((v, nl, nq, rng.random()))
        (v0, *counts0), (v1, *counts1) = got
        assert counts1 == counts0, (counts0, counts1)
        assert v1.tobytes() == v0.tobytes(), "velocities differ"
        assert d2.tobytes() == _sq_norm(v1, bath.u1).tobytes(), "stale cache"


_VALIDATION_CHECKS: list[tuple[str, Callable[[np.random.Generator], None]]] = [
    ("pair collision worked example", _check_pair_collision_example),
    ("bath collision worked examples", _check_bath_collision_examples),
    ("momentum conservation in collision maps", _check_momentum_conservation),
    ("restitution law along impact direction", _check_restitution_law),
    ("energy split factor within [e, 1]", _check_energy_split),
    ("sphere-average identities", _check_sphere_averages),
    ("collision frequency closed form", _check_collision_frequency),
    ("vectorized erf against math.erf", _check_vectorized_erf),
    ("bath absolute moments", _check_abs_moments),
    ("scattering kernel vs planar quadrature", _check_kernel_oracle),
    ("grid operator conserves mass", _check_grid_mass_conservation),
    ("elastic grid fixed point", _check_elastic_fixed_point),
    ("run reproducibility", _check_run_reproducibility),
    ("sweeps screened by the |v - c|^2 cache equal the unscreened sweeps", _check_sweep_cache),
]


def run_validation(seed: int) -> int:
    """Run the invariant suite, printing one PASS/FAIL line per check."""
    failures = 0
    for name, fn in _VALIDATION_CHECKS:
        try:
            fn(np.random.default_rng(seed))
        except Exception as exc:  # noqa: BLE001 - any failure is a FAIL line
            failures += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"PASS {name}")
    total = len(_VALIDATION_CHECKS)
    print(f"{total - failures}/{total} checks passed")
    return 0 if failures == 0 else 1


class _UsageError(Exception):
    """An unusable command line (unknown mode, unknown or malformed option)."""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with 2 on a usage error, the code this program reserves
    # for a violated moment bound; raise instead so main can return 1.
    def error(self, message: str) -> NoReturn:
        raise _UsageError(message)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="granular-bath",
        description="Particle and velocity-grid solver for a granular gas "
        "coupled to a thermal bath.",
    )
    parser.add_argument("mode", choices=MODES, help="run mode")
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="JSON configuration file (optional for the "
                        "parameter-free validate mode)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (created if missing)")
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc} (see --help)", file=sys.stderr)
        return 1
    level = os.environ.get("GB_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    if args.config is None and args.mode != "validate":
        print(f"--config is required for {args.mode} mode", file=sys.stderr)
        return 1
    try:
        if args.config is None:
            parsed = parse_config_dict({"mode": "validate"},
                                       expect_mode=args.mode,
                                       seed_override=args.seed)
        else:
            parsed = parse_config(args.config, expect_mode=args.mode,
                                  seed_override=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        return execute(parsed, out_dir=args.out)
    except NumericalFault as exc:
        print(f"numerical fault: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
