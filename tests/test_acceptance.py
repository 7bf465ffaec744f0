"""Acceptance suite: one test per advertised guarantee, at its stated tolerance.

Each test prints a single summary line with the measured numbers (visible
with ``pytest -v -s`` or in failure output); the pytest PASSED/FAILED line is
the per-criterion verdict.  Standard errors of time-correlated series are
estimated by batch means so the sigma allowances are honest.
"""
import json
import math

import numpy as np
import pytest
from conftest import drawn_sweep, third_cumulant

from granular_bath.background import BathParams, linear_steady
from granular_bath.carleman import (
    kernel_closed_form,
    kernel_quadrature,
    make_grid,
    steady_state,
)
from granular_bath.cli import main
from granular_bath.dsmc import ObserverConfig, SimConfig, detect_steady, run, step_q
from granular_bath.kinematics import (
    RestitutionParams,
    sphere_average_l,
    sphere_average_q,
)
from granular_bath.observables import (
    bound_params,
    box_edges,
    f_aux_stderr,
    haff_fit,
    maxwellian_cells,
)

N_LARGE = 100_000

PARAM_SETS = [
    RestitutionParams(epsilon=0.5, e=0.9, m1=1.0),
    RestitutionParams(epsilon=0.8, e=0.8, m1=1.0),
    RestitutionParams(epsilon=1.0, e=1.0, m1=1.0),
    RestitutionParams(epsilon=0.7, e=0.6, m1=0.5),
    RestitutionParams(epsilon=0.9, e=0.75, m1=2.0),
]

DRIVEN_REST = RestitutionParams(epsilon=0.8, e=0.8, m1=1.0)


def unit_bath(m1: float = 1.0, theta1: float = 1.0) -> BathParams:
    return BathParams(m1=m1, u1=np.zeros(3), theta1=theta1, lambda_=1.0)


def batch_mean_se(values, n_batches: int = 8) -> tuple[float, float]:
    """Mean and batch-means standard error of a (correlated) series tail."""
    values = np.asarray(values, dtype=float)
    usable = values.size - values.size % n_batches
    batches = values[values.size - usable :].reshape(n_batches, -1).mean(axis=1)
    return float(batches.mean()), float(batches.std(ddof=1) / math.sqrt(n_batches))


@pytest.fixture(scope="module")
def driven_runs():
    """Two full-mode runs (different seeds) shared by criteria 4, 8 and 11.

    tau = 1, epsilon = e = 0.8, m1 = 1, Maxwellian bath Theta1 = 1, u1 = 0,
    N = 1e5.  The energy relaxation rate is 2 kappa (1 - kappa) ~ 0.5, so
    t_end = 41 covers ~20 relaxation times.
    """
    obs = ObserverConfig(record_every=5)
    out = []
    for seed in (9001, 9002):
        config = SimConfig(
            tau=1.0, restitution=DRIVEN_REST, bath=unit_bath(), dt=0.02,
            t_end=41.0, n_particles=N_LARGE, seed=seed,
        )
        out.append(run(config, observers=obs))
    return out


def test_criterion_01_sphere_average_identities():
    rng = np.random.default_rng(1001)
    u1 = np.array([0.3, -0.2, 0.5])
    worst = 0.0
    for params in PARAM_SETS:
        kappa = params.kappa
        for _ in range(100):
            v, w = rng.standard_normal((2, 3)) * 2.0
            q = v - w
            got = sphere_average_q(
                lambda x: np.sum(x**2, axis=-1), v, w, params, order=64
            )
            want = -(1.0 - params.epsilon**2) / 4.0 * float(q @ q)
            scale = max(abs(want), float(q @ q) / 4.0)
            worst = max(worst, abs(got - want) / scale)
            got = sphere_average_l(
                lambda x: np.sum((x - u1) ** 2, axis=-1), v, w, params, order=64
            )
            want = -2.0 * kappa * (1.0 - kappa) * float(q @ q) - 2.0 * kappa * float(
                q @ (w - u1)
            )
            scale = max(
                abs(want),
                2.0 * kappa * (1.0 - kappa) * float(q @ q)
                + 2.0 * kappa * abs(float(q @ (w - u1))),
            )
            worst = max(worst, abs(got - want) / scale)
    assert worst <= 1e-8, worst
    print(f"criterion  1 PASS  sphere-average identities, worst rel err {worst:.2e}")


def test_criterion_02_momentum_conservation():
    rng = np.random.default_rng(1002)
    n = 200_000
    vel = rng.standard_normal((n, 3))
    rest = RestitutionParams(epsilon=0.8, e=1.0, m1=1.0)
    p0 = vel.sum(axis=0)
    total = 0
    sweeps = 0
    while total < 1_000_000:
        vmax = float(np.linalg.norm(vel, axis=1).max())
        q_max = 2.0 * vmax + 1e-9  # hard kinematic envelope, cannot overflow
        dt = 0.9 / q_max  # keeps candidate pairs just under n / 2
        accepted, _ = drawn_sweep(step_q, vel, dt, 1.0, rest, q_max, rng=rng)
        total += accepted
        sweeps += 1
    assert vel.shape == (n, 3)
    assert np.all(np.isfinite(vel))
    drift = float(np.max(np.abs(vel.sum(axis=0) - p0)))
    rel = drift / float(np.linalg.norm(vel, axis=1).sum())
    assert rel <= 1e-10, rel
    print(
        f"criterion  2 PASS  {total} collisions in {sweeps} sweeps, "
        f"momentum drift {rel:.2e} relative"
    )


def test_criterion_03_energy_dissipation_rate():
    # Replicated finite-difference windows: each replica evolves the same
    # initial ensemble through [0, 0.2] with its own collision stream, the
    # analytic rate is evaluated on that replica's own midpoint ensemble
    # (disjoint-pair Monte Carlo), and the paired residuals give the
    # standard error of the comparison directly.
    rest = RestitutionParams(epsilon=0.8, e=1.0, m1=1.0)
    tau = 1.0
    base = np.random.default_rng(1003).standard_normal((N_LARGE, 3))
    y1_start = float(np.mean(np.sum(base**2, axis=1)))
    delta = 0.2
    rng = np.random.default_rng(1004)
    residuals = []
    lhs_all, rhs_all = [], []
    for rep in range(12):
        cfg_half = SimConfig(
            tau=tau, restitution=rest, bath=None, dt=0.005, t_end=delta / 2,
            n_particles=N_LARGE, seed=7100 + rep,
        )
        mid = run(cfg_half, observers=ObserverConfig(record_every=10_000),
                  init=base).final.velocities
        pair_means = []
        for _ in range(4):
            perm = rng.permutation(N_LARGE)
            q = mid[perm[: N_LARGE // 2]] - mid[perm[N_LARGE // 2 :]]
            pair_means.append(float(np.mean(np.linalg.norm(q, axis=1) ** 3)))
        # d/dt mean|v|^2 = -tau (1 - eps^2)/8 * E_pairs |q|^3
        rhs = -tau * (1.0 - rest.epsilon**2) / 8.0 * float(np.mean(pair_means))
        cfg_rest = SimConfig(
            tau=tau, restitution=rest, bath=None, dt=0.005, t_end=delta / 2,
            n_particles=N_LARGE, seed=7300 + rep,
        )
        end = run(cfg_rest, observers=ObserverConfig(record_every=10_000),
                  init=mid).final.velocities
        y1_end = float(np.mean(np.sum(end**2, axis=1)))
        lhs = (y1_end - y1_start) / delta
        residuals.append(lhs - rhs)
        lhs_all.append(lhs)
        rhs_all.append(rhs)
    residuals = np.asarray(residuals)
    se = float(residuals.std(ddof=1) / math.sqrt(residuals.size))
    diff = float(residuals.mean())
    assert abs(diff) <= 3.0 * se, (diff, se, np.mean(lhs_all), np.mean(rhs_all))
    print(
        f"criterion  3 PASS  dE/dt measured {np.mean(lhs_all):.4f} vs analytic "
        f"{np.mean(rhs_all):.4f}, residual {diff:.2e} +- {se:.2e}"
    )


@pytest.mark.slow
def test_criterion_04_temperature_bound(driven_runs):
    traj = driven_runs[0]
    bath = traj.config.bath
    n = traj.config.n_particles
    bp = bound_params(traj.config.restitution, bath, traj.records[0].f_aux)
    shift = 3.0 * bath.theta1 / bath.m1
    worst = -math.inf
    for rec in traj.records:
        excess = (rec.f_aux - shift) - (bp.bound + 4.0 * f_aux_stderr(rec, bath, n))
        worst = max(worst, excess)
    assert worst <= 0.0, worst
    print(
        f"criterion  4 PASS  every 3 Theta + |u - u1|^2 within bound "
        f"{bp.bound:.3f} + 4 sigma (worst margin {-worst:.3f})"
    )


def test_criterion_05_haff_cooling():
    config = SimConfig(
        tau=1.0,
        restitution=RestitutionParams(epsilon=0.8, e=1.0, m1=1.0),
        bath=None, dt=0.02, t_end=80.0, n_particles=N_LARGE, seed=1005,
    )
    traj = run(config, observers=ObserverConfig(record_every=10))
    fit = haff_fit(traj.times(), traj.thetas())
    assert abs(fit.exponent + 2.0) <= 0.2, fit
    print(
        f"criterion  5 PASS  cooling exponent {fit.exponent:.4f} "
        f"(target -2 within 10%), t0 = {fit.t0:.3f}"
    )


class TestCriterion06ElasticBathEquilibrium:
    REST = RestitutionParams(epsilon=1.0, e=1.0, m1=1.0)

    def test_criterion_06a_temperature_and_cumulant(self):
        bath = unit_bath()
        config = SimConfig(
            tau=0.0, restitution=self.REST, bath=bath, dt=0.02, t_end=20.0,
            n_particles=N_LARGE, seed=1006,
        )
        hot = np.random.default_rng(1106).standard_normal((N_LARGE, 3)) * math.sqrt(2.0)
        traj = run(config, observers=ObserverConfig(record_every=5), init=hot)
        times = traj.times()
        tail = traj.thetas()[times >= 12.0]
        theta_mean, theta_se = batch_mean_se(tail)
        assert abs(theta_mean - bath.theta1) <= 4.0 * theta_se, (theta_mean, theta_se)
        kappa3 = third_cumulant(traj.final.velocities)
        se3 = math.sqrt(15.0 * theta_mean**3 / N_LARGE)
        assert np.all(np.abs(kappa3) <= 4.0 * se3), (kappa3, se3)
        print(
            f"criterion  6a PASS  Theta -> {theta_mean:.5f} +- {theta_se:.5f} "
            f"(Theta1 = 1), third cumulant max |{np.max(np.abs(kappa3)):.4f}| "
            f"<= 4 x {se3:.4f}"
        )

    def test_criterion_06b_grid_maxwellian_48(self):
        grid = make_grid(self.REST, unit_bath(), n=48, extent_sigma=8.0)
        ss = steady_state(grid)
        m = grid.maxwellian()
        rel = float(np.max(np.abs(ss.f - m) / m))
        assert rel <= 1e-3, rel
        print(
            f"criterion  6b PASS  48^3 steady state matches the Maxwellian "
            f"nodewise, worst rel dev {rel:.2e}"
        )


@pytest.mark.slow
def test_criterion_07_inelastic_linear_steady_state():
    lines = []
    for e in (0.7, 0.9):
        for m1 in (0.5, 1.0, 2.0):
            rest = RestitutionParams(epsilon=1.0, e=e, m1=m1)
            bath = unit_bath(m1=m1)
            grid = make_grid(rest, bath, n=32, extent_sigma=8.0)
            theta_grid = steady_state(grid).theta
            config = SimConfig(
                tau=0.0, restitution=rest, bath=bath, dt=0.02, t_end=20.0,
                n_particles=40_000, seed=int(1007 + 10 * e + m1),
            )
            traj = run(config, observers=ObserverConfig(record_every=2))
            tail = traj.thetas()[traj.times() >= 10.0]
            theta_dsmc, se = batch_mean_se(tail, n_batches=10)
            allowance = 0.02 * theta_grid + 4.0 * se
            assert abs(theta_dsmc - theta_grid) <= allowance, (
                e, m1, theta_dsmc, theta_grid, se,
            )
            lines.append(
                f"e={e} m1={m1}: grid {theta_grid:.4f} vs DSMC "
                f"{theta_dsmc:.4f} +- {se:.4f}"
            )
    # Uniqueness: the dense fixed-point iteration forgets its initial data.
    rest = RestitutionParams(epsilon=1.0, e=0.7, m1=0.5)
    grid = make_grid(rest, unit_bath(m1=0.5), n=16, extent_sigma=8.0)
    rng = np.random.default_rng(1207)
    f0_a = rng.random(grid.n_nodes)
    f0_b = np.exp(-np.sum((grid.nodes - 1.0) ** 2, axis=1))
    ss_a = steady_state(grid, f0=f0_a, tol=1e-12)
    ss_b = steady_state(grid, f0=f0_b, tol=1e-12)
    l1 = float(np.abs(ss_a.f - ss_b.f).sum()) * grid.cell_volume
    assert l1 <= 1e-8, l1
    print(
        "criterion  7 PASS  " + "; ".join(lines)
        + f"; uniqueness L1 {l1:.2e}"
    )


@pytest.mark.slow
def test_criterion_08_driven_steady_state(driven_runs):
    stats = []
    for traj in driven_runs:
        verdict = detect_steady(traj, u1=traj.config.bath.u1)
        assert verdict.steady, verdict
        tail = traj.thetas()[verdict.index :]
        theta_mean, theta_se = batch_mean_se(tail)
        assert theta_mean > 0.0
        stats.append((verdict.t_steady, theta_mean, theta_se))
    diff = abs(stats[0][1] - stats[1][1])
    sigma = math.hypot(stats[0][2], stats[1][2])
    assert diff <= 4.0 * sigma, (stats, diff, sigma)
    print(
        f"criterion  8 PASS  steady at t = {stats[0][0]:.1f} / {stats[1][0]:.1f}, "
        f"Theta {stats[0][1]:.5f} vs {stats[1][1]:.5f} "
        f"(diff {diff:.2e} <= 4 x {sigma:.2e})"
    )


def test_criterion_09_h_theorem():
    # The reference is the exact steady state, the gas Maxwellian at
    # (u1, theta_lin), averaged over the H box's cells.
    rest = RestitutionParams(epsilon=1.0, e=0.8, m1=1.0)
    bath = unit_bath()
    theta_lin = linear_steady(rest, bath)
    n = 200_000
    hot = np.random.default_rng(1109).standard_normal((n, 3)) * math.sqrt(1.5 * theta_lin)
    edges = box_edges(bath.u1, 0.9 * 8.0 * bath.sigma_th, 24)
    reference = maxwellian_cells(bath.u1, theta_lin, edges)
    observers = ObserverConfig(record_every=15, h_reference=(edges, reference))
    # The histogram and the reference are both cell averages, so the decay
    # runs down to the sampling noise: run on to t = 12, the steady H_quad
    # is -0.9e-5 with a record-to-record sd of 2.5e-4 over t in [6, 12].
    # The run ends while the signal is still several times that noise so
    # every smoothed step is genuine decay.
    config = SimConfig(
        tau=0.0, restitution=rest, bath=bath, dt=0.01, t_end=2.1,
        n_particles=n, seed=1009,
    )
    traj = run(config, observers=observers, init=hot)
    h = np.array([rec.h_quad for rec in traj.records])
    assert np.all(np.isfinite(h))
    smooth = np.convolve(h, np.ones(5) / 5.0, mode="valid")
    diffs = np.diff(smooth)
    frac = float(np.mean(diffs <= 0.0))
    assert frac >= 0.95, (frac, diffs)
    assert smooth[-1] < 0.05 * smooth[0], (smooth[0], smooth[-1])
    print(
        f"criterion  9 PASS  H_quad {smooth[0]:.4f} -> {smooth[-1]:.4f} "
        f"({smooth[-1] / smooth[0]:.2%} of initial), "
        f"{frac:.0%} of smoothed pairs non-increasing"
    )


def test_criterion_10_kernel_closed_form_vs_quadrature():
    rest = RestitutionParams(epsilon=1.0, e=0.8, m1=1.0)
    bath = BathParams(
        m1=1.0, u1=np.array([0.2, -0.1, 0.4]), theta1=1.3, lambda_=0.8
    )
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(100):
        v = bath.u1 + rng.standard_normal(3) * 2.0
        w = bath.u1 + rng.standard_normal(3) * 2.0
        closed = float(kernel_closed_form(v, w, rest, bath))
        quad = kernel_quadrature(v, w, rest, bath)
        worst = max(worst, abs(closed - quad) / max(abs(closed), 1e-300))
    assert worst <= 1e-8, worst
    print(f"criterion 10 PASS  kernel closed form vs quadrature, worst rel {worst:.2e}")


@pytest.mark.slow
def test_criterion_11_moment_propagation(driven_runs):
    traj = driven_runs[0]
    y3 = np.array([rec.y3 for rec in traj.records])
    assert np.all(np.isfinite(y3))
    half = y3.size // 2
    first_max = float(y3[:half].max())
    second_max = float(y3[half:].max())
    speeds6 = np.linalg.norm(traj.final.velocities, axis=1) ** 6
    se = float(speeds6.std(ddof=1) / math.sqrt(speeds6.size))
    assert second_max <= first_max + 4.0 * se, (first_max, second_max, se)
    print(
        f"criterion 11 PASS  Y3 max second half {second_max:.2f} <= "
        f"first half {first_max:.2f} + 4 x {se:.2f}"
    )


def test_criterion_12_reproducibility(tmp_path):
    config = {
        "mode": "full",
        "tau": 1.0,
        "epsilon": 0.8,
        "e": 0.8,
        "m1": 1.0,
        "theta1": 1.0,
        "lambda": 1.0,
        "dt": 0.01,
        "t_end": 2.0,
        "n_particles": 2000,
        "record_every": 5,
        "seed": 1012,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    outputs = []
    for sub in ("one", "two"):
        rc = main(["full", "--config", str(path), "--out", str(tmp_path / sub)])
        assert rc == 0
        outputs.append({
            name: (tmp_path / sub / name).read_bytes()
            for name in ("trajectory.csv", "bound_report.txt", "plot.gp")
        })
    assert outputs[0] == outputs[1]
    print("criterion 12 PASS  identical (config, seed) runs byte-identical")


def test_criterion_14_steady_state_independent_of_dt():
    # The unsplit step changes the one-particle density by dt (Q + L) f in
    # expectation, so its fixed point is the zero of Q + L for every dt.
    # Records every 0.06 time units at each dt, to t_end = 15.96, 266 record
    # spacings and a whole number of steps at every dt; theta_ss is the mean
    # over t in [6, 15.96] with a batch-means standard error.
    rest = RestitutionParams(epsilon=0.5, e=0.8, m1=1.0)
    stats = []
    for i, (dt, every) in enumerate(((0.03, 2), (0.015, 4), (0.0075, 8))):
        config = SimConfig(
            tau=1.0, restitution=rest, bath=unit_bath(), dt=dt, t_end=15.96,
            n_particles=40_000, seed=1014 + i,
        )
        traj = run(config, observers=ObserverConfig(record_every=every))
        tail = traj.thetas()[traj.times() >= 6.0 - 1e-9]
        stats.append((dt, *batch_mean_se(tail)))
    for a in range(len(stats)):
        for b in range(a + 1, len(stats)):
            diff = abs(stats[a][1] - stats[b][1])
            sigma = math.hypot(stats[a][2], stats[b][2])
            assert diff <= 3.0 * sigma, (stats[a], stats[b], diff, sigma)
    print(
        "criterion 14 PASS  Theta_ss "
        + ", ".join(f"{th:.4f} +- {se:.4f} (dt = {dt})" for dt, th, se in stats)
    )


def test_criterion_15_steady_state_at_large_dt():
    # A dt whose event probability reaches 1 runs as sub-steps, so the
    # default full physics runs at every dt to the same steady state.  At
    # N = 2e4 the whole step's probability is about 0.17 at dt = 0.01 and
    # 17 at dt = 1.  Records every 3 time units, the shortest spacing all
    # four dt share; theta_ss is the mean over t in [9, 39], one record per
    # batch.
    stats = []
    for i, dt in enumerate((0.01, 0.1, 0.3, 1.0)):
        config = SimConfig(
            tau=1.0, restitution=DRIVEN_REST, bath=unit_bath(), dt=dt, t_end=39.0,
            n_particles=20_000, seed=1022 + i,
        )
        traj = run(config, observers=ObserverConfig(record_every=round(3.0 / dt)))
        assert traj.final.t == pytest.approx(39.0, rel=1e-12)
        tail = traj.thetas()[traj.times() >= 9.0 - 1e-9]
        stats.append((dt, *batch_mean_se(tail, n_batches=tail.size)))
    _, ref, ref_se = stats[0]
    for dt, theta, se in stats[1:]:
        diff = abs(theta - ref)
        sigma = math.hypot(se, ref_se)
        assert diff <= 4.0 * sigma, (stats[0], (dt, theta, se), diff, sigma)
    print(
        "criterion 15 PASS  Theta_ss "
        + ", ".join(f"{th:.4f} +- {se:.4f} (dt = {dt})" for dt, th, se in stats)
    )
