"""Relaxation toward the bath-driven steady state, two ways at once.

With gas-gas collisions switched off (tau = 0) the dynamics is linear: each
particle scatters independently off a Maxwellian background.  This script

  1. builds the deterministic velocity-grid operator, power-iterates it to
     its steady density, and reports the steady temperature beside the
     closed form theta_lin = kappa theta1 / (m1 (1 - kappa)) of the exact
     steady state f1, the gas Maxwellian at (u1, theta_lin);
  2. runs the particle simulation from a deliberately hot start and shows
     its temperature relaxing onto theta_lin;
  3. tracks the quadratic divergence H(f | f1) = integral (f/f1 - 1)^2 f1 dv
     along the run, which should decay monotonically (up to noise) to zero.

In the elastic equal-mass case the steady state is exactly the bath
Maxwellian; run with --e 1.0 to see that, or keep the inelastic default to
see the gas settle strictly colder than the bath.

Usage:
    python3 demos/linear_equilibrium.py [--e 0.8] [--m1 1.0] [--n-particles N]
        [--nodes N] [--out DIR]
"""
import argparse
import dataclasses
import functools
import math
from pathlib import Path

import numpy as np

from granular_bath.background import BathParams, bath_density, linear_steady
from granular_bath.carleman import make_grid, steady_state, write_grid_csv
from granular_bath.dsmc import ObserverConfig, SimConfig, run
from granular_bath.kinematics import RestitutionParams
from granular_bath.observables import box_edges, reference_on_cells


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--e", type=float, default=0.8,
                        help="restitution coefficient of gas-bath collisions")
    parser.add_argument("--m1", type=float, default=1.0, help="bath-gas mass ratio")
    parser.add_argument("--n-particles", type=int, default=100_000)
    parser.add_argument("--nodes", type=int, default=32, help="grid nodes per axis")
    parser.add_argument("--out", type=Path, default=Path("out_linear"))
    args = parser.parse_args()

    rest = RestitutionParams(epsilon=1.0, e=args.e, m1=args.m1)
    bath = BathParams(m1=args.m1, u1=np.zeros(3), theta1=1.0, lambda_=1.0)

    print(f"assembling {args.nodes}^3 grid operator (e = {args.e}, "
          f"m1 = {args.m1}) ...")
    grid = make_grid(rest, bath, n=args.nodes, extent_sigma=8.0)
    ss = steady_state(grid)
    theta_lin = linear_steady(rest, bath)
    print(f"steady state after {ss.iterations} iterations "
          f"(residual {ss.residual:.2e}): Theta_grid = {ss.theta:.5f}, "
          f"theta_lin = {theta_lin:.5f}")
    if args.e == 1.0 and args.m1 == 1.0:
        dev = float(np.max(np.abs(ss.f - grid.maxwellian()) / grid.maxwellian()))
        print(f"elastic equal-mass check: worst nodewise deviation from the "
              f"bath Maxwellian = {dev:.2e}")

    gas = dataclasses.replace(bath, m1=1.0, theta1=theta_lin)
    reference = functools.partial(bath_density, gas)
    hot = np.random.default_rng(20260817).standard_normal(
        (args.n_particles, 3)
    ) * math.sqrt(1.5 * theta_lin)
    config = SimConfig(
        tau=0.0, restitution=rest, bath=bath, dt=0.01, t_end=5.0,
        n_particles=args.n_particles, seed=20260817,
    )
    edges = box_edges(bath.u1, 0.9 * 8.0 * bath.sigma_th, 24)
    observers = ObserverConfig(
        record_every=25, h_reference=(edges, reference_on_cells(reference, edges)),
    )
    print(f"particle run from a 1.5x-hot start, N = {args.n_particles} ...")
    traj = run(config, observers=observers, init=hot)
    for rec in traj.records[:: max(1, len(traj.records) // 8)]:
        print(f"  t = {rec.t:5.2f}   Theta = {rec.theta:.5f}   "
              f"H(f|f1) = {rec.h_quad:.5f}")
    print(f"final Theta = {traj.records[-1].theta:.5f} vs theta_lin "
          f"{theta_lin:.5f} (grid {ss.theta:.5f}); "
          f"final H = {traj.records[-1].h_quad:.2e}")

    args.out.mkdir(parents=True, exist_ok=True)
    traj.to_csv(args.out / "trajectory.csv")
    write_grid_csv(args.out / "steady_f1.csv", grid, ss.f)
    print(f"wrote {args.out / 'trajectory.csv'} and {args.out / 'steady_f1.csv'}")


if __name__ == "__main__":
    main()
