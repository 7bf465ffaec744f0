"""Driven steady state of an inelastic gas coupled to a particle bath.

Runs the full dynamics -- inelastic gas-gas collisions plus inelastic
collisions against a Maxwellian background of independent scatterers -- and
checks two advertised behaviours on the recorded trajectory:

  * the auxiliary energy functional F = 3 Theta + |u - u1|^2 + 3 Theta1 / m1
    stays under its a-priori bound max{(gamma2/gamma1)^2, F(0)} at all
    recorded times, and
  * the run reaches a statistically steady state whose temperature sits
    strictly between 0 and the bath temperature (collisional dissipation
    keeps the gas colder than what drives it).

Usage:
    python3 demos/driven_bound.py [--n-particles 50000] [--out DIR]
"""
import argparse
from pathlib import Path

import numpy as np

from granular_bath.background import BathParams
from granular_bath.dsmc import ObserverConfig, SimConfig, detect_steady, run
from granular_bath.kinematics import RestitutionParams
from granular_bath.observables import bound_params, f_aux_stderr


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-particles", type=int, default=50_000)
    parser.add_argument("--t-end", type=float, default=40.0)
    parser.add_argument("--out", type=Path, default=Path("out_driven"))
    args = parser.parse_args()

    bath = BathParams(m1=1.0, u1=np.zeros(3), theta1=1.0, lambda_=1.0)
    config = SimConfig(
        tau=1.0,
        restitution=RestitutionParams(epsilon=0.8, e=0.8, m1=bath.m1),
        bath=bath,
        dt=0.02,
        t_end=args.t_end,
        n_particles=args.n_particles,
        seed=20260817,
    )
    print(f"driven run: N = {config.n_particles}, epsilon = e = 0.8, "
          f"bath Theta1 = {bath.theta1}")
    traj = run(config, observers=ObserverConfig(record_every=5))
    print(f"{traj.collisions_q} gas-gas and {traj.collisions_l} gas-bath "
          f"collisions, acceptance "
          f"{traj.collisions_q / max(traj.candidates_q, 1):.1%} / "
          f"{traj.collisions_l / max(traj.candidates_l, 1):.1%} of the candidates")

    bp = bound_params(config.restitution, bath, traj.records[0].f_aux)
    print(f"energy functional bound: max{{(gamma2/gamma1)^2, F(0)}} = "
          f"max{{{(bp.gamma2 / bp.gamma1) ** 2:.2f}, "
          f"{traj.records[0].f_aux:.2f}}} = {bp.bound:.2f}")
    shift = 3.0 * bath.theta1 / bath.m1
    worst = max(
        (rec.f_aux - shift)
        - 4.0 * f_aux_stderr(rec, bath, config.n_particles)
        for rec in traj.records
    )
    status = "holds" if worst <= bp.bound else "VIOLATED"
    print(f"largest recorded 3 Theta + |u - u1|^2 (less 4 sigma): "
          f"{worst:.3f} -> bound {status}")

    verdict = detect_steady(traj, u1=bath.u1)
    if verdict.steady:
        tail = traj.thetas()[verdict.index:]
        print(f"steady from t = {verdict.t_steady:.1f}; "
              f"Theta_steady = {tail.mean():.4f} "
              f"(0 < Theta < Theta1 = {bath.theta1})")
    else:
        print("no steady window detected -- try a longer run")

    args.out.mkdir(parents=True, exist_ok=True)
    traj.to_csv(args.out / "trajectory.csv")
    print(f"wrote {args.out / 'trajectory.csv'}")


if __name__ == "__main__":
    main()
