"""Free cooling of an inelastic gas and the algebraic decay of its temperature.

Runs the particle simulation with no background medium, so the only dynamics
is the inelastic pair-collision operator.  Granular temperature then decays
like Theta(t) = Theta_0 / (1 + t / t0)^2, and the script fits that exponent
from the recorded trajectory and prints the comparison.

Usage:
    python3 demos/cooling_haff.py [--n-particles 50000] [--t-end 60] [--out DIR]
"""
import argparse
from pathlib import Path

import numpy as np

from granular_bath.dsmc import ObserverConfig, SimConfig, run
from granular_bath.kinematics import RestitutionParams
from granular_bath.observables import FitRefusedError, haff_fit


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-particles", type=int, default=50_000)
    parser.add_argument("--epsilon", type=float, default=0.8,
                        help="restitution coefficient of gas-gas collisions")
    parser.add_argument("--t-end", type=float, default=80.0,
                        help="the exponent fit needs a >= 100x temperature "
                        "decay, i.e. t_end of roughly 70 or more")
    parser.add_argument("--out", type=Path, default=Path("out_cooling"))
    args = parser.parse_args()

    config = SimConfig(
        tau=1.0,
        restitution=RestitutionParams(epsilon=args.epsilon, e=1.0, m1=1.0),
        bath=None,
        dt=0.02,
        t_end=args.t_end,
        n_particles=args.n_particles,
        seed=20260817,
    )
    print(f"cooling run: N = {config.n_particles}, epsilon = {args.epsilon}, "
          f"t_end = {config.t_end}")
    traj = run(config, observers=ObserverConfig(record_every=10))
    print(f"executed {traj.collisions_q} collisions of "
          f"{traj.candidates_q} candidate pairs "
          f"(acceptance {traj.collisions_q / max(traj.candidates_q, 1):.1%})")

    t = traj.times()
    theta = traj.thetas()
    print(f"Theta: {theta[0]:.4f} -> {theta[-1]:.6f} "
          f"(decay factor {theta[0] / theta[-1]:.1f})")

    try:
        fit = haff_fit(t, theta)
    except FitRefusedError as exc:
        print(f"no exponent fit: {exc}")
    else:
        # 1 / (1 + t/t0)^2 in closed form, for the printed comparison
        expected_t0 = 2.0 / (0.271 * np.sqrt(theta[0]))
        print(f"fitted late-time exponent: {fit.exponent:.4f}  (algebraic "
              f"cooling predicts -2)")
        print(f"fitted onset time t0:      {fit.t0:.3f}  (moment closure "
              f"predicts ~{expected_t0:.3f} for a Gaussian start)")

    args.out.mkdir(parents=True, exist_ok=True)
    traj.to_csv(args.out / "trajectory.csv")
    print(f"wrote {args.out / 'trajectory.csv'}")


if __name__ == "__main__":
    main()
