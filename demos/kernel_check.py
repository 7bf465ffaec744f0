"""Cross-validation of the scattering-kernel representations.

The gas-bath operator has three independent realizations in this package:
a closed-form kernel k(v, w), a 2-D quadrature of the same kernel built
straight from the collision geometry, and the stochastic particle sweep.
This script checks them against each other:

  1. closed form vs quadrature at random velocity pairs (should agree to
     near machine precision);
  2. kernel columns vs the collision frequency nu(w) = lambda^-1 |v - w|
     averaged over the bath (mass conservation of the grid operator);
  3. the assembled grid generator vs a short burst of particle dynamics
     started from the same density (rates of change of mass and energy).

Usage:
    python3 demos/kernel_check.py
"""
import numpy as np

from granular_bath.background import BathParams, nu
from granular_bath.carleman import (
    compare_dsmc,
    dense_matrix,
    kernel_closed_form,
    kernel_quadrature,
    make_grid,
    steady_state,
)
from granular_bath.kinematics import RestitutionParams


def main() -> None:
    rest = RestitutionParams(epsilon=1.0, e=0.8, m1=1.0)
    bath = BathParams(m1=1.0, u1=np.zeros(3), theta1=1.0, lambda_=1.0)
    rng = np.random.default_rng(20260817)

    print("1) closed form vs 2-D quadrature at 20 random pairs")
    worst = 0.0
    for _ in range(20):
        v, w = rng.standard_normal((2, 3)) * 1.5
        closed = float(kernel_closed_form(v, w, rest, bath))
        quad = kernel_quadrature(v, w, rest, bath)
        worst = max(worst, abs(closed - quad) / abs(closed))
    print(f"   worst relative difference: {worst:.2e}")

    print("2) grid columns vs collision frequency (16^3 nodes)")
    grid = make_grid(rest, bath, n=16, extent_sigma=8.0)
    gain_cols = dense_matrix(grid).sum(axis=0)  # entries already carry h^3
    nu_nodes = nu(bath, grid.nodes)
    print(f"   worst |gain column sum - nu| / nu: "
          f"{np.max(np.abs(gain_cols - nu_nodes) / nu_nodes):.2e}  "
          f"(zero = gain balances loss exactly, so the generator conserves "
          f"mass; the diagonal is renormalized to enforce it)")

    print("3) grid generator vs particle sweep on the steady density")
    ss = steady_state(grid)
    weights = ss.f * grid.cell_volume
    cells = rng.choice(grid.n_nodes, size=50_000, p=weights / weights.sum())
    sample = grid.nodes[cells].astype(float).copy()
    report = compare_dsmc(sample, grid, seed=20260817)
    print(f"   d Theta/dt: grid {report.theta_rate_grid:+.4f} vs particles "
          f"{report.theta_rate_dsmc:+.4f} +- {report.theta_rate_dsmc_se:.4f}")
    print(f"   d energy/dt: grid {report.energy_rate_grid:+.4f} vs "
          f"closed-form {report.energy_rate_analytic:+.4f} "
          f"+- {report.energy_rate_analytic_se:.4f}")
    print(f"   mass rates: grid {report.mass_rate_grid:+.2e}, particles "
          f"{report.mass_rate_dsmc:+.2e}")
    print(f"   L1 distance of the two one-step actions: "
          f"{report.l1_operator_distance:.3f} (lattice-resolution limited)")


if __name__ == "__main__":
    main()
