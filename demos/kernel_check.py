"""Cross-validation of the scattering-kernel representations.

The gas-bath operator has a closed-form kernel k(v, w), a 2-D quadrature of
the same kernel built straight from the collision geometry, and a grid
assembly of the kernel; the linear problem has a closed-form steady state,
the gas Maxwellian at (u1, theta_lin).  This script checks them against each
other, each against a tolerance:

  1. closed form vs quadrature at 20 random velocity pairs: worst relative
     difference at most 1e-12;
  2. kernel columns of a 16^3 grid vs the collision frequency
     nu(w) = lambda^-1 |v - w| averaged over the bath (mass conservation of
     the grid operator): worst relative difference at most 1e-12;
  3. the 16^3 grid's steady state vs the closed form: theta within 1e-4
     relative of theta_lin, and node values within 1e-5 in L1 of the gas
     Maxwellian at (u1, theta_lin).

It exits 1 when any check misses its tolerance.  The particle side of the
linear problem is in demos/linear_equilibrium.py.

Usage:
    python3 demos/kernel_check.py
"""
import sys

import numpy as np

from granular_bath.background import BathParams, nu
from granular_bath.carleman import (
    closed_form_gap,
    dense_matrix,
    kernel_closed_form,
    kernel_quadrature,
    make_grid,
    steady_state,
)
from granular_bath.kinematics import RestitutionParams


def main() -> int:
    rest = RestitutionParams(epsilon=1.0, e=0.8, m1=1.0)
    bath = BathParams(m1=1.0, u1=np.zeros(3), theta1=1.0, lambda_=1.0)
    rng = np.random.default_rng(20260817)
    failed = []

    def check(name: str, value: float, tol: float) -> None:
        ok = value <= tol
        print(f"   {name}: {value:.2e} (tolerance {tol:.0e}) {'ok' if ok else 'FAILED'}")
        if not ok:
            failed.append(name)

    print("1) closed form vs 2-D quadrature at 20 random pairs")
    worst = 0.0
    for _ in range(20):
        v, w = rng.standard_normal((2, 3)) * 1.5
        closed = float(kernel_closed_form(v, w, rest, bath))
        quad = kernel_quadrature(v, w, rest, bath)
        worst = max(worst, abs(closed - quad) / abs(closed))
    check("worst relative difference", worst, 1e-12)

    print("2) grid columns vs collision frequency (16^3 nodes)")
    grid = make_grid(rest, bath, n=16, extent_sigma=8.0)
    gain_cols = dense_matrix(grid).sum(axis=0)  # entries already carry h^3
    nu_nodes = nu(bath, grid.nodes)
    # Zero: gain balances loss exactly, so the generator conserves mass.
    check("worst |gain column sum - nu| / nu",
          float(np.max(np.abs(gain_cols - nu_nodes) / nu_nodes)), 1e-12)

    print("3) grid steady state vs the closed form (16^3 nodes)")
    ss = steady_state(grid)
    theta_lin, l1 = closed_form_gap(grid, ss)
    print(f"   theta grid {ss.theta!r}, theta_lin {theta_lin!r}")
    check("|theta grid - theta_lin| / theta_lin", abs(ss.theta - theta_lin) / theta_lin, 1e-4)
    check("L1 distance to the gas Maxwellian", l1, 1e-5)

    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
