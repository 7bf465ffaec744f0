"""Kinetic solvers for a granular gas coupled to a particle thermal bath.

The package simulates the space-homogeneous evolution of a gas of inelastic
hard spheres that collide both with each other (rate ``tau``) and with the
particles of a fixed background bath.  Two complementary solvers are
provided: a direct simulation Monte Carlo particle scheme (`dsmc`) and a
deterministic velocity-grid discretization of the linear bath operator
(`carleman`), plus the moment/entropy diagnostics (`observables`) used to
compare them.
"""
from __future__ import annotations

from .background import BathParams, TabulatedDensity, abs_moment, c0, nu, sample_bath
from .carleman import KernelGrid, SteadyState, make_grid, steady_state
from .dsmc import Ensemble, SimConfig, detect_steady, run
from .kinematics import (
    RestitutionParams,
    VelocityPair,
    collide_l_n,
    collide_l_sigma,
    collide_q,
    energy_split_check,
    sphere_average_l,
    sphere_average_q,
)

__version__ = "0.1.0"

__all__ = [
    "BathParams",
    "TabulatedDensity",
    "abs_moment",
    "c0",
    "nu",
    "sample_bath",
    "KernelGrid",
    "SteadyState",
    "make_grid",
    "steady_state",
    "Ensemble",
    "SimConfig",
    "detect_steady",
    "run",
    "RestitutionParams",
    "VelocityPair",
    "collide_l_n",
    "collide_l_sigma",
    "collide_q",
    "energy_split_check",
    "sphere_average_l",
    "sphere_average_q",
    "__version__",
]
