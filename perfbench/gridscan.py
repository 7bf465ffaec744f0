"""One point of the kernel-grid scan, run in a fresh interpreter.

Usage: python3 gridscan.py NODES REPORT

Builds the linear-mode kernel grid (the CLI's default physics: e = 0.8,
m1 = theta1 = lambda = 1, u1 = 0, extent 8 thermal widths) with NODES nodes
per axis, solves for its steady state and writes a JSON object to REPORT:
build and solve seconds, iterations, the grid steady temperature and which
matrices the build kept.  Peak memory is read by the parent from wait4.
"""
from __future__ import annotations

import json
import sys
import time

import numpy as np

from granular_bath.background import BathParams
from granular_bath.carleman import make_grid, steady_state
from granular_bath.kinematics import RestitutionParams

EXTENT_SIGMA = 8.0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    n, report_path = int(argv[0]), argv[1]
    restitution = RestitutionParams(epsilon=1.0, e=0.8, m1=1.0)
    bath = BathParams(m1=1.0, u1=np.zeros(3), theta1=1.0, lambda_=1.0)
    t0 = time.perf_counter()
    grid = make_grid(restitution, bath, n=n, extent_sigma=EXTENT_SIGMA)
    t1 = time.perf_counter()
    steady = steady_state(grid)
    t2 = time.perf_counter()
    report = {
        "nodes": n,
        "make_grid_s": t1 - t0,
        "steady_state_s": t2 - t1,
        "iterations": int(steady.iterations),
        "theta": float(steady.theta),
        "theta1": bath.theta1,
        "matrices": [name for name in ("dense", "reduced")
                     if getattr(grid, name, None) is not None],
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
