"""Helpers shared by the test modules."""
import tracemalloc

import numpy as np

from granular_bath import dsmc
from granular_bath.background import BathParams, TabulatedDensity, nu
from granular_bath.kinematics import _sq_norm
from granular_bath.observables import DEFAULT_SIGMA_PAIRS


def skewed_table_bath(lam=1.0, m1=1.0):
    """An anisotropic, off-centre tabulated bath on 9^3 cells of width 0.5."""
    ax = np.linspace(-2.0, 2.0, 9)
    g = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1)
    values = np.exp(-0.5 * np.sum((g - [0.4, -0.3, 0.1]) ** 2 / [0.5, 1.0, 0.3], axis=-1))
    values *= 1.0 + 0.5 * np.tanh(g[..., 0])
    table = TabulatedDensity(axes=(ax, ax, ax), values=values)
    return BathParams(m1=m1, u1=np.zeros(3), theta1=1.0, lambda_=lam, table=table)


def drawn_sweep(sweep, velocities, dt, *args, rng):
    """``sweep`` (``dsmc.step_q`` or ``dsmc.step_l``) on the candidates that
    ``run`` draws, ``dsmc._candidates``, at the sweep's own event probability
    (tau q_max dt or l_max dt / lambda) and none for the other sweep, with a
    fresh |v - c|^2 cache: about ``bath.u1`` for ``step_l``, about the
    origin for ``step_q``.  The cache draws nothing and changes no output.

    ``args`` are the sweep's arguments between ``dt`` and ``rng``: (tau,
    restitution, q_max) or (restitution, bath, l_max).
    """
    if sweep is dsmc.step_q:
        tau, _, q_max = args
        p_q, p_l = tau * q_max * dt, 0.0
        centre = np.zeros(3)
        extra = (centre,)
    else:
        _, bath, l_max = args
        p_q, p_l = 0.0, l_max * dt / bath.lambda_
        centre, extra = bath.u1, ()
    _, candidates = dsmc._candidates(rng, velocities.shape[0], p_q, p_l)
    return sweep(velocities, dt, *args, rng, candidates, _sq_norm(velocities, centre), *extra)


def traced_peak(fn, *args, **kwargs) -> int:
    """Bytes that ``fn(*args, **kwargs)`` holds at its traced high-water mark.

    numpy reports its buffers to tracemalloc, so the count repeats exactly.
    The memory traced before the call is subtracted; the result is not kept.
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def sigma_shift_form(vel, bath, tau):
    """``sigma_freq`` from whole rows: each of its shifts s (every shift up
    to N = 363) pairs the rows with ``np.roll(vel, -s, axis=0)``, and
    ``einsum`` forms the squared distances.  The per-shift sums are added in
    shift order, so the column- and block-wise kernel must match this bit
    for bit while N fits one block.
    """
    n = vel.shape[0]
    total = 0.0
    if tau > 0.0:
        k = min(-(-DEFAULT_SIGMA_PAIRS // n), n - 1)
        shifts = np.random.default_rng(0).choice(n - 1, size=k, replace=False) + 1
        acc = 0.0
        for s in shifts:
            d = vel - np.roll(vel, -s, axis=0)
            acc += float(np.sum(np.sqrt(np.einsum("ij,ij->i", d, d))))
        total += tau * ((n - 1) / n * (acc / (k * n)))
    if bath is not None:
        total += float(np.mean(nu(bath, vel)))
    return total


def third_cumulant(velocities):
    """Per-component third central moment E (v_c - u_c)^3 (vector of 3)."""
    vel = np.asarray(velocities, dtype=float)
    centered = vel - vel.mean(axis=0)
    return np.mean(centered**3, axis=0)
