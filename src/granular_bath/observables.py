"""Moment, norm, entropy, and bound diagnostics for particle ensembles.

Everything here is a pure function of an immutable velocity sample (an
(N, 3) array of equal-weight particles) plus bath/restitution parameters.
The analytic-bound calculators implement the explicit temperature bound

    sup_t ( 3 Theta(t) + |u(t) - u1|^2 ) <= max{ (gamma2/gamma1)^2, F(0) },

with gamma1 = 2 kappa (1-kappa)/lambda and gamma2 = 2 C0 kappa / lambda.
"""
from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .background import _PARTICLE_BLOCK, BathParams, NumericalFault, _nu_of_rho, c0, sample_bath
from .kinematics import RestitutionParams, _sq_norm

__all__ = [
    "MomentRecord",
    "BoundParams",
    "HaffFit",
    "DegenerateParameterError",
    "FitRefusedError",
    "moments",
    "f_aux",
    "f_aux_stderr",
    "bound_excess",
    "bound_params",
    "Histogram",
    "thermal_extent",
    "bin_counts",
    "histogram",
    "box_edges",
    "maxwellian_cells",
    "lp_norm",
    "h_phi",
    "haff_fit",
    "sigma_freq",
    "write_records",
    "read_records",
    "CSV_COLUMNS",
]

Array = np.ndarray

DEFAULT_SIGMA_PAIRS = 2**17
BOUND_SIGMAS = 4.0  # Monte Carlo allowance of the bound check, in SEs of F

# The trajectory CSV's columns and the MomentRecord field each one holds; the
# three u columns hold the components of u.  Writer and reader both use it.
_COLUMN_FIELDS = (
    ("t", "t"), ("rho", "rho"), ("ux", "u"), ("uy", "u"), ("uz", "u"),
    ("theta", "theta"), ("F", "f_aux"),
    ("Y1", "y1"), ("Y1.5", "y1_5"), ("Y2", "y2"), ("Y3", "y3"),
    ("L2", "l2"), ("Lp", "lp"), ("Hquad", "h_quad"), ("Hent", "h_ent"),
    ("sigma", "sigma_mean"),
)
CSV_COLUMNS = tuple(column for column, _ in _COLUMN_FIELDS)
_RECORD_FIELDS = tuple(dict.fromkeys(field for _, field in _COLUMN_FIELDS))


class DegenerateParameterError(ValueError):
    """Raised when bound parameters degenerate (kappa in {0, 1} or C0 = 0)."""


class FitRefusedError(ValueError):
    """Raised when a trajectory does not qualify for the requested fit."""


@dataclass(frozen=True)
class MomentRecord:
    """One observation of the ensemble, one field per trajectory CSV column.

    ``y1``, ``y1_5``, ``y2`` and ``y3`` are Y_r = mean |v|^(2r) for
    r = 1, 1.5, 2, 3; ``l2`` and ``lp`` are histogram estimates of the L^2
    and L^1.5 norms; ``h_quad`` (with the multinomial bias correction of
    :func:`h_phi`) and ``h_ent`` are the H-functionals against a reference
    density.  Diagnostics that were not computed stay NaN.
    """

    t: float
    rho: float
    u: Array
    theta: float
    f_aux: float = math.nan
    y1: float = math.nan
    y1_5: float = math.nan
    y2: float = math.nan
    y3: float = math.nan
    l2: float = math.nan
    lp: float = math.nan
    h_quad: float = math.nan
    h_ent: float = math.nan
    sigma_mean: float = math.nan

    def __post_init__(self) -> None:
        if abs(self.rho - 1.0) > 1e-12:
            raise ValueError(f"mass must be 1 within 1e-12, got {self.rho!r}")
        if self.theta < 0.0:
            raise ValueError(f"temperature must be >= 0, got {self.theta!r}")


@dataclass(frozen=True)
class BoundParams:
    """Rates gamma1, gamma2 and the explicit sup-bound on 3 Theta + |u - u1|^2."""

    gamma1: float
    gamma2: float
    bound: float

    def __post_init__(self) -> None:
        if not self.gamma1 > 0.0:
            raise ValueError(f"gamma1 must be positive, got {self.gamma1}")
        if not self.gamma2 > 0.0:
            raise ValueError(f"gamma2 must be positive, got {self.gamma2}")


def moments(velocities: Array, t: float = 0.0) -> MomentRecord:
    """Empirical mass, bulk velocity, temperature, and origin moments Y_r.

    u is the mean velocity, each component the pairwise ``np.sum`` of its
    column divided by N; Theta = (1/3) mean |v - u|^2; Y_r = mean |v|^(2r) for
    r = 1, 1.5, 2, 3, formed from |v|^2 by products and one square root;
    rho is accumulated from the 1/N particle weights (so the recorded value
    carries honest accumulation rounding).  Theta, the Y_r and rho are sums
    over blocks of ``_PARTICLE_BLOCK`` rows, so no temporary grows with N;
    while N fits one block they are the bits of one sum over all rows.
    """
    vel = np.asarray(velocities, dtype=float)
    if vel.ndim != 2 or vel.shape[1] != 3 or vel.shape[0] < 2:
        raise ValueError(f"velocities must be (N >= 2, 3), got shape {vel.shape}")
    n = vel.shape[0]
    u = np.array([np.sum(vel[:, c]) for c in range(3)]) / n
    sums = np.zeros(6)  # rho, 3 N Theta, N Y1, N Y1.5, N Y2, N Y3
    for lo in range(0, n, _PARTICLE_BLOCK):
        block = vel[lo : lo + _PARTICLE_BLOCK]
        dev = np.empty_like(block)
        for i in range(3):
            np.subtract(block[:, i], u[i], out=dev[:, i])
        dev *= dev
        sums[1] += np.sum(dev)
        del dev
        sums[0] += np.sum(np.full(block.shape[0], 1.0 / n))
        s2 = _sq_norm(block)
        s4 = s2 * s2
        sums[2:] += (np.sum(s2), np.sum(s2 * np.sqrt(s2)), np.sum(s4), np.sum(s4 * s2))
    rho, dev2, y1, y1_5, y2, y3 = sums.tolist()
    return MomentRecord(
        t=float(t), rho=rho, u=u, theta=dev2 / (3.0 * n),
        y1=y1 / n, y1_5=y1_5 / n, y2=y2 / n, y3=y3 / n,
    )


def f_aux(record: MomentRecord, bath: BathParams, d2: Array) -> float:
    """The driven-temperature functional F = 3 Theta + |u - u1|^2 + 3 Theta1/m1.

    ``d2`` holds |v - u1|^2 for each particle of the sample that ``record``
    describes: the |v - c|^2 cache of :func:`~granular_bath.dsmc.run`, whose
    centre is u1 when there is a bath.  The direct empirical form
    mean(d2) + 3 Theta1/m1 must agree with the moment form within 1e-10
    (they are algebraically identical), so a record that does not belong to
    the sample, or a stale cache, raises RuntimeError.
    """
    shift = 3.0 * bath.theta1 / bath.m1
    value = 3.0 * record.theta + float(np.sum((record.u - bath.u1) ** 2)) + shift
    direct = float(np.mean(d2)) + shift
    if abs(direct - value) > 1e-10 * max(1.0, abs(value)):
        raise RuntimeError(
            f"moment and direct forms of F disagree: {value!r} vs {direct!r}"
        )
    return value


def f_aux_stderr(record: MomentRecord, bath: BathParams, n_particles: int) -> float:
    """Gaussian-proxy Monte Carlo standard error of F on an N-particle sample.

    F is the sample mean of |v - u1|^2 (plus a constant), whose variance for
    a Gaussian ensemble at (u, Theta) is 6 Theta^2 + 4 Theta |u - u1|^2; the
    proxy is exact in equilibrium and adequate for banding elsewhere.
    """
    if n_particles < 2:
        raise ValueError(f"need at least 2 particles, got {n_particles}")
    du2 = float(np.sum((record.u - bath.u1) ** 2))
    var = 6.0 * record.theta**2 + 4.0 * record.theta * du2
    return math.sqrt(var / n_particles)


def bound_excess(
    records: Sequence[MomentRecord], bath: BathParams, bound: float, n_particles: int
) -> tuple[float, float]:
    """Largest (F - 3 Theta1/m1) - (bound + BOUND_SIGMAS SE of F) over ``records``
    and the first time it is reached; the bound holds when it is <= 0."""
    shift = 3.0 * bath.theta1 / bath.m1
    worst, t_worst = -math.inf, 0.0
    for rec in records:
        excess = (rec.f_aux - shift) - (bound + BOUND_SIGMAS * f_aux_stderr(rec, bath, n_particles))
        if excess > worst:
            worst, t_worst = excess, rec.t
    return worst, t_worst


def bound_params(restitution: RestitutionParams, bath: BathParams, f0: float) -> BoundParams:
    """Rates and the explicit sup bound max{(gamma2/gamma1)^2, F(0)}."""
    kappa = restitution.kappa
    if min(kappa, 1.0 - kappa) < 1e-14:
        raise DegenerateParameterError(
            f"temperature bound degenerates for kappa in {{0, 1}}; got kappa = {kappa}"
        )
    c0_value = c0(bath)
    if c0_value <= 0.0:
        raise DegenerateParameterError("bath with zero spread gives gamma2 = 0")
    gamma1 = 2.0 * kappa * (1.0 - kappa) / bath.lambda_
    gamma2 = 2.0 * c0_value * kappa / bath.lambda_
    return BoundParams(gamma1=gamma1, gamma2=gamma2, bound=max((gamma2 / gamma1) ** 2, f0))


def thermal_extent(theta: float) -> float:
    """Half-width of the records' L^p histogram box about u: 6 thermal widths."""
    return 6.0 * math.sqrt(max(theta, np.finfo(float).tiny))


def box_edges(center: Array, extent: float, bins: int) -> tuple[Array, Array, Array]:
    """Per-axis edges of ``bins`` cells spanning ``center +- extent``.

    Raises ValueError when the box collapses at float precision: an axis
    whose edges do not strictly increase (an extent below a few ulp of
    the centre), or a cell volume below the smallest normal float, where
    the densities 1/(N vol) would overflow.
    """
    center = np.asarray(center, dtype=float).reshape(3)
    edges = tuple(np.linspace(c - extent, c + extent, bins + 1) for c in center)
    if not all(np.all(np.diff(e) > 0.0) for e in edges):
        raise ValueError(f"edges of extent {extent!r} about {center} do not strictly increase")
    if not _cell_volume(edges) >= np.finfo(float).tiny:
        raise ValueError(f"cells of extent {extent!r} / {bins} underflow the float range")
    return edges


def _cell_volume(edges: Sequence[Array]) -> float:
    return float(np.prod([e[1] - e[0] for e in edges]))


# Distance from a cell edge, in cell widths, within which bin_counts places a
# point by searchsorted against the edges themselves, not by arithmetic.
_EDGE_MARGIN = 1e-9


def bin_counts(velocities: Array, edges: Sequence[Array]) -> Array:
    """Counts of an (N, 3) sample in the cells between per-axis ``edges``,
    equal to ``np.histogramdd``'s: a point lies in cell i when e[i] <= x <
    e[i + 1], x == e[-1] lies in the last cell, and a point outside the box
    or not finite is dropped.

    Per axis, t = (x - e[0]) bins / (e[-1] - e[0]) and the cell is floor(t),
    with no per-point gather of the edges.  Only the points with t within
    1e-9 of an integer, the ones on or next to an edge, and those with t NaN
    are placed by ``np.searchsorted(e, x, side="right") - 1``, histogramdd's
    rule.  The computed t is monotone in x, so floor(t) is the exact cell
    of every other point as long as each edge's own t lies within a tenth
    of that margin of its index: true for edges uniform up to rounding
    (inside the box t <= bins, whose rounding is a few ulp of bins).  An
    axis whose edges are further off places every point by searchsorted.
    Cells -1 and bins of each axis take the points outside the box, and an
    infinite t lands there too.  The sample is counted in blocks of
    ``_PARTICLE_BLOCK`` rows, one ``bincount`` each into these padded
    cells, and the buffers are reused between blocks.
    """
    vel = np.asarray(velocities, dtype=float)
    n = vel.shape[0]
    bins = [e.size - 1 for e in edges]
    scales = [b / (e[-1] - e[0]) for b, e in zip(bins, edges)]
    uniform = [
        float(np.max(np.abs((e - e[0]) * s - np.arange(e.size)))) < 0.1 * _EDGE_MARGIN
        for e, s in zip(edges, scales)
    ]
    padded = [b + 2 for b in bins]
    # Flat index of the padded cell (1, ..., 1): the offset of cell -1 on every axis.
    offset = sum(math.prod(padded[d + 1 :]) for d in range(len(padded)))
    rows = min(max(n, 1), _PARTICLE_BLOCK)
    t, cell, flat = np.empty((3, rows))
    on_edge = np.empty(rows, dtype=bool)
    counts = None
    with np.errstate(over="ignore"):  # t of a huge x: inf, which lands outside
        for lo in range(0, max(n, 1), _PARTICLE_BLOCK):  # N = 0: one empty block
            block = vel[lo : lo + _PARTICLE_BLOCK]
            m = block.shape[0]
            tb, cb, fb, eb = t[:m], cell[:m], flat[:m], on_edge[:m]
            for d, e in enumerate(edges):
                x = block[:, d]
                np.subtract(x, e[0], out=tb)
                tb *= scales[d]
                # floor(t + margin) is the cell unless floor(t - margin)
                # differs: t within the margin of an integer, or NaN.
                np.add(tb, _EDGE_MARGIN, out=cb)
                np.floor(cb, out=cb)
                tb -= _EDGE_MARGIN
                np.floor(tb, out=tb)
                np.not_equal(cb, tb, out=eb)
                near = np.flatnonzero(eb) if uniform[d] else slice(None)
                xn = x[near]
                i = np.searchsorted(e, xn, side="right") - 1.0
                i[xn == e[-1]] = bins[d] - 1
                cb[near] = i
                np.clip(cb, -1.0, bins[d], out=cb)  # -1 and bins: outside the box
                if d == 0:
                    fb[...] = cb
                else:
                    fb *= padded[d]
                    fb += cb
            fb += offset
            index = tb.view(np.intp)
            np.copyto(index, fb, casting="unsafe")
            block_counts = np.bincount(index, minlength=math.prod(padded))
            if counts is None:
                counts = block_counts
            else:
                counts += block_counts
                del block_counts  # not held while the next block counts
    return counts.reshape(padded)[tuple(slice(1, -1) for _ in bins)]


@dataclass(frozen=True)
class Histogram:
    """Histogram density estimate of an N-particle sample on a regular box.

    ``density`` = counts / (N * cell volume) on the cells between ``edges``.
    Particles outside the box are dropped (estimator restriction: the box
    must be chosen wide enough that the lost mass is negligible).  One
    histogram serves every estimate taken from it: :func:`lp_norm` at
    several orders, :func:`h_phi` for both H-functionals.
    """

    density: Array
    edges: tuple[Array, Array, Array]
    n: int

    @property
    def cell_volume(self) -> float:
        return _cell_volume(self.edges)


def histogram(velocities: Array, edges: tuple[Array, Array, Array]) -> Histogram:
    """Histogram of a sample on the cells between ``edges`` (:func:`box_edges`)."""
    vel = np.asarray(velocities, dtype=float)
    counts = bin_counts(vel, edges)
    n = vel.shape[0]
    return Histogram(density=counts / (n * _cell_volume(edges)), edges=edges, n=n)


def maxwellian_cells(center: Array, theta: float, edges: Sequence[Array]) -> Array:
    """Exact cell averages of the unit-mass Maxwellian with mean ``center``
    and variance ``theta`` per axis on the cells between ``edges``, for
    :func:`h_phi`.  Per axis, with q = erfc(|e - c| / sqrt(2 theta)) at each
    edge, a cell's mass is |q_lo - q_hi| / 2, or 1 - (q_lo + q_hi) / 2 for the
    cell that holds c, so no two numbers near 1 are subtracted; the density
    is the outer product of the axes' masses over the cell volume."""
    scale = math.sqrt(2.0 * theta)
    masses = []
    for c, e in zip(center, edges):
        q = np.array([math.erfc(abs(x - c) / scale) for x in e.tolist()])
        inside = (e[:-1] < c) & (c < e[1:])
        masses.append(np.where(inside, 1.0 - 0.5 * (q[:-1] + q[1:]), 0.5 * np.abs(np.diff(q))))
    mx, my, mz = masses
    return np.multiply.outer(np.multiply.outer(mx, my), mz) / _cell_volume(edges)


def lp_norm(hist: Histogram, p: float) -> float:
    """Histogram estimate of the L^p norm (sum f^p * cellvol)^(1/p), p > 1;
    NaN for an empty histogram.  Only the occupied cells are raised to the
    power p; the sum is that of ``density**p`` to the bit."""
    if not (p > 1.0 and math.isfinite(p)):
        raise ValueError(f"p must lie in (1, inf), got {p}")
    density, vol = hist.density, hist.cell_volume
    if density.sum() * vol <= 0.0:
        return math.nan
    occ, powed = density > 0.0, np.zeros_like(density)
    with np.errstate(over="ignore"):
        np.power(density, p, out=powed, where=occ)
        norm = float(np.sum(powed) * vol) ** (1.0 / p)
    if not math.isfinite(norm):  # density**p overflows about a near point mass
        peak = float(density.max())
        np.power(density / peak, p, out=powed, where=occ)
        norm = peak * float(np.sum(powed) * vol) ** (1.0 / p)
    return norm


def h_phi(hist: Histogram, reference: Array) -> tuple[float, float]:
    """Histogram estimates (H_quad, H_ent) of the convex functionals H_Phi(f | F).

    H_Phi = sum over cells of vol * F * Phi(fhat / F), for the quadratic
    Phi(x) = (x - 1)^2 and the entropy Phi(x) = x log x - x + 1.  The
    entropy form is x log x less its tangent at 1: equal to bare x log x
    when sample and reference carry equal mass, but pointwise nonnegative,
    so histogram truncation (masses differing at the 1e-3 level) cannot
    push it below zero.  ``reference`` holds the reference's cell averages
    on the cells of ``hist``, as fhat does (:func:`maxwellian_cells`).
    Cells where fhat > 0 but the reference vanishes raise
    NumericalFault.  Empty cells contribute vol * F * Phi(0) = vol * F
    to both.  One pass serves both: the cell masks, x = fhat / F and the
    empty cells' mass are formed once.

    H_quad is bias-corrected: it subtracts the plug-in estimate of the
    multinomial sampling bias (1/N) sum fhat (1 - fhat vol) / F, whose
    magnitude is roughly (cells in the box)/N (0.055 for 200 000 samples
    of the reference on 24^3 cells), so it can go slightly negative when
    the true H is below the noise floor.  Both sums before that
    correction are nonnegative, and one below -1e-9 (arithmetic error, not
    sampling) raises RuntimeError.
    """
    density, vol = hist.density, hist.cell_volume
    ref = np.asarray(reference, dtype=float)
    if ref.shape != density.shape:
        raise ValueError(
            f"reference shape {ref.shape} does not match histogram {density.shape}"
        )
    filled = density > 0.0
    bad = filled & (ref <= 0.0)
    if np.any(bad):
        raise NumericalFault(
            f"reference density vanishes on {int(np.count_nonzero(bad))} occupied cells"
        )
    pos = ref > 0.0
    occupied = pos & filled
    f, r = density[occupied], ref[occupied]
    x = f / r
    missing = float(np.sum(ref[pos & (density == 0.0)]) * vol)
    h_quad = float(np.sum(r * (x - 1.0) ** 2) * vol) + missing
    h_ent = float(np.sum(r * (x * np.log(x) - x + 1.0)) * vol) + missing
    for name, value in (("quad", h_quad), ("ent", h_ent)):
        if value < -1e-9 * max(1.0, abs(value)):
            raise RuntimeError(f"convexity violated by H_{name} = {value!r} (estimator bug)")
    return h_quad - float(np.sum(f * (1.0 - f * vol) / r) / hist.n), h_ent


@dataclass(frozen=True)
class HaffFit:
    """Algebraic-cooling fit Theta(t) = Theta0 (1 + t/t0)^exponent."""

    exponent: float
    t0: float
    residual: float


def haff_fit(times: Array, thetas: Array) -> HaffFit:
    """Least-squares fit of algebraic cooling; refuses shallow decays.

    Fits log(Theta/Theta(0)) = g * log1p(t/t0) with Theta(0) pinned to the
    first record; needs two decades of decay so g is identifiable.  For a
    fixed t0 the model is linear in g, so g has a closed form (variable
    projection, Golub & Pereyra 1973), and a golden-section search over
    log t0 on [log(first positive t) - 5, log(last t) + 5] minimises what
    is left.  Fewer than 4 records, or a minimum at an end of that bracket,
    raise FitRefusedError.
    """
    t = np.asarray(times, dtype=float)
    th = np.asarray(thetas, dtype=float)
    if t.shape != th.shape or t.ndim != 1:
        raise ValueError("times and thetas must be equal-length 1-D arrays")
    if t.size < 4:
        raise FitRefusedError(f"{t.size} records; need >= 4 for a fit")
    if not (np.all(np.isfinite(t)) and t[0] >= 0.0 and np.all(np.diff(t) > 0.0)):
        raise ValueError("times must be finite, start at t >= 0 and strictly increase")
    if not np.all((th > 0.0) & np.isfinite(th)):
        raise ValueError("temperatures must be positive and finite for a cooling fit")
    decay = float(th[0] / th.min())
    if decay < 100.0:
        raise FitRefusedError(
            f"temperature decays by {decay:.3g}x; need >= 100x (two decades) for a fit"
        )
    y = np.log(th / th[0])

    def project(log_t0: float) -> tuple[float, float, Array]:  # (rss, g, residuals)
        x = np.log1p(t / math.exp(log_t0))
        g = float(np.dot(x, y) / np.dot(x, x))
        r = g * x - y
        return float(np.dot(r, r)), g, r

    lo, hi = a, b = math.log(t[t > 0.0][0]) - 5.0, math.log(t[-1]) + 5.0
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    while b - a > 1e-10:
        c, d = b - shrink * (b - a), a + shrink * (b - a)
        if project(c)[0] <= project(d)[0]:
            b = d
        else:
            a = c
    if a == lo or b == hi:
        raise FitRefusedError(f"best t0 at an end of [{math.exp(lo):.3g}, {math.exp(hi):.3g}]")
    _, g, r = project(0.5 * (a + b))
    return HaffFit(exponent=g, t0=math.exp(0.5 * (a + b)), residual=float(np.sqrt(np.mean(r * r))))


def _shift_mean(vel: Array, shifts: Sequence[int], w: Array) -> float:
    """Mean of |v_k - w_{(k + s) mod M}| over all k and the given shifts s,
    for M partners ``w`` (``vel`` itself for the gas pairs).

    One velocity column at a time, in blocks of ``_PARTICLE_BLOCK`` rows, or
    of rows of M particles while M is smaller (N a multiple of M if N > M):
    a block's partners are two contiguous slices, so nothing is gathered.
    The squares are summed (d0^2 + d2^2) + d1^2, the order of
    ``einsum("ij,ij->i", d, d)`` on whole rows, and each block's distances
    are summed by ``np.sum``.
    """
    n, m = vel.shape[0], w.shape[0]
    width = min(m, _PARTICLE_BLOCK)
    step = max(1, _PARTICLE_BLOCK // m) * width
    sq, d = np.empty((2, min(n, step)))
    total = 0.0
    for s in shifts:
        for lo in range(0, n, step):
            rows = min(step, n - lo)
            cols = min(rows, width)
            start = (lo + s) % m
            mid = min(cols, m - start)  # partners wrap to the front from here
            acc, tmp = sq[:rows].reshape(-1, cols), d[:rows].reshape(-1, cols)
            for c, out in ((0, acc), (2, tmp), (1, tmp)):
                col = vel[lo : lo + rows, c].reshape(-1, cols)
                np.subtract(col[:, :mid], w[start : start + mid, c], out=out[:, :mid])
                np.subtract(col[:, mid:], w[: cols - mid, c], out=out[:, mid:])
                out *= out
                if out is tmp:
                    acc += tmp
            total += float(np.sum(np.sqrt(sq[:rows], out=sq[:rows])))
    return total / (len(shifts) * n)


@functools.lru_cache(maxsize=8)
def _pair_shifts(n: int) -> tuple[int, ...]:
    """The cyclic shifts of :func:`sigma_freq`'s pair term for N = n > 1:
    K = min(ceil(DEFAULT_SIGMA_PAIRS / n), n - 1) distinct shifts in 1..n-1
    drawn by ``default_rng(0)``, the same at every record of n particles and
    so drawn once per n."""
    k = min(-(-DEFAULT_SIGMA_PAIRS // n), n - 1)
    return tuple((np.random.default_rng(0).choice(n - 1, size=k, replace=False) + 1).tolist())


def sigma_freq(
    velocities: Array, bath: BathParams | None, tau: float, d2: Array | None = None
) -> float:
    """Mean over the particles of the total collision frequency Sigma(f)(v).

    Sigma(f)(v) = tau * (|.| convolved with f)(v) + nu(v).  The convolution
    term is the mean of |v_i - v_j| over the N (N - 1) ordered distinct
    pairs, the pair law of ``dsmc.run`` at every N, formed from cyclic
    shifts: the pairs (k, (k + s) mod N) for every k and for
    K = min(ceil(DEFAULT_SIGMA_PAIRS / N), N - 1) distinct shifts s in
    1..N-1, drawn by ``default_rng(0)`` once per N and so the same at every
    record of N particles.  Each ordered pair i != j has exactly one shift,
    s = j - i mod N, so the mean over the K N sampled distances is unbiased
    for the distinct-pair mean.  Up to N = 363, K = N - 1 takes every shift,
    and the term is that exact mean, with no N x N temporary.  One particle
    has no pair, and its term is 0.  Every particle enters 2K times, a
    balanced design (Hoeffding, Ann. Math. Statist. 19, 1948), so the
    linear term of the Hoeffding decomposition cancels from the sampling
    error: at N = 3000 its spread was 0.68 times the
    sd(|v - w|) / sqrt(DEFAULT_SIGMA_PAIRS) of as many independent pairs.
    A Maxwellian bath's nu term is the mean of
    :func:`~granular_bath.background.nu` over all N velocities: the sum
    over blocks of ``_PARTICLE_BLOCK`` rows of each block's ``np.sum``,
    divided by N, which is ``np.mean`` to the bit while N fits one block.
    A table's is the mean of |v_k - W_j| / lambda over at least
    DEFAULT_SIGMA_PAIRS (particle, draw) pairs, every particle in as many:
    W is M = ``_PARTICLE_BLOCK`` draws of the sweep's cell law by
    :func:`~granular_bath.background.sample_bath` and ``default_rng(0)``,
    the same at every call.  From N = M on, particle k meets W_{(k + s) mod M}
    for s < r = ceil(DEFAULT_SIGMA_PAIRS / N); below, K = ceil(r / floor(M /
    N)) shifts pair the first R N draws j, R = ceil(r / K), with the
    particles (j + s) mod N.

    ``d2``, when given, holds |v - u1|^2 for every particle, as ``_sq_norm``
    forms it: the |v - c|^2 cache of ``dsmc.run``, whose centre is u1 when
    there is a bath.  A Maxwellian bath's nu term then takes rho =
    sqrt(d2) / s from it and reads no velocity, with the bits of the
    velocity form; without a Maxwellian bath ``d2`` is not read.
    """
    vel = np.asarray(velocities, dtype=float)
    n = vel.shape[0]
    total = 0.0
    if tau > 0.0 and n > 1:
        total += tau * _shift_mean(vel, _pair_shifts(n), vel)
    if bath is not None and bath.table is not None:
        m, r = _PARTICLE_BLOCK, -(-DEFAULT_SIGMA_PAIRS // n)
        draws = sample_bath(bath, m, np.random.default_rng(0))
        k = -(-r // max(m // n, 1))  # shifts; r of them from N = M on
        x, w = (vel, draws) if n >= m else (draws[: -(-r // k) * n], vel)
        total += _shift_mean(x, range(k), w) / bath.lambda_
    elif bath is not None:
        if d2 is not None and d2.shape != (n,):
            raise ValueError(f"d2 has shape {d2.shape}, but {n} velocities need ({n},)")
        blocks = range(0, n, _PARTICLE_BLOCK)
        sq = (
            (d2[lo : lo + _PARTICLE_BLOCK] for lo in blocks) if d2 is not None
            else (_sq_norm(vel[lo : lo + _PARTICLE_BLOCK], bath.u1) for lo in blocks)
        )
        total += sum(float(np.sum(_nu_of_rho(bath, np.sqrt(b) / bath.sigma_th))) for b in sq) / n
    return total


def _fmt(x: float) -> str:
    return repr(float(x))


def write_records(path: str | Path, records: Sequence[MomentRecord]) -> None:
    """Serialize records as CSV with the columns ``CSV_COLUMNS`` (``Lp`` is
    p = 1.5).  Floats are written with shortest round-trip formatting so a
    rerun with the same seed is byte-identical.
    """
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([
                _fmt(x) for field in _RECORD_FIELDS for x in np.atleast_1d(getattr(rec, field))
            ])


def read_records(path: str | Path) -> list[MomentRecord]:
    """Parse a trajectory CSV written by :func:`write_records`."""
    records = []
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_COLUMNS:
            raise ValueError(f"unexpected trajectory header {header!r}")
        for row in reader:
            if len(row) != len(CSV_COLUMNS):
                raise ValueError(f"trajectory row has {len(row)} fields, not {len(CSV_COLUMNS)}")
            values: dict[str, list[float]] = {}
            for (_, field), cell in zip(_COLUMN_FIELDS, row):
                values.setdefault(field, []).append(float(cell))
            records.append(MomentRecord(**{
                field: np.array(v) if field == "u" else v[0] for field, v in values.items()
            }))
    return records
