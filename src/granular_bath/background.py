"""Thermal-bath description: density models, sampling, and collision moments.

The bath is a fixed velocity density F1 (unit mass) of particles with mass
``m1``, mean velocity ``u1`` and temperature ``theta1``; the collision
frequency of a gas particle at velocity v against the bath is

    nu(v) = (1/lambda) * E_{F1} |v - W|,

with ``lambda`` the mean-free-path scale of the gas-bath coupling.  Two bath
laws are supported: an isotropic Maxwellian (closed forms throughout) and a
tabulated density on a regular velocity grid (cell-sum quadratures).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .kinematics import RestitutionParams, _sq_norm, _uniform_sphere

__all__ = [
    "BathParams",
    "TabulatedDensity",
    "TableFormatError",
    "NumericalFault",
    "load_table",
    "sample_bath",
    "sample_partners",
    "bath_density",
    "linear_steady",
    "abs_moment",
    "c0",
    "erf",
    "nu",
]

log = logging.getLogger(__name__)

Array = np.ndarray


class TableFormatError(ValueError):
    """Raised when a tabulated-density CSV violates the format contract."""


class NumericalFault(RuntimeError):
    """A numerical failure of either solver, reported in one line: a
    non-finite particle state, a kernel grid that is mis-normalized or too
    coarse for the bath, a steady iteration that does not converge, or a
    sample outside the reference density's support."""


@dataclass(frozen=True)
class TabulatedDensity:
    """Bath density tabulated on a regular velocity grid.

    ``values[i, j, k]`` is the density at ``(axes[0][i], axes[1][j],
    axes[2][k])``.  Values are renormalized on construction so that the
    cell-sum mass is one.
    """

    axes: tuple[Array, Array, Array]
    values: Array
    spacing: tuple[float, float, float] = field(init=False)

    def __post_init__(self) -> None:
        if len(self.axes) != 3:
            raise TableFormatError("tabulated density needs exactly three axes")
        spacing = []
        for i, ax in enumerate(self.axes):
            ax = np.asarray(ax, dtype=float)
            if ax.ndim != 1 or ax.size < 2:
                raise TableFormatError(f"axis {i} must be 1-D with at least two nodes")
            steps = np.diff(ax)
            if np.any(steps <= 0):
                raise TableFormatError(f"axis {i} must be strictly increasing")
            h = float(steps[0])
            if np.max(np.abs(steps - h)) > 1e-9 * max(h, 1.0):
                raise TableFormatError(f"axis {i} is not uniformly spaced")
            spacing.append(h)
        values = np.asarray(self.values, dtype=float)
        shape = tuple(ax.size for ax in self.axes)
        if values.shape != shape:
            raise TableFormatError(
                f"values shape {values.shape} does not match axes shape {shape}"
            )
        if np.any(~np.isfinite(values)) or np.any(values < 0.0):
            raise TableFormatError("density values must be finite and nonnegative")
        cell = float(np.prod(spacing))
        mass = float(values.sum() * cell)
        if mass <= 0.0:
            raise TableFormatError("tabulated density has zero total mass")
        values = values / mass
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "spacing", tuple(spacing))
        if abs(mass - 1.0) > 1e-6:
            log.info("tabulated density renormalized: raw mass %.6g", mass)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def nodes(self) -> Array:
        """All grid nodes as an (n, 3) array (C order, last axis fastest),
        built once per table and read-only."""
        return self._nodes

    @cached_property
    def _nodes(self) -> Array:
        gx, gy, gz = np.meshgrid(*self.axes, indexing="ij")
        nodes = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
        nodes.flags.writeable = False
        return nodes

    def mean(self) -> Array:
        return self.nodes().T @ self.values.ravel() * self.cell_volume

    def temperature(self, m1: float) -> float:
        """Temperature theta1 = (m1/3) * E|W - mean|^2 of the cell density.

        The table is a piecewise-constant density over cells (matching the
        sampler, which jitters uniformly within the chosen cell), so each
        axis contributes an extra within-cell variance of spacing^2 / 12.
        """
        u = self.mean()
        sq = np.sum((self.nodes() - u) ** 2, axis=1)
        node_part = float((sq @ self.values.ravel()) * self.cell_volume)
        cell_part = float(sum(h * h / 12.0 for h in self.spacing))
        return m1 / 3.0 * (node_part + cell_part)


def load_table(path: str | Path) -> TabulatedDensity:
    """Load a tabulated bath density from CSV.

    The file must start with the exact header ``vx,vy,vz,density`` and list
    one row per node of a complete regular grid (any row order).
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "vx,vy,vz,density":
            raise TableFormatError(
                f"{path}: first line must be the header 'vx,vy,vz,density', got {header!r}"
            )
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise TableFormatError(f"{path}: malformed numeric row ({exc})") from exc
    if data.shape[1] != 4:
        raise TableFormatError(f"{path}: expected 4 columns, got {data.shape[1]}")
    axes = tuple(np.unique(data[:, i]) for i in range(3))
    shape = tuple(ax.size for ax in axes)
    if int(np.prod(shape)) != data.shape[0]:
        raise TableFormatError(
            f"{path}: {data.shape[0]} rows do not fill a complete "
            f"{shape[0]}x{shape[1]}x{shape[2]} grid"
        )
    values = np.full(shape, np.nan)
    idx = tuple(np.searchsorted(axes[i], data[:, i]) for i in range(3))
    values[idx] = data[:, 3]
    if np.any(np.isnan(values)):
        raise TableFormatError(f"{path}: duplicate rows leave grid nodes unassigned")
    return TabulatedDensity(axes=axes, values=values)


@dataclass(frozen=True)
class BathParams:
    """Bath particle mass, bulk state, coupling scale, and density model.

    With ``table`` None the bath is a Maxwellian set by u1 and theta1;
    with a ``table`` its density is the table's, and u1 and theta1 are
    derived from it.
    ``lambda_`` is the mean-free-path scale dividing the collision frequency.
    """

    m1: float
    u1: Array
    theta1: float
    lambda_: float
    table: TabulatedDensity | None = None

    def __post_init__(self) -> None:
        if self.m1 <= 0.0 or not math.isfinite(self.m1):
            raise ValueError(f"m1 must be positive and finite, got {self.m1}")
        if self.lambda_ <= 0.0 or not math.isfinite(self.lambda_):
            raise ValueError(f"lambda must be positive and finite, got {self.lambda_}")
        if self.table is not None:
            # Bulk state follows from the table under the cell model.
            object.__setattr__(self, "u1", self.table.mean())
            object.__setattr__(self, "theta1", self.table.temperature(self.m1))
        else:
            u1 = np.asarray(self.u1, dtype=float).reshape(3)
            object.__setattr__(self, "u1", u1)
            if self.theta1 <= 0.0 or not math.isfinite(self.theta1):
                raise ValueError(f"theta1 must be positive and finite, got {self.theta1}")

    @property
    def sigma_th(self) -> float:
        """Per-component thermal width sqrt(theta1/m1) of the bath velocity."""
        return math.sqrt(self.theta1 / self.m1)

    @cached_property
    def cell_bounds(self) -> Array:
        """Tabulated bath: per cell, |c - u1| + the half-diagonal, the bound
        B(w) >= |w - u1| for every w in the cell (cached for the bath sweep)."""
        table = self.table
        assert table is not None
        half_diagonal = 0.5 * math.sqrt(sum(h * h for h in table.spacing))
        return np.linalg.norm(table.nodes() - self.u1, axis=1) + half_diagonal

    @cached_property
    def bound_mean(self) -> float:
        """b = E B(W) for the bounds B(w) >= |w - u1| that
        :func:`sample_partners` returns, so lambda nu(v) <= |v - u1| + b."""
        if self.table is None:
            return 2.0 * self.sigma_th * math.sqrt(2.0 / math.pi)  # E|W - u1|
        table = self.table
        return float(np.dot(self.cell_bounds, table.values.ravel()) * table.cell_volume)


def _sample_cells(table: TabulatedDensity, weights: Array, n: int, rng: np.random.Generator):
    """``n`` cells drawn with probability proportional to ``weights``, each
    jittered uniformly within the cell; returns (velocities, cells)."""
    cells = rng.choice(weights.size, size=n, p=weights / weights.sum())
    jitter = rng.random((n, 3)) - 0.5
    jitter *= table.spacing  # in place, as a table's sigma draws 2^15 at each record
    return np.add(table.nodes()[cells], jitter, out=jitter), cells


def sample_bath(bath: BathParams, n: int, rng: np.random.Generator) -> Array:
    """Draw ``n`` bath velocities.

    Maxwellian: exact Gaussian draws.  Tabulated: a grid cell is chosen with
    probability proportional to its weight, then the velocity is jittered
    uniformly within the cell.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if bath.table is None:
        # In place and one component at a time: broadcasting u1 along the
        # rows costs more.
        z = rng.standard_normal((n, 3))
        z *= bath.sigma_th
        for i in range(3):
            z[:, i] += bath.u1[i]
        return z
    table = bath.table
    return _sample_cells(table, table.values.ravel(), n, rng)[0]


def sample_partners(
    bath: BathParams, n: int, n_biased: int, rng: np.random.Generator
) -> tuple[Array, Array]:
    """``n`` bath velocities from F1, then ``n_biased`` from the size-biased
    law B F1 / b (b = ``bath.bound_mean``), with their bounds B(w) >= |w - u1|.

    Maxwellian: B(w) = |w - u1|.  |W - u1| / sigma_th is chi_3, its
    size-biased law is chi_4, and a Gaussian's direction is independent of
    its radius: so a size-biased draw is u1 + sigma_th rho omega, with
    rho^2 = -2 ln((1 - U1)(1 - U2)) from ``rng.random((2, n_biased))`` and
    omega from :func:`~granular_bath.kinematics._uniform_sphere`, drawn in
    that order, and its bound is sigma_th rho.
    Tabulated: B(w) = |c - u1| + the cell half-diagonal, c the centre of w's
    cell; a size-biased draw picks its cell with weight * B(c).
    """
    if bath.table is None:
        plain = sample_bath(bath, n, rng)
        u = rng.random((2, n_biased))
        np.subtract(1.0, u, out=u)
        radius = u[0] * u[1]
        np.log(radius, out=radius)
        radius *= -2.0 * bath.theta1 / bath.m1  # sigma_th^2 rho^2
        np.sqrt(radius, out=radius)
        biased = _uniform_sphere(rng, n_biased)
        for i in range(3):
            col = biased[:, i]
            col *= radius
            col += bath.u1[i]
        bounds = np.concatenate([np.sqrt(_sq_norm(plain, bath.u1)), radius])
        return np.concatenate([plain, biased]), bounds
    table = bath.table
    cell_bounds = bath.cell_bounds
    plain, cells = _sample_cells(table, table.values.ravel(), n, rng)
    biased, biased_cells = _sample_cells(table, table.values.ravel() * cell_bounds, n_biased, rng)
    return np.concatenate([plain, biased]), cell_bounds[np.concatenate([cells, biased_cells])]


def bath_density(bath: BathParams, points: Array) -> Array:
    """Evaluate a Maxwellian bath density F1 at the given (..., 3) points.

    A table raises ValueError: its law is the cell density that
    :func:`sample_bath` draws from, with no pointwise form between nodes.
    """
    if bath.table is not None:
        raise ValueError("bath_density has a closed form for a Maxwellian bath only")
    points = np.asarray(points, dtype=float)
    s2 = bath.theta1 / bath.m1
    sq = np.sum((points - bath.u1) ** 2, axis=-1)
    return np.exp(-0.5 * sq / s2) / (2.0 * math.pi * s2) ** 1.5


def linear_steady(restitution: RestitutionParams, bath: BathParams) -> float:
    """Temperature theta_lin = kappa theta1 / (m1 (1 - kappa)) of the steady
    state of bath collisions alone (tau = 0): the gas Maxwellian at u1 with
    variance theta_lin per axis (Martin & Piasecki, Europhys. Lett. 46,
    1999).  A table raises ValueError, as in :func:`nu`.
    """
    if bath.table is not None:
        raise ValueError("linear_steady has a closed form for a Maxwellian bath only")
    kappa = restitution.kappa
    return kappa * bath.theta1 / (bath.m1 * (1.0 - kappa))


def abs_moment(bath: BathParams, k: float) -> float:
    """k-th absolute moment E_{F1} |W - u1|^k about the bath mean.

    Maxwellian: the closed form s^k 2^{k/2} Gamma((3+k)/2) / Gamma(3/2).
    Tabulated: cell-midpoint sum.
    """
    if k < 0:
        raise ValueError(f"moment order k must be >= 0, got {k}")
    if bath.table is not None:
        table = bath.table
        r = np.linalg.norm(table.nodes() - bath.u1, axis=1)
        return float((r**k) @ table.values.ravel() * table.cell_volume)
    s = bath.sigma_th
    return s**k * 2.0 ** (k / 2.0) * math.gamma((3.0 + k) / 2.0) / math.gamma(1.5)


def c0(bath: BathParams) -> float:
    """Collision-frequency linearization constant.

    C0 = 2 max{ E|W - u1|, E|W - u1|^3 / E|W - u1|^2 }, which dominates the
    sublinear part of nu, lambda nu(v) <= |v - u1| + E|W - u1|.  For a
    Maxwellian, E^3/E^2 = (8/3)sqrt(2/pi) s > E^1 = 2 sqrt(2/pi) s, so
    C0 = (16/3) sqrt(2/pi) s.
    """
    m1_abs = abs_moment(bath, 1.0)
    m2 = abs_moment(bath, 2.0)
    m3 = abs_moment(bath, 3.0)
    ratio = m3 / m2 if m2 > 0.0 else 0.0  # point-mass bath: all centered moments 0
    return 2.0 * max(m1_abs, ratio)


# The error function of fdlibm's s_erf.c (Sun Microsystems, 1993), the
# algorithm of the C library's erf behind math.erf: on each interval of |x|,
# a rational function in x^2, in |x| - 1 or in 1/x^2.
_ERX = 8.45062911510467529297e-01  # erf(1) rounded to 24 bits
_EFX = 1.28379167095512586316e-01  # 2/sqrt(pi) - 1
_EFX8 = 1.02703333676410069053e00  # 8 * _EFX
# |x| in [2^-28, 0.84375): erf(x) = x + x * P(x^2)/Q(x^2).
_ERF_PP = (
    1.28379167095512558561e-01, -3.25042107247001499370e-01,
    -2.84817495755985104766e-02, -5.77027029648944159157e-03,
    -2.37630166566501626084e-05,
)
_ERF_QQ = (
    1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02,
    5.08130628187576562776e-03, 1.32494738004321644526e-04,
    -3.96022827877536812320e-06,
)
# |x| in [0.84375, 1.25): erf(x) = erx + P(s)/Q(s), s = |x| - 1.
_ERF_PA = (
    -2.36211856075265944077e-03, 4.14856118683748331666e-01,
    -3.72207876035701323847e-01, 3.18346619901161753674e-01,
    -1.10894694282396677476e-01, 3.54783043256182359371e-02,
    -2.16637559486879084300e-03,
)
_ERF_QA = (
    1.0, 1.06420880400844228286e-01, 5.40397917702171048937e-01,
    7.18286544141962662868e-02, 1.26171219808761642112e-01,
    1.36370839120290507362e-02, 1.19844998467991074170e-02,
)
# |x| in [1.25, 1/0.35): erfc(x) = exp(-x^2 - 0.5625 + R(s)/S(s)) / x,
# s = 1/x^2.
_ERF_RA = (
    -9.86494403484714822705e-03, -6.93858572707181764372e-01,
    -1.05586262253232909814e01, -6.23753324503260060396e01,
    -1.62396669462573470355e02, -1.84605092906711035994e02,
    -8.12874355063065934246e01, -9.81432934416914548592e00,
)
_ERF_SA = (
    1.0, 1.96512716674392571292e01, 1.37657754143519042600e02,
    4.34565877475229228821e02, 6.45387271733267880336e02,
    4.29008140027567833386e02, 1.08635005541779435134e02,
    6.57024977031928170135e00, -6.04244152148580987438e-02,
)
# |x| in [1/0.35, 6): the same form with other coefficients.
_ERF_RB = (
    -9.86494292470009928597e-03, -7.99283237680523006574e-01,
    -1.77579549177547519889e01, -1.60636384855821916062e02,
    -6.37566443368389627722e02, -1.02509513161107724954e03,
    -4.83519191608651397019e02,
)
_ERF_SB = (
    1.0, 3.03380607434824582924e01, 3.25792512996573918826e02,
    1.53672958608443695994e03, 3.19985821950859553908e03,
    2.55305040643316442583e03, 4.74528541206955367215e02,
    -2.24409524465858183362e01,
)
# fdlibm compares the high 32 bits of |x|: 1/0.35 is 0x4006DB6E, so the split
# lies at that word with a zero low word.  The other edges are exact.
_ERF_SPLIT = float.fromhex("0x1.6db6ep+1")
_ERF_TINY = 2.0**-28
_ERF_SUBNORMAL = 2.0**-1015  # high word below 0x00800000


def _poly(z: Array, coeffs: Sequence[float]) -> Array:
    """c0 + z (c1 + z (... + z cn)), evaluated in the nesting order of fdlibm."""
    acc = z * coeffs[-1]
    for c in coeffs[-2:0:-1]:
        acc += c
        acc *= z
    acc += coeffs[0]
    return acc


def _erf_tiny(a: Array) -> Array:
    return np.where(a < _ERF_SUBNORMAL, 0.125 * (8.0 * a + _EFX8 * a), a + _EFX * a)


def _erf_small(a: Array) -> Array:
    z = a * a
    return a + a * (_poly(z, _ERF_PP) / _poly(z, _ERF_QQ))


def _erf_middle(a: Array) -> Array:
    s = a - 1.0
    return _ERX + _poly(s, _ERF_PA) / _poly(s, _ERF_QA)


def _erf_tail(a: Array, num: Sequence[float], den: Sequence[float]) -> Array:
    s = 1.0 / (a * a)
    # a with the low 32 bits of its mantissa cleared, so z*z is exact.
    z = (a.view(np.uint64) & np.uint64(0xFFFFFFFF00000000)).view(float)
    r = np.exp(-z * z - 0.5625) * np.exp((z - a) * (z + a) + _poly(s, num) / _poly(s, den))
    return 1.0 - r / a


_ERF_BRANCHES = (
    (0.0, _ERF_TINY, _erf_tiny),
    (_ERF_TINY, 0.84375, _erf_small),
    (0.84375, 1.25, _erf_middle),
    (1.25, _ERF_SPLIT, lambda a: _erf_tail(a, _ERF_RA, _ERF_SA)),
    (_ERF_SPLIT, 6.0, lambda a: _erf_tail(a, _ERF_RB, _ERF_SB)),
)


def erf(x: Array) -> Array:
    """The error function, elementwise, as numpy array arithmetic.

    A port of fdlibm's ``s_erf.c``: a rational approximation on each of the
    intervals [0, 0.84375), [0.84375, 1.25), [1.25, 1/0.35) and [1/0.35, 6)
    of |x|, and erf(x) = sign(x) for |x| >= 6.  It agrees with ``math.erf``
    to within 1 ulp, and returns nan for nan and +-1 for +-inf.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x).ravel()
    out = np.where(a >= 6.0, 1.0, a)  # nan stays nan
    for lo, hi, branch in _ERF_BRANCHES:
        idx = np.flatnonzero((a >= lo) & (a < hi))
        out[idx] = branch(a[idx])
    return np.copysign(out, x.ravel()).reshape(x.shape)[()]


# Rows per block of every per-particle pass whose temporaries would
# otherwise grow with N (the Maxwellian nu, sigma's pair term and a record's
# moments and bin counts), and the number of a table's sigma draws.  Each
# float temporary is 256 KB, and the ~9 alive at once in nu fill about one
# core's L2 cache (2 MB).  erf's branch dispatch has a fixed cost per call
# of about a tenth of such a block's work, so smaller blocks pay it too often.
_PARTICLE_BLOCK = 1 << 15


def _nu_of_rho(bath: BathParams, rho: Array) -> Array:
    """nu of a Maxwellian bath at the points with rho = |v - u1| / s, a 1-D
    block that this overwrites; the closed form of :func:`nu`."""
    small = rho < 1e-4
    r = rho[small]
    rho[small] = 1.0  # these take the series below
    # erf runs first, while the fewest block temporaries are alive.
    g = (
        erf(rho / math.sqrt(2.0)) * (rho + 1.0 / rho)
        + math.sqrt(2.0 / math.pi) * np.exp(-0.5 * rho**2)
    )
    g[small] = math.sqrt(2.0 / math.pi) * (2.0 + r**2 / 3.0 - r**4 / 60.0)
    return bath.sigma_th * g / bath.lambda_


def nu(bath: BathParams, v: Array) -> Array:
    """Collision frequency nu(v) = E_{F1} |v - W| / lambda of a Maxwellian bath.

    Closed form in rho = |v - u1| / s,
        lambda nu = s [ sqrt(2/pi) exp(-rho^2/2) + (rho + 1/rho) erf(rho/sqrt 2) ],
    with the small-rho series sqrt(2/pi)(2 + rho^2/3 - rho^4/60) below
    rho = 1e-4; erf is the numpy port :func:`erf`, within 1 ulp of
    ``math.erf``.  rho is sqrt(``_sq_norm``(v, u1)) / s, so a caller that
    holds |v - u1|^2 already (``observables.sigma_freq`` with the run's
    cache) gets the same bits from the same kernel.  A table raises
    ValueError: its rate under the sweep's cell law is the mean of
    |v - W| / lambda over :func:`sample_bath` draws W.  Accepts (..., 3)
    input and returns the matching leading shape.
    """
    if bath.table is not None:
        raise ValueError(
            "nu has a closed form for a Maxwellian bath only; a table's rate is "
            "the mean of |v - W| / lambda over sample_bath draws W"
        )
    v = np.asarray(v, dtype=float)
    pts = v.reshape(-1, v.shape[-1])
    out = np.empty(len(pts))
    # Elementwise, so blocks of _PARTICLE_BLOCK points give the values of one
    # pass over all points.
    for lo in range(0, len(pts), _PARTICLE_BLOCK):
        rho = np.sqrt(_sq_norm(pts[lo : lo + _PARTICLE_BLOCK], bath.u1)) / bath.sigma_th
        out[lo : lo + _PARTICLE_BLOCK] = _nu_of_rho(bath, rho)
    return float(out[0]) if v.ndim == 1 else out.reshape(v.shape[:-1])
