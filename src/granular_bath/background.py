"""Thermal-bath description: density models, sampling, and collision moments.

The bath is a fixed velocity density F1 (unit mass) of particles with mass
``m1``, mean velocity ``u1`` and temperature ``theta1``; the collision
frequency of a gas particle at velocity v against the bath is

    nu(v) = (1/lambda) * E_{F1} |v - W|,

with ``lambda`` the mean-free-path scale of the gas-bath coupling.  Two bath
kinds are supported: an isotropic Maxwellian (closed forms throughout) and a
tabulated density on a regular velocity grid (cell-sum quadratures).
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import special  # nu needs the vectorized erf

__all__ = [
    "BathParams",
    "TabulatedDensity",
    "load_table",
    "sample_bath",
    "trilinear",
    "bath_density",
    "abs_moment",
    "c0",
    "nu",
    "nu_mc",
    "chi_empirical",
]

log = logging.getLogger(__name__)

Array = np.ndarray


class TableFormatError(ValueError):
    """Raised when a tabulated-density CSV violates the format contract."""


@dataclass(frozen=True)
class TabulatedDensity:
    """Bath density tabulated on a regular velocity grid.

    ``values[i, j, k]`` is the density at ``(axes[0][i], axes[1][j],
    axes[2][k])``.  Values are renormalized on construction so that the
    cell-sum mass is one; ``entropy`` stores the cell-sum of F log F (finite
    by construction on a bounded grid, recorded so callers can report it).
    """

    axes: tuple[Array, Array, Array]
    values: Array
    spacing: tuple[float, float, float] = field(init=False)
    entropy: float = field(init=False)

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
        pos = values[values > 0.0]
        entropy = float(np.sum(pos * np.log(pos)) * cell)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "spacing", tuple(spacing))
        object.__setattr__(self, "entropy", entropy)
        if abs(mass - 1.0) > 1e-6:
            log.info("tabulated density renormalized: raw mass %.6g", mass)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def nodes(self) -> Array:
        """All grid nodes as an (n, 3) array (C order, last axis fastest)."""
        gx, gy, gz = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)

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

    ``kind`` is "maxwellian" (density set by u1, theta1) or "tabulated"
    (density from ``table``; u1/theta1 are then derived from the table).
    ``lambda_`` is the mean-free-path scale dividing the collision frequency.
    """

    m1: float
    u1: Array
    theta1: float
    lambda_: float
    kind: str = "maxwellian"
    table: TabulatedDensity | None = None

    def __post_init__(self) -> None:
        if self.m1 <= 0.0 or not math.isfinite(self.m1):
            raise ValueError(f"m1 must be positive and finite, got {self.m1}")
        if self.lambda_ <= 0.0 or not math.isfinite(self.lambda_):
            raise ValueError(f"lambda must be positive and finite, got {self.lambda_}")
        kind = self.kind.lower()
        if kind not in ("maxwellian", "tabulated"):
            raise ValueError(f"kind must be 'maxwellian' or 'tabulated', got {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        if kind == "tabulated":
            if self.table is None:
                raise ValueError("kind='tabulated' requires a table")
            # Bulk state follows from the table under the cell model.
            object.__setattr__(self, "u1", self.table.mean())
            object.__setattr__(self, "theta1", self.table.temperature(self.m1))
        else:
            if self.table is not None:
                raise ValueError("kind='maxwellian' must not carry a table")
            u1 = np.asarray(self.u1, dtype=float).reshape(3)
            object.__setattr__(self, "u1", u1)
            if self.theta1 <= 0.0 or not math.isfinite(self.theta1):
                raise ValueError(f"theta1 must be positive and finite, got {self.theta1}")

    @property
    def sigma_th(self) -> float:
        """Per-component thermal width sqrt(theta1/m1) of the bath velocity."""
        return math.sqrt(self.theta1 / self.m1)


def sample_bath(bath: BathParams, n: int, rng: np.random.Generator) -> Array:
    """Draw ``n`` bath velocities.

    Maxwellian: exact Gaussian draws.  Tabulated: a grid cell is chosen with
    probability proportional to its weight, then the velocity is jittered
    uniformly within the cell.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if bath.kind == "maxwellian":
        # In place: broadcasting u1 over a fresh (n, 3) result costs more.
        z = rng.standard_normal((n, 3))
        z *= bath.sigma_th
        z += bath.u1
        return z
    table = bath.table
    assert table is not None
    weights = table.values.ravel()
    p = weights / weights.sum()
    cells = rng.choice(weights.size, size=n, p=p)
    centers = table.nodes()[cells]
    h = np.asarray(table.spacing)
    return centers + (rng.random((n, 3)) - 0.5) * h


def trilinear(axes: Sequence[Array], values: Array, points: Array) -> Array:
    """Trilinear interpolation of ``values`` tabulated on a rectilinear grid.

    ``values[i, j, k]`` is the value at ``(axes[0][i], axes[1][j],
    axes[2][k])``; each axis is strictly increasing with at least two nodes.
    ``points`` is (..., 3) and the result has its leading shape.  A point
    outside the grid gets 0; nodes and faces, the upper ones included, are
    inside.  The weights and the order of the eight corner terms follow
    scipy's ``RegularGridInterpolator(method="linear")``.
    """
    axes = [np.asarray(ax, dtype=float) for ax in axes]
    pts = np.asarray(points, dtype=float)
    flat = pts.reshape(-1, 3)
    inside = np.ones(flat.shape[0], dtype=bool)
    for d, ax in enumerate(axes):
        inside &= (flat[:, d] >= ax[0]) & (flat[:, d] <= ax[-1])
    q = flat[inside]
    table = np.asarray(values, dtype=float)
    lower = np.zeros(q.shape[0], dtype=np.intp)  # flat index of the lower corner
    weights = []
    for d, ax in enumerate(axes):
        i = np.clip(np.searchsorted(ax, q[:, d], side="right") - 1, 0, ax.size - 2)
        t = (q[:, d] - ax[i]) / (ax[i + 1] - ax[i])
        lower = lower * ax.size + i
        weights.append((1.0 - t, t))
    strides = (table.shape[1] * table.shape[2], table.shape[2], 1)
    flat_table = table.ravel()
    value = np.zeros(q.shape[0])
    for corner in itertools.product((0, 1), repeat=3):
        w = weights[0][corner[0]] * weights[1][corner[1]] * weights[2][corner[2]]
        offset = sum(c * s for c, s in zip(corner, strides))
        value = value + flat_table.take(lower + offset) * w
    out = np.zeros(flat.shape[0])
    out[inside] = value
    return out.reshape(pts.shape[:-1])


def bath_density(bath: BathParams, points: Array) -> Array:
    """Evaluate the bath density F1 at the given (..., 3) points."""
    points = np.asarray(points, dtype=float)
    if bath.kind == "maxwellian":
        s2 = bath.theta1 / bath.m1
        sq = np.sum((points - bath.u1) ** 2, axis=-1)
        return np.exp(-0.5 * sq / s2) / (2.0 * math.pi * s2) ** 1.5
    table = bath.table
    assert table is not None
    return trilinear(table.axes, table.values, points)


def abs_moment(bath: BathParams, k: float, center: Array | None = None) -> float:
    """k-th absolute moment E_{F1} |W - center|^k (center defaults to u1).

    Maxwellian about u1: the closed form s^k 2^{k/2} Gamma((3+k)/2) /
    Gamma(3/2).  Maxwellian about another center: 1-D quadrature of the
    noncentral radial density.  Tabulated: cell-midpoint sum.
    """
    if k < 0:
        raise ValueError(f"moment order k must be >= 0, got {k}")
    if bath.kind == "tabulated":
        table = bath.table
        assert table is not None
        c = bath.u1 if center is None else np.asarray(center, dtype=float)
        r = np.linalg.norm(table.nodes() - c, axis=1)
        return float((r**k) @ table.values.ravel() * table.cell_volume)
    s = bath.sigma_th
    delta = 0.0 if center is None else float(np.linalg.norm(np.asarray(center) - bath.u1))
    if delta == 0.0:
        return s**k * 2.0 ** (k / 2.0) * special.gamma((3.0 + k) / 2.0) / special.gamma(1.5)
    # Radial density of |W - center| when W ~ N(u1, s^2 I) and
    # |center - u1| = delta:
    # f_R(r) = r / (delta s sqrt(2 pi)) [exp(-(r-delta)^2/2s^2) - exp(-(r+delta)^2/2s^2)]
    def integrand(r: float) -> float:
        g = math.exp(-0.5 * ((r - delta) / s) ** 2) - math.exp(-0.5 * ((r + delta) / s) ** 2)
        return r**k * r * g / (delta * s * math.sqrt(2.0 * math.pi))

    from scipy.integrate import quad

    upper = delta + 12.0 * s
    value, _ = quad(integrand, 0.0, upper, limit=200)
    return float(value)


def c0(bath: BathParams) -> float:
    """Collision-frequency linearization constant.

    C0 = 2 max{ E|W - u1|, E|W - u1|^3 / E|W - u1|^2 }, which dominates the
    sublinear part of nu: lambda nu(v) <= |v - u1| + E|W - u1| and
    lambda nu(v) >= ... C0 closes the moment inequalities either way.
    For a Maxwellian, E^3/E^2 = (8/3)sqrt(2/pi) s > E^1 = 2 sqrt(2/pi) s,
    so C0 = (16/3) sqrt(2/pi) s.
    """
    m1_abs = abs_moment(bath, 1.0)
    m2 = abs_moment(bath, 2.0)
    m3 = abs_moment(bath, 3.0)
    ratio = m3 / m2 if m2 > 0.0 else 0.0  # point-mass bath: all centered moments 0
    return 2.0 * max(m1_abs, ratio)


def nu(bath: BathParams, v: Array) -> Array:
    """Collision frequency nu(v) = E_{F1} |v - W| / lambda.

    Maxwellian: closed form in rho = |v - u1| / s,
        lambda nu = s [ sqrt(2/pi) exp(-rho^2/2) + (rho + 1/rho) erf(rho/sqrt 2) ],
    with the small-rho series sqrt(2/pi)(2 + rho^2/3 - rho^4/60) below
    rho = 1e-4.  Tabulated: exact cell-midpoint sum.  Accepts (..., 3) input
    and returns the matching leading shape.
    """
    v = np.asarray(v, dtype=float)
    scalar = v.ndim == 1
    pts = np.atleast_2d(v)
    if bath.kind == "maxwellian":
        s = bath.sigma_th
        rho = np.linalg.norm(pts - bath.u1, axis=-1) / s
        small = rho < 1e-4
        rho_safe = np.where(small, 1.0, rho)
        g = (
            math.sqrt(2.0 / math.pi) * np.exp(-0.5 * rho**2)
            + (rho_safe + 1.0 / rho_safe) * special.erf(rho_safe / math.sqrt(2.0))
        )
        series = math.sqrt(2.0 / math.pi) * (2.0 + rho**2 / 3.0 - rho**4 / 60.0)
        out = s * np.where(small, series, g) / bath.lambda_
    else:
        table = bath.table
        assert table is not None
        nodes = table.nodes()
        weights = table.values.ravel() * table.cell_volume
        out = np.empty(pts.shape[0])
        # Chunk the pairwise distance computation to bound memory.
        step = max(1, int(2e7) // max(nodes.shape[0], 1))
        for lo in range(0, pts.shape[0], step):
            hi = min(lo + step, pts.shape[0])
            d = np.linalg.norm(pts[lo:hi, None, :] - nodes[None, :, :], axis=-1)
            out[lo:hi] = d @ weights
        out /= bath.lambda_
    return float(out[0]) if scalar else out.reshape(v.shape[:-1])


def nu_mc(
    bath: BathParams,
    v: Array,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo estimate of nu(v) with its standard error."""
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    v = np.asarray(v, dtype=float).reshape(3)
    draws = sample_bath(bath, n_samples, rng)
    r = np.linalg.norm(v - draws, axis=1) / bath.lambda_
    return float(r.mean()), float(r.std(ddof=1) / math.sqrt(n_samples))


def chi_empirical(bath: BathParams, radius: float, n: int = 24) -> float:
    """Empirical coercivity constant min nu(v) / sqrt(1 + |v|^2).

    The minimum is taken over a cubic lattice of ``n``^3 points restricted
    to the ball |v| <= radius (the ball is centered at the origin: the
    weight sqrt(1 + |v|^2) is, too).
    """
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    ax = np.linspace(-radius, radius, n)
    gx, gy, gz = np.meshgrid(ax, ax, ax, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    pts = pts[np.linalg.norm(pts, axis=1) <= radius]
    vals = nu(bath, pts) / np.sqrt(1.0 + np.sum(pts**2, axis=1))
    return float(vals.min())
