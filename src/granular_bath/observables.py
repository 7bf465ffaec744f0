"""Moment, norm, entropy, and bound diagnostics for particle ensembles.

Everything here is a pure function of an immutable velocity sample (an
(N, 3) array of equal-weight particles) plus bath/restitution parameters.
The analytic-bound calculators implement the explicit temperature bound

    sup_t ( 3 Theta(t) + |u(t) - u1|^2 ) <= max{ (gamma2/gamma1)^2, F(0) },

with gamma1 = 2 kappa (1-kappa)/lambda and gamma2 = 2 C0 kappa / lambda.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .background import BathParams, c0, nu
from .kinematics import RestitutionParams

__all__ = [
    "MomentRecord",
    "BoundParams",
    "LpEstimate",
    "HaffFit",
    "moments",
    "f_aux",
    "bound_params",
    "Histogram",
    "thermal_extent",
    "histogram",
    "box_edges",
    "reference_on_cells",
    "lp_norm",
    "h_phi",
    "haff_fit",
    "sigma_freq",
    "third_cumulant",
    "histogram_l1_distance",
    "write_records",
    "read_records",
    "CSV_COLUMNS",
]

Array = np.ndarray

DEFAULT_Y_ORDERS = (1.0, 1.5, 2.0, 3.0)
DEFAULT_SIGMA_PAIRS = 2**17

CSV_COLUMNS = (
    "t", "rho", "ux", "uy", "uz", "theta", "F",
    "Y1", "Y1.5", "Y2", "Y3", "L2", "Lp", "Hquad", "Hent", "sigma",
)


class DegenerateParameterError(ValueError):
    """Raised when bound parameters degenerate (kappa in {0, 1} or C0 = 0)."""


class FitRefusedError(ValueError):
    """Raised when a trajectory does not qualify for the requested fit."""


class SupportMismatchError(ValueError):
    """Raised when the reference density vanishes on occupied histogram cells."""


@dataclass(frozen=True)
class MomentRecord:
    """One observation of the ensemble: moments plus optional diagnostics.

    ``y_r`` holds (r, Y_r) pairs with Y_r the 2r-th moment about the origin;
    ``lp`` holds (p, estimate) pairs; ``h_phi`` holds (tag, value) pairs for
    tag in {"quad", "ent"}.  Diagnostics that were not computed stay NaN /
    empty.
    """

    t: float
    rho: float
    u: Array
    theta: float
    f_aux: float = math.nan
    y_r: tuple[tuple[float, float], ...] = ()
    lp: tuple[tuple[float, float], ...] = ()
    h_phi: tuple[tuple[str, float], ...] = ()
    sigma_mean: float = math.nan

    def __post_init__(self) -> None:
        if abs(self.rho - 1.0) > 1e-12:
            raise ValueError(f"mass must be 1 within 1e-12, got {self.rho!r}")
        if self.theta < 0.0:
            raise ValueError(f"temperature must be >= 0, got {self.theta!r}")

    def y(self, r: float) -> float:
        for order, value in self.y_r:
            if order == r:
                return value
        return math.nan

    def lp_value(self, p: float) -> float:
        for order, value in self.lp:
            if order == p:
                return value
        return math.nan

    def h_value(self, tag: str) -> float:
        for name, value in self.h_phi:
            if name == tag:
                return value
        return math.nan


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


def moments(
    velocities: Array,
    t: float = 0.0,
    y_orders: Sequence[float] = DEFAULT_Y_ORDERS,
) -> MomentRecord:
    """Empirical mass, bulk velocity, temperature, and origin moments Y_r.

    rho is accumulated from the 1/N particle weights (so the recorded value
    carries honest accumulation rounding); u is the mean velocity;
    Theta = (1/3) mean |v - u|^2; Y_r = mean |v|^(2r).
    """
    vel = np.asarray(velocities, dtype=float)
    if vel.ndim != 2 or vel.shape[1] != 3 or vel.shape[0] < 2:
        raise ValueError(f"velocities must be (N >= 2, 3), got shape {vel.shape}")
    n = vel.shape[0]
    rho = float(np.sum(np.full(n, 1.0 / n)))
    u = vel.mean(axis=0)
    theta = float(np.sum((vel - u) ** 2) / (3.0 * n))
    speed2 = np.sum(vel**2, axis=1)
    y_r = tuple((float(r), float(np.mean(speed2 ** float(r)))) for r in y_orders)
    return MomentRecord(t=float(t), rho=rho, u=u, theta=theta, y_r=y_r)


def f_aux(record: MomentRecord, bath: BathParams, velocities: Array | None = None) -> float:
    """The driven-temperature functional F = 3 Theta + |u - u1|^2 + 3 Theta1/m1.

    When ``velocities`` is supplied, the direct empirical form
    mean |v - u1|^2 + 3 Theta1/m1 is computed as well and the two routes must
    agree within 1e-10 (they are algebraically identical; a mismatch means
    the record does not belong to the sample).
    """
    shift = 3.0 * bath.theta1 / bath.m1
    value = 3.0 * record.theta + float(np.sum((record.u - bath.u1) ** 2)) + shift
    if velocities is not None:
        vel = np.asarray(velocities, dtype=float)
        direct = float(np.mean(np.sum((vel - bath.u1) ** 2, axis=1))) + shift
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
    """Half-width of the default histogram box: 6 thermal widths."""
    return 6.0 * math.sqrt(max(theta, np.finfo(float).tiny))


def box_edges(center: Array, extent: float, bins: int) -> tuple[Array, Array, Array]:
    """Per-axis edges of ``bins`` cells spanning ``center +- extent``."""
    center = np.asarray(center, dtype=float).reshape(3)
    return tuple(np.linspace(c - extent, c + extent, bins + 1) for c in center)


def _cell_volume(edges: Sequence[Array]) -> float:
    return float(np.prod([e[1] - e[0] for e in edges]))


def _grid_edges(
    velocities: Array,
    bins: int,
    extent: float | None,
    center: Array | None,
) -> tuple[Array, Array, Array]:
    """Per-axis bin edges: ``center +- extent`` or +-6 thermal widths."""
    vel = np.asarray(velocities, dtype=float)
    if center is None:
        center = vel.mean(axis=0)
    if extent is None:
        theta = float(np.sum((vel - vel.mean(axis=0)) ** 2) / (3.0 * vel.shape[0]))
        extent = thermal_extent(theta)
    return box_edges(center, extent, bins)


@dataclass(frozen=True)
class Histogram:
    """Histogram density estimate of an N-particle sample on a regular box.

    ``density`` = counts / (N * cell volume) on the cells between ``edges``.
    Particles outside the box are dropped (estimator restriction: the box
    must be chosen wide enough that the lost mass is negligible).  One
    histogram serves every estimate taken from it: :func:`lp_norm` at
    several orders, :func:`h_phi` for several Phi.
    """

    density: Array
    edges: tuple[Array, Array, Array]
    n: int

    @property
    def cell_volume(self) -> float:
        return _cell_volume(self.edges)


def histogram(
    velocities: Array,
    bins: int = 64,
    extent: float | None = None,
    center: Array | None = None,
) -> Histogram:
    """Histogram of a sample on the cube ``center +- extent`` with ``bins``
    cells per axis; by default the box is the sample mean +- 6 thermal
    widths (:func:`thermal_extent`)."""
    vel = np.asarray(velocities, dtype=float)
    edges = _grid_edges(vel, bins, extent, center)
    counts, _ = np.histogramdd(vel, bins=edges)
    n = vel.shape[0]
    return Histogram(density=counts / (n * _cell_volume(edges)), edges=edges, n=n)


def _as_histogram(
    sample: Array | Histogram, bins: int, extent: float | None, center: Array | None
) -> Histogram:
    if isinstance(sample, Histogram):
        return sample
    return histogram(sample, bins=bins, extent=extent, center=center)


def reference_on_cells(reference: Callable[[Array], Array], edges: Sequence[Array]) -> Array:
    """A reference density evaluated at the centres of the cells between
    ``edges``, shaped like a histogram on them: the array form of
    ``reference`` that :func:`h_phi` accepts for every histogram on those
    cells."""
    centers = [0.5 * (e[1:] + e[:-1]) for e in edges]
    gx, gy, gz = np.meshgrid(*centers, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    return np.asarray(reference(pts), dtype=float).reshape(gx.shape)


@dataclass(frozen=True)
class LpEstimate:
    """Histogram L^p estimate.

    ``degenerate`` flags an empty histogram; ``concentrated`` flags more
    than half of the mass inside a single cell (a point-mass-like sample
    whose L^p estimate diverges with resolution).
    """

    p: float
    value: float
    degenerate: bool
    concentrated: bool


def lp_norm(
    velocities: Array | Histogram,
    p: float,
    bins: int = 64,
    extent: float | None = None,
    center: Array | None = None,
) -> LpEstimate:
    """Histogram estimate of the L^p norm (sum f^p * cellvol)^(1/p), p > 1.

    ``velocities`` is the sample, or a :class:`Histogram` of it, which is
    then used as built (``bins``, ``extent`` and ``center`` are not read).
    """
    if not (p > 1.0 and math.isfinite(p)):
        raise ValueError(f"p must lie in (1, inf), got {p}")
    hist = _as_histogram(velocities, bins, extent, center)
    density, vol = hist.density, hist.cell_volume
    if density.sum() * vol <= 0.0:
        return LpEstimate(p=p, value=math.nan, degenerate=True, concentrated=False)
    return LpEstimate(
        p=p,
        value=float(np.sum(density**p) * vol) ** (1.0 / p),
        degenerate=False,
        concentrated=float(density.max()) * vol > 0.5,
    )


_PHI = {
    "quad": (lambda x: (x - 1.0) ** 2, 1.0),  # Phi and Phi(0)
    # x log x - x + 1 rather than bare x log x: identical when sample and
    # reference carry equal mass, but pointwise nonnegative, so histogram
    # truncation (masses differing at the 1e-3 level) cannot push the
    # estimate below zero.
    "ent": (lambda x: x * np.log(x) - x + 1.0, 1.0),
}


def h_phi(
    velocities: Array | Histogram,
    reference: Callable[[Array], Array] | Array,
    phi: str = "quad",
    bins: int = 64,
    extent: float | None = None,
    center: Array | None = None,
    bias_correct: bool = False,
) -> float:
    """Histogram estimate of the convex functional H_Phi(f | F).

    H = sum over cells of vol * F * Phi(fhat / F), with Phi either
    (x - 1)^2 ("quad") or x log x - x + 1 ("ent").
    ``velocities`` is the sample, or a :class:`Histogram` of it, which is
    then used as built (``bins``, ``extent`` and ``center`` are not read).
    ``reference`` is either a callable evaluated at cell centers or an array
    of densities matching the histogram shape (:func:`reference_on_cells`).
    Cells where fhat > 0 but the reference vanishes raise
    SupportMismatchError.  Empty cells contribute vol * F * Phi(0).

    ``bias_correct`` (quadratic Phi only) subtracts the plug-in estimate of
    the multinomial sampling bias  (1/N) sum fhat (1 - fhat vol) / F, whose
    magnitude is roughly (occupied cells)/N; the corrected estimator can go
    slightly negative when the true H is below the noise floor.
    """
    if phi not in _PHI:
        raise ValueError(f"phi must be one of {sorted(_PHI)}, got {phi!r}")
    hist = _as_histogram(velocities, bins, extent, center)
    density, vol = hist.density, hist.cell_volume
    if callable(reference):
        ref = reference_on_cells(reference, hist.edges)
    else:
        ref = np.asarray(reference, dtype=float)
        if ref.shape != density.shape:
            raise ValueError(
                f"reference shape {ref.shape} does not match histogram {density.shape}"
            )
    if np.any((density > 0.0) & (ref <= 0.0)):
        n_bad = int(np.count_nonzero((density > 0.0) & (ref <= 0.0)))
        raise SupportMismatchError(
            f"reference density vanishes on {n_bad} occupied cells"
        )
    phi_fn, phi_zero = _PHI[phi]
    pos = ref > 0.0
    occupied = pos & (density > 0.0)
    empty = pos & (density == 0.0)
    value = float(np.sum(ref[occupied] * phi_fn(density[occupied] / ref[occupied])) * vol)
    value += float(np.sum(ref[empty]) * vol * phi_zero)
    # Both Phi forms are pointwise nonnegative, so the raw sum is too; a
    # negative value can only be arithmetic error.
    if value < -1e-9 * max(1.0, abs(value)):
        raise RuntimeError(f"convexity violated by H_{phi} = {value!r} (estimator bug)")
    if bias_correct:
        if phi != "quad":
            raise ValueError("bias correction is implemented for the quadratic Phi only")
        bias = float(
            np.sum(density[occupied] * (1.0 - density[occupied] * vol) / ref[occupied])
            / hist.n
        )
        value -= bias
    return value


@dataclass(frozen=True)
class HaffFit:
    """Algebraic-cooling fit Theta(t) = Theta0 (1 + t/t0)^exponent."""

    exponent: float
    t0: float
    residual: float


def haff_fit(times: Array, thetas: Array) -> HaffFit:
    """Least-squares fit of algebraic cooling; refuses shallow decays.

    Fits log Theta = log Theta(0) + g * log(1 + t/t0) with Theta(0) pinned
    to the first record.  Requires at least two decades of temperature decay
    so the exponent is identifiable.
    """
    t = np.asarray(times, dtype=float)
    th = np.asarray(thetas, dtype=float)
    if t.shape != th.shape or t.ndim != 1 or t.size < 4:
        raise ValueError("times and thetas must be equal-length 1-D arrays, >= 4 points")
    if np.any(th <= 0.0):
        raise ValueError("temperatures must be positive for a cooling fit")
    decay = float(th[0] / th.min())
    if decay < 100.0:
        raise FitRefusedError(
            f"temperature decays by {decay:.3g}x; need >= 100x (two decades) for a fit"
        )
    theta0 = float(th[0])
    # Initial t0 from where the data first drops to Theta0/4 (exact for -2).
    below = np.nonzero(th <= theta0 / 4.0)[0]
    t0_guess = float(t[below[0]]) if below.size else float(t[-1] / 10.0)
    t0_guess = max(t0_guess, 1e-12)

    def model(tt: Array, log_t0: float, g: float) -> Array:
        return math.log(theta0) + g * np.log1p(tt / math.exp(log_t0))

    from scipy.optimize import curve_fit

    popt, _ = curve_fit(
        model, t, np.log(th), p0=(math.log(t0_guess), -2.0), maxfev=20000
    )
    log_t0, g = popt
    resid = float(np.sqrt(np.mean((model(t, *popt) - np.log(th)) ** 2)))
    return HaffFit(exponent=float(g), t0=float(math.exp(log_t0)), residual=resid)


def sigma_freq(
    velocities: Array,
    bath: BathParams | None,
    tau: float,
    rng: np.random.Generator | None = None,
    max_pairs: int = DEFAULT_SIGMA_PAIRS,
) -> float:
    """Ensemble mean of the total collision frequency Sigma(f)(v).

    Sigma(f)(v) = tau * (|.| convolved with f)(v) + nu(v).  The convolution
    term is the mean of |v_i - v_j| over all N^2 ordered pairs (i = j
    included).  It is the exact double sum when N^2 <= ``max_pairs``, and
    otherwise the mean over ``max_pairs`` independent uniform index pairs,
    an unbiased estimate with standard error sd(|v - w|) / sqrt(max_pairs).
    ``rng`` draws the pairs; it defaults to a fixed generator so records
    stay reproducible.
    """
    vel = np.asarray(velocities, dtype=float)
    n = vel.shape[0]
    total = 0.0
    if tau > 0.0:
        if n * n <= max_pairs:
            conv = float(np.mean(np.linalg.norm(vel[:, None, :] - vel[None, :, :], axis=-1)))
        else:
            if rng is None:
                rng = np.random.default_rng(0)
            i, j = rng.integers(0, n, size=(2, max_pairs))
            d = np.take(vel, i, axis=0) - np.take(vel, j, axis=0)
            conv = float(np.mean(np.sqrt(np.einsum("ij,ij->i", d, d))))
        total += tau * conv
    if bath is not None:
        total += float(np.mean(nu(bath, vel)))
    return total


def third_cumulant(velocities: Array) -> Array:
    """Per-component third central moment E (v_c - u_c)^3 (vector of 3)."""
    vel = np.asarray(velocities, dtype=float)
    centered = vel - vel.mean(axis=0)
    return np.mean(centered**3, axis=0)


def histogram_l1_distance(
    vel_a: Array,
    vel_b: Array,
    bins: int = 32,
    extent: float | None = None,
    center: Array | None = None,
) -> float:
    """L1 distance between the histogram densities of two samples.

    Both samples are binned on the grid derived from their concatenation so
    the estimate is symmetric.
    """
    both = np.concatenate([np.asarray(vel_a, float), np.asarray(vel_b, float)])
    edges = _grid_edges(both, bins, extent, center)
    vol = _cell_volume(edges)
    ca, _ = np.histogramdd(np.asarray(vel_a, float), bins=edges)
    cb, _ = np.histogramdd(np.asarray(vel_b, float), bins=edges)
    fa = ca / (np.asarray(vel_a).shape[0] * vol)
    fb = cb / (np.asarray(vel_b).shape[0] * vol)
    return float(np.sum(np.abs(fa - fb)) * vol)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_records(path: str | Path, records: Sequence[MomentRecord], lp_p: float = 1.5) -> None:
    """Serialize records as CSV with the fixed column order.

    Columns: t, rho, ux, uy, uz, theta, F, Y1, Y1.5, Y2, Y3, L2, Lp, Hquad,
    Hent, sigma.  ``Lp`` is the entry of the record's lp list at order
    ``lp_p``.  Floats are written with shortest round-trip formatting so a
    rerun with the same seed is byte-identical.
    """
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([
                _fmt(rec.t), _fmt(rec.rho),
                _fmt(rec.u[0]), _fmt(rec.u[1]), _fmt(rec.u[2]),
                _fmt(rec.theta), _fmt(rec.f_aux),
                _fmt(rec.y(1.0)), _fmt(rec.y(1.5)), _fmt(rec.y(2.0)), _fmt(rec.y(3.0)),
                _fmt(rec.lp_value(2.0)), _fmt(rec.lp_value(lp_p)),
                _fmt(rec.h_value("quad")), _fmt(rec.h_value("ent")),
                _fmt(rec.sigma_mean),
            ])


def read_records(path: str | Path, lp_p: float = 1.5) -> list[MomentRecord]:
    """Parse a trajectory CSV written by :func:`write_records`."""
    records = []
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_COLUMNS:
            raise ValueError(f"unexpected trajectory header {header!r}")
        for row in reader:
            x = [float(s) for s in row]
            records.append(MomentRecord(
                t=x[0], rho=x[1], u=np.array(x[2:5]), theta=x[5], f_aux=x[6],
                y_r=((1.0, x[7]), (1.5, x[8]), (2.0, x[9]), (3.0, x[10])),
                lp=((2.0, x[11]), (lp_p, x[12])),
                h_phi=(("quad", x[13]), ("ent", x[14])),
                sigma_mean=x[15],
            ))
    return records
