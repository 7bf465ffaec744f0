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
from typing import Callable, Sequence

import numpy as np

from .background import BathParams, c0, nu
from .kinematics import RestitutionParams, _sq_norm

__all__ = [
    "MomentRecord",
    "BoundParams",
    "HaffFit",
    "DegenerateParameterError",
    "FitRefusedError",
    "SupportMismatchError",
    "moments",
    "f_aux",
    "f_aux_stderr",
    "bound_params",
    "Histogram",
    "thermal_extent",
    "bin_counts",
    "histogram",
    "box_edges",
    "reference_on_cells",
    "lp_norm",
    "h_phi",
    "haff_fit",
    "sigma_freq",
    "third_cumulant",
    "write_records",
    "read_records",
    "CSV_COLUMNS",
]

Array = np.ndarray

DEFAULT_SIGMA_PAIRS = 2**17

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


class SupportMismatchError(ValueError):
    """Raised when the reference density vanishes on occupied histogram cells."""


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

    rho is accumulated from the 1/N particle weights (so the recorded value
    carries honest accumulation rounding); u is the mean velocity;
    Theta = (1/3) mean |v - u|^2; Y_r = mean |v|^(2r) for r = 1, 1.5, 2, 3,
    formed from |v|^2 by products and one square root.
    """
    vel = np.asarray(velocities, dtype=float)
    if vel.ndim != 2 or vel.shape[1] != 3 or vel.shape[0] < 2:
        raise ValueError(f"velocities must be (N >= 2, 3), got shape {vel.shape}")
    n = vel.shape[0]
    rho = float(np.sum(np.full(n, 1.0 / n)))
    u = vel.mean(axis=0)
    dev = np.empty_like(vel)
    for i in range(3):
        np.subtract(vel[:, i], u[i], out=dev[:, i])
    dev *= dev
    theta = float(np.sum(dev) / (3.0 * n))
    del dev
    s2 = _sq_norm(vel)
    s4 = s2 * s2
    return MomentRecord(
        t=float(t), rho=rho, u=u, theta=theta,
        y1=float(np.mean(s2)),
        y1_5=float(np.mean(s2 * np.sqrt(s2))),
        y2=float(np.mean(s4)),
        y3=float(np.mean(s4 * s2)),
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
    """Per-axis edges of ``bins`` cells spanning ``center +- extent``."""
    center = np.asarray(center, dtype=float).reshape(3)
    return tuple(np.linspace(c - extent, c + extent, bins + 1) for c in center)


def _cell_volume(edges: Sequence[Array]) -> float:
    return float(np.prod([e[1] - e[0] for e in edges]))


def bin_counts(velocities: Array, edges: Sequence[Array]) -> Array:
    """Counts of an (N, 3) sample in the cells between per-axis uniform
    ``edges``, equal to ``np.histogramdd``'s (the last cell holds its upper
    edge): each cell index is computed by arithmetic and corrected by one
    step against the edges, with no ``searchsorted``."""
    vel = np.asarray(velocities, dtype=float)
    flat = np.zeros(vel.shape[0], dtype=np.intp)
    inside = np.ones(vel.shape[0], dtype=bool)
    for d, e in enumerate(edges):
        x, bins = vel[:, d], e.size - 1
        i = np.floor((x - e[0]) * (bins / (e[-1] - e[0])))
        i = np.fmin(np.fmax(i, 0), bins - 1).astype(np.intp)  # NaN -> 0, then dropped
        i -= x < e[i]
        i += (x >= e[i + 1]) & (i < bins - 1)
        inside &= (x >= e[0]) & (x <= e[-1])
        flat = flat * bins + i
    shape = [e.size - 1 for e in edges]
    return np.bincount(flat[inside], minlength=math.prod(shape)).reshape(shape)


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


def histogram(velocities: Array, bins: int, extent: float, center: Array) -> Histogram:
    """Histogram of a sample on the cube ``center +- extent`` with ``bins``
    cells per axis."""
    return _histogram_on(velocities, box_edges(center, extent, bins))


def _histogram_on(velocities: Array, edges: tuple[Array, Array, Array]) -> Histogram:
    """Histogram of a sample on the cells between per-axis uniform ``edges``."""
    vel = np.asarray(velocities, dtype=float)
    counts = bin_counts(vel, edges)
    n = vel.shape[0]
    return Histogram(density=counts / (n * _cell_volume(edges)), edges=edges, n=n)


def reference_on_cells(reference: Callable[[Array], Array], edges: Sequence[Array]) -> Array:
    """A reference density evaluated at the centres of the cells between
    ``edges``, shaped like a histogram on them: the array form of
    ``reference`` that :func:`h_phi` takes for every histogram on those
    cells."""
    centers = [0.5 * (e[1:] + e[:-1]) for e in edges]
    gx, gy, gz = np.meshgrid(*centers, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    return np.asarray(reference(pts), dtype=float).reshape(gx.shape)


def lp_norm(hist: Histogram, p: float) -> float:
    """Histogram estimate of the L^p norm (sum f^p * cellvol)^(1/p), p > 1;
    NaN for an empty histogram."""
    if not (p > 1.0 and math.isfinite(p)):
        raise ValueError(f"p must lie in (1, inf), got {p}")
    density, vol = hist.density, hist.cell_volume
    if density.sum() * vol <= 0.0:
        return math.nan
    return float(np.sum(density**p) * vol) ** (1.0 / p)


_PHI = {
    "quad": (lambda x: (x - 1.0) ** 2, 1.0),  # Phi and Phi(0)
    # x log x - x + 1 rather than bare x log x: identical when sample and
    # reference carry equal mass, but pointwise nonnegative, so histogram
    # truncation (masses differing at the 1e-3 level) cannot push the
    # estimate below zero.
    "ent": (lambda x: x * np.log(x) - x + 1.0, 1.0),
}


def h_phi(
    hist: Histogram,
    reference: Array,
    phi: str = "quad",
    bias_correct: bool = False,
) -> float:
    """Histogram estimate of the convex functional H_Phi(f | F).

    H = sum over cells of vol * F * Phi(fhat / F), with Phi either
    (x - 1)^2 ("quad") or x log x - x + 1 ("ent").  ``reference`` holds the
    reference density on the cells of ``hist``, shaped like its density
    (:func:`reference_on_cells`).  Cells where fhat > 0 but the reference
    vanishes raise SupportMismatchError.  Empty cells contribute
    vol * F * Phi(0).

    ``bias_correct`` (quadratic Phi only) subtracts the plug-in estimate of
    the multinomial sampling bias  (1/N) sum fhat (1 - fhat vol) / F, whose
    magnitude is roughly (occupied cells)/N; the corrected estimator can go
    slightly negative when the true H is below the noise floor.
    """
    if phi not in _PHI:
        raise ValueError(f"phi must be one of {sorted(_PHI)}, got {phi!r}")
    density, vol = hist.density, hist.cell_volume
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


@functools.lru_cache(maxsize=1)
def _pair_table(n: int, max_pairs: int) -> tuple[Array, Array]:
    """The default pair sample of ``sigma_freq``: ``max_pairs`` index pairs
    drawn by ``default_rng(0)``, the same for every record of N particles
    (read-only, kept for the last (N, ``max_pairs``) asked for)."""
    table = np.random.default_rng(0).integers(0, n, size=(2, max_pairs))
    table.flags.writeable = False
    return table[0], table[1]


def _pair_distances(vel: Array, i: Array, j: Array) -> Array:
    """|vel[i] - vel[j]| for the index pairs (i, j).

    Each velocity column is copied once to a contiguous array and gathered
    at i and at j on its own; the squares are summed (d0^2 + d2^2) + d1^2,
    the order of ``einsum("ij,ij->i", d, d)`` on whole gathered rows, so the
    result is bitwise equal to that form.  Indexing, not ``np.take``: take
    copies a read-only index array such as the cached pair table.
    """
    total = None
    for c in (0, 2, 1):
        col = np.ascontiguousarray(vel[:, c])
        d = col[i]
        d -= col[j]
        d *= d
        if total is None:
            total = d
        else:
            total += d
    return np.sqrt(total, out=total)


def sigma_freq(velocities: Array, bath: BathParams | None, tau: float) -> float:
    """Ensemble mean of the total collision frequency Sigma(f)(v).

    Sigma(f)(v) = tau * (|.| convolved with f)(v) + nu(v).  The convolution
    term is the mean of |v_i - v_j| over all N^2 ordered pairs (i = j
    included).  It is the exact double sum when N^2 <= DEFAULT_SIGMA_PAIRS
    (2^17), and otherwise the mean over DEFAULT_SIGMA_PAIRS uniform index
    pairs, an unbiased estimate with standard error
    sd(|v - w|) / sqrt(DEFAULT_SIGMA_PAIRS).  The pairs come from one fixed
    table per N, the draws of ``default_rng(0)``, so every record of a run
    averages over the same index pairs.  The nu term is the mean of
    :func:`~granular_bath.background.nu` over all N velocities.
    """
    vel = np.asarray(velocities, dtype=float)
    n = vel.shape[0]
    total = 0.0
    if tau > 0.0:
        if n * n <= DEFAULT_SIGMA_PAIRS:
            conv = float(np.mean(np.linalg.norm(vel[:, None, :] - vel[None, :, :], axis=-1)))
        else:
            i, j = _pair_table(n, DEFAULT_SIGMA_PAIRS)
            conv = float(np.mean(_pair_distances(vel, i, j)))
        total += tau * conv
    if bath is not None:
        total += float(np.mean(nu(bath, vel)))
    return total


def third_cumulant(velocities: Array) -> Array:
    """Per-component third central moment E (v_c - u_c)^3 (vector of 3)."""
    vel = np.asarray(velocities, dtype=float)
    centered = vel - vel.mean(axis=0)
    return np.mean(centered**3, axis=0)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_records(path: str | Path, records: Sequence[MomentRecord]) -> None:
    """Serialize records as CSV with the fixed column order.

    Columns: t, rho, ux, uy, uz, theta, F, Y1, Y1.5, Y2, Y3, L2, Lp, Hquad,
    Hent, sigma, one per :class:`MomentRecord` field (``Lp`` is p = 1.5).
    Floats are written with shortest round-trip formatting so a rerun with
    the same seed is byte-identical.
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
