"""Velocity-grid discretization of the linear bath operator.

The gain part of the bath operator has the integral representation

    L+ f(v) = integral of f(w) k(v, w) dw,

where k is built from a planar integral of the bath density F1: with
gamma_c and gamma_bar the pre-collision stretch factors and
g = (1 - 2 gamma_bar) / (2 gamma_c),

    k(v, w) = 1 / (4 pi lambda e^2 gamma_c^2 |v - w|)
              * integral of F1 over the plane through v + g (w - v)
                orthogonal to (w - v).

(Equivalently 1 / (4 pi lambda kappa^2 |v - w|): e gamma_c = kappa is an
identity.)  The normalization is fixed by the column identity

    integral of k(v, w) dv = nu(w),

i.e. gain and loss balance so the operator conserves mass; the 1/(4 pi)
is the uniform sphere average in the collision kernel and 1/lambda is the
mean-free-path scale of nu.  For a Maxwellian bath the planar integral
collapses to a 1-D Gaussian marginal, giving the closed form used
throughout; an independent 2-D tensor quadrature of the same planar
integral serves as its oracle.

On a cube grid the loss term is exact (nu at nodes) and the gain matrix
K[i][j] = k(v_i, v_j) h^3 gets its singular diagonal renormalized per
column so every column sums to nu exactly: the discrete operator then
conserves mass for every f, and the kernel's detailed balance at e = 1,
m1 = 1 makes the grid Maxwellian an exact nodewise fixed point.

Node separations are integer multiples of h, so every row of K is read off
one table of lattice separations; the grid keeps only the octahedral orbit
reduction of K, and the dense matrix is built on request.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .background import BathParams, bath_density, nu
from .kinematics import RestitutionParams, _orthonormal_frame

__all__ = [
    "KernelGrid",
    "SteadyState",
    "KernelBuildError",
    "ConvergenceError",
    "kernel_closed_form",
    "kernel_quadrature",
    "make_grid",
    "dense_matrix",
    "steady_state",
    "write_grid_csv",
]

Array = np.ndarray


class KernelBuildError(RuntimeError):
    """Raised when the discrete kernel cannot be assembled consistently."""


class ConvergenceError(RuntimeError):
    """Fixed-point iteration failed; carries the last iterate and residual."""

    def __init__(self, message: str, last_iterate: Array, residual: float):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


def _stretch_offset(restitution: RestitutionParams) -> float:
    """The plane offset g = (1 - 2 gamma_bar) / (2 gamma_c)."""
    return (1.0 - 2.0 * restitution.gamma_bar) / (2.0 * restitution.gamma_c)


def _kernel_safe(
    v: Array, w: Array, restitution: RestitutionParams, bath: BathParams
) -> Array:
    """Closed-form kernel with the r = 0 diagonal mapped to 0.

    Evaluated over all node pairs at once it gives the off-diagonal gain
    matrix directly (the coincident pairs are exactly the diagonal entries,
    which the column renormalization replaces anyway); that all-pairs form
    is the reference for the lattice rows of the grid assembly.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    d = w - v
    r = np.linalg.norm(d, axis=-1)
    zero = r == 0.0
    r_safe = np.where(zero, 1.0, r)
    g = _stretch_offset(restitution)
    s2 = bath.theta1 / bath.m1
    # Signed distance from u1 to the plane through v + g (w - v), normal
    # along (w - v); the planar Gaussian integral is the 1-D marginal there.
    p = np.sum((v - bath.u1) * d, axis=-1) / r_safe + g * r
    pref = 1.0 / (
        4.0 * math.pi * bath.lambda_
        * restitution.e**2 * restitution.gamma_c**2 * r_safe
    )
    out = pref * np.exp(-0.5 * p**2 / s2) / math.sqrt(2.0 * math.pi * s2)
    return np.where(zero, 0.0, out)


def kernel_closed_form(
    v: Array, w: Array, restitution: RestitutionParams, bath: BathParams
) -> Array:
    """Scattering kernel k(v, w) for a Maxwellian bath (closed form).

    Broadcasts over leading dimensions of (..., 3) inputs.  Singular on the
    diagonal: |v - w| = 0 raises.
    """
    if bath.kind != "maxwellian":
        raise ValueError("closed-form kernel requires a Maxwellian bath")
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if np.any(np.linalg.norm(np.asarray(w) - v, axis=-1) == 0.0):
        raise ValueError("kernel is singular at v = w")
    return _kernel_safe(v, w, restitution, bath)


def kernel_quadrature(
    v: Array,
    w: Array,
    restitution: RestitutionParams,
    bath: BathParams,
) -> float:
    """Scattering kernel via direct 2-D quadrature of the planar integral.

    Independent oracle for :func:`kernel_closed_form`: tensor
    Gauss-Legendre quadrature, 96 nodes per axis, of the Maxwellian bath
    density over the plane through v + g (w - v) orthogonal to w - v,
    centered on the in-plane projection of the bath mean and spanning 11
    thermal widths each way.  A table raises ValueError, as
    :func:`~granular_bath.background.bath_density` does.
    """
    n_quad, span = 96, 11.0
    v = np.asarray(v, dtype=float).reshape(3)
    w = np.asarray(w, dtype=float).reshape(3)
    d = w - v
    r = float(np.linalg.norm(d))
    if r == 0.0:
        raise ValueError("kernel is singular at v = w")
    e_hat = d / r
    g = _stretch_offset(restitution)
    x0 = v + g * d
    e1, e2 = _orthonormal_frame(e_hat)
    # Center the rule where the in-plane Gaussian mass sits.
    rel = bath.u1 - x0
    center = x0 + (rel @ e1) * e1 + (rel @ e2) * e2
    s = bath.sigma_th
    x, wts = np.polynomial.legendre.leggauss(n_quad)
    a = span * s * x
    wa = span * s * wts
    pts = (
        center
        + a[:, None, None] * e1[None, None, :]
        + a[None, :, None] * e2[None, None, :]
    )
    dens = bath_density(bath, pts.reshape(-1, 3)).reshape(n_quad, n_quad)
    planar = float(wa @ dens @ wa)
    pref = 1.0 / (
        4.0 * math.pi * bath.lambda_ * restitution.e**2 * restitution.gamma_c**2 * r
    )
    return pref * planar


@dataclass
class KernelGrid:
    """Cube velocity grid carrying the discretized bath operator.

    Node coordinates are cell centers u1 + (i - (n-1)/2) h per axis with
    h = 2 extent_sigma sqrt(Theta1/m1) / n, extent_sigma the half-width
    :func:`make_grid` was given; even n keeps nodes off the symmetry
    planes.  The operator is stored as its octahedral orbit
    reduction (``reduced``) and the renormalized diagonal (``diag``), which
    is what makes 48^3 steady-state iteration affordable; the full n^3 x n^3
    matrix is built only on request, by :func:`dense_matrix`.
    """

    restitution: RestitutionParams
    bath: BathParams
    n: int
    axes: list[Array]
    nodes: Array
    h: float
    nu_vec: Array
    diag: Array  # renormalized diagonal entries, per node
    orbit_index: Array  # node -> orbit id
    orbit_mult: Array  # orbit -> node count
    rep_index: Array  # orbit -> representative node
    reduced: Array  # (n_orb, n_orb): row r = sums of K[rep_r, .] per orbit

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def cell_volume(self) -> float:
        return self.h**3

    def maxwellian(self) -> Array:
        """Grid Maxwellian at (u1, Theta1/m1), normalized to unit cell mass."""
        f = bath_density(self.bath, self.nodes)
        return f / (f.sum() * self.cell_volume)


# Kernel values per block of rows of make_grid: 2 MB, one core's L2 cache;
# 8 rows at n = 32.
_GRID_BLOCK_ENTRIES = 1 << 18


class _Lattice:
    """Off-diagonal gain-matrix rows K[v, .] = k(v, .) h^3 of a cube grid.

    Node separations are integer multiples of h.  For a row node (a, b, c)
    the column separations along an axis run from -a to n-1-a, so the
    distances |w - v| over all columns are one slice of a table of lattice
    distances over separations -(reach-1) .. n-1 per axis, for rows with
    every index below ``reach`` (n, the default, serves every row).
    (v - u1).(w - v) is a sum of three 1-D axis vectors.  A row costs a few
    passes over n^3 values and no per-pair coordinate temporaries.  The
    coincident pair (the diagonal) gets 0, as in ``_kernel_safe``.
    """

    def __init__(
        self, restitution: RestitutionParams, bath: BathParams, n: int, h: float,
        reach: int | None = None,
    ):
        self.n = n
        self.h = h
        self.reach = n if reach is None else reach
        self.steps = np.arange(n, dtype=float)
        self.offsets = (self.steps - 0.5 * (n - 1)) * h
        sq = np.arange(-(self.reach - 1), n, dtype=float) ** 2
        r = sq[:, None, None] + sq[None, :, None] + sq[None, None, :]
        np.sqrt(r, out=r)
        r *= h
        inv_r = np.divide(1.0, r, out=np.zeros_like(r), where=r > 0.0)
        s2 = bath.theta1 / bath.m1
        self.pref = np.multiply(inv_r, h**3)
        self.pref /= (
            4.0 * math.pi * bath.lambda_
            * restitution.e**2 * restitution.gamma_c**2
            * math.sqrt(2.0 * math.pi * s2)
        )
        # exp(-p^2 / (2 s2)) with p = (v - u1).d / r + g r: the tables carry
        # the 1 / sqrt(2 s2) so a row needs only exp(-p'^2).  Scaled in
        # place, with the same scalar products as out of place.
        scale = 1.0 / math.sqrt(2.0 * s2)
        inv_r *= scale
        r *= scale * _stretch_offset(restitution)
        self.inv_r, self.g_r = inv_r, r

    def rows(self, nodes: Iterable[int], out: Array) -> Array:
        """Fill ``out[i]`` with the row of node ``nodes[i]``; returns ``out``."""
        n, top = self.n, self.reach - 1
        for row, node in zip(out, nodes):
            a, rest = divmod(int(node), n * n)
            b, c = divmod(rest, n)
            if max(a, b, c) > top:
                raise ValueError(f"node {node} lies beyond the lattice reach {self.reach}")
            span = tuple(slice(top - k, top - k + n) for k in (a, b, c))
            dx, dy, dz = (
                self.offsets[k] * (self.steps - k) * self.h for k in (a, b, c)
            )
            p = row.reshape(n, n, n)
            np.add(dx[:, None, None], dy[:, None] + dz[None, :], out=p)
            p *= self.inv_r[span]
            p += self.g_r[span]
            np.square(p, out=p)
            np.negative(p, out=p)
            np.exp(p, out=p)
            p *= self.pref[span]
        return out


def _fold_mirror(rows: Array, axis: int) -> Array:
    """Add each node's value to its mirror image through the bath mean along
    ``axis``, in place; returns the view of the half with nonnegative offsets
    (the center plane of an odd grid is its own mirror and is kept once)."""
    n = rows.shape[axis]
    half = n // 2

    def cut(sl: slice) -> tuple[slice, ...]:
        return (slice(None),) * axis + (sl,)

    out = rows[cut(slice(half, None))]
    out[cut(slice(n % 2, None))] += rows[cut(slice(half - 1, None, -1))]
    return out


def _orbit_decomposition(n: int) -> tuple[Array, Array, Array]:
    """Octahedral orbits of the centered cube grid.

    Nodes with the same sorted absolute coordinate triple (in units of h,
    which are half-integers for even n) map into each other under the 48
    axis permutations and sign flips that fix the bath mean; the kernel and
    nu are invariant under these, so one representative per orbit suffices.
    Orbits are numbered in the lexicographic order of their triples, and
    each is represented by its first node in C order.
    """
    # Doubled |offsets| are integers in [0, n - 1]: exact keys in base n + 1.
    a = np.abs(2 * np.arange(n) - (n - 1))
    x, y, z = a[:, None, None], a[None, :, None], a[None, None, :]
    lo = np.minimum(np.minimum(x, y), z)
    hi = np.maximum(np.maximum(x, y), z)
    mid = x + y + z - lo - hi
    keys = (lo * (n + 1) + mid) * (n + 1) + hi
    _, rep_index, orbit_index, orbit_mult = np.unique(
        keys.ravel(), return_index=True, return_inverse=True, return_counts=True
    )
    return orbit_index, orbit_mult, rep_index


_DEFECT_LIMIT = 0.05


def _check_column_defect(defect: Array, nu_col: Array) -> None:
    """Reject kernels whose lattice column sums overshoot nu grossly.

    ``defect = nu - sum_i k(v_i, w) h^3`` is what column renormalization
    places on the diagonal.  Midpoint quadrature on far-tail columns can
    leave it marginally negative (sub-percent of nu); a defect beyond a few
    percent of nu means the kernel itself is mis-normalized.
    """
    rel = defect / nu_col
    worst = float(rel.min())
    if worst < -_DEFECT_LIMIT:
        raise KernelBuildError(
            f"kernel column sums overshoot nu by {-worst:.3e} (relative); "
            f"the closed-form kernel is mis-normalized"
        )


def make_grid(
    restitution: RestitutionParams,
    bath: BathParams,
    n: int = 48,
    extent_sigma: float = 8.0,
) -> KernelGrid:
    """Assemble the discrete operator on an n^3 grid spanning +-extent_sigma
    thermal widths around the bath mean.

    The singular diagonal of the gain matrix is renormalized per column so
    that column j sums exactly to nu_j.  This keeps the assembled operator
    mass-conserving for every density and makes the elastic equal-mass
    Maxwellian an exact fixed point.  On interior columns the renormalized
    diagonal is positive; on far-tail columns (several thermal widths out,
    where the kernel is a thin ridge in the gain variable) the midpoint
    lattice sum can overshoot the continuum column integral by up to ~1% of
    nu, leaving a marginally negative diagonal there.  That overshoot is a
    benign quadrature artifact; the build only fails when the defect exceeds
    a few percent of nu, which indicates a genuinely wrong kernel rather
    than coarse resolution.

    Only the rows of the orbit representatives are evaluated, in blocks of
    2^18 kernel values (2 MB; 8 rows at n = 32), and each block is folded in
    place into per-orbit sums.  A representative has indices below
    ceil(n/2) on each axis, so its rows read separations -(ceil(n/2) - 1)
    .. n-1 per axis only, and the three lattice tables are sized to that
    reach (47^3 values, 0.83 MB each, at n = 32).  Besides the node arrays,
    the build holds at once one block, these tables and the (n_orb, n_orb)
    reduced matrix (5.3 MB at n = 32).
    """
    if bath.kind != "maxwellian":
        raise ValueError("kernel grids require a Maxwellian bath")
    if n < 4:
        raise ValueError(f"grid needs at least 4 nodes per axis, got {n}")
    if not (math.isfinite(extent_sigma) and extent_sigma > 0.0):
        raise ValueError(f"extent_sigma must be positive and finite, got {extent_sigma}")
    s = bath.sigma_th
    h = 2.0 * extent_sigma * s / n
    offsets = (np.arange(n) - 0.5 * (n - 1)) * h
    axes = [bath.u1[d] + offsets for d in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    n_nodes = nodes.shape[0]
    nu_vec = nu(bath, nodes)
    h3 = h**3

    orbit_index, orbit_mult, rep_index = _orbit_decomposition(n)
    n_orb = orbit_mult.size
    # After folding out the three mirror planes through the bath mean, the
    # cells left are the nodes with nonnegative offsets; this is their orbit.
    half = n // 2
    cell_orbit = orbit_index.reshape(n, n, n)[half:, half:, half:].ravel()

    lattice = _Lattice(restitution, bath, n, h, reach=(n + 1) // 2)
    reduced = np.empty((n_orb, n_orb))
    step = max(1, _GRID_BLOCK_ENTRIES // n_nodes)
    block = np.empty((min(step, n_orb), n_nodes))
    for lo in range(0, n_orb, step):
        hi = min(lo + step, n_orb)
        rows = lattice.rows(rep_index[lo:hi], block[: hi - lo]).reshape(-1, n, n, n)
        for axis in (1, 2, 3):
            rows = _fold_mirror(rows, axis)
        # One bincount folds the whole block: row i's bins start at i * n_orb.
        bins = cell_orbit + n_orb * np.arange(hi - lo)[:, None]
        reduced[lo:hi] = np.bincount(
            bins.ravel(), weights=rows.ravel(), minlength=(hi - lo) * n_orb
        ).reshape(hi - lo, n_orb)
    # Octahedral invariance K[g v, g w] = K[v, w] gives every column sum from
    # the orbit-summed rows: sum_i K[i, rep_s] = sum_r mult_r reduced[r, s] / mult_s.
    mult = orbit_mult.astype(float)
    nu_rep = nu_vec[rep_index]
    defect = nu_rep - (mult @ reduced) / mult
    _check_column_defect(defect, nu_rep)
    reduced[np.arange(n_orb), np.arange(n_orb)] += defect
    return KernelGrid(
        restitution=restitution, bath=bath, n=n, axes=axes, nodes=nodes, h=h,
        nu_vec=nu_vec, diag=(defect / h3)[orbit_index],
        orbit_index=orbit_index, orbit_mult=orbit_mult, rep_index=rep_index,
        reduced=reduced,
    )


_DENSE_MAX_NODES = 5000  # 200 MB of matrix; the n^6 matrix outgrows memory fast


def dense_matrix(grid: KernelGrid) -> Array:
    """The full gain matrix K, renormalized diagonal in place, built on request.

    Column j sums to nu_j.  Only data without octahedral symmetry needs it
    (``steady_state`` with explicit initial data); grids above 5000 nodes
    are refused, because the matrix grows as n^6.
    """
    if grid.n_nodes > _DENSE_MAX_NODES:
        raise ValueError(
            f"the dense matrix of a {grid.n}^3 grid ({grid.n_nodes} nodes) is "
            f"built only up to {_DENSE_MAX_NODES} nodes; build a smaller grid"
        )
    lattice = _Lattice(grid.restitution, grid.bath, grid.n, grid.h)
    kmat = lattice.rows(range(grid.n_nodes), np.empty((grid.n_nodes, grid.n_nodes)))
    kmat[np.diag_indices(grid.n_nodes)] = grid.diag * grid.cell_volume
    return kmat


@dataclass(frozen=True)
class SteadyState:
    """Normalized nonnegative fixed point of the discrete bath operator."""

    f: Array
    theta: float
    u: Array
    iterations: int
    residual: float


def _grid_moments(grid: KernelGrid, f: Array) -> tuple[Array, float]:
    h3 = grid.cell_volume
    u = grid.nodes.T @ f * h3
    theta = float(np.sum(f * np.sum((grid.nodes - u) ** 2, axis=1)) * h3 / 3.0)
    return u, theta


def steady_state(
    grid: KernelGrid,
    f0: Array | None = None,
    tol: float = 1e-10,
    max_iter: int = 50_000,
) -> SteadyState:
    """Fixed-point iteration F <- normalize(diag(nu)^-1 K F) to the steady state.

    Nonnegativity and unit mass hold at every iterate (negative values the
    marginally negative far-tail diagonal may produce are clipped before
    normalization); successive-iterate L1 distance below ``tol`` stops the
    loop.  With no ``f0`` the iteration starts from the grid Maxwellian:
    the L1 stopping rule weights far-tail nodes by their (tiny) density, so
    a start many orders of magnitude off there -- a flat start is ~1e25 off
    at the corners -- would stop while the tail is still relatively wrong,
    whereas the Maxwellian start is exact in the elastic equal-mass case
    and tail-accurate otherwise.  With no ``f0`` the iteration also runs in
    the octahedral-orbit subspace, on the reduced matrix (the steady state
    is symmetric).  Asymmetric initial data can be supplied explicitly to
    exercise uniqueness; that iterates on :func:`dense_matrix`, so it needs
    a grid of at most 5000 nodes.  Initial data that are not finite,
    nonnegative node values with positive mass raise ValueError, as do a
    ``max_iter`` below 1 and a ``tol`` that is not positive and finite.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    # The iterate g holds one value per orbit (weights: orbit sizes) or one
    # per node (weights 1, exact in every product below); ``nodes`` maps it
    # back to node values.
    if f0 is None:
        op, nu_g = grid.reduced, grid.nu_vec[grid.rep_index]
        weights, nodes = grid.orbit_mult.astype(float), grid.orbit_index
        g = grid.maxwellian()[grid.rep_index]
    else:
        g = np.array(f0, dtype=float).reshape(-1)
        if (g.size != grid.n_nodes or not np.all(np.isfinite(g))
                or np.any(g < 0.0) or g.sum() <= 0.0):
            raise ValueError("f0 must be nonnegative node values with positive mass")
        op, nu_g = dense_matrix(grid), grid.nu_vec
        weights, nodes = np.ones(grid.n_nodes), slice(None)
    h3 = grid.cell_volume
    g /= float((weights * g).sum() * h3)
    for it in range(1, max_iter + 1):
        g_new = np.maximum(op @ g / nu_g, 0.0)
        g_new /= float((weights * g_new).sum() * h3)
        dist = float((weights * np.abs(g_new - g)).sum() * h3)
        g = g_new
        if dist < tol:
            f = g[nodes]
            u, theta = _grid_moments(grid, f)
            return SteadyState(f=f, theta=theta, u=u, iterations=it, residual=dist)
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations (residual {dist:.3e})",
        last_iterate=g[nodes], residual=dist,
    )


def write_grid_csv(path: str | Path, grid: KernelGrid, f: Array) -> None:
    """Write node values in the tabulated-density CSV format (round-trip capable)."""
    f = np.asarray(f, dtype=float).reshape(-1)
    if f.size != grid.n_nodes:
        raise ValueError(f"expected {grid.n_nodes} node values, got {f.size}")
    # The nodes are the C-order product of the axes, so each axis value is
    # formatted once; Python floats, whose repr is the shortest round trip.
    # One x-plane of lines is held at a time.
    x, y, z = ([repr(c) for c in ax.tolist()] for ax in grid.axes)
    tails = [f"{b},{c}," for b in y for c in z]
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write("vx,vy,vz,density\n")
        for a, plane in zip(x, f.reshape(len(x), -1).tolist()):
            fh.write("".join([f"{a},{t}{d!r}\n" for t, d in zip(tails, plane)]))
