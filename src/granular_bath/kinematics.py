"""Collision maps and sphere-averaged collision kernels for a granular gas.

A gas particle (unit mass) collides inelastically either with another gas
particle (restitution coefficient ``epsilon``) or with a thermal-bath
particle of mass ``m1`` (restitution coefficient ``e``).  Post-collision
velocities follow from momentum conservation plus the restitution law
``(v' - w') . n = -e (v - w) . n`` for the normal component of the relative
velocity.

The sphere averages are weak-form building blocks: for a test function
``psi`` they integrate the collision gain over all impact directions with a
Gauss-Legendre (polar) x uniform-angle (azimuthal) product rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "RestitutionParams",
    "VelocityPair",
    "collide_q",
    "collide_l_sigma",
    "collide_l_n",
    "sphere_quadrature",
    "sphere_average_q",
    "sphere_average_l",
    "energy_split_check",
]

Array = np.ndarray

_UNIT_TOL = 1e-12
_SPHERE_ORDER = 64  # nodes per factor of the sphere averages' product rule
_FORM_TOL = 1e-8  # sphere_average_l's sigma/n form gap; ~1e-14 at order 64


@dataclass(frozen=True)
class RestitutionParams:
    """Restitution coefficients and the derived collision coefficients.

    Parameters
    ----------
    epsilon : float
        Gas-gas restitution coefficient, in (0, 1].  epsilon = 1 is elastic.
    e : float
        Gas-bath restitution coefficient, in (0, 1].
    m1 : float
        Mass of a bath particle; gas particles have unit mass.

    Derived fields (computed, never passed in): ``zeta = (1+epsilon)/2``,
    ``alpha = m1/(1+m1)`` (reduced-mass weight), ``beta = (1-e)/2``,
    ``kappa = alpha*(1-beta)`` and ``kappa_bar = (1-alpha)*(1-beta)`` (the
    momentum-transfer coefficients of the bath collision for the gas and the
    bath particle), and the pre-collision stretch factors
    ``gamma_c = kappa/(1-2*beta)``, ``gamma_bar = kappa_bar/(1-2*beta)``
    (note ``1 - 2*beta = e``, so e > 0 keeps them finite).
    """

    epsilon: float
    e: float
    m1: float
    zeta: float = field(init=False)
    alpha: float = field(init=False)
    beta: float = field(init=False)
    kappa: float = field(init=False)
    kappa_bar: float = field(init=False)
    gamma_c: float = field(init=False)
    gamma_bar: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("epsilon", "e", "m1"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if not 0.0 < self.e <= 1.0:
            raise ValueError(f"e must lie in (0, 1], got {self.e}")
        if self.m1 <= 0.0:
            raise ValueError(f"m1 must be positive, got {self.m1}")
        object.__setattr__(self, "zeta", 0.5 * (1.0 + self.epsilon))
        object.__setattr__(self, "alpha", self.m1 / (1.0 + self.m1))
        object.__setattr__(self, "beta", 0.5 * (1.0 - self.e))
        object.__setattr__(self, "kappa", self.alpha * (1.0 - self.beta))
        object.__setattr__(self, "kappa_bar", (1.0 - self.alpha) * (1.0 - self.beta))
        object.__setattr__(self, "gamma_c", self.kappa / (1.0 - 2.0 * self.beta))
        object.__setattr__(self, "gamma_bar", self.kappa_bar / (1.0 - 2.0 * self.beta))


class VelocityPair(NamedTuple):
    """A (v, w) velocity pair; each entry has trailing dimension 3."""

    v: Array
    w: Array


def _sq_norm(x: Array, centre: Array | None = None) -> Array:
    """|x - centre|^2 over the last axis of a (..., 3) array.

    ``centre`` is an array broadcastable to ``x`` (one 3-vector or rows like
    ``x``); it defaults to 0.  Each component is formed on its own, so the
    leading axes are numpy's inner loop, and the squares are summed as
    (d0 d0 + d1 d1) + d2 d2 with d = x - centre.  That is bitwise equal to
    ``np.sum((x - centre) ** 2, axis=-1)`` and to the square under
    ``np.linalg.norm(x - centre, axis=-1)``.
    """
    # One 3-vector broadcasts to x's own shape; np.broadcast_shapes costs
    # microseconds of Python per call, and a full step makes about ten.
    if centre is None or centre.shape == (3,):
        lead = x.shape
    else:
        lead = np.broadcast_shapes(x.shape, centre.shape)
    total = np.empty(lead[:-1])
    part = np.empty(lead[:-1])
    for i, out in enumerate((total, part, part)):
        if centre is None:
            np.multiply(x[..., i], x[..., i], out=out)
        else:
            np.subtract(x[..., i], centre[..., i], out=out)
            out *= out
        if i:
            total += out
    return total[()]


def _check_unit(direction: Array, name: str) -> None:
    dev = np.abs(np.sqrt(_sq_norm(direction)) - 1.0)
    if np.any(dev > _UNIT_TOL):
        worst = float(np.max(dev))
        raise ValueError(
            f"{name} must be a unit vector (|1 - |{name}|| <= {_UNIT_TOL:g}); "
            f"worst deviation {worst:.3e}"
        )


def _uniform_sphere(rng: np.random.Generator, k: int) -> Array:
    """``k`` directions uniform on the unit sphere, as a (k, 3) array, by
    Marsaglia's method (Ann. Math. Statist. 43, 1972), without trig.

    A batch draws ``x = rng.uniform(-1.0, 1.0, (2, n))``, n = int(1.3 need)
    + 16 for the ``need`` rows still missing, and keeps, in order, the first
    ``need`` columns with s = x0^2 + x1^2 < 1 (a share pi/4).  Each gives
    sigma = (x0 r, x1 r, 1 - 2 s) with r = 2 sqrt(1 - s), so |sigma| = 1 to
    a few ulp.  The rare batch that keeps too few is topped up by the next,
    so the number of uniforms drawn varies, and a seed fixes it.
    """
    sigma = np.empty((k, 3))
    filled = 0
    while filled < k:
        need = k - filled
        x = rng.uniform(-1.0, 1.0, (2, int(1.3 * need) + 16))
        s = x[0] * x[0]
        s += x[1] * x[1]
        keep = np.flatnonzero(s < 1.0)[:need]
        s = s.take(keep)
        r = np.sqrt(1.0 - s)
        r += r
        out = sigma[filled : filled + keep.size]
        np.multiply(x.take(keep, axis=1), r, out=out[:, :2].T)
        np.multiply(s, -2.0, out=out[:, 2])
        out[:, 2] += 1.0
        filled += keep.size
    return sigma


def _delta(q: Array, sigma: Array) -> Array:
    """|q| sigma - q, one component at a time as in :func:`_sq_norm`; broadcasts."""
    qn = np.sqrt(_sq_norm(q))
    delta = np.empty(np.broadcast_shapes(q.shape, sigma.shape))
    for i in range(3):
        di = delta[..., i]
        np.multiply(qn, sigma[..., i], out=di)
        di -= q[..., i]
    return delta


def _apply(v: Array, w: Array, delta: Array, a: float, b: float) -> VelocityPair:
    """The post-collision pair (v + a delta, w - b delta) of every map."""
    return VelocityPair(v + a * delta, w - b * delta)


def _as_pair(v: Array, w: Array, direction: Array, name: str) -> tuple[Array, Array, Array]:
    """``v``, ``w`` and a checked unit ``direction`` as float arrays."""
    direction = np.asarray(direction, dtype=float)
    _check_unit(direction, name)
    return np.asarray(v, dtype=float), np.asarray(w, dtype=float), direction


def collide_q(v: Array, w: Array, sigma: Array, params: RestitutionParams) -> VelocityPair:
    """Gas-gas collision with post-collision direction ``sigma``.

    v' = v + (zeta/2)(|q| sigma - q),  w' = w - (zeta/2)(|q| sigma - q),
    q = v - w.  Momentum v + w is conserved exactly; for |q| = 0 the map is
    the identity.  Broadcasts over leading dimensions.
    """
    v, w, sigma = _as_pair(v, w, sigma, "sigma")
    half = 0.5 * params.zeta
    return _apply(v, w, _delta(v - w, sigma), half, half)


def collide_l_sigma(v: Array, w: Array, sigma: Array, params: RestitutionParams) -> VelocityPair:
    """Gas-bath collision in the center-of-mass (sigma) parametrization.

    v* = v + alpha(1-beta)(|q| sigma - q),
    w* = w - (1-alpha)(1-beta)(|q| sigma - q),  q = v - w.
    Conserves v + m1 w exactly; identity for |q| = 0.
    """
    v, w, sigma = _as_pair(v, w, sigma, "sigma")
    return _apply(v, w, _delta(v - w, sigma), params.kappa, params.kappa_bar)


def collide_l_n(v: Array, w: Array, n: Array, params: RestitutionParams) -> VelocityPair:
    """Gas-bath collision in the impact-direction (n) parametrization.

    v* = v - 2 alpha(1-beta)(q.n) n,  w* = w + 2(1-alpha)(1-beta)(q.n) n.
    Equivalent to the sigma form after the change of variables
    sigma = q/|q| - 2(q.n/|q|) n, so |q| sigma - q = -2(q.n) n; same conservation.
    """
    v, w, n = _as_pair(v, w, n, "n")
    c = np.sum((v - w) * n, axis=-1, keepdims=True)
    return _apply(v, w, (-2.0 * c) * n, params.kappa, params.kappa_bar)


def _orthonormal_frame(axis: Array) -> tuple[Array, Array]:
    """Two unit vectors completing ``axis`` to a right-handed frame."""
    # Pick the coordinate axis least aligned with `axis` to avoid degeneracy.
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(axis)))] = 1.0
    e1 = np.cross(axis, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    return e1, e2


def sphere_quadrature(
    order: int,
    axis: Array | None = None,
    split_equator: bool = False,
) -> tuple[Array, Array]:
    """Product quadrature on the unit sphere.

    Gauss-Legendre with ``order`` nodes in the polar cosine and ``order``
    uniformly spaced azimuthal angles (the periodic trapezoid rule).  Exact
    for spherical polynomials of degree <= min(2*order - 1, order - 1).

    Parameters
    ----------
    order : int
        Nodes per factor; must be >= 2.
    axis : array, optional
        Unit polar axis.  Defaults to the lab z-axis.
    split_equator : bool
        Apply Gauss-Legendre separately on each hemisphere, so integrands
        with an |cos theta| kink at the equator are handled at full order.

    Returns
    -------
    (nodes, weights) : nodes of shape (M, 3), weights of shape (M,) summing
    to 4 pi.
    """
    if order < 2:
        raise ValueError(f"quadrature order must be >= 2, got {order}")
    x, wx = np.polynomial.legendre.leggauss(order)
    if split_equator:
        # Affine maps of the [-1, 1] rule onto [-1, 0] and [0, 1].
        x = np.concatenate((0.5 * (x - 1.0), 0.5 * (x + 1.0)))
        wx = np.concatenate((0.5 * wx, 0.5 * wx))
    phi = 2.0 * math.pi * np.arange(order) / order
    if axis is None:
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        e3 = np.array([0.0, 0.0, 1.0])
    else:
        e3 = np.asarray(axis, dtype=float)
        _check_unit(e3, "axis")
        e1, e2 = _orthonormal_frame(e3)
    sin_theta = np.sqrt(np.clip(1.0 - x**2, 0.0, None))
    cp, sp = np.cos(phi), np.sin(phi)
    # Outer products: polar index first, then azimuthal, flattened.
    nodes = (
        (sin_theta[:, None] * cp[None, :])[..., None] * e1
        + (sin_theta[:, None] * sp[None, :])[..., None] * e2
        + (x[:, None] * np.ones_like(cp)[None, :])[..., None] * e3
    ).reshape(-1, 3)
    weights = (wx[:, None] * np.full_like(cp, 2.0 * math.pi / order)[None, :]).reshape(-1)
    return nodes, weights


def sphere_average_q(
    psi: Callable[[Array], Array], v: Array, w: Array, params: RestitutionParams
) -> float:
    """Sphere-averaged weak form of a gas-gas collision.

    Returns (1/4pi) * integral over sigma of
    psi(v') + psi(w') - psi(v) - psi(w), with (v', w') from :func:`collide_q`.

    For psi = 1 or psi = v this vanishes identically; for psi = |v|^2 it
    equals -zeta(1-zeta)|q|^2 = -(1-epsilon^2)/4 |q|^2.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if float(np.linalg.norm(v - w)) == 0.0:
        return 0.0
    sig, wts = sphere_quadrature(_SPHERE_ORDER)
    v_post, w_post = collide_q(v, w, sig, params)
    gain = psi(v_post) + psi(w_post)
    base = float(psi(v[None, :])[0] + psi(w[None, :])[0])
    return float(np.dot(wts, gain) / (4.0 * math.pi) - base)


def sphere_average_l(
    psi: Callable[[Array], Array], v: Array, w: Array, params: RestitutionParams
) -> float:
    """Sphere-averaged weak form of a gas-bath collision (tagged particle).

    The sigma form is (1/4pi) * integral over sigma of psi(v*) - psi(v) with
    :func:`collide_l_sigma`; the n form is (1/2pi) * integral over n of
    |qhat . n| (psi(v*) - psi(v)) with :func:`collide_l_n`.  The two
    parametrizations represent the same average: both quadratures are
    evaluated, a disagreement beyond ``_FORM_TOL`` (relative to the larger
    magnitude, floored at 1) raises RuntimeError, and the sigma-form value
    is returned.  For psi(x) = |x - u1|^2 the average equals
    2 kappa^2 |q|^2 - 2 kappa <q, v - u1>
    = -2 kappa (1 - kappa) |q|^2 - 2 kappa <q, w - u1>.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    q = v - w
    qn = float(np.linalg.norm(q))
    if qn == 0.0:
        return 0.0
    base = float(psi(v[None, :])[0])
    sig, wts = sphere_quadrature(_SPHERE_ORDER)
    gain = psi(collide_l_sigma(v, w, sig, params).v) - base
    value_sigma = float(np.dot(wts, gain) / (4.0 * math.pi))
    qhat = q / qn
    # |qhat . n| has a kink at the equator: split the polar rule there.
    n, wts = sphere_quadrature(_SPHERE_ORDER, axis=qhat, split_equator=True)
    gain = psi(collide_l_n(v, w, n, params).v) - base
    value_n = float(np.dot(wts * np.abs(n @ qhat), gain) / (2.0 * math.pi))
    scale = max(1.0, abs(value_sigma), abs(value_n))
    if abs(value_sigma - value_n) > _FORM_TOL * scale:
        raise RuntimeError(
            "sigma- and n-parametrizations of the bath collision average "
            f"disagree: {value_sigma!r} vs {value_n!r} at order {_SPHERE_ORDER}"
        )
    return value_sigma


def energy_split_check(
    v: Array,
    w: Array,
    v_post: Array,
    w_post: Array,
    params: RestitutionParams,
) -> tuple[float | Array, float | Array]:
    """Check the exact energy split of a gas-bath collision.

    With z = v + m1 w (conserved) and ell = |v* - w*| / |v - w|, any
    gas-bath collision satisfies

        |v*|^2 + m1 |w*|^2 = (|z|^2 + ell^2 m1 |q|^2) / (1 + m1).

    Returns ``(ell, residual)`` where residual is the relative defect of the
    identity; ell lies in [e, 1]: 1 for grazing, e for head-on impacts.
    Broadcasts over leading dimensions of (..., 3) inputs.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    v_post = np.asarray(v_post, dtype=float)
    w_post = np.asarray(w_post, dtype=float)
    qn = np.linalg.norm(v - w, axis=-1)
    if np.any(qn == 0.0):
        raise ValueError("energy split undefined for coincident velocities (|v - w| = 0)")
    ell = np.linalg.norm(v_post - w_post, axis=-1) / qn
    z = v + params.m1 * w
    lhs = np.sum(v_post**2, axis=-1) + params.m1 * np.sum(w_post**2, axis=-1)
    rhs = (np.sum(z**2, axis=-1) + ell**2 * params.m1 * qn**2) / (1.0 + params.m1)
    residual = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.finfo(float).tiny)
    if ell.ndim == 0:
        return float(ell), float(residual)
    return ell, residual
