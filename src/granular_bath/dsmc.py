"""Direct simulation Monte Carlo solver for the bath-driven granular gas.

``run`` solves the Cauchy problem: it evolves an N-particle ensemble from
its datum at t = 0 to t_end, and ``detect_steady`` tests the records for
the stationary state.  The run is under gas-gas collisions at rate ``tau``
(Nanbu-Babovsky candidate pairs) and gas-bath collisions (a fresh bath
partner per event, discarded afterwards), both by majorant rejection, in one
unsplit step: each particle takes part in at most one candidate event per
step, a bath event with probability p_l = l_max dt / lambda or a gas-gas
pair, each pair drawn with probability p_q / (N - 1), p_q = tau q_max dt,
at every N.  One draw, ``_candidates``, makes both sets: it is the one
candidate law.  A particle at v thus collides with the bath with
probability nu(v) dt and with a gas partner w with probability
tau |v - w| dt / (N - 1), so the expected change of the one-particle
density over a step is dt (Q + L) f, and the fixed point of the step is the
zero of Q + L at every dt.

Neither majorant can be exceeded.  Both are radii about one centre c fixed
for the run: u1 with a bath, otherwise the initial mean velocity, which
gas-gas collisions conserve.  With R = max|v - c|, a gas-gas pair is
accepted with probability |v - w| / q_max, q_max = 2R, which bounds every
pair speed by the triangle inequality.  The bath majorant is the paper's
bound lambda nu(v) <= |v - u1| + b, used as a majorant kernel (Rjasanow &
Wagner, Stochastic Numerics for the Boltzmann Equation, 2005): l_max = R + b,
with b the mean of a bound B(w) >= |w - u1| (``BathParams.bound_mean``).  A
bath candidate at v takes a partner from F1 with probability
|v - u1| / l_max, one from the size-biased law B F1 / b with probability
b / l_max, or none, and accepts with probability |v - w| / (|v - u1| + B(w))
<= 1: its rate is nu(v).

Both sweeps draw without trig and without normals, exact in law: every
post-collision direction comes from Marsaglia's method
(``kinematics._uniform_sphere``), and a size-biased Maxwellian partner is
u1 + sigma_th rho omega, with a chi_4 radius rho from two uniforms and
omega from the same sampler (``background.sample_partners``).

The candidates are drawn as one sample without replacement.  The run keeps
a cache d2 = |v - c|^2 per particle, and both sweeps take it as a required
argument: they read it at their candidates and write it at the rows they
move, so the work per step is proportional to the candidates, apart from
one max over d2.  The gas sweep draws its uniforms first and measures only
the pairs that pass a screen from the cache, u < (|v - c| + |w - c|)
(1 + 1e-14): the triangle inequality rejects the others without a gather,
and the pad covers the rounding of the computed norms.  The screen changes
no output and no draw; a cache of q_max^2 at every row passes every pair
and is the unscreened reference.  The bath sweep takes |v - u1| from the
cache and gathers velocities only at the candidates that draw a partner.

A step whose event probability p = dt (tau q_max s + l_max / lambda)
reaches _P_CAP = 1 runs as sub-steps, as a majorant time counter cuts it
(Rjasanow & Wagner 2005; Bird 1994); s = N / (2 floor(N/2)) is the factor
by which ``_candidates`` raises a pair slot's probability, 1 for even N.
Each takes its majorants from the current radius, which a bath partner can
widen, splits what is left of the step into
k = floor(p(left) (1 + 1e-14) / _P_CAP) + 1 equal pieces and runs one with
its own draw; the pad keeps rounding below the cap.  Each sub-step is an
unsplit step of its own length, so the fixed point stays the zero of Q + L,
and a step with p < _P_CAP is one piece of length dt, drawn as before.

Two checks end a run with NumericalFault.  The radius max|v - c| is taken
from d2 once after each sub-step; a moved row that is NaN or inf, or whose
|v - c|^2 overflows, makes it non-finite, and the run stops at that step.
Each record step also checks every velocity for finiteness before it
writes, which catches a non-finite row that no sweep reported.  A fault
writes nothing: the run is a function of (config, init), so the same
arguments replay it bit for bit.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .background import BathParams, NumericalFault, sample_partners
from .kinematics import (
    RestitutionParams,
    _sq_norm,
    _uniform_sphere,
    collide_l_sigma,
    collide_q,
)
from .observables import (
    MomentRecord,
    box_edges,
    f_aux,
    h_phi,
    histogram,
    lp_norm,
    moments,
    sigma_freq,
    thermal_extent,
    write_records,
)

__all__ = [
    "SimConfig",
    "ObserverConfig",
    "MomentTrajectory",
    "SteadyVerdict",
    "step_q",
    "step_l",
    "run",
    "detect_steady",
]

Array = np.ndarray


@dataclass(frozen=True)
class SimConfig:
    """Run parameters.  ``bath=None`` switches the bath sweep off (cooling)."""

    tau: float
    restitution: RestitutionParams
    bath: BathParams | None
    dt: float
    t_end: float
    n_particles: int
    seed: int

    def __post_init__(self) -> None:
        if self.tau < 0.0 or not math.isfinite(self.tau):
            raise ValueError(f"tau must be >= 0 and finite, got {self.tau}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (self.t_end > 0.0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if self.n_particles < 2:
            raise ValueError(f"need at least 2 particles, got {self.n_particles}")


_LP_BINS = 32


@dataclass(frozen=True)
class ObserverConfig:
    """What to compute at each record (costs beyond moments are opt-in).

    Every record holds the moments, Y_r for r = 1, 1.5, 2, 3, and F when
    there is a bath.  ``compute_lp`` adds the L^2 and L^1.5 norms from one
    histogram of 32^3 cells, 6 thermal widths about the record's own mean;
    they stay NaN where that box collapses at float precision (a point mass).
    ``compute_sigma`` adds the mean collision frequency, whose convolution
    term is the mean over min(ceil(2^17 / N), N - 1) cyclic shifts of the
    particles: every shift, and so the exact distinct-pair mean, up to
    N = 363.
    ``h_reference`` adds the bias-corrected quadratic and the entropy
    H-functional, both from one :func:`~granular_bath.observables.h_phi`
    call per record on one fixed box, built once: the pair (edges, cells) of
    :func:`~granular_bath.observables.box_edges` and the reference's cell
    averages on them (:func:`~granular_bath.observables.maxwellian_cells`).
    """

    record_every: int = 10
    compute_lp: bool = False
    compute_sigma: bool = False
    h_reference: tuple[tuple[Array, Array, Array], Array] | None = None

    def __post_init__(self) -> None:
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")


@dataclass
class MomentTrajectory:
    """Records plus run bookkeeping returned by :func:`run`."""

    records: list[MomentRecord]
    config: SimConfig
    candidates_q: int = 0  # candidate gas-gas pairs
    collisions_q: int = 0
    candidates_l: int = 0  # candidate bath events
    collisions_l: int = 0
    final: Array | None = None  # velocities at t_end

    def times(self) -> Array:
        return np.array([r.t for r in self.records])

    def thetas(self) -> Array:
        return np.array([r.theta for r in self.records])

    def to_csv(self, path: str | Path) -> None:
        write_records(path, self.records)


# Relative pad on bounds built from computed norms (see _radius), and on
# the event probability that sets a step's number of sub-steps.
_PAD = 1.0 + 1e-14
_P_CAP = 1.0  # event probability a sub-step stays below


def _speeds(a: Array, b: Array) -> Array:
    return np.sqrt(_sq_norm(a, b))


def step_q(
    velocities: Array,
    dt: float,
    tau: float,
    restitution: RestitutionParams,
    q_max: float,
    rng: np.random.Generator,
    candidates: Array,
    d2: Array,
    centre: Array,
) -> tuple[int]:
    """One Nanbu-Babovsky gas-gas sweep; mutates ``velocities`` on success.

    ``candidates`` holds 2m distinct particle indices, and particle
    ``candidates[i]`` is paired with ``candidates[m + i]``: the pairs of the
    step's draw by :func:`_candidates`, with p_q = tau q_max dt.  Each pair
    is accepted with probability |q| / q_max, so a given pair collides with
    probability tau |q| dt / (N - 1) per step.
    Returns (accepted collisions,).  A ``q_max`` below a measured |q| raises
    ValueError before any velocity changes.

    ``d2`` is the cache of :func:`run`: d2[k] = ``_sq_norm``(velocities[k],
    ``centre``) for every particle.  The sweep draws the pair uniforms u
    before it measures any pair, and it measures only the pairs with
    u < (a_i + a_j)(1 + 1e-14), a_k = sqrt(d2[k]).  By the triangle
    inequality about ``centre`` every other pair has |q| <= a_i + a_j <= u
    and is rejected anyway; the pad covers the rounding of the computed
    norms, a few ulp each, for components of magnitude 1e-150 to 1e150.  So
    the accepted pairs, their order, the velocities and the random stream
    are those of a sweep that measures every pair, which is this sweep given
    a cache of q_max^2 at every row: then a_i + a_j = 2 q_max > u.  The
    sweep writes |v - centre|^2 of the post-collision velocities into ``d2``
    at the rows it moved, so the cache stays exact.
    """
    m = candidates.size // 2
    if m == 0:
        return (0,)
    i, j = candidates[:m], candidates[m:]
    u = rng.random(m) * q_max
    kept = np.flatnonzero(u < (np.sqrt(d2.take(i)) + np.sqrt(d2.take(j))) * _PAD)
    i, j, u = i.take(kept), j.take(kept), u.take(kept)
    v = velocities.take(i, axis=0)
    w = velocities.take(j, axis=0)
    speeds = _speeds(v, w)
    max_speed = float(speeds.max(initial=0.0))
    if max_speed > q_max:
        raise ValueError(f"q_max = {q_max:.6g} below a pair speed {max_speed:.6g}")
    acc = np.flatnonzero(u < speeds)
    if acc.size == 0:
        return (0,)
    sigma = _uniform_sphere(rng, acc.size)
    v_post, w_post = collide_q(v.take(acc, axis=0), w.take(acc, axis=0), sigma, restitution)
    i, j = i.take(acc), j.take(acc)
    velocities[i] = v_post
    velocities[j] = w_post
    d2[i] = _sq_norm(v_post, centre)
    d2[j] = _sq_norm(w_post, centre)
    # A 1-tuple, as perfbench's child.py reads the count as result[0].
    return (int(acc.size),)


def step_l(
    velocities: Array,
    dt: float,
    restitution: RestitutionParams,
    bath: BathParams,
    l_max: float,
    rng: np.random.Generator,
    candidates: Array,
    d2: Array,
) -> tuple[int]:
    """One bath sweep; mutates ``velocities`` on success.

    ``candidates`` holds the distinct indices of the step's bath candidates,
    drawn by :func:`_candidates`: each particle is one with probability
    p_l = l_max dt / lambda.  A candidate draws a partner or none and
    accepts as the module docstring says, so it collides with probability
    nu(v) dt; the partner is discarded.  Returns (accepted collisions,).
    ``l_max`` below |v - u1| + b for a candidate raises ValueError before
    any velocity changes.

    ``d2`` is the cache of :func:`run` about u1: d2[k] =
    ``_sq_norm``(velocities[k], ``bath.u1``) for every particle.  The sweep
    takes |v - u1| = sqrt(d2) at the candidates and gathers velocities only
    at the candidates that draw a partner.  It then writes |v - u1|^2 of the
    post-collision velocities into ``d2`` at the rows it moved.
    """
    if candidates.size == 0:
        return (0,)
    dist = np.sqrt(d2.take(candidates))  # |v - u1|
    b = bath.bound_mean
    need = float(dist.max()) + b
    if need > l_max:
        raise ValueError(f"l_max = {l_max:.6g} below max|v - u1| + E B(W) = {need:.6g}")
    pick = rng.random(candidates.size) * l_max
    plain = np.flatnonzero(pick < dist)
    biased = np.flatnonzero((pick >= dist) & (pick < dist + b))
    events = np.concatenate([plain, biased])
    v = velocities.take(candidates.take(events), axis=0)
    partners, bounds = sample_partners(bath, plain.size, biased.size, rng)
    speeds = _speeds(v, partners)
    acc = np.flatnonzero(rng.random(events.size) * (dist.take(events) + bounds) < speeds)
    idx = candidates.take(events.take(acc))
    if idx.size == 0:
        return (0,)
    sigma = _uniform_sphere(rng, idx.size)
    v_post, _ = collide_l_sigma(
        v.take(acc, axis=0), partners.take(acc, axis=0), sigma, restitution
    )
    velocities[idx] = v_post
    d2[idx] = _sq_norm(v_post, bath.u1)
    # A 1-tuple, as perfbench's child.py reads the count as result[0].
    return (int(idx.size),)


def _radius(d2: Array) -> float:
    """Hard upper bound on the largest sqrt(d2), d2 = |v - c|^2 by ``_sq_norm``.

    Each component of v - c, and so d2 and every computed pair speed, is
    within a few ulp of its exact value; the pad of 1e-14 lies far above that.
    A NaN or an overflow in d2 makes the bound NaN or inf.
    """
    return math.sqrt(float(d2.max())) * _PAD


def _candidates(rng: np.random.Generator, n: int, p_q: float, p_l: float) -> tuple[int, Array]:
    """Draw one sub-step's events: m gas-gas pairs, then the bath candidates.

    For p_q + p_l < 1, m ~ Binomial(floor(N/2), p_q N / (2 floor(N/2))): a
    particle is in a pair with probability p_q, and a given pair is drawn
    with p_q / (N - 1).  The factor N / (2 floor(N/2)) is 1 for even N; for
    odd N one particle has no pair slot.  k ~ Binomial(N - 2m,
    p_l / (1 - p_q)), so a particle is a bath candidate with probability
    p_l.  Returns m and the 2m + k distinct indices (pairs first): no
    particle is in two events.
    """
    m = int(rng.binomial(n // 2, p_q * (n / (2 * (n // 2))))) if p_q > 0.0 else 0
    k = int(rng.binomial(n - 2 * m, p_l / (1.0 - p_q))) if p_l > 0.0 else 0
    return m, rng.choice(n, 2 * m + k, replace=False)


def _make_record(
    velocities: Array,
    t: float,
    config: SimConfig,
    obs: ObserverConfig,
    d2: Array,
) -> MomentRecord:
    """The record of one sample; ``d2`` is the run's |v - c|^2 cache, which
    F and a Maxwellian bath's nu term read (c = u1 when there is a bath)."""
    rec = moments(velocities, t=t)
    extras: dict = {}
    if config.bath is not None:
        extras["f_aux"] = f_aux(rec, config.bath, d2)
    if obs.compute_sigma:
        # Before the histograms, so that none is held while sigma_freq runs:
        # its blocked nu temporaries are the largest a record allocates.
        extras["sigma_mean"] = sigma_freq(velocities, config.bath, config.tau, d2)
    if obs.compute_lp:
        # One box for both orders: the record's u +- 6 thermal widths.  About
        # a point mass it collapses at float precision, and L2, Lp stay NaN.
        try:
            edges = box_edges(rec.u, thermal_extent(rec.theta), _LP_BINS)
        except ValueError:
            pass
        else:
            hist = histogram(velocities, edges)
            extras["l2"] = lp_norm(hist, 2.0)
            extras["lp"] = lp_norm(hist, 1.5)
    if obs.h_reference is not None:
        edges, h_cells = obs.h_reference
        hist = histogram(velocities, edges)
        extras["h_quad"], extras["h_ent"] = h_phi(hist, h_cells)
    return dataclasses.replace(rec, **extras) if extras else rec


def _whole_steps(name: str, span: float, dt: float, error: type = ValueError) -> int:
    """The whole number of steps dt in ``span`` (1e-9 relative), at least
    one, else ``error``."""
    steps = span / dt
    whole = round(steps)
    if abs(steps - whole) > 1e-9 * max(1.0, steps):
        raise error(f"{name} must be a whole number of steps dt = {dt!r}, got {span!r}")
    if whole < 1:
        raise error(f"{name} must be at least one step dt = {dt!r}, got {span!r}")
    return whole


def run(
    config: SimConfig,
    observers: ObserverConfig | None = None,
    init: Array | None = None,
) -> MomentTrajectory:
    """Evolve an ensemble from t = 0 to t_end, recording moments along the way.

    The generator is ``default_rng(config.seed)``.  ``init=None`` draws a
    standard-normal ensemble (Theta = 1, u = 0) from it; otherwise ``init``
    is a finite (``config.n_particles``, 3) array, which the run copies.
    Runs with the same (config, init) are bit-reproducible.

    The majorants of each step are radii about one centre c, u1 or the
    initial mean (see the module docstring), read off a per-particle cache
    d2 = |v - c|^2.  Both sweeps require it: they screen their candidates
    with it and write it at the rows they move, so it stays equal to
    ``_sq_norm(velocities, c)``, and each returns only its accepted count;
    with a bath, c = u1 and each record's F cross-checks its moments against
    the mean of the cache.  A step whose event probability reaches 1 with
    them runs as sub-steps that each stay below it, so every dt runs to
    t_end, and records stay at the step times.  A t_end off the step grid or
    below one step, an ``init`` of another shape or with a non-finite
    entry, or an initial ensemble whose |v - c|^2 overflows, raises
    ValueError before the first record.  NumericalFault is raised at the
    step S whose moved rows make the radius non-finite (a NaN or an
    |v - c|^2 overflow), or at the first record step S that finds a
    non-finite velocity; its one-line message ends "at step S, t = T", and
    the run writes no file.  To inspect the state just before the fault,
    rerun the same (config, init) with t_end = (S - 1) dt, S > 1: records
    draw nothing from the generator, so that run takes the same stream and
    returns the state in ``traj.final``.
    """
    obs = observers or ObserverConfig()
    rng = np.random.default_rng(config.seed)
    n = config.n_particles
    if init is None:
        vel = rng.standard_normal((n, 3))
    else:
        vel = np.array(init, dtype=float, order="C")
        if vel.shape != (n, 3):
            raise ValueError(
                f"init has shape {vel.shape}, but config.n_particles = {n} needs ({n}, 3)"
            )
        if not np.all(np.isfinite(vel)):
            raise ValueError("init velocities must be finite")

    bath = config.bath
    tau, dt = config.tau, config.dt
    b = bath.bound_mean if bath is not None else 0.0
    lam = bath.lambda_ if bath is not None else 1.0
    centre = bath.u1 if bath is not None else vel.mean(axis=0)
    with np.errstate(over="ignore"):  # reported as the error below
        d2 = _sq_norm(vel, centre)
    radius = _radius(d2)
    if not math.isfinite(radius):
        raise ValueError(
            f"initial velocities too large: |v - c|^2 overflows about c = {centre.tolist()}"
        )

    # _candidates draws each pair slot with p_q s, so the sub-step count
    # keeps p_q s + p_l below the cap.
    s = n / (2 * (n // 2))  # 1 for even N
    n_steps = _whole_steps("t_end", config.t_end, dt)
    traj = MomentTrajectory(records=[], config=config)
    traj.records.append(_make_record(vel, 0.0, config, obs, d2))

    for step in range(1, n_steps + 1):
        fault = False
        left = dt
        while left > 0.0 and not fault:
            q_max = 2.0 * radius if tau > 0.0 else 0.0
            l_max = radius + b if bath is not None else 0.0
            k = int((tau * q_max * s + l_max / lam) * left * _PAD / _P_CAP) + 1
            h = left / k
            left = left - h if k > 1 else 0.0
            m, cand = _candidates(rng, n, tau * q_max * h, l_max * h / lam)
            if bath is not None:
                (nl,) = step_l(
                    vel, h, config.restitution, bath, l_max, rng,
                    candidates=cand[2 * m :], d2=d2,
                )
                traj.candidates_l += cand.size - 2 * m
                traj.collisions_l += nl
            if tau > 0.0:
                (nq,) = step_q(
                    vel, h, tau, config.restitution, q_max, rng,
                    candidates=cand[: 2 * m], d2=d2, centre=centre,
                )
                traj.candidates_q += m
                traj.collisions_q += nq
            # The sweeps write d2 at the rows they move, so a moved row that
            # is not finite, or whose |v - c|^2 overflows, makes the radius
            # non-finite; a sub-step without candidates moves nothing.  The
            # full check at each record catches rows that no sweep reported.
            if cand.size:
                radius = _radius(d2)
                fault = not math.isfinite(radius)
        t = step * dt
        record = step % obs.record_every == 0 or step == n_steps
        if fault or (record and not np.all(np.isfinite(vel))):
            raise NumericalFault(
                f"non-finite velocities or |v - c|^2 overflow at step {step}, t = {t:.6g}"
            )
        if record:
            traj.records.append(_make_record(vel, t, config, obs, d2))
    traj.final = vel
    return traj


@dataclass(frozen=True)
class SteadyVerdict:
    """Outcome of the stationarity scan over a moment trajectory."""

    steady: bool
    t_steady: float | None
    index: int | None


_STEADY_WINDOW = 16  # records per block of the stationarity scan
_STEADY_TOL = 0.05  # largest block-mean drift, relative to its scale


def detect_steady(traj: MomentTrajectory) -> SteadyVerdict:
    """Scan for the earliest window where Theta, |u - u1| and Y2 stop drifting.

    Two consecutive blocks of 16 records are compared; the trajectory is
    steady at the first block start where, for each tracked series, the
    block-mean drift is below 5% of its natural scale AND below twice its
    Monte Carlo standard error.  u1 is the run's bath mean, or 0 without a
    bath, and the |u - u1| drift is scaled by sqrt(Theta) (its own mean can
    legitimately sit at zero).  Fewer than 32 records raise ValueError.
    """
    records = traj.records
    window = _STEADY_WINDOW
    bath = traj.config.bath
    u1 = bath.u1 if bath is not None else np.zeros(3)
    if len(records) < 2 * window:
        raise ValueError(
            f"need at least 2*window = {2 * window} records, got {len(records)}"
        )
    theta = np.array([r.theta for r in records])
    dev = np.array([float(np.linalg.norm(r.u - u1)) for r in records])
    y2 = np.array([r.y2 for r in records])
    series = {"theta": theta, "u_dev": dev, "y2": y2}
    for start in range(0, len(records) - 2 * window + 1):
        for name, s in series.items():
            a = s[start : start + window]
            b = s[start + window : start + 2 * window]
            if np.any(np.isnan(a)) or np.any(np.isnan(b)):
                continue
            drift = abs(float(b.mean() - a.mean()))
            se = math.sqrt(a.var(ddof=1) / window + b.var(ddof=1) / window)
            if name == "u_dev":
                scale = math.sqrt(max(float(theta[start : start + 2 * window].mean()), 1e-300))
            else:
                scale = float(np.concatenate([a, b]).mean())
            if drift > _STEADY_TOL * max(abs(scale), 1e-300) or drift > 2.0 * se:
                break
        else:
            return SteadyVerdict(True, records[start].t, start)
    return SteadyVerdict(False, None, None)
