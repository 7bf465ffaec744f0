"""Direct simulation Monte Carlo solver for the bath-driven granular gas.

Evolves an N-particle ensemble under gas-gas collisions at rate ``tau``
(Nanbu-Babovsky candidate pairs) and gas-bath collisions (a fresh bath
partner per event, discarded afterwards), both by majorant rejection, in one
unsplit step: each particle takes part in at most one candidate event per
step, a gas-gas pair with probability p_q = tau q_max dt or a bath event with
probability p_l = l_max dt / lambda, and a candidate is accepted with
probability (its relative speed) / (its majorant).  A particle at v thus
collides with a gas partner w with probability tau |v - w| dt and with the
bath with probability nu(v) dt, so the expected change of the one-particle
density over a step is dt (Q + L) f, and the fixed point of the step is the
zero of Q + L at every dt.  The split step this replaces (a gas-gas sweep,
then a bath sweep with candidate probability 1 - exp(-nu_max dt)) had the
fixed point (I + dt L)(I + dt Q) f = f and under-rated the bath, which biased
the driven steady temperature by O(dt).

One pass over the ensemble per step gives both majorants.  q_max =
2 max|v - u|, u the mean velocity, bounds every pair speed, so the gas-gas
majorant never overflows.  l_max = max|v - u1| plus the bath's reach: the
farthest occupied cell corner of a tabulated bath (a hard bound) or 7
thermal widths of a Maxwellian one (exceeded with probability ~1e-10 per
draw).  A bath candidate above l_max is detected before any velocity
changes; the step is then redrawn with the majorant enlarged by
``majorant_safety``.  The candidates are drawn as one sample without
replacement, so the work per step is proportional to the candidates, apart
from the majorant pass and the finiteness check.
"""
from __future__ import annotations

import dataclasses
import logging
import math
import struct
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .background import BathParams, sample_bath
from .kinematics import RestitutionParams, collide_l_sigma, collide_q
from .observables import (
    DEFAULT_SIGMA_PAIRS,
    DEFAULT_Y_ORDERS,
    MomentRecord,
    box_edges,
    f_aux,
    h_phi,
    histogram,
    lp_norm,
    moments,
    reference_on_cells,
    sigma_freq,
    thermal_extent,
    write_records,
)

__all__ = [
    "Ensemble",
    "SimConfig",
    "ObserverConfig",
    "MomentTrajectory",
    "SteadyVerdict",
    "NumericalFault",
    "TimeStepError",
    "step_q",
    "step_l",
    "run",
    "detect_steady",
    "save_checkpoint",
    "load_checkpoint",
]

log = logging.getLogger(__name__)

Array = np.ndarray

CHECKPOINT_MAGIC = b"GBDS"
CHECKPOINT_VERSION = 1
_NO_SEED = 0xFFFFFFFFFFFFFFFF
_ONES3 = np.ones(3)


class NumericalFault(RuntimeError):
    """Fatal numerical failure (NaN velocities, failed kernel build)."""

    def __init__(self, message: str, dump_path: str | None = None):
        super().__init__(message)
        self.dump_path = dump_path


class TimeStepError(ValueError):
    """dt times the majorant collision rate reached 1; shrink dt."""


class _MajorantOverflow(Exception):
    """Internal: an observed relative speed exceeded the current majorant."""

    def __init__(self, observed: float):
        super().__init__(f"observed relative speed {observed:.6g} above majorant")
        self.observed = observed


@dataclass
class Ensemble:
    """Equal-weight particle ensemble: velocities (N, 3), time, seed record."""

    velocities: Array
    t: float = 0.0
    seed: int | None = None

    def __post_init__(self) -> None:
        self.velocities = np.ascontiguousarray(self.velocities, dtype=float)
        if self.velocities.ndim != 2 or self.velocities.shape[1] != 3:
            raise ValueError(f"velocities must be (N, 3), got {self.velocities.shape}")
        if self.velocities.shape[0] < 2:
            raise ValueError("need at least 2 particles")
        if not np.all(np.isfinite(self.velocities)):
            raise ValueError("velocities must be finite")

    @property
    def n_particles(self) -> int:
        return self.velocities.shape[0]


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
    majorant_safety: float = 1.5
    steady_window: int = 16
    steady_tol: float = 0.05

    def __post_init__(self) -> None:
        if self.tau < 0.0 or not math.isfinite(self.tau):
            raise ValueError(f"tau must be >= 0 and finite, got {self.tau}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end <= 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.n_particles < 2:
            raise ValueError(f"need at least 2 particles, got {self.n_particles}")
        if self.majorant_safety <= 1.0:
            raise ValueError(f"majorant_safety must exceed 1, got {self.majorant_safety}")
        if self.steady_window < 2:
            raise ValueError(f"steady_window must be >= 2, got {self.steady_window}")
        if self.steady_tol <= 0.0:
            raise ValueError(f"steady_tol must be positive, got {self.steady_tol}")


@dataclass(frozen=True)
class ObserverConfig:
    """What to compute at each record (costs beyond moments are opt-in)."""

    record_every: int = 10
    y_orders: tuple[float, ...] = DEFAULT_Y_ORDERS
    compute_lp: bool = False
    lp_p: float = 1.5
    lp_bins: int = 32
    compute_sigma: bool = False
    sigma_pairs: int = DEFAULT_SIGMA_PAIRS
    h_reference: object | None = None  # callable density or grid array
    h_tags: tuple[str, ...] = ("quad", "ent")
    h_bins: int = 32
    h_extent: float | None = None
    h_center: Array | None = None
    h_bias_correct: bool = False

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
    overflows: int = 0  # bath candidates above l_max (q_max is a hard bound)
    final: Ensemble | None = None

    def times(self) -> Array:
        return np.array([r.t for r in self.records])

    def thetas(self) -> Array:
        return np.array([r.theta for r in self.records])

    def to_csv(self, path: str | Path, lp_p: float = 1.5) -> None:
        write_records(path, self.records, lp_p=lp_p)


def _uniform_sphere(rng: np.random.Generator, k: int) -> Array:
    z = rng.uniform(-1.0, 1.0, k)
    phi = rng.uniform(0.0, 2.0 * math.pi, k)
    s = np.sqrt(np.clip(1.0 - z**2, 0.0, None))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def _speeds(a: Array, b: Array) -> Array:
    rel = a - b
    return np.sqrt(np.einsum("ij,ij->i", rel, rel))


def step_q(
    velocities: Array,
    dt: float,
    tau: float,
    restitution: RestitutionParams,
    q_max: float,
    rng: np.random.Generator,
    candidates: Array | None = None,
) -> tuple[int, float]:
    """One Nanbu-Babovsky gas-gas sweep; mutates ``velocities`` on success.

    ``candidates`` holds 2m distinct particle indices, and particle
    ``candidates[i]`` is paired with ``candidates[m + i]``.  Without it the
    sweep draws the pairs itself by the law :func:`run` uses: m ~
    Binomial(floor(N/2), p_q) disjoint pairs from all N particles, with
    p_q = tau q_max dt.  Each pair is accepted with probability |q| / q_max,
    so a particle collides with probability tau |v - w| dt per step.  Returns
    (accepted collisions, largest candidate |q|).  A pair above the majorant
    raises before any velocity changes, so the caller can enlarge and retry.
    """
    if candidates is None:
        n = velocities.shape[0]
        p_q = tau * q_max * dt
        if p_q > 1.0:
            raise TimeStepError(f"dt * tau * q_max = {p_q:.3g} > 1; shrink dt")
        candidates = rng.choice(n, 2 * int(rng.binomial(n // 2, p_q)), replace=False)
    m = candidates.size // 2
    if m == 0:
        return 0, 0.0
    i, j = candidates[:m], candidates[m:]
    v = velocities.take(i, axis=0)
    w = velocities.take(j, axis=0)
    speeds = _speeds(v, w)
    max_speed = float(speeds.max())
    if max_speed > q_max:
        raise _MajorantOverflow(max_speed)
    acc = rng.random(m) * q_max < speeds
    count = int(np.count_nonzero(acc))
    if count == 0:
        return 0, max_speed
    sigma = _uniform_sphere(rng, count)
    v_post, w_post = collide_q(v[acc], w[acc], sigma, restitution)
    velocities[i[acc]] = v_post
    velocities[j[acc]] = w_post
    return count, max_speed


def step_l(
    velocities: Array,
    dt: float,
    restitution: RestitutionParams,
    bath: BathParams,
    l_max: float,
    rng: np.random.Generator,
    candidates: Array | None = None,
) -> tuple[int, float]:
    """One bath sweep; mutates ``velocities`` on success.

    ``candidates`` holds the distinct indices of this step's bath candidates.
    Without it the sweep draws them itself by the law :func:`run` uses: each
    particle is a candidate with probability p_l = nu_max dt, nu_max =
    l_max / lambda.  A candidate draws a fresh bath partner, accepts with
    probability |v - w| / l_max (a particle collides with probability
    nu(v) dt per step), and is transformed by the sigma-form bath collision
    map; the partner is discarded, the bath being a fixed reservoir.
    Returns (accepted collisions, largest observed |v - w|).  A candidate
    above the majorant raises before any velocity changes.
    """
    if candidates is None:
        n = velocities.shape[0]
        p_l = l_max * dt / bath.lambda_
        if p_l > 1.0:
            raise TimeStepError(f"dt * nu_max = {p_l:.3g} > 1; shrink dt")
        candidates = rng.choice(n, int(rng.binomial(n, p_l)), replace=False)
    if candidates.size == 0:
        return 0, 0.0
    v = velocities.take(candidates, axis=0)
    partners = sample_bath(bath, candidates.size, rng)
    speeds = _speeds(v, partners)
    max_rel = float(speeds.max())
    if max_rel > l_max:
        raise _MajorantOverflow(max_rel)
    acc = rng.random(candidates.size) * l_max < speeds
    idx = candidates[acc]
    if idx.size == 0:
        return 0, max_rel
    sigma = _uniform_sphere(rng, idx.size)
    v_post, _ = collide_l_sigma(v[acc], partners[acc], sigma, restitution)
    velocities[idx] = v_post
    return int(idx.size), max_rel


def _bath_reach(bath: BathParams) -> float:
    """Radius about u1 holding the bath velocities: every velocity of a
    tabulated bath (its farthest occupied cell corner), all but a ~1e-10
    fraction of a Maxwellian's (7 thermal widths)."""
    if bath.kind == "maxwellian":
        return 7.0 * bath.sigma_th
    table = bath.table
    assert table is not None
    nodes = table.nodes()[table.values.ravel() > 0.0]
    half_diagonal = 0.5 * math.sqrt(sum(h * h for h in table.spacing))
    return float(np.linalg.norm(nodes - bath.u1, axis=1).max()) + half_diagonal


def _radius(velocities: Array, sq: Array, sq_max: float, centre: Array) -> float:
    """Hard upper bound on max |v - centre| over the ensemble.

    ``sq`` holds |v|^2 and ``sq_max`` its maximum, so each centre costs one
    matrix-vector product through |v - c|^2 = |v|^2 - 2 v.c + |c|^2.  That
    expansion loses a few ulp of (|v| + |c|)^2; the bound adds 1e-14 of it,
    far above the rounding.
    """
    d = velocities @ (-2.0 * centre)
    d += sq
    c2 = float(centre @ centre)
    scale = math.sqrt(sq_max) + math.sqrt(c2)
    return math.sqrt(max(float(d.max()) + c2, 0.0) + 1e-14 * scale * scale)


def _candidates(
    rng: np.random.Generator, n: int, p_q: float, p_l: float, step: int
) -> tuple[int, Array]:
    """Draw one step's events: m gas-gas pairs, then the bath candidates.

    m ~ Binomial(floor(N/2), p_q) and k ~ Binomial(N - 2m, p_l / (1 - p_q)),
    so a particle is in a pair with probability p_q and a bath candidate with
    probability p_l, and no particle takes part in two events.  Returns m and
    the 2m + k distinct indices (pairs first).
    """
    if p_q + p_l >= 1.0:
        raise TimeStepError(
            f"dt * (tau q_max + l_max / lambda) = {p_q + p_l:.3g} >= 1 "
            f"at step {step}; shrink dt"
        )
    m = int(rng.binomial(n // 2, p_q)) if p_q > 0.0 else 0
    k = int(rng.binomial(n - 2 * m, p_l / (1.0 - p_q))) if p_l > 0.0 else 0
    return m, rng.choice(n, 2 * m + k, replace=False)


def _make_record(
    velocities: Array,
    t: float,
    config: SimConfig,
    obs: ObserverConfig,
) -> MomentRecord:
    rec = moments(velocities, t=t, y_orders=obs.y_orders)
    extras: dict = {}
    if config.bath is not None:
        extras["f_aux"] = f_aux(rec, config.bath, velocities=velocities)
    if obs.compute_sigma:
        # Before the histograms, so that none is held while the pair arrays
        # of sigma_freq, the largest a record allocates, are alive.
        extras["sigma_mean"] = sigma_freq(
            velocities, config.bath, config.tau,
            rng=np.random.default_rng(0), max_pairs=obs.sigma_pairs,
        )
    if obs.compute_lp:
        # The default box about the record's own u and theta: the same edges
        # lp_norm would derive from the sample.
        hist = histogram(
            velocities, bins=obs.lp_bins, extent=thermal_extent(rec.theta), center=rec.u
        )
        extras["lp"] = tuple((p, lp_norm(hist, p).value) for p in (2.0, obs.lp_p))
    if obs.h_reference is not None:
        hist = histogram(velocities, bins=obs.h_bins, extent=obs.h_extent, center=obs.h_center)
        reference = obs.h_reference
        if callable(reference):  # a box that follows the sample
            reference = reference_on_cells(reference, hist.edges)
        extras["h_phi"] = tuple(
            (tag, h_phi(
                hist, reference, phi=tag,
                bias_correct=obs.h_bias_correct and tag == "quad",
            ))
            for tag in obs.h_tags
        )
    return dataclasses.replace(rec, **extras) if extras else rec


def _dump_fault(velocities: Array, step: int, t: float, rng: np.random.Generator) -> str:
    path = Path(tempfile.gettempdir()) / f"granular_bath_fault_step{step}.npz"
    state = rng.bit_generator.state
    np.savez(
        path,
        velocities=velocities,
        step=step,
        t=t,
        rng_state=np.array(repr(state)),
    )
    return str(path)


def run(
    config: SimConfig,
    observers: ObserverConfig | None = None,
    init: Ensemble | Array | None = None,
    rng: np.random.Generator | None = None,
) -> MomentTrajectory:
    """Evolve an ensemble to t_end, recording moments along the way.

    ``init=None`` draws a standard-normal ensemble (Theta = 1, u = 0) from
    the run's seed; an Ensemble resumes from its stored time (pass the
    checkpointed generator as ``rng`` to continue its stream).  Runs with the
    same (config, seed) are bit-reproducible.
    """
    obs = observers or ObserverConfig()
    if callable(obs.h_reference) and obs.h_extent is not None and obs.h_center is not None:
        # Every record's H histogram has the same cells: evaluate the
        # reference on them once, not once per record.
        edges = box_edges(obs.h_center, obs.h_extent, obs.h_bins)
        obs = dataclasses.replace(obs, h_reference=reference_on_cells(obs.h_reference, edges))
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if init is None:
        vel = rng.standard_normal((config.n_particles, 3))
        t0 = 0.0
    elif isinstance(init, Ensemble):
        vel = init.velocities.copy()
        t0 = init.t
    else:
        vel = np.array(init, dtype=float)
        t0 = 0.0
    ens = Ensemble(velocities=vel, t=t0, seed=config.seed)
    vel = ens.velocities

    bath = config.bath
    tau, dt = config.tau, config.dt
    n = vel.shape[0]
    ones = np.ones(n)
    reach = _bath_reach(bath) if bath is not None else 0.0

    n_steps = max(1, int(round((config.t_end - t0) / dt)))
    traj = MomentTrajectory(records=[], config=config)
    traj.records.append(_make_record(vel, t0, config, obs))

    for step in range(1, n_steps + 1):
        sq = np.square(vel) @ _ONES3
        sq_max = float(sq.max())
        q_max = 2.0 * _radius(vel, sq, sq_max, (ones @ vel) / n) if tau > 0.0 else 0.0
        l_max = _radius(vel, sq, sq_max, bath.u1) + reach if bath is not None else 0.0
        for _attempt in range(64):
            p_l = l_max * dt / bath.lambda_ if bath is not None else 0.0
            m, cand = _candidates(rng, n, tau * q_max * dt, p_l, step)
            if bath is None:
                break
            try:
                nl, _ = step_l(
                    vel, dt, config.restitution, bath, l_max, rng, candidates=cand[2 * m :]
                )
            except _MajorantOverflow as exc:
                # step_l runs first and raises before any velocity changes,
                # so nothing has moved yet: redraw the whole step.
                log.warning("bath majorant overflow at step %d: %s", step, exc)
                traj.overflows += 1
                l_max = max(l_max, exc.observed) * config.majorant_safety
                continue
            traj.candidates_l += cand.size - 2 * m
            traj.collisions_l += nl
            break
        else:
            raise NumericalFault(f"bath majorant failed to stabilize at step {step}")
        if tau > 0.0:
            nq, _ = step_q(
                vel, dt, tau, config.restitution, q_max, rng, candidates=cand[: 2 * m]
            )
            traj.candidates_q += m
            traj.collisions_q += nq
        t = t0 + step * dt
        if not np.all(np.isfinite(vel)):
            path = _dump_fault(vel, step, t, rng)
            raise NumericalFault(
                f"non-finite velocities at step {step}, t = {t:.6g}; "
                f"diagnostics dumped to {path}",
                dump_path=path,
            )
        if step % obs.record_every == 0 or step == n_steps:
            traj.records.append(_make_record(vel, t, config, obs))
    traj.final = Ensemble(velocities=vel, t=t0 + n_steps * dt, seed=config.seed)
    return traj


@dataclass(frozen=True)
class SteadyVerdict:
    """Outcome of the stationarity scan over a moment trajectory."""

    steady: bool
    t_steady: float | None
    index: int | None
    drifts: dict


def detect_steady(
    traj: MomentTrajectory | Sequence[MomentRecord],
    window: int | None = None,
    tol: float | None = None,
    u1: Array | None = None,
) -> SteadyVerdict:
    """Scan for the earliest window where Theta, |u - u1| and Y2 stop drifting.

    Two consecutive blocks of ``window`` records are compared; the trajectory
    is steady at the first block start where, for each tracked series, the
    block-mean drift is below ``tol`` relative to its natural scale AND below
    twice its Monte Carlo standard error.  The |u - u1| drift is scaled by
    sqrt(Theta) (its own mean can legitimately sit at zero).
    """
    if isinstance(traj, MomentTrajectory):
        records = traj.records
        window = window or traj.config.steady_window
        tol = tol or traj.config.steady_tol
        if u1 is None and traj.config.bath is not None:
            u1 = traj.config.bath.u1
    else:
        records = list(traj)
        if window is None or tol is None:
            raise ValueError("window and tol are required for bare record lists")
    if u1 is None:
        u1 = np.zeros(3)
    if len(records) < 2 * window:
        raise ValueError(
            f"need at least 2*window = {2 * window} records, got {len(records)}"
        )
    theta = np.array([r.theta for r in records])
    dev = np.array([float(np.linalg.norm(r.u - u1)) for r in records])
    y2 = np.array([r.y(2.0) for r in records])
    series = {"theta": theta, "u_dev": dev, "y2": y2}
    last_drifts: dict = {}
    for start in range(0, len(records) - 2 * window + 1):
        ok = True
        drifts = {}
        for name, s in series.items():
            a = s[start : start + window]
            b = s[start + window : start + 2 * window]
            if np.any(np.isnan(a)) or np.any(np.isnan(b)):
                continue
            drift = abs(float(b.mean() - a.mean()))
            se = math.sqrt(a.var(ddof=1) / window + b.var(ddof=1) / window)
            scale = float(np.concatenate([a, b]).mean())
            if name == "u_dev":
                scale = math.sqrt(max(float(theta[start : start + 2 * window].mean()), 1e-300))
            drifts[name] = drift / max(abs(scale), 1e-300)
            if drift > tol * max(abs(scale), 1e-300) or drift > 2.0 * se:
                ok = False
        last_drifts = drifts
        if ok:
            return SteadyVerdict(True, records[start].t, start, drifts)
    return SteadyVerdict(False, None, None, last_drifts)


def save_checkpoint(path: str | Path, ens: Ensemble, rng: np.random.Generator) -> None:
    """Write a binary checkpoint: magic GBDS, version, N, t, seed state, velocities."""
    state = rng.bit_generator.state
    if state.get("bit_generator") != "PCG64":
        raise ValueError("checkpointing supports the PCG64 bit generator only")
    s = state["state"]["state"]
    inc = state["state"]["inc"]
    mask = (1 << 64) - 1
    seed = ens.seed if ens.seed is not None else _NO_SEED
    header = struct.pack(
        "<4sIQdQQQQQII",
        CHECKPOINT_MAGIC,
        CHECKPOINT_VERSION,
        ens.n_particles,
        ens.t,
        seed,
        s & mask,
        (s >> 64) & mask,
        inc & mask,
        (inc >> 64) & mask,
        int(state["has_uint32"]),
        int(state["uinteger"]),
    )
    with Path(path).open("wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(ens.velocities, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[Ensemble, np.random.Generator]:
    """Read a checkpoint back into an ensemble and its reconstructed generator."""
    raw = Path(path).read_bytes()
    head_size = struct.calcsize("<4sIQdQQQQQII")
    if len(raw) < head_size:
        raise ValueError(f"{path}: truncated checkpoint")
    (magic, version, n, t, seed, s_lo, s_hi, inc_lo, inc_hi, has_u32, uint) = struct.unpack(
        "<4sIQdQQQQQII", raw[:head_size]
    )
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    body = np.frombuffer(raw[head_size:], dtype="<f8")
    if body.size != 3 * n:
        raise ValueError(f"{path}: expected {3 * n} doubles, found {body.size}")
    vel = body.reshape(n, 3).astype(float)
    bg = np.random.PCG64()
    bg.state = {
        "bit_generator": "PCG64",
        "state": {"state": (s_hi << 64) | s_lo, "inc": (inc_hi << 64) | inc_lo},
        "has_uint32": int(has_u32),
        "uinteger": int(uint),
    }
    ens = Ensemble(velocities=vel, t=t, seed=None if seed == _NO_SEED else int(seed))
    return ens, np.random.Generator(bg)
