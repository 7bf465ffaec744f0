"""Direct simulation Monte Carlo solver for the bath-driven granular gas.

Evolves an N-particle ensemble under gas-gas collisions at rate ``tau``
(Nanbu-Babovsky candidate pairs, majorant rejection) and gas-bath collisions
(independent thinning against a majorant frequency, fresh bath partner per
event, partner discarded).  Each time step applies the gas-gas sweep first,
then the bath sweep (first-order operator splitting).

The bath sweep keeps every acceptance probability proportional to the exact
frequency nu(v) with one common majorant factor, so the embedded jump chain
is that of the exact linear process: scaling all jump rates by a common
per-step constant leaves the stationary law unchanged, which is why the
long-time statistics of the scheme carry no time-step bias.
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

from .background import BathParams, abs_moment, sample_bath
from .kinematics import RestitutionParams, collide_l_sigma, collide_q
from .observables import (
    DEFAULT_SIGMA_PAIRS,
    DEFAULT_Y_ORDERS,
    MomentRecord,
    f_aux,
    h_phi,
    lp_norm,
    moments,
    sigma_freq,
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
    collisions_q: int = 0
    collisions_l: int = 0
    overflows: int = 0
    final: Ensemble | None = None

    def times(self) -> Array:
        return np.array([r.t for r in self.records])

    def thetas(self) -> Array:
        return np.array([r.theta for r in self.records])

    def to_csv(self, path: str | Path, lp_p: float = 1.5) -> None:
        write_records(path, self.records, lp_p=lp_p)


class _Majorant:
    """Running majorant of a relative-speed kernel for one sweep kind."""

    def __init__(self, safety: float):
        self.safety = safety
        self.value = 0.0
        self.observed = 0.0
        self.overflows = 0

    def refresh(self, vmax: float, proxy: float) -> None:
        # 4x is a deliberately loose envelope; never shrink below anything
        # actually observed so repeated overflows cannot ratchet downwards.
        self.value = max(4.0 * (vmax + proxy), self.observed)

    def grow(self, observed: float) -> None:
        self.overflows += 1
        self.observed = max(self.observed, observed)
        self.value = max(self.value, observed) * self.safety


def _uniform_sphere(rng: np.random.Generator, k: int) -> Array:
    z = rng.uniform(-1.0, 1.0, k)
    phi = rng.uniform(0.0, 2.0 * math.pi, k)
    s = np.sqrt(np.clip(1.0 - z**2, 0.0, None))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def step_q(
    velocities: Array,
    dt: float,
    tau: float,
    restitution: RestitutionParams,
    q_max: float,
    rng: np.random.Generator,
) -> tuple[int, float]:
    """One Nanbu-Babovsky gas-gas sweep; mutates ``velocities`` on success.

    Candidate pairs are disjoint (sampled from one permutation), the number
    of candidates is ceil(N tau q_max dt / 2), and each candidate is accepted
    with probability |q| / q_max.  Returns (accepted collisions, largest
    observed |q|).  Raises internally if a pair exceeds the majorant, before
    any mutation, so the caller can enlarge and retry.
    """
    n = velocities.shape[0]
    m = math.ceil(n * tau * q_max * dt / 2.0)
    if m == 0:
        return 0, 0.0
    if 2 * m > n:
        raise TimeStepError(
            f"dt = {dt} requests {m} candidate pairs for {n} particles "
            f"(dt * majorant rate >= 1); shrink dt"
        )
    perm = rng.permutation(n)
    i_all, j_all = perm[:m], perm[m : 2 * m]
    rel = velocities[i_all] - velocities[j_all]
    speeds = np.linalg.norm(rel, axis=1)
    max_speed = float(speeds.max())
    if max_speed > q_max:
        raise _MajorantOverflow(max_speed)
    acc = rng.random(m) < speeds / q_max
    i, j = i_all[acc], j_all[acc]
    if i.size == 0:
        return 0, max_speed
    sigma = _uniform_sphere(rng, i.size)
    v_post, w_post = collide_q(velocities[i], velocities[j], sigma, restitution)
    velocities[i] = v_post
    velocities[j] = w_post
    return int(i.size), max_speed


def step_l(
    velocities: Array,
    dt: float,
    restitution: RestitutionParams,
    bath: BathParams,
    l_max: float,
    rng: np.random.Generator,
) -> tuple[int, float]:
    """One bath sweep; mutates ``velocities`` on success.

    Each particle becomes a candidate with probability 1 - exp(-nu_max dt),
    nu_max = l_max / lambda; a candidate draws a fresh bath partner, accepts
    with probability |v - w| / l_max, and is transformed by the sigma-form
    bath collision map (the partner is discarded - the bath is a fixed
    reservoir).  Returns (accepted collisions, largest observed |v - w|).
    """
    n = velocities.shape[0]
    nu_max = l_max / bath.lambda_
    p_cand = -math.expm1(-nu_max * dt)
    cand = np.nonzero(rng.random(n) < p_cand)[0]
    if cand.size == 0:
        return 0, 0.0
    partners = sample_bath(bath, cand.size, rng)
    rel = velocities[cand] - partners
    speeds = np.linalg.norm(rel, axis=1)
    max_rel = float(speeds.max())
    if max_rel > l_max:
        raise _MajorantOverflow(max_rel)
    acc = rng.random(cand.size) < speeds / l_max
    idx = cand[acc]
    if idx.size == 0:
        return 0, max_rel
    sigma = _uniform_sphere(rng, idx.size)
    v_post, _ = collide_l_sigma(velocities[idx], partners[acc], sigma, restitution)
    velocities[idx] = v_post
    return int(idx.size), max_rel


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
    if obs.compute_lp:
        pairs = []
        for p in (2.0, obs.lp_p):
            est = lp_norm(velocities, p, bins=obs.lp_bins)
            pairs.append((p, est.value))
        extras["lp"] = tuple(pairs)
    if obs.h_reference is not None:
        tags = []
        for tag in obs.h_tags:
            tags.append((tag, h_phi(
                velocities, obs.h_reference, phi=tag, bins=obs.h_bins,
                extent=obs.h_extent, center=obs.h_center,
                bias_correct=obs.h_bias_correct and tag == "quad",
            )))
        extras["h_phi"] = tuple(tags)
    if obs.compute_sigma:
        extras["sigma_mean"] = sigma_freq(
            velocities, config.bath, config.tau,
            rng=np.random.default_rng(0), max_pairs=obs.sigma_pairs,
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
    proxy = abs_moment(bath, 1.0) if bath is not None else 0.0
    maj_q = _Majorant(config.majorant_safety)
    maj_l = _Majorant(config.majorant_safety)

    n_steps = max(1, int(round((config.t_end - t0) / config.dt)))
    traj = MomentTrajectory(records=[], config=config)
    traj.records.append(_make_record(vel, t0, config, obs))

    for step in range(1, n_steps + 1):
        vmax = float(np.linalg.norm(vel, axis=1).max())
        if config.tau > 0.0:
            maj_q.refresh(vmax, proxy)
            if config.tau * maj_q.value * config.dt >= 1.0:
                raise TimeStepError(
                    f"dt * tau * Q_max = {config.tau * maj_q.value * config.dt:.3g} >= 1 "
                    f"at step {step}; shrink dt"
                )
            for _attempt in range(64):
                try:
                    nq, seen = step_q(
                        vel, config.dt, config.tau, config.restitution, maj_q.value, rng
                    )
                    maj_q.observed = max(maj_q.observed, seen)
                    traj.collisions_q += nq
                    break
                except _MajorantOverflow as exc:
                    log.warning("gas majorant overflow at step %d: %s", step, exc)
                    maj_q.grow(exc.observed)
            else:
                raise NumericalFault(f"gas majorant failed to stabilize at step {step}")
        if bath is not None:
            maj_l.refresh(vmax + float(np.linalg.norm(bath.u1)), proxy)
            if (maj_l.value / bath.lambda_) * config.dt >= 1.0:
                raise TimeStepError(
                    f"dt * nu_max = {maj_l.value / bath.lambda_ * config.dt:.3g} >= 1 "
                    f"at step {step}; shrink dt"
                )
            for _attempt in range(64):
                try:
                    nl, seen = step_l(
                        vel, config.dt, config.restitution, bath, maj_l.value, rng
                    )
                    maj_l.observed = max(maj_l.observed, seen)
                    traj.collisions_l += nl
                    break
                except _MajorantOverflow as exc:
                    log.warning("bath majorant overflow at step %d: %s", step, exc)
                    maj_l.grow(exc.observed)
            else:
                raise NumericalFault(f"bath majorant failed to stabilize at step {step}")
        t = t0 + step * config.dt
        if not np.all(np.isfinite(vel)):
            path = _dump_fault(vel, step, t, rng)
            raise NumericalFault(
                f"non-finite velocities at step {step}, t = {t:.6g}; "
                f"diagnostics dumped to {path}",
                dump_path=path,
            )
        if step % obs.record_every == 0 or step == n_steps:
            traj.records.append(_make_record(vel, t, config, obs))
    traj.overflows = maj_q.overflows + maj_l.overflows
    traj.final = Ensemble(velocities=vel, t=t0 + n_steps * config.dt, seed=config.seed)
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
