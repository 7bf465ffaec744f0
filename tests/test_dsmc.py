"""Stochastic-solver oracles: exact conservation per collision, collision
rates against closed forms, equilibrium stationarity, fault handling, and
bitwise reproducibility."""
import dataclasses
import math
import warnings

import numpy as np
import pytest
from conftest import drawn_sweep, nu_mc, skewed_table_bath, traced_peak

from granular_bath import dsmc
from granular_bath.background import BathParams, NumericalFault, linear_steady, nu
from granular_bath.dsmc import (
    MomentTrajectory,
    ObserverConfig,
    SimConfig,
    detect_steady,
    run,
    step_l,
    step_q,
)
from granular_bath.kinematics import RestitutionParams, _sq_norm
from granular_bath.observables import (
    MomentRecord,
    box_edges,
    f_aux,
    h_phi,
    histogram,
    lp_norm,
    maxwellian_cells,
    moments,
    read_records,
    sigma_freq,
    thermal_extent,
)


def bath_at(theta1=1.0, m1=1.0, lam=1.0, u1=(0.0, 0.0, 0.0)):
    return BathParams(m1=m1, u1=np.array(u1, float), theta1=theta1, lambda_=lam)


def gaussian_init(n, theta=1.0, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 3)) * math.sqrt(theta)


class TestStepQ:
    def test_momentum_conserved_per_step(self):
        rest = RestitutionParams(epsilon=0.7, e=1.0, m1=1.0)
        vel = gaussian_init(4000, seed=1)
        before = vel.sum(axis=0)
        rng = np.random.default_rng(2)
        total = 0
        for _ in range(20):
            (n_acc,) = drawn_sweep(step_q, vel, 0.05, 1.0, rest, 12.0, rng=rng)
            total += n_acc
        assert total > 0
        drift = np.abs(vel.sum(axis=0) - before).max()
        assert drift <= 1e-10 * math.sqrt(vel.shape[0])

    def test_elastic_energy_conserved(self):
        rest = RestitutionParams(epsilon=1.0, e=1.0, m1=1.0)
        vel = gaussian_init(4000, seed=3)
        before = float(np.sum(vel**2))
        rng = np.random.default_rng(4)
        collisions = 0
        for _ in range(20):
            (n_acc,) = drawn_sweep(step_q, vel, 0.05, 1.0, rest, 12.0, rng=rng)
            collisions += n_acc
        after = float(np.sum(vel**2))
        assert collisions > 100
        assert abs(after - before) <= 1e-12 * before * max(collisions, 1)

    def test_inelastic_energy_strictly_decreases(self):
        rest = RestitutionParams(epsilon=0.6, e=1.0, m1=1.0)
        vel = gaussian_init(4000, seed=5)
        before = float(np.sum(vel**2))
        (n_acc,) = drawn_sweep(step_q, vel, 0.05, 1.0, rest, 12.0, rng=np.random.default_rng(6))
        assert n_acc > 0
        assert float(np.sum(vel**2)) < before

    def test_sweeps_write_through_non_contiguous_arrays(self):
        # A Fortran-ordered array and a row-strided view are updated in place
        # exactly as a C-contiguous copy of the same velocities.
        rest = RestitutionParams(epsilon=0.7, e=0.8, m1=1.3)
        bath = bath_at(u1=(0.2, 0.0, -0.1))
        base = gaussian_init(3000, seed=9)
        wide = np.zeros((6000, 3))
        views = [base.copy(), np.asfortranarray(base), wide[::2]]
        views[2][...] = base
        for vel in views:
            rng = np.random.default_rng(10)
            drawn_sweep(step_q, vel, 0.05, 1.0, rest, 12.0, rng=rng)
            drawn_sweep(step_l, vel, 0.05, rest, bath, 10.0, rng=rng)
        assert not np.array_equal(views[0], base)
        for vel in views[1:]:
            assert np.array_equal(vel, views[0])
        assert np.array_equal(wide[::2], views[0]) and not wide[1::2].any()


class TestStepL:
    def test_momentum_not_conserved_but_finite(self):
        # Bath collisions exchange momentum with the reservoir; the sweep
        # must still act only through valid pair maps (finite output).
        rest = RestitutionParams(epsilon=1.0, e=0.8, m1=1.0)
        bath = bath_at()
        vel = gaussian_init(2000, seed=9)
        rng = np.random.default_rng(10)
        (n_acc,) = drawn_sweep(step_l, vel, 0.05, rest, bath, 20.0, rng=rng)
        assert n_acc > 0
        assert np.all(np.isfinite(vel))

    def test_acceptance_rate_matches_nu(self):
        # A monochromatic beam at speed c: per-particle acceptance rate over
        # a short step is nu(v) = E|v - W| / lambda within Monte Carlo error.
        bath = bath_at(theta1=1.0, m1=1.0, lam=2.0)
        rest = RestitutionParams(epsilon=1.0, e=0.8, m1=1.0)
        v0 = np.array([2.0, 0.0, 0.0])
        want = float(nu(bath, v0))
        n, dt, reps, l_max = 40_000, 0.01, 12, 14.0
        rng = np.random.default_rng(11)
        accepted = 0
        for _ in range(reps):
            vel = np.tile(v0, (n, 1))
            (n_acc,) = drawn_sweep(step_l, vel, dt, rest, bath, l_max, rng=rng)
            accepted += n_acc
        # run's draw makes each particle a candidate with probability
        # l_max dt / lambda, and the sweep thins by |v - W| / l_max, so the
        # exact per-particle, per-step law is nu dt.
        p_want = want * dt
        trials = n * reps
        se = math.sqrt(p_want * (1 - p_want) / trials)
        assert accepted / trials == pytest.approx(p_want, abs=4 * se)

    def test_majorant_overflow_is_raised_before_mutation(self):
        # l_max must cover |v - u1| + E B(W) for every candidate; a smaller
        # caller-supplied value is an error, raised before any velocity moves.
        rest = RestitutionParams(epsilon=1.0, e=0.8, m1=1.0)
        bath = bath_at()
        vel = gaussian_init(500, seed=12)
        vel[0] = [50.0, 0.0, 0.0]  # guaranteed to exceed the tiny majorant
        snapshot = vel.copy()
        with pytest.raises(ValueError, match="l_max"):
            drawn_sweep(step_l, vel, 0.05, rest, bath, 1.0, rng=np.random.default_rng(13))
        np.testing.assert_array_equal(vel, snapshot)  # staged, not applied
        with pytest.raises(ValueError, match="q_max"):
            drawn_sweep(step_q, vel, 0.05, 1.0, rest, 1.0, rng=np.random.default_rng(13))
        np.testing.assert_array_equal(vel, snapshot)

    @pytest.mark.parametrize("kind", ["shifted_maxwellian", "tabulated"])
    def test_acceptance_rate_matches_nu_with_hard_majorant(self, kind):
        # Beams at two speeds about u1, swept with the majorant run uses,
        # l_max = |v - u1| + E B(W): per particle and step the collision
        # probability is nu(v) dt, also for m1 != 1, a shifted u1 and a
        # tabulated bath.
        rng = np.random.default_rng(71)
        if kind == "tabulated":
            bath = skewed_table_bath(lam=1.5)
        else:
            bath = bath_at(theta1=1.3, m1=2.0, lam=1.5, u1=(0.3, -0.2, 0.5))
        rest = RestitutionParams(epsilon=1.0, e=0.8, m1=bath.m1)
        n, dt, reps = 40_000, 0.01, 12
        for offset in ([0.1, 0.0, -0.1], [1.5, -2.0, 0.5]):
            v0 = bath.u1 + np.array(offset)
            if kind == "tabulated":
                # nu_mc gives a table's rate: it averages over sample_bath
                # draws, the cell law that the sweep realizes (nu itself
                # refuses a table).
                want, want_se = nu_mc(bath, v0, 2_000_000, rng)
            else:
                want, want_se = float(nu(bath, v0)), 0.0
            l_max = float(np.linalg.norm(v0 - bath.u1)) * (1 + 1e-12) + bath.bound_mean
            accepted = 0
            for _ in range(reps):
                vel = np.tile(v0, (n, 1))
                (n_acc,) = drawn_sweep(step_l, vel, dt, rest, bath, l_max, rng=rng)
                accepted += n_acc
            p_want = want * dt
            trials = n * reps
            se = math.hypot(math.sqrt(p_want * (1 - p_want) / trials), want_se * dt)
            assert accepted / trials == pytest.approx(p_want, abs=4 * se), offset


class TestCandidates:
    # run's one candidate law, dsmc._candidates, against its marginals at
    # every N: a particle is a bath candidate with probability p_l and in a
    # pair with p_q, and the pair {0, 1} is drawn with p_q / (N - 1).

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize(
        "p_q, p_l, draws", [(0.3, 0.2, 100_000), (0.0, 0.2, 20_000), (0.3, 0.0, 20_000)]
    )
    def test_marginals(self, n, p_q, p_l, draws):
        rng = np.random.default_rng(92)
        ms, cands = zip(*(dsmc._candidates(rng, n, p_q, p_l) for _ in range(draws)))
        ms, sizes = np.array(ms), np.array([c.size for c in cands])
        assert np.all(2 * ms <= sizes) and np.all(sizes <= n)
        flat = np.concatenate(cands)
        draw = np.repeat(np.arange(draws), sizes)
        assert np.bincount(draw * n + flat).max() == 1  # distinct within a draw
        pos = np.arange(flat.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        m = np.repeat(ms, sizes)
        in_pair = pos < 2 * m
        paired = np.bincount(flat[in_pair], minlength=n)
        bathed = np.bincount(flat[~in_pair], minlength=n)
        first = np.flatnonzero(pos < m)  # candidates[i], paired with [m + i]
        pair01 = np.count_nonzero(flat[first] + flat[first + m[first]] == 1)  # only {0, 1}
        for got, want in ((bathed, p_l), (paired, p_q), (pair01, p_q / (n - 1))):
            se = math.sqrt(want * (1.0 - want) / draws)
            assert np.all(np.abs(np.asarray(got) / draws - want) <= 4.0 * se), (got, want)


class TestRunCooling:
    def test_temperature_decreases_monotonically_in_records(self):
        rest = RestitutionParams(epsilon=0.8, e=1.0, m1=1.0)
        config = SimConfig(
            tau=1.0, restitution=rest, bath=None, dt=0.01, t_end=2.0,
            n_particles=20_000, seed=42,
        )
        traj = run(config, ObserverConfig(record_every=20))
        thetas = traj.thetas()
        assert thetas[-1] < thetas[0] * 0.8
        # Cooling can only lose energy; allow record-level jitter only.
        assert np.all(np.diff(thetas) <= 1e-12)

    def test_momentum_invariant_over_run(self):
        rest = RestitutionParams(epsilon=0.8, e=1.0, m1=1.0)
        config = SimConfig(
            tau=1.0, restitution=rest, bath=None, dt=0.01, t_end=1.0,
            n_particles=10_000, seed=43,
        )
        init = gaussian_init(10_000, seed=44)
        p0 = init.sum(axis=0)
        traj = run(config, init=init)
        p1 = traj.final.sum(axis=0)
        assert np.abs(p1 - p0).max() <= 1e-9

    def test_no_collisions_without_gas_or_bath(self):
        # tau = 0 and no bath: free streaming in the homogeneous setting is
        # the identity; the trajectory must stay exactly constant.
        rest = RestitutionParams(epsilon=0.8, e=1.0, m1=1.0)
        config = SimConfig(
            tau=0.0, restitution=rest, bath=None, dt=0.05, t_end=1.0,
            n_particles=500, seed=45,
        )
        init = gaussian_init(500, seed=46)
        traj = run(config, init=init)
        assert traj.collisions_q == 0
        assert traj.collisions_l == 0
        np.testing.assert_array_equal(traj.final, init)


class TestRunLinear:
    def test_elastic_equal_mass_equilibrium_is_stationary(self):
        # e = 1, m1 = 1: the gas thermalizes to the bath Maxwellian; starting
        # there, Theta must stay within sampling error of theta1.
        rest = RestitutionParams(epsilon=1.0, e=1.0, m1=1.0)
        bath = bath_at(theta1=1.0)
        n = 40_000
        config = SimConfig(
            tau=0.0, restitution=rest, bath=bath, dt=0.02, t_end=6.0,
            n_particles=n, seed=47,
        )
        traj = run(config, init=gaussian_init(n, theta=1.0, seed=48))
        se_theta = math.sqrt(2.0 / (3 * n))
        # Stationary fluctuations stay O(se); 6x covers the supremum over
        # ~30 records of a mean-reverting series.
        assert np.all(np.abs(traj.thetas() - 1.0) <= 6 * se_theta)

    def test_cold_start_heats_to_bath_temperature(self):
        rest = RestitutionParams(epsilon=1.0, e=1.0, m1=1.0)
        bath = bath_at(theta1=1.0)
        n = 20_000
        config = SimConfig(
            tau=0.0, restitution=rest, bath=bath, dt=0.02, t_end=16.0,
            n_particles=n, seed=49,
        )
        traj = run(config, init=gaussian_init(n, theta=0.04, seed=50))
        se_theta = math.sqrt(2.0 / (3 * n))
        assert abs(traj.thetas()[-1] - 1.0) <= 4 * se_theta


class TestUnsplitStep:
    def test_strong_coupling_runs_without_gas_overflow(self):
        # tau = 4, dt = 0.01 exceeded the old loose gas-gas majorant's time
        # step.  q_max = 2 max|v - u| bounds every pair speed, so a step_q
        # ValueError (which run does not catch) cannot end the run.
        rest = RestitutionParams(epsilon=0.8, e=0.8, m1=1.0)
        config = SimConfig(
            tau=4.0, restitution=rest, bath=bath_at(), dt=0.01, t_end=1.0,
            n_particles=20_000, seed=65,
        )
        traj = run(config)
        assert traj.collisions_q > 0
        assert traj.collisions_q <= traj.candidates_q
        assert traj.collisions_l <= traj.candidates_l

    def test_tabulated_bath_bound_is_a_tight_hard_bound(self):
        # B(w) = |c - u1| + half-diagonal, c the centre of w's cell, bounds
        # |w - u1| for every draw, plain or size-biased, and exceeds it by at
        # most a cell diagonal; a run on the table needs no other bound.
        from granular_bath.background import TabulatedDensity, sample_partners

        ax = np.linspace(-3.0, 3.0, 7)  # unit cells
        values = np.zeros((7, 7, 7))
        values[0, 0, 0] = values[3, 3, 3] = values[6, 6, 6] = 1.0  # u1 = 0
        table = TabulatedDensity(axes=(ax, ax, ax), values=values)
        bath = BathParams(
            m1=1.0, u1=np.zeros(3), theta1=1.0, lambda_=1.0, table=table,
        )
        draws, bounds = sample_partners(bath, 100_000, 100_000, np.random.default_rng(67))
        dist = np.linalg.norm(draws - bath.u1, axis=1)
        assert np.all(dist <= bounds)
        assert np.all(bounds - dist <= math.sqrt(3.0))
        rest = RestitutionParams(epsilon=0.8, e=0.8, m1=1.0)
        config = SimConfig(
            tau=1.0, restitution=rest, bath=bath, dt=0.01, t_end=0.5,
            n_particles=2000, seed=68,
        )
        traj = run(config)
        assert traj.collisions_l > 0

    def test_event_sets_are_disjoint_with_linear_sizes(self, monkeypatch):
        # Each step the loop gives step_q 2m pair indices and step_l k bath
        # indices: no particle in both, E[2m] = N p_q and E[k] = N p_l, with
        # p_q = tau q_max dt and p_l = l_max dt / lambda.
        import granular_bath.dsmc as dsmc_mod

        seen = {"q": [], "l": []}

        def recorder(kind, orig, majorant_at):
            def wrapped(*args, candidates, **kwargs):
                seen[kind].append((candidates.copy(), args[majorant_at]))
                return orig(*args, candidates=candidates, **kwargs)
            return wrapped

        monkeypatch.setattr(dsmc_mod, "step_q", recorder("q", step_q, 4))
        monkeypatch.setattr(dsmc_mod, "step_l", recorder("l", step_l, 4))
        n, dt, tau, lam = 4000, 0.02, 1.5, 0.7
        rest = RestitutionParams(epsilon=0.8, e=0.8, m1=1.0)
        config = SimConfig(
            tau=tau, restitution=rest, bath=bath_at(lam=lam), dt=dt, t_end=4.0,
            n_particles=n, seed=66,
        )
        traj = run(config)
        assert len(seen["q"]) == len(seen["l"]) == 200
        got_q = got_l = want_q = want_l = var_q = var_l = 0.0
        for (pairs, q_max), (bath_idx, l_max) in zip(seen["q"], seen["l"]):
            assert np.intersect1d(pairs, bath_idx).size == 0
            assert np.unique(pairs).size == pairs.size
            assert np.unique(bath_idx).size == bath_idx.size
            p_q, p_l = tau * q_max * dt, l_max * dt / lam
            r = p_l / (1.0 - p_q)
            got_q += pairs.size
            got_l += bath_idx.size
            want_q += n * p_q
            want_l += n * p_l
            # 2m = 2 Binomial(N/2, p_q); k = Binomial(N - 2m, r).
            var_q += 2.0 * n * p_q * (1.0 - p_q)
            var_l += n * (1.0 - p_q) * r * (1.0 - r) + 2.0 * n * p_q * (1.0 - p_q) * r * r
        assert abs(got_q - want_q) <= 4.0 * math.sqrt(var_q), (got_q, want_q)
        assert abs(got_l - want_l) <= 4.0 * math.sqrt(var_l), (got_l, want_l)
        assert traj.candidates_q == got_q / 2
        assert traj.candidates_l == got_l

    @pytest.mark.parametrize("case", ["cooling", "shifted_cold_start", "tabulated"])
    def test_majorants_are_exact_every_step(self, monkeypatch, case):
        # Every step, q_max / 2 and l_max - b equal max|v - c| over all N
        # particles, c = u1 with a bath and the initial mean without one, up
        # to the 1e-14 pad: no smaller (a hard bound) and no larger (tight).
        # The maximum is taken over the velocities the step began with,
        # which the first sweep receives; step_l runs before step_q and moves
        # some particles in between.
        import granular_bath.dsmc as dsmc_mod

        n = 4000
        rest = RestitutionParams(epsilon=0.8, e=0.8, m1=1.0)
        init = gaussian_init(n, seed=72)
        if case == "cooling":
            bath = None
        elif case == "shifted_cold_start":
            bath = bath_at(m1=2.0, u1=(0.3, -0.2, 0.5))
            rest = RestitutionParams(epsilon=0.8, e=0.8, m1=2.0)
            init = gaussian_init(n, theta=0.04, seed=72)
        else:
            bath = skewed_table_bath()
        centre = bath.u1 if bath is not None else init.mean(axis=0)
        checked = {"q": 0, "l": 0}
        start = {}

        def check(kind, bound, velocities):
            if kind == "l" or bath is None:  # the first sweep of the step
                start["r"] = float(np.linalg.norm(velocities - centre, axis=1).max())
            r = start["r"]
            assert r <= bound <= r * (1.0 + 1e-12), (kind, checked[kind], bound, r)
            checked[kind] += 1

        def wrapped_q(velocities, dt, tau, restitution, q_max, rng, candidates, **kwargs):
            check("q", q_max / 2.0, velocities)
            return step_q(
                velocities, dt, tau, restitution, q_max, rng, candidates=candidates, **kwargs
            )

        def wrapped_l(velocities, dt, restitution, bath_, l_max, rng, candidates, **kwargs):
            check("l", l_max - bath_.bound_mean, velocities)
            return step_l(
                velocities, dt, restitution, bath_, l_max, rng, candidates=candidates, **kwargs
            )

        monkeypatch.setattr(dsmc_mod, "step_q", wrapped_q)
        monkeypatch.setattr(dsmc_mod, "step_l", wrapped_l)
        config = SimConfig(
            tau=1.0, restitution=rest, bath=bath, dt=0.01, t_end=2.0,
            n_particles=n, seed=73,
        )
        traj = run(config, init=init)
        assert checked == {"q": 200, "l": 0 if bath is None else 200}
        assert traj.collisions_q > 0
        assert bath is None or traj.collisions_l > 0


class TestSweepCache:
    # Each sweep with run's |v - c|^2 cache against a reference from one
    # generator state on the same candidates: the same counts, velocities
    # and stream, and a cache equal to a fresh _sq_norm after.  The gas
    # sweep's reference is the sweep given a cache of q_max^2 at every row,
    # whose screen passes every pair; the bath sweep's is a fresh cache
    # before each sweep.

    @staticmethod
    def collinear(rng, n, centre, scale):
        # Pairs (k, n/2 + k) with w - c = -t (v - c): |v - w| = a_i + a_j,
        # where the screen's bound is tight.
        h = n // 2
        direction = rng.standard_normal((h, 3))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        a = rng.uniform(0.3, 1.0, (h, 1)) * scale
        t = rng.uniform(0.3, 1.0, (h, 1))
        return np.concatenate([centre + a * direction, centre - t * a * direction])

    def ensemble(self, case, scale, n):
        rng = np.random.default_rng(81)
        if case == "cooling":
            vel = (rng.standard_normal((n, 3)) + [0.2, -0.1, 0.3]) * scale
            centre = vel.mean(axis=0)  # run's centre without a bath
        else:
            centre = np.array([0.3, -0.2, 0.5]) * scale
            if case == "collinear":
                vel = self.collinear(rng, n, centre, scale)
            else:
                vel = rng.standard_normal((n, 3)) * scale + centre
        return vel, centre

    @staticmethod
    def sweep_q(vel, centre, rng_seed, screened, q_max=None):
        rest = RestitutionParams(epsilon=0.7, e=1.0, m1=1.0)
        d2 = _sq_norm(vel, centre)
        if q_max is None:
            q_max = 2.0 * dsmc._radius(d2)
        if not screened:
            d2 = np.full(vel.shape[0], q_max**2)  # a_i + a_j = 2 q_max > u
        cand = np.arange(vel.shape[0])
        rng = np.random.default_rng(rng_seed)
        (n_acc,) = step_q(vel, 0.01, 1.0 / q_max, rest, q_max, rng, cand, d2, centre)
        return n_acc, rng.random(), d2

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_pad_covers_the_rounding_of_collinear_pairs(self, scale):
        # The computed |v - w| of a collinear pair exceeds the computed
        # a_i + a_j by a few ulp for some pairs, never by the 1e-14 pad.
        centre = np.array([0.3, -0.2, 0.5]) * scale
        vel = self.collinear(np.random.default_rng(80), 200_000, centre, scale)
        v, w = vel[:100_000], vel[100_000:]
        speeds = np.sqrt(_sq_norm(v, w))
        bound = np.sqrt(_sq_norm(v, centre)) + np.sqrt(_sq_norm(w, centre))
        assert np.any(speeds > bound)
        assert np.all(speeds <= bound * dsmc._PAD)

    @pytest.mark.parametrize("case", ["shifted", "cooling", "collinear"])
    @pytest.mark.parametrize("scale", [1e-150, 1e-50, 1.0, 1e50, 1e150])
    def test_step_q_with_cache_equals_without(self, case, scale):
        n = 40_000 if case == "collinear" else 4000
        base, centre = self.ensemble(case, scale, n)
        q_max = None
        if case == "collinear":
            # Just above the largest pair speed, so that u falls close below
            # a_i + a_j for many pairs.
            q_max = 2.0 * float(np.sqrt(_sq_norm(base[: n // 2], centre)).max()) * 1.001
        plain, cached = base.copy(), base.copy()
        n_plain, next_plain, _ = self.sweep_q(plain, centre, 82, False, q_max)
        n_cached, next_cached, d2 = self.sweep_q(cached, centre, 82, True, q_max)
        assert n_plain > 0
        assert n_cached == n_plain
        assert next_cached == next_plain
        assert cached.tobytes() == plain.tobytes()
        assert d2.tobytes() == _sq_norm(cached, centre).tobytes()

    @pytest.mark.parametrize(
        "kind, scale",
        [("shifted_maxwellian", 1e-150), ("shifted_maxwellian", 1.0),
         ("shifted_maxwellian", 1e150), ("tabulated", 1.0)],
    )
    def test_step_l_with_cache_equals_without(self, kind, scale):
        rng = np.random.default_rng(83)
        if kind == "tabulated":
            bath = skewed_table_bath(lam=1.5)
        else:
            bath = BathParams(
                m1=2.0, u1=np.array([0.3, -0.2, 0.5]) * scale, theta1=1.3 * scale**2, lambda_=1.5
            )
        rest = RestitutionParams(epsilon=1.0, e=0.8, m1=bath.m1)
        base = rng.standard_normal((4000, 3)) * 2.0 * scale + bath.u1
        d2 = _sq_norm(base, bath.u1)
        # Two sweeps on overlapping candidates, so that the second reads rows
        # of the cache that the first wrote.
        cands = [rng.permutation(4000)[:3000] for _ in range(2)]
        plain, cached = base.copy(), base.copy()
        rng_plain, rng_cached = np.random.default_rng(84), np.random.default_rng(84)
        for cand in cands:
            fresh = _sq_norm(plain, bath.u1)
            l_max = dsmc._radius(fresh) + bath.bound_mean
            got_plain = step_l(plain, 0.01, rest, bath, l_max, rng_plain, cand, fresh)
            got_cached = step_l(cached, 0.01, rest, bath, l_max, rng_cached, cand, d2)
            assert got_plain[0] > 0
            assert got_cached == got_plain
        assert rng_cached.random() == rng_plain.random()
        assert cached.tobytes() == plain.tobytes()
        assert d2.tobytes() == _sq_norm(cached, bath.u1).tobytes()

    @pytest.mark.parametrize("case", ["cooling", "shifted_cold_start", "tabulated"])
    def test_cache_is_exact_at_every_step(self, monkeypatch, case):
        # run reads the radius off its cache once after each step: there the
        # cache must equal a fresh |v - c|^2 of every particle.
        n = 4000
        rest = RestitutionParams(epsilon=0.8, e=0.8, m1=1.0)
        init = gaussian_init(n, seed=85)
        if case == "cooling":
            bath = None
        elif case == "shifted_cold_start":
            bath = bath_at(m1=2.0, u1=(0.3, -0.2, 0.5))
            rest = RestitutionParams(epsilon=0.8, e=0.8, m1=2.0)
            init = gaussian_init(n, theta=0.04, seed=85)
        else:
            bath = skewed_table_bath()
        centre = bath.u1 if bath is not None else init.mean(axis=0)
        seen = {"cache": None, "vel": None, "checked": 0}
        radius, sweep = dsmc._radius, step_l if bath is not None else step_q

        def checked_radius(d2):
            if seen["cache"] is None:
                seen["cache"] = d2  # the first call, before step 1, gets the cache
            elif d2 is seen["cache"]:
                want = _sq_norm(seen["vel"], centre)
                assert d2.tobytes() == want.tobytes(), seen["checked"]
                seen["checked"] += 1
            return radius(d2)

        def first_sweep(velocities, *args, **kwargs):
            seen["vel"] = velocities
            return sweep(velocities, *args, **kwargs)

        monkeypatch.setattr(dsmc, "_radius", checked_radius)
        monkeypatch.setattr(dsmc, "step_l" if bath is not None else "step_q", first_sweep)
        config = SimConfig(
            tau=1.0, restitution=rest, bath=bath, dt=0.01, t_end=1.0,
            n_particles=n, seed=86,
        )
        run(config, init=init)
        assert seen["checked"] == 100


class TestFaults:
    def test_nan_init_is_rejected_up_front(self):
        init = gaussian_init(100, seed=53)
        init[7, 1] = math.nan
        config = SimConfig(
            tau=1.0, restitution=RestitutionParams(epsilon=0.8, e=0.8, m1=1.0),
            bath=bath_at(), dt=0.01, t_end=0.1, n_particles=100, seed=53,
        )
        with pytest.raises(ValueError, match="init velocities must be finite"):
            run(config, init=init)

    def test_init_of_another_particle_count_is_refused(self):
        # 50 rows under a config of 100 particles would run as N = 50, and
        # every standard error that reads config.n_particles would use 100.
        config = SimConfig(
            tau=1.0, restitution=RestitutionParams(epsilon=0.8, e=0.8, m1=1.0),
            bath=bath_at(), dt=0.01, t_end=0.1, n_particles=100, seed=54,
        )
        with pytest.raises(ValueError, match=r"init has shape \(50, 3\)"):
            run(config, init=gaussian_init(50, seed=55))

    @pytest.mark.parametrize("shape", [(100, 2), (300,)], ids=["two-columns", "flat"])
    def test_init_that_is_not_n_by_3_is_refused(self, shape):
        # 300 numbers are 100 velocities only as a (100, 3) array; any other
        # layout of them is refused, not reshaped.
        config = SimConfig(
            tau=1.0, restitution=RestitutionParams(epsilon=0.8, e=0.8, m1=1.0),
            bath=bath_at(), dt=0.01, t_end=0.1, n_particles=100, seed=54,
        )
        init = np.random.default_rng(55).standard_normal(shape)
        with pytest.raises(ValueError, match=r"needs \(100, 3\)"):
            run(config, init=init)

    def test_init_is_copied_not_moved(self):
        # The sweeps update velocities in place; the caller's array must not
        # be the one they update.
        config = SimConfig(
            tau=1.0, restitution=RestitutionParams(epsilon=0.8, e=0.8, m1=1.0),
            bath=bath_at(), dt=0.01, t_end=0.1, n_particles=100, seed=54,
        )
        init = gaussian_init(100, seed=55)
        before = init.copy()
        traj = run(config, init=init)
        assert traj.collisions_l + traj.collisions_q > 0
        np.testing.assert_array_equal(init, before)
        assert not np.shares_memory(traj.final, init)

    def test_nan_that_no_sweep_reports_is_found_at_the_record(self, monkeypatch):
        # A bath sweep that writes a NaN without updating the cache leaves
        # the radius finite; the record step's full check finds the row.
        def poisoned_step_l(velocities, *args, **kwargs):
            velocities[0, 0] = math.nan
            return (1,)

        monkeypatch.setattr(dsmc, "step_l", poisoned_step_l)
        rest = RestitutionParams(epsilon=1.0, e=0.8, m1=1.0)
        config = SimConfig(
            tau=0.0, restitution=rest, bath=bath_at(), dt=0.01, t_end=0.5,
            n_particles=100, seed=54,
        )
        with pytest.raises(NumericalFault, match=r"overflow at step 10, t = 0\.1$"):
            run(config)

    def test_nan_in_a_moved_row_stops_the_run_at_that_step(self, monkeypatch):
        # A NaN written by the bath collision map at step 3 reaches the cache
        # at the moved row, and the radius taken after the step is NaN: the
        # run stops at step 3, not at the record of step 10.  Records draw
        # nothing from the generator, so a run to t_end = 2 dt replays the
        # state that step 3 started from.
        starts = []

        def watched_step_l(velocities, *args, **kwargs):
            starts.append(velocities.copy())
            return step_l(velocities, *args, **kwargs)

        monkeypatch.setattr(dsmc, "step_l", watched_step_l)
        collide = dsmc.collide_l_sigma
        calls = []

        def poisoned(*args, **kwargs):
            post = collide(*args, **kwargs)
            calls.append(1)
            if len(calls) == 3:
                post[0][0, 1] = math.nan
            return post

        monkeypatch.setattr(dsmc, "collide_l_sigma", poisoned)
        rest = RestitutionParams(epsilon=1.0, e=0.8, m1=1.0)
        config = SimConfig(
            tau=1.0, restitution=rest, bath=bath_at(), dt=0.01, t_end=0.5,
            n_particles=2000, seed=87,
        )
        with pytest.raises(NumericalFault, match=r"at step 3, t = 0\.03$"):
            run(config)
        assert len(starts) == 3
        monkeypatch.setattr(dsmc, "collide_l_sigma", collide)
        replay = run(dataclasses.replace(config, t_end=0.02))
        assert replay.final.tobytes() == starts[2].tobytes()

    def overflowing_step_l(self, at_call):
        # The real sweep, then 1e200 written into a row it was given, with
        # the cache refreshed there as the sweep contract asks.
        calls = []

        def sweep(velocities, dt, restitution, bath, l_max, rng, candidates, d2):
            out = step_l(velocities, dt, restitution, bath, l_max, rng, candidates, d2=d2)
            calls.append(1)
            if len(calls) == at_call:
                row = candidates[:1]
                velocities[row] = 1e200
                d2[row] = _sq_norm(velocities[row], bath.u1)
            return out

        return sweep

    def test_overflow_of_a_moved_row_is_a_numerical_fault(self, monkeypatch):
        # |v - u1|^2 of a velocity of 1e200 overflows to inf: the velocities
        # are finite, the radius is not, and the run stops at that step.
        monkeypatch.setattr(dsmc, "step_l", self.overflowing_step_l(3))
        rest = RestitutionParams(epsilon=1.0, e=0.8, m1=1.0)
        config = SimConfig(
            tau=1.0, restitution=rest, bath=bath_at(), dt=0.01, t_end=0.5,
            n_particles=2000, seed=88,
        )
        with pytest.raises(NumericalFault) as exc_info, np.errstate(over="ignore"):
            run(config)
        message = "non-finite velocities or |v - c|^2 overflow at step 3, t = 0.03"
        assert str(exc_info.value) == message

    def test_overflow_of_a_moved_row_exits_3_from_the_cli(self, tmp_path, monkeypatch, capsys):
        # One line on standard error, and no file anywhere: not in --out and
        # not in the temporary directory.
        import json
        import tempfile

        from granular_bath import cli

        temp = tmp_path / "temp"
        temp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        monkeypatch.setattr(dsmc, "step_l", self.overflowing_step_l(2))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"mode": "full", "n_particles": 2000, "t_end": 0.5, "seed": 89}
        ))
        with np.errstate(over="ignore"):
            code = cli.main(["full", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "numerical fault: non-finite velocities or |v - c|^2 overflow at step 2, t = 0.02"
        ]
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()
        assert list(temp.iterdir()) == []

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_overflowing_initial_ensemble_is_rejected(self, tau):
        # A velocity of 1e200 in the initial ensemble is finite, but its
        # |v - c|^2 overflows: the run names the initial velocities before
        # the first record, with no overflow warning on the way.
        rest = RestitutionParams(epsilon=1.0, e=0.8, m1=1.0)
        init = gaussian_init(100, seed=90)
        init[5] = 1e200
        config = SimConfig(
            tau=tau, restitution=rest, bath=bath_at(), dt=0.01, t_end=0.5,
            n_particles=100, seed=91,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="initial velocities") as exc_info:
                run(config, init=init)
        assert type(exc_info.value) is ValueError

    @pytest.mark.parametrize(
        "field,value",
        [("dt", math.nan), ("dt", math.inf), ("t_end", math.nan), ("t_end", math.inf)],
    )
    def test_non_finite_dt_and_t_end_are_rejected(self, field, value):
        # Each would fail later in run: a NaN step count cannot become an
        # integer, t_end = inf overflows it, and dt = inf fails a step.
        times = {"dt": 0.01, "t_end": 0.5, field: value}
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            SimConfig(
                tau=1.0, restitution=RestitutionParams(epsilon=0.8, e=0.8, m1=1.0),
                bath=bath_at(), n_particles=100, seed=0, **times,
            )

    def test_oversized_dt_runs_to_t_end(self):
        # A hot bath with dt = 5 puts the event probability of a whole step
        # far above 1.  The steps run as sub-steps, and after two steps the
        # gas sits at the linear steady temperature within 4 standard errors
        # of one Maxwellian sample, 2 theta^2 / (3N).
        rest = RestitutionParams(epsilon=1.0, e=0.8, m1=1.0)
        bath = bath_at(theta1=100.0)  # hot bath -> large nu_max
        config = SimConfig(
            tau=0.0, restitution=rest, bath=bath, dt=5.0, t_end=10.0,
            n_particles=100, seed=55,
        )
        traj = run(config)
        assert traj.times().tolist() == [0.0, 10.0]
        theta_lin = linear_steady(rest, bath)
        se = theta_lin * math.sqrt(2.0 / (3.0 * config.n_particles))
        assert abs(traj.records[-1].theta - theta_lin) <= 4.0 * se

    @pytest.mark.parametrize("dt, t_end", [(0.6, 1.0), (0.4, 1.0), (0.1, 0.95)])
    def test_t_end_off_the_step_grid_raises(self, dt, t_end):
        # t_end = 1.0, 1.0 and 0.95 are 1.67, 2.5 and 9.5 steps: a run
        # would end at 1.2, 0.8 or 1.0, not at t_end.
        rest = RestitutionParams(epsilon=0.8, e=0.8, m1=1.0)
        config = SimConfig(
            tau=1.0, restitution=rest, bath=bath_at(), dt=dt, t_end=t_end,
            n_particles=100, seed=59,
        )
        with pytest.raises(ValueError, match="t_end must be a whole number of steps"):
            run(config)

    def test_t_end_below_one_step_raises(self):
        # t_end = 1e-12 is 1e-11 steps, which round to none: the run must
        # not take one anyway and end at dt, past t_end.
        rest = RestitutionParams(epsilon=0.8, e=0.8, m1=1.0)
        config = SimConfig(
            tau=1.0, restitution=rest, bath=bath_at(), dt=0.1, t_end=1e-12,
            n_particles=100, seed=62,
        )
        with pytest.raises(ValueError, match="t_end must be at least one step"):
            run(config)

    def test_rounded_step_count_runs(self):
        # 0.3 / 0.1 is 2.9999999999999996 in floating point: three steps.
        rest = RestitutionParams(epsilon=0.8, e=0.8, m1=1.0)
        config = SimConfig(
            tau=1.0, restitution=rest, bath=bath_at(), dt=0.1, t_end=0.3,
            n_particles=100, seed=61,
        )
        traj = run(config, observers=ObserverConfig(record_every=1))
        assert traj.times().tolist() == pytest.approx([0.0, 0.1, 0.2, 0.3], abs=1e-15)

    def test_loose_fixed_centre_splits_the_step(self, monkeypatch):
        # A gas at rest far from u1 = (3, 0, 0): about u1, q_max = 2 max|v - u1|
        # makes dt (tau q_max + l_max / lambda) = 1.13 at step 1.  The step
        # runs as sub-steps whose lengths sum to dt, each with its own
        # majorants and an event probability below 1.
        import granular_bath.dsmc as dsmc_mod

        subs = []

        def recording_l(velocities, dt, restitution, bath, l_max, *args, **kwargs):
            subs.append([dt, l_max])
            return step_l(velocities, dt, restitution, bath, l_max, *args, **kwargs)

        def recording_q(velocities, dt, tau, restitution, q_max, *args, **kwargs):
            assert subs[-1][0] == dt
            subs[-1].append(tau * q_max)
            return step_q(velocities, dt, tau, restitution, q_max, *args, **kwargs)

        monkeypatch.setattr(dsmc_mod, "step_l", recording_l)
        monkeypatch.setattr(dsmc_mod, "step_q", recording_q)
        rest = RestitutionParams(epsilon=0.8, e=0.8, m1=1.0)
        bath = bath_at(u1=(3.0, 0.0, 0.0))
        config = SimConfig(
            tau=1.0, restitution=rest, bath=bath, dt=0.05, t_end=0.05,
            n_particles=20_000, seed=5,
        )
        traj = run(config)
        assert traj.times()[-1] == 0.05
        assert len(subs) >= 2
        assert math.fsum(h for h, _, _ in subs) == pytest.approx(config.dt, rel=1e-14)
        for h, l_max, tau_q_max in subs:
            assert h * (tau_q_max + l_max / bath.lambda_) < 1.0

    def test_odd_n_pair_slots_split_the_step(self):
        # N = 3 about the centre 0 with radius 1: p_q = tau q_max dt = 0.8,
        # but _candidates draws its one pair slot with p_q N / (2 floor(N/2))
        # = 1.2.  A sub-step count without that factor keeps the step whole,
        # and the binomial draw refuses a probability above 1.
        init = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        config = SimConfig(
            tau=1.0, restitution=RestitutionParams(epsilon=0.8, e=1.0, m1=1.0),
            bath=None, dt=0.4, t_end=2.0, n_particles=3, seed=7,
        )
        traj = run(config, ObserverConfig(record_every=1), init=init)
        assert traj.times().tolist() == pytest.approx([0.0, 0.4, 0.8, 1.2, 1.6, 2.0])
        assert traj.candidates_q > 0


class TestDetectSteady:
    def synthetic_trajectory(self, thetas, n=10_000, u=None, bath=None):
        # Records at t = 0, 1, 2, ... with the Monte Carlo noise of an
        # n-particle run about the mean velocities ``u`` (default 0).
        rng = np.random.default_rng(56)
        recs = []
        for i, th in enumerate(thetas):
            mean = np.zeros(3) if u is None else u[i]
            recs.append(
                MomentRecord(
                    t=float(i), rho=1.0,
                    u=mean + rng.normal(scale=math.sqrt(th / n), size=3),
                    theta=float(th), y1=3 * th, y2=15 * th**2,
                )
            )
        config = SimConfig(
            tau=1.0, restitution=RestitutionParams(epsilon=0.8, e=0.8, m1=1.0),
            bath=bath, dt=1.0, t_end=float(len(thetas)), n_particles=n, seed=0,
        )
        return MomentTrajectory(records=recs, config=config)

    def test_flat_series_is_steady(self):
        rng = np.random.default_rng(57)
        n = 10_000
        se = math.sqrt(2.0 / (3 * n))
        thetas = 1.0 + se * rng.normal(size=64)
        verdict = detect_steady(self.synthetic_trajectory(thetas, n))
        assert verdict.steady
        assert verdict.index is not None
        assert verdict.t_steady is not None

    def test_ramp_is_not_steady(self):
        thetas = np.linspace(1.0, 3.0, 64)
        verdict = detect_steady(self.synthetic_trajectory(thetas))
        assert not verdict.steady
        assert verdict.t_steady is None

    def test_needs_two_windows(self):
        thetas = np.ones(8)
        with pytest.raises(ValueError):
            detect_steady(self.synthetic_trajectory(thetas))

    def test_mean_velocity_is_measured_from_the_bath_mean(self):
        # u jumps from u1 = (1, 0, 0) to -u1 between the two windows of 16
        # records: |u - u1| goes from 0 to 2, a drift, while |u| stays 1.
        # So the same records are steady without a bath (u1 = 0) and not
        # with this one; a scan about the origin would call both steady.
        rng = np.random.default_rng(58)
        n = 10_000
        thetas = 1.0 + math.sqrt(2.0 / (3 * n)) * rng.normal(size=32)
        u1 = np.array([1.0, 0.0, 0.0])
        u = [u1 if i < 16 else -u1 for i in range(32)]
        bath = bath_at(u1=u1)
        assert detect_steady(self.synthetic_trajectory(thetas, n, u=u)).steady
        assert not detect_steady(self.synthetic_trajectory(thetas, n, u=u, bath=bath)).steady


class TestRecordObservers:
    def test_lp_columns_are_single_histogram_estimates(self, tmp_path):
        rest = RestitutionParams(epsilon=0.8, e=0.8, m1=1.0)
        config = SimConfig(
            tau=1.0, restitution=rest, bath=bath_at(), dt=0.01, t_end=0.1,
            n_particles=2000, seed=64,
        )
        traj = run(config, observers=ObserverConfig(record_every=5, compute_lp=True))
        traj.to_csv(tmp_path / "trajectory.csv")
        last = read_records(tmp_path / "trajectory.csv")[-1]
        assert last.t == traj.times()[-1]
        vel = traj.final
        m = moments(vel)
        hist = histogram(vel, box_edges(m.u, thermal_extent(m.theta), 32))
        assert last.l2 == lp_norm(hist, 2.0)
        assert last.lp == lp_norm(hist, 1.5)


    def test_h_columns_are_one_shot_h_phi(self, monkeypatch):
        # The H box has the same cells at every record, so the reference is
        # built once, by the caller, and each record's H values equal a
        # one-shot h_phi on that record's sample.
        bath = bath_at(theta1=0.8)
        samples = []
        make_record = dsmc._make_record

        def recording(velocities, *args):
            samples.append(velocities.copy())
            return make_record(velocities, *args)

        monkeypatch.setattr(dsmc, "_make_record", recording)
        edges = box_edges(np.zeros(3), 4.5, 16)
        cells = maxwellian_cells(bath.u1, 0.8, edges)
        observers = ObserverConfig(record_every=4, h_reference=(edges, cells))
        config = SimConfig(
            tau=0.0, restitution=RestitutionParams(epsilon=1.0, e=0.8, m1=1.0),
            bath=bath, dt=0.01, t_end=0.2, n_particles=3000, seed=66,
        )
        traj = run(config, observers=observers)
        assert len(traj.records) == len(samples) == 6
        for rec, vel in zip(traj.records, samples):
            hist = histogram(vel, edges)
            assert (rec.h_quad, rec.h_ent) == h_phi(hist, cells)

    @pytest.mark.parametrize("n", [3000, 2**15 + 3000])
    def test_record_fields_are_the_public_observers(self, n):
        # Every field of a record with every observer on equals the public
        # observers called on the same sample: sigma_freq in its velocity
        # form, where the record reads nu from the run's |v - u1|^2 cache,
        # over one block of 2^15 rows or two.
        bath = bath_at(theta1=1.3, m1=0.7, u1=(0.4, 0.0, -0.2))
        config = SimConfig(
            tau=1.7, restitution=RestitutionParams(epsilon=0.8, e=0.8, m1=0.7),
            bath=bath, dt=0.01, t_end=0.1, n_particles=n, seed=70,
        )
        edges = box_edges(bath.u1, 5.0, 24)
        cells = maxwellian_cells(bath.u1, 1.1, edges)
        obs = ObserverConfig(compute_lp=True, compute_sigma=True, h_reference=(edges, cells))
        vel = gaussian_init(n, theta=1.2, seed=70) + np.array([0.3, 0.1, -0.1])
        rec = dsmc._make_record(vel, 0.25, config, obs, _sq_norm(vel, bath.u1))
        m = moments(vel, t=0.25)
        hist = histogram(vel, box_edges(m.u, thermal_extent(m.theta), 32))
        want = dataclasses.replace(
            m,
            f_aux=f_aux(m, bath, _sq_norm(vel, bath.u1)),
            sigma_mean=sigma_freq(vel, bath, 1.7),
            l2=lp_norm(hist, 2.0),
            lp=lp_norm(hist, 1.5),
        )
        want = dataclasses.replace(
            want, **dict(zip(("h_quad", "h_ent"), h_phi(histogram(vel, edges), cells)))
        )
        for field in dataclasses.fields(MomentRecord):
            got, expected = getattr(rec, field.name), getattr(want, field.name)
            assert np.array_equal(got, expected), field.name
        assert not any(math.isnan(x) for x in (rec.sigma_mean, rec.l2, rec.h_ent))

    @pytest.mark.parametrize("point", [(0.5, 0.0, 0.0), (0.0, 0.0, 0.0), (0.1, -0.2, 0.3)])
    def test_point_mass_leaves_lp_nan(self, point):
        # At theta = 0 (or a rounding-level theta) the L^p box collapses at
        # float precision: the first record's L2 and Lp stay NaN, with no
        # warning, and the collisions spread the sample for later records.
        config = SimConfig(
            tau=1.0, restitution=RestitutionParams(epsilon=0.8, e=0.8, m1=1.0),
            bath=bath_at(), dt=0.01, t_end=0.05, n_particles=1000, seed=67,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run(
                config, ObserverConfig(record_every=1, compute_lp=True, compute_sigma=True),
                init=np.tile(point, (1000, 1)),
            )
        first, last = traj.records[0], traj.records[-1]
        assert first.theta < 1e-30
        assert math.isnan(first.l2) and math.isnan(first.lp)
        assert math.isfinite(first.sigma_mean)
        assert last.theta > 0.0 and math.isfinite(last.l2) and math.isfinite(last.lp)

    def test_traced_peak_of_a_record(self):
        # The CLI's full-mode observers at N = 2e5: every per-particle pass
        # works in blocks of 2^15 rows, so sigma's blocked nu sets the peak.
        # A record of the one-pass observers held 6.30 MiB.
        config = SimConfig(
            tau=1.0, restitution=RestitutionParams(epsilon=0.8, e=0.8, m1=1.0),
            bath=bath_at(), dt=0.01, t_end=0.1, n_particles=200_000, seed=68,
        )
        vel = gaussian_init(200_000, seed=68)
        d2 = _sq_norm(vel)
        obs = ObserverConfig(compute_lp=True, compute_sigma=True)
        assert traced_peak(dsmc._make_record, vel, 0.0, config, obs, d2) <= 2.5 * 2**20

    def test_traced_peak_of_a_run(self):
        # The velocities (4.6 MiB) and the |v - c|^2 cache (1.5 MiB) that
        # the run allocates, and the step's candidate draw above them; the
        # records stay below that floor.  It was 13.4 MiB with one-pass
        # records.
        config = SimConfig(
            tau=1.0, restitution=RestitutionParams(epsilon=0.8, e=0.8, m1=1.0),
            bath=bath_at(), dt=0.01, t_end=0.3, n_particles=200_000, seed=69,
        )
        obs = ObserverConfig(record_every=10, compute_lp=True, compute_sigma=True)
        assert traced_peak(run, config, obs) <= 10 * 2**20


class TestReproducibility:
    def config(self, seed=60, n=3000):
        rest = RestitutionParams(epsilon=0.8, e=0.8, m1=1.0)
        return SimConfig(
            tau=1.0, restitution=rest, bath=bath_at(), dt=0.01, t_end=0.5,
            n_particles=n, seed=seed,
        )

    def test_identical_seeds_are_bitwise_identical(self):
        t1 = run(self.config())
        t2 = run(self.config())
        np.testing.assert_array_equal(t1.final, t2.final)
        assert t1.times().tobytes() == t2.times().tobytes()
        assert t1.thetas().tobytes() == t2.thetas().tobytes()
        assert t1.collisions_q == t2.collisions_q
        assert t1.collisions_l == t2.collisions_l

    def test_different_seeds_differ(self):
        t1 = run(self.config(seed=61))
        t2 = run(self.config(seed=62))
        assert t1.thetas().tobytes() != t2.thetas().tobytes()

    def test_observers_do_not_touch_the_simulation_stream(self):
        on = ObserverConfig(compute_sigma=True, compute_lp=True)
        off = ObserverConfig(compute_sigma=False, compute_lp=False)
        t1 = run(self.config(), observers=on)
        t2 = run(self.config(), observers=off)
        assert t1.final.tobytes() == t2.final.tobytes()
        assert t1.thetas().tobytes() == t2.thetas().tobytes()

    def test_table_sigma_does_not_touch_the_simulation_stream(self):
        # A tabulated bath's sigma term draws from a generator of its own.
        config = dataclasses.replace(self.config(), bath=skewed_table_bath())
        t1 = run(config, observers=ObserverConfig(compute_sigma=True))
        t2 = run(config, observers=ObserverConfig(compute_sigma=False))
        assert t1.final.tobytes() == t2.final.tobytes()
        assert np.all(np.isfinite([r.sigma_mean for r in t1.records]))
