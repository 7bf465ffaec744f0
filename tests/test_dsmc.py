"""Stochastic-solver oracles: exact conservation per collision, collision
rates against closed forms, equilibrium stationarity, fault handling, and
bitwise reproducibility."""
import math

import numpy as np
import pytest

from granular_bath import dsmc
from granular_bath.background import BathParams, bath_density, nu
from granular_bath.dsmc import (
    Ensemble,
    NumericalFault,
    ObserverConfig,
    SimConfig,
    TimeStepError,
    detect_steady,
    load_checkpoint,
    run,
    save_checkpoint,
    step_l,
    step_q,
)
from granular_bath.kinematics import RestitutionParams
from granular_bath.observables import MomentRecord, h_phi, lp_norm, moments, read_records


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
            n_acc, _ = step_q(vel, 0.05, 1.0, rest, q_max=12.0, rng=rng)
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
            n_acc, _ = step_q(vel, 0.05, 1.0, rest, q_max=12.0, rng=rng)
            collisions += n_acc
        after = float(np.sum(vel**2))
        assert collisions > 100
        assert abs(after - before) <= 1e-12 * before * max(collisions, 1)

    def test_inelastic_energy_strictly_decreases(self):
        rest = RestitutionParams(epsilon=0.6, e=1.0, m1=1.0)
        vel = gaussian_init(4000, seed=5)
        before = float(np.sum(vel**2))
        n_acc, _ = step_q(vel, 0.05, 1.0, rest, q_max=12.0, rng=np.random.default_rng(6))
        assert n_acc > 0
        assert float(np.sum(vel**2)) < before

    def test_returns_observed_maximum_relative_speed(self):
        rest = RestitutionParams(epsilon=0.9, e=1.0, m1=1.0)
        vel = gaussian_init(1000, seed=7)
        top = float(np.linalg.norm(vel, axis=1).max())
        _, max_rel = step_q(vel, 0.05, 1.0, rest, q_max=15.0, rng=np.random.default_rng(8))
        assert 0.0 < max_rel <= 2.0 * top + 1e-12


class TestStepL:
    def test_momentum_not_conserved_but_finite(self):
        # Bath collisions exchange momentum with the reservoir; the sweep
        # must still act only through valid pair maps (finite output).
        rest = RestitutionParams(epsilon=1.0, e=0.8, m1=1.0)
        bath = bath_at()
        vel = gaussian_init(2000, seed=9)
        n_acc, seen = step_l(vel, 0.05, rest, bath, l_max=20.0, rng=np.random.default_rng(10))
        assert n_acc > 0
        assert np.all(np.isfinite(vel))
        assert seen > 0.0

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
            n_acc, _ = step_l(vel, dt, rest, bath, l_max=l_max, rng=rng)
            accepted += n_acc
        # The sweep makes each particle a candidate with probability
        # nu_max dt, then thins by |v - W| / l_max, so the exact per-particle,
        # per-step law is nu dt.
        p_want = want * dt
        trials = n * reps
        se = math.sqrt(p_want * (1 - p_want) / trials)
        assert accepted / trials == pytest.approx(p_want, abs=4 * se)

    def test_majorant_overflow_is_raised_before_mutation(self):
        from granular_bath.dsmc import _MajorantOverflow

        rest = RestitutionParams(epsilon=1.0, e=0.8, m1=1.0)
        bath = bath_at()
        vel = gaussian_init(500, seed=12)
        vel[0] = [50.0, 0.0, 0.0]  # guaranteed to exceed the tiny majorant
        snapshot = vel.copy()
        with pytest.raises(_MajorantOverflow) as exc_info:
            step_l(vel, 0.05, rest, bath, l_max=1.0, rng=np.random.default_rng(13))
        assert exc_info.value.observed > 1.0
        np.testing.assert_array_equal(vel, snapshot)  # staged, not applied


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
        p1 = traj.final.velocities.sum(axis=0)
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
        np.testing.assert_array_equal(traj.final.velocities, init)


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

    def test_overflow_recovery_is_transparent(self, monkeypatch):
        # With no allowance for the bath's own spread (reach 0), the bath
        # majorant max|v - u1| of a cold start is exceeded as soon as a bath
        # partner is drawn; the run must recover by redrawing the step with
        # a grown majorant (recorded in traj.overflows) and finish.
        import granular_bath.dsmc as dsmc_mod

        monkeypatch.setattr(dsmc_mod, "_bath_reach", lambda bath: 0.0)
        rest = RestitutionParams(epsilon=1.0, e=0.5, m1=1.0)
        bath = bath_at(theta1=4.0)
        n = 2000
        config = SimConfig(
            tau=0.0, restitution=rest, bath=bath, dt=0.01, t_end=4.0,
            n_particles=n, seed=51, majorant_safety=1.0001,
        )
        init = np.full((n, 3), 0.0) + 1e-3 * gaussian_init(n, seed=52)
        traj = run(config, init=init)
        final_theta = traj.thetas()[-1]
        assert traj.overflows > 0
        assert final_theta > 1.0  # actually heated up
        assert np.all(np.isfinite(traj.final.velocities))


class TestUnsplitStep:
    def test_strong_coupling_runs_without_gas_overflow(self):
        # tau = 4, dt = 0.01 exceeded the old loose gas-gas majorant's time
        # step.  q_max = 2 max|v - u| bounds every pair speed, so a step_q
        # overflow (which run does not catch) cannot end the run.
        rest = RestitutionParams(epsilon=0.8, e=0.8, m1=1.0)
        config = SimConfig(
            tau=4.0, restitution=rest, bath=bath_at(), dt=0.01, t_end=1.0,
            n_particles=20_000, seed=65,
        )
        traj = run(config)
        assert traj.overflows == 0
        assert traj.collisions_q > 0
        assert traj.collisions_q <= traj.candidates_q
        assert traj.collisions_l <= traj.candidates_l

    def test_tabulated_bath_reach_is_a_tight_hard_bound(self):
        # A tabulated bath's velocities stay within its farthest occupied
        # cell corner of u1, so l_max = max|v - u1| + reach never overflows.
        from granular_bath.background import TabulatedDensity, sample_bath
        from granular_bath.dsmc import _bath_reach

        ax = np.linspace(-3.0, 3.0, 7)  # unit cells
        values = np.zeros((7, 7, 7))
        values[0, 0, 0] = values[3, 3, 3] = values[6, 6, 6] = 1.0  # u1 = 0
        table = TabulatedDensity(axes=(ax, ax, ax), values=values)
        bath = BathParams(
            m1=1.0, u1=np.zeros(3), theta1=1.0, lambda_=1.0, kind="tabulated", table=table,
        )
        reach = _bath_reach(bath)
        draws = sample_bath(bath, 200_000, np.random.default_rng(67))
        farthest = float(np.linalg.norm(draws - bath.u1, axis=1).max())
        assert reach - 0.2 <= farthest <= reach
        rest = RestitutionParams(epsilon=0.8, e=0.8, m1=1.0)
        config = SimConfig(
            tau=1.0, restitution=rest, bath=bath, dt=0.01, t_end=0.5,
            n_particles=2000, seed=68,
        )
        traj = run(config)
        assert traj.overflows == 0
        assert traj.collisions_l > 0

    def test_event_sets_are_disjoint_with_linear_sizes(self, monkeypatch):
        # Each step the loop gives step_q 2m pair indices and step_l k bath
        # indices: no particle in both, E[2m] = N p_q and E[k] = N p_l, with
        # p_q = tau q_max dt and p_l = l_max dt / lambda.
        import granular_bath.dsmc as dsmc_mod

        seen = {"q": [], "l": []}

        def recorder(kind, orig, majorant_at):
            def wrapped(*args, candidates=None, **kwargs):
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


class TestFaults:
    def test_nan_init_is_rejected_up_front(self):
        init = gaussian_init(100, seed=53)
        init[7, 1] = math.nan
        with pytest.raises(ValueError):
            Ensemble(velocities=init)

    def test_nan_during_run_dumps_and_raises(self, tmp_path, monkeypatch):
        # Poison the bath sweep so velocities go non-finite mid-run; the
        # driver must dump diagnostics and raise a numerical fault.
        import tempfile

        import granular_bath.dsmc as dsmc_mod

        monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path))

        def poisoned_step_l(velocities, *args, **kwargs):
            velocities[0, 0] = math.nan
            return 1, 1.0

        monkeypatch.setattr(dsmc_mod, "step_l", poisoned_step_l)
        rest = RestitutionParams(epsilon=1.0, e=0.8, m1=1.0)
        config = SimConfig(
            tau=0.0, restitution=rest, bath=bath_at(), dt=0.01, t_end=0.5,
            n_particles=100, seed=54,
        )
        with pytest.raises(NumericalFault) as exc_info:
            run(config)
        dump = exc_info.value.dump_path
        assert dump is not None
        data = np.load(dump)
        assert np.isnan(data["velocities"]).any()

    def test_oversized_dt_is_rejected(self):
        rest = RestitutionParams(epsilon=1.0, e=0.8, m1=1.0)
        bath = bath_at(theta1=100.0)  # hot bath -> large nu_max
        config = SimConfig(
            tau=0.0, restitution=rest, bath=bath, dt=5.0, t_end=10.0,
            n_particles=100, seed=55,
        )
        with pytest.raises(TimeStepError):
            run(config)


class TestDetectSteady:
    def synthetic_records(self, thetas, n=10_000):
        rng = np.random.default_rng(56)
        recs = []
        for i, th in enumerate(thetas):
            u = rng.normal(scale=math.sqrt(th / n), size=3)
            recs.append(
                MomentRecord(
                    t=float(i), rho=1.0, u=u, theta=float(th),
                    y_r=((1.0, 3 * th), (2.0, 15 * th**2)),
                )
            )
        return recs

    def test_flat_series_is_steady(self):
        rng = np.random.default_rng(57)
        n = 10_000
        se = math.sqrt(2.0 / (3 * n))
        thetas = 1.0 + se * rng.normal(size=64)
        verdict = detect_steady(self.synthetic_records(thetas, n), window=16, tol=0.05)
        assert verdict.steady
        assert verdict.index is not None
        assert verdict.t_steady is not None

    def test_ramp_is_not_steady(self):
        thetas = np.linspace(1.0, 3.0, 64)
        verdict = detect_steady(self.synthetic_records(thetas), window=16, tol=0.05)
        assert not verdict.steady
        assert verdict.t_steady is None
        assert "theta" in verdict.drifts

    def test_needs_two_windows(self):
        thetas = np.ones(8)
        with pytest.raises(ValueError):
            detect_steady(self.synthetic_records(thetas), window=16, tol=0.05)


class TestCheckpoints:
    def test_round_trip_preserves_state_and_stream(self, tmp_path):
        rest = RestitutionParams(epsilon=0.9, e=0.9, m1=1.0)
        bath = bath_at()
        n = 1000
        config = SimConfig(
            tau=0.5, restitution=rest, bath=bath, dt=0.01, t_end=0.3,
            n_particles=n, seed=58,
        )
        traj = run(config)
        rng = np.random.default_rng(59)
        path = tmp_path / "state.ckpt"
        save_checkpoint(path, traj.final, rng)
        ens, rng_back = load_checkpoint(path)
        np.testing.assert_array_equal(ens.velocities, traj.final.velocities)
        assert ens.t == traj.final.t
        assert ens.seed == traj.final.seed
        # The restored generator must continue the exact stream.
        rng_ref = np.random.default_rng(59)
        np.testing.assert_array_equal(rng_back.random(16), rng_ref.random(16))

    def test_corrupt_magic_is_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXX" + bytes(64))
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestRecordObservers:
    def test_lp_columns_are_single_histogram_estimates(self, tmp_path):
        rest = RestitutionParams(epsilon=0.8, e=0.8, m1=1.0)
        config = SimConfig(
            tau=1.0, restitution=rest, bath=bath_at(), dt=0.01, t_end=0.1,
            n_particles=2000, seed=64,
        )
        traj = run(config, observers=ObserverConfig(record_every=5, compute_lp=True))
        traj.to_csv(tmp_path / "trajectory.csv", lp_p=1.5)
        last = read_records(tmp_path / "trajectory.csv", lp_p=1.5)[-1]
        assert last.t == traj.final.t
        for p in (2.0, 1.5):
            assert last.lp_value(p) == lp_norm(traj.final.velocities, p, bins=32).value


    @pytest.mark.parametrize("fixed_box", [True, False])
    def test_reference_evaluations_and_h_columns(self, monkeypatch, fixed_box):
        # A fixed H box (extent and centre set) has the same cells at every
        # record, so the reference is evaluated once per run; a box that
        # follows the sample needs one evaluation per record.  Either way each
        # record's H values equal a one-shot h_phi on that record's sample.
        bath = bath_at(theta1=0.8)
        calls = []

        def reference(pts):
            calls.append(pts.shape)
            return bath_density(bath, pts)

        samples = []
        make_record = dsmc._make_record

        def recording(velocities, *args):
            samples.append(velocities.copy())
            return make_record(velocities, *args)

        monkeypatch.setattr(dsmc, "_make_record", recording)
        box = {"h_extent": 4.5, "h_center": np.zeros(3)} if fixed_box else {}
        observers = ObserverConfig(
            record_every=4, h_reference=reference, h_bins=16, h_bias_correct=True, **box
        )
        config = SimConfig(
            tau=0.0, restitution=RestitutionParams(epsilon=1.0, e=0.8, m1=1.0),
            bath=bath, dt=0.01, t_end=0.2, n_particles=3000, seed=66,
        )
        traj = run(config, observers=observers)
        assert len(traj.records) == len(samples) == 6
        assert len(calls) == (1 if fixed_box else len(traj.records))
        for rec, vel in zip(traj.records, samples):
            for tag in ("quad", "ent"):
                one_shot = h_phi(
                    vel, reference, phi=tag, bins=16, extent=box.get("h_extent"),
                    center=box.get("h_center"), bias_correct=tag == "quad",
                )
                assert rec.h_value(tag) == one_shot


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
        np.testing.assert_array_equal(t1.final.velocities, t2.final.velocities)
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
        assert t1.final.velocities.tobytes() == t2.final.velocities.tobytes()
        assert t1.thetas().tobytes() == t2.thetas().tobytes()

    def test_explicit_generator_resume_is_deterministic(self):
        # Passing a generator (the checkpoint-resume path) replaces config
        # seeding; identical generator states give identical runs.
        t1 = run(self.config(), rng=np.random.default_rng(63))
        t2 = run(self.config(), rng=np.random.default_rng(63))
        np.testing.assert_array_equal(t1.final.velocities, t2.final.velocities)
