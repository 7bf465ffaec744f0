"""Observable-layer oracles: hand-computed moment examples, the explicit
temperature bound, histogram norms against closed forms, fits, and CSV I/O."""
import dataclasses
import math

import numpy as np
import pytest

from granular_bath.background import BathParams, nu
from granular_bath.kinematics import RestitutionParams, _sq_norm
from granular_bath.observables import (
    DEFAULT_SIGMA_PAIRS,
    DegenerateParameterError,
    FitRefusedError,
    MomentRecord,
    SupportMismatchError,
    bin_counts,
    bound_params,
    box_edges,
    f_aux,
    f_aux_stderr,
    h_phi,
    haff_fit,
    histogram,
    lp_norm,
    moments,
    read_records,
    reference_on_cells,
    sigma_freq,
    third_cumulant,
    write_records,
)
from granular_bath.observables import _pair_distances, _pair_table

C0_UNIT = 4.255384324281949  # 2 E3 / (3 s^3) for a unit-width Maxwellian
E1_UNIT = 1.5957691216057308


def bath_at(theta1=1.0, m1=1.0, lam=1.0, u1=(0.0, 0.0, 0.0)):
    return BathParams(m1=m1, u1=np.array(u1, float), theta1=theta1, lambda_=lam)


class TestMoments:
    def test_two_particle_example(self):
        # {(1,0,0), (-1,0,0)}: u = 0, Theta = mean |v|^2 / 3 = 1/3,
        # Y_r = mean |v|^(2r) = 1 for every r.
        rec = moments(np.array([[1.0, 0, 0], [-1.0, 0, 0]]), t=2.5)
        assert rec.t == 2.5
        assert rec.rho == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(rec.u, 0.0, atol=1e-15)
        assert rec.theta == pytest.approx(1.0 / 3.0, rel=1e-15)
        for y in (rec.y1, rec.y1_5, rec.y2, rec.y3):
            assert y == pytest.approx(1.0, rel=1e-15)

    def test_gaussian_sample(self):
        n = 1_000_000
        theta = 2.0
        vel = np.random.default_rng(0).normal(size=(n, 3)) * math.sqrt(theta)
        rec = moments(vel)
        se_theta = theta * math.sqrt(2.0 / (3 * n))
        assert rec.theta == pytest.approx(theta, abs=4 * se_theta)
        # Y1 = E|v|^2 = 3 Theta; Y2 = E|v|^4 = 15 Theta^2.
        assert rec.y1 == pytest.approx(3 * theta, rel=0.01)
        assert rec.y2 == pytest.approx(15 * theta**2, rel=0.01)

    def test_products_match_float_powers(self):
        # Y_r is formed by products and one square root; against the float
        # power mean |v|^(2r) it may differ by a few ulp of rounding only.
        vel = np.random.default_rng(1).normal(size=(10_000, 3)) * 1.7
        rec = moments(vel)
        s2 = np.sum(vel**2, axis=1)
        for r, y in ((1.0, rec.y1), (1.5, rec.y1_5), (2.0, rec.y2), (3.0, rec.y3)):
            assert y == pytest.approx(float(np.mean(s2**r)), rel=1e-13)

    def test_bitwise_equal_to_the_broadcast_forms(self):
        # theta and |v|^2 are formed one component at a time; the values
        # are the bits of the (N, 3) broadcast expressions they replace.
        vel = np.random.default_rng(2).normal(size=(3001, 3)) * [1.0, 2.5, 0.3] + [0.4, -2.0, 7.0]
        n = vel.shape[0]
        rec = moments(vel)
        u = vel.mean(axis=0)
        assert rec.theta == float(np.sum((vel - u) ** 2) / (3.0 * n))
        s2 = np.sum(vel**2, axis=1)
        assert rec.y1 == float(np.mean(s2))
        assert rec.y1_5 == float(np.mean(s2 * np.sqrt(s2)))
        assert rec.y3 == float(np.mean(s2 * s2 * s2))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            moments(np.zeros((5, 2)))
        with pytest.raises(ValueError):
            moments(np.zeros((1, 3)))

    def test_record_validation(self):
        with pytest.raises(ValueError):
            MomentRecord(t=0.0, rho=0.5, u=np.zeros(3), theta=1.0)
        with pytest.raises(ValueError):
            MomentRecord(t=0.0, rho=1.0, u=np.zeros(3), theta=-1.0)


class TestAuxFunctional:
    def test_single_shell_example(self):
        # Eight particles at |v - u1| = sqrt(3), bath theta1/m1 = 1:
        # F = mean |v - u1|^2 + 3 = 6.
        corners = np.array(
            [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
            dtype=float,
        )
        bath = bath_at()
        rec = moments(corners)
        assert f_aux(rec, bath, _sq_norm(corners, bath.u1)) == pytest.approx(6.0, rel=1e-12)

    def test_two_routes_agree(self):
        vel = np.random.default_rng(4).normal(size=(5000, 3)) + np.array([0.5, 0, 0])
        bath = bath_at(theta1=0.7, m1=2.0, u1=(0.1, -0.2, 0.3))
        rec = moments(vel)
        d2 = _sq_norm(vel, bath.u1)
        via_moments = f_aux(rec, bath, d2)
        via_sample = float(np.mean(d2)) + 3.0 * bath.theta1 / bath.m1
        assert via_moments == pytest.approx(via_sample, rel=1e-12)

    def test_mismatched_sample_is_rejected(self):
        vel = np.random.default_rng(4).normal(size=(500, 3))
        bath = bath_at()
        rec = moments(vel)
        with pytest.raises(RuntimeError):
            f_aux(rec, bath, _sq_norm(vel + 1.0, bath.u1))

    def test_stale_cache_is_rejected(self):
        # A sweep that moves one row and does not write the cache leaves
        # d2 stale; F of the moved sample no longer matches mean(d2).
        vel = np.random.default_rng(5).normal(size=(2000, 3))
        bath = bath_at(u1=(0.2, 0.0, -0.1))
        d2 = _sq_norm(vel, bath.u1)
        vel[7] *= 0.5
        rec = moments(vel)
        with pytest.raises(RuntimeError, match="moment and direct forms of F disagree"):
            f_aux(rec, bath, d2)
        d2[7] = _sq_norm(vel[7], bath.u1)
        assert f_aux(rec, bath, d2) == pytest.approx(float(np.mean(d2)) + 3.0, rel=1e-12)

    def test_stderr_matches_resampling(self):
        bath = bath_at()
        theta, n = 1.3, 4000
        rng = np.random.default_rng(8)
        values = []
        for _ in range(300):
            vel = rng.normal(size=(n, 3)) * math.sqrt(theta)
            values.append(f_aux(moments(vel), bath, _sq_norm(vel, bath.u1)))
        predicted = f_aux_stderr(moments(vel), bath, n)
        observed = float(np.std(values))
        assert predicted == pytest.approx(observed, rel=0.25)

    def test_stderr_needs_particles(self):
        rec = moments(np.random.default_rng(0).normal(size=(10, 3)))
        with pytest.raises(ValueError):
            f_aux_stderr(rec, bath_at(), 1)


class TestBoundParams:
    def test_frozen_example(self):
        # e = 1, m1 = 1 -> kappa = 1/2; theta1 = 1, lambda = 2:
        # gamma1 = 2 * (1/4) / 2 = 1/4, gamma2 = 2 * C0 * (1/2) / 2 = C0 / 2,
        # bound = max((2 C0)^2, F0).
        rest = RestitutionParams(epsilon=1.0, e=1.0, m1=1.0)
        bath = bath_at(theta1=1.0, m1=1.0, lam=2.0)
        bp = bound_params(rest, bath, f0=3.0)
        assert bp.gamma1 == pytest.approx(0.25, rel=1e-12)
        assert bp.gamma2 == pytest.approx(C0_UNIT / 2.0, rel=1e-12)
        assert bp.bound == pytest.approx((2 * C0_UNIT) ** 2, rel=1e-12)

    def test_initial_condition_can_dominate(self):
        rest = RestitutionParams(epsilon=1.0, e=1.0, m1=1.0)
        bath = bath_at(lam=2.0)
        f0 = (2 * C0_UNIT) ** 2 + 10.0
        assert bound_params(rest, bath, f0).bound == pytest.approx(f0, rel=1e-12)

    def test_degenerate_kappa(self):
        # m1 -> huge with e = 1 drives kappa -> 1 and the bound blows up.
        rest = RestitutionParams(epsilon=1.0, e=1.0, m1=1e16)
        with pytest.raises(DegenerateParameterError):
            bound_params(rest, bath_at(), f0=1.0)

    def test_degenerate_bath(self):
        from granular_bath.background import TabulatedDensity

        ax = np.linspace(-1.0, 1.0, 5)
        vals = np.zeros((5, 5, 5))
        vals[2, 2, 2] = 1.0
        bath = BathParams(
            m1=1.0, u1=np.zeros(3), theta1=1.0, lambda_=1.0,
            kind="tabulated", table=TabulatedDensity(axes=(ax, ax, ax), values=vals),
        )
        rest = RestitutionParams(epsilon=1.0, e=0.8, m1=1.0)
        with pytest.raises(DegenerateParameterError):
            bound_params(rest, bath, f0=1.0)


class TestNorms:
    def test_uniform_box(self):
        # Uniform density on a box of volume V: ||f||_p = V^((1-p)/p).
        rng = np.random.default_rng(2)
        L = 2.0
        vel = (rng.random((400_000, 3)) - 0.5) * L
        V = L**3
        est = lp_norm(histogram(vel, 16, L / 2, np.zeros(3)), p=1.5)
        assert est == pytest.approx(V ** (-1.0 / 3.0), rel=0.02)

    def test_gaussian_l2(self):
        # ||N(0, Theta I)||_2 = (4 pi Theta)^(-3/4).
        theta = 1.0
        vel = np.random.default_rng(3).normal(size=(1_000_000, 3))
        est = lp_norm(histogram(vel, 48, 6.0, np.zeros(3)), p=2.0)
        assert est == pytest.approx((4 * math.pi * theta) ** -0.75, rel=0.05)

    def test_rejects_bad_p(self):
        vel = np.random.default_rng(0).normal(size=(100, 3))
        hist = histogram(vel, 8, 4.0, np.zeros(3))
        with pytest.raises(ValueError):
            lp_norm(hist, p=1.0)
        with pytest.raises(ValueError):
            lp_norm(hist, p=math.inf)

    def test_empty_histogram_is_nan(self):
        # Every particle lies outside the box, so no cell holds any mass.
        vel = np.random.default_rng(1).normal(size=(100, 3)) + np.array([50.0, 0.0, 0.0])
        hist = histogram(vel, 8, 4.0, np.zeros(3))
        assert not hist.density.any()
        assert math.isnan(lp_norm(hist, p=2.0))


class TestBinCounts:
    @pytest.mark.parametrize("bins", [1, 7, 32])
    def test_matches_histogramdd_on_edges_and_outside(self, bins):
        # Random points, points exactly on every edge of every axis and one
        # ulp to either side, points outside the box and non-finite ones:
        # the counts equal np.histogramdd's, upper-edge points in the last
        # cell included.
        rng = np.random.default_rng(bins)
        center, extent = np.array([0.3, -1.7, 2.2]), 2.9
        edge_sets = [
            box_edges(center, extent, bins),
            # Node-centred edges as a kernel grid builds them: uniform only
            # up to rounding.
            [np.concatenate([ax - 0.05, [ax[-1] + 0.05]])
             for ax in (c + (np.arange(bins) - 0.5 * (bins - 1)) * 0.1 for c in center)],
        ]
        for edges in edge_sets:
            pts = [center + 0.7 * extent * rng.standard_normal((4000, 3))]
            for d, e in enumerate(edges):
                for value in e:
                    on = center + extent * rng.uniform(-1.0, 1.0, (3, 3))
                    on[:, d] = value
                    pts.append(on)
                far = center + extent * rng.uniform(-1.0, 1.0, (2, 3))
                far[:, d] = [e[0] - 3.0 * extent, e[-1] + 3.0 * extent]
                pts.append(far)
            pts.append(np.array([[e[-1] for e in edges], [e[0] for e in edges]]))
            sample = np.concatenate(pts)
            nonfinite = center + np.array([[np.nan, 0, 0], [0, np.inf, 0], [0, 0, -np.inf]])
            for x in (
                np.concatenate([sample, nonfinite]),
                np.nextafter(sample, np.inf),
                np.nextafter(sample, -np.inf),
            ):
                want, _ = np.histogramdd(x, bins=edges)
                np.testing.assert_array_equal(bin_counts(x, edges), want)


class TestHPhi:
    def gaussian_ref(self, theta):
        def ref(pts):
            sq = np.sum(pts**2, axis=-1)
            return np.exp(-0.5 * sq / theta) / (2 * math.pi * theta) ** 1.5

        return ref

    def test_matched_sample_is_small(self):
        vel = np.random.default_rng(6).normal(size=(200_000, 3))
        hist = histogram(vel, 24, 5.0, np.zeros(3))
        ref = reference_on_cells(self.gaussian_ref(1.0), hist.edges)
        raw = h_phi(hist, ref, phi="quad")
        corrected = h_phi(hist, ref, phi="quad", bias_correct=True)
        # Raw noise floor is about (occupied cells)/N; correction removes it.
        assert 0.0 <= raw < 0.15
        assert abs(corrected) < 0.2 * raw

    def test_mismatched_sample_is_large(self):
        vel = np.random.default_rng(7).normal(size=(200_000, 3)) * math.sqrt(2.0)
        hist = histogram(vel, 24, 6.0, np.zeros(3))
        hot = h_phi(hist, reference_on_cells(self.gaussian_ref(1.0), hist.edges), phi="quad")
        assert hot > 0.2

    def test_entropy_variant_nonnegative(self):
        vel = np.random.default_rng(8).normal(size=(100_000, 3))
        hist = histogram(vel, 24, 5.0, np.zeros(3))
        val = h_phi(hist, reference_on_cells(self.gaussian_ref(1.0), hist.edges), phi="ent")
        assert val >= 0.0

    def test_support_mismatch_raises(self):
        vel = np.random.default_rng(9).normal(size=(1000, 3)) + np.array([4.0, 0, 0])

        def ref(pts):
            # Vanishes on the half-space where the sample lives.
            return np.where(pts[..., 0] < 0.0, 1.0, 0.0)

        hist = histogram(vel, 16, 8.0, np.zeros(3))
        with pytest.raises(SupportMismatchError):
            h_phi(hist, reference_on_cells(ref, hist.edges))

    def test_grid_reference_shape_check(self):
        vel = np.random.default_rng(10).normal(size=(1000, 3))
        with pytest.raises(ValueError):
            h_phi(histogram(vel, 4, 5.0, np.zeros(3)), np.ones((4, 4, 5)))

    def test_unknown_phi(self):
        vel = np.random.default_rng(11).normal(size=(100, 3))
        hist = histogram(vel, 8, 5.0, np.zeros(3))
        ref = reference_on_cells(self.gaussian_ref(1.0), hist.edges)
        with pytest.raises(ValueError, match="phi must be one of"):
            h_phi(hist, ref, phi="cubic")


class TestHaffFit:
    def test_recovers_synthetic_exponent(self):
        t = np.linspace(0.0, 400.0, 2000)
        theta = 2.5 * (1 + t / 3.0) ** -2.0
        fit = haff_fit(t, theta)
        assert fit.exponent == pytest.approx(-2.0, abs=1e-6)
        assert fit.t0 == pytest.approx(3.0, rel=1e-4)
        assert fit.residual < 1e-8

    def test_refuses_shallow_decay(self):
        t = np.linspace(0.0, 1.0, 100)
        theta = 1.0 / (1 + t)  # only a factor-2 decay
        with pytest.raises(FitRefusedError):
            haff_fit(t, theta)

    def test_rejects_nonpositive_temperatures(self):
        t = np.linspace(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            haff_fit(t, np.zeros(10))


class TestSigmaFreq:
    def test_small_sample_exact(self):
        # N = 2 with no bath: Sigma = tau * mean over rows of mean |v_i - v_j|
        #   = tau * (0 + d)/2 averaged over both rows = tau * d / 2.
        vel = np.array([[0.0, 0, 0], [3.0, 0, 0]])
        got = sigma_freq(vel, None, tau=2.0)
        assert got == pytest.approx(2.0 * 1.5, rel=1e-12)

    def test_bath_only_at_mean(self):
        # All particles at u1: Sigma = nu(u1) = E1 / lambda.
        bath = bath_at(theta1=1.0, m1=1.0, lam=2.0)
        vel = np.zeros((100, 3))
        got = sigma_freq(vel, bath, tau=0.0)
        assert got == pytest.approx(E1_UNIT / 2.0, rel=1e-12)

    def test_subsample_tracks_full_sum(self):
        rng = np.random.default_rng(12)
        vel = rng.normal(size=(20_000, 3))
        small = sigma_freq(vel[:5000], None, tau=1.0)
        big = sigma_freq(vel, None, tau=1.0)
        assert big == pytest.approx(small, rel=0.05)

    def test_sampled_pairs_within_four_standard_errors_of_exact_sum(self):
        vel = np.random.default_rng(15).normal(size=(3000, 3))
        total = total_sq = 0.0
        for lo in range(0, vel.shape[0], 500):
            d = np.linalg.norm(vel[lo : lo + 500, None, :] - vel[None, :, :], axis=-1)
            total += float(d.sum())
            total_sq += float(np.sum(d**2))
        n_pairs = vel.shape[0] ** 2
        exact = total / n_pairs
        se = math.sqrt(total_sq / n_pairs - exact**2) / math.sqrt(DEFAULT_SIGMA_PAIRS)
        got = sigma_freq(vel, None, tau=1.0)
        assert abs(got - exact) <= 4.0 * se, (got, exact, se)


def sigma_broadcast_form(vel, bath, tau):
    """sigma_freq as whole gathered rows summed by einsum over the pairs of
    ``default_rng(0)``, the reference the column-wise kernel must match bit
    for bit."""
    n = vel.shape[0]
    total = 0.0
    if tau > 0.0:
        if n * n <= DEFAULT_SIGMA_PAIRS:
            conv = float(np.mean(np.linalg.norm(vel[:, None, :] - vel[None, :, :], axis=-1)))
        else:
            i, j = np.random.default_rng(0).integers(0, n, size=(2, DEFAULT_SIGMA_PAIRS))
            d = np.take(vel, i, axis=0) - np.take(vel, j, axis=0)
            conv = float(np.mean(np.sqrt(np.einsum("ij,ij->i", d, d))))
        total += tau * conv
    if bath is not None:
        total += float(np.mean(nu(bath, vel)))
    return total


class TestSigmaFreqBitwise:
    @pytest.fixture(params=[300, 3000, 20_000], ids=["exact", "n3000", "n20000"])
    def vel(self, request):
        n = request.param
        rng = np.random.default_rng(n)
        # Spread magnitudes and a shifted mean, so that the rounding of each
        # squared component differs between summation orders.
        scale = np.exp(rng.uniform(-3.0, 3.0, size=(n, 1)))
        return rng.standard_normal((n, 3)) * scale + np.array([3.0, -2.0, 0.5])

    @pytest.mark.parametrize("bath", [None, bath_at(theta1=1.3, m1=0.7, u1=(0.4, 0.0, -0.2))],
                             ids=["no-bath", "bath"])
    def test_default_pairs(self, vel, bath):
        got = sigma_freq(vel, bath, tau=1.7)
        want = sigma_broadcast_form(vel, bath, 1.7)
        assert got == want

    def test_non_contiguous_velocities(self, vel):
        fortran = np.asfortranarray(vel)
        strided = np.repeat(vel, 2, axis=0)[::2]
        want = sigma_freq(vel, None, tau=1.0)
        assert sigma_freq(fortran, None, tau=1.0) == want
        assert sigma_freq(strided, None, tau=1.0) == want

    def test_pair_distances_match_gathered_rows(self, vel):
        # Per pair, not through the mean: averaging 2^17 values hides a
        # last-bit change in a few of them.
        i, j = np.random.default_rng(7).integers(0, vel.shape[0], size=(2, 50_000))
        d = np.take(vel, i, axis=0) - np.take(vel, j, axis=0)
        want = np.sqrt(np.einsum("ij,ij->i", d, d))
        assert np.array_equal(_pair_distances(vel, i, j), want)

    def test_default_pairs_are_one_read_only_table(self):
        n = 3000
        i, j = _pair_table(n, DEFAULT_SIGMA_PAIRS)
        fresh = np.random.default_rng(0).integers(0, n, size=(2, DEFAULT_SIGMA_PAIRS))
        assert np.array_equal(i, fresh[0]) and np.array_equal(j, fresh[1])
        assert not i.flags.writeable and not j.flags.writeable
        with pytest.raises(ValueError):
            i[0] = 0
        again = _pair_table(n, DEFAULT_SIGMA_PAIRS)
        assert again[0] is i and again[1] is j


class TestThirdCumulant:
    def test_symmetric_sample_vanishes(self):
        vel = np.random.default_rng(13).normal(size=(200_000, 3))
        vel = np.concatenate([vel, -vel])  # exactly symmetric
        np.testing.assert_allclose(third_cumulant(vel), 0.0, atol=1e-13)

    def test_two_point_example(self):
        # One component taking values {0 w.p. 3/4, 4 w.p. 1/4}: mean 1,
        # E (x - 1)^3 = (3/4)(-1) + (1/4)(27) = 6.
        x = np.array([0.0, 0.0, 0.0, 4.0])
        vel = np.stack([x, np.zeros(4), np.zeros(4)], axis=1)
        np.testing.assert_allclose(third_cumulant(vel), [6.0, 0.0, 0.0], atol=1e-12)


class TestRecordIO:
    def test_round_trip(self, tmp_path):
        vel = np.random.default_rng(14).normal(size=(500, 3))
        bath = bath_at(theta1=0.5, m1=2.0)
        recs = []
        for i in range(3):
            scaled = vel * (1 + 0.1 * i)
            rec = moments(scaled, t=0.5 * i)
            recs.append(
                dataclasses.replace(
                    rec, f_aux=f_aux(rec, bath, _sq_norm(scaled, bath.u1)),
                    l2=0.1 + i, lp=0.2 + i,
                    h_quad=0.01 * i, h_ent=0.02 * i, sigma_mean=1.5 + i,
                )
            )
        path = tmp_path / "records.csv"
        write_records(path, recs)
        back = read_records(path)
        assert len(back) == 3
        for orig, rt in zip(recs, back):
            np.testing.assert_array_equal(rt.u, orig.u)
            for field in dataclasses.fields(MomentRecord):  # repr round-trip is exact
                if field.name != "u":
                    assert getattr(rt, field.name) == getattr(orig, field.name), field.name
