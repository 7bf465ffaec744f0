"""Observable-layer oracles: hand-computed moment examples, the explicit
temperature bound, histogram norms against closed forms, fits, and CSV I/O."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from conftest import sigma_shift_form, skewed_table_bath, third_cumulant, traced_peak

from granular_bath.background import BathParams, NumericalFault, linear_steady, nu, sample_bath
from granular_bath.dsmc import ObserverConfig, SimConfig, run
from granular_bath.kinematics import RestitutionParams, _sq_norm
from granular_bath.observables import (
    DEFAULT_SIGMA_PAIRS,
    DegenerateParameterError,
    FitRefusedError,
    MomentRecord,
    bin_counts,
    bound_params,
    box_edges,
    f_aux,
    f_aux_stderr,
    h_phi,
    haff_fit,
    histogram,
    lp_norm,
    maxwellian_cells,
    moments,
    read_records,
    sigma_freq,
    thermal_extent,
    write_records,
)
from granular_bath.observables import _shift_mean

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

    @staticmethod
    def one_sum(vel):
        # The (N, 3) broadcast expressions, each reduced by one numpy call
        # over all rows; u from pairwise column sums.
        n = vel.shape[0]
        u = np.array([np.sum(vel[:, c]) for c in range(3)]) / n
        s2 = np.sum(vel**2, axis=1)
        return {
            "rho": float(np.sum(np.full(n, 1.0 / n))),
            "theta": float(np.sum((vel - u) ** 2) / (3.0 * n)),
            "y1": float(np.mean(s2)),
            "y1_5": float(np.mean(s2 * np.sqrt(s2))),
            "y2": float(np.mean(s2 * s2)),
            "y3": float(np.mean(s2 * s2 * s2)),
        }, u

    @pytest.mark.parametrize("n", [3001, 2**15])
    def test_bitwise_equal_to_the_broadcast_forms(self, n):
        # theta and |v|^2 are formed one component at a time, in blocks of
        # 2^15 rows; while N fits one block the values are the bits of the
        # (N, 3) broadcast expressions they replace.
        vel = np.random.default_rng(2).normal(size=(n, 3)) * [1.0, 2.5, 0.3] + [0.4, -2.0, 7.0]
        rec = moments(vel)
        want, u = self.one_sum(vel)
        assert np.array_equal(rec.u, u)
        assert {field: getattr(rec, field) for field in want} == want

    def test_blocks_match_one_sum(self):
        # Two blocks, summed apart: equal to rounding, not to the bit.
        vel = np.random.default_rng(3).normal(size=(2**15 + 1000, 3)) * [1.0, 2.5, 0.3] + 0.4
        rec = moments(vel)
        want, u = self.one_sum(vel)
        assert np.array_equal(rec.u, u)
        for field, value in want.items():
            assert getattr(rec, field) == pytest.approx(value, rel=1e-14, abs=0.0), field

    def test_traced_peak_is_one_block(self):
        # A block's (2^15, 3) deviations and three 2^15 temporaries; the
        # one-pass form held 4.58 MiB at N = 2e5.
        vel = np.random.default_rng(4).normal(size=(200_000, 3))
        assert traced_peak(moments, vel) <= 1.5 * 2**20

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
            table=TabulatedDensity(axes=(ax, ax, ax), values=vals),
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
        est = lp_norm(histogram(vel, box_edges(np.zeros(3), L / 2, 16)), p=1.5)
        assert est == pytest.approx(V ** (-1.0 / 3.0), rel=0.02)

    def test_gaussian_l2(self):
        # ||N(0, Theta I)||_2 = (4 pi Theta)^(-3/4).
        theta = 1.0
        vel = np.random.default_rng(3).normal(size=(1_000_000, 3))
        est = lp_norm(histogram(vel, box_edges(np.zeros(3), 6.0, 48)), p=2.0)
        assert est == pytest.approx((4 * math.pi * theta) ** -0.75, rel=0.05)

    def test_rejects_bad_p(self):
        vel = np.random.default_rng(0).normal(size=(100, 3))
        hist = histogram(vel, box_edges(np.zeros(3), 4.0, 8))
        with pytest.raises(ValueError):
            lp_norm(hist, p=1.0)
        with pytest.raises(ValueError):
            lp_norm(hist, p=math.inf)

    @staticmethod
    def record_histogram(vel):
        # The box a record bins on: u +- 6 thermal widths, 32 cells per axis.
        rec = moments(vel)
        return histogram(vel, box_edges(rec.u, thermal_extent(rec.theta), 32))

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_near_point_mass_matches_the_rescaled_counts(self, p):
        # At 1e-52 the cells have volume ~5e-158 and density**p overflows;
        # the norm is (sum (c/N)^p)^(1/p) vol^(1/p - 1) from the counts.
        vel = np.random.default_rng(4).normal(size=(1000, 3)) * 1e-52
        hist = self.record_histogram(vel)
        assert hist.cell_volume < 1e-150
        counts = bin_counts(vel, hist.edges)
        vol = hist.cell_volume
        want = float(np.sum((counts / 1000.0) ** p)) ** (1.0 / p) * vol ** (1.0 / p - 1.0)
        got = lp_norm(hist, p)
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_unit_scale_keeps_the_direct_sum(self, p):
        # Sparse to dense histograms: the norm from the occupied cells keeps
        # the bits of the sum over every cell.
        rng = np.random.default_rng(4)
        for n in (30, 1000, 30_000, 100_000):
            hist = self.record_histogram(rng.normal(size=(n, 3)))
            want = float(np.sum(hist.density**p) * hist.cell_volume) ** (1.0 / p)
            assert lp_norm(hist, p) == want, n

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_overflow_keeps_the_rescaled_sum(self, p):
        # At 1e-80, density**p overflows for both orders, and the norm is
        # the peak-rescaled sum over every cell to the bit.
        rng = np.random.default_rng(5)
        for n in (30, 1000, 100_000):
            hist = self.record_histogram(rng.normal(size=(n, 3)) * 1e-80)
            density, vol = hist.density, hist.cell_volume
            with np.errstate(over="ignore"):
                assert not math.isfinite(float(np.sum(density**p)))
            peak = float(density.max())
            want = peak * float(np.sum((density / peak) ** p) * vol) ** (1.0 / p)
            assert lp_norm(hist, p) == want, n

    def test_empty_histogram_is_nan(self):
        # Every particle lies outside the box, so no cell holds any mass.
        vel = np.random.default_rng(1).normal(size=(100, 3)) + np.array([50.0, 0.0, 0.0])
        hist = histogram(vel, box_edges(np.zeros(3), 4.0, 8))
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

    def test_blocks_match_histogramdd(self):
        # Two blocks of 2^15 rows, each with points on every edge of every
        # axis or one ulp off it, and points outside the box: the summed
        # block counts are np.histogramdd's exactly.
        rng = np.random.default_rng(5)
        center, extent, bins = np.array([0.3, -1.7, 2.2]), 2.9, 32
        edges = box_edges(center, extent, bins)
        n = 2**15 + 1000
        x = center + 0.7 * extent * rng.standard_normal((n, 3))
        for block in (x[:2**15], x[2**15:]):
            for d, e in enumerate(edges):
                k = rng.choice(block.shape[0], size=e.size + 2, replace=False)
                off = rng.choice([-1, 0, 1], size=e.size)
                block[k[:-2], d] = np.nextafter(e, e + off)
                block[k[-2:], d] = [e[0] - extent, e[-1] + extent]
        want, _ = np.histogramdd(x, bins=edges)
        np.testing.assert_array_equal(bin_counts(x, edges), want)

    def test_histogram_traced_peak_is_one_block(self):
        # One block's indices and masks besides the 32^3 counts and
        # density; the one-pass form held 6.30 MiB at N = 2e5.
        vel = np.random.default_rng(6).normal(size=(200_000, 3))
        assert traced_peak(histogram, vel, box_edges(np.zeros(3), 6.0, 32)) <= 1.5 * 2**20


class TestBoxEdges:
    @pytest.mark.parametrize("center, extent", [
        ((0.5, 0.0, 0.0), 6.0 * math.sqrt(np.finfo(float).tiny)),  # a point mass at theta 0
        ((0.0, 1e6, 0.0), 1e-12),  # 32 cells inside one ulp of 1e6
        ((1.0, 0.0, 0.0), 2.0**-49),  # 32 cells over 32 ulp of 1: some have width 0
        ((0.0, 0.0, 0.0), 6.0 * math.sqrt(np.finfo(float).tiny)),  # the cell volume underflows
        ((0.0, 0.0, 0.0), 0.0),
        ((0.0, 0.0, 0.0), math.nan),
    ])
    def test_collapsed_box_raises(self, center, extent):
        with pytest.raises(ValueError):
            box_edges(np.array(center), extent, 32)

    def test_small_resolvable_box(self):
        edges = box_edges(np.array([0.5, 0.0, -3.0]), 1e-9, 32)
        assert all(np.all(np.diff(e) > 0.0) for e in edges)


class TestHPhi:
    @staticmethod
    def unit_cells(hist):
        return maxwellian_cells(np.zeros(3), 1.0, hist.edges)

    def test_matched_sample_is_small(self):
        vel = np.random.default_rng(6).normal(size=(200_000, 3))
        hist = histogram(vel, box_edges(np.zeros(3), 5.0, 24))
        h_quad, h_ent = h_phi(hist, self.unit_cells(hist))
        # The plug-in quadratic form's noise floor is about (cells)/N, 0.07
        # here (it reads 0.055 without the correction); the entropy's is
        # below it, and the correction removes the quadratic form's.
        floor = hist.density.size / hist.n
        assert abs(h_quad) < 0.2 * floor
        assert 0.0 <= h_ent < floor

    def test_mismatched_sample_is_large(self):
        vel = np.random.default_rng(7).normal(size=(200_000, 3)) * math.sqrt(2.0)
        hist = histogram(vel, box_edges(np.zeros(3), 6.0, 24))
        h_quad, h_ent = h_phi(hist, self.unit_cells(hist))
        assert h_quad > 0.2
        assert h_ent > 0.2

    def test_entropy_variant_nonnegative(self):
        vel = np.random.default_rng(8).normal(size=(100_000, 3))
        hist = histogram(vel, box_edges(np.zeros(3), 5.0, 24))
        _, h_ent = h_phi(hist, self.unit_cells(hist))
        assert h_ent >= 0.0

    def test_values_are_the_written_out_sums(self):
        # Both values to the bit: vol F Phi(fhat / F) summed over the
        # occupied cells, plus vol F Phi(0) = vol F over the empty ones, and
        # the quadratic form less (1/N) sum fhat (1 - fhat vol) / F.
        vel = np.random.default_rng(21).normal(size=(5000, 3)) * 1.1 + [0.2, 0.0, -0.1]
        hist = histogram(vel, box_edges(np.zeros(3), 5.0, 12))
        ref = self.unit_cells(hist)
        vol, occupied = hist.cell_volume, hist.density > 0.0
        assert np.all(ref > 0.0) and not np.all(occupied)
        f, r = hist.density[occupied], ref[occupied]
        empty = float(np.sum(ref[~occupied]) * vol)
        h_quad = float(np.sum(r * (f / r - 1.0) ** 2) * vol) + empty
        h_quad -= float(np.sum(f * (1.0 - f * vol) / r) / hist.n)
        x = f / r
        h_ent = float(np.sum(r * (x * np.log(x) - x + 1.0)) * vol) + empty
        assert h_phi(hist, ref) == (h_quad, h_ent)

    def test_support_mismatch_raises(self):
        vel = np.random.default_rng(9).normal(size=(1000, 3)) + np.array([4.0, 0, 0])
        hist = histogram(vel, box_edges(np.zeros(3), 8.0, 16))
        # Vanishes on the half-space x > 0, where the sample lives.
        upper = hist.edges[0][1:]
        ref = np.broadcast_to(np.where(upper <= 0.0, 1.0, 0.0)[:, None, None], hist.density.shape)
        message = r"^reference density vanishes on \d+ occupied cells$"
        with pytest.raises(NumericalFault, match=message):
            h_phi(hist, ref)

    def test_grid_reference_shape_check(self):
        vel = np.random.default_rng(10).normal(size=(1000, 3))
        with pytest.raises(ValueError):
            h_phi(histogram(vel, box_edges(np.zeros(3), 5.0, 4)), np.ones((4, 4, 5)))


class TestMaxwellianCells:
    LINEAR = RestitutionParams(epsilon=1.0, e=0.8, m1=1.0)

    def test_matches_scipy_normal_differences(self):
        # An off-centre box of +-30 thermal widths: cells above the mean,
        # below it, the one that holds it, and tails down to 1e-199 per axis.
        from scipy.stats import norm

        center, theta = np.array([0.2, -0.1, 0.4]), 0.8
        s = math.sqrt(theta)
        edges = box_edges(center + s * np.array([1.5, -2.0, 0.7]), 30.0 * s, 32)
        masses = []
        for c, e in zip(center, edges):
            lo, hi = e[:-1], e[1:]
            masses.append(np.where(
                lo >= c,
                norm.sf(lo, loc=c, scale=s) - norm.sf(hi, loc=c, scale=s),
                norm.cdf(hi, loc=c, scale=s) - norm.cdf(lo, loc=c, scale=s),
            ))
        vol = math.prod(e[1] - e[0] for e in edges)
        want = np.multiply.outer(np.multiply.outer(masses[0], masses[1]), masses[2]) / vol
        got = maxwellian_cells(center, theta, edges)
        assert got.shape == (32, 32, 32)
        # Products below the normal range carry absolute, not relative, error.
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=np.finfo(float).tiny)

    def test_every_cell_positive_on_a_wide_box(self):
        # The linear-mode H box at grid extent 20: +-18 bath widths about u1.
        bath = bath_at(u1=(0.3, -0.2, 0.1))
        theta_lin = linear_steady(self.LINEAR, bath)
        edges = box_edges(bath.u1, 0.9 * 20.0 * bath.sigma_th, 32)
        cells = maxwellian_cells(bath.u1, theta_lin, edges)
        assert np.all(cells > 0.0)
        vol = math.prod(e[1] - e[0] for e in edges)
        assert float(np.sum(cells)) * vol == pytest.approx(1.0, rel=1e-12)

    def test_exact_steady_samples_have_zero_h(self):
        # Criterion 09's 24^3 cells: Maxwellian samples at theta_lin give a
        # bias-corrected H_quad centred on 0.  Cell-centre values of the
        # same Maxwellian hold it at 2.2e-3 (sd 2.1e-4) on these seeds.
        bath = bath_at()
        theta_lin = linear_steady(self.LINEAR, bath)
        edges = box_edges(bath.u1, 0.9 * 8.0 * bath.sigma_th, 24)
        cells = maxwellian_cells(bath.u1, theta_lin, edges)
        h = []
        for seed in range(8):
            vel = np.random.default_rng(1200 + seed).normal(size=(200_000, 3))
            hist = histogram(bath.u1 + math.sqrt(theta_lin) * vel, edges)
            h.append(h_phi(hist, cells)[0])
        mean, sd = float(np.mean(h)), float(np.std(h, ddof=1))
        assert abs(mean) <= 4.0 * sd / math.sqrt(8), (mean, sd)


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

    def test_matches_curve_fit_on_a_cooling_run(self):
        # Oracle: scipy's curve_fit on the same model, started from the t0
        # where Theta first falls to Theta(0)/4 and from exponent -2.
        # theta decays 155x over 201 records.
        from scipy.optimize import curve_fit

        config = SimConfig(
            tau=1.0, restitution=RestitutionParams(epsilon=0.5, e=1.0, m1=1.0),
            bath=None, dt=0.02, t_end=40.0, n_particles=2000, seed=3,
        )
        traj = run(config, observers=ObserverConfig(record_every=10))
        t, theta = np.asarray(traj.times()), np.asarray(traj.thetas())

        def model(tt, log_t0, g):
            return math.log(theta[0]) + g * np.log1p(tt / math.exp(log_t0))

        t0_guess = t[np.nonzero(theta <= theta[0] / 4.0)[0][0]]
        (log_t0, g), _ = curve_fit(
            model, t, np.log(theta), p0=(math.log(t0_guess), -2.0), maxfev=20000
        )
        fit = haff_fit(t, theta)
        assert fit.exponent == pytest.approx(g, abs=1e-6)
        assert fit.t0 == pytest.approx(math.exp(log_t0), rel=1e-6)

    @pytest.mark.parametrize("noise", [0.0, 0.01])
    def test_refuses_exponential_decay(self, noise):
        # exp(-t) is (1 + t/t0)^-t0 as t0 -> infinity: the best t0 lies at
        # the top of the search bracket, and the fit is refused rather than
        # reported with an exponent of about -t0.
        t = np.linspace(0.0, 10.0, 501)
        theta = np.exp(-t) * (1.0 + noise * np.random.default_rng(7).standard_normal(t.size))
        with pytest.raises(FitRefusedError, match="at an end of"):
            haff_fit(t, theta)

    @pytest.mark.parametrize(
        "t",
        [
            [0.0, 1.0, np.nan, 3.0, 4.0],
            [0.0, 1.0, 2.0, 3.0, np.inf],
            [0.0, 1.0, 1.0, 3.0, 4.0],
            [0.0, 2.0, 1.0, 3.0, 4.0],
            [-1.0, 1.0, 2.0, 3.0, 4.0],
        ],
        ids=["nan", "inf", "repeated", "decreasing", "negative-start"],
    )
    def test_rejects_bad_times(self, t):
        theta = 1e3 * (1.0 + np.arange(5.0)) ** -3.0
        with pytest.raises(ValueError, match="times must be"):
            haff_fit(np.asarray(t), theta)


class TestSigmaFreq:
    def test_small_sample_exact(self):
        # N = 2 with no bath: Sigma = tau * mean of |v_i - v_j| over the two
        # ordered distinct pairs, each at distance d: tau * d.
        vel = np.array([[0.0, 0, 0], [3.0, 0, 0]])
        got = sigma_freq(vel, None, tau=2.0)
        assert got == pytest.approx(2.0 * 3.0, rel=1e-13, abs=0.0)

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
        n_pairs = vel.shape[0] * (vel.shape[0] - 1)  # the i = j zeros add nothing
        exact = total / n_pairs
        se = math.sqrt(total_sq / n_pairs - exact**2) / math.sqrt(DEFAULT_SIGMA_PAIRS)
        got = sigma_freq(vel, None, tau=1.0)
        assert abs(got - exact) <= 4.0 * se, (got, exact, se)

    @pytest.mark.parametrize("n", [363, 5000])
    def test_shift_sample_within_four_standard_errors_of_exact_sum(self, n):
        # 363 is the last N whose ceil(2^17 / N) shifts are every shift
        # there is (362); at 5000 the sample is 27 shifts, K N = 135 000
        # pairs.
        vel = np.random.default_rng(n).normal(size=(n, 3))
        total = total_sq = 0.0
        for lo in range(0, n, 100):
            d = np.linalg.norm(vel[lo : lo + 100, None, :] - vel[None, :, :], axis=-1)
            total += float(d.sum())
            total_sq += float(np.sum(d**2))
        n_pairs = n * (n - 1)  # the i = j zeros add nothing
        exact = total / n_pairs
        se = math.sqrt(total_sq / n_pairs - exact**2) / math.sqrt(DEFAULT_SIGMA_PAIRS)
        got = sigma_freq(vel, None, tau=1.0)
        assert abs(got - exact) <= 4.0 * se, (got, exact, se)

    @pytest.mark.parametrize("n", [1, 3, 362])
    def test_every_shift_up_to_363(self, n):
        # Up to N = 363 the design takes all N - 1 shifts: the exact mean
        # over the N (N - 1) distinct pairs, to rounding.  One particle has
        # no pair, and its term is 0.
        vel = np.random.default_rng(n).normal(size=(n, 3)) + np.array([0.5, -1.0, 0.0])
        total = float(np.sum(np.linalg.norm(vel[:, None, :] - vel[None, :, :], axis=-1)))
        exact = total / (n * (n - 1)) if n > 1 else 0.0
        assert sigma_freq(vel, None, tau=1.0) == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_all_shifts_give_the_exact_mean(self):
        # Every ordered pair i != j has one shift, j - i mod N, so all N - 1
        # shifts give the mean over the distinct pairs.
        n = 400
        vel = np.random.default_rng(16).normal(size=(n, 3)) + np.array([1.0, 0.0, -2.0])
        total = float(np.sum(np.linalg.norm(vel[:, None, :] - vel[None, :, :], axis=-1)))
        exact = total / (n * (n - 1))
        got = _shift_mean(vel, range(1, n), vel)
        assert got == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_blocks_match_whole_rows(self):
        # Two blocks of particles, with shifts whose partners wrap in the
        # first block, the second, or between them; the blocks are summed
        # apart, so the match is to rounding, not to the bit.
        n = 2**15 + 1000
        vel = np.random.default_rng(19).normal(size=(n, 3))
        shifts = [1, 1000, 1001, 2**15, n - 1]
        want = np.mean([np.linalg.norm(vel - np.roll(vel, -s, axis=0), axis=1) for s in shifts])
        assert _shift_mean(vel, shifts, vel) == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n, limit", [(20_000, 1.5 * 2**20), (200_000, 2.5 * 2**20)])
    def test_traced_peak_with_a_bath(self, n, limit):
        vel = np.random.default_rng(17).normal(size=(n, 3))
        assert traced_peak(sigma_freq, vel, bath_at(), 1.0) <= limit

    def test_nu_mean_in_blocks(self):
        # Two blocks of nu values, each summed by np.sum, then divided by N:
        # np.mean to rounding.
        vel = np.random.default_rng(20).normal(size=(2**15 + 1000, 3))
        want = float(np.mean(nu(bath_at(), vel)))
        assert sigma_freq(vel, bath_at(), 0.0) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_keeps_no_array_between_calls(self):
        vel = np.random.default_rng(18).normal(size=(20_001, 3))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sigma_freq(vel, bath_at(), 1.0)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert kept <= 4096, kept


class TestSigmaFreqTable:
    """A tabulated bath's term: the mean of |v - W| / lambda over fixed
    draws W of the cell law that the bath sweep samples."""

    def test_within_four_standard_errors_of_fresh_draws(self):
        bath = skewed_table_bath(lam=1.3)
        vel = np.random.default_rng(50).normal(size=(3000, 3)) * 1.2 + [0.5, 0.0, -0.3]
        got = sigma_freq(vel, bath, 0.0)
        rng = np.random.default_rng(51)
        chunks = [
            np.linalg.norm(vel[rng.integers(3000, size=2**18)] - sample_bath(bath, 2**18, rng),
                           axis=1) / bath.lambda_
            for _ in range(8)
        ]
        want = float(np.mean([c.mean() for c in chunks]))
        sd = float(np.std(np.concatenate(chunks)))
        # The term's own error, from its 2^15 fixed draws and its pairs, is
        # at most sd sqrt(1/2^15 + 1/2^17); the 2^21 fresh pairs add theirs.
        se = sd * math.sqrt(1.0 / 2**15 + 1.0 / DEFAULT_SIGMA_PAIRS + 1.0 / 2**21)
        assert abs(got - want) <= 4.0 * se, (got, want, se)

    @pytest.mark.parametrize("n", [2, 100, 20_000, 2**15 + 5000])
    def test_every_particle_in_as_many_pairs(self, n):
        # One particle far out adds D times its share of the pairs, 1/N when
        # every particle is in the same number of pairs.
        bath, far = skewed_table_bath(lam=1.3), 1e9
        vel = np.zeros((n, 3))
        base = sigma_freq(vel, bath, 0.0)
        assert sigma_freq(vel, bath, 0.0) == base  # the same draws at every call
        for i in sorted({0, n // 2, n - 1}):
            vel[i, 0] = far
            share = (sigma_freq(vel, bath, 0.0) - base) * bath.lambda_ / far
            vel[i, 0] = 0.0
            assert share == pytest.approx(1.0 / n, rel=1e-6), i

    def test_holds_one_block_and_keeps_nothing(self):
        # The draws and the pair kernel's buffers, at most 2^15 rows each.
        bath = skewed_table_bath()
        vel = np.random.default_rng(52).normal(size=(200_000, 3))
        assert traced_peak(sigma_freq, vel, bath, 1.0) <= 2.5 * 2**20
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sigma_freq(vel, bath, 1.0)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert kept <= 4096, kept

    def test_shift_kernel_with_partners(self):
        # Fewer partners than particles (rows of M particles) and more.
        rng = np.random.default_rng(53)
        x, w = rng.normal(size=(600, 3)), rng.normal(size=(200, 3))
        for a, b in ((x, w), (w, x)):
            m = b.shape[0]
            want = np.mean([np.linalg.norm(a - b[(np.arange(a.shape[0]) + s) % m], axis=1)
                            for s in (0, 3, m - 1)])
            assert _shift_mean(a, [0, 3, m - 1], b) == pytest.approx(want, rel=1e-14, abs=0.0)


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
        want = sigma_shift_form(vel, bath, 1.7)
        assert got == want

    def test_non_contiguous_velocities(self, vel):
        fortran = np.asfortranarray(vel)
        strided = np.repeat(vel, 2, axis=0)[::2]
        want = sigma_freq(vel, None, tau=1.0)
        assert sigma_freq(fortran, None, tau=1.0) == want
        assert sigma_freq(strided, None, tau=1.0) == want

    def test_distances_match_einsum_rows(self, vel):
        # Per pair, not through the mean: averaging many distances hides a
        # last-bit change in a few of them.  Two rows and the shift 1 give
        # the mean of one distance taken twice, which is that distance.
        d = vel[0:300:2] - vel[1:300:2]
        want = np.sqrt(np.einsum("ij,ij->i", d, d))
        got = [_shift_mean(vel[k : k + 2], [1], vel[k : k + 2]) for k in range(0, 300, 2)]
        assert np.array_equal(got, want)


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
