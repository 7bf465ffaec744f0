"""Bath-model oracles: sampling statistics, closed-form absolute moments,
collision-frequency closed form vs Monte Carlo, and table I/O."""
import math

import numpy as np
import pytest

from granular_bath.background import (
    BathParams,
    TableFormatError,
    TabulatedDensity,
    abs_moment,
    bath_density,
    c0,
    chi_empirical,
    load_table,
    nu,
    nu_mc,
    sample_bath,
    trilinear,
)

# E|W - u1|^k for W ~ N(u1, s^2 I3) equals s^k 2^(k/2) Gamma((3+k)/2)/Gamma(3/2):
#   k=1 -> 2 sqrt(2/pi) s, k=2 -> 3 s^2, k=3 -> (16/sqrt(2 pi)) s^3.
E1_UNIT = 1.5957691216057308
E3_UNIT = 6.383076486422923
C0_UNIT = 4.255384324281949  # 2 * max(E1, E3/E2) = 2 * E3 / 3


def maxwell_bath(m1=1.0, theta1=1.0, lam=1.0, u1=(0.0, 0.0, 0.0)):
    return BathParams(m1=m1, u1=np.array(u1, dtype=float), theta1=theta1, lambda_=lam)


class TestBathParams:
    def test_sigma_th(self):
        bath = maxwell_bath(m1=4.0, theta1=9.0)
        assert bath.sigma_th == pytest.approx(1.5, rel=1e-14)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m1": 0.0, "theta1": 1.0, "lambda_": 1.0},
            {"m1": -1.0, "theta1": 1.0, "lambda_": 1.0},
            {"m1": 1.0, "theta1": 0.0, "lambda_": 1.0},
            {"m1": 1.0, "theta1": -2.0, "lambda_": 1.0},
            {"m1": 1.0, "theta1": 1.0, "lambda_": 0.0},
        ],
    )
    def test_rejects_degenerate(self, kwargs):
        with pytest.raises(ValueError):
            BathParams(u1=np.zeros(3), **kwargs)


class TestSampling:
    def test_maxwellian_sample_statistics(self):
        bath = maxwell_bath(m1=2.0, theta1=0.5, u1=(0.3, -0.2, 1.0))
        s = bath.sigma_th
        n = 200_000
        draws = sample_bath(bath, n, np.random.default_rng(7))
        se_mean = s / math.sqrt(n)
        np.testing.assert_allclose(draws.mean(axis=0), bath.u1, atol=4 * se_mean)
        var = draws.var(axis=0)
        se_var = s**2 * math.sqrt(2.0 / (n - 1))
        np.testing.assert_allclose(var, s**2, atol=4 * se_var)

    def test_density_is_gaussian(self):
        bath = maxwell_bath(m1=2.0, theta1=0.5, u1=(0.3, -0.2, 1.0))
        s = bath.sigma_th
        pts = np.random.default_rng(1).normal(size=(50, 3))
        got = bath_density(bath, pts)
        d2 = np.sum((pts - bath.u1) ** 2, axis=1)
        want = (2 * math.pi * s**2) ** -1.5 * np.exp(-0.5 * d2 / s**2)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_tabulated_sampling_matches_table_moments(self):
        # A coarse Gaussian table: sampled mean/temperature must match the
        # table's own cell-model moments (not the underlying Gaussian's).
        ax = np.linspace(-4.0, 4.0, 17)
        gx, gy, gz = np.meshgrid(ax, ax, ax, indexing="ij")
        vals = np.exp(-0.5 * (gx**2 + gy**2 + gz**2))
        table = TabulatedDensity(axes=(ax, ax, ax), values=vals)
        bath = BathParams(
            m1=1.0, u1=np.zeros(3), theta1=1.0, lambda_=1.0,
            kind="tabulated", table=table,
        )
        np.testing.assert_allclose(bath.u1, table.mean(), atol=1e-12)
        assert bath.theta1 == pytest.approx(table.temperature(1.0), rel=1e-12)
        n = 400_000
        draws = sample_bath(bath, n, np.random.default_rng(11))
        s = math.sqrt(bath.theta1)
        np.testing.assert_allclose(
            draws.mean(axis=0), table.mean(), atol=4 * s / math.sqrt(n)
        )
        got_theta = float(np.sum((draws - draws.mean(axis=0)) ** 2) / (3 * n))
        assert got_theta == pytest.approx(bath.theta1, rel=0.01)


class TestTrilinear:
    def test_matches_scipy_linear_interpolator(self):
        # Oracle: scipy's RegularGridInterpolator, linear, zero outside.
        # Each axis has its own spacing and length.
        from scipy.interpolate import RegularGridInterpolator

        rng = np.random.default_rng(71)
        axes = (
            np.linspace(-1.3, 2.1, 7),
            np.linspace(0.5, 1.7, 12),
            np.linspace(-4.0, -1.0, 5),
        )
        values = rng.random((7, 12, 5)) + 0.1
        inner = np.column_stack([rng.uniform(a[0], a[-1], 4000) for a in axes])
        wide = np.column_stack([rng.uniform(a[0] - 0.6, a[-1] + 0.6, 4000) for a in axes])
        nodes = np.stack(
            [g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1
        )
        upper = inner[:300].copy()
        for d, ax in enumerate(axes):
            upper[d * 100 : (d + 1) * 100, d] = ax[-1]
        just_out = upper.copy()
        for d, ax in enumerate(axes):
            just_out[d * 100 : (d + 1) * 100, d] = np.nextafter(ax[-1], np.inf)
        pts = np.concatenate([inner, wide, nodes, upper, just_out])
        want = RegularGridInterpolator(
            axes, values, method="linear", bounds_error=False, fill_value=0.0
        )(pts)
        got = trilinear(axes, values, pts)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got == 0.0, want == 0.0)
        assert np.max(np.abs(got - want)) <= 1e-14 * values.max()
        np.testing.assert_array_equal(trilinear(axes, values, nodes), values.ravel())
        assert np.all(trilinear(axes, values, just_out) == 0.0)
        assert trilinear(axes, values, pts.reshape(-1, 2, 3)).shape == (pts.shape[0] // 2, 2)


class TestAbsoluteMoments:
    def test_closed_forms(self):
        bath = maxwell_bath(theta1=1.0, m1=1.0)
        assert abs_moment(bath, 0.0) == pytest.approx(1.0, rel=1e-12)
        assert abs_moment(bath, 1.0) == pytest.approx(E1_UNIT, rel=1e-12)
        assert abs_moment(bath, 2.0) == pytest.approx(3.0, rel=1e-12)
        assert abs_moment(bath, 3.0) == pytest.approx(E3_UNIT, rel=1e-12)

    def test_scaling_in_sigma(self):
        bath = maxwell_bath(theta1=4.0, m1=1.0)  # s = 2
        assert abs_moment(bath, 3.0) == pytest.approx(8.0 * E3_UNIT, rel=1e-12)

    def test_against_monte_carlo(self):
        bath = maxwell_bath(m1=0.5, theta1=2.0, u1=(1.0, 0.0, -1.0))
        n = 2_000_000
        draws = sample_bath(bath, n, np.random.default_rng(3))
        for k in (1.0, 1.5, 3.0):
            sample = np.linalg.norm(draws - bath.u1, axis=1) ** k
            se = sample.std() / math.sqrt(n)
            assert abs_moment(bath, k) == pytest.approx(sample.mean(), abs=4 * se)

    def test_off_center_equals_collision_frequency(self):
        # E|W - c| about an arbitrary center is nu(c) * lambda.
        bath = maxwell_bath(m1=2.0, theta1=0.5, lam=3.0, u1=(0.2, 0.1, 0.0))
        for c in ([0.0, 0.0, 0.0], [1.0, -2.0, 0.5], [5.0, 5.0, 5.0]):
            c = np.array(c)
            want = float(nu(bath, c)) * bath.lambda_
            assert abs_moment(bath, 1.0, center=c) == pytest.approx(want, rel=1e-12)


class TestC0:
    def test_maxwellian_value(self):
        assert c0(maxwell_bath()) == pytest.approx(C0_UNIT, rel=1e-12)
        # Scales like sigma_th.
        assert c0(maxwell_bath(theta1=4.0)) == pytest.approx(2 * C0_UNIT, rel=1e-12)

    def test_point_mass_table_gives_zero(self):
        ax = np.linspace(-1.0, 1.0, 5)
        vals = np.zeros((5, 5, 5))
        vals[2, 2, 2] = 1.0
        table = TabulatedDensity(axes=(ax, ax, ax), values=vals)
        bath = BathParams(
            m1=1.0, u1=np.zeros(3), theta1=1.0, lambda_=1.0,
            kind="tabulated", table=table,
        )
        assert c0(bath) == pytest.approx(0.0, abs=1e-14)


class TestCollisionFrequency:
    def test_limit_at_bath_mean(self):
        # nu(u1) = E|W - u1| / lambda = 2 sqrt(2/pi) s / lambda.
        bath = maxwell_bath(m1=4.0, theta1=1.0, lam=2.0)  # s = 1/2
        want = E1_UNIT * 0.5 / 2.0
        assert float(nu(bath, bath.u1)) == pytest.approx(want, rel=1e-12)

    def test_against_monte_carlo(self):
        bath = maxwell_bath(m1=1.0, theta1=2.0, lam=0.7, u1=(0.5, 0.0, 0.0))
        rng = np.random.default_rng(5)
        for v in ([0.0, 0.0, 0.0], [2.0, -1.0, 0.0], [6.0, 6.0, 0.0]):
            v = np.array(v)
            est, se = nu_mc(bath, v, 400_000, rng)
            assert float(nu(bath, v)) == pytest.approx(est, abs=4 * se)

    def test_reverse_triangle_envelope(self):
        # max(|v - u1|, E1) <= lambda nu <= |v - u1| + E1.
        bath = maxwell_bath(m1=1.0, theta1=1.5, lam=2.0, u1=(0.0, 1.0, 0.0))
        e1 = abs_moment(bath, 1.0)
        pts = np.random.default_rng(9).normal(size=(200, 3)) * 3.0
        vals = nu(bath, pts) * bath.lambda_
        dist = np.linalg.norm(pts - bath.u1, axis=1)
        assert np.all(vals <= dist + e1 + 1e-12)
        assert np.all(vals >= np.maximum(dist, e1) - 1e-12)

    def test_far_field_asymptotics(self):
        bath = maxwell_bath()
        v = np.array([1e7, 0.0, 0.0])
        assert float(nu(bath, v)) * bath.lambda_ / 1e7 == pytest.approx(1.0, rel=1e-9)

    def test_series_continuity_at_switch(self):
        # The small-rho series takes over below rho = 1e-4; both branches
        # must agree at the seam to near machine precision.
        bath = maxwell_bath(theta1=1.0)
        for rho in (0.9999e-4, 1.0001e-4):
            v = np.array([rho, 0.0, 0.0])
            got = float(nu(bath, v))
        below = float(nu(bath, np.array([0.99999e-4, 0.0, 0.0])))
        above = float(nu(bath, np.array([1.00001e-4, 0.0, 0.0])))
        assert below == pytest.approx(above, rel=1e-10)

    def test_vectorized_matches_scalar(self):
        bath = maxwell_bath(theta1=0.7, lam=1.3)
        pts = np.random.default_rng(13).normal(size=(64, 3))
        vec = nu(bath, pts)
        for i in (0, 17, 63):
            assert vec[i] == pytest.approx(float(nu(bath, pts[i])), rel=1e-13)


class TestChi:
    def test_positive_and_bounded_by_center_value(self):
        bath = maxwell_bath(m1=2.0, theta1=1.0, lam=1.5)
        val = chi_empirical(bath, radius=3.0)
        assert 0.0 < val <= float(nu(bath, bath.u1)) * (1 + 1e-9)

    def test_monotone_in_radius(self):
        # nu grows with |v - u1|, so the infimum over a larger ball cannot
        # increase.
        bath = maxwell_bath()
        assert chi_empirical(bath, 5.0) <= chi_empirical(bath, 1.0) + 1e-12


class TestTableIO:
    def write_table(self, tmp_path, rows, header="vx,vy,vz,density"):
        path = tmp_path / "table.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        return path

    def grid_rows(self, ax, fn):
        rows = []
        for x in ax:
            for y in ax:
                for z in ax:
                    rows.append(
                        f"{float(x)!r},{float(y)!r},{float(z)!r},{float(fn(x, y, z))!r}"
                    )
        return rows

    def test_round_trip(self, tmp_path):
        ax = np.linspace(-1.0, 1.0, 4)
        fn = lambda x, y, z: math.exp(-(x * x + y * y + z * z))
        path = self.write_table(tmp_path, self.grid_rows(ax, fn))
        table = load_table(path)
        np.testing.assert_allclose(table.axes[0], ax, atol=1e-15)
        # Values come back renormalized to unit cell-sum mass.
        mass = table.values.sum() * table.cell_volume
        assert mass == pytest.approx(1.0, rel=1e-12)

    def test_rejects_wrong_header(self, tmp_path):
        path = self.write_table(tmp_path, ["0,0,0,1"], header="a,b,c,d")
        with pytest.raises(TableFormatError):
            load_table(path)

    def test_rejects_incomplete_grid(self, tmp_path):
        ax = np.linspace(-1.0, 1.0, 3)
        rows = self.grid_rows(ax, lambda *_: 1.0)[:-1]  # drop one node
        path = self.write_table(tmp_path, rows)
        with pytest.raises(TableFormatError):
            load_table(path)

    def test_rejects_duplicate_rows(self, tmp_path):
        ax = np.linspace(-1.0, 1.0, 3)
        rows = self.grid_rows(ax, lambda *_: 1.0)
        rows[5] = rows[4]  # duplicate one node, another left unassigned
        path = self.write_table(tmp_path, rows)
        with pytest.raises(TableFormatError):
            load_table(path)

    def test_rejects_negative_density(self, tmp_path):
        ax = np.linspace(-1.0, 1.0, 3)
        rows = self.grid_rows(ax, lambda x, y, z: -1.0 if x == y == z == 0 else 1.0)
        path = self.write_table(tmp_path, rows)
        with pytest.raises(TableFormatError):
            load_table(path)

    def test_rejects_zero_mass(self):
        ax = np.linspace(-1.0, 1.0, 3)
        with pytest.raises(TableFormatError):
            TabulatedDensity(axes=(ax, ax, ax), values=np.zeros((3, 3, 3)))

    def test_rejects_irregular_axis(self):
        good = np.linspace(-1.0, 1.0, 4)
        bad = np.array([-1.0, -0.2, 0.3, 1.0])
        with pytest.raises(TableFormatError):
            TabulatedDensity(axes=(bad, good, good), values=np.ones((4, 4, 4)))
