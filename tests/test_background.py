"""Bath-model oracles: sampling statistics, closed-form absolute moments,
collision-frequency closed form vs Monte Carlo, and table I/O."""
import math

import numpy as np
import pytest
from conftest import nu_mc, traced_peak

from granular_bath.background import (
    BathParams,
    TableFormatError,
    TabulatedDensity,
    abs_moment,
    bath_density,
    c0,
    erf,
    linear_steady,
    load_table,
    nu,
    sample_bath,
    sample_partners,
)
from granular_bath.kinematics import RestitutionParams, _sq_norm, _uniform_sphere

# E|W - u1|^k for W ~ N(u1, s^2 I3) equals s^k 2^(k/2) Gamma((3+k)/2)/Gamma(3/2):
#   k=1 -> 2 sqrt(2/pi) s, k=2 -> 3 s^2, k=3 -> (16/sqrt(2 pi)) s^3.
E1_UNIT = 1.5957691216057308
E3_UNIT = 6.383076486422923
C0_UNIT = 4.255384324281949  # 2 * max(E1, E3/E2) = 2 * E3 / 3


def maxwell_bath(m1=1.0, theta1=1.0, lam=1.0, u1=(0.0, 0.0, 0.0)):
    return BathParams(m1=m1, u1=np.array(u1, dtype=float), theta1=theta1, lambda_=lam)


def tabulated_bath():
    ax = np.linspace(-1.0, 1.0, 5)
    table = TabulatedDensity(axes=(ax, ax, ax), values=np.ones((5, 5, 5)))
    return BathParams(
        m1=1.0, u1=np.zeros(3), theta1=1.0, lambda_=1.0, table=table,
    )


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
            m1=1.0, u1=np.zeros(3), theta1=1.0, lambda_=1.0, table=table,
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


class TestSizeBiasedPartners:
    def test_maxwellian_size_biased_law(self):
        # Under |w - u1| F1(w) / b the mean of |w - u1| is
        # E|W - u1|^2 / E|W - u1|, its direction is uniform, and the bound
        # returned with each draw is |w - u1| itself.
        bath = maxwell_bath(m1=2.0, theta1=0.5, u1=(0.3, -0.2, 1.0))
        n = 200_000
        draws, bounds = sample_partners(bath, 1000, n, np.random.default_rng(17))
        assert draws.shape == (1000 + n, 3) and bounds.shape == (1000 + n,)
        dist = np.linalg.norm(draws - bath.u1, axis=1)
        np.testing.assert_allclose(bounds, dist, rtol=1e-12)
        r = dist[1000:]
        e1, e2 = abs_moment(bath, 1.0), abs_moment(bath, 2.0)
        assert bath.bound_mean == pytest.approx(e1, rel=1e-14)
        assert r.mean() == pytest.approx(e2 / e1, abs=4 * r.std(ddof=1) / math.sqrt(n))
        # E r^2 = E|W - u1|^3 / E|W - u1|: 4 sigma_th^2 for the chi_4 radius
        # of the size-biased law, where a chi_3 radius would give 3 sigma_th^2.
        e3 = abs_moment(bath, 3.0)
        r2 = r * r
        assert r2.mean() == pytest.approx(e3 / e1, abs=4 * r2.std(ddof=1) / math.sqrt(n))
        # The unbiased part keeps the plain law: mean |w - u1| = E|W - u1|.
        plain = dist[:1000]
        assert plain.mean() == pytest.approx(e1, abs=4 * plain.std(ddof=1) / math.sqrt(1000))
        direction = (draws[1000:] - bath.u1) / r[:, None]
        np.testing.assert_allclose(direction.mean(axis=0), 0.0, atol=4 / math.sqrt(3 * n))

    def test_maxwellian_draws_match_the_broadcast_forms(self):
        # The plain draws are formed one component at a time, with the bits
        # and the RNG stream of the (n, 3) broadcast expression; a biased
        # draw is u1 + sigma_th rho omega, rho^2 = -2 ln((1 - U1)(1 - U2)).
        bath = maxwell_bath(m1=0.7, theta1=1.3, u1=(0.3, -0.2, 1.0))
        partners, bounds = sample_partners(bath, 500, 300, np.random.default_rng(23))
        rng = np.random.default_rng(23)
        plain = rng.standard_normal((500, 3)) * bath.sigma_th + bath.u1
        u = rng.random((2, 300))
        radius = np.sqrt(-2.0 * bath.theta1 / bath.m1 * np.log((1.0 - u[0]) * (1.0 - u[1])))
        biased = _uniform_sphere(rng, 300) * radius[:, None] + bath.u1
        want = np.concatenate([plain, biased])
        assert partners.tobytes() == want.tobytes()
        want_bounds = np.concatenate([np.linalg.norm(plain - bath.u1, axis=1), radius])
        assert bounds.tobytes() == want_bounds.tobytes()

    def test_tabulated_size_biased_law(self):
        # Cells are drawn with probability weight * B(c) / b, so the mean
        # bound over size-biased draws is E B^2 / E B under the table.
        ax = np.linspace(-2.0, 2.0, 9)
        gx, gy, gz = np.meshgrid(ax, ax, ax, indexing="ij")
        vals = np.exp(-0.5 * ((gx - 0.5) ** 2 + gy**2 / 0.5 + gz**2))
        table = TabulatedDensity(axes=(ax, ax, ax), values=vals)
        bath = BathParams(
            m1=1.0, u1=np.zeros(3), theta1=1.0, lambda_=1.0, table=table,
        )
        p = table.values.ravel() * table.cell_volume
        cell_b = np.linalg.norm(table.nodes() - bath.u1, axis=1) + 0.5 * math.sqrt(3 * 0.25)
        assert bath.bound_mean == pytest.approx(float(cell_b @ p), rel=1e-12)
        n = 200_000
        draws, bounds = sample_partners(bath, 0, n, np.random.default_rng(19))
        want = float(cell_b**2 @ p) / float(cell_b @ p)
        assert bounds.mean() == pytest.approx(want, abs=4 * bounds.std(ddof=1) / math.sqrt(n))
        assert np.all(np.linalg.norm(draws - bath.u1, axis=1) <= bounds)


class TestTableLaws:
    """A table's law is its cell density; the pointwise closed forms of a
    Maxwellian bath raise on it."""

    def test_nodes_are_built_once_and_read_only(self):
        ax = (np.linspace(-1.0, 1.0, 3), np.linspace(0.0, 2.0, 4), np.linspace(-2.0, 0.5, 5))
        table = TabulatedDensity(axes=ax, values=np.ones((3, 4, 5)))
        nodes = table.nodes()
        assert table.nodes() is nodes
        assert not nodes.flags.writeable
        gx, gy, gz = np.meshgrid(*ax, indexing="ij")
        want = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
        assert nodes.tobytes() == want.tobytes()

    def test_bath_density_raises(self):
        with pytest.raises(ValueError, match="Maxwellian"):
            bath_density(tabulated_bath(), np.zeros((2, 3)))


class TestLinearSteady:
    # The grid checks theta_lin at six inelastic parameter sets
    # (tests/test_carleman.py::TestLinearClosedForm).
    def test_elastic_equal_mass_is_the_bath_temperature(self):
        # kappa = 1/2 at e = 1, m1 = 1, so theta_lin = theta1.
        rest = RestitutionParams(epsilon=1.0, e=1.0, m1=1.0)
        assert linear_steady(rest, maxwell_bath(theta1=1.7)) == pytest.approx(1.7, rel=1e-15)

    def test_tabulated_bath_raises(self):
        rest = RestitutionParams(epsilon=1.0, e=0.8, m1=1.0)
        with pytest.raises(ValueError, match="Maxwellian"):
            linear_steady(rest, tabulated_bath())


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
            m1=1.0, u1=np.zeros(3), theta1=1.0, lambda_=1.0, table=table,
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

    def test_tabulated_bath_raises_naming_sample_bath(self):
        # A table has no closed form; its rate is the sampled cell law's.
        with pytest.raises(ValueError, match="over sample_bath draws"):
            nu(tabulated_bath(), np.zeros(3))

    def test_vectorized_matches_scalar(self):
        bath = maxwell_bath(theta1=0.7, lam=1.3)
        pts = np.random.default_rng(13).normal(size=(64, 3))
        vec = nu(bath, pts)
        for i in (0, 17, 63):
            assert vec[i] == pytest.approx(float(nu(bath, pts[i])), rel=1e-13)


def nu_math_erf_form(bath, v):
    """The Maxwellian nu with math.erf per element, the reference for the
    vectorized erf."""
    s = bath.sigma_th
    rho = np.linalg.norm(v - bath.u1, axis=-1) / s
    small = rho < 1e-4
    rho_safe = np.where(small, 1.0, rho)
    x = (rho_safe / math.sqrt(2.0)).ravel().tolist()
    erf_vals = np.fromiter(map(math.erf, x), float, count=len(x)).reshape(rho.shape)
    g = (
        math.sqrt(2.0 / math.pi) * np.exp(-0.5 * rho**2)
        + (rho_safe + 1.0 / rho_safe) * erf_vals
    )
    series = math.sqrt(2.0 / math.pi) * (2.0 + rho**2 / 3.0 - rho**4 / 60.0)
    return s * np.where(small, series, g) / bath.lambda_


class TestErf:
    EDGES = (0.0, 2.0**-28, 0.84375, 1.25, float.fromhex("0x1.6db6ep+1"), 1.0 / 0.35, 6.0)

    def test_within_one_ulp_of_math_erf(self):
        rng = np.random.default_rng(21)
        edges = np.array(self.EDGES)
        x = np.concatenate([
            rng.uniform(0.0, 0.84375, 250_000),
            rng.uniform(0.84375, 1.25, 200_000),
            rng.uniform(1.25, 1.0 / 0.35, 200_000),
            rng.uniform(1.0 / 0.35, 6.0, 200_000),
            rng.uniform(6.0, 30.0, 20_000),
            np.exp(rng.uniform(-745.0, 0.0, 130_000)),  # down to subnormals
            edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
            [5e-324, 2.0**-1022, 1e300],
        ])
        x = np.concatenate([x, -x])
        assert x.size >= 2_000_000
        got = erf(x)
        want = np.array([math.erf(t) for t in x.tolist()])
        ulps = np.abs(got - want) / np.spacing(np.abs(want))
        assert float(np.max(ulps)) <= 1.0

    def test_odd_symmetry(self):
        x = np.random.default_rng(22).uniform(-8.0, 8.0, 100_000)
        assert np.array_equal(erf(-x), -erf(x))
        zeros = erf(np.array([0.0, -0.0]))
        assert zeros[0] == 0.0 and not np.signbit(zeros[0]) and np.signbit(zeros[1])

    def test_special_values(self):
        got = erf(np.array([np.inf, -np.inf, np.nan, 2.0**-28, 0.0]))
        assert got[0] == 1.0 and got[1] == -1.0 and np.isnan(got[2])
        assert got[3] == math.erf(2.0**-28) and got[4] == 0.0

    def test_keeps_the_input_shape(self):
        x = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
        assert erf(x).shape == (2, 3, 4)
        assert erf(0.5) == math.erf(0.5)


class TestNuVectorizedErf:
    @pytest.mark.parametrize(
        "m1, theta1, lam, u1",
        [(1.0, 1.0, 1.0, (0.0, 0.0, 0.0)), (0.6, 1.7, 1.3, (0.7, -0.4, 0.25)),
         (2.5, 0.4, 0.8, (-3.0, 1.0, 2.0))],
    )
    def test_matches_the_math_erf_form(self, m1, theta1, lam, u1):
        bath = maxwell_bath(m1=m1, theta1=theta1, lam=lam, u1=u1)
        rng = np.random.default_rng(23)
        s = bath.sigma_th
        direction = rng.standard_normal((12, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        # rho on both sides of the series switch at 1e-4, and across every
        # interval of erf(rho / sqrt 2).
        rho = np.array([0.0, 1e-6, 0.5e-4, 0.999e-4, 1e-4, 1.001e-4, 2e-4,
                        0.5, 1.5, 3.0, 7.0, 12.0])
        pts = np.concatenate([
            bath.u1 + rho[:, None] * s * direction,
            bath.u1 + rng.standard_normal((20_000, 3)) * 2.0 * s,
        ])
        got = nu(bath, pts)
        want = nu_math_erf_form(bath, pts)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


class TestBlockedNu:
    @staticmethod
    def one_call_form(bath, v):
        """The Maxwellian closed form over all points in one pass."""
        s = bath.sigma_th
        rho = np.sqrt(_sq_norm(v, bath.u1)) / s
        small = rho < 1e-4
        rho_safe = np.where(small, 1.0, rho)
        g = (
            math.sqrt(2.0 / math.pi) * np.exp(-0.5 * rho**2)
            + (rho_safe + 1.0 / rho_safe) * erf(rho_safe / math.sqrt(2.0))
        )
        r = rho[small]
        g[small] = math.sqrt(2.0 / math.pi) * (2.0 + r**2 / 3.0 - r**4 / 60.0)
        return s * g / bath.lambda_

    @pytest.mark.parametrize("n", [1, 32_767, 32_768, 32_769, 200_001])
    def test_matches_the_one_call_form(self, n):
        # Sizes below, at and just past one block of 2^15 points, and many
        # blocks with a short tail; points on both sides of the series
        # switch.
        bath = maxwell_bath(m1=0.6, theta1=1.7, lam=1.3, u1=(0.7, -0.4, 0.25))
        rng = np.random.default_rng(31)
        pts = bath.u1 + rng.standard_normal((n, 3)) * 2.0 * bath.sigma_th
        pts[: min(n, 4)] = bath.u1 + np.array([1e-6, 0.0, 0.0])
        assert nu(bath, pts).tobytes() == self.one_call_form(bath, pts).tobytes()

    def test_keeps_leading_axes(self):
        bath = maxwell_bath(theta1=0.7, lam=1.3)
        pts = np.random.default_rng(37).normal(size=(4, 5, 3))
        got = nu(bath, pts)
        assert got.shape == (4, 5)
        assert got.tobytes() == nu(bath, pts.reshape(-1, 3)).reshape(4, 5).tobytes()

    def test_traced_peak_stays_in_blocks(self):
        # The 1.5 MiB output and one block's temporaries.
        bath = maxwell_bath()
        pts = np.random.default_rng(41).standard_normal((200_000, 3))
        assert traced_peak(nu, bath, pts) <= 4 * 2**20


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
