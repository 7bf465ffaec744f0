"""Scattering-kernel and grid-operator oracles.

The closed-form kernel is validated two independent ways: against the planar
Gaussian quadrature (same analytic collapse, different integration route),
and by integrating the kernel itself over all arrival velocities, which must
reproduce the collision frequency nu exactly (spherical product quadrature
around the pre-collision velocity).
"""
import math

import numpy as np
import pytest
from conftest import traced_peak

from granular_bath import carleman
from granular_bath.background import (
    BathParams, NumericalFault, TabulatedDensity, bath_density, linear_steady, nu,
)
from granular_bath.carleman import (
    SteadyState,
    _DEFECT_LIMIT,
    _check_column_defect,
    _Lattice,
    _kernel_safe,
    _orbit_decomposition,
    _stretch_offset,
    closed_form_gap,
    dense_matrix,
    kernel_closed_form,
    kernel_quadrature,
    make_grid,
    steady_state,
    write_grid_csv,
)
from granular_bath.background import load_table
from granular_bath.kinematics import RestitutionParams

PARAM_SETS = [
    (1.0, 1.0),
    (0.8, 1.0),
    (0.7, 0.5),
    (0.9, 2.0),
]


def bath_at(theta1=1.0, m1=1.0, lam=1.0, u1=(0.0, 0.0, 0.0)):
    return BathParams(m1=m1, u1=np.array(u1, float), theta1=theta1, lambda_=lam)


def rest_at(e, m1):
    return RestitutionParams(epsilon=1.0, e=e, m1=m1)


class TestKernelClosedForm:
    def test_matches_planar_quadrature(self):
        rng = np.random.default_rng(300)
        for e, m1 in PARAM_SETS:
            bath = bath_at(theta1=1.3, m1=m1, lam=0.8, u1=(0.2, -0.1, 0.4))
            rest = rest_at(e, m1)
            for _ in range(25):
                v = bath.u1 + rng.normal(size=3) * 2.0
                w = bath.u1 + rng.normal(size=3) * 2.0
                closed = float(kernel_closed_form(v, w, rest, bath))
                quad = kernel_quadrature(v, w, rest, bath)
                scale = max(abs(closed), 1e-30)
                assert abs(closed - quad) <= 1e-8 * scale

    @pytest.mark.parametrize("e,m1", PARAM_SETS)
    def test_columns_integrate_to_collision_frequency(self, e, m1):
        # Integrate k(., w) over arrival velocities in spherical coordinates
        # around w (the kernel is azimuthally symmetric about w - u1).  The
        # result must equal nu(w): the operator's gain and loss rates agree
        # for every pre-collision velocity.
        bath = bath_at(theta1=0.9, m1=m1, lam=1.4)
        rest = rest_at(e, m1)
        s = bath.sigma_th
        kap = rest.kappa
        for c in (0.7, 2.5, 6.0):
            w = bath.u1 + np.array([0.0, 0.0, c * s])
            d_hat = np.array([0.0, 0.0, 1.0])
            d_perp = np.array([1.0, 0.0, 0.0])
            r_max = 2.0 * kap * (c * s + 10.0 * s)
            xr, wr = np.polynomial.legendre.leggauss(480)
            r = 0.5 * r_max * (xr + 1.0)
            wr = wr * 0.5 * r_max
            xm, wm = np.polynomial.legendre.leggauss(320)
            mu = xm
            sint = np.sqrt(1.0 - mu**2)
            # (n_r, n_mu, 3) arrival points v = w - r * e(mu)
            e_dir = mu[:, None] * d_hat + sint[:, None] * d_perp
            v_pts = w - r[:, None, None] * e_dir[None, :, :]
            k_vals = kernel_closed_form(v_pts, w, rest, bath)
            integrand = k_vals * (r**2)[:, None]
            total = 2.0 * math.pi * float(wr @ integrand @ wm)
            want = float(nu(bath, w))
            assert total == pytest.approx(want, rel=1e-8)

    def test_rotation_invariance_about_bath_mean(self):
        bath = bath_at(theta1=1.0, m1=1.0, u1=(0.5, 0.0, -0.5))
        rest = rest_at(0.8, 1.0)
        rng = np.random.default_rng(301)
        # Random rotation via QR of a Gaussian matrix.
        q_mat, r_mat = np.linalg.qr(rng.normal(size=(3, 3)))
        q_mat *= np.sign(np.diag(r_mat))
        v = np.array([1.0, -0.3, 0.7])
        w = np.array([-0.4, 0.9, 0.1])
        k1 = float(kernel_closed_form(bath.u1 + v, bath.u1 + w, rest, bath))
        k2 = float(kernel_closed_form(bath.u1 + q_mat @ v, bath.u1 + q_mat @ w, rest, bath))
        assert k1 == pytest.approx(k2, rel=1e-12)

    def test_detailed_balance_elastic_equal_mass(self):
        # e = 1, m1 = 1: k(v, w) M(w) = k(w, v) M(v) for the bath Maxwellian.
        bath = bath_at(theta1=0.7, m1=1.0, lam=1.2)
        rest = rest_at(1.0, 1.0)
        rng = np.random.default_rng(302)
        v = rng.normal(size=(40, 3))
        w = rng.normal(size=(40, 3))
        kvw = kernel_closed_form(v, w, rest, bath)
        kwv = kernel_closed_form(w, v, rest, bath)
        mv = bath_density(bath, v)
        mw = bath_density(bath, w)
        np.testing.assert_allclose(kvw * mw, kwv * mv, rtol=1e-11)

    def test_nonnegative(self):
        bath = bath_at()
        rest = rest_at(0.7, 2.0)
        rng = np.random.default_rng(303)
        v = rng.normal(size=(200, 3)) * 3
        w = rng.normal(size=(200, 3)) * 3
        assert np.all(kernel_closed_form(v, w, rest, bath) >= 0.0)

    def test_singular_diagonal_raises(self):
        bath = bath_at()
        rest = rest_at(0.8, 1.0)
        v = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            kernel_closed_form(v, v, rest, bath)

    def test_tabulated_bath_raises(self):
        # Both forms integrate a pointwise density, which a table lacks.
        ax = np.linspace(-3.0, 3.0, 9)
        gx, gy, gz = np.meshgrid(ax, ax, ax, indexing="ij")
        vals = np.exp(-0.5 * (gx**2 + gy**2 + gz**2))
        bath = BathParams(
            m1=1.0, u1=np.zeros(3), theta1=1.0, lambda_=1.0,
            table=TabulatedDensity(axes=(ax, ax, ax), values=vals),
        )
        rest = rest_at(0.8, 1.0)
        v = np.array([1.0, 0.0, 0.0])
        w = np.array([0.0, 0.5, 0.0])
        with pytest.raises(ValueError):
            kernel_closed_form(v, w, rest, bath)
        with pytest.raises(ValueError):
            kernel_quadrature(v, w, rest, bath)


@pytest.fixture(scope="module")
def grid12():
    return make_grid(rest_at(0.8, 1.0), bath_at(), n=12, extent_sigma=6.0)


@pytest.fixture(scope="module")
def grid24():
    return make_grid(rest_at(0.8, 1.0), bath_at(), n=24, extent_sigma=6.0)


class TestGridAssembly:
    def test_columns_sum_to_nu_exactly(self, grid12):
        cols = dense_matrix(grid12).sum(axis=0)
        np.testing.assert_allclose(cols, grid12.nu_vec, rtol=1e-13)

    def test_off_diagonal_nonnegative(self, grid12):
        off = dense_matrix(grid12)
        np.fill_diagonal(off, 0.0)
        assert float(off.min()) >= 0.0

    def test_diagonal_positive_in_the_core(self, grid12, grid24):
        s = 1.0  # sigma_th of the unit bath
        for g in (grid12, grid24):
            r = np.linalg.norm(g.nodes - g.bath.u1, axis=1) / s
            rel = g.diag * g.cell_volume / g.nu_vec
            assert float(rel[r <= 2.0].min()) > 0.0
            # Far-tail lattice overshoot stays well inside the build guard.
            assert float(rel.min()) >= -0.02

    def test_mass_conserved_for_arbitrary_density(self, grid12):
        rng = np.random.default_rng(304)
        f = rng.random(grid12.n_nodes)
        out = dense_matrix(grid12) @ f - grid12.nu_vec * f
        scale = float(np.sum(np.abs(grid12.nu_vec * f)) * grid12.cell_volume)
        assert abs(float(out.sum()) * grid12.cell_volume) <= 1e-12 * scale

    def test_quadrature_defect_halves_under_refinement(self, grid12, grid24):
        # The raw lattice defect nu - sum_i k h^3 (what the diagonal absorbs)
        # must drop at least 2x per mesh halving on the core region.
        def core_defect(g):
            r = np.linalg.norm(g.nodes - g.bath.u1, axis=1)
            rel = np.abs(g.diag * g.cell_volume / g.nu_vec)
            return float(rel[r <= 3.0].max())

        assert core_defect(grid12) / core_defect(grid24) >= 2.0

    def test_column_defect_guard_on_either_side_of_its_limit(self):
        # defect = nu - (column sum): a column that overshoots nu by 6% fails
        # the build, and every column overshooting by 4% passes it.
        assert _DEFECT_LIMIT == 0.05
        nu_col = np.linspace(0.5, 3.0, 20)
        one_over = np.zeros_like(nu_col)
        one_over[7] = -0.06 * nu_col[7]
        message = r"^kernel column sums overshoot nu by 6\.000e-02 \(relative\) at h = 0\.75 "
        with pytest.raises(NumericalFault, match=message):
            _check_column_defect(one_over, nu_col, 0.75)
        _check_column_defect(-0.04 * nu_col, nu_col, 0.75)

    def test_elastic_fixed_point_machine_exact(self):
        g = make_grid(rest_at(1.0, 1.0), bath_at(), n=12, extent_sigma=6.0)
        m = g.maxwellian()
        res = dense_matrix(g) @ m - g.nu_vec * m
        scale = float(np.max(g.nu_vec * m))
        assert float(np.max(np.abs(res))) <= 1e-12 * scale

    def test_orbit_reduction_matches_dense_action(self):
        # For orbit-symmetric data f = g[orbit_index] the reduced matrix must
        # reproduce the dense gain at the representative nodes.
        g = make_grid(rest_at(0.8, 1.0), bath_at(), n=8, extent_sigma=5.0)
        rng = np.random.default_rng(312)
        g_orb = rng.random(g.orbit_mult.size)
        f = g_orb[g.orbit_index]
        via_reduced = g.reduced @ g_orb
        via_dense = (dense_matrix(g) @ f)[g.rep_index]
        np.testing.assert_allclose(via_reduced, via_dense, rtol=1e-12)

    def test_odd_grid_with_shifted_bath_matches_all_pairs_kernel(self):
        # Odd n puts nodes on the symmetry planes and a shifted bath mean
        # moves the lattice off the origin; the rows read from the lattice
        # offset table must still be the all-pairs closed-form kernel.
        rest = rest_at(0.7, 2.0)
        bath = bath_at(m1=2.0, u1=(0.2, -0.1, 0.4))
        g = make_grid(rest, bath, n=9, extent_sigma=6.0)
        kmat = _kernel_safe(g.nodes[:, None, :], g.nodes[None, :, :], rest, bath)
        kmat *= g.cell_volume
        np.fill_diagonal(kmat, g.nu_vec - kmat.sum(axis=0))
        n_orb = g.orbit_mult.size
        want = np.stack([
            np.bincount(g.orbit_index, weights=kmat[rep], minlength=n_orb)
            for rep in g.rep_index
        ])
        scale = np.abs(want).max(axis=1, keepdims=True)
        assert float(np.max(np.abs(g.reduced - want) / scale)) <= 1e-12
        np.testing.assert_allclose(dense_matrix(g).sum(axis=0), g.nu_vec, rtol=1e-13)
        via_orbits = steady_state(g, tol=1e-12)
        via_dense = steady_state(g, f0=np.ones(g.n_nodes), tol=1e-12)
        dist = float(np.abs(via_orbits.f - via_dense.f).sum()) * g.cell_volume
        assert dist <= 1e-8

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            make_grid(rest_at(0.8, 1.0), bath_at(), n=3, extent_sigma=8.0)

    @pytest.mark.parametrize("extent", [-8.0, math.nan, 0.0, math.inf])
    def test_rejects_bad_extent(self, extent):
        # Refused before any node is placed, so no divide-by-zero or
        # invalid-value warning fires on the way.
        with pytest.raises(ValueError, match="extent_sigma"):
            make_grid(rest_at(0.8, 1.0), bath_at(), n=8, extent_sigma=extent)

    def test_traced_peak_of_the_default_grid(self):
        # One block of rows is 2 MB, the three reach-limited lattice tables
        # 0.83 MB each and the reduced matrix 5.3 MB: 12.1 MiB measured.
        peak = traced_peak(make_grid, rest_at(0.8, 1.0), bath_at(), n=32, extent_sigma=8.0)
        assert peak <= 13 * 2**20

    def test_rejects_tabulated_bath(self):
        ax = np.linspace(-2.0, 2.0, 5)
        bath = BathParams(
            m1=1.0, u1=np.zeros(3), theta1=1.0, lambda_=1.0,
            table=TabulatedDensity(axes=(ax, ax, ax), values=np.ones((5, 5, 5))),
        )
        with pytest.raises(ValueError):
            make_grid(rest_at(0.8, 1.0), bath, n=8, extent_sigma=8.0)


def sorted_triple_orbits(n):
    """Orbits by sorting each node's |offset| triple and a 2-D unique: the
    construction the one-key-per-node form replaced."""
    offsets2 = 2 * np.arange(n) - (n - 1)
    gx, gy, gz = np.meshgrid(offsets2, offsets2, offsets2, indexing="ij")
    triples = np.stack([np.abs(gx.ravel()), np.abs(gy.ravel()), np.abs(gz.ravel())], axis=1)
    triples.sort(axis=1)
    _, orbit_index, orbit_mult = np.unique(
        triples, axis=0, return_inverse=True, return_counts=True
    )
    orbit_index = orbit_index.reshape(-1)
    seen_order = np.argsort(orbit_index, kind="stable")
    first = np.searchsorted(orbit_index[seen_order], np.arange(orbit_mult.size))
    return orbit_index, orbit_mult, seen_order[first]


class TestOrbitDecomposition:
    @pytest.mark.parametrize("n", [*range(4, 14), 32])
    def test_matches_the_sorted_triple_construction(self, n):
        got = _orbit_decomposition(n)
        want = sorted_triple_orbits(n)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            np.testing.assert_array_equal(g, w)


class TestLatticeReach:
    REST, BATH = rest_at(0.7, 2.0), bath_at(m1=2.0, u1=(0.2, -0.1, 0.4))

    @pytest.mark.parametrize("n", [4, 5, 9, 16, 17, 32])
    def test_reach_limited_rows_equal_full_reach_rows(self, n):
        # make_grid's tables reach only the separations its rows read: every
        # orbit representative has indices below ceil(n/2) on each axis.
        h = 2.0 * 6.0 * self.BATH.sigma_th / n
        reach = (n + 1) // 2
        full = _Lattice(self.REST, self.BATH, n, h)
        near = _Lattice(self.REST, self.BATH, n, h, reach=reach)
        assert near.pref.shape == (n - 1 + reach,) * 3
        reps = _orbit_decomposition(n)[2]
        want, got = np.empty((2, 8, n**3))
        for lo in range(0, reps.size, 8):
            block = reps[lo : lo + 8]
            a = full.rows(block, want[: block.size])
            b = near.rows(block, got[: block.size])
            assert b.tobytes() == a.tobytes()

    def test_row_beyond_the_reach_is_refused(self):
        near = _Lattice(self.REST, self.BATH, 8, 0.5, reach=4)
        with pytest.raises(ValueError, match="reach"):
            near.rows([4], np.empty((1, 512)))

    def test_in_place_tables_equal_the_out_of_place_form(self):
        n, h, rest, bath = 9, 0.7, self.REST, self.BATH
        sq = np.arange(-(n - 1), n, dtype=float) ** 2
        r = h * np.sqrt(sq[:, None, None] + sq[None, :, None] + sq[None, None, :])
        inv_r = np.divide(1.0, r, out=np.zeros_like(r), where=r > 0.0)
        s2 = bath.theta1 / bath.m1
        scale = 1.0 / math.sqrt(2.0 * s2)
        pref = h**3 * inv_r / (
            4.0 * math.pi * bath.lambda_
            * rest.e**2 * rest.gamma_c**2
            * math.sqrt(2.0 * math.pi * s2)
        )
        lattice = _Lattice(rest, bath, n, h)
        assert lattice.inv_r.tobytes() == (scale * inv_r).tobytes()
        assert lattice.g_r.tobytes() == (scale * _stretch_offset(rest) * r).tobytes()
        assert lattice.pref.tobytes() == pref.tobytes()


class TestSteadyState:
    def test_elastic_steady_state_is_the_maxwellian(self):
        g = make_grid(rest_at(1.0, 1.0), bath_at(), n=12, extent_sigma=6.0)
        ss = steady_state(g, tol=1e-12)
        m = g.maxwellian()
        rel = np.abs(ss.f - m) / m
        # Detailed balance at e = 1, m1 = 1 makes the grid Maxwellian an
        # exact fixed point, so agreement is nodewise even at corner nodes
        # where the density is ~1e-25.
        assert float(rel.max()) <= 1e-10
        assert ss.theta == pytest.approx(1.0, rel=1e-3)
        np.testing.assert_allclose(ss.u, 0.0, atol=1e-12)

    def test_inelastic_steady_state_is_colder(self, grid24):
        ss = steady_state(grid24, tol=1e-11)
        # e = 0.8, m1 = 1: partial energy equilibration below theta1.
        assert 0.5 < ss.theta < 1.0
        assert np.all(ss.f >= 0.0)
        mass = float(ss.f.sum()) * grid24.cell_volume
        assert mass == pytest.approx(1.0, rel=1e-12)

    def test_reduced_and_dense_paths_agree(self):
        g = make_grid(rest_at(0.8, 1.0), bath_at(), n=12, extent_sigma=6.0)
        via_orbits = steady_state(g, tol=1e-12)
        via_dense = steady_state(g, f0=np.ones(g.n_nodes), tol=1e-12)
        dist = float(np.abs(via_orbits.f - via_dense.f).sum()) * g.cell_volume
        assert dist <= 1e-8

    def test_unique_limit_from_asymmetric_initial_data(self, grid12):
        rng = np.random.default_rng(306)
        f0_a = rng.random(grid12.n_nodes)
        f0_b = np.exp(-np.linalg.norm(grid12.nodes - 1.0, axis=1))
        ss_a = steady_state(grid12, f0=f0_a, tol=1e-12)
        ss_b = steady_state(grid12, f0=f0_b, tol=1e-12)
        dist = float(np.abs(ss_a.f - ss_b.f).sum()) * grid12.cell_volume
        assert dist <= 1e-8

    def test_explicit_f0_needs_dense_matrix(self):
        g = make_grid(rest_at(0.8, 1.0), bath_at(), n=20, extent_sigma=6.0)
        with pytest.raises(ValueError):
            steady_state(g, f0=np.ones(g.n_nodes))
        # The orbit path still works.
        ss = steady_state(g, tol=1e-10)
        assert ss.theta > 0.0

    def test_rejects_bad_f0(self, grid12):
        with pytest.raises(ValueError):
            steady_state(grid12, f0=-np.ones(grid12.n_nodes))
        with pytest.raises(ValueError):
            steady_state(grid12, f0=np.zeros(grid12.n_nodes))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_f0(self, grid12, bad):
        # Refused before the first iteration, so no overflow or invalid
        # value warning fires on the way.
        f0 = np.ones(grid12.n_nodes)
        f0[5] = bad
        with pytest.raises(ValueError, match="f0 must be nonnegative node values"):
            steady_state(grid12, f0=f0)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
    def test_rejects_bad_tol(self, grid12, tol):
        # A tol that no residual can meet would end in a NumericalFault.
        with pytest.raises(ValueError, match="tol"):
            steady_state(grid12, tol=tol)

    def test_no_convergence_is_a_numerical_fault(self, grid12, monkeypatch):
        monkeypatch.setattr(carleman, "_MAX_ITER", 2)
        with pytest.raises(NumericalFault, match=r"^no convergence after 2 iterations \(residual "):
            steady_state(grid12, tol=1e-16)


class TestLinearClosedForm:
    """The linear steady state in closed form: the gas Maxwellian at u1 with
    temperature theta_lin = kappa theta1 / (m1 (1 - kappa)) (Martin &
    Piasecki, Europhys. Lett. 46, 1999), from ``linear_steady``.  Gas
    particles have unit mass, so its variance per axis is theta_lin."""

    @pytest.mark.parametrize("m1", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("e", [0.7, 0.9])
    def test_grid_steady_state_is_the_closed_form(self, e, m1):
        bath = bath_at(theta1=1.3, m1=m1, u1=(0.3, -0.2, 0.5))
        rest = rest_at(e, m1)
        g = make_grid(rest, bath, n=32, extent_sigma=8.0)
        ss = steady_state(g)
        theta_lin, l1 = closed_form_gap(g, ss)
        assert abs(ss.theta - theta_lin) <= 1e-6 and l1 <= 1e-6

    @pytest.mark.parametrize("m1", [0.5, 2.0])
    def test_gap_against_the_bath_density_form(self, m1):
        # A density far from the closed form: an L1 distance of order 1.
        bath = bath_at(theta1=1.3, m1=m1, u1=(0.3, -0.2, 0.5))
        g = make_grid(rest_at(0.8, m1), bath, n=12, extent_sigma=6.0)
        f = np.random.default_rng(4).random(g.n_nodes)
        f /= f.sum() * g.cell_volume
        theta_lin, l1 = closed_form_gap(g, SteadyState(f, 1.0, np.zeros(3), 1, 0.0))
        gas = bath_at(theta1=theta_lin, m1=1.0, u1=bath.u1)
        want = float(np.abs(f - bath_density(gas, g.nodes)).sum()) * g.cell_volume
        assert l1 > 0.5
        assert l1 == pytest.approx(want, rel=1e-12)

    def test_gap_is_the_inline_product_on_the_default_grid(self):
        # The closed form as a product of 1-D Gaussian factors, bit for bit.
        rest, bath = rest_at(0.8, 1.0), bath_at()
        g = make_grid(rest, bath, n=32, extent_sigma=8.0)
        ss = steady_state(g)
        theta_lin = linear_steady(rest, bath)
        gauss = [np.exp(-0.5 * (ax - c) ** 2 / theta_lin) / math.sqrt(2.0 * math.pi * theta_lin)
                 for ax, c in zip(g.axes, bath.u1)]
        exact = np.multiply.outer(np.multiply.outer(*gauss[:2]), gauss[2]).ravel()
        l1 = float(np.abs(ss.f - exact).sum() * g.cell_volume)
        assert closed_form_gap(g, ss) == (theta_lin, l1)


class TestGridCsv:
    def test_round_trip_through_table_loader(self, grid12, tmp_path):
        ss = steady_state(grid12, tol=1e-11)
        path = tmp_path / "steady.csv"
        write_grid_csv(path, grid12, ss.f)
        table = load_table(path)
        np.testing.assert_allclose(table.axes[0], grid12.axes[0], rtol=1e-15)
        got = table.values.ravel()
        np.testing.assert_allclose(got, ss.f, rtol=1e-12, atol=1e-300)

    def test_rows_are_node_by_node_reprs(self, tmp_path):
        # Reference: one row per node, each value the repr of a Python float.
        grid = make_grid(RestitutionParams(epsilon=1.0, e=0.7, m1=2.0),
                         bath_at(m1=2.0, u1=(0.2, -0.1, 0.4)), n=5, extent_sigma=4.0)
        f = np.random.default_rng(3).random(grid.n_nodes) * 1e-3
        path = tmp_path / "grid.csv"
        write_grid_csv(path, grid, f)
        want = "vx,vy,vz,density\n" + "".join(
            ",".join(repr(float(x)) for x in (*node, value)) + "\n"
            for node, value in zip(grid.nodes, f)
        )
        assert path.read_text(encoding="utf-8") == want

