"""Collision-map oracles: frozen worked examples, conservation laws, and
closed-form sphere averages checked against quadrature."""
import math

import numpy as np
import pytest

from granular_bath.kinematics import (
    RestitutionParams,
    _sq_norm,
    _uniform_sphere,
    collide_l_n,
    collide_l_sigma,
    collide_q,
    energy_split_check,
    sphere_average_l,
    sphere_average_q,
    sphere_quadrature,
)

RNG = np.random.default_rng(20240817)

PARAM_SETS = [
    RestitutionParams(epsilon=0.5, e=0.5, m1=1.0),
    RestitutionParams(epsilon=0.8, e=0.8, m1=1.0),
    RestitutionParams(epsilon=1.0, e=1.0, m1=1.0),
    RestitutionParams(epsilon=0.9, e=0.7, m1=0.5),
    RestitutionParams(epsilon=0.7, e=0.9, m1=2.0),
]


def random_pairs(n, scale=1.0, rng=RNG):
    v = rng.normal(size=(n, 3)) * scale
    w = rng.normal(size=(n, 3)) * scale
    return v, w


def random_units(n, rng=RNG):
    x = rng.normal(size=(n, 3))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestDerivedParameters:
    def test_worked_example(self):
        # epsilon = 0.8 -> zeta = 0.9; m1 = 1 -> alpha = 1/2; e = 0.8 ->
        # beta = 0.1, kappa = kappa_bar = 0.45, gamma_c = gamma_bar = 0.5625.
        p = RestitutionParams(epsilon=0.8, e=0.8, m1=1.0)
        assert p.zeta == pytest.approx(0.9, abs=1e-15)
        assert p.alpha == pytest.approx(0.5, abs=1e-15)
        assert p.beta == pytest.approx(0.1, abs=1e-15)
        assert p.kappa == pytest.approx(0.45, abs=1e-15)
        assert p.kappa_bar == pytest.approx(0.45, abs=1e-15)
        assert p.gamma_c == pytest.approx(0.5625, abs=1e-15)
        assert p.gamma_bar == pytest.approx(0.5625, abs=1e-15)

    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_internal_consistency(self, params):
        # Two identities the closed-form kernel relies on:
        # (1 - 2 beta) = e, hence e * gamma_c = kappa.
        assert params.e * params.gamma_c == pytest.approx(params.kappa, rel=1e-14)
        assert params.e * params.gamma_bar == pytest.approx(params.kappa_bar, rel=1e-14)
        # The bath map conserves v + m1 w: kappa_bar = kappa / m1.
        assert params.kappa_bar * params.m1 == pytest.approx(params.kappa, rel=1e-14)
        # 1 - (1 - 2 gamma_bar) / (2 gamma_c) = 1 / (2 kappa).
        g = (1.0 - 2.0 * params.gamma_bar) / (2.0 * params.gamma_c)
        assert 1.0 - g == pytest.approx(1.0 / (2.0 * params.kappa), rel=1e-13)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0, "e": 0.8, "m1": 1.0},
            {"epsilon": 1.2, "e": 0.8, "m1": 1.0},
            {"epsilon": 0.8, "e": 0.0, "m1": 1.0},
            {"epsilon": 0.8, "e": -0.1, "m1": 1.0},
            {"epsilon": 0.8, "e": 1.5, "m1": 1.0},
            {"epsilon": 0.8, "e": 0.8, "m1": 0.0},
            {"epsilon": 0.8, "e": 0.8, "m1": -2.0},
            {"epsilon": math.nan, "e": 0.8, "m1": 1.0},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            RestitutionParams(**kwargs)


class TestPairCollision:
    def test_worked_example(self):
        # v = (1,0,0), w = (-1,0,0), sigma = (0,1,0), epsilon = 0.5:
        # zeta = 3/4, q = (2,0,0), |q| sigma - q = (-2,2,0), so
        # v' = (1,0,0) + (3/8)(-2,2,0) = (1/4, 3/4, 0) and w' = -v'.
        p = RestitutionParams(epsilon=0.5, e=1.0, m1=1.0)
        out = collide_q([1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], p)
        np.testing.assert_allclose(out.v, [0.25, 0.75, 0.0], atol=1e-15)
        np.testing.assert_allclose(out.w, [-0.25, -0.75, 0.0], atol=1e-15)

    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_momentum_exact(self, params):
        v, w = random_pairs(500)
        sig = random_units(500)
        out = collide_q(v, w, sig, params)
        np.testing.assert_allclose(out.v + out.w, v + w, atol=1e-13)

    def test_elastic_energy_exact(self):
        p = RestitutionParams(epsilon=1.0, e=1.0, m1=1.0)
        v, w = random_pairs(500)
        sig = random_units(500)
        out = collide_q(v, w, sig, p)
        before = np.sum(v**2 + w**2, axis=1)
        after = np.sum(out.v**2 + out.w**2, axis=1)
        np.testing.assert_allclose(after, before, rtol=1e-13)

    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_energy_change_matches_closed_form(self, params):
        # Per collision: |v'|^2 + |w'|^2 - |v|^2 - |w|^2
        #   = zeta (1 - zeta) (|q| q.sigma - |q|^2).
        v, w = random_pairs(200)
        sig = random_units(200)
        out = collide_q(v, w, sig, params)
        q = v - w
        qn = np.linalg.norm(q, axis=1)
        got = np.sum(out.v**2 + out.w**2 - v**2 - w**2, axis=1)
        want = params.zeta * (1 - params.zeta) * (qn * np.sum(q * sig, axis=1) - qn**2)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_coincident_velocities_are_fixed(self):
        p = RestitutionParams(epsilon=0.5, e=1.0, m1=1.0)
        v = np.array([0.3, -0.2, 1.0])
        out = collide_q(v, v, [0, 0, 1.0], p)
        np.testing.assert_allclose(out.v, v, atol=1e-15)
        np.testing.assert_allclose(out.w, v, atol=1e-15)

    def test_rejects_non_unit_sigma(self):
        p = RestitutionParams(epsilon=0.5, e=1.0, m1=1.0)
        with pytest.raises(ValueError):
            collide_q([1.0, 0, 0], [0, 0, 0], [0, 2.0, 0], p)


class TestBathCollision:
    def test_worked_example_sigma(self):
        # alpha = 1/2 (m1 = 1), beta = 1/4 (e = 1/2) -> kappa = 3/8.
        # v = (1,0,0), w = 0, sigma = (-1,0,0): q - |q| sigma = (2,0,0),
        # v* = v - (3/8)(2,0,0) = (1/4,0,0); w* = (3/8)(2,0,0) = (3/4,0,0).
        p = RestitutionParams(epsilon=1.0, e=0.5, m1=1.0)
        out = collide_l_sigma([1.0, 0, 0], [0.0, 0, 0], [-1.0, 0, 0], p)
        np.testing.assert_allclose(out.v, [0.25, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(out.w, [0.75, 0.0, 0.0], atol=1e-15)

    def test_worked_example_n(self):
        # Head-on elastic equal-mass impact swaps the velocities.
        p = RestitutionParams(epsilon=1.0, e=1.0, m1=1.0)
        out = collide_l_n([2.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0], p)
        np.testing.assert_allclose(out.v, [0.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(out.w, [2.0, 0.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_momentum_exact_both_forms(self, params):
        v, w = random_pairs(400)
        sig = random_units(400)
        out = collide_l_sigma(v, w, sig, params)
        np.testing.assert_allclose(
            out.v + params.m1 * out.w, v + params.m1 * w, atol=1e-12
        )
        out = collide_l_n(v, w, sig, params)
        np.testing.assert_allclose(
            out.v + params.m1 * out.w, v + params.m1 * w, atol=1e-12
        )

    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_restitution_law(self, params):
        # Impact-direction contraction: (v* - w*) . n = -e (v - w) . n.
        v, w = random_pairs(400)
        n = random_units(400)
        out = collide_l_n(v, w, n, params)
        got = np.sum((out.v - out.w) * n, axis=1)
        want = -params.e * np.sum((v - w) * n, axis=1)
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-13)

    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_energy_split(self, params):
        v, w = random_pairs(10_000)
        sig = random_units(10_000)
        out = collide_l_sigma(v, w, sig, params)
        ell, residual = energy_split_check(v, w, out.v, out.w, params)
        assert float(np.max(residual)) <= 1e-12
        assert np.all(ell >= params.e - 1e-12)
        assert np.all(ell <= 1.0 + 1e-12)

    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_energy_split_closed_form(self, params):
        # ell^2 = beta^2 + (1-beta)^2 + 2 beta (1-beta) (qhat . sigma).
        v, w = random_pairs(300)
        sig = random_units(300)
        out = collide_l_sigma(v, w, sig, params)
        ell, _ = energy_split_check(v, w, out.v, out.w, params)
        q = v - w
        mu = np.sum(q * sig, axis=1) / np.linalg.norm(q, axis=1)
        b = params.beta
        want = b**2 + (1 - b) ** 2 + 2 * b * (1 - b) * mu
        np.testing.assert_allclose(ell**2, want, rtol=1e-12, atol=1e-13)

    def test_energy_split_rejects_coincident(self):
        p = PARAM_SETS[0]
        v = np.array([1.0, 0, 0])
        with pytest.raises(ValueError):
            energy_split_check(v, v, v, v, p)

    def test_coincident_velocities_are_fixed(self):
        p = RestitutionParams(epsilon=1.0, e=0.5, m1=2.0)
        v = np.array([0.4, 0.1, -0.7])
        out = collide_l_sigma(v, v, [0, 1.0, 0], p)
        np.testing.assert_allclose(out.v, v, atol=1e-15)
        np.testing.assert_allclose(out.w, v, atol=1e-15)


class TestSphereQuadrature:
    def test_weights_carry_surface_measure(self):
        sigma, wts = sphere_quadrature(32)
        assert wts.sum() == pytest.approx(4.0 * math.pi, rel=1e-12)
        np.testing.assert_allclose(np.linalg.norm(sigma, axis=1), 1.0, rtol=1e-12)
        # Degree-2 exactness: integral of sigma_i sigma_j = (4 pi / 3) delta_ij.
        cov = (sigma.T * wts) @ sigma
        np.testing.assert_allclose(cov, 4.0 * math.pi / 3.0 * np.eye(3), atol=1e-11)

    def test_rejects_tiny_order(self):
        with pytest.raises(ValueError):
            sphere_quadrature(1)


def marsaglia_rows(seed, k):
    """The construction _uniform_sphere states, one scalar pair at a time."""
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < k:
        need = k - len(rows)
        x = rng.uniform(-1.0, 1.0, (2, int(1.3 * need) + 16))
        kept = [(x0, x1) for x0, x1 in x.T if x0 * x0 + x1 * x1 < 1.0][:need]
        for x0, x1 in kept:
            s = x0 * x0 + x1 * x1
            r = 2.0 * math.sqrt(1.0 - s)
            rows.append((x0 * r, x1 * r, 1.0 - 2.0 * s))
    return np.array(rows, dtype=float).reshape(k, 3)


def first_batch_falls_short(seed, k):
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, (2, int(1.3 * k) + 16))
    return np.count_nonzero(x[0] * x[0] + x[1] * x[1] < 1.0) < k


class TestUniformSphere:
    """Marsaglia's sampler: unit rows, the uniform law on the sphere, and
    exactly k rows from a stream that a seed fixes."""

    K = 200_000

    @pytest.fixture(scope="class")
    def sigma(self):
        return _uniform_sphere(np.random.default_rng(2718), self.K)

    def test_rows_are_unit(self, sigma):
        assert np.max(np.abs(np.sqrt(_sq_norm(sigma)) - 1.0)) <= 1e-12

    def test_mean_and_second_moments(self, sigma):
        # E sigma = 0 and E sigma_i sigma_j = delta_ij / 3, each within 4 SE.
        se = sigma.std(axis=0, ddof=1) / math.sqrt(self.K)
        assert np.all(np.abs(sigma.mean(axis=0)) <= 4.0 * se)
        for i in range(3):
            for j in range(i, 3):
                prod = sigma[:, i] * sigma[:, j]
                want = 1.0 / 3.0 if i == j else 0.0
                se = prod.std(ddof=1) / math.sqrt(self.K)
                assert abs(prod.mean() - want) <= 4.0 * se, (i, j)

    def test_sigma_z_is_flat(self, sigma):
        # Archimedes: sigma_z is uniform on [-1, 1], so each of 10 bins
        # holds K / 10 rows within 4 binomial SE.
        counts, _ = np.histogram(sigma[:, 2], bins=10, range=(-1.0, 1.0))
        se = math.sqrt(self.K * 0.1 * 0.9)
        assert np.all(np.abs(counts - self.K / 10) <= 4.0 * se)

    @pytest.mark.parametrize("seed, k", [(5, 0), (5, 1), (60, 200)])
    def test_exactly_k_rows(self, seed, k):
        if k == 200:
            assert first_batch_falls_short(seed, k)  # this case tops up
        got = _uniform_sphere(np.random.default_rng(seed), k)
        assert got.shape == (k, 3) and got.dtype == np.float64

    def test_same_seed_same_bytes(self):
        a = _uniform_sphere(np.random.default_rng(11), 4321)
        b = _uniform_sphere(np.random.default_rng(11), 4321)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed, k", [(31, 777), (60, 200)])
    def test_bitwise_equal_to_the_stated_construction(self, seed, k):
        got = _uniform_sphere(np.random.default_rng(seed), k)
        assert got.tobytes() == marsaglia_rows(seed, k).tobytes()


class TestSphereAverages:
    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_pair_energy_identity(self, params):
        # Averaged over sigma, the pair map changes psi = |.|^2 by
        # -(1 - epsilon^2)/4 |q|^2 (momentum transfer averages out).
        for _ in range(20):
            v, w = random_pairs(1, scale=1.5)
            v, w = v[0], w[0]
            got = sphere_average_q(lambda x: np.sum(x * x, axis=-1), v, w, params)
            want = -(1 - params.epsilon**2) / 4.0 * float(np.sum((v - w) ** 2))
            scale = max(abs(want), 1e-12)
            assert abs(got - want) <= 1e-8 * max(scale, np.sum(v * v) + np.sum(w * w))

    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_bath_energy_identity_both_centerings(self, params):
        # Averaged over sigma, psi = |. - c|^2 changes by
        #   -2 kappa (1-kappa) |q|^2 - 2 kappa <q, w - c>
        # = 2 alpha^2 (1-beta)^2 |q|^2 - 2 alpha (1-beta) <q, v - c>.
        kap, alp, bet = params.kappa, params.alpha, params.beta
        c = np.array([0.3, -0.5, 0.2])
        for _ in range(20):
            v, w = random_pairs(1, scale=1.5)
            v, w = v[0], w[0]
            q = v - w
            q2 = float(np.sum(q * q))
            got = sphere_average_l(lambda x: np.sum((x - c) ** 2, axis=-1), v, w, params)
            want = -2 * kap * (1 - kap) * q2 - 2 * kap * float(np.dot(q, w - c))
            alt = 2 * alp**2 * (1 - bet) ** 2 * q2 - 2 * alp * (1 - bet) * float(
                np.dot(q, v - c)
            )
            assert want == pytest.approx(alt, rel=1e-11, abs=1e-12)
            scale = max(abs(want), q2, 1.0)
            assert abs(got - want) <= 1e-8 * scale

    def test_form_agreement_is_enforced(self):
        # Every call cross-checks the sigma- and n-parametrizations; a
        # crafted non-rotation-invariant psi still passes because the two
        # parametrizations represent the same scattering average.
        params = PARAM_SETS[3]
        v = np.array([1.0, 0.2, -0.3])
        w = np.array([-0.5, 0.1, 0.8])
        val = sphere_average_l(lambda x: x[..., 0] ** 3 + np.sum(x * x, axis=-1), v, w, params)
        assert math.isfinite(val)


def wide_rows(shape, rng):
    """Rows of (..., 3) with magnitudes from 1e-300 to 1e150."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-300.0, 150.0, size=shape)


def special_rows():
    """Rows holding 0, +-inf and NaN in every component position."""
    rows = [[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0]]
    for value in (np.inf, -np.inf, np.nan):
        for i in range(3):
            row = [1.5, -0.25, 3.0]
            row[i] = value
            rows.append(row)
    rows.append([np.inf, -np.inf, np.nan])
    return np.array(rows)


def bitwise_cases():
    """(..., 3) inputs of every shape the helpers accept."""
    rng = np.random.default_rng(7)
    specials = special_rows()
    return [
        np.empty((0, 3)),
        rng.normal(size=3),
        rng.normal(size=(2, 5, 3)),
        rng.normal(size=(1000, 3)),
        wide_rows((400, 3), rng),
        specials,
        np.concatenate([wide_rows((50, 3), rng), specials]),
    ]


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def parent_collide_q(v, w, sigma, params):
    """The broadcast form of :func:`collide_q`, the reference it must match."""
    q = v - w
    qn = np.linalg.norm(q, axis=-1, keepdims=True)
    delta = 0.5 * params.zeta * (qn * sigma - q)
    return v + delta, w - delta


def parent_collide_l_sigma(v, w, sigma, params):
    """The broadcast form of :func:`collide_l_sigma`."""
    q = v - w
    qn = np.linalg.norm(q, axis=-1, keepdims=True)
    d = q - qn * sigma
    v_post = v - params.kappa * d
    w_post = w + (1.0 - params.alpha) * (1.0 - params.beta) * d
    return v_post, w_post


COLLISION_FORMS = ((collide_q, parent_collide_q), (collide_l_sigma, parent_collide_l_sigma))


class TestSqNormBitwise:
    """The per-component helper against the numpy forms it replaces."""

    @pytest.mark.parametrize("x", bitwise_cases(), ids=lambda x: str(x.shape))
    def test_sq_norm_matches_sum_and_norm(self, x):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            got = _sq_norm(x)
            assert_bitwise(got, np.sum(x**2, axis=-1))
            assert_bitwise(np.sqrt(got), np.linalg.norm(x, axis=-1))

    @pytest.mark.parametrize("x", bitwise_cases(), ids=lambda x: str(x.shape))
    def test_sq_norm_about_a_centre(self, x):
        rng = np.random.default_rng(11)
        centres = [np.array([0.7, -1e-200, 3e120]), wide_rows(x.shape, rng)]
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for c in centres:
                assert_bitwise(_sq_norm(x, c), np.sum((x - c) ** 2, axis=-1))
                assert_bitwise(np.sqrt(_sq_norm(x, c)), np.linalg.norm(x - c, axis=-1))

    @pytest.mark.parametrize("v", bitwise_cases(), ids=lambda x: str(x.shape))
    @pytest.mark.parametrize("params", PARAM_SETS)
    @pytest.mark.parametrize("new, old", COLLISION_FORMS, ids=("q", "l_sigma"))
    def test_collisions_match_the_broadcast_forms(self, v, params, new, old):
        rng = np.random.default_rng(13)
        w = rng.normal(size=v.shape)
        sigma = rng.normal(size=v.shape)
        sigma /= np.linalg.norm(sigma, axis=-1, keepdims=True)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            got = new(v, w, sigma, params)
            want = old(v, w, sigma, params)
        assert_bitwise(got.v, want[0])
        assert_bitwise(got.w, want[1])

    @pytest.mark.parametrize("new, old", COLLISION_FORMS, ids=("q", "l_sigma"))
    def test_collisions_broadcast_a_single_partner(self, new, old):
        rng = np.random.default_rng(17)
        v = rng.normal(size=(6, 3))
        w = rng.normal(size=3)
        sigma = random_units(6, rng=rng)
        got = new(v, w, sigma, PARAM_SETS[3])
        want = old(v, w, sigma, PARAM_SETS[3])
        assert_bitwise(got.v, want[0])
        assert_bitwise(got.w, want[1])
