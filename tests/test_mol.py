"""Mixture-of-logistics: closed forms vs Monte-Carlo, quadrature and
finite-difference oracles."""

import numpy as np
import pytest
from scipy.integrate import quad

from lvrc import mol
from lvrc.errors import NumericError

from conftest import fd_rel_error, reference_sample

PI2_3 = np.pi**2 / 3.0


class FixedUniformRng:
    """Stand-in rng whose every uniform draw is a constant."""

    def __init__(self, value):
        self.value = value

    def random(self, shape=None):
        return np.full(shape, self.value) if shape is not None else self.value


def random_raw(rng, k=None):
    k = int(rng.integers(1, 6)) if k is None else k
    # one flat row: logits, locations, log scales
    return np.concatenate([rng.normal(0, 1, k), rng.normal(0, 1, k), rng.uniform(-2.5, 1.2, k)])


class TestConstrain:
    def test_equal_logits_uniform_weights(self):
        raw = np.concatenate([np.full(8, 0.7), np.zeros(8), np.zeros(8)])
        p = mol.constrain(raw)
        assert np.allclose(p.gammas, 1.0 / 8.0, atol=1e-15)

    def test_zero_log_scale_gives_unit_scale(self):
        p = mol.constrain(np.zeros(3))
        assert p.scales[0] == 1.0

    def test_scale_clamped_below(self):
        p = mol.constrain(np.array([0.0, 0.0, -20.0]))
        assert p.scales[0] == mol.S_MIN

    def test_width_not_three_k_rejected(self):
        with pytest.raises(ValueError):
            mol.constrain(np.zeros((2, 4)))


class TestLogProb:
    def test_mode_density_quarter_scale(self):
        p = mol.MoLParams(np.ones(1), np.zeros(1), np.array([0.25]))
        assert mol.log_prob(0.0, p) == pytest.approx(np.log(1.0 / (4 * 0.25)), abs=1e-12)

    def test_mode_density_unit_scale(self):
        p = mol.MoLParams(np.ones(1), np.zeros(1), np.ones(1))
        assert mol.log_prob(0.0, p) == pytest.approx(-1.386294361, abs=1e-8)

    def test_mixture_of_identical_components_collapses(self):
        single = mol.MoLParams(np.ones(1), np.array([0.3]), np.array([0.7]))
        double = mol.MoLParams(np.array([0.5, 0.5]), np.array([0.3, 0.3]), np.array([0.7, 0.7]))
        x = np.linspace(-3, 3, 11)
        assert np.allclose(mol.log_prob(x, double), mol.log_prob(x, single), rtol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        raw = random_raw(rng, k=5)
        p = mol.constrain(raw)
        perm = np.array([3, 0, 4, 1, 2])
        q = mol.MoLParams(p.gammas[perm], p.mus[perm], p.scales[perm])
        x = rng.normal(0, 2, 7)
        assert np.allclose(mol.log_prob(x, p), mol.log_prob(x, q), rtol=1e-12)

    def test_density_normalizes(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            p = mol.constrain(random_raw(rng))
            lo = float(np.min(p.mus) - 60 * np.max(p.scales))
            hi = float(np.max(p.mus) + 60 * np.max(p.scales))
            total, _ = quad(lambda t: np.exp(mol.log_prob(t, p)), lo, hi, limit=400)
            assert total == pytest.approx(1.0, abs=1e-6)


class TestSample:
    def test_half_uniform_returns_location(self):
        # one component: weight logit 0, location 0.42, log scale 0
        x = mol.sample(np.array([0.0, 0.42, 0.0]), mol.sample_noise(FixedUniformRng(0.5), 1, 1)[0])
        assert x == pytest.approx(0.42, abs=0.0)

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_flat_draws_equal_constrained_draws(self, k):
        rng = np.random.default_rng(30 + k)
        flat = np.concatenate([rng.normal(0, 2, (6, k)), rng.normal(0, 1, (6, k)),
                               rng.uniform(-12.0, 4.0, (6, k))], axis=-1)
        expected = reference_sample(mol.constrain(flat), np.random.default_rng(5))
        noise = mol.sample_noise(np.random.default_rng(5), 1, 6)[0]
        assert np.array_equal(mol.sample(flat, noise), expected)

    def test_non_finite_rejected(self):
        flat = np.zeros((2, 6))
        flat[1, 4] = np.inf
        with pytest.raises(NumericError):
            mol.sample(flat, np.zeros((2, 2)))

    def test_degenerate_scale_returns_location(self):
        flat = np.array([0.0, 0.3, np.log(mol.S_MIN)])
        draws = mol.sample(flat, mol.sample_noise(np.random.default_rng(1), 1, 1000)[0])
        assert np.max(np.abs(draws - 0.3)) < 5e-3

    def test_logistic_variance_monte_carlo(self):
        noise = mol.sample_noise(np.random.default_rng(42), 1, 10**6)[0]
        draws = mol.sample(np.zeros(3), noise)  # location 0, scale 1
        assert draws.var() == pytest.approx(PI2_3, rel=0.01)

    def test_fixed_seed_reproducible(self):
        raw = random_raw(np.random.default_rng(2))
        a = mol.sample(raw, mol.sample_noise(np.random.default_rng(123), 1, 64)[0])
        b = mol.sample(raw, mol.sample_noise(np.random.default_rng(123), 1, 64)[0])
        assert np.array_equal(a, b)

    def test_noise_is_the_call_by_call_stream(self):
        # drawing every call's uniforms up front changes no draw
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        noise = mol.sample_noise(a, 3, 4)
        for c in range(3):
            assert np.array_equal(noise[c, 0], b.random(4))
            u = np.clip(b.random(4), mol.UNIFORM_EPS, 1.0 - mol.UNIFORM_EPS)
            assert np.array_equal(noise[c, 1], np.log(u) - np.log1p(-u))
        assert a.random() == b.random()


class TestMoments:
    def test_mean_symmetry(self):
        p = mol.MoLParams(np.array([0.5, 0.5]), np.array([-1.0, 1.0]), np.full(2, 0.1))
        assert mol.mixture_moments(p)[0] == pytest.approx(0.0, abs=1e-15)

    def test_mean_single(self):
        p = mol.MoLParams(np.ones(1), np.array([0.37]), np.ones(1))
        assert mol.mixture_moments(p)[0] == 0.37

    def test_mean_weighted(self):
        p = mol.MoLParams(np.array([0.25, 0.75]), np.array([0.0, 1.0]), np.full(2, 0.1))
        assert mol.mixture_moments(p)[0] == pytest.approx(0.75, abs=1e-15)

    def test_variance_single_component(self):
        p = mol.MoLParams(np.ones(1), np.zeros(1), np.ones(1))
        assert mol.mixture_moments(p)[1] == pytest.approx(3.289868, abs=1e-6)

    def test_variance_bimodal_spread(self):
        p = mol.MoLParams(
            np.array([0.5, 0.5]), np.array([-1.0, 1.0]), np.full(2, mol.S_MIN)
        )
        assert mol.mixture_moments(p)[1] == pytest.approx(1.0, abs=1e-6)

    def test_variance_matches_monte_carlo(self):
        # decode's draws from a flat row against the moments of its constrained form
        rng = np.random.default_rng(10)
        for _ in range(5):
            raw = np.concatenate([rng.normal(0, 1, 4), rng.uniform(-1.5, 1.5, 4),
                                  rng.uniform(-2.3, 0.0, 4)])
            draws = mol.sample(raw, mol.sample_noise(np.random.default_rng(7), 1, 10**6)[0])
            var = mol.mixture_moments(mol.constrain(raw))[1]
            assert draws.var() == pytest.approx(float(var), rel=0.01)

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            var = mol.mixture_moments(mol.constrain(random_raw(rng)))[1]
            assert var >= -1e-12


class TestRegularizers:
    """`reg_term` over a batch's mixture variances; J_var is its mean."""

    def test_jvar_linear_single(self):
        var = mol.mixture_moments(mol.MoLParams(np.ones(1), np.zeros(1), np.ones(1)))[1]
        assert mol.reg_term(var, 0.0, "linear") == pytest.approx(PI2_3, abs=1e-12)

    def test_jvar_linear_mean_of_two(self):
        p = mol.MoLParams(np.ones((2, 1)), np.zeros((2, 1)), np.array([[1.0], [2.0]]))
        jvar = np.mean(mol.reg_term(mol.mixture_moments(p)[1], 0.0, "linear"))
        assert jvar == pytest.approx((PI2_3 + 4.0 * PI2_3) / 2.0, abs=1e-12)

    def test_jvar_linear_scale_law(self):
        p = mol.MoLParams(np.ones((2, 1)), np.zeros((2, 1)), np.array([[0.5], [1.0]]))
        small, large = mol.reg_term(mol.mixture_moments(p)[1], 0.0, "linear")
        assert large == pytest.approx(4.0 * small, rel=1e-12)

    def test_jvar_log_floor(self):
        p = mol.MoLParams(np.ones((3, 1)), np.zeros((3, 1)), np.zeros((3, 1)))
        jvar = np.mean(mol.reg_term(mol.mixture_moments(p)[1], 1e-4, "log"))
        assert jvar == pytest.approx(np.log(1e-4), abs=1e-12)

    def test_jvar_log_zero_crossing(self):
        a = 1e-4
        s = (1.0 - a) * np.sqrt(3.0) / np.pi
        var = mol.mixture_moments(mol.MoLParams(np.ones(1), np.zeros(1), np.array([s])))[1]
        assert mol.reg_term(var, a, "log") == pytest.approx(0.0, abs=1e-12)

    def test_jvar_log_shift_under_scaling(self):
        rng = np.random.default_rng(3)
        gam = rng.dirichlet(np.ones(4), size=6)
        mus = rng.uniform(-1, 1, (6, 4))
        s = rng.uniform(0.3, 1.0, (6, 4))
        c = 10.0
        base, scaled = (np.mean(mol.reg_term(mol.mixture_moments(p)[1], 1e-4, "log"))
                        for p in (mol.MoLParams(gam, mus, s),
                                  mol.MoLParams(gam, c * mus, c * s)))
        assert scaled - base == pytest.approx(np.log(c), abs=1e-3)


class TestBaseline:
    """The train-mode density is -`head_terms(...).nll`; the infer-mode one is
    the plain mixture's `log_prob`, whatever gamma0."""

    def test_gamma0_zero_bit_for_bit(self):
        rng = np.random.default_rng(21)
        raw = random_raw(rng, k=4)
        x = rng.normal(0, 1, 9)
        plain = mol.log_prob(x, mol.constrain(raw))
        train = -mol.head_terms(x, np.tile(raw, (9, 1)), 1, gamma0=0.0, grads=False).nll
        assert np.array_equal(train, plain)

    def test_infer_density_normalizes(self):
        rng = np.random.default_rng(22)
        p = mol.constrain(random_raw(rng, k=3))
        total, _ = quad(lambda t: np.exp(float(mol.log_prob(t, p))), -50.0, 50.0, limit=500)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_train_mode_lower_bounded_by_baseline(self):
        raw = np.concatenate([np.zeros(2), np.zeros(2), np.full(2, -2.0)])
        gamma0, x = 0.5, 35.0  # far in the tail of the learned components
        lp = -mol.head_terms(np.array([x]), raw[None], 1, gamma0=gamma0, grads=False).nll[0]
        z0 = (x - mol.BASELINE_MU0) / mol.BASELINE_S0
        baseline_term = (np.log(gamma0) - z0 - 2 * np.log1p(np.exp(-z0))
                         - np.log(mol.BASELINE_S0))
        assert lp >= baseline_term

    def test_train_mode_mixes_in_baseline_mass(self):
        rng = np.random.default_rng(23)
        row = random_raw(rng, k=3)[None]
        total, _ = quad(
            lambda t: np.exp(-mol.head_terms(np.array([t]), row, 1, gamma0=0.3,
                                             grads=False).nll[0]),
            -400.0, 400.0, limit=800,
        )
        assert total == pytest.approx(1.0, abs=1e-5)


class TestGradients:
    """Finite differences on `head_terms`, the function teacher forcing runs."""

    @staticmethod
    def _objective(x, raw, nu, regularizer, reg_bands, gamma0):
        """sum(nll) + nu * sum(reg) and its analytic gradient, flattened."""
        t = mol.head_terms(x, raw, reg_bands, 1e-4, regularizer, gamma0)
        g = t.d_nll.copy()
        g[:reg_bands] += nu * t.d_reg
        return float(np.sum(t.nll) + nu * np.sum(t.reg)), g.ravel()

    def _fd_check(self, nu, regularizer, trials=100, seed=0, gamma0=0.0):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(trials):
            n_bands, k = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            raw = np.concatenate([rng.normal(0, 1, (n_bands, k)), rng.normal(0, 1, (n_bands, k)),
                                  rng.uniform(-2.5, 1.2, (n_bands, k))], axis=-1)
            x = rng.normal(0, 2, n_bands)
            reg_bands = int(rng.integers(1, n_bands + 1))
            args = (x, raw, nu, regularizer, reg_bands, gamma0)
            _, analytic = self._objective(*args)
            numeric = []
            for i in np.ndindex(raw.shape):
                h, orig = 1e-5, raw[i]
                raw[i] = orig + h
                vp, _ = self._objective(*args)
                raw[i] = orig - h
                vm, _ = self._objective(*args)
                raw[i] = orig
                numeric.append((vp - vm) / (2 * h))
            worst = max(worst, fd_rel_error(analytic, np.array(numeric)))
        return worst

    def test_nll_gradient_matches_fd(self):
        assert self._fd_check(0.0, "log") <= 1e-4

    def test_combined_log_regularizer_matches_fd(self):
        assert self._fd_check(0.5, "log", seed=1) <= 1e-4

    def test_combined_linear_regularizer_matches_fd(self):
        assert self._fd_check(0.5, "linear", seed=2) <= 1e-4

    def test_baseline_gradient_matches_fd(self):
        assert self._fd_check(0.5, "log", seed=3, gamma0=0.3) <= 1e-4

    def test_nu_zero_equals_nll_gradient(self):
        # with no baseline mass the head's NLL terms are nll_grad's, bit for bit
        rng = np.random.default_rng(9)
        raw = np.concatenate([rng.normal(0, 1, (3, 4)), rng.normal(0, 1, (3, 4)),
                              rng.uniform(-2.5, 1.2, (3, 4))], axis=-1)
        x = rng.normal(0, 1, 3)
        p = mol.constrain(raw)
        nll, d = mol.nll_grad(x, p, np.ones_like(p.scales))  # no log scale is clamped
        t = mol.head_terms(x, raw, 2, gamma0=0.0)
        assert np.array_equal(t.nll, nll)
        assert np.array_equal(t.d_nll, d)
        # the forward-only head gives the same terms and no gradient
        forward = mol.head_terms(x, raw, 2, gamma0=0.0, grads=False)
        assert np.array_equal(forward.nll, nll)
        assert np.array_equal(forward.reg, t.reg)
        assert forward.d_nll is None and forward.d_reg is None

    def test_stationary_at_location_optimum(self):
        # for K=1 the NLL in mu is minimized at mu = x
        raw = np.array([[0.0, 0.7, 0.0]])
        t = mol.head_terms(np.array([0.7]), raw, 1)
        assert abs(t.d_nll[0, 1]) < 1e-14
