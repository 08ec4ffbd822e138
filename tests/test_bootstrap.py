"""Tests for the Bayesian and standard bootstrap machinery."""

import numpy as np
import pytest

from repro.bootstrap import (
    BayesianBootstrap,
    ConfidenceInterval,
    StandardBootstrap,
    dirichlet_moments,
    percentile_interval,
    sample_uniform_dirichlet_weights,
    sample_weighted_dirichlet_weights,
)
from repro.exceptions import ValidationError


class TestDirichletSampling:
    def test_uniform_rows_sum_to_one(self):
        weights = sample_uniform_dirichlet_weights(5, size=10, rng=0)
        assert weights.shape == (10, 5)
        assert np.allclose(weights.sum(axis=1), 1.0)

    def test_uniform_nonnegative(self):
        weights = sample_uniform_dirichlet_weights(4, size=100, rng=1)
        assert np.all(weights >= 0)

    def test_uniform_mean_matches_appendix_a(self):
        # Appendix A: E[g_i] = 1/n.
        weights = sample_uniform_dirichlet_weights(4, size=20000, rng=2)
        assert np.allclose(weights.mean(axis=0), 0.25, atol=0.01)

    def test_uniform_variance_matches_appendix_a(self):
        # Appendix A: var[g_i] = (n-1)/n^2/(n+1)  (i.e. p(1-p)/(n+1)).
        n = 4
        weights = sample_uniform_dirichlet_weights(n, size=40000, rng=3)
        expected = (1 / n) * (1 - 1 / n) / (n + 1)
        assert np.allclose(weights.var(axis=0), expected, rtol=0.1)

    def test_weighted_mean_matches_base_weights(self):
        base = np.array([0.5, 0.3, 0.2])
        weights = sample_weighted_dirichlet_weights(base, size=20000, rng=4)
        assert np.allclose(weights.mean(axis=0), base, atol=0.01)

    def test_weighted_variance_matches_appendix_b(self):
        # Appendix B with alpha_i = n*pi_i: var[g_i] = pi_i(1-pi_i)/(n+1).
        base = np.array([0.5, 0.3, 0.2])
        n = base.size
        weights = sample_weighted_dirichlet_weights(base, size=60000, rng=5)
        expected = base * (1 - base) / (n + 1)
        assert np.allclose(weights.var(axis=0), expected, rtol=0.1)

    def test_weighted_zero_base_weight_stays_near_zero(self):
        base = np.array([1.0, 1.0, 0.0])
        weights = sample_weighted_dirichlet_weights(base, size=100, rng=6)
        assert np.all(weights[:, 2] < 1e-6)

    def test_invalid_concentration_rejected(self):
        with pytest.raises(ValidationError):
            sample_weighted_dirichlet_weights(np.ones(3), concentration_scale=0.0)

    def test_dirichlet_moments_formulas(self):
        mean, var = dirichlet_moments(np.array([2.0, 2.0]))
        assert np.allclose(mean, 0.5)
        assert np.allclose(var, 0.25 / 5.0)

    def test_dirichlet_moments_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            dirichlet_moments(np.array([1.0, 0.0]))


class TestConfidenceInterval:
    def test_width_and_contains(self):
        ci = ConfidenceInterval(lower=0.0, upper=2.0, level=0.95, point=1.0)
        assert ci.width == pytest.approx(2.0)
        assert ci.contains(1.5)
        assert not ci.contains(2.5)

    def test_overlaps(self):
        a = ConfidenceInterval(0.0, 1.0, 0.95)
        b = ConfidenceInterval(0.5, 2.0, 0.95)
        c = ConfidenceInterval(1.5, 2.0, 0.95)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValidationError):
            ConfidenceInterval(lower=1.0, upper=0.0, level=0.95)

    def test_percentile_interval_quantiles(self):
        samples = np.arange(101, dtype=float)
        ci = percentile_interval(samples, alpha=0.1)
        assert ci.lower == pytest.approx(5.0)
        assert ci.upper == pytest.approx(95.0)
        assert ci.level == pytest.approx(0.9)

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.5])
    @pytest.mark.parametrize("kind", ["random", "tied", "short"])
    def test_percentile_interval_equals_two_quantile_calls(self, kind, alpha):
        rng = np.random.default_rng(17)
        samples = {
            "random": rng.normal(size=200),
            "tied": rng.integers(0, 4, size=201).astype(float),
            "short": np.array([0.3, -1.2]),
        }[kind]
        ci = percentile_interval(samples, alpha=alpha)
        assert ci.lower == float(np.quantile(samples, alpha / 2.0))
        assert ci.upper == float(np.quantile(samples, 1.0 - alpha / 2.0))

    def test_percentile_interval_point_carried(self):
        ci = percentile_interval(np.array([1.0, 2.0, 3.0]), point=2.0)
        assert ci.point == pytest.approx(2.0)

    def test_percentile_interval_invalid_alpha(self):
        with pytest.raises(ValidationError):
            percentile_interval(np.array([1.0, 2.0]), alpha=1.5)


class TestBayesianBootstrap:
    def test_replicates_shape(self):
        bootstrap = BayesianBootstrap(50, rng=0)
        values = bootstrap.replicate(lambda w: float(w[0]), 4)
        assert values.shape == (50,)

    def test_mean_interval_contains_true_mean_for_large_sample(self):
        rng = np.random.default_rng(0)
        data = rng.normal(3.0, 1.0, size=200)
        ci = BayesianBootstrap(300, rng=1).mean_interval(data)
        assert ci.lower < 3.0 < ci.upper

    def test_mean_interval_width_shrinks_with_sample_size(self):
        rng = np.random.default_rng(2)
        small = rng.normal(0.0, 1.0, size=10)
        large = rng.normal(0.0, 1.0, size=1000)
        width_small = BayesianBootstrap(200, rng=3).mean_interval(small).width
        width_large = BayesianBootstrap(200, rng=4).mean_interval(large).width
        assert width_large < width_small

    def test_reproducible_with_seed(self):
        data = np.arange(10, dtype=float)
        ci1 = BayesianBootstrap(100, rng=7).mean_interval(data)
        ci2 = BayesianBootstrap(100, rng=7).mean_interval(data)
        assert ci1.lower == ci2.lower and ci1.upper == ci2.upper

    def test_weighted_resampling_respects_base_weights(self):
        bootstrap = BayesianBootstrap(2000, rng=8)
        weights = bootstrap.resample_weights(3, base_weights=np.array([0.7, 0.2, 0.1]))
        assert weights.mean(axis=0)[0] > weights.mean(axis=0)[2]

    @pytest.mark.parametrize("base", [None, np.array([0.5, 0.3, 0.2, 0.0])])
    def test_weight_sampler_draws_what_resample_weights_draws(self, base):
        sampler = BayesianBootstrap(30, rng=9).weight_sampler(4, base)
        reference = BayesianBootstrap(30, rng=9)
        for _ in range(3):
            assert np.array_equal(sampler(), reference.resample_weights(4, base))

    def test_weight_sampler_validates_once_up_front(self):
        with pytest.raises(ValidationError):
            BayesianBootstrap(30, rng=0).weight_sampler(3, np.array([1.0, -1.0, 0.5]))
        with pytest.raises(ValidationError):
            BayesianBootstrap(30, rng=0).weight_sampler(0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            BayesianBootstrap(1)
        with pytest.raises(ValidationError):
            BayesianBootstrap(10, alpha=0.0)

    def test_confidence_interval_point_estimate(self):
        data = np.array([1.0, 2.0, 3.0, 4.0])
        ci = BayesianBootstrap(100, rng=0).mean_interval(data)
        assert ci.point == pytest.approx(2.5)

    def test_smoothness_advantage_over_standard_bootstrap(self):
        # Paper §4.2: for tiny samples the Bayesian bootstrap produces many
        # more distinct replicate values than multinomial resampling.
        data = np.array([0.0, 1.0, 5.0, 9.0])
        statistic = lambda w: float(np.dot(w, data))
        bayes = BayesianBootstrap(300, rng=1).replicate(statistic, 4)
        standard = StandardBootstrap(300, rng=1).replicate(statistic, 4)
        assert len(np.unique(np.round(bayes, 10))) > len(np.unique(np.round(standard, 10)))


class TestStandardBootstrap:
    def test_weights_are_multiples_of_one_over_n(self):
        weights = StandardBootstrap(20, rng=0).resample_weights(5)
        assert np.allclose((weights * 5) % 1.0, 0.0)

    def test_rows_sum_to_one(self):
        weights = StandardBootstrap(20, rng=0).resample_weights(6)
        assert np.allclose(weights.sum(axis=1), 1.0)

    def test_mean_interval_contains_truth(self):
        rng = np.random.default_rng(5)
        data = rng.normal(-2.0, 1.0, size=300)
        ci = StandardBootstrap(300, rng=6).confidence_interval(
            lambda w: float(np.dot(w, data)), data.shape[0]
        )
        assert ci.lower < -2.0 < ci.upper

    def test_base_weights_shift_resampling(self):
        weights = StandardBootstrap(2000, rng=7).resample_weights(
            3, base_weights=np.array([0.8, 0.1, 0.1])
        )
        assert weights.mean(axis=0)[0] > 0.5
