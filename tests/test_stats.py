"""Unit tests for the statistical machinery (Sections 3-4)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as sps

from repro.core.stats import (
    GAUSSIAN_APPROX_MIN_LAMBDA,
    chi2_critical_value,
    chi_squared_uniformity_pvalue,
    cohens_d_cc,
    inverse_cholesky,
    is_uniform,
    mahalanobis_squared,
    poisson_deviation_significant,
    poisson_log_sf,
    poisson_power_relative_effect,
    poisson_sf,
    probability_exceeds_relative,
    whitened_squared_norm,
)


class TestPoissonSF:
    def test_matches_scipy_for_small_lambda(self):
        assert poisson_sf(5, 2.0) == pytest.approx(
            float(sps.poisson.sf(4, 2.0))
        )

    def test_gaussian_approximation_close_for_large_lambda(self):
        # Far tails agree on the log scale (what the tests consume).
        exact = float(sps.poisson.sf(10499, 10000))
        approx = poisson_sf(10500, 10000)
        assert np.log(approx) == pytest.approx(np.log(exact), rel=0.05)

    def test_zero_expected(self):
        assert poisson_sf(1, 0.0) == 0.0
        assert poisson_sf(0, 0.0) == 1.0

    def test_negative_expected_rejected(self):
        with pytest.raises(ValueError):
            poisson_sf(1, -1.0)

    def test_log_sf_handles_extreme_tails(self):
        log_p = poisson_log_sf(2_000, 1_000.0)
        assert log_p < np.log(1e-100)
        assert np.isfinite(log_p)

    @given(st.floats(1, 1e6), st.floats(0.0, 2.0))
    def test_sf_is_probability(self, expected, rel):
        p = poisson_sf(rel * expected, expected)
        assert 0.0 <= p <= 1.0

    @pytest.mark.parametrize(
        "expected", [0.0, 1e-9, 0.5, 3.0, 20.5, 99.999, 100.0, 100.5, 1e4, 1e6]
    )
    def test_tails_equal_the_scipy_distributions_bitwise(self, expected):
        # Counts below the support (0, -1), fractional and integer
        # counts, and counts deep in both tails of each expected support.
        observed = [0.0, -1.0, -0.5, 0.3, 1.0, 2.0, 7.5, 30.0, 150.0]
        observed += [expected * f for f in (0.5, 0.99, 1.01, 1.5, 3.0)]
        for x in observed:
            if expected < GAUSSIAN_APPROX_MIN_LAMBDA:
                k = np.ceil(x) - 1
                sf = sps.poisson.sf(k, expected)
                log_sf = sps.poisson.logsf(k, expected)
            else:
                z = (x - 0.5 - expected) / np.sqrt(expected)
                sf, log_sf = sps.norm.sf(z), sps.norm.logsf(z)
            assert poisson_sf(x, expected) == float(sf), x
            assert poisson_log_sf(x, expected) == float(log_sf), x


class TestSignificance:
    def test_obvious_deviation_significant(self):
        assert poisson_deviation_significant(100, 10.0, alpha=0.01)

    def test_no_deviation_not_significant(self):
        assert not poisson_deviation_significant(10, 10.0, alpha=0.01)

    def test_extreme_threshold_decidable(self):
        # Thresholds far below float precision must still work (Fig. 5).
        assert poisson_deviation_significant(2_000_000, 1_000_000.0, alpha=1e-140)
        assert not poisson_deviation_significant(
            1_000_100, 1_000_000.0, alpha=1e-140
        )

    def test_alpha_monotonicity(self):
        # Significant at a strict level => significant at a looser one.
        observed, expected = 1_150, 1_000.0
        strict = poisson_deviation_significant(observed, expected, alpha=1e-6)
        loose = poisson_deviation_significant(observed, expected, alpha=0.01)
        assert loose or not strict

    def test_zero_expected_any_observation_significant(self):
        assert poisson_deviation_significant(1, 0.0)
        assert not poisson_deviation_significant(0, 0.0)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            poisson_deviation_significant(10, 5.0, alpha=0.0)

    def test_power_pathology_figure1(self):
        """The paper's Figure 1: at a fixed 1% relative effect, the power
        grows towards 1 with mu."""
        powers = [
            poisson_power_relative_effect(mu, 1.01, alpha=0.05)
            for mu in (100, 10_000, 100_000, 1_000_000)
        ]
        assert powers == sorted(powers)
        assert powers[-1] > 0.99
        assert powers[0] < 0.2

    def test_null_tail_vanishes(self):
        assert probability_exceeds_relative(1_000_000, 1.01) < 1e-10


class TestEffectSize:
    def test_cohens_d_is_relative_deviation(self):
        assert cohens_d_cc(130, 100.0) == pytest.approx(0.3)

    def test_zero_expected(self):
        assert cohens_d_cc(5, 0.0) == float("inf")
        assert cohens_d_cc(0, 0.0) == 0.0

    def test_negative_deviation_negative_d(self):
        assert cohens_d_cc(50, 100.0) < 0

    def test_paper_threshold_semantics(self):
        # A 1% deviation on huge data: significant but tiny effect.
        observed, expected = 1_010_000, 1_000_000.0
        assert poisson_deviation_significant(observed, expected, alpha=0.01)
        assert cohens_d_cc(observed, expected) < 0.35


class TestChiSquared:
    def test_uniform_counts_high_pvalue(self):
        assert chi_squared_uniformity_pvalue(np.array([100, 101, 99, 100])) > 0.9

    def test_spiked_counts_low_pvalue(self):
        assert chi_squared_uniformity_pvalue(np.array([400, 10, 10, 10])) < 1e-10

    def test_single_bin_trivially_uniform(self):
        assert chi_squared_uniformity_pvalue(np.array([42])) == 1.0

    def test_empty_histogram_trivially_uniform(self):
        assert chi_squared_uniformity_pvalue(np.array([0, 0, 0])) == 1.0

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 18, 40, 126, 400])
    def test_pvalue_equals_scipy_chi2_sf_bitwise(self, k):
        # From near-uniform to far-spiked histograms at each bin count,
        # so the p-values span 1 down to underflow.
        rng = np.random.default_rng(k)
        for spike in (0, 1, 10, 100, 1_000, 10_000):
            counts = rng.poisson(50, size=k).astype(float)
            counts[0] += spike
            expected = counts.sum() / k
            statistic = float(((counts - expected) ** 2 / expected).sum())
            assert chi_squared_uniformity_pvalue(counts) == float(
                sps.chi2.sf(statistic, df=k - 1)
            )

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            chi_squared_uniformity_pvalue(np.array([1, -1]))

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            chi_squared_uniformity_pvalue(np.ones((2, 2)))

    def test_is_uniform_wrapper(self):
        assert is_uniform(np.array([10, 10, 10]))
        assert not is_uniform(np.array([1000, 1, 1]))


class TestMahalanobis:
    def test_identity_covariance_is_euclidean(self, rng):
        points = rng.normal(size=(20, 3))
        mean = np.zeros(3)
        d2 = mahalanobis_squared(points, mean, np.eye(3))
        assert d2 == pytest.approx((points**2).sum(axis=1))

    def test_scales_with_variance(self):
        point = np.array([[2.0, 0.0]])
        d2_wide = mahalanobis_squared(point, np.zeros(2), np.diag([4.0, 1.0]))
        d2_narrow = mahalanobis_squared(point, np.zeros(2), np.diag([1.0, 1.0]))
        assert d2_wide[0] == pytest.approx(1.0)
        assert d2_narrow[0] == pytest.approx(4.0)

    @pytest.mark.parametrize(
        "cov",
        [
            np.zeros((2, 2)),
            np.outer([1.0, 2.0], [1.0, 2.0]),
            np.cov(np.stack([np.linspace(0.0, 1.0, 50)] * 2)),
            np.array([[1.0, 1.0 + 1e-12], [1.0 + 1e-12, 1.0]]),
            np.diag([1e-3, -1e-18]),
        ],
        ids=[
            "zero",
            "rank-1",
            "duplicate-column",
            "indefinite-by-rounding",
            "tiny-negative-eigenvalue",
        ],
    )
    def test_singular_covariance_regularised(self, cov):
        """Covariances that do not factor get the Cholesky ridge; a plain
        inverse accepts the last two and returns a negative distance."""
        points = np.array([[1.0, -1.0], [1.0, 1.0], [0.0, 0.0]])
        d2 = mahalanobis_squared(points, np.zeros(2), cov)
        assert np.isfinite(d2).all()
        assert (d2 >= 0).all()

    def test_critical_value_matches_scipy(self):
        assert chi2_critical_value(5, 0.001) == pytest.approx(
            float(sps.chi2.isf(0.001, 5))
        )

    def test_critical_value_validates_dof(self):
        with pytest.raises(ValueError):
            chi2_critical_value(0)

    def test_outlier_fraction_roughly_alpha(self, rng):
        """Sanity: with true moments, ~alpha of Gaussian points exceed
        the chi-squared critical value."""
        points = rng.normal(size=(20_000, 4))
        d2 = mahalanobis_squared(points, np.zeros(4), np.eye(4))
        fraction = (d2 > chi2_critical_value(4, 0.01)).mean()
        assert 0.005 < fraction < 0.02


class TestWhiteningKernel:
    @pytest.mark.parametrize("m", [1, 4, 8, 26])
    def test_prefix_batches_are_bitwise_equal(self, rng, m):
        """A point's distance does not depend on the batch it is in."""
        a = rng.normal(size=(m, m))
        inverse, _ = inverse_cholesky(a @ a.T + 0.1 * np.eye(m))
        mean = rng.normal(size=m)
        points = rng.normal(size=(1000, m))
        full = whitened_squared_norm(np.ascontiguousarray(points.T), mean, inverse)
        for rows in (1, 7, 58, 63, 65, 1000):
            prefix = np.ascontiguousarray(points[:rows].T)
            assert np.array_equal(
                whitened_squared_norm(prefix, mean, inverse), full[:rows]
            )

    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_scipy_mahalanobis(self, rng, m):
        from scipy.spatial.distance import mahalanobis

        a = rng.normal(size=(m, m))
        cov = a @ a.T + 0.05 * np.eye(m)
        mean = rng.normal(size=m)
        points = rng.normal(size=(50, m))
        precision = np.linalg.inv(cov)
        expected = [mahalanobis(p, mean, precision) ** 2 for p in points]
        np.testing.assert_allclose(
            mahalanobis_squared(points, mean, cov), expected, rtol=1e-12
        )
