"""Unit tests for the Gaussian-mixture EM (Section 5.4 semantics)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.em import (
    GaussianMixture,
    fit_em,
    initialize_from_cores,
    relevant_attributes,
)
from repro.core.types import ClusterCore, Interval, Signature


def _core(attrs: list[int], lo: float, hi: float, support: int = 100) -> ClusterCore:
    sig = Signature([Interval(a, lo, hi) for a in attrs])
    return ClusterCore(signature=sig, support=support, expected_support=1.0)


def _two_blob_data(rng, n=400):
    data = rng.uniform(size=(n, 4))
    data[: n // 2, 0] = rng.normal(0.2, 0.03, n // 2).clip(0, 1)
    data[: n // 2, 1] = rng.normal(0.2, 0.03, n // 2).clip(0, 1)
    data[n // 2 :, 0] = rng.normal(0.8, 0.03, n // 2).clip(0, 1)
    data[n // 2 :, 1] = rng.normal(0.8, 0.03, n // 2).clip(0, 1)
    return data


class TestRelevantAttributes:
    def test_union_of_core_attributes(self):
        cores = [_core([0, 2], 0.1, 0.3), _core([1, 2], 0.5, 0.7)]
        assert relevant_attributes(cores) == (0, 1, 2)


class TestMixture:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GaussianMixture(
                means=np.zeros((2, 3)),
                covariances=np.zeros((2, 2, 2)),
                weights=np.ones(2) / 2,
                attributes=(0, 1, 2),
            )

    def test_responsibilities_normalised(self, rng):
        mixture = GaussianMixture(
            means=np.array([[0.2, 0.2], [0.8, 0.8]]),
            covariances=np.stack([np.eye(2) * 0.01] * 2),
            weights=np.array([0.5, 0.5]),
            attributes=(0, 1),
        )
        sub = rng.uniform(size=(50, 2))
        resp, _ = mixture.e_step(sub)
        assert resp.sum(axis=1) == pytest.approx(np.ones(50))

    def test_assign_picks_nearest_blob(self):
        mixture = GaussianMixture(
            means=np.array([[0.2, 0.2], [0.8, 0.8]]),
            covariances=np.stack([np.eye(2) * 0.01] * 2),
            weights=np.array([0.5, 0.5]),
            attributes=(0, 1),
        )
        labels = mixture.assign(np.array([[0.19, 0.22], [0.81, 0.77]]))
        assert labels.tolist() == [0, 1]

    def test_project_selects_attributes(self, rng):
        mixture = GaussianMixture(
            means=np.zeros((1, 2)),
            covariances=np.eye(2)[None],
            weights=np.ones(1),
            attributes=(1, 3),
        )
        data = rng.uniform(size=(5, 4))
        assert np.array_equal(mixture.project(data), data[:, [1, 3]])


class TestBatchShapes:
    """Regressions for assign/e_step batch normalisation.

    The serving scorer feeds the mixture empty batches and
    single-attribute subspaces; both used to trip ``atleast_2d``'s
    orientation guesses.
    """

    def _single_attr_mixture(self):
        # (k,) means and bare variances for a one-attribute A_rel must
        # orient to (k, 1) / (k, 1, 1), not (1, k).
        return GaussianMixture(
            means=np.array([0.2, 0.8]),
            covariances=np.array([0.01, 0.01]),
            weights=np.array([0.5, 0.5]),
            attributes=(3,),
        )

    def test_empty_batch_assign(self):
        mixture = GaussianMixture(
            means=np.array([[0.2, 0.2], [0.8, 0.8]]),
            covariances=np.stack([np.eye(2) * 0.01] * 2),
            weights=np.array([0.5, 0.5]),
            attributes=(0, 1),
        )
        labels = mixture.assign(np.empty((0, 2)))
        assert labels.shape == (0,)
        labels = mixture.assign(np.array([]))
        assert labels.shape == (0,)

    def test_single_attribute_orientation(self):
        mixture = self._single_attr_mixture()
        assert mixture.means.shape == (2, 1)
        assert mixture.covariances.shape == (2, 1, 1)
        labels = mixture.assign(np.array([[0.18], [0.83], [0.79]]))
        assert labels.tolist() == [0, 1, 1]

    def test_single_attribute_1d_batch(self):
        # A 1-D batch against a one-attribute mixture is n points, not
        # one n-dimensional point.
        mixture = self._single_attr_mixture()
        labels = mixture.assign(np.array([0.18, 0.83]))
        assert labels.tolist() == [0, 1]
        assert mixture.assign(np.array([])).shape == (0,)

    def test_single_component_row_orientation(self):
        # A bare (m,) mean for one component must orient to (1, m).
        mixture = GaussianMixture(
            means=np.array([0.4, 0.6]),
            covariances=np.eye(2) * 0.01,
            weights=np.ones(1),
            attributes=(0, 1),
        )
        assert mixture.means.shape == (1, 2)
        assert mixture.covariances.shape == (1, 2, 2)
        assert mixture.assign(np.array([0.41, 0.58])).tolist() == [0]

    def test_mismatched_batch_raises(self):
        mixture = self._single_attr_mixture()
        with pytest.raises(ValueError):
            mixture.assign(np.zeros((4, 3)))


class TestInitialization:
    def test_requires_cores(self):
        with pytest.raises(ValueError):
            initialize_from_cores(np.zeros((5, 2)), [])

    def test_means_near_support_sets(self, rng):
        data = _two_blob_data(rng)
        cores = [_core([0, 1], 0.1, 0.3), _core([0, 1], 0.7, 0.9)]
        mixture = initialize_from_cores(data, cores)
        assert mixture.means[0] == pytest.approx([0.2, 0.2], abs=0.05)
        assert mixture.means[1] == pytest.approx([0.8, 0.8], abs=0.05)

    def test_weights_normalised(self, rng):
        data = _two_blob_data(rng)
        cores = [_core([0, 1], 0.1, 0.3), _core([0, 1], 0.7, 0.9)]
        mixture = initialize_from_cores(data, cores)
        assert mixture.weights.sum() == pytest.approx(1.0)
        assert (mixture.weights > 0).all()

    def test_strays_are_assigned(self, rng):
        """Points in no support set still contribute to pass 2."""
        data = _two_blob_data(rng)
        tight_cores = [_core([0, 1], 0.15, 0.25), _core([0, 1], 0.75, 0.85)]
        mixture = initialize_from_cores(data, tight_cores)
        # Weights reflect the full data (including strays), roughly 50/50.
        assert mixture.weights[0] == pytest.approx(0.5, abs=0.15)


class TestFitEM:
    def test_log_likelihood_non_decreasing(self, rng):
        data = _two_blob_data(rng)
        cores = [_core([0, 1], 0.1, 0.3), _core([0, 1], 0.7, 0.9)]
        init = initialize_from_cores(data, cores)
        fitted = fit_em(data, init, max_iter=10)
        history = fitted.log_likelihood_history
        assert len(history) >= 2
        for earlier, later in zip(history, history[1:]):
            assert later >= earlier - 1e-6

    def test_recovers_blob_means(self, rng):
        data = _two_blob_data(rng)
        cores = [_core([0, 1], 0.1, 0.3), _core([0, 1], 0.7, 0.9)]
        fitted = fit_em(data, initialize_from_cores(data, cores), max_iter=15)
        means = sorted(fitted.means[:, 0].tolist())
        assert means[0] == pytest.approx(0.2, abs=0.05)
        assert means[1] == pytest.approx(0.8, abs=0.05)

    def test_convergence_stops_early(self, rng):
        data = _two_blob_data(rng)
        cores = [_core([0, 1], 0.1, 0.3), _core([0, 1], 0.7, 0.9)]
        fitted = fit_em(data, initialize_from_cores(data, cores), max_iter=50)
        assert len(fitted.log_likelihood_history) < 50

    def test_single_component(self, rng):
        data = rng.uniform(size=(200, 3))
        cores = [_core([0], 0.0, 1.0)]
        fitted = fit_em(data, initialize_from_cores(data, cores), max_iter=5)
        assert fitted.num_components == 1
        assert fitted.weights[0] == pytest.approx(1.0)


class TestWhitenedKernel:
    """The log-joint whitens with each component's cached inverse
    Cholesky factor; it must still be the Gaussian log-density."""

    def _mixture(self, rng):
        a = rng.normal(size=(3, 3, 3))
        return GaussianMixture(
            means=rng.uniform(size=(3, 3)),
            covariances=a @ a.transpose(0, 2, 1) * 0.01 + np.eye(3) * 1e-3,
            weights=np.array([0.2, 0.3, 0.5]),
            attributes=(0, 1, 2),
        )

    def test_log_joint_matches_scipy_density(self, rng):
        from scipy.stats import multivariate_normal

        mixture = self._mixture(rng)
        sub = rng.uniform(size=(200, 3))
        expected = np.stack(
            [
                np.log(mixture.weights[j])
                + multivariate_normal(
                    mixture.means[j], mixture.covariances[j]
                ).logpdf(sub)
                for j in range(3)
            ],
            axis=1,
        )
        np.testing.assert_allclose(mixture._log_joint(sub), expected, rtol=1e-10)

    def test_e_step_log_density_matches_joint(self, rng):
        mixture = self._mixture(rng)
        sub = rng.uniform(size=(200, 3))
        _, log_density = mixture.e_step(sub)
        joint = mixture._log_joint(sub)
        np.testing.assert_allclose(
            log_density, np.log(np.exp(joint).sum(axis=1)), rtol=1e-12
        )

    def test_cached_factors_stay_out_of_pickles(self, rng):
        import pickle

        from repro.mapreduce.cache import DistributedCache

        mixture = self._mixture(rng)
        before = DistributedCache({"mixture": mixture}).fingerprint()
        mixture.whitening()
        clone = pickle.loads(pickle.dumps(mixture))
        assert clone._factors is None
        assert DistributedCache({"mixture": mixture}).fingerprint() == before
