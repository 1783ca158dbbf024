"""MR jobs must agree with their serial counterparts exactly (integer
counting) or to float tolerance (moment sums)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.binning import build_all_histograms
from repro.core.em import GaussianMixture, _moments, fit_em, initialize_from_cores
from repro.core.types import ClusterCore, Interval, IntervalTable, Signature
from repro.mapreduce import JobChain, MapReduceRuntime
from repro.mapreduce.types import split_records
from repro.mr.em_jobs import (
    CoreSupportWeights,
    ResponsibilityWeights,
    run_em_mr,
    run_moment_job,
)
from repro.mr.histogram import run_histogram_job
from repro.mr.support import IntervalIndex, run_support_job
from tests.mr_helpers import count_supports_mr
from tests.oracles import count_supports


@pytest.fixture()
def chain() -> JobChain:
    return JobChain(MapReduceRuntime())


def _cores_for(dataset) -> list[ClusterCore]:
    cores = []
    for cluster in dataset.hidden_clusters:
        sig = cluster.signature
        cores.append(
            ClusterCore(
                signature=sig,
                support=sig.support(dataset.data),
                expected_support=sig.expected_support(len(dataset.data)),
            )
        )
    return cores


class TestHistogramJob:
    def test_matches_serial_histograms(self, tiny_dataset, chain):
        splits = split_records(tiny_dataset.data, 4)
        mr_histograms = run_histogram_job(chain, splits, 8)
        serial = build_all_histograms(tiny_dataset.data, 8)
        for a, b in zip(mr_histograms, serial):
            assert a.attribute == b.attribute
            assert np.array_equal(a.counts, b.counts)

    def test_split_count_does_not_matter(self, tiny_dataset, chain):
        one = run_histogram_job(
            chain, split_records(tiny_dataset.data, 1), 6
        )
        many = run_histogram_job(
            chain, split_records(tiny_dataset.data, 9), 6
        )
        for a, b in zip(one, many):
            assert np.array_equal(a.counts, b.counts)


class TestSupportJob:
    def test_matches_bruteforce(self, tiny_dataset, chain):
        splits = split_records(tiny_dataset.data, 4)
        candidates = [c.signature for c in tiny_dataset.hidden_clusters]
        candidates += [
            Signature([Interval(0, 0.0, 0.5)]),
            Signature([Interval(0, 0.0, 0.5), Interval(1, 0.5, 1.0)]),
        ]
        supports = count_supports_mr(chain, splits, candidates)
        assert supports == count_supports(tiny_dataset.data, candidates)

    def test_empty_candidates_no_job(self, chain):
        index = IntervalIndex(IntervalTable([]), [])
        assert run_support_job(chain, index, []) == {}
        assert chain.num_jobs == 0


class TestMomentJobs:
    def test_support_weights_moments_match_numpy(self, tiny_dataset, chain):
        cores = _cores_for(tiny_dataset)
        attrs = tuple(
            sorted(set().union(*(c.attributes for c in cores)))
        )
        splits = split_records(tiny_dataset.data, 4)
        model = CoreSupportWeights([c.signature for c in cores])
        means, covs, weight_sums, _ = run_moment_job(
            chain, splits, model, attrs, "test"
        )
        sub = tiny_dataset.data[:, list(attrs)]
        for j, core in enumerate(cores):
            mask = core.signature.support_mask(tiny_dataset.data)
            assert weight_sums[j] == pytest.approx(mask.sum())
            assert means[j] == pytest.approx(sub[mask].mean(axis=0), abs=1e-9)
            # The job adds the same 1e-6 ridge the serial EM uses.
            expected_cov = np.cov(sub[mask].T) + 1e-6 * np.eye(len(attrs))
            assert covs[j] == pytest.approx(expected_cov, abs=1e-9)

    def test_em_mr_matches_serial_em(self, tiny_dataset, chain):
        cores = _cores_for(tiny_dataset)
        splits = split_records(tiny_dataset.data, 4)
        mr_mixture = run_em_mr(
            chain, splits, cores, len(tiny_dataset.data), max_iter=5
        )
        serial_init = initialize_from_cores(tiny_dataset.data, cores)
        serial_mixture = fit_em(tiny_dataset.data, serial_init, max_iter=5)
        assert mr_mixture.attributes == serial_mixture.attributes
        assert mr_mixture.means == pytest.approx(serial_mixture.means, abs=1e-6)
        assert mr_mixture.weights == pytest.approx(
            serial_mixture.weights, abs=1e-6
        )

    def test_em_mr_loglik_non_decreasing(self, tiny_dataset, chain):
        cores = _cores_for(tiny_dataset)
        splits = split_records(tiny_dataset.data, 3)
        mixture = run_em_mr(
            chain, splits, cores, len(tiny_dataset.data), max_iter=6
        )
        history = mixture.log_likelihood_history
        for earlier, later in zip(history, history[1:]):
            assert later >= earlier - 1e-6


class TestFusedMomentStability:
    """The fused moment job sums the scatter about a centre the driver
    ships and re-centres it on the finished mean.  A tight cluster
    (sigma = 1e-4) near 0.99, far from the unit cube's centre, is where
    uncentred sums cancel catastrophically; the fused pass must still
    match the two-pass oracle."""

    ATTRS = (0, 1)

    @pytest.fixture()
    def data(self) -> np.ndarray:
        rng = np.random.default_rng(3)
        tight = 0.99 + 1e-4 * rng.standard_normal((400, 2))
        broad = rng.uniform(0.1, 0.6, size=(600, 2))
        return rng.permutation(np.vstack([tight, broad]))

    def _assert_matches_oracle(self, data, weights, means, covs):
        for j in range(weights.shape[1]):
            mean, cov = _moments(data, weights[:, j], 0.0)
            np.testing.assert_allclose(means[j], mean, rtol=1e-9)
            np.testing.assert_allclose(covs[j], cov, rtol=1e-9)

    def test_support_pass_centred_at_signature_midpoint(self, data, chain):
        # The midpoint 0.975 sits 150 sigma from the cluster.
        signature = Signature([Interval(0, 0.95, 1.0), Interval(1, 0.95, 1.0)])
        means, covs, _, _ = run_moment_job(
            chain,
            split_records(data, 4),
            CoreSupportWeights([signature]),
            self.ATTRS,
            "support",
            reg=0.0,
        )
        mask = signature.support_mask(data).astype(float)
        self._assert_matches_oracle(data, mask[:, None], means, covs)
        # Uncentred sums on the same data miss by orders of magnitude.
        total = mask.sum()
        mean = (mask[:, None] * data).sum(axis=0) / total
        raw = (mask[:, None] * data).T @ data / total - np.outer(mean, mean)
        scale = total**2 / (total**2 - (mask**2).sum())
        _, oracle = _moments(data, mask, 0.0)
        assert np.abs(scale * raw / oracle - 1.0).max() > 1e-7

    def test_em_iteration_centred_at_previous_means(self, data, chain):
        mixture = GaussianMixture(
            means=np.array([[0.9899, 0.9901], [0.35, 0.35]]),
            covariances=np.stack([np.eye(2) * 1e-8, np.eye(2) * 0.02]),
            weights=np.array([0.4, 0.6]),
            attributes=self.ATTRS,
        )
        means, covs, _, _ = run_moment_job(
            chain,
            split_records(data, 4),
            ResponsibilityWeights(mixture),
            self.ATTRS,
            "em_iter",
            reg=0.0,
        )
        responsibilities, _ = mixture.e_step(data)
        self._assert_matches_oracle(data, responsibilities, means, covs)
