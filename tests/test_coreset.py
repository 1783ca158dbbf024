"""Coreset fast path: weighted kernels, sampling invariants, driver quality.

Three layers of guarantees:

- **Unit-weight bitwise parity** — an all-ones weight vector is
  canonicalised away at every job boundary, so weighted histogram /
  support / EM runs with unit weights are *byte-identical* to runs that
  never heard of weights, on every executor backend.
- **Integer-weight duplication oracle** — a point with weight ``w``
  must count exactly like ``w`` duplicated unit-weight points.  Counts
  are exact (integer-valued float64 sums below 2^53); EM moments match
  to float tolerance (association order differs).
- **Driver quality gate** — a coreset fit's E4SC against ground truth
  retains >= 0.9 of the exact fit's score, and the full-data assignment
  pass labels all n points.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.p3c_plus import P3CPlusConfig
from repro.core.stats import effective_sample_size
from repro.core.types import ClusterCore, Interval, Signature
from repro.eval import e4sc_score
from repro.mapreduce import Counters, JobChain, MapReduceRuntime, split_records
from repro.mr import P3CPlusMR, P3CPlusMRConfig
from repro.mr.coreset import (
    SUPPORTED_MODES,
    allocate_quotas,
    build_coreset,
    run_assign_job,
)
from repro.mr.em_jobs import run_em_mr
from repro.mr.histogram import run_histogram_job
from repro.mr.support import run_support_job
from repro.mr.weights import canonical_weights, take_weights


def _chain(executor: str = "serial", max_workers: int | None = None) -> JobChain:
    return JobChain(MapReduceRuntime(executor=executor, max_workers=max_workers))


# -- weight plumbing -------------------------------------------------------


class TestCanonicalWeights:
    def test_none_passes_through(self):
        assert canonical_weights(None) is None

    def test_unit_weights_canonicalised_to_none(self):
        assert canonical_weights(np.ones(17)) is None

    def test_genuine_weights_kept_as_float64(self):
        weights = canonical_weights(np.array([1, 2, 3]))
        assert weights is not None
        assert weights.dtype == np.float64

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([]),
            np.ones((3, 2)),
            np.array([1.0, -0.5]),
            np.array([1.0, np.nan]),
            np.array([1.0, np.inf]),
        ],
    )
    def test_invalid_weights_rejected(self, bad):
        with pytest.raises(ValueError):
            canonical_weights(bad)

    def test_take_weights_indexes_by_key(self):
        weights = np.array([10.0, 20.0, 30.0, 40.0])
        assert np.array_equal(take_weights(weights, [3, 0]), [40.0, 10.0])


# -- quota allocation ------------------------------------------------------


class TestAllocateQuotas:
    @settings(max_examples=50, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 500), min_size=1, max_size=12),
        size=st.integers(1, 600),
    )
    def test_invariants(self, sizes, size):
        table = dict(enumerate(sizes))
        quotas = allocate_quotas(table, size)
        assert set(quotas) == set(table)
        for sid, quota in quotas.items():
            assert 0 <= quota <= table[sid]
            if table[sid] > 0:
                assert quota >= 1
            else:
                assert quota == 0

    def test_exact_when_size_covers_everything(self):
        sizes = {0: 5, 1: 7, 2: 0}
        assert allocate_quotas(sizes, 100) == {0: 5, 1: 7, 2: 0}

    def test_proportional_split(self):
        quotas = allocate_quotas({0: 100, 1: 300}, 40)
        assert quotas == {0: 10, 1: 30}

    def test_deterministic(self):
        sizes = {i: (i * 37) % 11 + 1 for i in range(9)}
        assert allocate_quotas(sizes, 13) == allocate_quotas(sizes, 13)


# -- coreset construction --------------------------------------------------


class TestBuildCoreset:
    def _data(self, n=400, d=3, seed=0):
        return np.random.default_rng(seed).uniform(size=(n, d))

    @pytest.mark.parametrize("mode", SUPPORTED_MODES)
    def test_deterministic_for_fixed_seed(self, mode):
        data = self._data()
        first = build_coreset(
            _chain(), split_records(data, 4), 80, mode=mode, seed=3
        )
        second = build_coreset(
            _chain(), split_records(data, 4), 80, mode=mode, seed=3
        )
        assert np.array_equal(first.points, second.points)
        assert np.array_equal(first.weights, second.weights)

    def test_seed_changes_the_sample(self):
        data = self._data()
        a = build_coreset(_chain(), split_records(data, 4), 80, seed=0)
        b = build_coreset(_chain(), split_records(data, 4), 80, seed=1)
        assert not np.array_equal(a.points, b.points)

    def test_uniform_total_weight_is_n(self):
        data = self._data(n=500)
        summary = build_coreset(_chain(), split_records(data, 4), 100)
        assert summary.total_weight == pytest.approx(500.0)
        assert summary.size == 100
        assert summary.effective_size <= summary.size + 1e-9

    def test_lightweight_unbiased_weight_total(self):
        # E[sum of importance weights] = n; generous tolerance for one draw.
        data = self._data(n=2000, seed=5)
        summary = build_coreset(
            _chain(), split_records(data, 4), 400, mode="lightweight"
        )
        assert summary.mode == "lightweight"
        assert summary.total_weight == pytest.approx(2000.0, rel=0.25)
        assert np.all(summary.weights > 0)

    def test_oversized_request_returns_all_points_unit_weight(self):
        data = self._data(n=60)
        summary = build_coreset(_chain(), split_records(data, 3), 500)
        assert summary.size == 60
        assert canonical_weights(summary.weights) is None
        # Split concatenation preserves row order.
        assert np.array_equal(np.sort(summary.points, axis=0), np.sort(data, axis=0))

    def test_every_split_is_represented(self):
        data = self._data(n=300)
        splits = split_records(data, 6)
        summary = build_coreset(_chain(), splits, 12)
        assert summary.size >= 6  # min-1 per non-empty split

    def test_invalid_arguments_rejected(self):
        data = self._data(n=50)
        with pytest.raises(ValueError, match="size"):
            build_coreset(_chain(), split_records(data, 2), 0)
        with pytest.raises(ValueError, match="mode"):
            build_coreset(_chain(), split_records(data, 2), 10, mode="fancy")


# -- unit-weight bitwise parity --------------------------------------------

_PARITY_EXECUTORS = ["serial", "thread"]


class TestUnitWeightParity:
    """All-ones weights must be byte-invisible in every weighted kernel."""

    def _splits(self, rng_seed=11, n=240, d=4, num_splits=5):
        data = np.random.default_rng(rng_seed).uniform(size=(n, d))
        return data, split_records(data, num_splits)

    @pytest.mark.parametrize("executor", _PARITY_EXECUTORS)
    def test_histogram_bitwise(self, executor):
        _, splits = self._splits()
        plain = run_histogram_job(_chain(executor, 3), splits, 10)
        unit = run_histogram_job(
            _chain(executor, 3), splits, 10, weights=np.ones(240)
        )
        for h_plain, h_unit in zip(plain, unit):
            assert h_unit.counts.dtype == h_plain.counts.dtype == np.int64
            assert h_unit.counts.tobytes() == h_plain.counts.tobytes()

    @pytest.mark.parametrize("executor", _PARITY_EXECUTORS)
    def test_support_bitwise(self, executor):
        data, splits = self._splits()
        signatures = [
            Signature([Interval(0, 0.0, 0.5)]),
            Signature([Interval(1, 0.25, 0.75), Interval(2, 0.0, 0.6)]),
        ]
        plain = run_support_job(_chain(executor, 3), splits, signatures)
        unit = run_support_job(
            _chain(executor, 3), splits, signatures, weights=np.ones(len(data))
        )
        assert unit == plain
        assert all(type(v) is type(plain[s]) for s, v in unit.items())

    def test_histogram_process_executor_bitwise(self):
        _, splits = self._splits()
        plain = run_histogram_job(_chain("process", 2), splits, 10)
        unit = run_histogram_job(
            _chain("process", 2), splits, 10, weights=np.ones(240)
        )
        for h_plain, h_unit in zip(plain, unit):
            assert h_unit.counts.tobytes() == h_plain.counts.tobytes()

    def test_em_bitwise(self):
        data, splits = self._em_workload()
        cores = self._em_cores()
        plain = run_em_mr(_chain(), splits, cores, len(data), max_iter=3)
        unit = run_em_mr(
            _chain(),
            splits,
            cores,
            len(data),
            max_iter=3,
            point_weights=np.ones(len(data)),
        )
        assert unit.means.tobytes() == plain.means.tobytes()
        assert unit.covariances.tobytes() == plain.covariances.tobytes()
        assert unit.weights.tobytes() == plain.weights.tobytes()

    @staticmethod
    def _em_workload(seed=2, n=300):
        rng = np.random.default_rng(seed)
        a = np.clip(rng.normal(0.25, 0.05, size=(n // 2, 3)), 0, 1)
        b = np.clip(rng.normal(0.75, 0.05, size=(n // 2, 3)), 0, 1)
        data = np.concatenate([a, b])
        return data, split_records(data, 4)

    @staticmethod
    def _em_cores():
        return [
            ClusterCore(
                signature=Signature([Interval(0, 0.0, 0.5)]),
                support=150,
                expected_support=75.0,
            ),
            ClusterCore(
                signature=Signature([Interval(0, 0.5, 1.0)]),
                support=150,
                expected_support=75.0,
            ),
        ]

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(20, 120),
        d=st.integers(1, 4),
        num_bins=st.integers(2, 12),
        num_splits=st.integers(1, 5),
    )
    def test_histogram_bitwise_property(self, seed, n, d, num_bins, num_splits):
        data = np.random.default_rng(seed).uniform(size=(n, d))
        splits = split_records(data, num_splits)
        plain = run_histogram_job(_chain(), splits, num_bins)
        unit = run_histogram_job(
            _chain(), splits, num_bins, weights=np.ones(n)
        )
        for h_plain, h_unit in zip(plain, unit):
            assert h_unit.counts.tobytes() == h_plain.counts.tobytes()


# -- integer-weight duplication oracle -------------------------------------


class TestDuplicationOracle:
    """Weight w must behave exactly like w duplicated unit points."""

    def _weighted_workload(self, seed=7, n=120, d=3):
        rng = np.random.default_rng(seed)
        data = rng.uniform(size=(n, d))
        weights = rng.integers(1, 5, size=n)
        duplicated = np.repeat(data, weights, axis=0)
        return data, weights, duplicated

    def test_histogram_counts_exact(self):
        data, weights, duplicated = self._weighted_workload()
        weighted = run_histogram_job(
            _chain(), split_records(data, 4), 8, weights=weights.astype(float)
        )
        oracle = run_histogram_job(_chain(), split_records(duplicated, 4), 8)
        for h_w, h_o in zip(weighted, oracle):
            # Integer-valued float64 sums below 2^53 are exact in any order.
            assert np.array_equal(h_w.counts, h_o.counts.astype(float))

    def test_support_counts_exact(self):
        data, weights, duplicated = self._weighted_workload()
        signatures = [
            Signature([Interval(0, 0.1, 0.9)]),
            Signature([Interval(1, 0.0, 0.4), Interval(2, 0.3, 1.0)]),
            Signature([Interval(2, 0.95, 1.0)]),  # exercises near-empty support
        ]
        weighted = run_support_job(
            _chain(), split_records(data, 4), signatures, weights=weights.astype(float)
        )
        oracle = run_support_job(_chain(), split_records(duplicated, 4), signatures)
        assert {s: float(v) for s, v in weighted.items()} == {
            s: float(v) for s, v in oracle.items()
        }

    def test_em_moments_match(self):
        rng = np.random.default_rng(13)
        n = 160
        a = np.clip(rng.normal(0.25, 0.06, size=(n // 2, 2)), 0, 1)
        b = np.clip(rng.normal(0.75, 0.06, size=(n // 2, 2)), 0, 1)
        data = np.concatenate([a, b])
        weights = rng.integers(1, 4, size=n)
        duplicated = np.repeat(data, weights, axis=0)
        cores = TestUnitWeightParity._em_cores()
        weighted = run_em_mr(
            _chain(),
            split_records(data, 3),
            cores,
            n,
            max_iter=4,
            point_weights=weights.astype(float),
        )
        oracle = run_em_mr(
            _chain(),
            split_records(duplicated, 3),
            cores,
            len(duplicated),
            max_iter=4,
        )
        assert np.allclose(weighted.means, oracle.means, atol=1e-6)
        assert np.allclose(weighted.weights, oracle.weights, atol=1e-6)
        # Covariances differ by the Bessel-style small-sample correction:
        # the weighted path's squared-weight term is sum((w*r)^2) while
        # the duplicated data has sum(w*r^2) — identical in the limit,
        # ~1% apart at n=160.
        assert np.allclose(weighted.covariances, oracle.covariances, rtol=0.03)


# -- effective sample size -------------------------------------------------


class TestEffectiveSampleSize:
    def test_unit_weights_give_n(self):
        assert effective_sample_size(np.ones(50)) == pytest.approx(50.0)

    def test_scale_invariant(self):
        w = np.array([1.0, 2.0, 3.0])
        assert effective_sample_size(w) == pytest.approx(
            effective_sample_size(10 * w)
        )

    def test_concentrated_weights_shrink_ess(self):
        w = np.array([100.0, 1.0, 1.0, 1.0])
        assert effective_sample_size(w) < 2.0


# -- full-data assignment job ----------------------------------------------


class TestAssignJob:
    def test_matches_serving_scorer(self, small_dataset):
        driver = P3CPlusMR(
            P3CPlusConfig(outlier_method="mvb"),
            P3CPlusMRConfig(num_splits=4),
        )
        driver.fit(small_dataset.data)
        expected = driver.fitted_model.assign(small_dataset.data).cluster_ids
        splits = split_records(small_dataset.data, 5)
        membership = run_assign_job(
            _chain(), splits, driver.fitted_model, len(small_dataset.data)
        )
        assert np.array_equal(membership, expected)
        # Chunked delivery scores chunk by chunk: same labels, one
        # packed record per chunk.
        rows = 97
        chain = JobChain(MapReduceRuntime(executor="serial"), max_block_rows=rows)
        chunked = run_assign_job(
            chain, splits, driver.fitted_model, len(small_dataset.data)
        )
        assert np.array_equal(chunked, membership)
        counters = chain.steps[-1].result.counters
        assert counters.framework_value(Counters.MAP_OUTPUT_RECORDS) == sum(
            -(-len(split) // rows) for split in splits
        )


# -- driver-level coreset fit ----------------------------------------------


class TestCoresetDriver:
    @pytest.fixture(scope="class")
    def exact_score(self, small_dataset):
        result = P3CPlusMR(
            P3CPlusConfig(outlier_method="mvb"),
            P3CPlusMRConfig(num_splits=4),
        ).fit(small_dataset.data)
        truth = small_dataset.ground_truth_clusters()
        return e4sc_score(result.clusters, truth)

    @pytest.mark.parametrize("mode", SUPPORTED_MODES)
    def test_e4sc_retention(self, small_dataset, exact_score, mode):
        result = P3CPlusMR(
            P3CPlusConfig(outlier_method="mvb"),
            P3CPlusMRConfig(num_splits=4, coreset_size=600, coreset_mode=mode),
        ).fit(small_dataset.data)
        truth = small_dataset.ground_truth_clusters()
        score = e4sc_score(result.clusters, truth)
        assert score >= 0.9 * exact_score

    def test_labels_cover_all_points(self, small_dataset):
        result = P3CPlusMR(
            P3CPlusConfig(outlier_method="mvb"),
            P3CPlusMRConfig(num_splits=4, coreset_size=600),
        ).fit(small_dataset.data)
        n = len(small_dataset.data)
        assert result.n_points == n
        members = np.concatenate(
            [c.members for c in result.clusters] + [result.outliers]
        )
        # Clusters + outliers partition [0, n).
        assert np.array_equal(np.sort(members), np.arange(n))

    def test_coreset_diagnostics_recorded(self, small_dataset):
        driver = P3CPlusMR(
            mr_config=P3CPlusMRConfig(num_splits=4, coreset_size=500)
        )
        result = driver.fit(small_dataset.data)
        info = result.metadata["coreset"]
        assert info["mode"] == "uniform"
        assert info["requested_size"] == 500
        assert 0 < info["size"] <= 520
        assert info["total_weight"] == pytest.approx(1500.0)
        # Timings stay out of result metadata so coreset outputs remain
        # byte-identical across executors and chaos runs.
        assert "build_s" not in info
        # The job ledger includes the final full-data assignment pass.
        assert result.metadata["mr_jobs"] == driver.chain.num_jobs

    def test_coreset_fit_runs_fewer_summary_records(self, small_dataset):
        exact = P3CPlusMR(mr_config=P3CPlusMRConfig(num_splits=4))
        exact.fit(small_dataset.data)
        coreset = P3CPlusMR(
            mr_config=P3CPlusMRConfig(num_splits=4, coreset_size=300)
        )
        coreset.fit(small_dataset.data)
        # EM runs many jobs over m=300 instead of n=1500: the chain's
        # total record traffic must drop despite the two extra scans.
        assert (
            coreset.chain.total_map_input_records()
            < exact.chain.total_map_input_records()
        )

    def test_oversized_coreset_takes_exact_path(self, small_dataset):
        config = P3CPlusConfig(outlier_method="mvb")
        exact = P3CPlusMR(config, P3CPlusMRConfig(num_splits=4)).fit(
            small_dataset.data
        )
        via_coreset = P3CPlusMR(
            config, P3CPlusMRConfig(num_splits=4, coreset_size=10_000)
        ).fit(small_dataset.data)
        assert "coreset" not in via_coreset.metadata
        assert np.array_equal(exact.labels(), via_coreset.labels())

    def test_deterministic_across_runs(self, small_dataset):
        config = P3CPlusMRConfig(num_splits=4, coreset_size=600, coreset_seed=7)
        first = P3CPlusMR(mr_config=config).fit(small_dataset.data)
        second = P3CPlusMR(mr_config=config).fit(small_dataset.data)
        assert np.array_equal(first.labels(), second.labels())
