"""End-to-end equivalence of the MapReduce drivers and serial references.

The MR formulation is *exact* (the paper's headline claim), so:

- cluster cores must be identical signature-for-signature;
- the Light variant's full output must match the serial Light exactly;
- the full pipeline's quality must match the serial P3C+ to tolerance
  (EM partial sums differ only in float association order).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.core.p3c_plus import (
    P3CPlus,
    P3CPlusConfig,
    P3CPlusLight,
    generate_cluster_cores,
)
from repro.data import GeneratorConfig, generate_synthetic
from repro.data.io import result_to_dict
from repro.eval import e4sc_score
from repro.mapreduce.types import split_records
from repro.mr import P3CPlusMR, P3CPlusMRConfig, P3CPlusMRLight
from repro.mr.core_generation import collection_limit, stop_collecting
from repro.obs import Observability


@pytest.fixture(scope="module")
def mr_config() -> P3CPlusMRConfig:
    return P3CPlusMRConfig(num_splits=4)


class TestLightEquivalence:
    def test_cores_identical(self, small_dataset, mr_config):
        serial = P3CPlusLight().fit(small_dataset.data)
        mr = P3CPlusMRLight(mr_config=mr_config).fit(small_dataset.data)
        serial_cores = sorted(
            (c.core.signature for c in serial.clusters),
            key=lambda s: s.intervals,
        )
        mr_cores = sorted(
            (c.core.signature for c in mr.clusters), key=lambda s: s.intervals
        )
        assert serial_cores == mr_cores

    def test_memberships_identical(self, small_dataset, mr_config):
        serial = P3CPlusLight().fit(small_dataset.data)
        mr = P3CPlusMRLight(mr_config=mr_config).fit(small_dataset.data)
        assert np.array_equal(serial.labels(), mr.labels())

    def test_outliers_identical(self, small_dataset, mr_config):
        serial = P3CPlusLight().fit(small_dataset.data)
        mr = P3CPlusMRLight(mr_config=mr_config).fit(small_dataset.data)
        assert np.array_equal(serial.outliers, mr.outliers)

    def test_multi_level_collection_same_cores(self, small_dataset):
        baseline = P3CPlusMRLight(
            mr_config=P3CPlusMRConfig(num_splits=4, multi_level=False)
        ).fit(small_dataset.data)
        multi = P3CPlusMRLight(
            mr_config=P3CPlusMRConfig(num_splits=4, multi_level=True)
        ).fit(small_dataset.data)
        assert sorted(
            (c.core.signature for c in baseline.clusters),
            key=lambda s: s.intervals,
        ) == sorted(
            (c.core.signature for c in multi.clusters),
            key=lambda s: s.intervals,
        )

    def test_multi_level_uses_fewer_proving_jobs(self, small_dataset):
        per_level = P3CPlusMRLight(
            mr_config=P3CPlusMRConfig(num_splits=2, multi_level=False)
        )
        per_level.fit(small_dataset.data)
        collected = P3CPlusMRLight(
            mr_config=P3CPlusMRConfig(num_splits=2, multi_level=True)
        )
        collected.fit(small_dataset.data)
        per_level_jobs = sum(
            1 for s in per_level.chain.steps if s.name == "candidate_proving"
        )
        collected_jobs = sum(
            1 for s in collected.chain.steps if s.name == "candidate_proving"
        )
        assert collected_jobs <= per_level_jobs


@lru_cache(maxsize=None)
def _grid_data(clusters: int, noise: float) -> np.ndarray:
    return generate_synthetic(
        GeneratorConfig(
            n=5_000,
            d=20,
            num_clusters=clusters,
            noise_fraction=noise,
            max_cluster_dims=6,
            seed=11,
        )
    ).data


def _mr_core_phase(data: np.ndarray, num_splits: int, multi_level: bool):
    """The MR driver's own core phase (histogram job, interval
    detection, core generation), without the stages after it: the
    cores and the phase's diagnostics."""
    driver = P3CPlusMRLight(
        mr_config=P3CPlusMRConfig(num_splits=num_splits, multi_level=multi_level)
    )
    driver._begin_run()
    with driver._open_chain() as chain:
        cores, diagnostics, _ = driver._run_core_phase(
            split_records(data, num_splits), len(data), chain
        )
    return cores, diagnostics


class TestCollectionLimit:
    """T_c = ⌊C / rows⌋: levels are collected only while counting them
    over the interval index costs less than one more proving job."""

    def test_limit_scales_inversely_with_index_rows(self):
        assert collection_limit(5_000) == 2_000
        assert collection_limit(200_000) == 50
        assert collection_limit(400_000) == collection_limit(200_000) // 2

    def test_small_indexes_keep_the_5000_row_limit(self):
        assert collection_limit(1_000) == collection_limit(5_000)

    def test_level_two_proven_alone_on_a_large_index(self):
        # 17 relevant intervals join into 133 level-2 candidates (the
        # light_wide plan): above T_c and growing at 2e5 rows, not at 5k.
        assert stop_collecting(133, 133, 17, rows=200_000)
        assert not stop_collecting(133, 133, 17, rows=5_000)

    def test_collection_runs_to_the_end_on_a_small_index(self):
        # Level sizes after level 1 (8 intervals) of a 3-cluster, d = 20
        # data set at 5 000 rows: the batch stays under T_c = 2 000, so
        # it is proven only at the first empty level.
        previous, c_sum = 8, 0
        for count in (27, 50, 55, 36, 13, 2, 0):
            c_sum += count
            assert stop_collecting(c_sum, count, previous, 5_000) == (count == 0)
            previous = count

    def test_large_index_collects_only_shrinking_levels(self):
        # 10^5 rows (T_c = 100): every growing level is proven in its own
        # job, so the plan equals prove-every-level's up to the first
        # level that does not grow, which is generated from proven ones;
        # the batch collected from there yields the same cores.
        data = generate_synthetic(
            GeneratorConfig(
                n=100_000,
                d=20,
                num_clusters=5,
                noise_fraction=0.1,
                max_cluster_dims=6,
                seed=11,
            )
        ).data
        cores, collected = _mr_core_phase(data, 4, multi_level=True)
        per_level_cores, per_level = _mr_core_phase(data, 4, multi_level=False)
        assert cores == per_level_cores
        plan = per_level["candidates_per_level"]
        shrinks = next(j for j in range(1, len(plan)) if plan[j] <= plan[j - 1])
        assert shrinks >= 3
        head = collected["candidates_per_level"][: shrinks + 1]
        assert head == plan[: shrinks + 1]
        assert collected["proving_jobs"] < per_level["proving_jobs"]


class TestCorePhaseParity:
    """Serial P3C+ and P3C+-MR find the same cores: the same intervals,
    supports and expected supports, in the same order."""

    @pytest.mark.parametrize("multi_level", [True, False])
    @pytest.mark.parametrize("num_splits", [1, 7])
    @pytest.mark.parametrize("noise", [0.0, 0.2])
    @pytest.mark.parametrize("clusters", [3, 5, 7])
    def test_same_cores(self, clusters, noise, num_splits, multi_level):
        data = _grid_data(clusters, noise)
        serial, _ = generate_cluster_cores(data, P3CPlusConfig())
        assert serial
        assert _mr_core_phase(data, num_splits, multi_level)[0] == serial


class TestFullEquivalence:
    def test_cores_identical(self, small_dataset, mr_config):
        config = P3CPlusConfig(outlier_method="mvb")
        serial = P3CPlus(config).fit(small_dataset.data)
        mr = P3CPlusMR(config, mr_config).fit(small_dataset.data)
        serial_cores = sorted(
            (c.core.signature for c in serial.clusters),
            key=lambda s: s.intervals,
        )
        mr_cores = sorted(
            (c.core.signature for c in mr.clusters), key=lambda s: s.intervals
        )
        assert serial_cores == mr_cores

    def test_quality_matches_serial(self, small_dataset, mr_config):
        truth = small_dataset.ground_truth_clusters()
        config = P3CPlusConfig(outlier_method="mvb")
        serial = e4sc_score(P3CPlus(config).fit(small_dataset.data).clusters, truth)
        mr = e4sc_score(
            P3CPlusMR(config, mr_config).fit(small_dataset.data).clusters, truth
        )
        assert mr == pytest.approx(serial, abs=0.05)

    def test_naive_variant_runs(self, small_dataset, mr_config):
        config = P3CPlusConfig(outlier_method="naive")
        result = P3CPlusMR(config, mr_config).fit(small_dataset.data)
        assert result.num_clusters >= 1

    def test_job_ledger_recorded(self, small_dataset, mr_config):
        driver = P3CPlusMR(mr_config=mr_config)
        result = driver.fit(small_dataset.data)
        assert result.metadata["mr_jobs"] == driver.chain.num_jobs
        assert result.metadata["mr_jobs"] > 10  # EM alone needs many jobs
        assert driver.chain.total_shuffle_records > 0

    def test_light_runs_fewer_jobs(self, small_dataset, mr_config):
        full = P3CPlusMR(mr_config=mr_config)
        light = P3CPlusMRLight(mr_config=mr_config)
        full_jobs = full.fit(small_dataset.data).metadata["mr_jobs"]
        light_jobs = light.fit(small_dataset.data).metadata["mr_jobs"]
        assert light_jobs < full_jobs


@lru_cache(maxsize=None)
def _shared_data() -> np.ndarray:
    """Data whose Light fit has points shared between cores (40)."""
    return generate_synthetic(
        GeneratorConfig(
            n=5_000,
            d=12,
            num_clusters=4,
            noise_fraction=0.10,
            max_cluster_dims=5,
            seed=0,
        )
    ).data


#: Each driver of the one fit pipeline: (class, outlier method, coreset
#: size, coreset mode).
PIPELINES = {
    "exact_mvb": (P3CPlusMR, "mvb", None, "uniform"),
    "exact_naive": (P3CPlusMR, "naive", None, "uniform"),
    "coreset_uniform": (P3CPlusMR, "mvb", 1_500, "uniform"),
    "coreset_lightweight": (P3CPlusMR, "naive", 1_500, "lightweight"),
    "light": (P3CPlusMRLight, "mvb", None, "uniform"),
}

CORE_STAGES = [("histograms", {}), ("interval_detection", {}), ("core_generation", {})]
INSPECTION_STAGES = [("attribute_inspection", {"prove": True}), ("tightening", {})]

#: The run span and the stage spans under it, in order, with their
#: attributes.
SPANS = {
    "exact_mvb": [("p3c_plus_mr", {"n": 5_000, "d": 12})]
    + CORE_STAGES
    + [("em", {}), ("outlier_detection", {"method": "mvb"})]
    + INSPECTION_STAGES,
    "exact_naive": [("p3c_plus_mr", {"n": 5_000, "d": 12})]
    + CORE_STAGES
    + [("em", {}), ("outlier_detection", {"method": "naive"})]
    + INSPECTION_STAGES,
    "coreset_uniform": [
        ("p3c_plus_mr_coreset", {"n": 5_000, "d": 12}),
        ("coreset_summary", {"mode": "uniform"}),
    ]
    + CORE_STAGES
    + [("em", {"coreset": True}), ("outlier_detection", {"method": "mvb"})]
    + INSPECTION_STAGES
    + [("coreset_assign", {})],
    "coreset_lightweight": [
        ("p3c_plus_mr_coreset", {"n": 5_000, "d": 12}),
        ("coreset_summary", {"mode": "lightweight"}),
    ]
    + CORE_STAGES
    + [("em", {"coreset": True}), ("outlier_detection", {"method": "naive"})]
    + INSPECTION_STAGES
    + [("coreset_assign", {})],
    "light": [("p3c_plus_mr_light", {"n": 5_000, "d": 12})]
    + CORE_STAGES
    + [("light_membership", {})]
    + INSPECTION_STAGES,
}

CORE_PHASE_KEYS = [
    "num_bins",
    "num_relevant_intervals",
    "candidates_per_level",
    "proving_jobs",
    "prove_stats",
    "cores_before_redundancy",
    "cores_after_redundancy",
]


@lru_cache(maxsize=None)
def _pipeline_fit(name: str, coreset_size: int | None = None):
    cls, method, size, mode = PIPELINES[name]
    driver = cls(
        P3CPlusConfig(outlier_method=method),
        P3CPlusMRConfig(
            num_splits=4,
            coreset_size=coreset_size or size,
            coreset_mode=mode,
        ),
        obs=Observability(),
    )
    return driver, driver.fit(_shared_data())


class TestOnePipeline:
    """Every driver runs P3CPlusMR.fit_splits: the same steps in the
    same order, one labelling step apart, and one result assembly."""

    @pytest.mark.parametrize("name", PIPELINES)
    def test_steps_in_order(self, name):
        driver, result = _pipeline_fit(name)
        _, method, size, _ = PIPELINES[name]
        metadata = result.metadata
        if name == "light":
            labelling = ["light_membership"]
        else:
            labelling = ["em_init_support_sums", "em_init_full_sums"]
            labelling += [
                f"em_iter{i}_sums" for i in range(metadata["em_iterations"])
            ]
            if method == "mvb":
                labelling += ["mvb_center_radius", "mvb_moments_sums"]
            labelling.append("outlier_detection")
        proving = driver.obs.metrics.gauge_value("ai.candidate_intervals") > 0
        expected = (
            (["coreset_summary"] if size else [])
            + ["histogram_building"]
            + ["candidate_proving"] * metadata["proving_jobs"]
            + labelling
            + ["attribute_inspection_histograms"]
            + (["ai_proving"] if proving else [])
            + ["interval_tightening"]
            + (["coreset_assign"] if size else [])
        )
        assert [step.name for step in driver.chain.steps] == expected

    @pytest.mark.parametrize("name", PIPELINES)
    def test_run_and_stage_spans(self, name):
        driver, _ = _pipeline_fit(name)
        spans = [
            (
                span.name,
                {k: v for k, v in span.attrs.items() if k != "run_id"},
            )
            for span in driver.obs.tracer.spans
            if span.kind in ("run", "stage")
        ]
        assert spans == SPANS[name]

    @pytest.mark.parametrize("name", PIPELINES)
    def test_metadata_key_order(self, name):
        _, result = _pipeline_fit(name)
        _, _, size, _ = PIPELINES[name]
        expected = list(CORE_PHASE_KEYS)
        if size:
            expected.append("coreset")
        if name != "light":
            expected += ["em_iterations", "moment_jobs"]
        expected += ["mr_jobs", "shuffle_records"]
        assert list(result.metadata) == expected

    @pytest.mark.parametrize("name", PIPELINES)
    def test_outliers_gauge_counts_the_result(self, name):
        driver, result = _pipeline_fit(name)
        gauge = driver.obs.metrics.gauge_value
        assert gauge("outliers.final") == len(result.outliers)
        assert gauge("clusters.found") == len(result.clusters)
        assert result.metadata["mr_jobs"] == driver.chain.num_jobs
        if name == "light":
            # The case the gauge once got wrong: shared points belong to
            # a cluster, not to the outliers.
            assert gauge("light.shared_points") > 0

    def test_light_ignores_coreset_size(self):
        plain_driver, plain = _pipeline_fit("light")
        driver, summarised = _pipeline_fit("light", coreset_size=1_500)
        assert result_to_dict(summarised) == result_to_dict(plain)
        assert [s.name for s in driver.chain.steps] == [
            s.name for s in plain_driver.chain.steps
        ]


class TestDriverEdgeCases:
    def test_uniform_data_yields_no_clusters(self, rng):
        data = rng.uniform(size=(800, 5))
        result = P3CPlusMRLight(
            mr_config=P3CPlusMRConfig(num_splits=3)
        ).fit(data)
        assert result.num_clusters == 0
        assert len(result.outliers) == 800

    def test_unnormalised_data_rejected(self):
        data = np.full((10, 2), 3.5)
        with pytest.raises(ValueError, match="normalis"):
            P3CPlusMRLight().fit(data)

    def test_chain_reset_between_fits(self, small_dataset, mr_config):
        driver = P3CPlusMRLight(mr_config=mr_config)
        first = driver.fit(small_dataset.data).metadata["mr_jobs"]
        second = driver.fit(small_dataset.data).metadata["mr_jobs"]
        assert first == second
