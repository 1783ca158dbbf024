"""Label blocks: the OD, coreset-assign and Light membership jobs emit
``(rows, labels)`` blocks in the narrowest label dtype, the driver
scatters them into one narrow vector, and the chain keeps no job
output.

The labels must stay the labels the array splits and the serving
scorer give, whatever the row keys, the cluster count or the
checkpoint a run resumes from.
"""

from __future__ import annotations

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.core.p3c_plus import P3CPlusConfig
from repro.core.types import ClusterCore, Interval, IntervalTable, Signature
from repro.data import GeneratorConfig, generate_synthetic
from repro.data.io import result_to_dict
from repro.mapreduce import (
    DistributedCache,
    Job,
    JobChain,
    MapReduceRuntime,
    split_records,
)
from repro.mapreduce import chain as chain_module
from repro.mapreduce.chain import ChainStep
from repro.mapreduce.fs import CheckpointStore, make_npy_splits
from repro.mr import P3CPlusMR, P3CPlusMRConfig, P3CPlusMRLight
from repro.mr.coreset import AssignMapper, run_assign_job
from repro.mr.labels import join_rows, label_dtype, scatter_labels
from repro.mr.light_jobs import run_light_membership_job
from repro.mr.outlier_jobs import run_od_job
from repro.mr.support import build_interval_index
from repro.serving import FittedModel

LABEL_STEPS = ("outlier_detection", "coreset_assign", "light_membership")


def _chain() -> JobChain:
    return JobChain(MapReduceRuntime(executor="serial"))


def _shuffled_splits(data: np.ndarray, num_splits: int = 4) -> list:
    """Hand-built record splits whose row keys run in shuffled order."""
    order = np.random.default_rng(2).permutation(len(data))
    return split_records([(int(i), data[i]) for i in order], num_splits)


def _light_labels(splits, signatures, n) -> tuple[np.ndarray, np.ndarray]:
    """The Light membership job over the index the level-1 proving job
    packs for the signatures' intervals."""
    chain = _chain()
    table = IntervalTable(iv for sig in signatures for iv in sig)
    _, index = build_interval_index(chain, splits, table)
    return run_light_membership_job(chain, index, signatures, n)


@pytest.fixture(scope="module")
def mvb_model(small_dataset) -> FittedModel:
    driver = P3CPlusMR(
        P3CPlusConfig(outlier_method="mvb"), P3CPlusMRConfig(num_splits=4)
    )
    driver.fit(small_dataset.data)
    return driver.fitted_model


# -- the format ------------------------------------------------------------


@pytest.mark.parametrize(
    "clusters, dtype",
    [
        (0, np.int8),
        (1, np.int8),
        (128, np.int8),
        (129, np.int16),
        (1 << 15, np.int16),
        ((1 << 15) + 1, np.int32),
        ((1 << 31) + 1, np.int64),
    ],
)
def test_label_dtype_is_the_narrowest_that_holds_every_id(clusters, dtype):
    assert label_dtype(clusters) == np.dtype(dtype)
    info = np.iinfo(label_dtype(clusters))
    assert info.min <= -1 and clusters - 1 <= info.max


def test_join_rows_keeps_a_range_only_while_rows_run_on():
    assert join_rows([range(0, 3), range(3, 7)]) == range(0, 7)
    gap = join_rows([range(0, 3), range(4, 6)])
    assert gap.dtype == np.int64
    np.testing.assert_array_equal(gap, [0, 1, 2, 4, 5])
    mixed = join_rows([range(5, 7), np.array([1, 0], dtype=np.int64)])
    np.testing.assert_array_equal(mixed, [5, 6, 1, 0])


def test_scatter_labels_writes_ranges_and_key_arrays():
    labels = np.array([[1, 2], [3, -1]], dtype=np.int8)
    output = [
        (0, (range(1, 3), labels)),
        (1, (np.array([4, 0], dtype=np.int64), labels[::-1].copy())),
    ]
    vector = scatter_labels(output, (2, 5), np.dtype(np.int8))
    assert vector.dtype == np.int8
    np.testing.assert_array_equal(vector, [[-1, 1, 2, -1, 3], [2, 3, -1, -1, 1]])


# -- the jobs ----------------------------------------------------------------


@pytest.mark.parametrize("run", [run_od_job, run_assign_job])
def test_assign_jobs_label_shuffled_keys_like_array_splits(
    small_dataset, mvb_model, run
):
    data = small_dataset.data
    n = len(data)
    plain = run(_chain(), split_records(data, 4), mvb_model, n)
    shuffled = run(_chain(), _shuffled_splits(data), mvb_model, n)
    assert plain.dtype == shuffled.dtype == np.int8
    np.testing.assert_array_equal(shuffled, plain)
    np.testing.assert_array_equal(plain, mvb_model.assign(data).cluster_ids)


def test_assign_blocks_carry_a_range_or_the_keys(small_dataset, mvb_model):
    job = Job(
        mapper_factory=AssignMapper,
        cache=DistributedCache({"fitted_model": mvb_model}),
    )
    data = small_dataset.data
    plain = _chain().run("assign", job, split_records(data, 4), num_reducers=0)
    assert join_rows([rows for _, (rows, _) in plain.output]) == range(len(data))
    shuffled = _chain().run("assign", job, _shuffled_splits(data), num_reducers=0)
    for key, (rows, labels) in shuffled.output:
        assert rows.dtype == np.int64 and key == rows[0]
        assert labels.dtype == np.int8 and len(labels) == len(rows)


def test_light_membership_labels_shuffled_keys_like_array_splits(small_dataset):
    data = small_dataset.data
    n = len(data)
    signatures = [cluster.signature for cluster in small_dataset.hidden_clusters]
    plain = _light_labels(split_records(data, 4), signatures, n)
    shuffled = _light_labels(_shuffled_splits(data), signatures, n)
    masks = np.stack([sig.support_mask(data) for sig in signatures], axis=1)
    cover = masks.sum(axis=1)
    first = np.argmax(masks, axis=1)
    expected = (np.where(cover == 1, first, -1), np.where(cover > 0, first, -1))
    for got in (plain, shuffled):
        for labels, want in zip(got, expected):
            assert labels.dtype == np.int8
            np.testing.assert_array_equal(labels, want)


def test_more_than_128_clusters_widen_the_labels(rng):
    k, n = 200, 4_000
    data = rng.uniform(size=(n, 2))
    signatures = [Signature([Interval(0, j / k, (j + 0.5) / k)]) for j in range(k)]
    masks = np.stack([sig.support_mask(data) for sig in signatures], axis=1)
    expected = np.where(masks.any(axis=1), np.argmax(masks, axis=1), -1)
    assert expected.max() > 127

    exclusive, assignment = _light_labels(split_records(data, 3), signatures, n)
    assert exclusive.dtype == assignment.dtype == np.int16
    # Disjoint cores: every covered point is covered once.
    np.testing.assert_array_equal(exclusive, expected)
    np.testing.assert_array_equal(assignment, expected)

    model = FittedModel(
        algorithm="mr-light",
        cores=tuple(
            ClusterCore(sig, int(masks[:, j].sum()), sig.expected_support(n))
            for j, sig in enumerate(signatures)
        ),
        mixture=None,
        od_means=None,
        od_covariances=None,
        od_counts=None,
        outlier_alpha=0.001,
        num_bins=16,
        n_points=n,
        n_dims=2,
    )
    labels = run_assign_job(_chain(), _shuffled_splits(data, 3), model, n)
    assert labels.dtype == np.int16
    np.testing.assert_array_equal(labels, expected)
    np.testing.assert_array_equal(labels, model.assign(data).cluster_ids)


def test_assign_job_holds_about_a_byte_per_point(tiny_dataset, tmp_path):
    """2e5 rows from npy splits under a 64 KiB budget (256-row chunks):
    the blocks and the vector take a byte per point each, and the
    traced peak stays under 4 B per point (int64 blocks and an int64
    vector took 24)."""
    driver = P3CPlusMR(
        P3CPlusConfig(outlier_method="mvb"), P3CPlusMRConfig(num_splits=4)
    )
    driver.fit(tiny_dataset.data)
    data = generate_synthetic(
        GeneratorConfig(
            n=200_000,
            d=tiny_dataset.data.shape[1],
            num_clusters=2,
            noise_fraction=0.1,
            max_cluster_dims=4,
            seed=5,
        )
    ).data
    np.save(tmp_path / "data.npy", data)
    splits, n, _ = make_npy_splits(tmp_path / "data.npy", 8, mode="read")
    model = driver.fitted_model

    def assign() -> np.ndarray:
        chain = JobChain(
            MapReduceRuntime(executor="serial"), memory_budget_bytes=64 << 10
        )
        return run_assign_job(chain, splits, model, n)

    assign()  # scorer caches and lazy imports are not the job's
    tracemalloc.start()
    try:
        labels = assign()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert labels.dtype == np.int8
    np.testing.assert_array_equal(labels, model.assign(data).cluster_ids)
    assert peak <= 4 * n, f"{peak / n:.2f} B per point"


# -- the chain ---------------------------------------------------------------

DRIVERS = {
    "exact": lambda: P3CPlusMR(
        P3CPlusConfig(outlier_method="mvb"), P3CPlusMRConfig(num_splits=4)
    ),
    "coreset": lambda: P3CPlusMR(
        P3CPlusConfig(outlier_method="mvb"),
        P3CPlusMRConfig(num_splits=4, coreset_size=600),
    ),
    "light": lambda: P3CPlusMRLight(mr_config=P3CPlusMRConfig(num_splits=4)),
}


@pytest.mark.parametrize("name", DRIVERS)
def test_chain_keeps_counters_not_outputs(small_dataset, monkeypatch, name):
    """Every step keeps the result the runtime returned, output aside:
    the ledger, the counters and the shuffle totals are those of the
    full results."""
    returned = []
    run = MapReduceRuntime.run

    def spy(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        returned.append(result)
        return result

    monkeypatch.setattr(MapReduceRuntime, "run", spy)
    driver = DRIVERS[name]()
    result = driver.fit(small_dataset.data)
    chain = driver.chain

    assert len(returned) == chain.num_jobs
    assert all(step.result.output == [] for step in chain.steps)
    held = [r for step, r in zip(chain.steps, returned) if step.name in LABEL_STEPS]
    assert held and all(r.output for r in held)
    for step, full in zip(chain.steps, returned):
        assert step.result.conf == full.conf
        assert step.result.counters.snapshot() == full.counters.snapshot()
        assert step.result.map_task_times == full.map_task_times
        assert step.result.events == full.events
    reference = JobChain(MapReduceRuntime())
    reference.steps = [
        ChainStep(step.name, full) for step, full in zip(chain.steps, returned)
    ]
    assert chain.report() == reference.report()
    assert chain.total_shuffle_records == reference.total_shuffle_records
    assert result.metadata["shuffle_records"] == chain.total_shuffle_records


# -- checkpoints written with the old label format -----------------------------


def _int64_rows(rows) -> np.ndarray:
    if isinstance(rows, range):
        return np.arange(rows.start, rows.stop, dtype=np.int64)
    return rows


def _old_label_output(name: str, output: list) -> list:
    """A label job's output as older code wrote it: a ``(2, rows)``
    int64 block per assign chunk, three int64 vectors per Light split."""
    if name == "light_membership":
        return [
            (key, (_int64_rows(rows), *labels.astype(np.int64)))
            for key, (rows, labels) in output
        ]
    return [
        (key, np.stack([_int64_rows(rows), labels.astype(np.int64)]))
        for key, (rows, labels) in output
    ]


@pytest.mark.parametrize("name", ["coreset", "light"])
def test_resume_from_old_label_format_reruns_the_label_jobs(
    small_dataset, tmp_path, monkeypatch, name
):
    def fit(**mr_kwargs) -> tuple:
        driver = DRIVERS[name]()
        driver.mr_config = replace(driver.mr_config, **mr_kwargs)
        result = driver.fit(small_dataset.data)
        return driver.chain, json.dumps(result_to_dict(result), sort_keys=True)

    _, clean = fit()

    # Write the checkpoint as older code did: no format token in the
    # fingerprints, and the old blocks in the label jobs' entries.
    fingerprint = chain_module.chain_fingerprint
    save = CheckpointStore.save

    def old_fingerprint(previous, step, conf, splits):
        extra = {k: v for k, v in conf.extra.items() if k != "label_format"}
        return fingerprint(previous, step, replace(conf, extra=extra), splits)

    def old_save(self, key, fp, output, meta):
        step = key.split("_", 1)[1]
        if step in LABEL_STEPS:
            output = _old_label_output(step, output)
        save(self, key, fp, output, meta)

    with monkeypatch.context() as patch:
        patch.setattr(chain_module, "chain_fingerprint", old_fingerprint)
        patch.setattr(CheckpointStore, "save", old_save)
        fit(checkpoint_dir=str(tmp_path))

    chain, resumed = fit(checkpoint_dir=str(tmp_path), resume=True)
    assert resumed == clean
    executors = [(step.name, step.result.executor) for step in chain.steps]
    first_label = next(
        i for i, (step, _) in enumerate(executors) if step in LABEL_STEPS
    )
    assert first_label > 0
    assert all(ex == "checkpoint" for _, ex in executors[:first_label])
    assert all(ex != "checkpoint" for _, ex in executors[first_label:])
