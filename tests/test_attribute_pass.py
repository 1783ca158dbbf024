"""The attribute-inspection pass: per-cluster histograms, the member
extremes interval tightening reads, and AI proving.

Both jobs add each delivered chunk to their split's partials, so a
memory budget must not change a count, an extreme or a shuffled pair;
and a checkpoint of the older bare count matrices must re-run the
histogram step rather than restore into the new unpacking.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.p3c_plus import P3CPlusConfig
from repro.core.types import Interval
from repro.data.io import result_to_dict
from repro.mapreduce import JobChain, MapReduceRuntime, split_records
from repro.mapreduce import chain as chain_module
from repro.mapreduce.fs import CheckpointStore, make_npy_splits
from repro.mr import P3CPlusMR, P3CPlusMRConfig, P3CPlusMRLight
from repro.mr.attribute_jobs import (
    AIProvingMapper,
    ClusterHistogramMapper,
    run_ai_proving_job,
    run_cluster_histogram_job,
)

HISTOGRAM_STEP = "attribute_inspection_histograms"


def _candidates(data, membership) -> list[tuple[int, Interval]]:
    """The middle half of each cluster's members on two attributes."""
    candidates = []
    for cid in (0, 1, 2):
        for attribute in (cid, cid + 3):
            values = data[membership == cid, attribute]
            lo, hi = np.quantile(values, [0.25, 0.75])
            candidates.append((cid, Interval(attribute, float(lo), float(hi))))
    return candidates


def _inspection_jobs(splits, membership, candidates, budget=None):
    """Both jobs over ``splits``: histograms, extremes, supports and
    each step's shuffle records."""
    chain = JobChain(MapReduceRuntime(executor="serial"), memory_budget_bytes=budget)
    histograms, extremes = run_cluster_histogram_job(
        chain, splits, membership, {0: 9, 1: 5, 2: 3}
    )
    supports = run_ai_proving_job(chain, splits, membership, candidates)
    shuffled = [step.shuffle_records for step in chain.steps]
    return histograms, extremes, supports, shuffled


def test_chunked_delivery_matches_whole_split(tmp_path, tiny_dataset, monkeypatch):
    """npy splits delivered 7 rows at a time give the in-memory
    whole-split results, pair for pair."""
    data = tiny_dataset.data
    path = tmp_path / "data.npy"
    np.save(path, data)
    npy_splits, _, _ = make_npy_splits(path, 4)
    # A budget of four 7-row chunks delivers 7 rows at a time.
    budget = 4 * 7 * npy_splits[0].records.row_nbytes
    membership = tiny_dataset.labels.astype(np.int8)
    membership[:5] = 2  # a cluster with members in the first split only
    candidates = _candidates(data, membership)

    chunk_rows: list[int] = []
    for cls in (ClusterHistogramMapper, AIProvingMapper):

        def spy(self, keys, block, context, map_batch=cls.map_batch):
            chunk_rows.append(len(keys))
            map_batch(self, keys, block, context)

        monkeypatch.setattr(cls, "map_batch", spy)

    streamed = _inspection_jobs(npy_splits, membership, candidates, budget)
    assert max(chunk_rows) == 7
    chunk_rows.clear()
    whole = _inspection_jobs(split_records(data, 4), membership, candidates)
    assert max(chunk_rows) == 150

    histograms, extremes, supports, shuffled = streamed
    assert histograms.keys() == whole[0].keys() == {0, 1, 2}
    for cid, cluster_histograms in histograms.items():
        for mine, theirs in zip(cluster_histograms, whole[0][cid]):
            assert mine.attribute == theirs.attribute
            assert np.array_equal(mine.counts, theirs.counts)
    assert extremes.keys() == whole[1].keys()
    for cid, (mins, maxs) in extremes.items():
        members = data[membership == cid]
        assert np.array_equal(mins, whole[1][cid][0])
        assert np.array_equal(maxs, whole[1][cid][1])
        assert np.array_equal(mins, members.min(axis=0))
        assert np.array_equal(maxs, members.max(axis=0))
    assert supports == whole[2]
    assert all(count > 0 for count in supports.values())
    assert shuffled == whole[3]
    # Clusters 0 and 1 reach every split, cluster 2 the first only.
    assert shuffled == [4 + 4 + 1, 2 * 4 + 2 * 4 + 2]


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
def test_resume_from_bare_count_matrices_reruns_the_histogram_step(
    small_dataset, tmp_path, monkeypatch, name
):
    def fit(**mr_kwargs) -> tuple:
        driver = DRIVERS[name]()
        driver.mr_config = replace(driver.mr_config, **mr_kwargs)
        result = driver.fit(small_dataset.data)
        return driver.chain, json.dumps(result_to_dict(result), sort_keys=True)

    _, clean = fit()

    # Write the checkpoint as older code did: no format token in the
    # fingerprints, and a bare (d, m) count matrix per cluster.
    fingerprint = chain_module.chain_fingerprint
    save = CheckpointStore.save

    def old_fingerprint(previous, step, conf, splits):
        extra = {k: v for k, v in conf.extra.items() if k != "histogram_format"}
        return fingerprint(previous, step, replace(conf, extra=extra), splits)

    def old_save(self, key, fp, output, meta):
        if key.split("_", 1)[1] == HISTOGRAM_STEP:
            output = [(cid, counts) for cid, (counts, _, _) in output]
        save(self, key, fp, output, meta)

    with monkeypatch.context() as patch:
        patch.setattr(chain_module, "chain_fingerprint", old_fingerprint)
        patch.setattr(CheckpointStore, "save", old_save)
        fit(checkpoint_dir=str(tmp_path))

    chain, resumed = fit(checkpoint_dir=str(tmp_path), resume=True)
    assert resumed == clean
    names = [step.name for step in chain.steps]
    first = names.index(HISTOGRAM_STEP)
    assert first > 0
    assert all(step.restored for step in chain.steps[:first])
    assert not any(step.restored for step in chain.steps[first:])
