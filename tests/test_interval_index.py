"""The interval index: the level-1 proving job packs every point's
interval bitmaps once, and every later proving job and the Light
membership job read them instead of the data.

The index must keep every contract the raw-split jobs kept: same
answers, no raw read after level 1, executor and chaos parity, the
out-of-core plane, bitwise weighted supports, and fit labels equal to
the served labels.
"""

from __future__ import annotations

import json
from collections.abc import Sequence

import numpy as np
import pytest

from repro.core.types import Interval, IntervalTable, Signature
from repro.data.io import result_to_dict
from repro.mapreduce import FaultPlan, JobChain, MapReduceRuntime, split_records
from repro.mapreduce.events import EventKind
from repro.mapreduce.fs import make_npy_splits
from repro.mapreduce.types import InputSplit
from repro.mr import P3CPlusMRConfig, P3CPlusMRLight
from repro.mr.aggregate import sum_partials
from repro.mr.rssc import CHUNK_ROWS
from repro.mr.support import build_interval_index, run_support_job
from tests.mr_helpers import count_supports_mr


def _fit(data: np.ndarray, **mr_kwargs) -> tuple[P3CPlusMRLight, str]:
    algo = P3CPlusMRLight(mr_config=P3CPlusMRConfig(num_splits=4, **mr_kwargs))
    result = algo.fit(data)
    return algo, json.dumps(result_to_dict(result), sort_keys=True)


def _core_labels(algo: P3CPlusMRLight, result, n: int) -> np.ndarray:
    """The fit's label per point as an index into the fitted cores."""
    labels = np.full(n, -1, dtype=np.int64)
    for cluster in result.clusters:
        labels[cluster.members] = algo.fitted_model.cores.index(cluster.core)
    return labels


def test_file_backed_light_fit_labels_like_serving(tmp_path):
    """Points drifted 1e-12 past 1 lie in a core touching 1 for every
    counting path: the support job, the membership job and serving."""
    rng = np.random.default_rng(7)
    n, cluster = 20_000, 6_000
    data = rng.uniform(size=(n, 6))
    data[:cluster, 0] = rng.uniform(0.9, 1.0, size=cluster)
    data[:cluster, 1] = rng.uniform(0.2, 0.3, size=cluster)
    data[:50, 0] = 1.0 + 1e-12
    path = tmp_path / "data.npy"
    np.save(path, data)
    splits, n, d = make_npy_splits(path, 4, mode="read")

    algo = P3CPlusMRLight(mr_config=P3CPlusMRConfig(num_splits=4))
    result = algo.fit_splits(splits, n, d)

    fit = _core_labels(algo, result, n)
    served = algo.fitted_model.assign(data).cluster_ids
    assert (fit[:50] >= 0).all()
    np.testing.assert_array_equal(fit, served)


class _CountedRecords(Sequence):
    """Raw split records that log which chain step reads them."""

    def __init__(self, records, steps: list[str], reads: list[int]):
        self._records = records
        self._steps = steps
        self._reads = reads

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):
        self._reads.append(len(self._steps) - 1)
        return self._records[index]

    def as_block(self):
        self._reads.append(len(self._steps) - 1)
        return self._records.as_block()


def test_no_raw_row_read_after_level_one(small_dataset, monkeypatch):
    steps: list[str] = []
    reads: list[int] = []
    run = JobChain.run

    def logged_run(self, name, *args, **kwargs):
        steps.append(name)
        return run(self, name, *args, **kwargs)

    monkeypatch.setattr(JobChain, "run", logged_run)
    data = small_dataset.data
    splits = [
        InputSplit(split.split_id, _CountedRecords(split.records, steps, reads))
        for split in split_records(data, 4)
    ]
    algo = P3CPlusMRLight(mr_config=P3CPlusMRConfig(num_splits=4))
    counted = algo.fit_splits(splits, *data.shape)

    proving = [i for i, name in enumerate(steps) if name == "candidate_proving"]
    assert len(proving) >= 2 and "light_membership" in steps
    read_steps = {steps[i] for i in set(reads)}
    assert proving[0] in reads
    assert not set(proving[1:]) & set(reads)
    assert "light_membership" not in read_steps
    # Each raw-reading step read each split once, as one block.
    assert len(reads) == 4 * len(set(reads))
    _, plain = _fit(data)
    assert json.dumps(result_to_dict(counted), sort_keys=True) == plain


def test_index_keeps_non_consecutive_row_keys(small_dataset):
    """Splits of explicit records in shuffled order: each packed chunk
    keeps its keys as an array, and the fit matches the array splits."""
    data = small_dataset.data
    order = np.random.default_rng(2).permutation(len(data))
    splits = split_records([(int(i), data[i]) for i in order], 4)
    algo = P3CPlusMRLight(mr_config=P3CPlusMRConfig(num_splits=4))
    shuffled = algo.fit_splits(splits, *data.shape)
    level_one = algo.chain.steps[1].result.output
    rows = [
        chunk_rows
        for key, chunks in level_one
        if key != "supports"
        for chunk_rows, _ in chunks
    ]
    assert rows and all(isinstance(keys, np.ndarray) for keys in rows)
    assert json.dumps(result_to_dict(shuffled), sort_keys=True) == _fit(data)[1]


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_executors_give_byte_identical_fits(small_dataset, executor):
    _, serial = _fit(small_dataset.data, executor="serial")
    _, pooled = _fit(small_dataset.data, executor=executor, max_workers=2)
    assert pooled == serial


@pytest.mark.parametrize("seed", [1, 5])
def test_chaos_on_index_jobs_matches_clean_fit(small_dataset, seed):
    spec = ";".join(
        f"map:{kind}:job={job}:p=0.5"
        for job in ("candidate_proving", "light_membership")
        for kind in ("error", "corrupt")
    )
    _, clean = _fit(small_dataset.data)
    algo, chaos = _fit(
        small_dataset.data, fault_plan=FaultPlan.parse(spec, seed=seed)
    )
    assert chaos == clean
    hit = {
        event.job
        for event in algo.chain.runtime.events.events
        if event.kind == EventKind.FAULT_INJECTED
    }
    assert hit == {"candidate_proving", "light_membership"}


def test_one_byte_budget_on_npy_splits_matches_in_heap_fit(
    small_dataset, tmp_path
):
    data = small_dataset.data
    path = tmp_path / "data.npy"
    np.save(path, data)
    splits, n, d = make_npy_splits(path, 4, mode="read")
    algo = P3CPlusMRLight(
        mr_config=P3CPlusMRConfig(num_splits=4, memory_budget_bytes=1)
    )
    budgeted = json.dumps(
        result_to_dict(algo.fit_splits(splits, n, d)), sort_keys=True
    )
    # The budget delivers one row per batch: one packed chunk per point.
    level_one = algo.chain.steps[1]
    assert level_one.name == "candidate_proving"
    index = [
        value for key, value in level_one.result.output if key != "supports"
    ]
    assert [len(chunks) for chunks in index] == [len(split) for split in splits]
    assert budgeted == _fit(data)[1]


def _weighted_fold(splits, signatures, weights, chunk_rows):
    """Weighted supports folded as the raw-split support job folded
    them: per split and per packed chunk of ``chunk_rows`` rows, the
    sum of the weights under each support mask; chunks accumulate in
    order and splits sum in task order."""
    partials = []
    for split in splits:
        keys, block = split.records.as_block()
        counts = np.zeros(len(signatures))
        for start in range(0, len(block), chunk_rows):
            chunk = np.clip(block[start : start + chunk_rows], 0.0, 1.0)
            chunk_weights = weights[keys[start : start + chunk_rows]]
            for j, sig in enumerate(signatures):
                bits = sig.support_mask(chunk).astype(np.uint8)
                counts[j] += (bits[None, :] * chunk_weights).sum(axis=1)[0]
        partials.append(counts)
    return [float(value).hex() for value in sum_partials(partials)]


def test_weighted_supports_fold_bitwise_as_before():
    """Float weights over splits longer than two packed chunks: the
    index keeps the packing chunks, so every later job folds a
    candidate's weighted support in the same order as the raw-split
    support job did."""
    rng = np.random.default_rng(3)
    n = 2 * (2 * CHUNK_ROWS + 5_000)
    data = rng.uniform(size=(n, 3))
    weights = rng.lognormal(0.0, 3.0, size=n)
    signatures = [
        Signature([Interval(0, 0.1, 0.7)]),
        Signature([Interval(0, 0.1, 0.7), Interval(1, 0.0, 0.45)]),
        Signature([Interval(1, 0.3, 1.0), Interval(2, 0.2, 0.9)]),
    ]
    splits = split_records(data, 2)
    supports = count_supports_mr(
        JobChain(MapReduceRuntime()), splits, signatures, weights
    )
    expected = _weighted_fold(splits, signatures, weights, CHUNK_ROWS)
    assert [supports[sig].hex() for sig in signatures] == expected
    # The data tells fold orders apart: one chunk per split rounds
    # differently.
    assert _weighted_fold(splits, signatures, weights, n) != expected


def test_index_holds_one_bit_per_interval_per_point(tiny_dataset):
    data = tiny_dataset.data
    table = IntervalTable(
        Interval(a, lo, lo + 0.25) for a in range(3) for lo in (0.0, 0.5)
    )
    chain = JobChain(MapReduceRuntime())
    supports, index = build_interval_index(chain, split_records(data, 3), table)
    assert [split.split_id for split in index.splits] == [0, 1, 2]
    rows = []
    for split in index.splits:
        ((key, chunks),) = split.records
        assert key == ("index", split.split_id)
        for chunk_rows, words in chunks:
            assert isinstance(chunk_rows, range)
            assert words.dtype == np.uint64
            assert words.shape == (len(table), -(-len(chunk_rows) // 64))
            rows.extend(chunk_rows)
    assert rows == list(range(len(data)))
    for k, interval in enumerate(table.intervals):
        assert supports[1 << k] == Signature([interval]).support(data)
    # A later batch reads the index, not the data.
    pair = (1 << 0) | (1 << 2)
    assert run_support_job(chain, index, [pair]) == {
        pair: table.decode(pair).support(data)
    }
