"""Tests for input splitting, grouping, shuffle-volume estimates and
job configuration."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mapreduce.job import group_sorted_pairs, make_sort_key
from repro.mapreduce.types import (
    InputSplit,
    JobConf,
    bucket_nbytes,
    iter_grouped,
    split_records,
)


class TestSplitRecords:
    def test_array_splits_cover_all_rows(self, rng):
        data = rng.uniform(size=(103, 4))
        splits = split_records(data, 7)
        assert sum(len(s) for s in splits) == 103
        seen = sorted(idx for split in splits for idx, _ in split)
        assert seen == list(range(103))

    def test_split_sizes_balanced(self, rng):
        data = rng.uniform(size=(100, 2))
        splits = split_records(data, 8)
        sizes = [len(s) for s in splits]
        assert max(sizes) - min(sizes) <= 1

    def test_rows_match_source(self, rng):
        data = rng.uniform(size=(20, 3))
        splits = split_records(data, 3)
        for split in splits:
            for idx, row in split:
                assert np.array_equal(row, data[idx])

    def test_more_splits_than_records(self):
        data = np.zeros((2, 1))
        splits = split_records(data, 10)
        assert len(splits) == 2

    def test_sequence_input(self):
        records = [(f"k{i}", i) for i in range(10)]
        splits = split_records(records, 3)
        assert sum(len(s) for s in splits) == 10
        assert splits[0].records[0] == ("k0", 0)

    def test_invalid_split_count(self):
        with pytest.raises(ValueError):
            split_records(np.zeros((5, 1)), 0)

    def test_lazy_records_indexing(self, rng):
        data = rng.uniform(size=(10, 2))
        (split,) = split_records(data, 1)
        assert split.records[0][0] == 0
        assert split.records[-1][0] == 9
        with pytest.raises(IndexError):
            split.records[10]

    def test_pickled_split_carries_only_its_rows(self, rng):
        # A split shipped to a process worker must not drag the whole
        # matrix along: 100 000 x 8 in 4 splits is 6.4 MB, a split 1.6 MB.
        data = rng.uniform(size=(100_000, 8))
        splits = split_records(data, 4)
        for split in splits:
            keys, block = split.records.as_block()
            assert len(pickle.dumps(split)) <= block.nbytes + 1024
            restored = pickle.loads(pickle.dumps(split))
            restored_keys, restored_block = restored.records.as_block()
            assert np.array_equal(restored_keys, keys)
            assert np.array_equal(restored_block, data[keys])
            assert restored.records[0][0] == keys[0]

    @given(st.integers(1, 500), st.integers(1, 32))
    def test_cover_property(self, n, k):
        data = np.zeros((n, 1))
        splits = split_records(data, k)
        assert sum(len(s) for s in splits) == n
        assert len(splits) == min(k, n)


class TestGrouping:
    def test_iter_grouped_runs(self):
        pairs = [("a", 1), ("a", 2), ("b", 3), ("a", 4)]
        groups = list(iter_grouped(pairs))
        assert groups == [("a", [1, 2]), ("b", [3]), ("a", [4])]

    def test_group_sorted_pairs_sorts(self):
        pairs = [("b", 1), ("a", 2), ("b", 3)]
        groups = dict(group_sorted_pairs(pairs))
        assert groups == {"a": [2], "b": [1, 3]}

    def test_group_mixed_key_types(self):
        pairs = [(1, "x"), ("a", "y"), (1, "z")]
        groups = dict(group_sorted_pairs(pairs))
        assert groups == {1: ["x", "z"], "a": ["y"]}

    def test_make_sort_key_total_order(self):
        keys = [3, "a", (1, 2), 1.5, None]
        assert sorted(keys, key=make_sort_key)  # must not raise


class TestBucketNbytes:
    def test_nested_arrays_are_priced(self):
        bitmap = np.zeros(100, dtype=np.uint64)
        bare = bucket_nbytes([("k", bitmap)])
        assert bare >= bitmap.nbytes
        assert bucket_nbytes([("k", (bitmap, bitmap))]) >= 2 * bitmap.nbytes
        chunks = [(range(0, 50), bitmap), (np.arange(7), bitmap)]
        assert bucket_nbytes([("k", chunks)]) >= 2 * bitmap.nbytes + 7 * 8

    def test_range_of_row_keys_costs_nothing(self):
        bitmap = np.zeros(100, dtype=np.uint64)
        assert bucket_nbytes([("k", [(range(0, 10**6), bitmap)])]) == (
            bucket_nbytes([("k", bitmap)])
        )


class TestJobConf:
    def test_defaults(self):
        conf = JobConf()
        assert conf.num_reducers == 1

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            JobConf(num_splits=0)
        with pytest.raises(ValueError):
            JobConf(num_reducers=-1)


class TestInputSplit:
    def test_len_and_iter(self):
        split = InputSplit(split_id=0, records=[("a", 1), ("b", 2)])
        assert len(split) == 2
        assert list(split) == [("a", 1), ("b", 2)]
