"""Tests for file-backed CSV input splits (larger-than-memory path)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data.io import result_to_dict, save_dataset_csv
from repro.mapreduce.fs import make_csv_splits
from repro.mapreduce.types import split_records
from repro.mr import P3CPlusMRConfig, P3CPlusMRLight


@pytest.fixture()
def csv_file(tmp_path, tiny_dataset):
    path = tmp_path / "data.csv"
    save_dataset_csv(path, tiny_dataset.data)
    return path


class TestCSVSplits:
    def test_dimensions_detected(self, csv_file, tiny_dataset):
        splits, n, d = make_csv_splits(csv_file, 4)
        assert n == len(tiny_dataset.data)
        assert d == tiny_dataset.data.shape[1]

    def test_records_match_source(self, csv_file, tiny_dataset):
        splits, _, _ = make_csv_splits(csv_file, 4)
        for split in splits:
            for idx, row in split:
                assert np.allclose(row, tiny_dataset.data[idx], atol=1e-8)

    def test_all_rows_covered_exactly_once(self, csv_file, tiny_dataset):
        splits, n, _ = make_csv_splits(csv_file, 7)
        seen = sorted(idx for split in splits for idx, _ in split)
        assert seen == list(range(n))

    def test_single_split(self, csv_file, tiny_dataset):
        splits, n, _ = make_csv_splits(csv_file, 1)
        assert len(splits) == 1
        assert len(splits[0]) == n

    def test_more_splits_than_rows(self, tmp_path):
        path = tmp_path / "small.csv"
        save_dataset_csv(path, np.array([[0.1, 0.2], [0.3, 0.4]]))
        splits, n, _ = make_csv_splits(path, 10)
        assert n == 2
        assert sum(len(s) for s in splits) == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            make_csv_splits(path, 2)

    def test_invalid_split_count(self, csv_file):
        with pytest.raises(ValueError):
            make_csv_splits(csv_file, 0)

    def test_streams_are_reiterable(self, csv_file):
        """Tasks may be retried: a split must be consumable repeatedly."""
        splits, _, _ = make_csv_splits(csv_file, 3)
        first = [idx for idx, _ in splits[0]]
        second = [idx for idx, _ in splits[0]]
        assert first == second

    def test_getitem(self, csv_file, tiny_dataset):
        splits, _, _ = make_csv_splits(csv_file, 3)
        idx, row = splits[0].records[0]
        assert np.allclose(row, tiny_dataset.data[idx], atol=1e-8)
        with pytest.raises(IndexError):
            splits[0].records[len(splits[0])]


class TestFileBackedClustering:
    def test_csv_equals_in_memory_clustering(self, csv_file, tiny_dataset):
        """The headline property: clustering from file-backed splits is
        identical to clustering the in-memory matrix."""
        csv_splits, n, d = make_csv_splits(csv_file, 4)
        from_file = P3CPlusMRLight(
            mr_config=P3CPlusMRConfig(num_splits=4)
        ).fit_splits(csv_splits, n, d)

        from_memory = P3CPlusMRLight(
            mr_config=P3CPlusMRConfig(num_splits=4)
        ).fit(tiny_dataset.data)

        assert from_file.num_clusters == from_memory.num_clusters
        assert np.array_equal(from_file.labels(), from_memory.labels())

    def test_fit_splits_with_memory_splits(self, tiny_dataset):
        splits = split_records(tiny_dataset.data, 4)
        n, d = tiny_dataset.data.shape
        result = P3CPlusMRLight(
            mr_config=P3CPlusMRConfig(num_splits=4)
        ).fit_splits(splits, n, d)
        direct = P3CPlusMRLight(
            mr_config=P3CPlusMRConfig(num_splits=4)
        ).fit(tiny_dataset.data)
        assert np.array_equal(result.labels(), direct.labels())


class TestCSVHardening:
    """Regression coverage for the CSV stream failure modes."""

    def _one_split(self, path):
        splits, _, _ = make_csv_splits(path, 1)
        return splits[0].records

    def test_truncated_file_raises_on_iter(self, csv_file):
        records = self._one_split(csv_file)
        with open(csv_file, "r+b") as handle:
            handle.truncate(csv_file.stat().st_size // 2)
        with pytest.raises(ValueError, match="truncated CSV input"):
            list(records)

    def test_truncated_file_raises_on_as_block(self, csv_file):
        records = self._one_split(csv_file)
        with open(csv_file, "r+b") as handle:
            handle.truncate(csv_file.stat().st_size // 2)
        with pytest.raises(ValueError, match="truncated CSV input"):
            records.as_block()

    def test_truncated_file_raises_on_iter_blocks(self, csv_file):
        records = self._one_split(csv_file)
        with open(csv_file, "r+b") as handle:
            handle.truncate(csv_file.stat().st_size // 2)
        with pytest.raises(ValueError, match="truncated CSV input"):
            for _ in records.iter_blocks(8):
                pass

    def test_truncation_error_names_file_and_offset(self, csv_file):
        records = self._one_split(csv_file)
        keep = csv_file.stat().st_size // 2
        with open(csv_file, "r+b") as handle:
            handle.truncate(keep)
        with pytest.raises(ValueError) as err:
            list(records)
        message = str(err.value)
        assert str(csv_file) in message
        assert "byte" in message

    def test_malformed_field_error_carries_context(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"0.1,0.2\n0.3,oops\n0.5,0.6\n")
        splits, _, _ = make_csv_splits(path, 1)
        with pytest.raises(ValueError) as err:
            list(splits[0].records)
        message = str(err.value)
        assert "malformed CSV record" in message
        assert str(path) in message
        assert "row 1" in message
        assert "byte offset 8" in message
        assert "oops" in message

    def test_getitem_opens_file_once_per_access(
        self, csv_file, monkeypatch
    ):
        """Random access must not rescan the range: the offset index is
        built once, then every access is one open + one seek."""
        import repro.mapreduce.fs as fs_mod

        records = self._one_split(csv_file)
        opens = []
        real_open = open

        def counting_open(*args, **kwargs):
            opens.append(args[0])
            return real_open(*args, **kwargs)

        monkeypatch.setattr(fs_mod, "open", counting_open, raising=False)
        records[10]  # first access builds the offset index (+1 open)
        assert len(opens) == 2
        records[500]
        records[0]
        records[250]
        assert len(opens) == 5


@pytest.fixture()
def npy_file(tmp_path, tiny_dataset):
    path = tmp_path / "data.npy"
    np.save(path, tiny_dataset.data)
    return path


class TestNpySplits:
    @pytest.mark.parametrize("mode", ["read", "mmap"])
    def test_records_match_source(self, npy_file, tiny_dataset, mode):
        from repro.mapreduce.fs import make_npy_splits

        splits, n, d = make_npy_splits(npy_file, 4, mode=mode)
        assert (n, d) == tiny_dataset.data.shape
        for split in splits:
            for idx, row in split:
                assert np.array_equal(row, tiny_dataset.data[idx])

    @pytest.mark.parametrize("mode", ["read", "mmap"])
    def test_all_rows_covered_exactly_once(self, npy_file, mode):
        from repro.mapreduce.fs import make_npy_splits

        splits, n, _ = make_npy_splits(npy_file, 7, mode=mode)
        seen = sorted(idx for split in splits for idx, _ in split)
        assert seen == list(range(n))

    @pytest.mark.parametrize("mode", ["read", "mmap"])
    def test_iter_blocks_concat_equals_as_block(
        self, npy_file, tiny_dataset, mode
    ):
        from repro.mapreduce.fs import make_npy_splits

        splits, _, _ = make_npy_splits(npy_file, 3, mode=mode)
        for split in splits:
            keys, block = split.records.as_block()
            chunks = list(split.records.iter_blocks(5))
            assert max(len(k) for k, _ in chunks) <= 5
            assert np.array_equal(
                np.concatenate([k for k, _ in chunks]), keys
            )
            assert np.array_equal(
                np.concatenate([b for _, b in chunks]), block
            )

    def test_csv_iter_blocks_concat_equals_as_block(self, csv_file):
        splits, _, _ = make_csv_splits(csv_file, 3)
        for split in splits:
            keys, block = split.records.as_block()
            chunks = list(split.records.iter_blocks(5))
            assert np.array_equal(
                np.concatenate([k for k, _ in chunks]), keys
            )
            assert np.array_equal(
                np.concatenate([b for _, b in chunks]), block
            )

    def test_getitem(self, npy_file, tiny_dataset):
        from repro.mapreduce.fs import make_npy_splits

        splits, _, _ = make_npy_splits(npy_file, 3)
        records = splits[1].records
        idx, row = records[0]
        assert np.array_equal(row, tiny_dataset.data[idx])
        idx, row = records[-1]
        assert np.array_equal(row, tiny_dataset.data[idx])
        with pytest.raises(IndexError):
            records[len(records)]

    def test_mmap_stream_survives_pickling(self, npy_file, tiny_dataset):
        """Process-executor transport: the cached memmap view must be
        dropped on pickle and lazily reopened on the other side."""
        import pickle

        from repro.mapreduce.fs import make_npy_splits

        splits, _, _ = make_npy_splits(npy_file, 2, mode="mmap")
        records = splits[0].records
        records.as_block()  # populate the memmap cache
        clone = pickle.loads(pickle.dumps(records))
        keys, block = clone.as_block()
        assert np.array_equal(block, tiny_dataset.data[keys])

    def test_truncated_npy_raises(self, npy_file):
        from repro.mapreduce.fs import make_npy_splits

        splits, _, _ = make_npy_splits(npy_file, 1, mode="read")
        with open(npy_file, "r+b") as handle:
            handle.truncate(npy_file.stat().st_size // 2)
        with pytest.raises(ValueError, match="truncated npy input"):
            splits[0].records.as_block()

    def test_rejects_non_2d(self, tmp_path):
        from repro.mapreduce.fs import make_npy_splits

        path = tmp_path / "vec.npy"
        np.save(path, np.arange(10.0))
        with pytest.raises(ValueError, match="2-D"):
            make_npy_splits(path, 2)

    def test_rejects_fortran_order(self, tmp_path, tiny_dataset):
        from repro.mapreduce.fs import make_npy_splits

        path = tmp_path / "fortran.npy"
        np.save(path, np.asfortranarray(tiny_dataset.data))
        with pytest.raises(ValueError, match="row-major"):
            make_npy_splits(path, 2)

    def test_rejects_empty_matrix(self, tmp_path):
        from repro.mapreduce.fs import make_npy_splits

        path = tmp_path / "empty.npy"
        np.save(path, np.empty((0, 3)))
        with pytest.raises(ValueError, match="no data rows"):
            make_npy_splits(path, 2)

    def test_rejects_unknown_mode(self, npy_file):
        from repro.mapreduce.fs import make_npy_splits

        with pytest.raises(ValueError, match="mode"):
            make_npy_splits(npy_file, 2, mode="bogus")

    @pytest.mark.parametrize("mode", ["read", "mmap"])
    def test_npy_equals_in_memory_clustering(
        self, npy_file, tiny_dataset, mode
    ):
        from repro.mapreduce.fs import make_npy_splits

        splits, n, d = make_npy_splits(npy_file, 4, mode=mode)
        from_file = P3CPlusMRLight(
            mr_config=P3CPlusMRConfig(num_splits=4)
        ).fit_splits(splits, n, d)
        from_memory = P3CPlusMRLight(
            mr_config=P3CPlusMRConfig(num_splits=4)
        ).fit(tiny_dataset.data)
        assert from_file.num_clusters == from_memory.num_clusters
        assert np.array_equal(from_file.labels(), from_memory.labels())


class TestOutOfCoreClustering:
    """Bounded-memory delivery must not change the answer."""

    def test_chunked_delivery_matches_whole_split(
        self, csv_file, tiny_dataset
    ):
        splits, n, d = make_csv_splits(csv_file, 4)
        # A budget of four 7-row chunks delivers 7 rows at a time.
        budget = 4 * 7 * splits[0].records.row_nbytes
        chunked = P3CPlusMRLight(
            mr_config=P3CPlusMRConfig(num_splits=4, memory_budget_bytes=budget)
        ).fit_splits(splits, n, d)
        whole = P3CPlusMRLight(
            mr_config=P3CPlusMRConfig(num_splits=4)
        ).fit(tiny_dataset.data)
        assert np.array_equal(chunked.labels(), whole.labels())

    def test_memory_budget_matches_in_memory(self, csv_file, tiny_dataset):
        """Budget-derived chunking of file-backed splits reproduces the
        in-memory clustering."""
        splits, n, d = make_csv_splits(csv_file, 4)
        bounded = P3CPlusMRLight(
            mr_config=P3CPlusMRConfig(num_splits=4, memory_budget_bytes=4096)
        ).fit_splits(splits, n, d)
        in_memory = P3CPlusMRLight(
            mr_config=P3CPlusMRConfig(num_splits=4)
        ).fit(tiny_dataset.data)
        assert bounded.num_clusters == in_memory.num_clusters
        assert np.array_equal(bounded.labels(), in_memory.labels())

    @pytest.mark.parametrize("coreset_size", [None, 400], ids=["mvb", "coreset"])
    def test_one_byte_budget_on_npy_splits_matches_in_heap_fit(
        self, small_dataset, tmp_path, coreset_size
    ):
        """The exact (MVB) and coreset drivers fitted from npy splits
        delivered one row per batch return the in-heap fit's result."""
        from repro.mapreduce.fs import make_npy_splits
        from repro.mr import P3CPlusMR

        def fit(**mr_kwargs):
            return P3CPlusMR(
                mr_config=P3CPlusMRConfig(
                    num_splits=4, coreset_size=coreset_size, **mr_kwargs
                )
            )

        path = tmp_path / "data.npy"
        np.save(path, small_dataset.data)
        splits, n, d = make_npy_splits(path, 4, mode="read")
        budgeted = fit(memory_budget_bytes=1).fit_splits(splits, n, d)
        in_heap = fit().fit(small_dataset.data)
        assert json.dumps(result_to_dict(budgeted), sort_keys=True) == json.dumps(
            result_to_dict(in_heap), sort_keys=True
        )


class TestNonFiniteRows:
    """File-backed splits reach the chain unvalidated, so the first full
    scan (the histogram job, or the coreset summary on the coreset
    path) rejects non-finite rows by name, as in-memory ``fit`` does."""

    def _driver(self, kind: str):
        from repro.mr import P3CPlusMR

        if kind == "light":
            return P3CPlusMRLight(mr_config=P3CPlusMRConfig(num_splits=4))
        coreset_size = 200 if kind == "coreset" else None
        return P3CPlusMR(
            mr_config=P3CPlusMRConfig(num_splits=4, coreset_size=coreset_size)
        )

    @pytest.mark.parametrize("kind", ["full", "light", "coreset"])
    @pytest.mark.parametrize("row, value", [(7, np.nan), (411, np.inf)])
    def test_npy_split_with_non_finite_row_is_rejected(
        self, tmp_path, tiny_dataset, kind, row, value
    ):
        from repro.mapreduce import TaskFailedError
        from repro.mapreduce.fs import make_npy_splits

        data = tiny_dataset.data.copy()
        data[row, 2] = value
        path = tmp_path / "bad.npy"
        np.save(path, data)
        splits, n, d = make_npy_splits(path, 4, mode="read")
        with pytest.raises(TaskFailedError) as excinfo:
            self._driver(kind).fit_splits(splits, n, d)
        cause = excinfo.value.cause
        assert isinstance(cause, ValueError)
        assert f"input row {row} has a non-finite value" in str(cause)

    def test_finite_values_just_outside_unit_range_still_clamp(
        self, tmp_path, tiny_dataset
    ):
        from repro.mapreduce.fs import make_npy_splits

        data = tiny_dataset.data.copy()
        data[7, :] = 1.0 + 1e-12
        data[8, :] = -1e-12
        path = tmp_path / "edge.npy"
        np.save(path, data)
        splits, n, d = make_npy_splits(path, 4, mode="read")
        from_file = self._driver("light").fit_splits(splits, n, d)
        clipped = self._driver("light").fit(np.clip(data, 0.0, 1.0))
        assert np.array_equal(from_file.labels(), clipped.labels())
