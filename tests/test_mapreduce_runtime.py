"""Tests for the MapReduce runtime: golden wordcount, partitioners,
counters, map-only jobs and executor equivalence."""

from __future__ import annotations

from typing import Any

import numpy as np
import pytest

from repro.mapreduce import (
    BatchMapper,
    Context,
    Counters,
    DistributedCache,
    HashPartitioner,
    Job,
    JobChain,
    JobConf,
    Mapper,
    MapReduceRuntime,
    Partitioner,
    Reducer,
)
from repro.mapreduce.types import InputSplit, split_records


class WordCountMapper(Mapper):
    def map(self, key: Any, value: str, context: Context) -> None:
        for word in value.split():
            context.emit(word, 1)


class SumReducer(Reducer):
    def reduce(self, key: Any, values: list[int], context: Context) -> None:
        context.emit(key, sum(values))


def _text_splits() -> list[InputSplit]:
    lines = [
        (0, "the quick brown fox"),
        (1, "the lazy dog"),
        (2, "the quick dog"),
        (3, "fox and dog and fox"),
    ]
    return split_records(lines, 2)


EXPECTED_COUNTS = {
    "the": 3,
    "quick": 2,
    "brown": 1,
    "fox": 3,
    "lazy": 1,
    "dog": 3,
    "and": 2,
}


class TestWordCount:
    def test_golden_output(self):
        runtime = MapReduceRuntime()
        job = Job(mapper_factory=WordCountMapper, reducer_factory=SumReducer)
        result = runtime.run(job, _text_splits(), JobConf(num_reducers=1))
        assert result.as_dict() == EXPECTED_COUNTS

    def test_multiple_reducers_same_result(self):
        runtime = MapReduceRuntime()
        job = Job(mapper_factory=WordCountMapper, reducer_factory=SumReducer)
        result = runtime.run(job, _text_splits(), JobConf(num_reducers=4))
        assert result.as_dict() == EXPECTED_COUNTS


class TestMapOnly:
    def test_zero_reducers_passes_map_output_through(self):
        runtime = MapReduceRuntime()
        job = Job(mapper_factory=WordCountMapper)
        result = runtime.run(job, _text_splits(), JobConf(num_reducers=0))
        assert sorted(k for k, _ in result.output)[:2] == ["and", "and"]
        assert len(result.output) == sum(EXPECTED_COUNTS.values())


class TestCounters:
    def test_record_accounting(self):
        runtime = MapReduceRuntime()
        job = Job(mapper_factory=WordCountMapper, reducer_factory=SumReducer)
        result = runtime.run(job, _text_splits(), JobConf())
        fw = result.counters
        assert fw.framework_value(Counters.MAP_INPUT_RECORDS) == 4
        assert fw.framework_value(Counters.MAP_OUTPUT_RECORDS) == 15
        assert fw.framework_value(Counters.REDUCE_OUTPUT_RECORDS) == len(
            EXPECTED_COUNTS
        )

    def test_counters_merge(self):
        a, b = Counters(), Counters()
        a.increment("g", "x", 2)
        b.increment("g", "x", 3)
        a.merge(b)
        assert a.value("g", "x") == 5

    def test_negative_increment_rejected(self):
        counters = Counters()
        with pytest.raises(ValueError):
            counters.increment("g", "x", -1)

    def test_chain_steps_total_counters(self):
        chain = JobChain(MapReduceRuntime())
        job = Job(mapper_factory=WordCountMapper, reducer_factory=SumReducer)
        chain.run("wc1", job, _text_splits())
        chain.run("wc2", job, _text_splits())
        assert chain.total_map_input_records() == 8
        assert chain.num_jobs == 2


class TestPartitioner:
    def test_hash_partitioner_stable(self):
        partitioner = HashPartitioner()
        assert partitioner.partition("abc", 7) == partitioner.partition("abc", 7)
        assert 0 <= partitioner.partition(("a", 3), 5) < 5
        assert 0 <= partitioner.partition(3.25, 5) < 5
        assert partitioner.partition(None, 3) == 0

    def test_out_of_range_partition_rejected(self):
        # Partitioning is map-side: a broken partitioner fails the map
        # task deterministically, exhausting its retries.
        from repro.mapreduce import TaskFailedError

        class BrokenPartitioner(Partitioner):
            def partition(self, key: Any, num_partitions: int) -> int:
                return num_partitions  # off by one

        runtime = MapReduceRuntime()
        job = Job(
            mapper_factory=WordCountMapper,
            reducer_factory=SumReducer,
            partitioner=BrokenPartitioner(),
        )
        with pytest.raises(TaskFailedError) as info:
            runtime.run(job, _text_splits(), JobConf(num_reducers=2))
        assert isinstance(info.value.cause, ValueError)
        assert "partitioner" in str(info.value.cause)

    def test_numpy_scalar_keys_hash_like_python_scalars(self):
        """Regression: ``np.int64(5)`` must land in the partition of
        ``5`` — the stable hash once fell through to ``repr()``
        ("np.int64(5)"), splitting mixed-type keys across reducers."""
        partitioner = HashPartitioner()
        for num_partitions in (3, 5, 17):
            for np_key, py_key in [
                (np.int64(5), 5),
                (np.int32(-2), -2),
                (np.float64(3.25), 3.25),
                (np.str_("abc"), "abc"),
                ((np.int64(2), "x"), (2, "x")),
            ]:
                assert partitioner.partition(
                    np_key, num_partitions
                ) == partitioner.partition(py_key, num_partitions)


class TestMultiprocess:
    def test_process_pool_matches_serial(self):
        serial = MapReduceRuntime()
        parallel = MapReduceRuntime(max_workers=2)
        job = Job(mapper_factory=WordCountMapper, reducer_factory=SumReducer)
        a = serial.run(job, _text_splits(), JobConf())
        b = parallel.run(job, _text_splits(), JobConf())
        assert a.as_dict() == b.as_dict()

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            MapReduceRuntime(max_workers=0)


class TestCacheAndContext:
    def test_cache_is_read_only(self):
        cache = DistributedCache({"a": 1})
        with pytest.raises(TypeError):
            cache["b"] = 2  # type: ignore[index]

    def test_missing_entry_names_available_keys(self):
        cache = DistributedCache({"a": 1})
        with pytest.raises(KeyError, match="available"):
            cache["missing"]

    def test_with_entries_copy_on_write(self):
        cache = DistributedCache({"a": 1})
        extended = cache.with_entries(b=2)
        assert "b" not in cache
        assert extended["b"] == 2
        assert extended["a"] == 1

    def test_duplicate_output_keys_rejected_in_as_dict(self):
        runtime = MapReduceRuntime()
        job = Job(mapper_factory=WordCountMapper)
        result = runtime.run(job, _text_splits(), JobConf(num_reducers=0))
        with pytest.raises(ValueError, match="duplicate"):
            result.as_dict()


class _ProbeBatchMapper(BatchMapper):
    """Records how the runtime fed it: batch calls vs per-row map()."""

    def setup(self, context: Context) -> None:
        self.batch_sizes: list[int] = []
        self._total = 0.0
        self._n = 0

    def map_batch(self, keys: Any, block: np.ndarray, context: Context) -> None:
        self.batch_sizes.append(len(keys))
        self._total += float(block.sum())
        self._n += len(keys)

    def cleanup(self, context: Context) -> None:
        context.emit("sum", self._total)
        context.emit("rows_per_call", tuple(self.batch_sizes))


class TestBatchMapper:
    def test_array_splits_feed_whole_blocks(self):
        data = np.arange(24.0).reshape(8, 3)
        runtime = MapReduceRuntime()
        job = Job(mapper_factory=_ProbeBatchMapper)
        result = runtime.run(
            job, split_records(data, 2), JobConf(num_reducers=0)
        )
        output = dict(
            (k, [v for kk, v in result.output if kk == k])
            for k, _ in result.output
        )
        assert sum(output["sum"]) == data.sum()
        # One map_batch call per split, each carrying the full slice.
        assert output["rows_per_call"] == [(4,), (4,)]

    def test_uniform_ndarray_records_batch_via_stacking(self):
        records = [(i, np.array([float(i), 1.0])) for i in range(6)]
        runtime = MapReduceRuntime()
        job = Job(mapper_factory=_ProbeBatchMapper)
        result = runtime.run(
            job, split_records(records, 2), JobConf(num_reducers=0)
        )
        sizes = [v for k, v in result.output if k == "rows_per_call"]
        assert sizes == [(3,), (3,)]

    def test_scalar_records_fall_back_to_per_row_map(self):
        # Scalar values cannot form a 2-D block: the runtime falls back
        # to map(), whose BatchMapper default wraps each row as a
        # one-row batch — same math, per-record granularity.
        records = [(i, float(i)) for i in range(6)]
        runtime = MapReduceRuntime()
        job = Job(mapper_factory=_ProbeBatchMapper)
        result = runtime.run(
            job, split_records(records, 2), JobConf(num_reducers=0)
        )
        output = [(k, v) for k, v in result.output]
        sizes = [v for k, v in output if k == "rows_per_call"]
        assert sizes == [(1, 1, 1), (1, 1, 1)]
        assert sum(v for k, v in output if k == "sum") == sum(range(6))

    def test_map_fallback_wraps_single_rows(self):
        # Calling the inherited map() directly must equal a 1-row batch.
        ctx = Context(DistributedCache(), Counters(), task_id=0)
        mapper = _ProbeBatchMapper()
        mapper.setup(ctx)
        mapper.map(3, np.array([1.0, 2.0]), ctx)
        mapper.map(4, np.array([3.0, 4.0]), ctx)
        mapper.cleanup(ctx)
        assert mapper.batch_sizes == [1, 1]
        assert dict(ctx.drain())["sum"] == 10.0

    def test_counters_count_rows_not_batches(self):
        data = np.ones((10, 2))
        runtime = MapReduceRuntime()
        job = Job(mapper_factory=_ProbeBatchMapper)
        result = runtime.run(
            job, split_records(data, 3), JobConf(num_reducers=0)
        )
        snapshot = result.counters.snapshot()
        assert snapshot["framework"]["map_input_records"] == 10
