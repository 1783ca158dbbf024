"""Task contracts: Mapper, Reducer, Partitioner and Context.

These mirror the Hadoop programming model.  A job is a bundle of task
classes plus a :class:`~repro.mapreduce.types.JobConf`; the runtime in
:mod:`repro.mapreduce.runtime` drives the lifecycle::

    mapper.setup(ctx); mapper.map(k, v, ctx) per record; mapper.cleanup(ctx)
    partitioner.partition(k, n)              per intermediate pair
    reducer.setup(ctx); reducer.reduce(k, values, ctx); reducer.cleanup(ctx)

There is no combiner stage: the P3C+-MR mappers aggregate their split
in memory and emit from ``cleanup`` (in-mapper combining), so each map
task ships one pair per key already.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.counters import Counters


class Context:
    """Per-task execution context: emit sink, cache, counters, task id.

    ``task_id`` is the split id for map tasks and the partition id for
    reduce tasks, letting tasks (e.g. BoW's per-reducer sampling) vary
    deterministic behaviour by task without shared state.
    """

    def __init__(
        self,
        cache: DistributedCache,
        counters: Counters,
        task_id: int,
        conf: Any = None,
    ) -> None:
        self.cache = cache
        self.counters = counters
        self.task_id = task_id
        self.conf = conf
        self._sink: list[tuple[Any, Any]] = []

    def emit(self, key: Any, value: Any) -> None:
        self._sink.append((key, value))

    def drain(self) -> list[tuple[Any, Any]]:
        pairs, self._sink = self._sink, []
        return pairs


class Mapper:
    """Base mapper.  Subclasses override :meth:`map` and optionally the
    ``setup``/``cleanup`` lifecycle hooks (cleanup is where split-local
    aggregates — e.g. per-split histograms or MVB medians — are emitted).
    """

    def setup(self, context: Context) -> None:  # noqa: B027 - optional hook
        pass

    def map(self, key: Any, value: Any, context: Context) -> None:
        raise NotImplementedError

    def cleanup(self, context: Context) -> None:  # noqa: B027 - optional hook
        pass


class BatchMapper(Mapper):
    """A mapper that consumes its split as one ``(keys, block)`` batch.

    The runtime feeds a :class:`BatchMapper` the whole split at once:
    ``keys`` is the sequence of record keys and ``block`` the ``(n, d)``
    ndarray of stacked record values.  That removes the per-record
    ``map()`` call and the per-row tuple materialisation from the hot
    path — the P3C+ mappers (histogram binning, RSSC support counting,
    EM moment accumulation) are all column-vectorised and only need the
    block.

    Splits whose records cannot be stacked into one 2-D array (non-array
    or ragged values) fall back to the inherited per-record protocol;
    the default :meth:`map` wraps each record as a batch of one, so
    overriding :meth:`map_batch` alone serves both paths.

    ``map_batch`` may be called *multiple times per task*: under
    ``JobConf.memory_budget_bytes`` the runtime streams a file-backed
    split in bounded chunks instead of one block.
    Implementations must therefore accumulate across calls — emit
    per-chunk or buffer and finish in :meth:`cleanup` — and never
    assume the first batch is the whole split.
    """

    def map_batch(
        self, keys: Sequence[Any], block: np.ndarray, context: Context
    ) -> None:
        raise NotImplementedError

    def map(self, key: Any, value: Any, context: Context) -> None:
        self.map_batch(
            (key,), np.atleast_2d(np.asarray(value, dtype=float)), context
        )


class BufferedBatchMapper(BatchMapper):
    """A :class:`BatchMapper` that buffers its split and computes once in
    :meth:`cleanup` (the split-caching pattern of paper Section 5.5).

    Chunked deliveries are joined back into the whole split:
    :meth:`split_block` is the ``(n, d)`` block (``None`` for an empty
    split) and :meth:`split_keys` the aligned record keys as int64 row
    indices.
    """

    def setup(self, context: Context) -> None:
        self._keys: list[Sequence[Any]] = []
        self._blocks: list[np.ndarray] = []

    def map_batch(
        self, keys: Sequence[Any], block: np.ndarray, context: Context
    ) -> None:
        self._keys.append(keys)
        self._blocks.append(block)

    def split_block(self) -> np.ndarray | None:
        if not self._blocks:
            return None
        if len(self._blocks) == 1:
            return self._blocks[0]
        return np.concatenate(self._blocks)

    def split_keys(self) -> np.ndarray:
        return np.concatenate([np.asarray(k, dtype=np.int64) for k in self._keys])


class Reducer:
    """Base reducer.  ``reduce`` receives one key with all its values."""

    def setup(self, context: Context) -> None:  # noqa: B027 - optional hook
        pass

    def reduce(self, key: Any, values: list[Any], context: Context) -> None:
        raise NotImplementedError

    def cleanup(self, context: Context) -> None:  # noqa: B027 - optional hook
        pass


class Partitioner:
    """Maps an intermediate key to a reduce partition."""

    def partition(self, key: Any, num_partitions: int) -> int:
        raise NotImplementedError


class HashPartitioner(Partitioner):
    """Default partitioner: stable hash of the key modulo #partitions.

    Uses a deterministic hash (not Python's randomised ``hash``) so that
    multiprocess and serial execution, and repeated runs, agree.
    """

    def partition(self, key: Any, num_partitions: int) -> int:
        return _stable_hash(key) % num_partitions


def _stable_hash(key: Any) -> int:
    """A process-stable, recursive hash for common key shapes."""
    if isinstance(key, np.generic):
        # Numpy scalars must hash like the equal Python scalar, not via
        # repr() ("np.int64(5)" vs 5), or mixed-type keys split across
        # partitions.
        key = key.item()
    if isinstance(key, str):
        h = 2166136261
        for byte in key.encode("utf-8"):
            h = ((h ^ byte) * 16777619) & 0xFFFFFFFF
        return h
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, int):
        return key & 0x7FFFFFFF
    if isinstance(key, float):
        return _stable_hash(repr(key))
    if isinstance(key, tuple):
        h = 1099511628211
        for item in key:
            h = (h * 31 + _stable_hash(item)) & 0x7FFFFFFF
        return h
    if key is None:
        return 0
    return _stable_hash(repr(key))


@dataclass
class Job:
    """A complete MapReduce job specification."""

    mapper_factory: Callable[[], Mapper]
    reducer_factory: Callable[[], Reducer] | None = None
    partitioner: Partitioner = field(default_factory=HashPartitioner)
    cache: DistributedCache = field(default_factory=DistributedCache)

    def describe(self) -> str:
        mapper = self.mapper_factory().__class__.__name__
        reducer = (
            self.reducer_factory().__class__.__name__
            if self.reducer_factory
            else "<map-only>"
        )
        return f"{mapper} -> {reducer}"


def make_sort_key(key: Any) -> Any:
    """Total-order sort key for heterogeneous intermediate keys.

    Hadoop sorts by serialized byte order; we approximate with
    ``(type_name, key)`` so mixed key types in one job cannot raise
    ``TypeError`` during the sort phase.
    """
    return (type(key).__name__, key)


def group_sorted_pairs(
    pairs: list[tuple[Any, Any]],
) -> Iterable[tuple[Any, list[Any]]]:
    """Sort pairs by key and group values per key.

    The sort is stable, so one key's values keep their arrival order
    (map-task order in a reduce partition).
    """
    from repro.mapreduce.types import iter_grouped

    return iter_grouped(sorted(pairs, key=lambda kv: make_sort_key(kv[0])))
