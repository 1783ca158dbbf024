"""Task contracts: Mapper, Combiner, Reducer, Partitioner and Context.

These mirror the Hadoop programming model.  A job is a bundle of task
classes plus a :class:`~repro.mapreduce.types.JobConf`; the runtime in
:mod:`repro.mapreduce.runtime` drives the lifecycle::

    mapper.setup(ctx); mapper.map(k, v, ctx) per record; mapper.cleanup(ctx)
    combiner.combine(k, values, ctx)         per map-task key group
    partitioner.partition(k, n)              per intermediate pair
    reducer.setup(ctx); reducer.reduce(k, values, ctx); reducer.cleanup(ctx)
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
    ``JobConf.max_block_rows`` (or a derived memory budget) the runtime
    streams a file-backed split in bounded chunks instead of one block.
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


class Combiner:
    """Optional map-side pre-aggregation.

    A well-formed combiner must be associative and commutative in the
    values and must emit pairs with the *same* key it received, so that
    running it zero, one or many times leaves reducer input semantics
    unchanged.  The runtime asserts the key constraint.
    """

    def combine(self, key: Any, values: list[Any], context: Context) -> None:
        raise NotImplementedError


class ArraySumCombiner(Combiner):
    """Sums fixed-shape ndarray values per key, with a vectorized path.

    The scalar :meth:`combine` below is the semantic oracle: a single
    value passes through unchanged, multiple values fold left to right
    into a fresh array (the ``mr/aggregate.sum_partials`` contract —
    shuffled value objects are never mutated, so retries stay pure).
    When a map task's emitted pairs are uniform, the runtime bypasses
    the per-key-group Python loop and calls :func:`fold_uniform_pairs`,
    which produces bitwise-identical output via one argsort plus a
    per-group sequential ``np.cumsum`` fold.
    """

    def combine(self, key: Any, values: list[Any], context: Context) -> None:
        if len(values) == 1:
            context.emit(key, values[0])
            return
        total = values[0].copy()
        for value in values[1:]:
            np.add(total, value, out=total)
        context.emit(key, total)


def fold_uniform_pairs(
    pairs: list[tuple[Any, Any]],
) -> list[tuple[Any, Any]] | None:
    """Vectorized per-key sum of uniform ``(key, ndarray)`` pairs.

    Applies when every key has the same type and maps to a clean numpy
    scalar/string array element, and every value is an ndarray of one
    shared shape and dtype.  Keys are ordered with a single argsort and
    value rows folded per group with ``np.cumsum`` (taking the last
    row); a cumulative sum must produce every prefix, so it accumulates
    strictly left to right and each group's fold is bitwise equal to
    the loop in :meth:`ArraySumCombiner.combine`.  (``np.add.reduceat``
    and ``np.sum`` are faster but may sum pairwise, which changes float
    rounding.)  Output order (sorted by key) and
    the emitted key objects (first occurrence per group) match the
    scalar path driven by :func:`group_sorted_pairs`.  Returns ``None``
    when the pairs are not eligible; the caller falls back to the
    scalar oracle.
    """
    if len(pairs) < 2:
        return None
    first_key, first_value = pairs[0]
    key_type = type(first_key)
    if (
        not isinstance(first_value, np.ndarray)
        or first_value.ndim < 1
        or first_value.dtype.hasobject
    ):
        return None
    for key, value in pairs:
        if type(key) is not key_type:
            return None
        if (
            not isinstance(value, np.ndarray)
            or value.shape != first_value.shape
            or value.dtype != first_value.dtype
        ):
            return None
    try:
        key_arr = np.asarray([key for key, _ in pairs])
    except (ValueError, TypeError):
        return None
    if key_arr.shape != (len(pairs),) or key_arr.dtype.kind not in "biufSU":
        return None
    if key_arr.dtype.kind == "f" and np.isnan(key_arr).any():
        return None  # NaN breaks ordering/equality; keep the oracle path
    # kind="stable" matches the Python sort's tie order (first occurrence
    # leads its group), which fixes which key *object* gets re-emitted.
    order = np.argsort(key_arr, kind="stable")
    sorted_keys = key_arr[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    )
    stacked = np.stack([value for _, value in pairs])[order]
    out: list[tuple[Any, Any]] = []
    for pos, start in enumerate(starts):
        key_obj = pairs[int(order[start])][0]
        end = int(starts[pos + 1]) if pos + 1 < len(starts) else len(pairs)
        if end - start == 1:
            # Single-value groups pass the original object through,
            # matching the scalar path (and avoiding a -0.0 + x rewrite).
            out.append((key_obj, pairs[int(order[start])][1]))
        else:
            # dtype pinned so small ints wrap exactly like the scalar
            # combiner instead of cumsum's default platform-int upcast.
            folded = np.cumsum(
                stacked[int(start):end], axis=0, dtype=stacked.dtype
            )[-1]
            out.append((key_obj, folded))
    return out


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
    combiner_factory: Callable[[], Combiner] | None = None
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
    sort_keys: bool = True,
) -> Iterable[tuple[Any, list[Any]]]:
    """Sort pairs by key (if requested) and group values per key."""
    from repro.mapreduce.types import iter_grouped

    if sort_keys:
        pairs = sorted(pairs, key=lambda kv: make_sort_key(kv[0]))
    else:
        # Stable grouping without total order: bucket by first occurrence.
        order: dict[Any, int] = {}
        for key, _ in pairs:
            order.setdefault(key, len(order))
        pairs = sorted(pairs, key=lambda kv: order[kv[0]])
    return iter_grouped(pairs)
