"""Candidate-proving support jobs over one interval index (Section 5.3).

The paper's RSSC counts each collected candidate batch with one pass
over the data.  Every batch of a fit is built from the same relevant
intervals, so here the data is packed once:

- :func:`build_interval_index` is the level-1 proving job.  Each mapper
  packs its split chunk by chunk (:meth:`RSSC.pack`, one bitmap per
  relevant interval), counts the 1-signatures from those bitmaps and
  emits the packed chunks as one index record
  ``(("index", split_id), [(rows, words), ...])``; ``rows`` are a
  chunk's record keys, a ``range`` when consecutive.  The reducer sums
  the count vectors and passes the records through, so the index is
  job output: checkpointed with the job, shuffled once, one record per
  split whatever chunking a memory budget imposes.
- :func:`run_support_job` counts a later batch over the index: each
  mapper ANDs and popcounts its record's bitmaps (:meth:`RSSC.count`)
  and emits one count vector; no raw row is read again.

Weighted supports (the coreset fast path) sum the weights under each
AND, looked up by the chunk's rows; the index keeps the packing chunks,
so the float fold order is the same in every job.  Unit weights are
canonicalised to the integer kernel, keeping that path bitwise
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from repro.core.types import IntervalTable
from repro.mapreduce import BatchMapper, Context, DistributedCache, Job, Mapper, Reducer
from repro.mapreduce.chain import JobChain
from repro.mapreduce.types import InputSplit
from repro.mr.aggregate import sum_partials
from repro.mr.rssc import CHUNK_ROWS, RSSC
from repro.mr.weights import canonical_weights, take_weights

_KEY = "supports"
_STEP = "candidate_proving"


@dataclass(frozen=True)
class IntervalIndex:
    """A fit's packed interval bitmaps: ``len(table)`` bits per point.

    ``splits`` holds one input split per level-1 map task, whose one
    record is that task's list of packed chunks.
    """

    table: IntervalTable
    splits: list[InputSplit]


def compact_rows(keys: Sequence[Any]) -> range | np.ndarray:
    """A chunk's record keys as int64 row indices, or as a ``range``
    when they run consecutively, which costs no bytes per point."""
    keys = np.asarray(keys, dtype=np.int64)
    first = int(keys[0])
    if np.array_equal(keys, np.arange(first, first + len(keys))):
        return range(first, first + len(keys))
    return keys


def index_chunks(chunks: list) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """An index record's packed chunks as ``(row keys, bitmaps)``, the
    keys int64 (numpy would expand a ``range`` element by element)."""
    for rows, bitmaps in chunks:
        if isinstance(rows, range):
            rows = np.arange(rows.start, rows.stop, dtype=np.int64)
        yield rows, bitmaps


class _CountingMapper(Mapper):
    """Shared mapper state: the batch's RSSC and its count vector."""

    def setup(self, context: Context) -> None:
        self._rssc: RSSC = context.cache["rssc"]
        self._weights: np.ndarray | None = context.cache.get("point_weights")
        dtype = np.int64 if self._weights is None else np.float64
        self._counts = np.zeros(self._rssc.num_signatures, dtype=dtype)

    def _count(self, keys: Sequence[Any], bitmaps: np.ndarray) -> None:
        weights = None
        if self._weights is not None:
            weights = take_weights(self._weights, keys)
        self._rssc.count(bitmaps, self._counts, weights)

    def cleanup(self, context: Context) -> None:
        context.emit(_KEY, self._counts)


class IntervalIndexMapper(_CountingMapper, BatchMapper):
    """Level 1: pack each chunk once, count it, keep it for the index."""

    def setup(self, context: Context) -> None:
        super().setup(context)
        self._chunks: list[tuple[range | np.ndarray, np.ndarray]] = []

    def map_batch(self, keys: Any, block: np.ndarray, context: Context) -> None:
        for start in range(0, len(block), CHUNK_ROWS):
            chunk_keys = keys[start : start + CHUNK_ROWS]
            bitmaps = self._rssc.pack(block[start : start + CHUNK_ROWS])
            self._count(chunk_keys, bitmaps)
            self._chunks.append((compact_rows(chunk_keys), bitmaps))

    def cleanup(self, context: Context) -> None:
        super().cleanup(context)
        context.emit(("index", context.task_id), self._chunks)


class SupportCountMapper(_CountingMapper):
    """Later levels: AND and popcount the index record's bitmaps."""

    def map(self, key: Any, chunks: Any, context: Context) -> None:
        for keys, bitmaps in index_chunks(chunks):
            self._count(keys, bitmaps)


class SupportSumReducer(Reducer):
    """Sums the per-split count vectors; index records, keyed by
    ``("index", split_id)``, pass through."""

    def reduce(self, key: Any, values: list[Any], context: Context) -> None:
        if isinstance(key, tuple):
            for value in values:
                context.emit(key, value)
        else:
            context.emit(key, sum_partials(values))


def _run(
    chain: JobChain,
    mapper: type,
    splits: list[InputSplit],
    rssc: RSSC,
    weights: np.ndarray | None,
) -> tuple[np.ndarray, dict[Any, Any]]:
    """One proving job: the summed counts and the pass-through records."""
    cache: dict[str, Any] = {"rssc": rssc}
    if weights is not None:
        cache["point_weights"] = weights
    job = Job(
        mapper_factory=mapper,
        reducer_factory=SupportSumReducer,
        cache=DistributedCache(cache),
    )
    output = dict(chain.run(_STEP, job, splits, num_reducers=1).output)
    return output.pop(_KEY), output


def _supports(
    candidates: list[Any], counts: np.ndarray, weights: np.ndarray | None
) -> dict[Any, int | float]:
    cast = int if weights is None else float
    return {sig: cast(c) for sig, c in zip(candidates, counts)}


def build_interval_index(
    chain: JobChain,
    splits: list[InputSplit],
    table: IntervalTable,
    weights: np.ndarray | None = None,
) -> tuple[dict[int, int | float], IntervalIndex]:
    """Run the level-1 proving job over the raw ``splits``.

    Returns the (optionally weighted) support of every interval of
    ``table`` as a 1-signature, keyed by its id mask, and the index the
    job's map tasks packed on the way.
    """
    weights = canonical_weights(weights)
    level = [1 << k for k in range(len(table))]
    counts, records = _run(
        chain, IntervalIndexMapper, splits, RSSC(level, table), weights
    )
    index = IntervalIndex(
        table,
        [InputSplit(key[1], [(key, chunks)]) for key, chunks in records.items()],
    )
    return _supports(level, counts, weights), index


def run_support_job(
    chain: JobChain,
    index: IntervalIndex,
    candidates: list[int],
    weights: np.ndarray | None = None,
) -> dict[int, int | float]:
    """Count the (optionally weighted) supports of ``candidates``, id
    masks over ``index.table``, with one MR job over the index, keyed
    by candidate.  Unweighted supports are ints; weighted supports
    floats."""
    if not candidates:
        return {}
    weights = canonical_weights(weights)
    counts, _ = _run(
        chain, SupportCountMapper, index.splits, RSSC(candidates, index.table), weights
    )
    return _supports(candidates, counts, weights)
