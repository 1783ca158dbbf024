"""Core value types of the MapReduce runtime: splits, shuffle buckets
and job configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

#: Key types eligible for columnar packing: cheap to keep as a Python
#: list while the value block travels as one ndarray.
_PACKABLE_KEY_TYPES = (str, bool, int, float, tuple, np.generic)


@dataclass
class ColumnarBucket:
    """One shuffle partition's pairs in columnar form.

    ``keys`` keeps the *original* key objects (a short Python list —
    the hot jobs emit a handful of aggregate keys per task), so
    unpacking reproduces the tuple-path pairs byte for byte; ``block``
    stacks the pair values into one ``(n, *value_shape)`` ndarray.  A
    single contiguous block is what makes the shuffle cheap: ``gather``
    concatenates arrays instead of extending pair lists, and on the
    process executor the block leaves the pickle stream out-of-band
    (pickle protocol 5), so shuffled bytes shrink to the data itself
    instead of one pickled ndarray header per pair.
    """

    keys: list[Any]
    block: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[tuple[Any, np.ndarray]]:
        return zip(self.keys, self.block)

    def pairs(self) -> list[tuple[Any, np.ndarray]]:
        """The tuple-path view: ``(key, value_row)`` pairs in order."""
        return list(zip(self.keys, self.block))

    @property
    def nbytes(self) -> int:
        """Approximate shuffled payload size (block + 8 bytes per key)."""
        return int(self.block.nbytes) + 8 * len(self.keys)

    def truncated(self) -> "ColumnarBucket":
        """Drop the trailing pair (the corrupt-fault injection shape)."""
        return ColumnarBucket(self.keys[:-1], self.block[:-1])

    @classmethod
    def concat(cls, buckets: Sequence["ColumnarBucket"]) -> "ColumnarBucket":
        """Concatenate task-ordered buckets into one partition bucket."""
        if len(buckets) == 1:
            return buckets[0]
        keys: list[Any] = []
        for bucket in buckets:
            keys.extend(bucket.keys)
        return cls(keys, np.concatenate([b.block for b in buckets]))


def pack_pairs(pairs: list[tuple[Any, Any]]) -> ColumnarBucket | None:
    """Pack a uniform pair list into a :class:`ColumnarBucket`.

    Eligible pairs have scalar/tuple keys and fixed-shape ndarray
    values (same shape *and* dtype, at least 1-D, no object dtype) —
    true for the histogram, support, EM-sum and attribute-inspection
    emissions.  Returns ``None`` for anything else; the caller keeps
    the ``list[tuple]`` path, which stays the parity oracle.
    """
    if not pairs:
        return None
    first = pairs[0][1]
    if (
        not isinstance(first, np.ndarray)
        or first.ndim < 1
        or first.dtype.hasobject
    ):
        return None
    for key, value in pairs:
        if key is not None and not isinstance(key, _PACKABLE_KEY_TYPES):
            return None
        if (
            not isinstance(value, np.ndarray)
            or value.shape != first.shape
            or value.dtype != first.dtype
        ):
            return None
    return ColumnarBucket(
        [key for key, _ in pairs], np.stack([value for _, value in pairs])
    )


def bucket_pairs(
    bucket: "ColumnarBucket | list[tuple[Any, Any]]",
) -> list[tuple[Any, Any]]:
    """Materialise any bucket representation as a pair list.

    Understands the two in-heap representations plus anything exposing
    a ``pairs()`` view — the spilled-shuffle handles
    (:class:`repro.mapreduce.spill.SpilledBucket` /
    ``SpilledPartition``) materialise here, inside the reduce task.
    """
    if isinstance(bucket, ColumnarBucket):
        return bucket.pairs()
    if isinstance(bucket, list):
        return bucket
    pairs = getattr(bucket, "pairs", None)
    if pairs is not None:
        return pairs()
    return bucket


#: Rough pickled-size constants for the tuple-path estimator below:
#: per-pair tuple/key framing and the per-ndarray pickle header.
_PAIR_OVERHEAD_B = 32
_NDARRAY_HEADER_B = 128


def bucket_nbytes(bucket: "ColumnarBucket | list[tuple[Any, Any]]") -> int:
    """Estimated shuffled bytes of one bucket (feeds ``shuffle_bytes``).

    Columnar buckets report their block size; tuple buckets are
    estimated per pair (ndarray values by ``nbytes`` plus a pickle
    header, anything else at a flat 16 bytes).  An estimator, not an
    exact wire size — cheap enough for the map hot path and accurate
    enough to expose the columnar reduction.
    """
    if isinstance(bucket, ColumnarBucket):
        return bucket.nbytes
    if not isinstance(bucket, list):
        # Spilled representations report their logical payload size.
        nbytes = getattr(bucket, "nbytes", None)
        if nbytes is not None:
            return int(nbytes)
    total = 0
    for _, value in bucket:
        if isinstance(value, np.ndarray):
            total += _PAIR_OVERHEAD_B + _NDARRAY_HEADER_B + int(value.nbytes)
        else:
            total += _PAIR_OVERHEAD_B + 16
    return total


@dataclass(frozen=True)
class InputSplit:
    """A contiguous slice of the input assigned to one mapper task.

    ``records`` is any sequence of ``(key, value)`` pairs.  For the
    clustering jobs the canonical record is ``(row_index, row_vector)``
    where ``row_vector`` is a 1-D :class:`numpy.ndarray`; the runtime
    itself is agnostic to the payload type.
    """

    split_id: int
    records: Sequence[tuple[Any, Any]]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[tuple[Any, Any]]:
        return iter(self.records)


class _ArrayRecords(Sequence):
    """Lazy ``(index, row)`` view over a slice of a 2-D array.

    Avoids materialising one tuple per data point up front; rows are
    produced on demand as the mapper iterates its split.
    """

    def __init__(self, data: np.ndarray, start: int, stop: int) -> None:
        self._data = data
        self._start = start
        self._stop = stop

    def __len__(self) -> int:
        return self._stop - self._start

    def __getitem__(self, i: int) -> tuple[int, np.ndarray]:
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        idx = self._start + i
        return idx, self._data[idx]

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        for idx in range(self._start, self._stop):
            yield idx, self._data[idx]

    def as_block(self) -> tuple[np.ndarray, np.ndarray]:
        """The slice as ``(keys, block)`` with zero per-row overhead."""
        return (
            np.arange(self._start, self._stop),
            self._data[self._start : self._stop],
        )


def split_block(split: "InputSplit") -> tuple[Sequence[Any], np.ndarray] | None:
    """Extract a whole split as one ``(keys, block)`` batch, if possible.

    Record containers that know their block shape (array slices, CSV
    byte ranges) expose ``as_block()`` and pay no per-row cost at all;
    any other record sequence is stacked when every value is a 1-D
    array of the same length.  Returns ``None`` when the records cannot
    form one 2-D block (the runtime then falls back to per-record
    ``map()`` calls).
    """
    records = split.records
    as_block = getattr(records, "as_block", None)
    if as_block is not None:
        return as_block()
    keys: list[Any] = []
    values: list[Any] = []
    for key, value in records:
        keys.append(key)
        values.append(value)
    if not values:
        return None
    first = values[0]
    if not isinstance(first, np.ndarray) or first.ndim != 1:
        return None
    if any(
        not isinstance(v, np.ndarray) or v.shape != first.shape for v in values
    ):
        return None
    return keys, np.stack(values)


def iter_split_blocks(
    split: "InputSplit", max_rows: int | None = None
) -> "Iterator[tuple[Sequence[Any], np.ndarray]] | None":
    """Batched view of a split: an iterator of ``(keys, block)`` chunks.

    With ``max_rows=None`` this is :func:`split_block` in iterator
    clothing — one whole-split batch, the classic delivery.  With a cap,
    record containers that can stream chunks straight from storage
    (the ``iter_blocks(max_rows)`` hook: file-backed CSV/npy splits)
    never materialise the split at all, so a mapper task's peak memory
    is bounded by one chunk; in-memory containers fall back to slicing
    views out of the one block.  Returns ``None`` when the records
    cannot form 2-D blocks (the runtime then uses per-record ``map()``
    delivery).
    """
    records = split.records
    if max_rows is not None:
        if max_rows < 1:
            raise ValueError("max_rows must be >= 1")
        hook = getattr(records, "iter_blocks", None)
        if hook is not None:
            return hook(max_rows)
    batch = split_block(split)
    if batch is None:
        return None
    keys, block = batch
    if max_rows is None or len(keys) <= max_rows:
        return iter((batch,))

    def chunks() -> Iterator[tuple[Sequence[Any], np.ndarray]]:
        for lo in range(0, len(keys), max_rows):
            yield keys[lo : lo + max_rows], block[lo : lo + max_rows]

    return chunks()


def split_records(
    data: np.ndarray | Sequence[tuple[Any, Any]],
    num_splits: int,
) -> list[InputSplit]:
    """Partition ``data`` into ``num_splits`` roughly equal input splits.

    ``data`` may be a 2-D array (rows become ``(row_index, row)`` records)
    or an explicit sequence of ``(key, value)`` records.  Splits differ in
    size by at most one record, mirroring HDFS block alignment on
    fixed-width rows.
    """
    if num_splits < 1:
        raise ValueError(f"num_splits must be >= 1, got {num_splits}")
    n = len(data)
    num_splits = min(num_splits, max(1, n))
    bounds = np.linspace(0, n, num_splits + 1).astype(int)
    splits: list[InputSplit] = []
    for sid in range(num_splits):
        lo, hi = int(bounds[sid]), int(bounds[sid + 1])
        if isinstance(data, np.ndarray):
            records: Sequence[tuple[Any, Any]] = _ArrayRecords(data, lo, hi)
        else:
            records = [tuple(rec) for rec in data[lo:hi]]
        splits.append(InputSplit(split_id=sid, records=records))
    return splits


@dataclass
class JobConf:
    """Configuration of one MapReduce job.

    Mirrors the knobs the paper's driver uses: the number of mapper
    slots (splits), the number of reducers (0 = map-only job, 1 = the
    single-reducer aggregation pattern most P3C+-MR jobs use), and the
    job name used in counter reports.  Where a job runs and its
    timeout/speculation policies are the runtime's, not the job's (see
    :class:`~repro.mapreduce.runtime.MapReduceRuntime`).
    """

    name: str = "job"
    num_splits: int = 4
    num_reducers: int = 1
    sort_keys: bool = True
    #: Hadoop-style task re-execution budget (1 = fail fast).
    max_task_attempts: int = 2
    #: Base delay before a retry; doubles per attempt (0 = immediate).
    retry_backoff_s: float = 0.0
    #: Pack uniform shuffle buckets into :class:`ColumnarBucket`; the
    #: tuple path remains the fallback (and the parity oracle in tests).
    columnar_shuffle: bool = True
    #: Cap on rows per ``BatchMapper.map_batch`` delivery.  ``None``
    #: delivers each split as one block; with a cap the runtime streams
    #: the split in chunks (see :func:`iter_split_blocks`) so a map
    #: task's peak memory is bounded by one chunk, not one split.
    max_block_rows: int | None = None
    #: Byte budget for a map task's resident shuffle payload.  Columnar
    #: buckets that would push the task past it spill to compressed
    #: segment files under ``spill_dir``; also drives a budget-derived
    #: ``max_block_rows`` for file-backed splits that report their row
    #: width.  ``None`` keeps the classic all-in-heap data plane.
    memory_budget_bytes: int | None = None
    #: Root directory for shuffle spill segments.  ``None`` with a
    #: memory budget set lets the runtime create (and remove) a
    #: run-scoped temporary directory per job.
    spill_dir: str | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_splits < 1:
            raise ValueError("num_splits must be >= 1")
        if self.num_reducers < 0:
            raise ValueError("num_reducers must be >= 0")
        if self.max_task_attempts < 1:
            raise ValueError("max_task_attempts must be >= 1")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if self.max_block_rows is not None and self.max_block_rows < 1:
            raise ValueError("max_block_rows must be >= 1")
        if self.memory_budget_bytes is not None and self.memory_budget_bytes < 1:
            raise ValueError("memory_budget_bytes must be >= 1")


def iter_grouped(
    pairs: Iterable[tuple[Any, Any]],
) -> Iterator[tuple[Any, list[Any]]]:
    """Group a key-sorted pair stream into ``(key, [values])`` runs."""
    current_key: Any = None
    bucket: list[Any] = []
    have_key = False
    for key, value in pairs:
        if have_key and key == current_key:
            bucket.append(value)
        else:
            if have_key:
                yield current_key, bucket
            current_key = key
            bucket = [value]
            have_key = True
    if have_key:
        yield current_key, bucket
