"""Core value types of the MapReduce runtime: splits, shuffle-volume
estimates and job configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

#: Rough pickled-size constants for the estimator below: per-pair
#: tuple/key framing and the per-ndarray pickle header.
_PAIR_OVERHEAD_B = 32
_NDARRAY_HEADER_B = 128


def _value_nbytes(value: Any) -> int:
    """Estimated pickled size of one shuffled value: ndarrays by
    ``nbytes`` plus a header, tuples and lists by their items, a
    ``range`` (row keys running consecutively) at nothing and any
    other object at a flat 16 bytes."""
    if isinstance(value, np.ndarray):
        return _NDARRAY_HEADER_B + int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(_value_nbytes(item) for item in value)
    if isinstance(value, range):
        return 0
    return 16


def bucket_nbytes(bucket: list[tuple[Any, Any]]) -> int:
    """Estimated shuffled bytes of a list of pairs (feeds
    ``shuffle_bytes``).

    An estimator, not an exact wire size: cheap enough for the map hot
    path, and it prices the arrays nested in tuple and list values
    (the interval index's packed chunks, the attribute-inspection
    histogram job's ``(counts, mins, maxs)``) as well as bare ndarray
    values.
    """
    return sum(_PAIR_OVERHEAD_B + _value_nbytes(value) for _, value in bucket)


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
    """Lazy ``(index, row)`` view over a row slice of a 2-D array.

    Avoids materialising one tuple per data point up front; rows are
    produced on demand as the mapper iterates its split.  Holds only
    the split's rows (a view) and its first row key, so a split shipped
    to a process worker pickles its own rows, not the whole matrix.
    """

    def __init__(self, rows: np.ndarray, start: int) -> None:
        self._rows = rows
        self._start = start

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i: int) -> tuple[int, np.ndarray]:
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        return self._start + i, self._rows[i]

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        for i, row in enumerate(self._rows):
            yield self._start + i, row

    def as_block(self) -> tuple[np.ndarray, np.ndarray]:
        """The slice as ``(keys, block)`` with zero per-row overhead."""
        return np.arange(self._start, self._start + len(self._rows)), self._rows


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
    split: "InputSplit", memory_budget_bytes: int | None = None
) -> "Iterator[tuple[Sequence[Any], np.ndarray]] | None":
    """Batched view of a split: an iterator of ``(keys, block)`` chunks.

    Under a memory budget, record containers that stream chunks
    straight from storage (file-backed CSV/npy splits, which expose
    ``iter_blocks(max_rows)`` and ``row_nbytes``) deliver chunks of
    ``memory_budget_bytes // (4 * row_nbytes)`` rows: one resident
    chunk takes about a quarter of the budget, and the split is never
    materialised.  Otherwise this is :func:`split_block` in iterator
    clothing — one whole-split batch.  Returns ``None`` when the records
    cannot form 2-D blocks (the runtime then uses per-record ``map()``
    delivery).
    """
    records = split.records
    row_nbytes = getattr(records, "row_nbytes", None)
    if memory_budget_bytes is not None and row_nbytes:
        return records.iter_blocks(
            max(1, memory_budget_bytes // (4 * int(row_nbytes)))
        )
    batch = split_block(split)
    return None if batch is None else iter((batch,))


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
            records: Sequence[tuple[Any, Any]] = _ArrayRecords(data[lo:hi], lo)
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
    job name used in counter reports.  Where a job runs and its task
    timeout are the runtime's, not the job's (see
    :class:`~repro.mapreduce.runtime.MapReduceRuntime`).
    """

    name: str = "job"
    num_splits: int = 4
    num_reducers: int = 1
    #: Hadoop-style task re-execution budget (1 = fail fast).
    max_task_attempts: int = 2
    #: Byte budget for a map task's resident input: file-backed splits
    #: that report their row width are delivered to a ``BatchMapper``
    #: in budget-derived chunks (see :func:`iter_split_blocks`), so a
    #: map task's peak memory is bounded by one chunk, not one split.
    #: ``None`` delivers whole splits.
    memory_budget_bytes: int | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_splits < 1:
            raise ValueError("num_splits must be >= 1")
        if self.num_reducers < 0:
            raise ValueError("num_reducers must be >= 0")
        if self.max_task_attempts < 1:
            raise ValueError("max_task_attempts must be >= 1")
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
