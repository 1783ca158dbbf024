"""File-backed runtime storage: streaming CSV/npy splits and checkpoints.

Hadoop's TextInputFormat assigns each mapper a byte range of the input
file; a task seeks to its range, skips to the next record boundary and
streams records without ever materialising the whole file.  This module
provides the same contract for headerless CSV matrices and for binary
``.npy`` matrices, so the MR drivers can cluster data sets larger than
memory:

    splits, n, d = make_csv_splits("huge.csv", num_splits=64)
    splits, n, d = make_npy_splits("huge.npy", num_splits=64)
    result = P3CPlusMRLight().fit_splits(splits, n, d)

Each record is ``(row_index, numpy row)`` — identical to the in-memory
splits of :func:`repro.mapreduce.types.split_records`, so jobs cannot
tell the difference (a test asserts equal clustering output).  Both
stream families additionally expose ``iter_blocks(max_rows)`` and
``row_nbytes``, the hooks :func:`repro.mapreduce.types.iter_split_blocks`
and the runtime's ``memory_budget_bytes`` use to stream a split to a
``BatchMapper`` in bounded chunks instead of one whole-split block.

The second half of the module is :class:`CheckpointStore` — the
persistence layer behind ``JobChain`` checkpoint/resume.  Each
completed job's output pairs are pickled under a run directory and
recorded in a ``manifest.json`` keyed by the job's position/name and an
*input fingerprint* (a chained hash over the upstream fingerprint, the
job configuration and a cheap sample of the input splits).  A resumed
chain replays the driver; jobs whose fingerprint matches the manifest
are restored instead of re-executed, while any mismatch — different
data, different configuration, different upstream history — forces
recomputation of that job and everything after it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

from repro.mapreduce.types import InputSplit, JobConf


@dataclass(frozen=True)
class _CSVRange:
    """One byte range of a CSV file plus its starting row index."""

    path: str
    start_offset: int
    end_offset: int
    first_row: int
    num_rows: int
    num_columns: int = 0


def _truncated_csv(chunk: _CSVRange, offset: int) -> ValueError:
    return ValueError(
        f"truncated CSV input: {chunk.path} ended at byte {offset}, "
        f"expected data through byte {chunk.end_offset} "
        f"(rows {chunk.first_row}..{chunk.first_row + chunk.num_rows - 1})"
    )


class CSVRecordStream(Sequence):
    """Lazy ``(row_index, row)`` sequence over a CSV byte range.

    ``__iter__`` streams straight from disk; ``__getitem__`` builds the
    range's line-offset index once, then serves each access with a
    single seek + read, keeping memory bounded by one split.  A file
    that ends before ``end_offset`` (truncated after the split index
    was built) raises :class:`ValueError` naming the path and offset
    instead of looping or silently shorting the split.
    """

    def __init__(self, chunk: _CSVRange) -> None:
        self._chunk = chunk
        self._offsets: list[int] | None = None

    def __len__(self) -> int:
        return self._chunk.num_rows

    @property
    def row_nbytes(self) -> int:
        """Bytes per parsed row (float64 per column) — the budget hook."""
        return max(1, self._chunk.num_columns) * 8

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        chunk = self._chunk
        with open(chunk.path, "rb") as handle:
            handle.seek(chunk.start_offset)
            row = chunk.first_row
            while handle.tell() < chunk.end_offset:
                offset = handle.tell()
                line = handle.readline()
                if not line:
                    raise _truncated_csv(chunk, offset)
                if not line.strip():
                    continue
                yield row, _parse_line(
                    line, path=chunk.path, offset=offset, row=row
                )
                row += 1

    def _line_offsets(self) -> list[int]:
        """Byte offset of every record in the range (built once)."""
        if self._offsets is None:
            chunk = self._chunk
            offsets: list[int] = []
            with open(chunk.path, "rb") as handle:
                handle.seek(chunk.start_offset)
                while handle.tell() < chunk.end_offset:
                    offset = handle.tell()
                    line = handle.readline()
                    if not line:
                        raise _truncated_csv(chunk, offset)
                    if line.strip():
                        offsets.append(offset)
            self._offsets = offsets
        return self._offsets

    def __getitem__(self, index: int) -> tuple[int, np.ndarray]:
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        offsets = self._line_offsets()
        if index >= len(offsets):
            raise _truncated_csv(self._chunk, self._chunk.end_offset)
        chunk = self._chunk
        with open(chunk.path, "rb") as handle:
            handle.seek(offsets[index])
            line = handle.readline()
        row = chunk.first_row + index
        return row, _parse_line(
            line, path=chunk.path, offset=offsets[index], row=row
        )

    def as_block(self) -> tuple[np.ndarray, np.ndarray]:
        """The byte range as ``(keys, block)``: one read, one parse pass.

        Feeds :class:`~repro.mapreduce.job.BatchMapper` tasks a whole
        split at once instead of one ``readline`` + parse per record;
        rows and keys are identical to what ``__iter__`` streams.
        """
        chunk = self._chunk
        with open(chunk.path, "rb") as handle:
            handle.seek(chunk.start_offset)
            raw = handle.read(chunk.end_offset - chunk.start_offset)
        rows: list[np.ndarray] = []
        offset = chunk.start_offset
        for line in raw.splitlines(keepends=True):
            if line.strip():
                rows.append(
                    _parse_line(
                        line,
                        path=chunk.path,
                        offset=offset,
                        row=chunk.first_row + len(rows),
                    )
                )
            offset += len(line)
        if len(rows) != chunk.num_rows:
            raise _truncated_csv(chunk, chunk.start_offset + len(raw))
        keys = np.arange(chunk.first_row, chunk.first_row + len(rows))
        return keys, np.stack(rows)

    def iter_blocks(
        self, max_rows: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Stream the range as ``(keys, block)`` chunks of ≤ ``max_rows``.

        The chunked analogue of :meth:`as_block`: concatenating every
        chunk reproduces the whole-split block exactly, but only one
        chunk is ever resident, so peak task memory is bounded by the
        chunk, not the split.
        """
        if max_rows < 1:
            raise ValueError("max_rows must be >= 1")
        chunk = self._chunk
        rows: list[np.ndarray] = []
        first = chunk.first_row
        with open(chunk.path, "rb") as handle:
            handle.seek(chunk.start_offset)
            row = chunk.first_row
            while handle.tell() < chunk.end_offset:
                offset = handle.tell()
                line = handle.readline()
                if not line:
                    raise _truncated_csv(chunk, offset)
                if not line.strip():
                    continue
                rows.append(
                    _parse_line(line, path=chunk.path, offset=offset, row=row)
                )
                row += 1
                if len(rows) == max_rows:
                    yield (
                        np.arange(first, first + len(rows)),
                        np.stack(rows),
                    )
                    first += len(rows)
                    rows = []
        if rows:
            yield np.arange(first, first + len(rows)), np.stack(rows)


def _parse_line(
    line: bytes,
    *,
    path: str | None = None,
    offset: int | None = None,
    row: int | None = None,
) -> np.ndarray:
    try:
        return np.fromiter(
            (float(part) for part in line.strip().split(b",")), dtype=float
        )
    except ValueError as exc:
        where = f" in {path}" if path is not None else ""
        if row is not None:
            where += f" at row {row}"
        if offset is not None:
            where += f" (byte offset {offset})"
        raise ValueError(
            f"malformed CSV record{where}: {line.strip()[:80]!r} ({exc})"
        ) from exc


def make_csv_splits(
    path: str | Path,
    num_splits: int,
) -> tuple[list[InputSplit], int, int]:
    """Partition a headerless CSV into streaming input splits.

    One scan establishes the newline offsets (the analogue of the HDFS
    block index); records are only parsed lazily inside mapper tasks.
    Returns ``(splits, n_rows, n_columns)``.
    """
    path = Path(path)
    if num_splits < 1:
        raise ValueError("num_splits must be >= 1")

    offsets = [0]
    with open(path, "rb") as handle:
        first_line = handle.readline()
        if not first_line.strip():
            raise ValueError(f"{path} is empty")
        n_columns = len(first_line.strip().split(b","))
        offsets.append(handle.tell())
        while True:
            line = handle.readline()
            if not line:
                break
            if line.strip():
                offsets.append(handle.tell())
        end_of_file = offsets.pop()  # last offset is EOF, not a row start
        offsets.append(end_of_file)

    n_rows = len(offsets) - 1
    if n_rows == 0:
        raise ValueError(f"{path} contains no data rows")

    num_splits = min(num_splits, n_rows)
    bounds = np.linspace(0, n_rows, num_splits + 1).astype(int)
    splits: list[InputSplit] = []
    for sid in range(num_splits):
        lo, hi = int(bounds[sid]), int(bounds[sid + 1])
        if lo == hi:
            continue
        chunk = _CSVRange(
            path=str(path),
            start_offset=offsets[lo],
            end_offset=offsets[hi],
            first_row=lo,
            num_rows=hi - lo,
            num_columns=n_columns,
        )
        splits.append(InputSplit(split_id=sid, records=CSVRecordStream(chunk)))
    return splits, n_rows, n_columns


# -- binary npy splits --------------------------------------------------


#: Row batch used by ``NpyRecordStream.__iter__`` for record streaming.
_NPY_ITER_ROWS = 1024


@dataclass(frozen=True)
class _NpyRange:
    """One row range of a 2-D row-major ``.npy`` matrix."""

    path: str
    data_offset: int
    dtype_str: str
    num_columns: int
    first_row: int
    num_rows: int


class NpyRecordStream(Sequence):
    """Lazy ``(row_index, row)`` sequence over rows of a ``.npy`` matrix.

    Two access modes:

    - ``"read"`` (default): every access seeks into the file and reads
      fresh arrays with :func:`numpy.fromfile`, so no pages of the data
      file stay resident and peak RSS is honestly bounded by the
      largest single chunk.
    - ``"mmap"``: a lazily cached ``np.load(..., mmap_mode="r")`` view;
      zero-copy for in-process pipelines, but pages touched through the
      map count toward RSS until the OS reclaims them.
    """

    def __init__(self, chunk: _NpyRange, mode: str = "read") -> None:
        if mode not in ("read", "mmap"):
            raise ValueError(f"unknown npy access mode: {mode!r}")
        self._chunk = chunk
        self._mode = mode
        self._mm: np.memmap | None = None

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state["_mm"] = None  # memmaps re-open lazily in the worker
        return state

    def __len__(self) -> int:
        return self._chunk.num_rows

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def row_nbytes(self) -> int:
        """Bytes per row on disk and in a block — the budget hook."""
        chunk = self._chunk
        return np.dtype(chunk.dtype_str).itemsize * max(1, chunk.num_columns)

    def _mmap(self) -> np.memmap:
        if self._mm is None:
            self._mm = np.load(self._chunk.path, mmap_mode="r")
        return self._mm

    def _read_rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows ``[lo, hi)`` of the range as a 2-D array."""
        chunk = self._chunk
        if self._mode == "mmap":
            mm = self._mmap()
            return np.asarray(mm[chunk.first_row + lo : chunk.first_row + hi])
        dtype = np.dtype(chunk.dtype_str)
        want = hi - lo
        with open(chunk.path, "rb") as handle:
            handle.seek(
                chunk.data_offset
                + (chunk.first_row + lo) * dtype.itemsize * chunk.num_columns
            )
            flat = np.fromfile(
                handle, dtype=dtype, count=want * chunk.num_columns
            )
        if flat.size != want * chunk.num_columns:
            raise ValueError(
                f"truncated npy input: {chunk.path} holds "
                f"{flat.size // max(1, chunk.num_columns)} of {want} rows "
                f"requested at row {chunk.first_row + lo}"
            )
        return flat.reshape(want, chunk.num_columns)

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        first = self._chunk.first_row
        for lo in range(0, len(self), _NPY_ITER_ROWS):
            block = self._read_rows(lo, min(lo + _NPY_ITER_ROWS, len(self)))
            for i in range(block.shape[0]):
                yield first + lo + i, block[i]

    def __getitem__(self, index: int) -> tuple[int, np.ndarray]:
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        block = self._read_rows(index, index + 1)
        return self._chunk.first_row + index, block[0]

    def as_block(self) -> tuple[np.ndarray, np.ndarray]:
        """The row range as ``(keys, block)`` — one read (or one view)."""
        chunk = self._chunk
        keys = np.arange(chunk.first_row, chunk.first_row + len(self))
        return keys, self._read_rows(0, len(self))

    def iter_blocks(
        self, max_rows: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Stream the range as ``(keys, block)`` chunks of ≤ ``max_rows``."""
        if max_rows < 1:
            raise ValueError("max_rows must be >= 1")
        first = self._chunk.first_row
        for lo in range(0, len(self), max_rows):
            hi = min(lo + max_rows, len(self))
            yield np.arange(first + lo, first + hi), self._read_rows(lo, hi)


def make_npy_splits(
    path: str | Path,
    num_splits: int,
    mode: str = "read",
) -> tuple[list[InputSplit], int, int]:
    """Partition a 2-D ``.npy`` matrix into file-backed input splits.

    The header is introspected once through a throwaway read-only
    memmap (shape, dtype, element offset); per-split access then goes
    through :class:`NpyRecordStream` in the chosen ``mode``.  Returns
    ``(splits, n_rows, n_columns)``.
    """
    path = Path(path)
    if num_splits < 1:
        raise ValueError("num_splits must be >= 1")
    mm = np.load(path, mmap_mode="r")
    try:
        if mm.ndim != 2:
            raise ValueError(
                f"{path} must hold a 2-D matrix, got shape {mm.shape}"
            )
        if mm.shape[1] > 1 and not mm.flags["C_CONTIGUOUS"]:
            raise ValueError(f"{path} must be row-major (C order)")
        n_rows, n_columns = (int(dim) for dim in mm.shape)
        data_offset = int(mm.offset)
        dtype_str = mm.dtype.str
    finally:
        del mm
    if n_rows == 0:
        raise ValueError(f"{path} contains no data rows")

    num_splits = min(num_splits, n_rows)
    bounds = np.linspace(0, n_rows, num_splits + 1).astype(int)
    splits: list[InputSplit] = []
    for sid in range(num_splits):
        lo, hi = int(bounds[sid]), int(bounds[sid + 1])
        if lo == hi:
            continue
        chunk = _NpyRange(
            path=str(path),
            data_offset=data_offset,
            dtype_str=dtype_str,
            num_columns=n_columns,
            first_row=lo,
            num_rows=hi - lo,
        )
        splits.append(
            InputSplit(split_id=sid, records=NpyRecordStream(chunk, mode=mode))
        )
    return splits, n_rows, n_columns


# -- chain checkpointing ------------------------------------------------


def _hash_record(hasher, record: Any) -> None:
    key, value = record
    hasher.update(repr(key).encode("utf-8"))
    if isinstance(value, np.ndarray):
        hasher.update(np.ascontiguousarray(value).tobytes())
    else:
        hasher.update(repr(value).encode("utf-8"))


def fingerprint_splits(splits: Sequence[InputSplit]) -> str:
    """A cheap, content-sensitive fingerprint of a split list.

    Hashes each split's id, length and first record — O(#splits) work
    regardless of data size (file-backed splits read one record, not
    the range), yet sensitive to the dataset swaps and re-splits that
    would make a checkpoint stale.
    """
    hasher = hashlib.sha256()
    for split in splits:
        hasher.update(f"{split.split_id}:{len(split)}".encode("utf-8"))
        if len(split) > 0:
            _hash_record(hasher, split.records[0])
    return hasher.hexdigest()[:24]


def chain_fingerprint(
    previous: str, name: str, conf: JobConf, splits: Sequence[InputSplit]
) -> str:
    """Fingerprint of one chain step, chained over its upstream history.

    Folds in the previous step's fingerprint, so a checkpoint entry is
    only reusable when every job before it matched too.  Distributed
    cache contents are deliberately *not* hashed: the P3C+ pipelines
    derive them deterministically from the input, which the chained
    history already covers.
    """
    hasher = hashlib.sha256()
    hasher.update(previous.encode("utf-8"))
    hasher.update(name.encode("utf-8"))
    simple_extra = {
        key: value
        for key, value in sorted(conf.extra.items())
        if isinstance(value, (str, int, float, bool, type(None)))
    }
    conf_token = (
        f"{conf.num_splits}:{conf.num_reducers}:{conf.sort_keys}:"
        f"{json.dumps(simple_extra, sort_keys=True)}"
    )
    hasher.update(conf_token.encode("utf-8"))
    hasher.update(fingerprint_splits(splits).encode("utf-8"))
    return hasher.hexdigest()[:24]


class CheckpointStore:
    """Durable per-job outputs of one chain run, under one directory.

    Layout::

        <root>/manifest.json          job key -> {fingerprint, file, meta}
        <root>/jobs/<key>.pkl         pickled output pairs of one job

    Writes are crash-safe in the sense that matters for resume: the
    pickle lands fully before the manifest references it, and manifest
    updates are atomic (write-to-temp + rename), so an interrupted run
    leaves at worst an orphaned pickle, never a manifest entry pointing
    at a truncated payload.
    """

    SCHEMA = "repro.mapreduce/checkpoint/v1"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self._manifest_path = self.root / "manifest.json"
        self._manifest = self._load_manifest()

    def _load_manifest(self) -> dict[str, Any]:
        if not self._manifest_path.exists():
            return {"schema": self.SCHEMA, "jobs": {}}
        try:
            with open(self._manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return {"schema": self.SCHEMA, "jobs": {}}
        if manifest.get("schema") != self.SCHEMA:
            return {"schema": self.SCHEMA, "jobs": {}}
        manifest.setdefault("jobs", {})
        return manifest

    def _write_manifest(self) -> None:
        tmp = self._manifest_path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self._manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self._manifest_path)

    @staticmethod
    def job_key(ordinal: int, name: str) -> str:
        safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", name)
        return f"{ordinal:03d}_{safe}"

    def load(
        self, key: str, fingerprint: str
    ) -> tuple[list[tuple[Any, Any]], dict[str, Any]] | None:
        """The stored output + metadata for ``key``, or ``None`` when the
        entry is missing, stale (fingerprint mismatch) or unreadable."""
        entry = self._manifest["jobs"].get(key)
        if entry is None or entry.get("fingerprint") != fingerprint:
            return None
        path = self.root / entry["file"]
        try:
            with open(path, "rb") as handle:
                output = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError):
            return None
        return output, dict(entry.get("meta", {}))

    def save(
        self,
        key: str,
        fingerprint: str,
        output: list[tuple[Any, Any]],
        meta: dict[str, Any],
    ) -> None:
        """Persist one completed job's output and manifest entry."""
        filename = f"jobs/{key}.pkl"
        tmp = self.root / (filename + ".tmp")
        with open(tmp, "wb") as handle:
            pickle.dump(output, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, self.root / filename)
        self._manifest["jobs"][key] = {
            "fingerprint": fingerprint,
            "file": filename,
            "meta": meta,
        }
        self._write_manifest()

    def __len__(self) -> int:
        return len(self._manifest["jobs"])
