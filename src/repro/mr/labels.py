"""Label blocks: the per-point output of the labelling jobs.

The OD job writes each point back "augmented with an additional
membership attribute" (Section 5.5): one small label per point.  The
OD and coreset-assign jobs (:class:`~repro.mr.coreset.AssignMapper`)
and the Light membership job (:mod:`repro.mr.light_jobs`) emit their
labels as blocks ``(rows, labels)``:

- ``rows`` are the block's row keys: a ``range`` when they run
  consecutively, which costs no bytes per point, else the int64 keys
  (:func:`~repro.mr.support.compact_rows`);
- ``labels`` are cluster ids, -1 for none, in :func:`label_dtype`: one
  byte per point up to 128 clusters.  The last axis runs over the
  rows, so one block can carry several labels per point.

The driver scatters a job's blocks into one vector of the same dtype
(:func:`scatter_labels`), and the later jobs receive that vector as it
is.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

#: Folded into each label job's checkpoint fingerprint (``JobConf.extra``),
#: so a checkpoint holding another block format re-runs the job instead
#: of restoring into :func:`scatter_labels`.
LABEL_FORMAT = "rows+narrow"


def label_dtype(num_clusters: int) -> np.dtype:
    """The narrowest signed integer dtype that holds -1 and every
    cluster id below ``num_clusters``."""
    for dtype in (np.int8, np.int16, np.int32):
        if num_clusters - 1 <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def join_rows(parts: list[range | np.ndarray]) -> range | np.ndarray:
    """Consecutive chunks' row keys as one: a ``range`` when every part
    is a range starting where the one before stopped, else int64 keys."""
    if all(isinstance(rows, range) for rows in parts) and all(
        before.stop == after.start for before, after in zip(parts, parts[1:])
    ):
        return range(parts[0].start, parts[-1].stop)
    return np.concatenate(
        [
            np.arange(rows.start, rows.stop) if isinstance(rows, range) else rows
            for rows in parts
        ]
    )


def scatter_labels(
    output: Iterable[tuple[Any, tuple[range | np.ndarray, np.ndarray]]],
    shape: int | tuple[int, ...],
    dtype: np.dtype,
) -> np.ndarray:
    """Scatter a label job's ``(key, (rows, labels))`` pairs into a
    vector of ``shape`` (rows on the last axis), -1 where no block
    writes."""
    vector = np.full(shape, -1, dtype=dtype)
    for _, (rows, labels) in output:
        if isinstance(rows, range):
            rows = slice(rows.start, rows.stop)
        vector[..., rows] = labels
    return vector
