"""The Light variant's membership job (paper Section 6).

One map-only pass computes, per point, (a) the ``m'`` exclusive
membership — the single covering cluster core, or -1 when the point
supports zero or several cores — and (b) the unique output assignment
(the most interesting covering core).  It maps over the fit's interval
index (:mod:`repro.mr.support`), not the data: a core's support set is
the AND of its intervals' bitmaps, unpacked per index record by
:meth:`RSSC.membership`.  Serving's Light scorer
(:meth:`repro.serving.FittedModel.assign`) runs the same pack and AND
kernels, so the fit's labels are the served labels.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.types import Signature
from repro.mapreduce import Context, DistributedCache, Job, Mapper
from repro.mapreduce.chain import JobChain
from repro.mr.labels import LABEL_FORMAT, join_rows, label_dtype, scatter_labels
from repro.mr.rssc import RSSC
from repro.mr.support import IntervalIndex


class LightMembershipMapper(Mapper):
    def setup(self, context: Context) -> None:
        self._rssc: RSSC = context.cache["rssc"]
        self._dtype = label_dtype(self._rssc.num_signatures)
        self._rows: list[range | np.ndarray] = []
        self._labels: list[np.ndarray] = []

    def map(self, key: Any, chunks: Any, context: Context) -> None:
        for rows, bitmaps in chunks:
            membership = self._rssc.membership(bitmaps, len(rows))
            cover = membership.sum(axis=1)
            # Cores are ordered by interestingness: the first covering
            # core is the unique output assignment for shared points.
            first = np.argmax(membership, axis=1)
            labels = np.empty((2, len(rows)), dtype=self._dtype)
            labels[0] = np.where(cover == 1, first, -1)
            labels[1] = np.where(cover > 0, first, -1)
            self._rows.append(rows)
            self._labels.append(labels)

    def cleanup(self, context: Context) -> None:
        if not self._rows:
            return
        # One label block per split (repro.mr.labels): the index's rows
        # and the (exclusive, assigned) labels, one narrow pair per point.
        context.emit(
            int(context.task_id),
            (join_rows(self._rows), np.concatenate(self._labels, axis=1)),
        )


def run_light_membership_job(
    chain: JobChain,
    index: IntervalIndex,
    signatures: list[Signature],
    n: int,
    step_name: str = "light_membership",
) -> tuple[np.ndarray, np.ndarray]:
    """Returns ``(exclusive, assignment)`` arrays of length ``n`` in
    :func:`~repro.mr.labels.label_dtype` of the core count; the core
    ``signatures`` are built from ``index.table``'s intervals."""
    rssc = RSSC([index.table.encode(sig) for sig in signatures], index.table)
    job = Job(
        mapper_factory=LightMembershipMapper,
        cache=DistributedCache({"rssc": rssc}),
    )
    result = chain.run(
        step_name, job, index.splits, num_reducers=0, label_format=LABEL_FORMAT
    )
    exclusive, assignment = scatter_labels(
        result.output, (2, n), label_dtype(len(signatures))
    )
    return exclusive, assignment
