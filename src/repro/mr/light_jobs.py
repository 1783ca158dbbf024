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
from repro.mr.rssc import RSSC
from repro.mr.support import IntervalIndex, index_chunks


class LightMembershipMapper(Mapper):
    def setup(self, context: Context) -> None:
        self._rssc: RSSC = context.cache["rssc"]
        self._parts: list[tuple[np.ndarray, ...]] = []

    def map(self, key: Any, chunks: Any, context: Context) -> None:
        for keys, bitmaps in index_chunks(chunks):
            membership = self._rssc.membership(bitmaps, len(keys))
            cover = membership.sum(axis=1)
            # Cores are ordered by interestingness: the first covering
            # core is the unique output assignment for shared points.
            first = np.argmax(membership, axis=1)
            self._parts.append(
                (
                    keys,
                    np.where(cover == 1, first, -1),
                    np.where(cover > 0, first, -1),
                )
            )

    def cleanup(self, context: Context) -> None:
        if not self._parts:
            return
        # One pair per split, not per point: the (keys, exclusive,
        # assigned) arrays travel as three int64 vectors and the driver
        # scatters them — n points cost one emit.
        context.emit(
            int(context.task_id),
            tuple(np.concatenate(column) for column in zip(*self._parts)),
        )


def run_light_membership_job(
    chain: JobChain,
    index: IntervalIndex,
    signatures: list[Signature],
    n: int,
    step_name: str = "light_membership",
) -> tuple[np.ndarray, np.ndarray]:
    """Returns ``(exclusive, assignment)`` arrays of length ``n``; the
    core ``signatures`` are built from ``index.table``'s intervals."""
    rssc = RSSC([index.table.encode(sig) for sig in signatures], index.table)
    job = Job(
        mapper_factory=LightMembershipMapper,
        cache=DistributedCache({"rssc": rssc}),
    )
    result = chain.run(step_name, job, index.splits, num_reducers=0)
    exclusive = np.full(n, -1, dtype=np.int64)
    assignment = np.full(n, -1, dtype=np.int64)
    for _, (keys, exc, assign) in result.output:
        exclusive[keys] = exc
        assignment[keys] = assign
    return exclusive, assignment
