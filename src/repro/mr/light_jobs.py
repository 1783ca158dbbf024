"""The Light variant's membership job (paper Section 6).

One map-only pass computes, per point, (a) the ``m'`` exclusive
membership — the single covering cluster core, or -1 when the point
supports zero or several cores — and (b) the unique output assignment
(the most interesting covering core).  This is the job-based equivalent
of evaluating every core's support mask, and it lets the Light driver
run from streaming (file-backed) splits without ever materialising the
data matrix in the driver.
"""

from __future__ import annotations

import numpy as np

from repro.core.types import Signature
from repro.mapreduce import BufferedBatchMapper, Context, DistributedCache, Job
from repro.mapreduce.chain import JobChain
from repro.mapreduce.types import InputSplit


class LightMembershipMapper(BufferedBatchMapper):
    def cleanup(self, context: Context) -> None:
        data = self.split_block()
        if data is None:
            return
        signatures: list[Signature] = context.cache["signatures"]
        masks = np.stack([sig.support_mask(data) for sig in signatures], axis=1)
        cover_count = masks.sum(axis=1)
        exclusive = np.where(cover_count == 1, np.argmax(masks, axis=1), -1)
        # Cores are ordered by interestingness: the first covering core
        # is the unique output assignment for shared points.
        assigned = np.where(
            cover_count > 0, np.argmax(masks, axis=1), -1
        )
        # One pair per split, not per point: the (keys, exclusive,
        # assigned) arrays travel as three int64 vectors and the driver
        # scatters them — n points cost one emit.
        context.emit(
            int(context.task_id),
            (
                self.split_keys(),
                exclusive.astype(np.int64),
                assigned.astype(np.int64),
            ),
        )


def run_light_membership_job(
    chain: JobChain,
    splits: list[InputSplit],
    signatures: list[Signature],
    n: int,
    step_name: str = "light_membership",
) -> tuple[np.ndarray, np.ndarray]:
    """Returns ``(exclusive, assignment)`` arrays of length ``n``."""
    job = Job(
        mapper_factory=LightMembershipMapper,
        cache=DistributedCache({"signatures": list(signatures)}),
    )
    result = chain.run(step_name, job, splits, num_reducers=0)
    exclusive = np.full(n, -1, dtype=np.int64)
    assignment = np.full(n, -1, dtype=np.int64)
    for _, (keys, exc, assign) in result.output:
        exclusive[keys] = exc
        assignment[keys] = assign
    return exclusive, assignment
