"""Shared reducer arithmetic for partial-aggregate jobs.

Several P3C+-MR jobs follow the same pattern — mappers emit one partial
array per split, a single reducer adds them (histograms, support
counts, per-cluster matrices, EM covariance scatter).  The summation
must never mutate its inputs: under retries the runtime may hand the
*same* shuffled value objects to more than one reduce attempt (a retry
re-reads the cached shuffle payload), so an in-place
``values[0] += ...`` would poison the second attempt with the first
attempt's partial sums and silently corrupt the aggregate.
``sum_partials`` therefore accumulates into a fresh output array.
"""

from __future__ import annotations

import numpy as np


def sum_partials(values: list[np.ndarray]) -> np.ndarray:
    """Element-wise sum of equally-shaped partial arrays.

    Allocates a fresh result array and never writes to any input, so
    reduce tasks using it stay pure — safe to re-execute against cached
    shuffle payloads (task retries).
    """
    total = np.zeros_like(values[0])
    for partial in values:
        np.add(total, partial, out=total)
    return total
