"""Test-side shortcuts over the MR jobs."""

from __future__ import annotations

import numpy as np

from repro.core.types import IntervalTable, Signature
from repro.mapreduce import JobChain
from repro.mapreduce.types import InputSplit
from repro.mr.support import build_interval_index, run_support_job


def count_supports_mr(
    chain: JobChain,
    splits: list[InputSplit],
    signatures: list[Signature],
    weights: np.ndarray | None = None,
) -> dict[Signature, int | float]:
    """Supports of ``signatures`` over raw ``splits`` the way a fit
    counts a later batch: the level-1 job packs the index over the
    signatures' intervals, then one job counts them over it."""
    table = IntervalTable(iv for sig in signatures for iv in sig)
    _, index = build_interval_index(chain, splits, table, weights)
    masks = [table.encode(sig) for sig in signatures]
    supports = run_support_job(chain, index, masks, weights)
    return {sig: supports[mask] for sig, mask in zip(signatures, masks)}
