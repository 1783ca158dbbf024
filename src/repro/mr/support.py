"""Candidate-proving support job (paper Section 5.3).

One MR job counts the supports of an arbitrary candidate batch.  The
driver builds the RSSC's interval table once (the batch's distinct
intervals and each candidate's interval ids) and ships it in the
distributed cache; every mapper packs one bitmap per distinct interval
over its split's points, accumulates a per-split count vector from the
ANDs of those bitmaps, and emits it once from cleanup.  The single
reducer sums the per-split vectors.

With per-point weights (the coreset fast path) the mapper runs the
weighted RSSC kernel instead — each point contributes its weight to
every signature containing it — and the job returns float supports.
Unit weights are canonicalised to the integer kernel, keeping the
unweighted path bitwise unchanged.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.types import Signature
from repro.mapreduce import BatchMapper, Context, DistributedCache, Job, Reducer
from repro.mapreduce.job import ArraySumCombiner
from repro.mapreduce.chain import JobChain
from repro.mapreduce.types import InputSplit
from repro.mr.rssc import RSSC
from repro.mr.aggregate import sum_partials
from repro.mr.weights import canonical_weights, take_weights

_KEY = "supports"


class SupportCountMapper(BatchMapper):
    """RSSC-based per-split support counting (vectorised batch path)."""

    def setup(self, context: Context) -> None:
        self._rssc: RSSC = context.cache["rssc"]
        self._weights: np.ndarray | None = context.cache.get("point_weights")
        dtype = np.int64 if self._weights is None else np.float64
        self._counts = np.zeros(self._rssc.num_signatures, dtype=dtype)

    def map_batch(self, keys: Any, block: np.ndarray, context: Context) -> None:
        if self._weights is None:
            self._rssc.add_points(block, self._counts)
        else:
            self._rssc.add_points_weighted(
                block, take_weights(self._weights, keys), self._counts
            )

    def cleanup(self, context: Context) -> None:
        context.emit(_KEY, self._counts)


class SupportSumReducer(Reducer):
    def reduce(self, key: str, values: list[np.ndarray], context: Context) -> None:
        context.emit(key, sum_partials(values))


def run_support_job(
    chain: JobChain,
    splits: list[InputSplit],
    candidates: list[Signature],
    step_name: str = "candidate_proving",
    weights: np.ndarray | None = None,
) -> dict[Signature, int | float]:
    """Count (optionally weighted) supports of ``candidates`` with one
    MR job.  Unweighted supports are ints; weighted supports floats."""
    if not candidates:
        return {}
    weights = canonical_weights(weights)
    rssc = RSSC(candidates)
    cache: dict[str, Any] = {"rssc": rssc}
    if weights is not None:
        cache["point_weights"] = weights
    job = Job(
        mapper_factory=SupportCountMapper,
        reducer_factory=SupportSumReducer,
        combiner_factory=ArraySumCombiner,
        cache=DistributedCache(cache),
    )
    result = chain.run(step_name, job, splits, num_reducers=1)
    counts = result.as_dict()[_KEY]
    if weights is None:
        return {sig: int(c) for sig, c in zip(candidates, counts)}
    return {sig: float(c) for sig, c in zip(candidates, counts)}
