"""Histogram-building job (paper Section 5.1, Eq. 8).

Mappers accumulate a per-split ``(d, m)`` count matrix and emit it once
from ``cleanup`` (an in-mapper combiner — the summation form of Eq. 8);
the single reducer adds the partial matrices into the global histogram.

The job optionally carries per-point weights (the coreset fast path):
each point then contributes its weight instead of 1 to its bin, and the
partial matrices are float64.  Weights ride the distributed cache as
one full vector indexed by record key (record keys of array/file splits
are global row indices), so chunked ``map_batch`` deliveries of one
split stay consistent.  Unit weights are canonicalised away up front —
an all-ones vector runs the integer kernel and is bitwise-identical to
the unweighted path.

The histogram job is the first scan over the full data, so it also
rejects non-finite values (:func:`reject_non_finite`): in-memory fits
validate the matrix up front, but file-backed splits reach the chain
unread.  Finite values slightly outside [0, 1] still clamp to the
boundary bins.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.binning import Histogram, bin_index
from repro.mapreduce import BatchMapper, Context, DistributedCache, Job, Reducer
from repro.mapreduce.job import ArraySumCombiner
from repro.mapreduce.chain import JobChain
from repro.mapreduce.types import InputSplit
from repro.mr.aggregate import sum_partials
from repro.mr.weights import canonical_weights, take_weights

_KEY = "histogram"


def reject_non_finite(keys: Any, block: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first input row of ``block`` that
    holds a NaN or infinite value."""
    if not np.isfinite(block).all():
        finite = np.isfinite(block).all(axis=1)
        row = int(np.asarray(keys)[np.argmin(finite)])
        raise ValueError(
            f"input row {row} has a non-finite value; every attribute "
            "must be a finite number normalised to [0, 1]"
        )


class HistogramMapper(BatchMapper):
    """Accumulates one (d x m) partial histogram per split.

    Binning runs over the whole ``(n, d)`` block at once — one Eq. 8
    evaluation and one per-attribute ``bincount``, instead of one
    ``map()`` call per point.
    """

    def setup(self, context: Context) -> None:
        self._num_bins = int(context.cache["num_bins"])
        self._weights: np.ndarray | None = context.cache.get("point_weights")
        self._counts: np.ndarray | None = None

    def map_batch(self, keys: Any, block: np.ndarray, context: Context) -> None:
        reject_non_finite(keys, block)
        d = block.shape[1]
        if self._counts is None:
            dtype = np.int64 if self._weights is None else np.float64
            self._counts = np.zeros((d, self._num_bins), dtype=dtype)
        bins = bin_index(block, self._num_bins)
        if self._weights is None:
            for attribute in range(d):
                self._counts[attribute] += np.bincount(
                    bins[:, attribute], minlength=self._num_bins
                )
        else:
            weights = take_weights(self._weights, keys)
            for attribute in range(d):
                self._counts[attribute] += np.bincount(
                    bins[:, attribute],
                    weights=weights,
                    minlength=self._num_bins,
                )

    def cleanup(self, context: Context) -> None:
        if self._counts is not None:
            context.emit(_KEY, self._counts)


class HistogramSumReducer(Reducer):
    """Adds the per-split partial matrices."""

    def reduce(self, key: str, values: list[np.ndarray], context: Context) -> None:
        context.emit(key, sum_partials(values))


def run_histogram_job(
    chain: JobChain,
    splits: list[InputSplit],
    num_bins: int,
    weights: np.ndarray | None = None,
    step_name: str = "histogram_building",
) -> list[Histogram]:
    """Execute the histogram job and return one Histogram per attribute.

    With ``weights`` the counts are weighted (float64 histograms); an
    all-ones weight vector is canonicalised to the unweighted integer
    path, which stays bitwise-identical to a run without weights.
    """
    weights = canonical_weights(weights)
    cache: dict[str, Any] = {"num_bins": num_bins}
    if weights is not None:
        cache["point_weights"] = weights
    job = Job(
        mapper_factory=HistogramMapper,
        reducer_factory=HistogramSumReducer,
        combiner_factory=ArraySumCombiner,
        cache=DistributedCache(cache),
    )
    result = chain.run(step_name, job, splits, num_reducers=1)
    matrix = result.as_dict()[_KEY]
    return [
        Histogram(attribute=a, counts=matrix[a]) for a in range(matrix.shape[0])
    ]
