"""Attribute-inspection jobs (paper Section 5.6).

One MR job builds a histogram *per cluster* (Eq. 8 restricted to the
cluster's members); when AI proving is enabled a second job counts the
support of the augmented signatures "exactly as in the cluster core
generation step".

Cluster membership ships in the distributed cache as the ``(n,)`` int64
membership array — one cluster id per row, -1 for outliers and
excluded points.  The full pipeline passes the OD job's membership
attribute; the Light variant passes its ``m'`` mapping (Section 6).
Mappers index the array with their split's row keys.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.binning import Histogram, bin_index
from repro.core.types import Interval
from repro.mapreduce import BufferedBatchMapper, Context, DistributedCache, Job, Reducer
from repro.mapreduce.chain import JobChain
from repro.mapreduce.types import InputSplit
from repro.mr.aggregate import sum_partials


class ClusterHistogramMapper(BufferedBatchMapper):
    """Per-cluster (d x m_c) histogram partials.

    Bin counts vary per cluster (Freedman-Diaconis on the cluster's
    member count), so the resolution ships as a per-cluster dict.
    """

    def setup(self, context: Context) -> None:
        super().setup(context)
        self._bins_by_cluster: dict[int, int] = context.cache["num_bins_by_cluster"]

    def cleanup(self, context: Context) -> None:
        data = self.split_block()
        if data is None:
            return
        labels = context.cache["membership"][self.split_keys()]
        d = data.shape[1]
        for cid in np.unique(labels):
            cid = int(cid)
            if cid < 0 or cid not in self._bins_by_cluster:
                continue
            num_bins = self._bins_by_cluster[cid]
            members = data[labels == cid]
            counts = np.zeros((d, num_bins), dtype=np.int64)
            for attribute in range(d):
                bins = bin_index(members[:, attribute], num_bins)
                counts[attribute] += np.bincount(bins, minlength=num_bins)
            context.emit(cid, counts)


class MatrixSumReducer(Reducer):
    def reduce(self, key: Any, values: list[np.ndarray], context: Context) -> None:
        context.emit(key, sum_partials(values))


def run_cluster_histogram_job(
    chain: JobChain,
    splits: list[InputSplit],
    membership: np.ndarray,
    num_bins_by_cluster: dict[int, int],
    step_name: str = "attribute_inspection_histograms",
) -> dict[int, list[Histogram]]:
    """Histograms of every attribute for every cluster's members."""
    job = Job(
        mapper_factory=ClusterHistogramMapper,
        reducer_factory=MatrixSumReducer,
        cache=DistributedCache(
            {"membership": membership, "num_bins_by_cluster": num_bins_by_cluster}
        ),
    )
    result = chain.run(step_name, job, splits, num_reducers=1)
    histograms: dict[int, list[Histogram]] = {}
    for cid, matrix in result.as_dict().items():
        histograms[int(cid)] = [
            Histogram(attribute=a, counts=matrix[a])
            for a in range(matrix.shape[0])
        ]
    return histograms


class AIProvingMapper(BufferedBatchMapper):
    """Counts, per cluster, the members inside each suggested interval
    (the AI-proving support job)."""

    def setup(self, context: Context) -> None:
        super().setup(context)
        self._candidates: list[tuple[int, Interval]] = context.cache["candidates"]

    def cleanup(self, context: Context) -> None:
        data = self.split_block()
        if data is None:
            return
        labels = context.cache["membership"][self.split_keys()]
        for cid, interval in self._candidates:
            members = data[labels == cid]
            if len(members) == 0:
                continue
            inside = interval.contains_column(members[:, interval.attribute])
            context.emit((int(cid), interval), int(inside.sum()))


class IntSumReducer(Reducer):
    def reduce(self, key: Any, values: list[int], context: Context) -> None:
        context.emit(key, int(sum(values)))


def run_ai_proving_job(
    chain: JobChain,
    splits: list[InputSplit],
    membership: np.ndarray,
    candidates: list[tuple[int, Interval]],
    step_name: str = "ai_proving",
) -> dict[tuple[int, Interval], int]:
    """Members of each candidate's cluster inside its interval, keyed by
    ``(cluster, interval)``.  Cluster sizes are the driver's: it holds
    the membership vector."""
    job = Job(
        mapper_factory=AIProvingMapper,
        reducer_factory=IntSumReducer,
        cache=DistributedCache(
            {"membership": membership, "candidates": candidates}
        ),
    )
    result = chain.run(step_name, job, splits, num_reducers=1)
    return result.as_dict()
