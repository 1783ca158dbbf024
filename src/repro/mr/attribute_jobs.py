"""Attribute-inspection jobs (paper Section 5.6).

One MR job builds a histogram *per cluster* (Eq. 8 restricted to the
cluster's members) and the members' extremes of every attribute, which
tighten the output signatures (Section 5.7); when AI proving is
enabled a second job counts the support of the augmented signatures
"exactly as in the cluster core generation step".

Cluster membership ships in the distributed cache as the ``(n,)``
membership vector — one cluster id per row, -1 for outliers and
excluded points, in the labelling job's narrow dtype (one byte per row
up to 128 clusters, :mod:`repro.mr.labels`).  The full pipeline passes
the OD job's membership attribute; the Light variant passes its ``m'``
mapping (Section 6).  Mappers index the array with each chunk's row
keys and hold no split: counts add exactly and min/max do not depend
on how rows are grouped.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.binning import Histogram, bin_index
from repro.core.types import Interval
from repro.mapreduce import BatchMapper, Context, DistributedCache, Job, Reducer
from repro.mapreduce.chain import JobChain
from repro.mapreduce.types import InputSplit
from repro.mr.aggregate import sum_partials

#: Folded into the histogram job's checkpoint fingerprint (``JobConf.extra``),
#: so a checkpoint holding bare ``(d, m)`` count matrices re-runs the job
#: instead of restoring into the ``(counts, mins, maxs)`` unpacking.
HISTOGRAM_FORMAT = "counts+extremes"


class ClusterHistogramMapper(BatchMapper):
    """Per-cluster ``(counts, mins, maxs)`` partials: the ``(d, m_c)``
    histogram of the cluster's members and their minimum and maximum of
    every attribute (the relevant set is decided only after inspection).

    Bin counts vary per cluster (Freedman-Diaconis on the cluster's
    member count), so the resolution ships as a per-cluster dict.
    """

    def setup(self, context: Context) -> None:
        self._membership: np.ndarray = context.cache["membership"]
        self._bins_by_cluster: dict[int, int] = context.cache["num_bins_by_cluster"]
        self._partials: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def map_batch(self, keys: Any, block: np.ndarray, context: Context) -> None:
        labels = self._membership[np.asarray(keys, dtype=np.int64)]
        d = block.shape[1]
        for cid in np.unique(labels):
            cid = int(cid)
            if cid < 0 or cid not in self._bins_by_cluster:
                continue
            num_bins = self._bins_by_cluster[cid]
            members = block[labels == cid]
            # Any member row seeds the extremes.
            seed = members[0]
            counts, mins, maxs = self._partials.setdefault(
                cid, (np.zeros((d, num_bins), dtype=np.int64), seed.copy(), seed.copy())
            )
            np.minimum(mins, members.min(axis=0), out=mins)
            np.maximum(maxs, members.max(axis=0), out=maxs)
            for attribute in range(d):
                bins = bin_index(members[:, attribute], num_bins)
                counts[attribute] += np.bincount(bins, minlength=num_bins)

    def cleanup(self, context: Context) -> None:
        for cid in sorted(self._partials):
            context.emit(cid, self._partials[cid])


class ClusterHistogramReducer(Reducer):
    """Adds the count partials and takes the element-wise extremes, all
    into fresh arrays: a retried attempt re-reads the same cached values
    (:mod:`repro.mr.aggregate`)."""

    def reduce(self, key: Any, values: list[tuple], context: Context) -> None:
        counts, mins, maxs = zip(*values)
        context.emit(
            key,
            (sum_partials(list(counts)), np.min(mins, axis=0), np.max(maxs, axis=0)),
        )


def run_cluster_histogram_job(
    chain: JobChain,
    splits: list[InputSplit],
    membership: np.ndarray,
    num_bins_by_cluster: dict[int, int],
    step_name: str = "attribute_inspection_histograms",
) -> tuple[dict[int, list[Histogram]], dict[int, tuple[np.ndarray, np.ndarray]]]:
    """Histograms of every attribute for every cluster's members, and
    the members' ``(mins, maxs)`` over every attribute, per cluster."""
    job = Job(
        mapper_factory=ClusterHistogramMapper,
        reducer_factory=ClusterHistogramReducer,
        cache=DistributedCache(
            {"membership": membership, "num_bins_by_cluster": num_bins_by_cluster}
        ),
    )
    result = chain.run(
        step_name, job, splits, num_reducers=1, histogram_format=HISTOGRAM_FORMAT
    )
    histograms: dict[int, list[Histogram]] = {}
    extremes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for cid, (matrix, mins, maxs) in result.as_dict().items():
        histograms[int(cid)] = [
            Histogram(attribute=a, counts=matrix[a])
            for a in range(matrix.shape[0])
        ]
        extremes[int(cid)] = (mins, maxs)
    return histograms, extremes


class AIProvingMapper(BatchMapper):
    """Counts, per cluster, the members inside each suggested interval
    (the AI-proving support job), adding each chunk's counts."""

    def setup(self, context: Context) -> None:
        self._membership: np.ndarray = context.cache["membership"]
        self._candidates: list[tuple[int, Interval]] = context.cache["candidates"]
        #: Candidate index -> members inside its interval, for each
        #: candidate whose cluster has members in the split.
        self._counts: dict[int, int] = {}

    def map_batch(self, keys: Any, block: np.ndarray, context: Context) -> None:
        labels = self._membership[np.asarray(keys, dtype=np.int64)]
        for i, (cid, interval) in enumerate(self._candidates):
            members = labels == cid
            if not members.any():
                continue
            inside = interval.contains_column(block[members, interval.attribute])
            self._counts[i] = self._counts.get(i, 0) + int(inside.sum())

    def cleanup(self, context: Context) -> None:
        for i in sorted(self._counts):
            cid, interval = self._candidates[i]
            context.emit((int(cid), interval), self._counts[i])


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
