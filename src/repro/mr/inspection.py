"""Driver-side orchestration of attribute inspection over MR jobs.

The histograms come from :func:`repro.mr.attribute_jobs.run_cluster_histogram_job`,
which also takes each cluster's member extremes for interval
tightening; the chi-squared marking runs in the driver (cheap, Section
5.2's argument applies); AI proving, when enabled, needs the augmented-
signature supports and therefore one more MR job (Section 5.6).
"""

from __future__ import annotations

import numpy as np

from repro.core.binning import freedman_diaconis_bins
from repro.core.intervals import find_relevant_intervals_for_histogram
from repro.core.stats import cohens_d_cc, poisson_deviation_significant
from repro.core.types import Interval
from repro.mapreduce.chain import JobChain
from repro.mapreduce.types import InputSplit
from repro.mr.attribute_jobs import run_ai_proving_job, run_cluster_histogram_job
from repro.obs import NULL_OBS, Observability


def mr_attribute_inspection(
    chain: JobChain,
    splits: list[InputSplit],
    membership: np.ndarray,
    known_attributes: dict[int, frozenset[int]],
    sizes: dict[int, int],
    chi2_alpha: float = 0.001,
    prove: bool = True,
    poisson_alpha: float = 0.01,
    theta_cc: float | None = 0.35,
    max_bins: int | None = 200,
    obs: Observability | None = None,
) -> tuple[dict[int, frozenset[int]], dict[int, tuple[np.ndarray, np.ndarray]]]:
    """Per-cluster relevant attributes after MR attribute inspection,
    and the ``(mins, maxs)`` of every attribute over each cluster's
    members (the extremes interval tightening needs, Section 5.7).

    Mirrors :func:`repro.core.attribute_inspection.inspect_attributes`
    for every cluster at once: one histogram job, driver-side interval
    detection, one optional AI-proving job.  Only clusters with members
    have extremes.  ``membership`` is the ``(n,)`` cluster id per row
    (-1 = excluded), in any signed integer dtype: the labelling jobs'
    narrow vectors ship as they are.  ``obs`` records the AI candidate
    count and the proving accept/reject attribution.
    """
    obs = obs or NULL_OBS
    bins_by_cluster = {}
    for cid, size in sizes.items():
        if size <= 0:
            continue
        bins = freedman_diaconis_bins(size)
        if max_bins is not None:
            bins = min(bins, max_bins)
        bins_by_cluster[cid] = bins
    if not bins_by_cluster:
        return dict(known_attributes), {}

    histograms, extremes = run_cluster_histogram_job(
        chain, splits, membership, bins_by_cluster
    )

    candidates: list[tuple[int, Interval]] = []
    for cid, cluster_histograms in sorted(histograms.items()):
        known = known_attributes.get(cid, frozenset())
        for histogram in cluster_histograms:
            if histogram.attribute in known:
                continue
            found = find_relevant_intervals_for_histogram(
                histogram, alpha=chi2_alpha
            )
            candidates.extend((cid, interval) for interval in found.intervals)

    accepted: dict[int, set[int]] = {
        cid: set(attrs) for cid, attrs in known_attributes.items()
    }
    obs.gauge("ai.candidate_intervals", len(candidates))
    if prove and candidates:
        supports = run_ai_proving_job(chain, splits, membership, candidates)
        for (cid, interval), observed in supports.items():
            expected = sizes[cid] * interval.width
            if not poisson_deviation_significant(observed, expected, poisson_alpha):
                obs.count("ai.rejected_poisson")
                continue
            if theta_cc is not None and cohens_d_cc(observed, expected) < theta_cc:
                obs.count("ai.rejected_effect_size")
                continue
            obs.count("ai.accepted")
            accepted.setdefault(cid, set()).add(interval.attribute)
    else:
        for cid, interval in candidates:
            obs.count("ai.accepted")
            accepted.setdefault(cid, set()).add(interval.attribute)

    return {cid: frozenset(attrs) for cid, attrs in accepted.items()}, extremes
