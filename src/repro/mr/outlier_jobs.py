"""Outlier detection jobs (paper Section 5.5).

- **OD job** — map-only: each mapper assigns its points to the most
  probable mixture component and writes the point back "augmented with
  an additional membership attribute" set to the cluster id, or -1 for
  outliers (squared Mahalanobis distance above the chi-squared critical
  value).  The job is the serving scorer itself: the driver builds the
  :class:`~repro.serving.FittedModel` first and the OD mappers run its
  batched ``assign`` (the coreset path's
  :class:`~repro.mr.coreset.AssignMapper`), so the fit's outlier
  verdict and the serving verdict are one computation.
- **MVB mean/radius job** — each mapper caches its split, computes the
  dimension-wise median ``m_C^j`` and median-distance radius ``r_C^j``
  of its split's members per cluster, and the reducer aggregates by
  taking the dimension-wise median of the mapper means and the median
  of the mapper radii.
- The inside-ball moments then reuse the moment job of
  :mod:`repro.mr.em_jobs` with :class:`~repro.mr.em_jobs.InsideBallWeights`,
  centred at the ball centres.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.em import GaussianMixture
from repro.core.outliers import ball_consistency_factor, dimensionwise_median
from repro.mapreduce import BufferedBatchMapper, Context, DistributedCache, Job, Reducer
from repro.mapreduce.chain import JobChain
from repro.mapreduce.types import InputSplit
from repro.mr.coreset import run_assign_job
from repro.mr.em_jobs import InsideBallWeights, run_moment_job


def run_od_job(
    chain: JobChain,
    splits: list[InputSplit],
    model: Any,
    n: int,
    step_name: str = "outlier_detection",
) -> np.ndarray:
    """Run the OD job; returns the ``(n,)`` int64 membership vector
    (cluster id, -1 for outliers).

    ``model`` is the fit's :class:`~repro.serving.FittedModel`: its
    outlier moments and per-cluster counts fix the chi-squared cutoffs
    (widened by the small-sample inflation of the count that produced
    the moments — EM totals for the naive variant, inside-ball counts
    for MVB), exactly as at serving time.  It is the coreset path's
    assign job under its own step name, so OD keeps its own step in
    traces, checkpoints and chaos ``job=`` filters.
    """
    return run_assign_job(chain, splits, model, n, step_name=step_name)


class MVBStatsMapper(BufferedBatchMapper):
    """Per-split MVB centre and radius for each cluster (Section 5.5),
    emitted as one ``[centre | radius]`` array per cluster with members."""

    def setup(self, context: Context) -> None:
        super().setup(context)
        self._mixture: GaussianMixture = context.cache["mixture"]

    def cleanup(self, context: Context) -> None:
        data = self.split_block()
        if data is None:
            return
        sub = self._mixture.project(data)
        assignment = self._mixture.assign(sub)
        for j in range(self._mixture.num_components):
            members = sub[assignment == j]
            if len(members) == 0:
                continue
            center = dimensionwise_median(members)
            radius = np.median(np.linalg.norm(members - center, axis=1))
            context.emit(j, np.append(center, radius))


class MVBStatsReducer(Reducer):
    """Dimension-wise median of mapper centres; median of radii."""

    def reduce(self, key: int, values: list[np.ndarray], context: Context) -> None:
        stats = np.stack(values)
        context.emit(
            key, (np.median(stats[:, :-1], axis=0), float(np.median(stats[:, -1])))
        )


def run_mvb_jobs(
    chain: JobChain,
    splits: list[InputSplit],
    mixture: GaussianMixture,
    reg: float = 1e-9,
    point_weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two MR jobs computing the MVB moments of every cluster.

    Job 1 estimates ball centre and radius; job 2 (the generic moment
    job, centred at the ball centres) computes mean and covariance over
    the inside-ball points.
    Returns ``(means, covariances, inside_ball_counts)`` per cluster.

    ``point_weights`` (the coreset fast path) weight the inside-ball
    moments; the centre/radius medians stay unweighted — medians over
    the summary are already robust to the weighting.
    """
    k = mixture.num_components
    m = len(mixture.attributes)
    stats_job = Job(
        mapper_factory=MVBStatsMapper,
        reducer_factory=MVBStatsReducer,
        cache=DistributedCache({"mixture": mixture}),
    )
    stats = chain.run("mvb_center_radius", stats_job, splits).as_dict()

    centers = np.full((k, m), 0.5)
    radii = np.zeros(k)
    for j, (center, radius) in stats.items():
        centers[j] = center
        radii[j] = radius

    model = InsideBallWeights(mixture, centers, radii)
    means, covs, weight_sums, _ = run_moment_job(
        chain,
        splits,
        model,
        mixture.attributes,
        "mvb_moments",
        reg=reg,
        point_weights=point_weights,
    )
    # Clusters with an empty ball or too few inside-ball points for a
    # usable covariance (same small-sample rule as the serial
    # mvb_estimate) keep the mixture's own moments / diagonal scale.
    consistency = ball_consistency_factor(m)
    for j in range(k):
        if radii[j] == 0:
            means[j] = mixture.means[j]
            covs[j] = mixture.covariances[j]
        elif weight_sums[j] < max(2, 2 * m):
            covs[j] = np.diag(np.diag(mixture.covariances[j]))
        else:
            covs[j] = consistency * covs[j]
    return means, covs, weight_sums
