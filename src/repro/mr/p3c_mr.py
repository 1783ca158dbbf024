"""P3C+-MR: the full MapReduce driver (paper Section 5).

Job plan (one line per MR job):

1.  histogram building                                 (Section 5.1)
2.  candidate proving, one job per collected batch;    (Section 5.3)
    level 1 packs the interval index the others read
3.  EM initialisation: 2 fused moment jobs             (Section 5.4)
4.  EM iterations: 1 fused moment job each             (Section 5.4)
5.  MVB centre/radius + 1 fused moment job (MVB only)  (Section 5.5)
6.  OD job: the serving scorer, map-only               (Section 5.5)
7.  attribute-inspection histogram job (+ AI proving)  (Section 5.6)
    that also takes the tightening extremes            (Section 5.7)

Each moment estimate is one centred pass where the paper runs a sums
and a covariance job (:mod:`repro.mr.em_jobs`), and tightening runs no
job of its own; :func:`paper_plan_jobs` gives the paper's count.  OD
runs the fitted serving model's ``assign``, so the fit's outlier
verdict is the serving verdict.

Relevant-interval detection stays in the driver (Section 5.2: at most
``d * k`` chi-squared statistics — parallelising it buys nothing).

:meth:`P3CPlusMR.fit_splits` is the one fit pipeline.  Jobs 3-6 are its
labelling step (:meth:`P3CPlusMR._label`); the Light driver swaps in
its membership job there (Section 6).  The coreset path runs the
pipeline on a weighted summary and labels every point in one more
map-only pass.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.binning import Histogram
from repro.core.intervals import find_relevant_intervals
from repro.core.p3c_plus import P3CPlusConfig, _validate_data
from repro.core.types import ClusteringResult, Interval, ProjectedCluster, Signature
from repro.mapreduce import (
    FaultPlan,
    JobChain,
    MapReduceRuntime,
    RuntimeContext,
    new_run_id,
)
from repro.mapreduce.types import InputSplit, split_records
from repro.mr.core_generation import generate_cluster_cores_mr
from repro.mr.coreset import build_coreset, run_assign_job
from repro.mr.em_jobs import run_em_mr
from repro.mr.histogram import run_histogram_job
from repro.mr.inspection import mr_attribute_inspection
from repro.mr.outlier_jobs import run_mvb_jobs, run_od_job
from repro.mr.weights import canonical_weights
from repro.obs import NULL_OBS, Observability


def _moment_jobs(chain: JobChain) -> int:
    """Moment-estimate jobs run so far: the ``<prefix>_sums`` steps."""
    return sum(step.name.endswith("_sums") for step in chain.steps)


def paper_plan_jobs(metadata: dict) -> int:
    """MR job count of the paper's plan for a fit with ``metadata``.

    Section 5.4 computes each moment estimate with two jobs, a sums job
    and a covariance job about the finished means; this implementation
    fuses the pair into one centred pass (``moment_jobs`` in the
    metadata).  Section 5.7 tightens the intervals of a fit that found
    cores in a job of its own; here the attribute-inspection histogram
    job takes the extremes.  The paper's plan therefore runs one more
    job per moment estimate, and one for tightening, than were
    measured.  The cost-model projections (Figure 7, Section 7.5.2)
    price this plan.
    """
    jobs = int(metadata.get("mr_jobs", 1)) + int(metadata.get("moment_jobs", 0))
    return jobs + int(metadata.get("cores_after_redundancy", 0) > 0)


# perfbench/ledger.py times the ``tightening`` stage by rebinding this
# name in this module, so it keeps the name of the job it replaced.
def run_tightening_job(
    extremes: dict[int, tuple[np.ndarray, np.ndarray]],
    cluster_attributes: dict[int, tuple[int, ...]],
) -> dict[int, Signature]:
    """Tightened signature per cluster id (Section 5.7): the members'
    ``[min, max]`` on each relevant attribute, from the ``(mins, maxs)``
    the attribute-inspection histogram job took.  Runs no job."""
    signatures = {}
    for cid, attributes in cluster_attributes.items():
        mins, maxs = extremes[cid]
        signatures[cid] = Signature(
            [Interval(a, float(mins[a]), float(maxs[a])) for a in attributes]
        )
    return signatures


@dataclass(frozen=True)
class P3CPlusMRConfig:
    """MapReduce-side knobs, complementing :class:`P3CPlusConfig`."""

    num_splits: int = 8
    max_workers: int | None = None  # None/1 = serial executor
    #: Executor backend ("serial"/"thread"/"process"); ``None`` keeps
    #: the auto rule: max_workers > 1 selects the process pool.
    executor: str | None = None
    #: ``False`` proves every candidate level in its own job (the
    #: ablation baseline of multi-level collection).
    multi_level: bool = True
    #: Deterministic fault-injection schedule (chaos testing); ``None``
    #: leaves the runtime entirely unwrapped.
    fault_plan: FaultPlan | None = None
    #: Per-attempt task wall-clock budget in seconds (``None`` = none).
    task_timeout_s: float | None = None
    #: Directory for chain checkpoints (``None`` disables them).
    checkpoint_dir: str | None = None
    #: Restore completed jobs from ``checkpoint_dir`` instead of
    #: re-running them (requires ``checkpoint_dir``).
    resume: bool = False
    #: Root directory of a serving :class:`repro.serving.ModelRegistry`.
    #: When set, the fitted model bundle is saved there at the end of
    #: the run and tagged ``latest`` (see ``P3CPlusMR.model_id``).
    model_registry: str | None = None
    #: Resident-input byte budget per map task (out-of-core plane):
    #: file-backed splits stream to batch mappers in budget-sized
    #: chunks.  ``None`` delivers whole splits.
    memory_budget_bytes: int | None = None
    #: Approximate fast path: target size of the one-pass weighted
    #: summary the chain runs on (``None`` = exact run over all
    #: points).  A size >= n silently falls back to the exact path.
    coreset_size: int | None = None
    #: Summary sampler: ``"uniform"`` or ``"lightweight"``
    #: (see :mod:`repro.mr.coreset`).
    coreset_mode: str = "uniform"
    #: Seed of the deterministic per-split samplers.
    coreset_seed: int = 0


@dataclass(frozen=True)
class FitPoints:
    """The points a fit's chain runs on: every point, or a coreset
    summary standing in for them."""

    splits: list[InputSplit]
    #: Rows in ``splits``.
    rows: int
    #: Points the rows stand for: ``rows``, or the summary's total
    #: weight (the naive OD counts are normalised by it).
    total_weight: float
    #: Per-row weights; ``None`` for unit weights.
    weights: np.ndarray | None = None
    #: The summary's ``coreset`` diagnostics; ``None`` on the exact path.
    summary: dict | None = None


class P3CPlusMR:
    """The full P3C+-MR algorithm."""

    #: Name of the fit's ``run`` span; the coreset path appends
    #: ``_coreset``.
    span_name = "p3c_plus_mr"
    #: Whether ``mr_config.coreset_size`` selects the coreset path.
    summarises = True

    def __init__(
        self,
        config: P3CPlusConfig | None = None,
        mr_config: P3CPlusMRConfig | None = None,
        obs: Observability | None = None,
        context: RuntimeContext | None = None,
    ) -> None:
        self.config = config or P3CPlusConfig()
        self.mr_config = mr_config or P3CPlusMRConfig()
        self._base_obs = obs or NULL_OBS
        self.obs = self._base_obs
        #: Service-plane wiring: when set, the runtime is built from
        #: this context (shared-pool executor, per-chain event log)
        #: instead of ``mr_config``'s executor knobs.
        self.context = context
        self.chain: JobChain | None = None
        #: Serving bundle of the last fit (``None`` until a run with
        #: cluster cores completes); persisted when
        #: ``mr_config.model_registry`` is set.
        self.fitted_model = None
        self.model_id: str | None = None

    def _begin_run(self) -> Observability:
        """Scope observability to this fit: per-run spans and metrics.

        Two drivers sharing one process (or one service obs) each get
        their own scope, so back-to-back reports stay disjoint; scoped
        contexts handed in by the service pass through unchanged.
        """
        base = self._base_obs
        if self.context is not None and self.context.obs is not None:
            base = self.context.obs
        run_id = (
            self.context.run_id if self.context is not None else None
        ) or new_run_id("chain")
        self.obs = base.for_run(run_id)
        return self.obs

    @contextmanager
    def _open_chain(self) -> Iterator[JobChain]:
        """Runtime + chain wired to this driver's observability context.

        The runtime is closed when the fit ends, however it ends, so
        the chain's worker pool never outlives it."""
        mr_config = self.mr_config
        if self.context is not None:
            runtime = MapReduceRuntime(
                obs=self.obs if self.obs.enabled else None,
                context=self.context,
            )
        else:
            runtime = MapReduceRuntime(
                max_workers=mr_config.max_workers,
                executor=mr_config.executor,
                obs=self.obs if self.obs.enabled else None,
                fault_plan=mr_config.fault_plan,
                task_timeout_s=mr_config.task_timeout_s,
            )
        chain = JobChain(
            runtime,
            checkpoint=mr_config.checkpoint_dir,
            resume=mr_config.resume,
            run_id=getattr(self.obs, "run_id", None),
            memory_budget_bytes=mr_config.memory_budget_bytes,
        )
        self.chain = chain
        with runtime:
            yield chain

    def _run_core_phase(
        self,
        splits: list[InputSplit],
        n: int,
        chain: JobChain,
        weights: np.ndarray | None = None,
        effective_n: float | None = None,
    ):
        """Histogram job + interval detection + cluster-core generation.

        Returns the cores, the diagnostics and the fit's interval index
        (see :func:`generate_cluster_cores_mr`).

        With ``weights`` (the coreset fast path) the histogram counts
        are weighted and rescaled to the effective sample size before
        the chi-squared interval test, and the Poisson/effect-size
        proving runs at ``n = effective_n`` — so both tests keep honest
        statistical power on the small summary; ``n`` is then the
        ESS-rounded summary size the caller derived.
        """
        obs = self.obs
        with obs.stage("histograms"):
            num_bins = self.config.num_bins(n)
            obs.gauge("binning.bins_per_attribute", num_bins)
            histograms = run_histogram_job(chain, splits, num_bins, weights=weights)
            if weights is not None:
                scale = float(effective_n) / float(weights.sum())
                histograms = [
                    Histogram(attribute=h.attribute, counts=h.counts * scale)
                    for h in histograms
                ]
        with obs.stage("interval_detection"):
            intervals = find_relevant_intervals(
                histograms, alpha=self.config.chi2_alpha
            )
            obs.gauge("intervals.attributes", len(histograms))
            obs.gauge("intervals.relevant", len(intervals))
        with obs.stage("core_generation"):
            cores, stats, index = generate_cluster_cores_mr(
                chain,
                splits,
                intervals,
                n,
                poisson_alpha=self.config.poisson_alpha,
                theta_cc=self.config.theta_cc,
                redundancy_filter=self.config.redundancy_filter,
                multi_level=self.mr_config.multi_level,
                obs=obs,
                weights=weights,
                effective_n=effective_n,
            )
        diagnostics = {
            "num_bins": num_bins,
            "num_relevant_intervals": len(intervals),
            "candidates_per_level": stats.candidates_per_level,
            "proving_jobs": stats.proving_jobs,
            "prove_stats": stats.prove_stats.as_dict(),
            "cores_before_redundancy": stats.cores_before_redundancy,
            "cores_after_redundancy": stats.cores_after_redundancy,
        }
        return cores, diagnostics, index

    # -- the fit pipeline ------------------------------------------------

    def fit(self, data: np.ndarray) -> ClusteringResult:
        """Cluster an in-memory data matrix."""
        data = _validate_data(data)
        n, d = data.shape
        splits = split_records(data, self.mr_config.num_splits)
        return self.fit_splits(splits, n, d)

    def fit_splits(
        self, splits: list[InputSplit], n: int, d: int
    ) -> ClusteringResult:
        """Cluster from pre-built input splits (in-memory or
        file-backed, see :func:`repro.mapreduce.fs.make_csv_splits`);
        the driver never materialises the data matrix.

        The steps: an optional coreset summary, the core phase, the
        labelling step (:meth:`_label`), attribute inspection and
        tightening, the full-data assignment pass (coreset path only),
        and the result, whose members and outliers come from the final
        assignment.
        """
        size = self.mr_config.coreset_size
        coreset = self.summarises and size is not None and size < n
        obs = self._begin_run()
        span_name = self.span_name + ("_coreset" if coreset else "")
        with obs.run(span_name, n=n, d=d), self._open_chain() as chain:
            if coreset:
                points = self._summarise(chain, splits, size)
                ess = points.summary["effective_size"]
                cores, diagnostics, index = self._run_core_phase(
                    points.splits,
                    max(1, round(ess)),
                    chain,
                    weights=points.weights,
                    effective_n=ess,
                )
                diagnostics["coreset"] = points.summary
            else:
                points = FitPoints(splits=splits, rows=n, total_weight=n)
                cores, diagnostics, index = self._run_core_phase(splits, n, chain)
            # No cores: no cluster, and every point is an outlier.
            attributes, signatures, assignment = {}, {}, None
            if cores:
                membership, assignment = self._label(
                    chain, points, cores, index, diagnostics, n, d
                )
                attributes, signatures = self._inspect(
                    chain, points.splits, cores, membership
                )
                if coreset:
                    with obs.stage("coreset_assign"):
                        assignment = run_assign_job(
                            chain, splits, self.fitted_model, n
                        )

            clusters = [
                ProjectedCluster(
                    members=np.flatnonzero(assignment == j),
                    relevant_attributes=frozenset(attrs),
                    signature=signatures.get(j),
                    core=cores[j],
                )
                for j, attrs in attributes.items()
            ]
            assigned = np.zeros(n, dtype=bool)
            for cluster in clusters:
                assigned[cluster.members] = True
            outliers = np.flatnonzero(~assigned)
            diagnostics["mr_jobs"] = chain.num_jobs
            diagnostics["shuffle_records"] = chain.total_shuffle_records
            obs.gauge("clusters.found", len(clusters))
            obs.gauge("outliers.final", len(outliers))
            return ClusteringResult(
                clusters=clusters,
                outliers=outliers,
                n_points=n,
                n_dims=d,
                metadata=diagnostics,
            )

    def _summarise(
        self, chain: JobChain, splits: list[InputSplit], size: int
    ) -> FitPoints:
        """The one-pass weighted summary the coreset path fits in place
        of ``splits``.

        Every later job but the final assignment runs on its ``m << n``
        rows with the weighted kernels, at the summary's effective
        sample size, so proving power stays honest.
        """
        mr_config, obs = self.mr_config, self.obs
        with obs.stage("coreset_summary", mode=mr_config.coreset_mode):
            started = time.perf_counter()
            summary = build_coreset(
                chain,
                splits,
                size,
                mode=mr_config.coreset_mode,
                seed=mr_config.coreset_seed,
            )
            build_s = time.perf_counter() - started
            weights = canonical_weights(summary.weights)
            ess = (
                summary.effective_size
                if weights is not None
                else float(summary.size)
            )
            obs.gauge("mr.coreset_points", summary.size)
            obs.record("mr.coreset_build_s", build_s)
            obs.gauge("mr.coreset_total_weight", summary.total_weight)
            obs.gauge("mr.coreset_effective_size", ess)
        m = summary.size
        return FitPoints(
            splits=split_records(summary.points, min(mr_config.num_splits, m)),
            rows=m,
            total_weight=summary.total_weight,
            weights=weights,
            # No timings here: result metadata must stay byte-identical
            # across executors and chaos runs (build_s lives in the
            # mr.coreset_build_s obs series instead).
            summary={
                "mode": summary.mode,
                "requested_size": summary.requested_size,
                "size": m,
                "total_weight": summary.total_weight,
                "effective_size": ess,
            },
        )

    def _label(
        self,
        chain: JobChain,
        points: FitPoints,
        cores,
        index,
        diagnostics: dict,
        n: int,
        d: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The labelling step: EM, the OD moments (MVB, or the
        mixture's own for naive OD) and the OD job over the fit's rows.

        Registers the serving model and returns the membership that
        attribute inspection reads and the assignment of the fit's
        rows; here both are the OD job's labels.
        """
        obs, config = self.obs, self.config
        em_attrs = {"coreset": True} if points.summary is not None else {}
        with obs.stage("em", **em_attrs):
            mixture = run_em_mr(
                chain,
                points.splits,
                cores,
                points.rows,
                max_iter=config.em_max_iter,
                obs=obs,
                point_weights=points.weights,
            )
        diagnostics["em_iterations"] = len(mixture.log_likelihood_history)

        with obs.stage("outlier_detection", method=config.outlier_method):
            if config.outlier_method == "mvb":
                od_means, od_covs, moment_counts = run_mvb_jobs(
                    chain, points.splits, mixture, point_weights=points.weights
                )
            else:
                od_means, od_covs = mixture.means, mixture.covariances
                # Mixture weights are normalised by the total weight, so
                # this is the count of points each component stands for.
                moment_counts = mixture.weights * points.total_weight
            self._register_fitted(
                algorithm="mr",
                cores=cores,
                mixture=mixture,
                od_means=od_means,
                od_covariances=od_covs,
                od_counts=np.asarray(moment_counts, dtype=float),
                num_bins=diagnostics["num_bins"],
                n=n,
                d=d,
            )
            membership = run_od_job(
                chain, points.splits, self.fitted_model, points.rows
            )
            if points.summary is None:
                # The gauge counts data points, not a summary's rows.
                obs.gauge("outliers.removed", int((membership == -1).sum()))
        diagnostics["moment_jobs"] = _moment_jobs(chain)
        return membership, membership

    def _inspect(
        self,
        chain: JobChain,
        splits: list[InputSplit],
        cores,
        membership: np.ndarray,
    ) -> tuple[dict[int, tuple[int, ...]], dict]:
        """Attribute inspection + tightening over ``membership``: one
        histogram pass (and the optional AI-proving job), whose member
        extremes give the tightened signatures.

        Returns the relevant attributes of each cluster that has
        members and at least one relevant attribute (the clusters the
        result reports), and their tightened signatures.
        """
        obs, config = self.obs, self.config
        sizes = {
            j: int((membership == j).sum()) for j in range(len(cores))
        }
        known = {j: core.attributes for j, core in enumerate(cores)}
        with obs.stage("attribute_inspection", prove=config.ai_proving):
            attributes, extremes = mr_attribute_inspection(
                chain,
                splits,
                membership,
                known,
                sizes,
                chi2_alpha=config.chi2_alpha,
                prove=config.ai_proving,
                poisson_alpha=config.poisson_alpha,
                theta_cc=config.theta_cc,
                max_bins=config.max_bins,
                obs=obs,
            )

        cluster_attributes = {
            j: tuple(sorted(attributes[j]))
            for j in range(len(cores))
            if sizes[j] > 0 and attributes.get(j)
        }
        with obs.stage("tightening"):
            signatures = run_tightening_job(extremes, cluster_attributes)
        return cluster_attributes, signatures

    def _register_fitted(
        self,
        *,
        algorithm: str,
        cores,
        mixture=None,
        od_means=None,
        od_covariances=None,
        od_counts=None,
        num_bins: int,
        n: int,
        d: int,
    ) -> None:
        """Build the serving bundle; persist it when a registry is set."""
        # Imported lazily: repro.serving pulls in repro.mr, which would
        # cycle at module import time.
        from repro.serving import FittedModel, ModelRegistry

        self.fitted_model = FittedModel(
            algorithm=algorithm,
            cores=tuple(cores),
            mixture=mixture,
            od_means=od_means,
            od_covariances=od_covariances,
            od_counts=od_counts,
            outlier_alpha=self.config.outlier_alpha,
            num_bins=num_bins,
            n_points=n,
            n_dims=d,
        )
        if self.mr_config.model_registry:
            registry = ModelRegistry(self.mr_config.model_registry)
            self.model_id = registry.save(self.fitted_model, tags=("latest",))
            self.obs.count("serving.models_registered")
