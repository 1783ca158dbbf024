"""The P3C+ pipeline (in-memory reference) and its Light variant.

This is the serial ground truth the MapReduce drivers are validated
against.  The pipeline follows Sections 3-4:

1. histogram building (Freedman-Diaconis bins),
2. relevant-interval detection (chi-squared marking),
3. Apriori cluster-core generation with Poisson + effect-size proving,
4. maximality filter + redundancy filter,
5. EM refinement in ``A_rel`` seeded from the cores,
6. outlier detection (naive or MVB),
7. attribute inspection (+ AI proving),
8. interval tightening.

:class:`P3CPlusLight` stops after step 4 and reports the cluster cores
directly (Section 6), avoiding the interval *blurring* the EM/outlier
steps introduce on large data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from repro.core.apriori import cluster_cores, generate_candidates
from repro.core.attribute_inspection import inspect_attributes
from repro.core.binning import (
    build_all_histograms,
    freedman_diaconis_bins,
    sturges_bins,
)
from repro.core.em import fit_em, initialize_from_cores
from repro.core.intervals import find_relevant_intervals
from repro.core.outliers import (
    detect_outliers_mvb,
    detect_outliers_mve,
    detect_outliers_naive,
)
from repro.core.proving import SupportTester
from repro.core.tightening import tighten_intervals
from repro.core.types import (
    ClusterCore,
    ClusteringResult,
    IntervalTable,
    ProjectedCluster,
    mask_ids,
)


@dataclass(frozen=True)
class P3CPlusConfig:
    """All tuning knobs of the P3C / P3C+ family.

    The defaults are the paper's Section 7.3 settings.  The original
    P3C is this config with ``binning='sturges'``, ``theta_cc=None``,
    ``redundancy_filter=False``, ``outlier_method='naive'`` and
    ``ai_proving=False`` (see :mod:`repro.core.p3c`).
    """

    binning: Literal["freedman-diaconis", "sturges"] = "freedman-diaconis"
    chi2_alpha: float = 0.001
    poisson_alpha: float = 0.01
    theta_cc: float | None = 0.35
    redundancy_filter: bool = True
    outlier_method: Literal["naive", "mvb", "mve"] = "mvb"
    outlier_alpha: float = 0.001
    ai_proving: bool = True
    em_max_iter: int = 15
    apriori_prune: bool = True
    max_bins: int | None = 200

    def num_bins(self, n: int) -> int:
        if self.binning == "sturges":
            bins = sturges_bins(n)
        else:
            bins = freedman_diaconis_bins(n)
        if self.max_bins is not None:
            bins = min(bins, self.max_bins)
        return bins

    def with_overrides(self, **changes: object) -> "P3CPlusConfig":
        return replace(self, **changes)


def _validate_data(data: np.ndarray) -> np.ndarray:
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-D (n x d), got shape {data.shape}")
    if len(data) == 0:
        raise ValueError("data must contain at least one point")
    if np.nanmin(data) < 0.0 or np.nanmax(data) > 1.0:
        raise ValueError(
            "attributes must be normalised to [0, 1]; "
            "see repro.data.normalize_unit_range"
        )
    if np.isnan(data).any():
        raise ValueError("data must not contain NaN")
    return data


def generate_cluster_cores(
    data: np.ndarray,
    config: P3CPlusConfig,
) -> tuple[list[ClusterCore], dict[str, object]]:
    """Steps 1-4: histograms, intervals, Apriori proving, filters.

    Returns the cluster cores plus diagnostics used by the experiment
    harnesses (bin count, interval count, per-level proven counts,
    pre-/post-filter core counts for Figure 5).
    """
    n = len(data)
    num_bins = config.num_bins(n)
    histograms = build_all_histograms(data, num_bins)
    intervals = find_relevant_intervals(histograms, alpha=config.chi2_alpha)
    diagnostics: dict[str, object] = {
        "num_bins": num_bins,
        "num_relevant_intervals": len(intervals),
        "proven_per_level": [],
    }
    if not intervals:
        diagnostics.update(cores_before_redundancy=0, cores_after_redundancy=0)
        return [], diagnostics

    # Signatures are id masks over the interval table until the cores.
    table = IntervalTable(intervals)
    inside = [iv.contains_column(data[:, iv.attribute]) for iv in table.intervals]
    tester = SupportTester(
        table, n, alpha=config.poisson_alpha, theta_cc=config.theta_cc
    )
    all_supports: dict[int, int] = {}
    proven_all: list[int] = []

    level = [table.encode([interval]) for interval in intervals]
    while level:
        supports = {
            sig: int(np.logical_and.reduce([inside[k] for k in mask_ids(sig)]).sum())
            for sig in level
        }
        all_supports.update(supports)
        proven = tester.prove(
            level, supports, known=all_supports, proven_set=proven_all
        )
        diagnostics["proven_per_level"].append(len(proven))
        proven_sigs = [p.signature for p in proven]
        proven_all.extend(proven_sigs)
        if not proven_sigs:
            break
        level = generate_candidates(proven_sigs, table, prune=config.apriori_prune)
        level = [sig for sig in level if sig not in all_supports]

    cores, diagnostics["cores_before_redundancy"] = cluster_cores(
        table, proven_all, all_supports, n, config.redundancy_filter
    )
    diagnostics["cores_after_redundancy"] = len(cores)
    return cores, diagnostics


class P3CPlus:
    """The full P3C+ algorithm (Sections 4-5, serial reference)."""

    def __init__(self, config: P3CPlusConfig | None = None) -> None:
        self.config = config or P3CPlusConfig()

    def fit(self, data: np.ndarray) -> ClusteringResult:
        data = _validate_data(data)
        n, d = data.shape
        config = self.config

        cores, diagnostics = generate_cluster_cores(data, config)
        if not cores:
            return ClusteringResult(
                clusters=[],
                outliers=np.arange(n),
                n_points=n,
                n_dims=d,
                metadata=diagnostics,
            )

        # EM refinement in the relevant subspace.
        init = initialize_from_cores(data, cores)
        mixture = fit_em(data, init, max_iter=config.em_max_iter)
        sub = mixture.project(data)
        assignment = mixture.assign(sub)
        diagnostics["em_iterations"] = len(mixture.log_likelihood_history)

        # Outlier detection per cluster.
        outlier_mask = np.zeros(n, dtype=bool)
        for j in range(len(cores)):
            members = assignment == j
            if not members.any():
                continue
            members_sub = sub[members]
            if config.outlier_method == "mvb":
                flags, _ = detect_outliers_mvb(members_sub, config.outlier_alpha)
            elif config.outlier_method == "mve":
                flags, _ = detect_outliers_mve(members_sub, config.outlier_alpha)
            else:
                flags = detect_outliers_naive(
                    members_sub,
                    mixture.means[j],
                    mixture.covariances[j],
                    config.outlier_alpha,
                )
            idx = np.where(members)[0]
            outlier_mask[idx[flags]] = True

        # Attribute inspection + tightening.
        clusters: list[ProjectedCluster] = []
        for j, core in enumerate(cores):
            member_mask = (assignment == j) & ~outlier_mask
            if not member_mask.any():
                continue
            inspection = inspect_attributes(
                data,
                member_mask,
                known_attributes=core.attributes,
                chi2_alpha=config.chi2_alpha,
                prove=config.ai_proving,
                poisson_alpha=config.poisson_alpha,
                theta_cc=config.theta_cc,
                max_bins=config.max_bins,
            )
            signature = tighten_intervals(data, member_mask, inspection.attributes)
            clusters.append(
                ProjectedCluster(
                    members=np.where(member_mask)[0],
                    relevant_attributes=inspection.attributes,
                    signature=signature,
                    core=core,
                )
            )

        assigned = np.zeros(n, dtype=bool)
        for cluster in clusters:
            assigned[cluster.members] = True
        return ClusteringResult(
            clusters=clusters,
            outliers=np.where(~assigned)[0],
            n_points=n,
            n_dims=d,
            metadata=diagnostics,
        )


class P3CPlusLight:
    """P3C+ without EM and outlier detection (Section 6).

    Cluster cores are output directly; points supporting more than one
    core are excluded from the attribute-inspection histograms (the
    ``m'`` mapping) and, for unique assignment, shared points go to the
    most interesting covering core.
    """

    def __init__(self, config: P3CPlusConfig | None = None) -> None:
        self.config = config or P3CPlusConfig()

    def fit(self, data: np.ndarray) -> ClusteringResult:
        data = _validate_data(data)
        n, d = data.shape
        config = self.config

        cores, diagnostics = generate_cluster_cores(data, config)
        if not cores:
            return ClusteringResult(
                clusters=[],
                outliers=np.arange(n),
                n_points=n,
                n_dims=d,
                metadata=diagnostics,
            )

        masks = [core.signature.support_mask(data) for core in cores]
        cover_count = np.zeros(n, dtype=np.int64)
        for mask in masks:
            cover_count += mask

        # Unique assignment: cores are ordered by interestingness, so the
        # first covering core wins for shared points.
        assignment = np.full(n, -1, dtype=np.int64)
        for j in range(len(cores) - 1, -1, -1):
            assignment[masks[j]] = j

        clusters: list[ProjectedCluster] = []
        for j, core in enumerate(cores):
            exclusive_mask = masks[j] & (cover_count == 1)
            inspect_mask = exclusive_mask if exclusive_mask.any() else masks[j]
            inspection = inspect_attributes(
                data,
                inspect_mask,
                known_attributes=core.attributes,
                chi2_alpha=config.chi2_alpha,
                prove=config.ai_proving,
                poisson_alpha=config.poisson_alpha,
                theta_cc=config.theta_cc,
                max_bins=config.max_bins,
            )
            member_mask = assignment == j
            if not member_mask.any():
                continue
            signature = tighten_intervals(data, inspect_mask, inspection.attributes)
            clusters.append(
                ProjectedCluster(
                    members=np.where(member_mask)[0],
                    relevant_attributes=inspection.attributes,
                    signature=signature,
                    core=core,
                )
            )

        return ClusteringResult(
            clusters=clusters,
            outliers=np.where(assignment == -1)[0],
            n_points=n,
            n_dims=d,
            metadata=diagnostics,
        )
