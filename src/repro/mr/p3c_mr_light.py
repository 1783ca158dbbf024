"""P3C+-MR-Light: the Light MapReduce driver (paper Section 6).

All of P3C+-MR except the EM and outlier-detection phases: cluster
cores *are* the clusters.  Attribute-inspection histograms use the
``m'`` mapping — only points supporting exactly one core contribute —
which sidesteps both the blurring effect and the redundancy problem for
shared regions.  For the unique point assignment required of a
projected clustering, shared points go to the most interesting covering
core (cores are sorted by their ``Supp/Supp_exp`` ratio).
"""

from __future__ import annotations

import numpy as np

from repro.core.p3c_plus import P3CPlusConfig, _validate_data
from repro.core.types import ClusteringResult
from repro.mapreduce import RuntimeContext
from repro.mapreduce.types import InputSplit, split_records
from repro.mr.light_jobs import run_light_membership_job
from repro.mr.p3c_mr import P3CPlusMR, P3CPlusMRConfig
from repro.obs import Observability


class P3CPlusMRLight(P3CPlusMR):
    """The Light variant: no EM, no outlier detection."""

    def __init__(
        self,
        config: P3CPlusConfig | None = None,
        mr_config: P3CPlusMRConfig | None = None,
        obs: Observability | None = None,
        context: RuntimeContext | None = None,
    ) -> None:
        super().__init__(config, mr_config, obs=obs, context=context)

    def fit(self, data: np.ndarray) -> ClusteringResult:
        """Cluster an in-memory data matrix."""
        data = _validate_data(data)
        n, d = data.shape
        splits = split_records(data, self.mr_config.num_splits)
        return self.fit_splits(splits, n, d)

    def fit_splits(
        self, splits: list[InputSplit], n: int, d: int
    ) -> ClusteringResult:
        """Cluster from pre-built (possibly file-backed) input splits."""
        obs = self._begin_run()
        with obs.run("p3c_plus_mr_light", n=n, d=d), self._open_chain() as chain:
            cores, diagnostics, index = self._run_core_phase(splits, n, chain)
            if not cores:
                return self._empty_result(n, d, diagnostics, chain)

            signatures = [core.signature for core in cores]
            self._register_fitted(
                algorithm="mr-light",
                cores=cores,
                mixture=None,
                od_means=None,
                od_covariances=None,
                od_counts=None,
                num_bins=diagnostics["num_bins"],
                n=n,
                d=d,
            )

            # Exclusive membership (m') and the unique output assignment
            # come from one map-only job over the interval index
            # (Section 6).
            with obs.stage("light_membership"):
                exclusive, assignment = run_light_membership_job(
                    chain, index, signatures, n
                )
                obs.gauge(
                    "light.exclusive_points", int((exclusive >= 0).sum())
                )
                obs.gauge(
                    "light.shared_points",
                    int(((exclusive < 0) & (assignment >= 0)).sum()),
                )

            # Clusters whose every supporting point is shared fall back
            # to the full support set for inspection, as the serial
            # Light does.
            inspect_membership = exclusive.copy()
            for j in range(len(cores)):
                if not (exclusive == j).any():
                    inspect_membership[assignment == j] = j

            result = self._finish(
                splits,
                n,
                d,
                chain,
                cores,
                inspect_membership,
                diagnostics,
            )
            # _finish derived memberships from the inspection mapping;
            # output clusters must carry the *full* (uniquely assigned)
            # memberships.
            for cluster in result.clusters:
                j = cores.index(cluster.core)
                cluster.members = np.where(assignment == j)[0]
            assigned = np.zeros(n, dtype=bool)
            for cluster in result.clusters:
                assigned[cluster.members] = True
            result.outliers = np.where(~assigned)[0]
            return result
