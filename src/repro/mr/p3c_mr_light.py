"""P3C+-MR-Light: the Light MapReduce driver (paper Section 6).

All of P3C+-MR except the EM and outlier-detection phases: cluster
cores *are* the clusters.  The driver is :class:`~repro.mr.p3c_mr.P3CPlusMR`'s
fit pipeline with one labelling step swapped in.  Attribute-inspection
histograms use the ``m'`` mapping — only points supporting exactly one
core contribute — which sidesteps both the blurring effect and the
redundancy problem for shared regions.  For the unique point assignment
required of a projected clustering, shared points go to the most
interesting covering core (cores are sorted by their ``Supp/Supp_exp``
ratio).
"""

from __future__ import annotations

import numpy as np

from repro.mapreduce import JobChain
from repro.mr.light_jobs import run_light_membership_job
from repro.mr.p3c_mr import FitPoints, P3CPlusMR


class P3CPlusMRLight(P3CPlusMR):
    """The Light variant: no EM, no outlier detection."""

    span_name = "p3c_plus_mr_light"
    #: Light has no coreset path: ``mr_config.coreset_size`` is ignored.
    summarises = False

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
        """The Light labelling step: one map-only job over the interval
        index yields the exclusive membership (``m'``) and the unique
        output assignment (Section 6).

        Returns ``m'`` for attribute inspection and the assignment.
        """
        self._register_fitted(
            algorithm="mr-light",
            cores=cores,
            num_bins=diagnostics["num_bins"],
            n=n,
            d=d,
        )
        obs = self.obs
        with obs.stage("light_membership"):
            exclusive, assignment = run_light_membership_job(
                chain, index, [core.signature for core in cores], points.rows
            )
            obs.gauge("light.exclusive_points", int((exclusive >= 0).sum()))
            obs.gauge(
                "light.shared_points",
                int(((exclusive < 0) & (assignment >= 0)).sum()),
            )

        # Clusters whose every supporting point is shared fall back to
        # the full support set for inspection, as the serial Light does.
        membership = exclusive.copy()
        for j in range(len(cores)):
            if not (exclusive == j).any():
                membership[assignment == j] = j
        return membership, assignment
