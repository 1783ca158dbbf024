"""The paper's clustering model: P3C and P3C+ (in-memory reference).

Everything in this package is substrate-free: pure NumPy implementations
of the definitions in Sections 3-4 of the paper.  The MapReduce drivers
in :mod:`repro.mr` re-express the exact same computations as MR jobs and
are tested for equality against these references.
"""

from repro.core.apriori import generate_candidates, maximal_signatures
from repro.core.attribute_inspection import inspect_attributes
from repro.core.binning import (
    Histogram,
    build_histogram,
    freedman_diaconis_bins,
    sturges_bins,
)
from repro.core.em import GaussianMixture, fit_em, initialize_from_cores
from repro.core.intervals import find_relevant_intervals
from repro.core.outliers import (
    MVBEstimate,
    MVEEstimate,
    detect_outliers_mvb,
    detect_outliers_mve,
    detect_outliers_naive,
    minimum_volume_enclosing_ellipsoid,
    mvb_estimate,
    mve_estimate,
)
from repro.core.p3c import P3C
from repro.core.p3c_plus import P3CPlus, P3CPlusConfig
from repro.core.proving import ProvenSignature, SupportTester
from repro.core.redundancy import filter_redundant, interestingness
from repro.core.stats import (
    chi_squared_uniformity_pvalue,
    cohens_d_cc,
    mahalanobis_squared,
    poisson_deviation_significant,
    poisson_sf,
)
from repro.core.tightening import tighten_intervals
from repro.core.types import (
    ClusterCore,
    ClusteringResult,
    Interval,
    IntervalTable,
    ProjectedCluster,
    Signature,
)

__all__ = [
    "ClusterCore",
    "ClusteringResult",
    "GaussianMixture",
    "Histogram",
    "Interval",
    "IntervalTable",
    "MVBEstimate",
    "MVEEstimate",
    "P3C",
    "P3CPlus",
    "P3CPlusConfig",
    "ProjectedCluster",
    "ProvenSignature",
    "Signature",
    "SupportTester",
    "build_histogram",
    "chi_squared_uniformity_pvalue",
    "cohens_d_cc",
    "detect_outliers_mvb",
    "detect_outliers_mve",
    "detect_outliers_naive",
    "filter_redundant",
    "find_relevant_intervals",
    "fit_em",
    "freedman_diaconis_bins",
    "generate_candidates",
    "initialize_from_cores",
    "inspect_attributes",
    "interestingness",
    "mahalanobis_squared",
    "maximal_signatures",
    "minimum_volume_enclosing_ellipsoid",
    "mvb_estimate",
    "mve_estimate",
    "poisson_deviation_significant",
    "poisson_sf",
    "sturges_bins",
    "tighten_intervals",
]
