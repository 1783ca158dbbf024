"""Fitted-model bundle and batched point scorer for the serving path.

A :class:`FittedModel` is what a P3C+ run leaves behind once the chain
finishes: the cluster cores with their relevant intervals, the EM
mixture over ``A_rel`` (absent for the light variant), the MVB moment
estimates that parameterise the serve-time outlier verdict, and the
binning resolution the run used.  The bundle is independent of how it
was fitted — the registry persists it, the scorer serves it.

Scoring semantics
-----------------

``FittedModel.assign(points)`` returns ``(cluster_ids, outlier_mask,
scores)`` aligned with the input rows:

- **Full model** (mixture present): hard argmax-posterior component
  assignment, then the qdaim-style outlier verdict — squared
  Mahalanobis distance to the assigned component's MVB moments compared
  against the χ² critical value at ``outlier_alpha``, inflated for
  small per-component sample counts.  A full fit's OD job runs this
  scorer over its splits, so the fit's verdict is this verdict.  ``scores`` is the
  squared Mahalanobis distance; outliers keep their distance but get
  ``cluster_id == -1``.
- **Light model** (no mixture): cores *are* clusters.  A point is
  assigned to the first covering core in interestingness order exactly
  as ``light_membership`` does, via the RSSC's per-point interval
  bitmaps (``RSSC.membership_matrix``); ``scores`` is the covering-core
  count, and points covered by no core are outliers.  Finite values
  outside [0, 1] clamp to the boundary, matching the batch RSSC
  contract.
- Rows with a non-finite value on any *relevant* attribute are never
  assigned: ``cluster_id == -1``, ``outlier_mask`` True, ``score`` NaN.
  Non-finite values on irrelevant attributes are ignored, as the
  projected-clustering semantics demand.

The batch path is vectorised; :func:`reference_assign` is the scalar
oracle it is property-tested against, element-wise bitwise.  The
component log-joint is computed from a fixed-reduction-order quadratic
form plus a precomputed Cholesky log-determinant — mathematically
identical to ``GaussianMixture.assign`` but row-stable, so batch and
scalar scoring agree bit-for-bit.  Neither LAPACK's blocked triangular
solve nor ``np.einsum`` (whose SIMD tail handling rounds a row
differently depending on its position in the batch) gives that
guarantee, hence :func:`_stable_mahalanobis` below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.em import _LOG_2PI, GaussianMixture, _safe_cholesky
from repro.core.outliers import small_sample_inflation
from repro.core.stats import _robust_inverse, chi2_critical_value
from repro.core.types import ClusterCore
from repro.mapreduce.cache import DistributedCache
from repro.mr.rssc import RSSC

#: Schema identifier persisted with every registry entry; bumped on any
#: layout change so stale bundles fail loudly instead of mis-scoring.
SCHEMA_VERSION = "repro.serving/fitted-model/v1"


def _stable_mahalanobis(
    points: np.ndarray, mean: np.ndarray, inv: np.ndarray
) -> np.ndarray:
    """Squared Mahalanobis distance with a batch-size-independent
    per-row rounding.

    ``core.stats.mahalanobis_squared`` contracts via ``np.einsum``,
    which rounds a row's quadratic form differently depending on where
    it lands relative to the SIMD tail — the same point can score a
    last-ulp different value in a 1-row batch than in a 58-row batch.
    Serving promises batch == scalar bitwise, so the quadratic form is
    accumulated here in explicit ``(a, b)`` order with elementwise ops
    only; each row then goes through an identical operation sequence
    regardless of how many neighbours it has.  ``A_rel`` is small
    (typically 1-4 attributes), so the m² Python loop is cheap.
    """
    diff = points - mean
    quad = np.zeros(len(diff))
    m = diff.shape[1]
    for a in range(m):
        for b in range(m):
            quad += diff[:, a] * inv[a, b] * diff[:, b]
    return quad


class AssignResult(NamedTuple):
    """Row-aligned scoring output of :meth:`FittedModel.assign`."""

    cluster_ids: np.ndarray  # (n,) int64, -1 = outlier / unassigned
    outlier_mask: np.ndarray  # (n,) bool
    scores: np.ndarray  # (n,) float64, NaN for non-finite input rows


@dataclass
class FittedModel:
    """Serving bundle: cores, mixture, MVB estimates, binning."""

    algorithm: str
    cores: tuple[ClusterCore, ...]
    mixture: GaussianMixture | None
    od_means: np.ndarray | None  # (k, m) MVB means in A_rel coordinates
    od_covariances: np.ndarray | None  # (k, m, m) MVB covariances
    od_counts: np.ndarray | None  # (k,) moment sample counts
    outlier_alpha: float
    num_bins: int
    n_points: int
    n_dims: int
    _caches: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.cores = tuple(self.cores)
        if self.mixture is not None:
            if self.od_means is None or self.od_covariances is None:
                raise ValueError("full models require MVB outlier moments")
            self.od_means = np.asarray(self.od_means, dtype=float)
            self.od_covariances = np.asarray(self.od_covariances, dtype=float)
            if self.od_counts is None:
                self.od_counts = np.zeros(len(self.od_means))
            self.od_counts = np.asarray(self.od_counts, dtype=float)

    def __getstate__(self) -> dict:
        # Scorer caches are derived state: a model shipped to map tasks
        # pickles (and fingerprints) the same before and after scoring.
        state = self.__dict__.copy()
        state["_caches"] = {}
        return state

    # -- derived structure ------------------------------------------------

    @property
    def num_clusters(self) -> int:
        if self.mixture is not None:
            return self.mixture.num_components
        return len(self.cores)

    @property
    def relevant_attributes(self) -> tuple[int, ...]:
        """Attributes whose values the scorer actually inspects."""
        if self.mixture is not None:
            return tuple(self.mixture.attributes)
        attrs: set[int] = set()
        for core in self.cores:
            attrs.update(core.attributes)
        return tuple(sorted(attrs))

    def binning_edges(self) -> np.ndarray:
        """Equi-width bin edges of the fitting run's histogram grid."""
        return np.linspace(0.0, 1.0, self.num_bins + 1)

    def _rssc(self) -> RSSC:
        rssc = self._caches.get("rssc")
        if rssc is None:
            rssc = RSSC([core.signature for core in self.cores])
            self._caches["rssc"] = rssc
        return rssc

    def _full_scorer(self) -> dict:
        """Precomputed per-component constants for the full-model path."""
        scorer = self._caches.get("full")
        if scorer is None:
            mixture = self.mixture
            assert mixture is not None
            k = mixture.num_components
            m = len(mixture.attributes)
            log_weights = np.log(np.maximum(mixture.weights, 1e-300))
            log_dets = np.empty(k)
            em_inverses = np.empty((k, m, m))
            od_inverses = np.empty((k, m, m))
            for j in range(k):
                _, log_dets[j] = _safe_cholesky(mixture.covariances[j])
                em_inverses[j] = _robust_inverse(
                    np.atleast_2d(mixture.covariances[j])
                )
                od_inverses[j] = _robust_inverse(
                    np.atleast_2d(self.od_covariances[j])
                )
            # The fit's OD job runs this scorer, so these are its cutoffs:
            # χ² at outlier_alpha with |A_rel| degrees of freedom, inflated
            # for small per-component sample counts.
            base = chi2_critical_value(m, self.outlier_alpha)
            critical = np.empty(k)
            for j in range(k):
                inflation = small_sample_inflation(int(self.od_counts[j]), m)
                critical[j] = (
                    base * inflation if np.isfinite(inflation) else np.inf
                )
            scorer = {
                "log_weights": log_weights,
                "log_dets": log_dets,
                "em_inverses": em_inverses,
                "od_inverses": od_inverses,
                "critical": critical,
                "const": m * _LOG_2PI,
            }
            self._caches["full"] = scorer
        return scorer

    # -- scoring ----------------------------------------------------------

    def _as_batch(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            rows = -1 if points.size else 0
            points = points.reshape(rows, self.n_dims)
        if points.ndim != 2 or points.shape[1] != self.n_dims:
            raise ValueError(
                f"point batch shape {np.shape(points)} incompatible with "
                f"{self.n_dims}-dimensional model"
            )
        return points

    def assign(self, points: np.ndarray) -> AssignResult:
        """Batched vectorised scoring of a ``(n, d)`` point block."""
        points = self._as_batch(points)
        n = len(points)
        ids = np.full(n, -1, dtype=np.int64)
        outliers = np.ones(n, dtype=bool)
        scores = np.full(n, np.nan)
        rel = list(self.relevant_attributes)
        if rel:
            finite = np.isfinite(points[:, rel]).all(axis=1)
        else:
            finite = np.zeros(n, dtype=bool)
        if finite.any():
            rows = np.where(finite)[0]
            clean = points[rows]
            if self.mixture is not None:
                cid, out, sc = self._assign_full(clean)
            else:
                cid, out, sc = self._assign_light(clean)
            ids[rows] = cid
            outliers[rows] = out
            scores[rows] = sc
        return AssignResult(ids, outliers, scores)

    def _assign_full(
        self, clean: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        mixture = self.mixture
        assert mixture is not None
        scorer = self._full_scorer()
        sub = mixture.project(clean)
        k = mixture.num_components
        joint = np.empty((len(sub), k))
        for j in range(k):
            d2 = _stable_mahalanobis(
                sub, mixture.means[j], scorer["em_inverses"][j]
            )
            joint[:, j] = scorer["log_weights"][j] - 0.5 * (
                scorer["const"] + scorer["log_dets"][j] + d2
            )
        assignment = np.argmax(joint, axis=1)
        d2_out = np.empty(len(sub))
        for j in range(k):
            members = assignment == j
            if members.any():
                d2_out[members] = _stable_mahalanobis(
                    sub[members], self.od_means[j], scorer["od_inverses"][j]
                )
        outliers = d2_out > scorer["critical"][assignment]
        ids = assignment.astype(np.int64)
        ids[outliers] = -1
        return ids, outliers, d2_out

    def _assign_light(
        self, clean: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        membership = self._rssc().membership_matrix(clean)
        cover = membership.sum(axis=1)
        # First covering core in core order == light_membership's argmax
        # over interestingness-ordered core masks.
        first = np.argmax(membership, axis=1) if membership.shape[1] else np.zeros(
            len(clean), dtype=np.int64
        )
        ids = np.where(cover > 0, first, -1).astype(np.int64)
        outliers = ids < 0
        return ids, outliers, cover.astype(float)

    # -- identity ---------------------------------------------------------

    def _fingerprint_payload(self) -> dict:
        payload: dict = {
            "schema": SCHEMA_VERSION,
            "algorithm": self.algorithm,
            "outlier_alpha": float(self.outlier_alpha),
            "num_bins": int(self.num_bins),
            "n_points": int(self.n_points),
            "n_dims": int(self.n_dims),
            "cores": tuple(
                (
                    tuple(
                        (iv.attribute, iv.lower, iv.upper)
                        for iv in core.signature
                    ),
                    int(core.support),
                    float(core.expected_support),
                )
                for core in self.cores
            ),
        }
        if self.mixture is not None:
            payload.update(
                em_attributes=tuple(self.mixture.attributes),
                em_means=self.mixture.means,
                em_covariances=self.mixture.covariances,
                em_weights=self.mixture.weights,
                od_means=self.od_means,
                od_covariances=self.od_covariances,
                od_counts=self.od_counts,
            )
        return payload

    def fingerprint(self) -> str:
        """Content fingerprint over the canonical parameter payload.

        Stable across save/load round trips (the registry verifies it on
        load) and independent of anything incidental like timestamps.
        """
        return DistributedCache(self._fingerprint_payload()).fingerprint()


def reference_assign(model: FittedModel, points: np.ndarray) -> AssignResult:
    """Scalar one-point-at-a-time reference scorer.

    The oracle for the batched path (property-tested element-wise
    bitwise-identical) and the denominator of the serving benchmark's
    speedup gate.  Deliberately naive: a Python loop over rows, the
    arbitrary-precision ``membership_bits`` path for core membership,
    per-row Mahalanobis evaluations for the mixture.
    """
    points = model._as_batch(points)
    rel = list(model.relevant_attributes)
    ids: list[int] = []
    outliers: list[bool] = []
    scores: list[float] = []
    rssc = model._rssc() if model.mixture is None else None
    scorer = model._full_scorer() if model.mixture is not None else None
    for row in points:
        if not rel or not np.all(np.isfinite(row[rel])):
            ids.append(-1)
            outliers.append(True)
            scores.append(float("nan"))
            continue
        if model.mixture is not None:
            mixture = model.mixture
            sub = row[list(mixture.attributes)][None, :]
            k = mixture.num_components
            joint = np.empty(k)
            for j in range(k):
                d2 = _stable_mahalanobis(
                    sub, mixture.means[j], scorer["em_inverses"][j]
                )[0]
                joint[j] = scorer["log_weights"][j] - 0.5 * (
                    scorer["const"] + scorer["log_dets"][j] + d2
                )
            best = int(np.argmax(joint))
            d2_out = float(
                _stable_mahalanobis(
                    sub, model.od_means[best], scorer["od_inverses"][best]
                )[0]
            )
            is_outlier = d2_out > scorer["critical"][best]
            ids.append(-1 if is_outlier else best)
            outliers.append(bool(is_outlier))
            scores.append(d2_out)
        else:
            clamped = np.clip(row, 0.0, 1.0)
            bits = rssc.membership_bits(clamped)
            cover = bits.bit_count()
            if cover:
                first = (bits & -bits).bit_length() - 1
                ids.append(first)
                outliers.append(False)
            else:
                ids.append(-1)
                outliers.append(True)
            scores.append(float(cover))
    return AssignResult(
        np.array(ids, dtype=np.int64),
        np.array(outliers, dtype=bool),
        np.array(scores, dtype=float),
    )
