"""EM as MapReduce jobs (paper Section 5.4).

Every moment estimate — sample means and covariances of all ``k``
clusters — is **one** MR job.  Its mapper evaluates the per-point
weights ``w_Ci`` once and accumulates, per cluster ``C``:

- the linear sum about a centre ``c_C``, ``l_C = sum_i w_Ci (x_i - c_C)``,
- the weight sum ``w_C`` and the squared weight sum ``w_C2``,
- the scatter about the same centre,
  ``S_C = sum_i w_Ci (x_i - c_C)(x_i - c_C)^T``,
- during EM iterations, the data log-likelihood, taken from the same
  log-joint as the responsibilities so the driver can test convergence.

The driver ships the centres and finalises ``mu_C = c_C + l_C / w_C``
and the scatter about the mean, ``S_C - w_C d d^T`` with
``d = l_C / w_C``, under the paper's unbiased scale
``w_C / (w_C^2 - w_C2)``.  The paper runs a sums job and then a
covariance job that needs the finished means (two jobs per estimate);
the centred scatter folds both into one pass.  The centre is the
previous estimate of the cluster's mean, so ``d`` is small and the
subtraction loses almost nothing: the core-signature midpoints for the
first initialisation pass, the first pass's means for the second, the
previous mixture's means for an EM iteration, and the ball centres for
the MVB moments (DESIGN.md has the error bound).

The per-point weights ``w_Ci`` are supplied by a *weight model* shipped
in the cache; the same job therefore serves the EM initialisation
(hard support-set weights, then support-set + assigned strays), the EM
iterations (posterior responsibilities) and the MVB moment computation
(hard inside-ball weights) — exactly the reuse the paper describes.

Mappers receive their split as one ``(n, d)`` block (the
:class:`~repro.mapreduce.job.BatchMapper` contract) and compute
vectorised in ``cleanup`` — the split-caching pattern Section 5.5
prescribes for the MVB mapper, without a per-record ``map()`` call.

Per-point weights (the coreset fast path) are multiplied into the
weight-model matrix before the sums are taken, so every moment —
means, covariances, mixture weights, log-likelihood — becomes its
weighted counterpart without touching the weight models themselves.
Unit weights are canonicalised away at the runner boundary, keeping
the unweighted path bitwise unchanged.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.em import GaussianMixture, nearest_component
from repro.core.types import Signature
from repro.mapreduce import BufferedBatchMapper, Context, DistributedCache, Job, Reducer
from repro.mapreduce.chain import JobChain
from repro.mapreduce.types import InputSplit
from repro.mr.aggregate import sum_partials
from repro.mr.weights import canonical_weights, take_weights


class WeightModel:
    """Computes an (n_split, k) weight matrix for a block of points and
    names the centre each cluster's scatter is accumulated about.

    ``data`` is the block in full-space coordinates; implementations
    project to their subspace as needed.
    """

    def evaluate(self, data: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """The weight matrix, plus the per-point log-densities when the
        weights are a mixture's responsibilities (``None`` otherwise)."""
        raise NotImplementedError

    def centers(self, attributes: tuple[int, ...]) -> np.ndarray:
        """``(k, m)`` scatter centres in ``attributes`` coordinates."""
        raise NotImplementedError


class CoreSupportWeights(WeightModel):
    """Hard weights: 1 iff the point is in the core's support set
    (EM-initialisation pass 1); centred at the signature midpoints."""

    def __init__(self, signatures: list[Signature]) -> None:
        self.signatures = signatures

    def evaluate(self, data: np.ndarray) -> tuple[np.ndarray, None]:
        masks = [sig.support_mask(data).astype(float) for sig in self.signatures]
        return np.stack(masks, axis=1), None

    def centers(self, attributes: tuple[int, ...]) -> np.ndarray:
        column = {a: i for i, a in enumerate(attributes)}
        out = np.full((len(self.signatures), len(attributes)), 0.5)
        for j, sig in enumerate(self.signatures):
            for interval in sig:
                if interval.attribute in column:
                    out[j, column[interval.attribute]] = 0.5 * (
                        interval.lower + interval.upper
                    )
        return out


class SupportPlusStrayWeights(CoreSupportWeights):
    """Support-set weights, with stray points (outside every support
    set) assigned to the Mahalanobis-nearest core (EM-initialisation
    pass 2, Section 5.4); centred at the pass-1 means."""

    def __init__(
        self,
        signatures: list[Signature],
        means: np.ndarray,
        covariances: np.ndarray,
        attributes: tuple[int, ...],
    ) -> None:
        super().__init__(signatures)
        self.means = means
        self.covariances = covariances
        self.attributes = attributes

    def evaluate(self, data: np.ndarray) -> tuple[np.ndarray, None]:
        base, _ = super().evaluate(data)
        stray = base.sum(axis=1) == 0
        if stray.any():
            sub = data[np.ix_(stray, list(self.attributes))]
            nearest = nearest_component(sub, self.means, self.covariances)
            stray_rows = np.where(stray)[0]
            base[stray_rows, nearest] = 1.0
        return base, None

    def centers(self, attributes: tuple[int, ...]) -> np.ndarray:
        return self.means


class ResponsibilityWeights(WeightModel):
    """Soft weights: posterior responsibilities of the current mixture
    (one EM iteration's E-step); centred at the mixture's means."""

    def __init__(self, mixture: GaussianMixture) -> None:
        self.mixture = mixture

    def evaluate(self, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.mixture.e_step(self.mixture.project(data))

    def centers(self, attributes: tuple[int, ...]) -> np.ndarray:
        return self.mixture.means


class InsideBallWeights(WeightModel):
    """Hard weights: 1 iff the point is assigned to the cluster *and*
    lies inside the cluster's minimum volume ball (MVB moments,
    Section 5.5); centred at the ball centres."""

    def __init__(
        self,
        mixture: GaussianMixture,
        centers: np.ndarray,
        radii: np.ndarray,
    ) -> None:
        self.mixture = mixture
        self.ball_centers = centers
        self.radii = radii

    def evaluate(self, data: np.ndarray) -> tuple[np.ndarray, None]:
        sub = self.mixture.project(data)
        assignment = self.mixture.assign(sub)
        k = self.mixture.num_components
        out = np.zeros((len(data), k), dtype=float)
        for j in range(k):
            members = assignment == j
            if not members.any():
                continue
            inside = (
                np.linalg.norm(sub[members] - self.ball_centers[j], axis=1)
                <= self.radii[j]
            )
            rows = np.where(members)[0]
            out[rows[inside], j] = 1.0
        return out, None

    def centers(self, attributes: tuple[int, ...]) -> np.ndarray:
        return self.ball_centers


_SUMS_KEY = "moment_sums"


class MomentSumsMapper(BufferedBatchMapper):
    """Accumulates the centred sums of one moment estimate for its split.

    Everything is packed into **one** ``(k + 1, m + 2 + m*m)`` float
    array per split — row ``C`` is ``[l_C | w_C | w_C2 | S_C (flat)]``
    and the last row is ``[log-likelihood, 0, ..., 0]`` — a single
    fixed-shape value, one shuffled pair per split, that adds up
    across splits.
    """

    def setup(self, context: Context) -> None:
        super().setup(context)
        self._model: WeightModel = context.cache["weight_model"]
        self._attributes: tuple[int, ...] = context.cache["attributes"]
        self._centers: np.ndarray = context.cache["centers"]
        self._point_weights: np.ndarray | None = context.cache.get(
            "point_weights"
        )

    def cleanup(self, context: Context) -> None:
        data = self.split_block()
        if data is None:
            return
        weights, log_density = self._model.evaluate(data)
        point_weights = None
        if self._point_weights is not None:
            point_weights = take_weights(self._point_weights, self.split_keys())
            weights = weights * point_weights[:, None]
        # Transposed (m, n) block and (k, n) weights: every per-cluster
        # product below runs over contiguous rows of length n.
        columns = np.ascontiguousarray(data[:, list(self._attributes)].T)
        weight_rows = np.ascontiguousarray(weights.T)
        k, m = self._centers.shape
        packed = np.zeros((k + 1, m + 2 + m * m))
        for j in range(k):
            w = weight_rows[j]
            diff = columns - self._centers[j][:, None]
            weighted = diff * w
            # Plain sums, not BLAS gemv/dot: those run multi-threaded,
            # and a process's first calls stalled for up to a second on
            # a 2-vCPU host.
            packed[j, :m] = weighted.sum(axis=1)
            packed[j, m] = w.sum()
            packed[j, m + 1] = np.square(w).sum()
            packed[j, m + 2 :] = (weighted @ diff.T).ravel()
        if log_density is not None:
            packed[k, 0] = (
                log_density.sum()
                if point_weights is None
                else np.dot(point_weights, log_density)
            )
        context.emit(_SUMS_KEY, packed)


class MomentSumsReducer(Reducer):
    """Adds the mappers' packed sum blocks (one fresh array)."""

    def reduce(self, key: str, values: list[np.ndarray], context: Context) -> None:
        context.emit(key, sum_partials(values))


def finalize_moments(
    centers: np.ndarray, packed: np.ndarray, reg: float = 1e-6
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Turn the reduced centred sums into ``(means, covariances,
    weight_sums)`` with the paper's weighted-covariance scale and the
    same degenerate-cluster handling as :func:`repro.core.em._moments`."""
    k, m = centers.shape
    weight_sum = packed[:k, m]
    means = np.empty((k, m))
    covs = np.empty((k, m, m))
    for j in range(k):
        total = weight_sum[j]
        if total <= 0:
            means[j] = np.full(m, 0.5)
            covs[j] = np.eye(m) / 12.0
            continue
        offset = packed[j, :m] / total
        means[j] = centers[j] + offset
        scatter = packed[j, m + 2 :].reshape(m, m) - total * np.outer(offset, offset)
        denominator = total**2 - packed[j, m + 1]
        scale = total / denominator if denominator > 0 else 1.0 / total
        covs[j] = scale * scatter + reg * np.eye(m)
    return means, covs, weight_sum


def run_moment_job(
    chain: JobChain,
    splits: list[InputSplit],
    weight_model: WeightModel,
    attributes: tuple[int, ...],
    step_prefix: str,
    reg: float = 1e-6,
    point_weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float | None]:
    """Run one moment estimate as a single MR job (step
    ``<step_prefix>_sums``) and finalise it.

    Returns ``(means, covariances, weight_sums, log_likelihood)``;
    the log-likelihood is ``None`` unless the weight model is a
    :class:`ResponsibilityWeights`.

    ``point_weights`` (the coreset fast path) multiply into the model's
    weight matrix, turning every moment into its weighted counterpart.
    """
    point_weights = canonical_weights(point_weights)
    centers = np.asarray(weight_model.centers(attributes), dtype=float)
    cache: dict[str, Any] = {
        "weight_model": weight_model,
        "attributes": attributes,
        "centers": centers,
    }
    if point_weights is not None:
        cache["point_weights"] = point_weights
    job = Job(
        mapper_factory=MomentSumsMapper,
        reducer_factory=MomentSumsReducer,
        cache=DistributedCache(cache),
    )
    packed = chain.run(f"{step_prefix}_sums", job, splits).as_dict()[_SUMS_KEY]
    means, covs, weight_sum = finalize_moments(centers, packed, reg)
    log_likelihood = (
        float(packed[len(centers), 0])
        if isinstance(weight_model, ResponsibilityWeights)
        else None
    )
    return means, covs, weight_sum, log_likelihood


def run_em_mr(
    chain: JobChain,
    splits: list[InputSplit],
    cores: list,
    n: int,
    max_iter: int = 15,
    tol: float = 1e-5,
    reg: float = 1e-6,
    obs: Any = None,
    point_weights: np.ndarray | None = None,
) -> GaussianMixture:
    """Full MR-side EM: two-pass initialisation from cluster cores, then
    one MR job per EM iteration (Section 5.4), mirroring
    :func:`repro.core.em.initialize_from_cores` + :func:`repro.core.em.fit_em`.

    With ``point_weights`` (the coreset fast path) every moment is
    weighted and mixture weights normalise by the total weight ``W``
    instead of ``n`` — the summary stands in for ``W ≈ n`` points.

    ``obs`` (an :class:`repro.obs.Observability`) records the iteration
    count and the log-likelihood trajectory — the paper attributes
    P3C+-MR's runtime largely to EM iterations (Section 7.5.2).
    """
    from repro.core.em import relevant_attributes
    from repro.obs import NULL_OBS

    obs = obs or NULL_OBS

    point_weights = canonical_weights(point_weights)
    normalizer = float(n) if point_weights is None else float(point_weights.sum())

    attributes = relevant_attributes(cores)
    signatures = [core.signature for core in cores]

    # Initialisation pass 1: support-set moments.
    means, covs, _, _ = run_moment_job(
        chain,
        splits,
        CoreSupportWeights(signatures),
        attributes,
        "em_init_support",
        point_weights=point_weights,
    )
    # Initialisation pass 2: support sets + Mahalanobis-assigned strays.
    stray_model = SupportPlusStrayWeights(signatures, means, covs, attributes)
    means, covs, weight_sum, _ = run_moment_job(
        chain,
        splits,
        stray_model,
        attributes,
        "em_init_full",
        point_weights=point_weights,
    )
    weights = weight_sum / max(weight_sum.sum(), 1.0)
    weights = np.clip(weights, 1e-12, None)
    weights /= weights.sum()
    mixture = GaussianMixture(
        means=means, covariances=covs, weights=weights, attributes=attributes
    )

    history: list[float] = []
    for iteration in range(max_iter):
        model = ResponsibilityWeights(mixture)
        means, covs, totals, log_likelihood = run_moment_job(
            chain,
            splits,
            model,
            attributes,
            f"em_iter{iteration}",
            point_weights=point_weights,
        )
        history.append(log_likelihood)
        obs.record("em.log_likelihood", log_likelihood)
        weights = np.clip(totals / normalizer, 1e-12, None)
        weights /= weights.sum()
        mixture = GaussianMixture(
            means=means, covariances=covs, weights=weights, attributes=attributes
        )
        if len(history) >= 2:
            previous, current = history[-2], history[-1]
            if abs(current - previous) <= tol * (abs(previous) + 1.0):
                break
    mixture.log_likelihood_history = history
    obs.gauge("em.iterations", len(history))
    obs.gauge("em.components", mixture.num_components)
    return mixture
