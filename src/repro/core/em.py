"""Gaussian-mixture EM in the relevant subspace (Sections 3.2.2 / 5.4).

The cluster cores seed one Gaussian each; EM runs only over
``A_rel`` — the union of the cores' relevant attributes (Eq. 3).
Initialisation follows the two-pass scheme of Section 5.4: component
moments are first estimated from the core support sets alone, points
outside every support set are then assigned to their Mahalanobis-nearest
core, and the moments are re-estimated including those points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.stats import (
    inverse_cholesky,
    mahalanobis_squared,
    whitened_squared_norm,
)
from repro.core.types import ClusterCore

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class GaussianMixture:
    """A Gaussian mixture over the projected subspace ``A_rel``.

    ``attributes`` maps subspace columns back to original attribute
    indices; ``means``/``covariances`` live in subspace coordinates.
    """

    means: np.ndarray  # (k, m)
    covariances: np.ndarray  # (k, m, m)
    weights: np.ndarray  # (k,)
    attributes: tuple[int, ...]
    log_likelihood_history: list[float] = field(default_factory=list)
    #: Lazily built ``(inverse Cholesky factors, log-density constants)``;
    #: derived from the parameters above, which are never mutated after
    #: construction, and left out of the pickled state.
    _factors: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        m = len(self.attributes)
        means = np.asarray(self.means, dtype=float)
        if means.ndim == 1:
            # A single-attribute subspace yields (k,) moment vectors and a
            # single-component model yields (m,); ``attributes`` fixes the
            # subspace dimensionality, so orient by it instead of guessing
            # with atleast_2d (which would turn (k,) into (1, k)).
            means = means.reshape(-1, 1) if m == 1 else means.reshape(1, -1)
        self.means = means
        covariances = np.asarray(self.covariances, dtype=float)
        if m == 1 and covariances.ndim < 3:
            covariances = covariances.reshape(-1, 1, 1)
        elif covariances.ndim == 2 and covariances.shape == (m, m):
            covariances = covariances.reshape(1, m, m)
        self.covariances = covariances
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        k, m = self.means.shape
        if self.covariances.shape != (k, m, m):
            raise ValueError(
                f"covariances shape {self.covariances.shape} != {(k, m, m)}"
            )
        if self.weights.shape != (k,):
            raise ValueError(f"weights shape {self.weights.shape} != {(k,)}")
        if len(self.attributes) != m:
            raise ValueError("attributes must match subspace dimensionality")

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_factors"] = None
        return state

    @property
    def num_components(self) -> int:
        return len(self.weights)

    def project(self, data: np.ndarray) -> np.ndarray:
        """Project full-space rows onto the mixture's subspace."""
        return data[:, list(self.attributes)]

    def e_step(self, sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Responsibilities ``p(component | x)`` and per-point
        log-densities ``log p(x)`` from one log-joint evaluation."""
        joint = self._log_joint(sub)
        norm = _logsumexp_rows(joint)
        return np.exp(joint - norm[:, None]), norm

    def assign(self, sub: np.ndarray) -> np.ndarray:
        """Hard argmax-posterior assignment (the paper's conversion of
        Gaussians into projected clusters).  Each ``d_j^2`` comes from
        the row-stable kernel, so a point's component does not depend on
        the batch or split it arrives in."""
        inverse, constants = self.whitening()
        columns = np.ascontiguousarray(self._as_batch(sub).T)
        joint = [
            constants[j] - 0.5 * whitened_squared_norm(columns, mean, inverse[j])
            for j, mean in enumerate(self.means)
        ]
        return np.argmax(joint, axis=0)

    def _as_batch(self, sub: np.ndarray) -> np.ndarray:
        """Normalise a point batch to ``(n, m)`` subspace coordinates.

        Accepts an already 2-D batch, a 1-D vector of values when
        ``m == 1``, a single 1-D point when ``m > 1``, and empty input
        of either rank.
        """
        sub = np.asarray(sub, dtype=float)
        m = len(self.attributes)
        if sub.ndim == 1:
            if sub.size == 0 or m == 1:
                sub = sub.reshape(-1, 1) if m == 1 else sub.reshape(0, m)
            else:
                sub = sub.reshape(1, -1)
        if sub.ndim != 2 or sub.shape[1] != m:
            raise ValueError(
                f"point batch shape {sub.shape} incompatible with "
                f"{m}-dimensional subspace"
            )
        return sub

    def whitening(self) -> tuple[np.ndarray, np.ndarray]:
        """Each component factored once: the inverse Cholesky factors
        ``L_j^-1`` (``(k, m, m)``, with ``Sigma_j = L_j L_j^T``) and the
        constants ``log w_j - (m log 2pi + log det Sigma_j) / 2``."""
        if self._factors is None:
            k, m = self.means.shape
            inverse = np.empty((k, m, m))
            constants = np.empty(k)
            for j in range(k):
                inverse[j], log_det = inverse_cholesky(self.covariances[j])
                constants[j] = np.log(max(self.weights[j], 1e-300)) - 0.5 * (
                    m * _LOG_2PI + log_det
                )
            self._factors = (inverse, constants)
        return self._factors

    def _log_joint(self, sub: np.ndarray) -> np.ndarray:
        """``log w_j + log N(x | mu_j, Sigma_j)`` per point (rows) and
        component (columns): one whitening matmul per component,
        ``z = L_j^-1 (x - mu_j)``, and the quadratic form is ``|z|^2``.
        The E-step's soft sums need not be batch-stable, so they keep
        this gemm; hard verdicts go through the row-stable kernel.

        Computed column-major (each component's column contiguous), so
        the per-point reductions over components stay vectorised.
        """
        sub = self._as_batch(sub)
        inverse, constants = self.whitening()
        columns = np.ascontiguousarray(sub.T)
        out = np.empty((self.num_components, len(sub)), dtype=float)
        for j in range(self.num_components):
            z = inverse[j] @ (columns - self.means[j][:, None])
            out[j] = constants[j] - 0.5 * np.square(z).sum(axis=0)
        return out.T


def _logsumexp_rows(matrix: np.ndarray) -> np.ndarray:
    peak = matrix.max(axis=1, keepdims=True)
    return (peak + np.log(np.exp(matrix - peak).sum(axis=1, keepdims=True)))[:, 0]


def relevant_attributes(cores: list[ClusterCore]) -> tuple[int, ...]:
    """``A_rel`` (Eq. 3): attributes relevant to at least one core."""
    attrs: set[int] = set()
    for core in cores:
        attrs.update(core.attributes)
    return tuple(sorted(attrs))


def nearest_component(
    sub: np.ndarray, means: np.ndarray, covariances: np.ndarray
) -> np.ndarray:
    """Section 5.4's stray rule: the index of each row's
    Mahalanobis-nearest component (serial and MR initialisation)."""
    distances = [
        mahalanobis_squared(sub, mean, cov) for mean, cov in zip(means, covariances)
    ]
    return np.argmin(distances, axis=0)


def _moments(
    sub: np.ndarray,
    weights: np.ndarray,
    reg: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted sample mean and covariance with ridge regularisation,
    following the weighted-covariance formula of Section 5.4."""
    m = sub.shape[1]
    total = weights.sum()
    if total <= 0:
        return np.full(m, 0.5), np.eye(m) / 12.0
    mean = (weights[:, None] * sub).sum(axis=0) / total
    diff = sub - mean
    sq = (weights**2).sum()
    denominator = total**2 - sq
    scale = total / denominator if denominator > 0 else 1.0 / total
    cov = scale * (weights[:, None] * diff).T @ diff
    return mean, cov + reg * np.eye(m)


def initialize_from_cores(
    data: np.ndarray,
    cores: list[ClusterCore],
    reg: float = 1e-6,
) -> GaussianMixture:
    """Two-pass mixture initialisation from cluster cores (Section 5.4)."""
    if not cores:
        raise ValueError("cannot initialise EM without cluster cores")
    attrs = relevant_attributes(cores)
    sub = data[:, list(attrs)]
    n = len(data)
    k = len(cores)

    masks = [core.signature.support_mask(data) for core in cores]

    # Pass 1: moments from support sets only.
    means = np.empty((k, len(attrs)))
    covs = np.empty((k, len(attrs), len(attrs)))
    for j, mask in enumerate(masks):
        weights = mask.astype(float)
        means[j], covs[j] = _moments(sub, weights, reg)

    # Assign points outside every support set to nearest core.
    in_any = np.zeros(n, dtype=bool)
    for mask in masks:
        in_any |= mask
    stray = ~in_any
    member_masks = [mask.copy() for mask in masks]
    if stray.any():
        nearest = nearest_component(sub[stray], means, covs)
        stray_idx = np.where(stray)[0]
        for j in range(k):
            member_masks[j][stray_idx[nearest == j]] = True

    # Pass 2: moments including the assigned strays.
    sizes = np.empty(k)
    for j, mask in enumerate(member_masks):
        weights = mask.astype(float)
        means[j], covs[j] = _moments(sub, weights, reg)
        sizes[j] = weights.sum()

    weights = sizes / max(sizes.sum(), 1.0)
    weights = np.clip(weights, 1e-12, None)
    weights /= weights.sum()
    return GaussianMixture(
        means=means, covariances=covs, weights=weights, attributes=attrs
    )


def fit_em(
    data: np.ndarray,
    init: GaussianMixture,
    max_iter: int = 15,
    tol: float = 1e-5,
    reg: float = 1e-6,
) -> GaussianMixture:
    """Standard full-covariance EM, seeded by ``init``.

    Log-likelihood is non-decreasing per iteration (a property test
    asserts this); iteration stops at ``max_iter`` or when the relative
    improvement drops below ``tol``.
    """
    sub = init.project(data)
    history: list[float] = []
    mixture = GaussianMixture(
        init.means, init.covariances, init.weights, init.attributes
    )

    for _ in range(max_iter):
        resp, log_density = mixture.e_step(sub)
        history.append(float(log_density.sum()))
        totals = resp.sum(axis=0)
        k = mixture.num_components
        # Fresh arrays each iteration: the previous mixture keeps its
        # parameters (and the factors derived from them) intact.
        means = np.empty_like(mixture.means)
        covs = np.empty_like(mixture.covariances)
        for j in range(k):
            means[j], covs[j] = _moments(sub, resp[:, j], reg)
        weights = np.clip(totals / len(sub), 1e-12, None)
        weights /= weights.sum()
        mixture = GaussianMixture(means, covs, weights, init.attributes)
        if len(history) >= 2:
            previous, current = history[-2], history[-1]
            if abs(current - previous) <= tol * (abs(previous) + 1.0):
                break
    mixture.log_likelihood_history = history
    return mixture
