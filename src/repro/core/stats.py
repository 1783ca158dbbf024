"""Statistical machinery: Poisson / chi-squared tests and effect size.

Implements the statistical tool-kit of Sections 3-4:

- the Poisson significance test used in candidate proving (Eq. 1), with
  the Gaussian transformation the paper describes for thresholds below
  the reach of floating-point cumulative probabilities (Section 7.4.2's
  side remark);
- the chi-squared uniformity test used for relevant-attribute detection;
- Cohen's d_cc effect size with sigma = Supp_exp (Eq. 4), the P3C+
  complement to the significance test;
- the Mahalanobis kernel behind every hard verdict of Sections 4.2.2,
  5.4 and 5.5 — one ridge-regularised Cholesky factor per covariance
  (:func:`inverse_cholesky`) and one row-stable triangular whitening
  (:func:`whitened_squared_norm`) — and the chi-squared critical value
  used by outlier detection.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import special as spsp
from scipy import stats as sps

#: Expected-support level below which the exact Poisson tail is used;
#: above it the Gaussian approximation (mu = lambda, sigma = sqrt(lambda))
#: is both accurate and immune to floating-point underflow.
GAUSSIAN_APPROX_MIN_LAMBDA = 100.0


def poisson_sf(observed: float, expected: float) -> float:
    """``P(X >= observed)`` for ``X ~ Poisson(expected)``.

    Uses the exact survival function for small ``expected`` and the
    Gaussian approximation with continuity correction for large ones.
    Returns 1.0 when ``expected`` is not positive and something was
    observed is impossible to beat -- an expected support of zero means
    any positive observation is infinitely surprising, so we return 0.0
    for ``observed > 0`` and 1.0 otherwise.
    """
    if expected < 0:
        raise ValueError(f"expected support must be >= 0, got {expected}")
    if expected == 0:
        return 0.0 if observed > 0 else 1.0
    # poisson.sf's and norm.sf's own kernels, without the distribution
    # wrappers' argument checks.  The one case the Poisson wrapper
    # handles itself is a count below the support (observed <= 0),
    # where the kernel returns NaN.
    if expected < GAUSSIAN_APPROX_MIN_LAMBDA:
        if observed <= 0:
            return 1.0
        return float(spsp.pdtrc(np.ceil(observed) - 1, expected))
    z = (observed - 0.5 - expected) / np.sqrt(expected)
    return float(spsp.ndtr(-z))


def poisson_log_sf(observed: float, expected: float) -> float:
    """Natural log of :func:`poisson_sf`, stable down to ~1e-10^8.

    Needed by the Figure 5 threshold sweep, which probes significance
    levels as extreme as 1e-140.
    """
    if expected <= 0:
        return -np.inf if observed > 0 else 0.0
    if expected < GAUSSIAN_APPROX_MIN_LAMBDA:
        if observed <= 0:
            return 0.0
        sf = spsp.pdtrc(np.ceil(observed) - 1, expected)
        return float(np.log(sf)) if sf > 0 else -np.inf
    z = (observed - 0.5 - expected) / np.sqrt(expected)
    return float(spsp.log_ndtr(-z))


def poisson_deviation_significant(
    observed: float,
    expected: float,
    alpha: float = 0.01,
) -> bool:
    """The paper's ``x <_p y`` relation: is ``observed`` significantly
    larger than ``expected`` at level ``alpha``?

    Implemented in z-space (the Gaussian transformation of Section
    7.4.2) whenever the expected support is large, so that thresholds far
    below float precision (1e-140) remain decidable.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if expected == 0:
        return observed > 0
    if expected < GAUSSIAN_APPROX_MIN_LAMBDA:
        # Exact tail; alpha values this code path sees are moderate.
        return poisson_log_sf(observed, expected) < np.log(alpha)
    z = (observed - 0.5 - expected) / np.sqrt(expected)
    return z > _normal_critical_z(alpha)


@lru_cache(maxsize=256)
def _normal_critical_z(alpha: float) -> float:
    """Memoised upper-tail critical z value (candidate proving calls
    this once per tested interval; scipy's isf is comparatively slow)."""
    return float(sps.norm.isf(alpha))


def effective_sample_size(weights: np.ndarray) -> float:
    """Kish's effective sample size ``(sum w)^2 / sum w^2``.

    A weighted sample of ``m`` points carrying total weight ``W`` does
    not have the statistical power of ``W`` observations; tests on
    weighted counts (chi-squared uniformity, Poisson proving) must run
    at the ESS scale or they over-reject, exactly the failure mode a
    coreset summary would otherwise introduce.  Uniform weights give
    ESS = m (the summary behaves like its own sample size); highly
    skewed weights give ESS << m.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or len(weights) == 0:
        raise ValueError("weights must be a non-empty 1-D array")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    total = float(weights.sum())
    if total <= 0:
        raise ValueError("weights must have positive total")
    return total**2 / float((weights**2).sum())


def ess_scale(weights: np.ndarray) -> float:
    """The factor mapping weighted counts to ESS-scale counts.

    Multiplying weighted bin/support counts (which sum to ``W``) by
    ``ESS / W`` yields counts that sum to the effective sample size, so
    the unmodified chi-squared / Poisson machinery runs at the honest
    power level.  For a uniform coreset of ``m`` points this reduces
    weighted counts exactly to the raw per-summary-point counts.
    """
    weights = np.asarray(weights, dtype=float)
    return effective_sample_size(weights) / float(weights.sum())


def cohens_d_cc(observed: float, expected: float) -> float:
    """Cohen's d_cc (Eq. 4) with sigma = Supp_exp: the *relative*
    deviation of the observed from the expected support."""
    if expected <= 0:
        return float("inf") if observed > 0 else 0.0
    return (observed - expected) / expected


def chi_squared_uniformity_pvalue(counts: np.ndarray) -> float:
    """P-value of the chi-squared goodness-of-fit test of ``counts``
    against the uniform distribution over its bins.

    A single remaining bin (or an all-zero histogram) is trivially
    uniform (p = 1).
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 1:
        raise ValueError("counts must be a 1-D histogram")
    if np.any(counts < 0):
        raise ValueError("bin counts must be non-negative")
    k = len(counts)
    total = counts.sum()
    if k <= 1 or total == 0:
        return 1.0
    expected = total / k
    statistic = float(((counts - expected) ** 2 / expected).sum())
    # chi2.sf's own kernel, without the distribution wrapper's
    # argument checks (about 40x faster per call).
    return float(spsp.chdtrc(k - 1, statistic))


def is_uniform(counts: np.ndarray, alpha: float = 0.001) -> bool:
    """True when the chi-squared test cannot reject uniformity."""
    return chi_squared_uniformity_pvalue(counts) >= alpha


def inverse_cholesky(
    cov: np.ndarray, ridge: float = 1e-9
) -> tuple[np.ndarray, float]:
    """The inverse Cholesky factor ``L^-1`` of ``cov = L L^T`` and
    ``log det cov``: the one place a covariance is factored.

    A covariance that is singular or indefinite by rounding (routine for
    tiny clusters and degenerate attributes) gets a growing ridge on its
    diagonal until it factors, so distances stay finite and never turn
    negative.
    """
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    m = cov.shape[0]
    attempt = cov
    for _ in range(40):
        try:
            chol = np.linalg.cholesky(attempt)
        except np.linalg.LinAlgError:
            attempt = attempt + ridge * np.eye(m)
            ridge *= 10
            continue
        return np.linalg.inv(chol), 2.0 * float(np.log(np.diag(chol)).sum())
    raise np.linalg.LinAlgError("covariance could not be regularised")


def whitened_squared_norm(
    columns: np.ndarray, mean: np.ndarray, inverse_chol: np.ndarray
) -> np.ndarray:
    """Squared Mahalanobis distance ``|L^-1 (x - mean)|^2`` of each
    column of the ``(m, n)`` block ``columns``.

    ``z_a = sum_{b <= a} L^-1[a, b] (x_b - mean_b)`` is accumulated in
    fixed ``b`` order with elementwise operations over contiguous rows,
    so a point rounds the same way in any batch.  A gemm or einsum does
    not (blocking and SIMD tails round a point differently in a 1-row
    and a 58-row batch), so every hard verdict goes through this kernel:
    stray assignment, component choice, MVB membership, the outlier test.
    """
    diff = [columns[b] - mean[b] for b in range(len(mean))]
    out = np.zeros(columns.shape[1])
    for a in range(len(diff)):
        z = inverse_chol[a, 0] * diff[0]
        for b in range(1, a + 1):
            z += inverse_chol[a, b] * diff[b]
        out += z * z
    return out


def mahalanobis_squared(
    points: np.ndarray,
    mean: np.ndarray,
    cov: np.ndarray,
) -> np.ndarray:
    """Squared Mahalanobis distance of each row of ``points`` to
    ``(mean, cov)``: :func:`inverse_cholesky` then
    :func:`whitened_squared_norm`."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    inverse, _ = inverse_cholesky(cov)
    return whitened_squared_norm(
        np.ascontiguousarray(points.T), np.atleast_1d(mean).astype(float), inverse
    )


@lru_cache(maxsize=1024)
def chi2_critical_value(dof: int, alpha: float = 0.001) -> float:
    """Critical value of the chi-squared distribution: points whose
    squared Mahalanobis distance exceeds it are outliers (Section 4.2.2,
    alpha = 0.001)."""
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    return float(sps.chi2.isf(alpha, df=dof))


def probability_exceeds_relative(mu: float, factor: float = 1.01) -> float:
    """``P(X >= factor * mu)`` for ``X ~ Poisson(mu)`` under the *null*.

    This tail vanishes as ``mu`` grows (the relative deviation is worth
    ever more standard deviations) — which is exactly why the test's
    power at a fixed relative effect explodes; see
    :func:`poisson_power_relative_effect` for the quantity Figure 1
    plots.
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    return poisson_sf(factor * mu, mu)


def poisson_power_relative_effect(
    mu: float,
    factor: float = 1.01,
    alpha: float = 0.01,
) -> float:
    """Power of the Poisson test at a fixed *relative* effect (Figure 1).

    The test rejects when the observed count reaches the upper-alpha
    critical value of ``Poisson(mu)``; the power is the probability of
    that happening when the true rate is ``factor * mu``.  For growing
    ``mu`` (larger data sets at constant relative deviation) the power
    approaches 1: a 1 % deviation — significant, but irrelevant for
    clustering — is then flagged almost surely (Section 4.1.2).
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if mu < GAUSSIAN_APPROX_MIN_LAMBDA:
        critical = float(sps.poisson.isf(alpha, mu)) + 1.0
    else:
        critical = mu + _normal_critical_z(alpha) * np.sqrt(mu) + 0.5
    return poisson_sf(critical, factor * mu)
