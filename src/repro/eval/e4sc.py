"""E4SC — the paper's headline quality measure (Section 7.2).

Following Günnemann et al. (CIKM 2011), E4SC evaluates an F1 measure on
*micro-objects* (object-attribute pairs) in both mapping directions:

- per cluster pair, ``F1(C, H) = 2 |mu(C) ∩ mu(H)| / (|mu(C)| + |mu(H)|)``;
- recall side: every hidden cluster is mapped to its best found cluster,
  ``rec = mean_h max_c F1(c, h)`` — punishes missed clusters, merges and
  wrong subspaces;
- precision side: every found cluster is mapped to its best hidden
  cluster, ``prec = mean_c max_h F1(c, h)`` — punishes phantom clusters
  (e.g. the redundant signatures of Section 4.2.1);
- ``E4SC = 2 * prec * rec / (prec + rec)``.

The score is 1 exactly when the found clustering equals the ground
truth (same member sets and same relevant attributes), and degrades
with wrong object assignment, wrong subspaces, splits and merges.
"""

from __future__ import annotations

import numpy as np

from repro.core.types import ProjectedCluster
from repro.eval.matching import micro_object_count, pairwise_intersections


def _pairwise_f1(
    found: list[ProjectedCluster],
    hidden: list[ProjectedCluster],
) -> np.ndarray:
    inter = pairwise_intersections(found, hidden).astype(float)
    size_found = np.array([micro_object_count(c) for c in found], dtype=float)
    size_hidden = np.array([micro_object_count(h) for h in hidden], dtype=float)
    denom = size_found[:, None] + size_hidden[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        f1 = np.where(denom > 0, 2.0 * inter / denom, 0.0)
    return f1


def _universe(clusters: list[ProjectedCluster]) -> np.ndarray:
    """The sorted distinct objects of ``clusters``: members are
    non-negative row indices, so a ``bincount`` marks them in one pass
    (a hash ``unique`` took seconds on millions of members)."""
    members = np.concatenate([c.members for c in clusters])
    return np.flatnonzero(np.bincount(members))


def _subsample_clusters(
    found: list[ProjectedCluster],
    hidden: list[ProjectedCluster],
    max_points: int,
    seed: int,
) -> tuple[list[ProjectedCluster], list[ProjectedCluster]]:
    """Restrict both clusterings to a seeded uniform object sample.

    Every cluster keeps only its members inside the sample; the F1
    ratios are estimated on the sampled universe.  Uniform sampling
    hits every cluster in proportion to its size, so the estimate
    concentrates around the exact score (cluster sizes are the only
    quantities entering the F1 numerator and denominator).
    """
    universe = _universe(found + hidden)
    if len(universe) <= max_points:
        return found, hidden
    rng = np.random.default_rng(seed)
    sample = rng.choice(universe, size=max_points, replace=False)
    sample.sort()

    def restrict(clusters: list[ProjectedCluster]) -> list[ProjectedCluster]:
        return [
            ProjectedCluster(
                members=cluster.members[
                    np.isin(cluster.members, sample, assume_unique=False)
                ],
                relevant_attributes=cluster.relevant_attributes,
            )
            for cluster in clusters
        ]

    return restrict(found), restrict(hidden)


def e4sc_score(
    found: list[ProjectedCluster],
    hidden: list[ProjectedCluster],
    max_points: int | None = None,
    seed: int = 0,
) -> float:
    """E4SC of a found clustering against the hidden ground truth.

    ``max_points`` caps the evaluated object universe with a seeded
    uniform sample (see :func:`_subsample_clusters`) — an estimator for
    huge n; leave ``None`` for the exact score (which is itself
    sub-second at n = 100k thanks to the vectorised intersection path).
    """
    if not hidden:
        raise ValueError("ground truth must contain at least one cluster")
    if not found:
        return 0.0
    if max_points is not None:
        if max_points < 1:
            raise ValueError(f"max_points must be >= 1, got {max_points}")
        found, hidden = _subsample_clusters(found, hidden, max_points, seed)
        if all(c.size == 0 for c in found) or all(
            h.size == 0 for h in hidden
        ):
            return 0.0
    f1 = _pairwise_f1(found, hidden)
    recall = float(f1.max(axis=0).mean())
    precision = float(f1.max(axis=1).mean())
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)
