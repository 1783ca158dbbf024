"""Coreset summary construction + full-data assignment (approximate path).

The coreset fast path trades exactness for wall-clock: instead of
running every chain stage over all ``n`` points, ONE MapReduce pass
builds a small weighted summary ``(points, weights)`` with
``sum(weights) ≈ n``, the whole P3C+ chain runs on the summary (its
weighted kernels are in :mod:`repro.mr.histogram` /
:mod:`repro.mr.support` / :mod:`repro.mr.em_jobs`), and a single
map-only pass over the full data assigns every original point to the
fitted model — two full scans total, independent of EM iteration count.

Sampling modes
--------------

``uniform``
    Per-split uniform reservoir without replacement; every sampled
    point carries weight ``n_split / quota``.  Unbiased for every
    linear statistic; the baseline of Feldman's coreset survey
    (arXiv 1807.04518).

``lightweight``
    The lightweight-coreset sampler of Bachem et al. (arXiv 1702.08248,
    analysed further in arXiv 2011.13476): sampling probability
    ``q(x) = 0.5 / n_split + 0.5 * d(x, mu)^2 / sum d^2`` against the
    split-local mean, weight ``1 / (quota * q(x))``, drawn with
    replacement.  Overweights far-out structure, which is what the
    chi-squared interval test and the EM tails care about.

Determinism: the driver precomputes per-split quotas (largest-remainder
proportional allocation over split lengths) and ships them with the
seed; each mapper derives its RNG from ``(seed, task_id)`` where
``task_id`` is the split id — a chaos-injected retry of the same split
therefore reproduces the identical sample, so coreset runs stay
bit-reproducible under fault injection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.mapreduce import BufferedBatchMapper, Context, DistributedCache, Job, Reducer
from repro.mapreduce.chain import JobChain
from repro.mapreduce.types import InputSplit
from repro.mr.histogram import reject_non_finite

_SUMMARY_KEY_PREFIX = "coreset"

SUPPORTED_MODES = ("uniform", "lightweight")


@dataclass(frozen=True)
class CoresetSummary:
    """A weighted summary standing in for the full data set."""

    points: np.ndarray  # (m, d) float64
    weights: np.ndarray  # (m,) float64, sum ≈ n
    mode: str
    requested_size: int

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    @property
    def effective_size(self) -> float:
        """Kish's effective sample size of the summary weights."""
        from repro.core.stats import effective_sample_size

        return effective_sample_size(self.weights)


def allocate_quotas(sizes: dict[int, int], size: int) -> dict[int, int]:
    """Largest-remainder proportional allocation of ``size`` samples
    over splits; every non-empty split gets at least one sample (a split
    with zero quota would silently vanish from the summary)."""
    total = sum(sizes.values())
    if total == 0:
        return {sid: 0 for sid in sizes}
    size = min(size, total)
    ids = sorted(sid for sid in sizes if sizes[sid] > 0)
    shares = {sid: size * sizes[sid] / total for sid in ids}
    quotas = {sid: int(shares[sid]) for sid in ids}
    remainder = size - sum(quotas.values())
    by_fraction = sorted(
        ids, key=lambda sid: (-(shares[sid] - quotas[sid]), sid)
    )
    for sid in by_fraction[:remainder]:
        quotas[sid] += 1
    for sid in ids:
        quotas[sid] = max(1, min(quotas[sid], sizes[sid]))
    for sid in sizes:
        quotas.setdefault(sid, 0)
    return quotas


class CoresetMapper(BufferedBatchMapper):
    """Samples this split's share of the summary in one pass.

    Blocks are buffered across chunked ``map_batch`` deliveries (the
    split-caching pattern the EM mappers already use) and sampled once
    in ``cleanup`` with an RNG derived from ``(seed, split id)``.
    """

    def setup(self, context: Context) -> None:
        super().setup(context)
        self._quotas: dict[int, int] = context.cache["quotas"]
        self._seed: int = int(context.cache["seed"])
        self._mode: str = context.cache["mode"]

    def map_batch(self, keys: Any, block: np.ndarray, context: Context) -> None:
        # The summary scan is the coreset path's only full pass before
        # the fit, so it is where non-finite rows are rejected.
        reject_non_finite(keys, block)
        super().map_batch(keys, np.asarray(block, dtype=float), context)

    def cleanup(self, context: Context) -> None:
        data = self.split_block()
        if data is None:
            return
        split_id = int(context.task_id)
        quota = int(self._quotas.get(split_id, 0))
        if quota <= 0:
            return
        n_local = len(data)
        rng = np.random.default_rng([self._seed, split_id])
        if quota >= n_local:
            points = data
            weights = np.ones(n_local)
        elif self._mode == "uniform":
            chosen = np.sort(rng.choice(n_local, size=quota, replace=False))
            points = data[chosen]
            weights = np.full(quota, n_local / quota)
        elif self._mode == "lightweight":
            mu = data.mean(axis=0)
            dist_sq = ((data - mu) ** 2).sum(axis=1)
            total = float(dist_sq.sum())
            if total > 0:
                q = 0.5 / n_local + 0.5 * dist_sq / total
            else:
                q = np.full(n_local, 1.0 / n_local)
            q = q / q.sum()
            chosen = rng.choice(n_local, size=quota, replace=True, p=q)
            points = data[chosen]
            weights = 1.0 / (quota * q[chosen])
        else:
            raise ValueError(f"unknown coreset mode {self._mode!r}")
        packed = np.concatenate([points, weights[:, None]], axis=1)
        context.emit(f"{_SUMMARY_KEY_PREFIX}:{split_id:08d}", packed)


class CoresetReducer(Reducer):
    """Passthrough: one packed sample block per split key."""

    def reduce(self, key: str, values: list[np.ndarray], context: Context) -> None:
        context.emit(key, values[0])


def build_coreset(
    chain: JobChain,
    splits: list[InputSplit],
    size: int,
    mode: str = "uniform",
    seed: int = 0,
    step_name: str = "coreset_summary",
) -> CoresetSummary:
    """Build a weighted coreset summary with one MapReduce pass.

    ``size`` is the target summary size; the realised size can differ
    slightly (per-split minimums, splits smaller than their quota).
    """
    if size < 1:
        raise ValueError(f"coreset size must be >= 1, got {size}")
    if mode not in SUPPORTED_MODES:
        raise ValueError(
            f"unknown coreset mode {mode!r}; expected one of {SUPPORTED_MODES}"
        )
    sizes = {sid: len(split) for sid, split in enumerate(splits)}
    quotas = allocate_quotas(sizes, size)
    job = Job(
        mapper_factory=CoresetMapper,
        reducer_factory=CoresetReducer,
        cache=DistributedCache(
            {"quotas": quotas, "seed": int(seed), "mode": mode}
        ),
    )
    result = chain.run(step_name, job, splits, num_reducers=1)
    blocks = result.as_dict()
    if not blocks:
        raise ValueError("coreset job produced an empty summary")
    packed = np.concatenate([blocks[key] for key in sorted(blocks)])
    return CoresetSummary(
        points=np.ascontiguousarray(packed[:, :-1]),
        weights=np.ascontiguousarray(packed[:, -1]),
        mode=mode,
        requested_size=size,
    )


class AssignMapper(BufferedBatchMapper):
    """Map-only full-data labelling against a fitted model.

    Emits one packed ``(2, n_split)`` int64 array per split —
    ``[row indices | labels]`` — instead of per-point pairs, so the
    final full scan ships O(splits) shuffle values, not O(n).
    """

    def setup(self, context: Context) -> None:
        super().setup(context)
        self._model = context.cache["fitted_model"]

    def cleanup(self, context: Context) -> None:
        data = self.split_block()
        if data is None:
            return
        labels = self._model.assign(data).cluster_ids
        context.emit(
            int(context.task_id),
            np.stack([self.split_keys(), labels.astype(np.int64)]),
        )


def run_assign_job(
    chain: JobChain,
    splits: list[InputSplit],
    model: Any,
    n: int,
    step_name: str = "coreset_assign",
) -> np.ndarray:
    """Label every original point with the coreset-fitted model.

    Returns the ``(n,)`` int64 membership vector (cluster id, -1 for
    outliers) — the same contract as the OD job's output, produced by
    the serving scorer's batched ``assign`` in one map-only pass.
    """
    job = Job(
        mapper_factory=AssignMapper,
        cache=DistributedCache({"fitted_model": model}),
    )
    result = chain.run(step_name, job, splits, num_reducers=0)
    membership = np.full(n, -1, dtype=np.int64)
    for _, packed in result.output:
        membership[packed[0]] = packed[1]
    return membership
