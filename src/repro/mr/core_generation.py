"""Cluster-core generation in MapReduce (Algorithm 1 + Section 5.3).

Runs on integer signatures over one
:class:`~repro.core.types.IntervalTable` of the relevant intervals; only
the maximal signatures and the cores become
:class:`~repro.core.types.Signature` objects.  Combines:

- :func:`repro.core.apriori.generate_candidates`, the driver's
  output-linear Apriori join,
- the **multi-level candidate collection** heuristic: candidates are
  *collected* across levels without proving — level ``j+1`` is generated
  from ``Cand_j`` instead of ``Proven_j`` — until

      |Cand_j| = 0  or  (c_sum > T_c  and  |Cand_j| > |Cand_{j-1}|)

  at which point a *single* support job proves the whole collection
  (saving per-level job overhead at the price of weaker Apriori
  pruning).  T_c = ⌊C / rows⌋ for an index over ``rows`` points
  (:data:`CANDIDATE_ROWS`), at most :data:`MAX_T_C`: every batch reads
  only the index, so a speculative candidate costs ANDs over
  ``rows / 64`` words while one more proving job costs a fixed
  overhead,
- RSSC-based proving over one interval index (:mod:`repro.mr.support`):
  the level-1 job packs every point's interval bitmaps once, and each
  later batch's job ANDs and popcounts them,
- :func:`repro.core.apriori.cluster_cores`: the maximality filter and
  (for P3C+) the redundancy filter.

Because a collected batch always contains every ancestor of its
candidates down to the last proven level, the Eq. 1 parent supports
needed by :class:`repro.core.proving.SupportTester` are always
available.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.apriori import cluster_cores, generate_candidates
from repro.core.proving import ProveStats, SupportTester
from repro.core.types import ClusterCore, Interval, IntervalTable
from repro.mapreduce.chain import JobChain
from repro.mapreduce.types import InputSplit
from repro.mr.support import IntervalIndex, build_interval_index, run_support_job
from repro.mr.weights import canonical_weights
from repro.obs import NULL_OBS, Observability

#: C: the candidate-rows a speculative batch may count before counting
#: it costs more than one more proving job.  An index over ``rows``
#: points collects with T_c = ⌊C / rows⌋ (:func:`collection_limit`).
#:
#: Derivation.  Every proving job after level 1 reads only the interval
#: index, so one more job costs its fixed overhead: the runtime's
#: start-up, shuffle and reduce plus the batch's RSSC, about 0.5 ms on
#: the serial executor (a one-candidate job over a 2·10⁵-row index).  A
#: speculative candidate costs one AND per interval and a popcount over
#: ``rows / 64`` words: 0.025 ns per candidate-row for 2-interval and
#: 0.055 ns for 3-interval batches over the same index (both measured
#: on a 2-vCPU x86-64 host, best of 15 to 30 runs).  Collecting pays
#: while a batch counts fewer than 0.5 ms / 0.05 ns = 10⁷
#: candidate-rows.  At a 5 000-point coreset summary that is T_c =
#: 2 000; at 2·10⁵ rows it is 50.  The limit depends on counts only,
#: never on timings or on the executor: executors, chaos runs and
#: resumed chains replay one plan.
CANDIDATE_ROWS = 10_000_000

#: T_c on an index of at most 5 000 rows.  Below that a speculative
#: candidate's row-independent driver cost (its Apriori join, RSSC row
#: and Eq. 1 test: 20–35 µs) outweighs its ANDs, and deeper collection
#: grows the unproven candidate set combinatorially: ⌊C / rows⌋ =
#: 10 000 at 1 000 rows counted 11 855 candidates where 2 000 counts
#: 4 200, and made a Light fit (d = 20, 5 clusters) 2.5x slower.
MAX_T_C = 2_000


def collection_limit(rows: int) -> int:
    """T_c for an interval index over ``rows`` points: the candidates
    a collected batch may hold before a growing level is proven."""
    return min(MAX_T_C, CANDIDATE_ROWS // max(1, rows))


def stop_collecting(c_sum: int, count: int, previous_count: int, rows: int) -> bool:
    """The stop rule of multi-level collection: prove the collected
    batch once a level is empty, or once the batch holds more than
    T_c candidates and its last level (``count`` candidates) grew."""
    return count == 0 or (
        c_sum > collection_limit(rows) and count > previous_count
    )


@dataclass
class CoreGenerationStats:
    """Diagnostics of one core-generation run (feeds Figure 5 and the
    multi-level ablation bench)."""

    candidates_per_level: list[int] = field(default_factory=list)
    proving_jobs: int = 0
    candidates_proven_total: int = 0
    cores_before_redundancy: int = 0
    cores_after_redundancy: int = 0
    #: Per-kill-site attribution across every proving batch.
    prove_stats: ProveStats = field(default_factory=ProveStats)

    @property
    def redundancy_killed(self) -> int:
        return self.cores_before_redundancy - self.cores_after_redundancy


def generate_cluster_cores_mr(
    chain: JobChain,
    splits: list[InputSplit],
    intervals: list[Interval],
    n: int,
    poisson_alpha: float = 0.01,
    theta_cc: float | None = 0.35,
    redundancy_filter: bool = True,
    multi_level: bool = True,
    obs: Observability | None = None,
    weights: np.ndarray | None = None,
    effective_n: float | None = None,
) -> tuple[list[ClusterCore], CoreGenerationStats, IntervalIndex | None]:
    """Run Algorithm 1 against the MapReduce runtime.

    Returns the cores, the run's diagnostics and the interval index the
    level-1 job packed (``None`` without relevant intervals), which the
    Light driver's membership job reads.

    With ``multi_level=False`` every level is proven immediately
    (one support job per level), which is the ablation baseline for the
    T_c heuristic; otherwise levels are collected until
    :func:`stop_collecting` at the index's row count.

    With ``weights`` (the coreset fast path) supports are weighted and
    rescaled to Kish's effective sample size: scale = ESS / W maps the
    weighted support (an estimate of the full-data count, total W) down
    to the ``effective_n = ESS`` points of honest statistical power, so
    the Poisson / effect-size tests run neither over- nor under-confident.
    For a uniform coreset (equal weights) this reduces exactly to
    unweighted proving on the m summary points.
    """
    obs = obs or NULL_OBS
    stats = CoreGenerationStats()
    if not intervals:
        return [], stats, None

    weights = canonical_weights(weights)
    if weights is not None:
        from repro.core.stats import effective_sample_size

        if effective_n is None:
            effective_n = effective_sample_size(weights)
        support_scale = float(effective_n) / float(weights.sum())
        n_test = float(effective_n)
    else:
        support_scale = 1.0
        n_test = n

    table = IntervalTable(intervals)
    tester = SupportTester(table, n_test, alpha=poisson_alpha, theta_cc=theta_cc)
    all_supports: dict[int, int | float] = {}
    proven_all: list[int] = []

    def prove_batch(
        batch: list[int], supports: dict[int, int | float]
    ) -> list[int]:
        """Prove one collected batch, counted by a single support job."""
        stats.proving_jobs += 1
        stats.candidates_proven_total += len(batch)
        if weights is not None:
            supports = {sig: s * support_scale for sig, s in supports.items()}
        all_supports.update(supports)
        batch_stats = ProveStats()
        proven = tester.prove(
            batch,
            supports,
            known=all_supports,
            proven_set=proven_all,
            stats=batch_stats,
        )
        stats.prove_stats.merge(batch_stats)
        proven_sigs = [p.signature for p in proven]
        proven_all.extend(proven_sigs)
        return proven_sigs

    # Level 1 is always proven on its own (Algorithm 1 line 3); its job
    # packs the interval index every later batch is counted over.
    level = [table.encode([interval]) for interval in intervals]
    stats.candidates_per_level.append(len(level))
    supports, index = build_interval_index(chain, splits, table, weights)
    proven_level = prove_batch(level, supports)
    # The points the index covers: the summary's m on the coreset path.
    rows = n if weights is None else len(weights)

    generation_base = proven_level
    pending: list[int] = []
    pending_set: set[int] = set()
    previous_count = len(level)
    c_sum = 0

    while generation_base:
        candidates = generate_candidates(generation_base, table)
        candidates = [
            sig
            for sig in candidates
            if sig not in all_supports and sig not in pending_set
        ]
        stats.candidates_per_level.append(len(candidates))
        c_sum += len(candidates)
        pending.extend(candidates)
        pending_set.update(candidates)

        stop = not multi_level or stop_collecting(
            c_sum, len(candidates), previous_count, rows
        )
        previous_count = len(candidates)

        if stop:
            if not pending:
                break
            proven_batch = prove_batch(
                pending, run_support_job(chain, index, pending, weights)
            )
            # Continue generation from the proven signatures of the
            # deepest collected level only.
            top_size = max(sig.bit_count() for sig in pending)
            generation_base = [
                sig for sig in proven_batch if sig.bit_count() == top_size
            ]
            pending = []
            pending_set = set()
            c_sum = 0
        else:
            # Keep collecting: generate the next level from the
            # (unproven) candidates of this one.
            generation_base = candidates

    cores, stats.cores_before_redundancy = cluster_cores(
        table, proven_all, all_supports, n_test, redundancy_filter
    )
    stats.cores_after_redundancy = len(cores)

    for level, count in enumerate(stats.candidates_per_level, start=1):
        obs.record("apriori.candidates_per_level", count)
        obs.gauge(f"apriori.level_{level}_candidates", count)
    obs.gauge("apriori.levels", len(stats.candidates_per_level))
    obs.gauge("apriori.proving_jobs", stats.proving_jobs)
    obs.count("kills.poisson", stats.prove_stats.rejected_poisson)
    obs.count("kills.effect_size", stats.prove_stats.rejected_effect_size)
    obs.count("kills.unproven_parent", stats.prove_stats.rejected_unproven_parent)
    obs.count("kills.redundancy", stats.redundancy_killed)
    obs.gauge("cores.proven_signatures", stats.prove_stats.proven)
    obs.gauge("cores.maximal", stats.cores_before_redundancy)
    obs.gauge("cores.final", stats.cores_after_redundancy)

    return cores, stats, index
