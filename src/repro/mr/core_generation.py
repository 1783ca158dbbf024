"""Cluster-core generation in MapReduce (Algorithm 1 + Section 5.3).

Combines:

- :func:`repro.mr.candidates.run_candidate_generation` (serial or
  parallel Apriori joins),
- the **multi-level candidate collection** heuristic: candidates are
  *collected* across levels without proving — level ``j+1`` is generated
  from ``Cand_j`` instead of ``Proven_j`` — until

      |Cand_j| = 0  or  (c_sum > T_c  and  |Cand_j| > |Cand_{j-1}|)

  at which point a *single* support job proves the whole collection
  (saving per-level job overhead at the price of weaker Apriori
  pruning),
- :func:`repro.mr.support.run_support_job` (RSSC-based proving),
- the maximality filter and (for P3C+) the redundancy filter.

Because a collected batch always contains every ancestor of its
candidates down to the last proven level, the Eq. 1 parent supports
needed by :class:`repro.core.proving.SupportTester` are always
available.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.apriori import maximal_signatures, singleton_signatures
from repro.core.proving import ProveStats, SupportTester
from repro.core.redundancy import filter_redundant
from repro.core.types import ClusterCore, Interval, Signature
from repro.mapreduce.chain import JobChain
from repro.mapreduce.types import InputSplit
from repro.mr.candidates import DEFAULT_T_GEN, run_candidate_generation
from repro.mr.support import run_support_job
from repro.mr.weights import canonical_weights
from repro.obs import NULL_OBS, Observability

#: Default multi-level collection threshold, scaled down from the
#: paper's cluster-calibrated 3e4 to laptop proportions (collecting too
#: deep without proving loses Apriori pruning entirely and the unproven
#: candidate set grows combinatorially).
DEFAULT_T_C = 2_000


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
    t_gen: int = DEFAULT_T_GEN,
    t_c: int = DEFAULT_T_C,
    multi_level: bool = True,
    obs: Observability | None = None,
    weights: np.ndarray | None = None,
    effective_n: float | None = None,
) -> tuple[list[ClusterCore], CoreGenerationStats]:
    """Run Algorithm 1 against the MapReduce runtime.

    With ``multi_level=False`` every level is proven immediately
    (one support job per level), which is the ablation baseline for the
    T_c heuristic.

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
        return [], stats

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

    tester = SupportTester(n_test, alpha=poisson_alpha, theta_cc=theta_cc)
    all_supports: dict[Signature, int] = {}
    proven_all: list[Signature] = []

    def prove_batch(batch: list[Signature]) -> list[Signature]:
        """Count + prove one collected batch with a single support job."""
        stats.proving_jobs += 1
        stats.candidates_proven_total += len(batch)
        supports = run_support_job(chain, splits, batch, weights=weights)
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

    # Level 1 is always proven on its own (Algorithm 1 line 3).
    level = singleton_signatures(intervals)
    stats.candidates_per_level.append(len(level))
    proven_level = prove_batch(level)

    generation_base = proven_level
    pending: list[Signature] = []
    pending_set: set[Signature] = set()
    previous_count = len(level)
    c_sum = 0

    while generation_base:
        candidates = run_candidate_generation(chain, generation_base, t_gen=t_gen)
        candidates = [
            sig
            for sig in candidates
            if sig not in all_supports and sig not in pending_set
        ]
        stats.candidates_per_level.append(len(candidates))
        c_sum += len(candidates)
        pending.extend(candidates)
        pending_set.update(candidates)

        stop_collecting = (
            not multi_level
            or not candidates
            or (c_sum > t_c and len(candidates) > previous_count)
        )
        previous_count = len(candidates)

        if stop_collecting:
            if not pending:
                break
            proven_batch = prove_batch(pending)
            # Continue generation from the proven signatures of the
            # deepest collected level only.
            top_size = max((len(sig) for sig in pending), default=0)
            generation_base = [sig for sig in proven_batch if len(sig) == top_size]
            pending = []
            pending_set = set()
            c_sum = 0
        else:
            # Keep collecting: generate the next level from the
            # (unproven) candidates of this one.
            generation_base = candidates

    maximal = maximal_signatures(proven_all)
    stats.cores_before_redundancy = len(maximal)
    if redundancy_filter:
        maximal = filter_redundant(
            {sig: all_supports[sig] for sig in maximal}, n_test
        )
    stats.cores_after_redundancy = len(maximal)

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

    cores = [
        ClusterCore(
            signature=sig,
            support=all_supports[sig],
            expected_support=sig.expected_support(n_test),
        )
        for sig in maximal
    ]
    cores.sort(key=lambda c: (-c.interestingness, c.signature.intervals))
    return cores, stats
