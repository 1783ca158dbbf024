"""Parallel candidate generation (paper Section 5.3).

The paper sizes the join by its pair count, ``c = k (k - 1) / 2`` for
``k`` p-signatures, and so does the serial/parallel switch here: up to
``2 * T_gen`` pairs the driver joins serially, with
:func:`repro.core.apriori.generate_candidates`, which buckets the
signatures by shared ``p - 1`` intervals and so never visits most of
those pairs.  Above it, a map-only job fans the pair-index range out to
``m = floor(c / T_gen)`` mappers.  Each mapper receives the signature
list via the distributed cache and an index range as its input record,
decodes the range's first index into a pair, steps through the pairs
that follow, and emits each join that succeeds.  The driver collects
the output, ignoring duplicates (two pairs can produce the same
(p+1)-signature).
"""

from __future__ import annotations

from typing import Any

from repro.core.apriori import generate_candidates, join_signatures
from repro.core.types import Signature
from repro.mapreduce import Context, DistributedCache, Job, Mapper
from repro.mapreduce.chain import JobChain
from repro.mapreduce.types import InputSplit

#: Default serial/parallel switch-over, scaled down from the paper's
#: cluster-calibrated 4e7 pair threshold to laptop proportions.
DEFAULT_T_GEN = 2_000_000


def pair_from_index(index: int, k: int) -> tuple[int, int]:
    """Decode a flat index in [0, k(k-1)/2) to an (i, j) pair, i < j.

    Pairs are ordered row-major over the upper triangle:
    (0,1), (0,2), ..., (0,k-1), (1,2), ...
    """
    if index < 0:
        raise ValueError("pair index must be >= 0")
    i = 0
    row_len = k - 1
    remaining = index
    while remaining >= row_len:
        remaining -= row_len
        i += 1
        row_len -= 1
        if row_len < 0:
            raise ValueError(f"pair index {index} out of range for k={k}")
    return i, i + 1 + remaining


class CandidateJoinMapper(Mapper):
    """Joins the signature pairs of one flat-index range."""

    def setup(self, context: Context) -> None:
        self._signatures: list[Signature] = context.cache["signatures"]

    def map(self, key: Any, value: tuple[int, int], context: Context) -> None:
        start, stop = value
        k = len(self._signatures)
        i, j = pair_from_index(start, k)
        for _ in range(start, stop):
            joined = join_signatures(self._signatures[i], self._signatures[j])
            if joined is not None:
                context.emit(joined, None)
            j += 1
            if j == k:
                i += 1
                j = i + 1


def run_candidate_generation(
    chain: JobChain,
    signatures: list[Signature],
    t_gen: int = DEFAULT_T_GEN,
    step_name: str = "candidate_generation",
) -> list[Signature]:
    """Generate (p+1)-candidates, serially or with a map-only MR job.

    Matches :func:`repro.core.apriori.generate_candidates` exactly
    (deduplicated; deterministic order).
    """
    k = len(signatures)
    c = k * (k - 1) // 2
    if c <= 2 * t_gen:
        return generate_candidates(signatures, prune=False)

    num_mappers = max(2, c // t_gen)
    bounds = [c * m // num_mappers for m in range(num_mappers + 1)]
    ranges = [
        (0, (bounds[m], bounds[m + 1]))
        for m in range(num_mappers)
        if bounds[m] < bounds[m + 1]
    ]
    splits = [
        InputSplit(split_id=sid, records=[record])
        for sid, record in enumerate(ranges)
    ]
    job = Job(
        mapper_factory=CandidateJoinMapper,
        cache=DistributedCache({"signatures": list(signatures)}),
    )
    result = chain.run(step_name, job, splits, num_reducers=0)
    seen: set[Signature] = set()
    candidates: list[Signature] = []
    for signature, _ in result.output:
        if signature not in seen:
            seen.add(signature)
            candidates.append(signature)
    return candidates
