"""Apriori-style candidate generation over p-signatures (Algorithm 1).

Core generation runs on integer signatures: a p-signature is an ``int``
with p interval-id bits set over an
:class:`~repro.core.types.IntervalTable`, and
:class:`~repro.core.types.Signature` objects are built only for the
maximal signatures and the cores.

Two p-signatures join to a (p+1)-signature when they share exactly
``p - 1`` intervals and their distinguishing intervals lie on different
attributes.  The optional Apriori prune additionally requires every
p-subsignature of a candidate to be present in the generating set (the
multi-level MR collection of Section 5.3 deliberately skips this prune,
trading extra candidates for fewer proving jobs).

:func:`generate_candidates` does not scan all ``k (k - 1) / 2`` pairs.
It files every p-signature under each of its ``p`` subsets of ``p - 1``
intervals, the mask with one bit cleared; two distinct signatures are
joinable only if they share such a bucket, and they share at most one.
Only pairs inside a bucket are tried, so the cost follows the number of
joins rather than ``k²``.  The joins are replayed in pair-index order,
which makes the output list, order included, that of the all-pairs
scan.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.core.redundancy import filter_redundant
from repro.core.types import ClusterCore, IntervalTable, mask_ids


def generate_candidates(
    signatures: Sequence[int],
    table: IntervalTable,
    prune: bool = False,
) -> list[int]:
    """All (p+1)-signatures obtainable by joining pairs from
    ``signatures`` (masks over ``table``), deduplicated, in
    deterministic order: each candidate sits where its first joining
    pair ``(i, j)``, ``i < j``, falls in row-major pair order.

    With ``prune=True``, a candidate survives only if *all* of its
    p-subsignatures are in the generating set (classic Apriori
    downward-closure prune).
    """
    attributes = table.attributes
    buckets: dict[int, list[tuple[int, int, int]]] = {}
    for i, mask in enumerate(signatures):
        for k in mask_ids(mask):
            # The key's bit count fixes p: sizes never share a bucket.
            buckets.setdefault(mask ^ (1 << k), []).append((i, k, attributes[k]))
    joins: list[tuple[int, int, int]] = []
    for members in buckets.values():
        for a, (i, _, attribute_i) in enumerate(members):
            for j, odd_j, attribute_j in members[a + 1 :]:
                # Equal odd attributes also skip duplicate signatures,
                # whose odd intervals in a shared bucket are the same.
                if attribute_i != attribute_j:
                    joins.append((i, j, odd_j))
    joins.sort()  # (i, j) is unique per join: pair-index order

    seen: set[int] = set()
    candidates: list[int] = []
    universe = set(signatures)
    for i, _, odd_j in joins:
        joined = signatures[i] | (1 << odd_j)
        if joined in seen:
            continue
        seen.add(joined)
        if prune and not all(
            (joined ^ (1 << k)) in universe for k in mask_ids(joined)
        ):
            continue
        candidates.append(joined)
    return candidates


def maximal_signatures(signatures: Iterable[int]) -> list[int]:
    """Keep only signatures not properly contained in another one
    (the ``Filter maximal Cluster Cores`` step, Algorithm 1 line 11)."""
    result: list[int] = []
    by_size = sorted(dict.fromkeys(signatures), key=int.bit_count, reverse=True)
    for mask in by_size:
        if not any((mask & kept) == mask for kept in result):
            result.append(mask)
    return result


def cluster_cores(
    table: IntervalTable,
    proven: Iterable[int],
    supports: Mapping[int, int | float],
    n: float,
    redundancy_filter: bool = True,
) -> tuple[list[ClusterCore], int]:
    """The cores of a finished Apriori sweep (Algorithm 1 lines 11-12):
    the maximal ``proven`` signatures, decoded, less the redundant ones
    when ``redundancy_filter`` is set, most interesting first.  Also
    returns how many signatures were maximal."""
    maximal = {
        table.decode(sig): supports[sig] for sig in maximal_signatures(proven)
    }
    kept = filter_redundant(maximal, n) if redundancy_filter else list(maximal)
    cores = [
        ClusterCore(
            signature=sig,
            support=maximal[sig],
            expected_support=sig.expected_support(n),
        )
        for sig in kept
    ]
    cores.sort(key=lambda c: (-c.interestingness, c.signature.intervals))
    return cores, len(maximal)
