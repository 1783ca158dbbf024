"""Unit + property tests for Apriori signature generation."""

from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.apriori import (
    generate_candidates,
    join_signatures,
    maximal_signatures,
    singleton_signatures,
)
from repro.core.types import Interval, Signature


def _iv(attribute: int, lo: float = 0.0, hi: float = 0.5) -> Interval:
    return Interval(attribute, lo, hi)


def _all_pairs_oracle(signatures, prune=False):
    """The all-pairs scan: every pair in ``combinations`` order, each
    join kept at its first occurrence."""
    seen = set()
    candidates = []
    universe = set(signatures)
    for first, second in combinations(signatures, 2):
        joined = join_signatures(first, second)
        if joined is None or joined in seen:
            continue
        seen.add(joined)
        if prune and any(joined.without(iv) not in universe for iv in joined):
            continue
        candidates.append(joined)
    return candidates


#: Two intervals on each of five attributes: random signatures over
#: this pool often share all but one interval, or differ only by an
#: interval on the same attribute.
_POOL = [[_iv(a, lo, lo + 0.3) for lo in (0.1, 0.5)] for a in range(5)]


@st.composite
def _pool_signature_sets(draw):
    sizes = sorted(draw(st.sets(st.integers(1, 4), min_size=1, max_size=2)))
    signatures = []
    for _ in range(draw(st.integers(0, 30))):
        size = draw(st.sampled_from(sizes))
        attrs = draw(st.permutations(range(5)))[:size]
        signatures.append(
            Signature([_POOL[a][draw(st.integers(0, 1))] for a in attrs])
        )
    return signatures


class TestJoin:
    def test_singletons_join_on_distinct_attributes(self):
        joined = join_signatures(Signature([_iv(0)]), Signature([_iv(1)]))
        assert joined is not None
        assert joined.attributes == frozenset({0, 1})

    def test_singletons_same_attribute_dont_join(self):
        a = Signature([_iv(0, 0.0, 0.2)])
        b = Signature([_iv(0, 0.5, 0.7)])
        assert join_signatures(a, b) is None

    def test_two_sigs_sharing_one_interval_join(self):
        shared = _iv(0)
        a = Signature([shared, _iv(1)])
        b = Signature([shared, _iv(2)])
        joined = join_signatures(a, b)
        assert joined is not None
        assert joined.attributes == frozenset({0, 1, 2})

    def test_two_sigs_sharing_nothing_dont_join(self):
        a = Signature([_iv(0), _iv(1)])
        b = Signature([_iv(2), _iv(3)])
        assert join_signatures(a, b) is None

    def test_different_sizes_dont_join(self):
        a = Signature([_iv(0)])
        b = Signature([_iv(1), _iv(2)])
        assert join_signatures(a, b) is None

    def test_odd_intervals_on_same_attribute_dont_join(self):
        shared = _iv(0)
        a = Signature([shared, _iv(1, 0.0, 0.2)])
        b = Signature([shared, _iv(1, 0.5, 0.9)])
        assert join_signatures(a, b) is None

    def test_join_is_symmetric(self):
        a = Signature([_iv(0), _iv(1)])
        b = Signature([_iv(0), _iv(2)])
        assert join_signatures(a, b) == join_signatures(b, a)


class TestCandidateGeneration:
    def test_all_pairs_of_singletons(self):
        singles = singleton_signatures([_iv(0), _iv(1), _iv(2)])
        candidates = generate_candidates(singles)
        assert len(candidates) == 3
        assert all(len(c) == 2 for c in candidates)

    def test_deduplication(self):
        # Three 2-sigs over {0,1,2} all join pairwise to the same 3-sig.
        s01 = Signature([_iv(0), _iv(1)])
        s02 = Signature([_iv(0), _iv(2)])
        s12 = Signature([_iv(1), _iv(2)])
        candidates = generate_candidates([s01, s02, s12])
        assert len(candidates) == 1
        assert candidates[0].attributes == frozenset({0, 1, 2})

    def test_prune_requires_all_subsignatures(self):
        s01 = Signature([_iv(0), _iv(1)])
        s02 = Signature([_iv(0), _iv(2)])
        # {1,2} missing: the 3-sig candidate must be pruned.
        assert generate_candidates([s01, s02], prune=True) == []
        assert len(generate_candidates([s01, s02], prune=False)) == 1

    def test_empty_input(self):
        assert generate_candidates([]) == []

    def test_deterministic_order(self):
        singles = singleton_signatures([_iv(2), _iv(0), _iv(1)])
        assert generate_candidates(singles) == generate_candidates(singles)

    @settings(max_examples=200, deadline=None)
    @given(_pool_signature_sets())
    def test_matches_all_pairs_oracle(self, signatures):
        for prune in (False, True):
            assert generate_candidates(
                signatures, prune=prune
            ) == _all_pairs_oracle(signatures, prune=prune)

    @settings(max_examples=30)
    @given(st.sets(st.integers(0, 8), min_size=2, max_size=6))
    def test_singleton_level2_count(self, attrs):
        """k singletons on distinct attributes produce C(k, 2) pairs."""
        singles = singleton_signatures([_iv(a) for a in sorted(attrs)])
        candidates = generate_candidates(singles)
        k = len(attrs)
        assert len(candidates) == k * (k - 1) // 2


class TestMaximality:
    def test_subsets_removed(self):
        small = Signature([_iv(0)])
        big = Signature([_iv(0), _iv(1)])
        assert maximal_signatures([small, big]) == [big]

    def test_incomparable_kept(self):
        a = Signature([_iv(0), _iv(1)])
        b = Signature([_iv(0), _iv(2)])
        assert set(maximal_signatures([a, b])) == {a, b}

    def test_duplicates_collapse(self):
        a = Signature([_iv(0)])
        result = maximal_signatures([a, a])
        assert result == [a]

    def test_chain_keeps_only_top(self):
        s1 = Signature([_iv(0)])
        s2 = Signature([_iv(0), _iv(1)])
        s3 = Signature([_iv(0), _iv(1), _iv(2)])
        assert maximal_signatures([s1, s2, s3]) == [s3]

    def test_same_attribute_different_intervals_incomparable(self):
        a = Signature([_iv(0, 0.0, 0.2)])
        b = Signature([_iv(0, 0.5, 0.9)])
        assert len(maximal_signatures([a, b])) == 2


class TestSingletons:
    def test_one_signature_per_interval(self):
        intervals = [_iv(0), _iv(1), _iv(0, 0.6, 0.9)]
        singles = singleton_signatures(intervals)
        assert len(singles) == 3
        assert all(len(s) == 1 for s in singles)
