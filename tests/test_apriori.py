"""Unit + property tests for Apriori signature generation on id masks.

The join and the maximality filter take signatures as id masks over an
:class:`IntervalTable`; the tests build signatures, encode them through
the table and decode the results.  The signature-level join and the
all-pairs scan below are the oracles the mask join must reproduce,
order included.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.apriori import generate_candidates, maximal_signatures
from repro.core.types import Interval, IntervalTable, Signature, mask_ids
from tests.oracles import without


def _iv(attribute: int, lo: float = 0.0, hi: float = 0.5) -> Interval:
    return Interval(attribute, lo, hi)


def _table(signatures) -> IntervalTable:
    return IntervalTable(iv for sig in signatures for iv in sig)


def _generate(signatures, prune=False, table=None) -> list[Signature]:
    """:func:`generate_candidates` on the signatures' masks, decoded."""
    table = table or _table(signatures)
    masks = [table.encode(sig) for sig in signatures]
    return [
        table.decode(mask)
        for mask in generate_candidates(masks, table, prune=prune)
    ]


def _maximal(signatures) -> list[Signature]:
    table = _table(signatures)
    masks = [table.encode(sig) for sig in signatures]
    return [table.decode(mask) for mask in maximal_signatures(masks)]


def _join(first: Signature, second: Signature) -> Signature | None:
    """The mask join of one pair: the joined signature, or ``None``."""
    joined = _generate([first, second])
    return joined[0] if joined else None


def _join_oracle(first: Signature, second: Signature) -> Signature | None:
    """Join two equal-size signatures sharing all but one interval, on
    interval sets; ``None`` when the pair is not joinable."""
    if len(first) != len(second):
        return None
    set_a, set_b = set(first.intervals), set(second.intervals)
    only_a = set_a - set_b
    only_b = set_b - set_a
    if len(only_a) != 1 or len(only_b) != 1:
        return None
    (interval_a,) = only_a
    (interval_b,) = only_b
    if interval_a.attribute == interval_b.attribute:
        return None
    return Signature(first.intervals + (interval_b,))


def _all_pairs_oracle(signatures, prune=False):
    """The all-pairs scan: every pair in ``combinations`` order, each
    join kept at its first occurrence."""
    seen = set()
    candidates = []
    universe = set(signatures)
    for first, second in combinations(signatures, 2):
        joined = _join_oracle(first, second)
        if joined is None or joined in seen:
            continue
        seen.add(joined)
        if prune and any(without(joined, iv) not in universe for iv in joined):
            continue
        candidates.append(joined)
    return candidates


#: Two intervals on each of five attributes: random signatures over
#: this pool often share all but one interval, or differ only by an
#: interval on the same attribute.
_POOL = [[_iv(a, lo, lo + 0.3) for lo in (0.1, 0.5)] for a in range(5)]

#: 64 intervals that sort before every pool interval (attribute 0,
#: lower bound 0.0), so the pool's ids are 64 and above: a mask over
#: them does not fit one machine word.
_FILLER = [_iv(0, 0.0, (k + 1) / 1000) for k in range(64)]


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


class TestIntervalTable:
    def test_ids_follow_interval_order(self):
        intervals = [_iv(2), _iv(0, 0.5, 0.9), _iv(0), _iv(1), _iv(0)]
        table = IntervalTable(intervals)
        assert table.intervals == tuple(sorted(set(intervals)))
        assert table.attributes == [0, 0, 1, 2]
        assert table.widths == [iv.width for iv in table.intervals]

    def test_ascending_ids_are_signature_order(self):
        signature = Signature([_iv(3), _iv(0, 0.5, 0.9), _iv(1)])
        table = IntervalTable([*_FILLER, *signature, _iv(2)])
        mask = table.encode(signature)
        assert mask.bit_count() == 3
        assert [table.intervals[k] for k in mask_ids(mask)] == list(signature)
        assert table.decode(mask) == signature


class TestJoin:
    def test_singletons_join_on_distinct_attributes(self):
        joined = _join(Signature([_iv(0)]), Signature([_iv(1)]))
        assert joined is not None
        assert joined.attributes == frozenset({0, 1})

    def test_singletons_same_attribute_dont_join(self):
        a = Signature([_iv(0, 0.0, 0.2)])
        b = Signature([_iv(0, 0.5, 0.7)])
        assert _join(a, b) is None

    def test_two_sigs_sharing_one_interval_join(self):
        shared = _iv(0)
        a = Signature([shared, _iv(1)])
        b = Signature([shared, _iv(2)])
        joined = _join(a, b)
        assert joined is not None
        assert joined.attributes == frozenset({0, 1, 2})

    def test_two_sigs_sharing_nothing_dont_join(self):
        a = Signature([_iv(0), _iv(1)])
        b = Signature([_iv(2), _iv(3)])
        assert _join(a, b) is None

    def test_different_sizes_dont_join(self):
        a = Signature([_iv(0)])
        b = Signature([_iv(1), _iv(2)])
        assert _join(a, b) is None

    def test_odd_intervals_on_same_attribute_dont_join(self):
        shared = _iv(0)
        a = Signature([shared, _iv(1, 0.0, 0.2)])
        b = Signature([shared, _iv(1, 0.5, 0.9)])
        assert _join(a, b) is None

    def test_join_is_symmetric(self):
        a = Signature([_iv(0), _iv(1)])
        b = Signature([_iv(0), _iv(2)])
        assert _join(a, b) == _join(b, a)


class TestCandidateGeneration:
    def test_all_pairs_of_singletons(self):
        singles = [Signature([iv]) for iv in (_iv(0), _iv(1), _iv(2))]
        candidates = _generate(singles)
        assert len(candidates) == 3
        assert all(len(c) == 2 for c in candidates)

    def test_deduplication(self):
        # Three 2-sigs over {0,1,2} all join pairwise to the same 3-sig.
        s01 = Signature([_iv(0), _iv(1)])
        s02 = Signature([_iv(0), _iv(2)])
        s12 = Signature([_iv(1), _iv(2)])
        candidates = _generate([s01, s02, s12])
        assert len(candidates) == 1
        assert candidates[0].attributes == frozenset({0, 1, 2})

    def test_prune_requires_all_subsignatures(self):
        s01 = Signature([_iv(0), _iv(1)])
        s02 = Signature([_iv(0), _iv(2)])
        # {1,2} missing: the 3-sig candidate must be pruned.
        assert _generate([s01, s02], prune=True) == []
        assert len(_generate([s01, s02], prune=False)) == 1

    def test_empty_input(self):
        assert generate_candidates([], IntervalTable([])) == []

    def test_deterministic_order(self):
        singles = [Signature([iv]) for iv in (_iv(2), _iv(0), _iv(1))]
        assert _generate(singles) == _generate(singles)

    @settings(max_examples=200, deadline=None)
    @given(_pool_signature_sets())
    def test_matches_all_pairs_oracle(self, signatures):
        pool = [iv for row in _POOL for iv in row]
        table = IntervalTable(_FILLER + pool)
        assert min(table.encode([iv]) for iv in pool) == 1 << 64
        for prune in (False, True):
            assert _generate(
                signatures, prune=prune, table=table
            ) == _all_pairs_oracle(signatures, prune=prune)

    def test_mixed_sizes_match_all_pairs_oracle(self):
        # 2- and 3-signatures sharing intervals, pairs whose odd
        # intervals lie on one attribute, and one duplicate.
        a0, a0b = Interval(0, 0.0, 0.3), Interval(0, 0.5, 0.8)
        a1, a1b = Interval(1, 0.0, 0.3), Interval(1, 0.5, 0.8)
        a2, a3 = Interval(2, 0.1, 0.4), Interval(3, 0.2, 0.6)
        signatures = [
            Signature([a0, a1]),
            Signature([a0, a2]),
            Signature([a0, a1b]),
            Signature([a1, a2]),
            Signature([a0b, a1]),
            Signature([a0, a1]),
            Signature([a0, a1, a2]),
            Signature([a0, a1, a3]),
            Signature([a0, a2, a3]),
            Signature([a1b, a2, a3]),
        ]
        candidates = _generate(signatures)
        assert {len(sig) for sig in candidates} == {3, 4}
        assert candidates == _all_pairs_oracle(signatures)
        assert _generate(signatures, prune=True) == _all_pairs_oracle(
            signatures, prune=True
        )

    @settings(max_examples=30)
    @given(st.sets(st.integers(0, 8), min_size=2, max_size=6))
    def test_singleton_level2_count(self, attrs):
        """k singletons on distinct attributes produce C(k, 2) pairs."""
        singles = [Signature([_iv(a)]) for a in sorted(attrs)]
        candidates = _generate(singles)
        k = len(attrs)
        assert len(candidates) == k * (k - 1) // 2


class TestMaximality:
    def test_subsets_removed(self):
        small = Signature([_iv(0)])
        big = Signature([_iv(0), _iv(1)])
        assert _maximal([small, big]) == [big]

    def test_incomparable_kept(self):
        a = Signature([_iv(0), _iv(1)])
        b = Signature([_iv(0), _iv(2)])
        assert set(_maximal([a, b])) == {a, b}

    def test_duplicates_collapse(self):
        a = Signature([_iv(0)])
        result = _maximal([a, a])
        assert result == [a]

    def test_chain_keeps_only_top(self):
        s1 = Signature([_iv(0)])
        s2 = Signature([_iv(0), _iv(1)])
        s3 = Signature([_iv(0), _iv(1), _iv(2)])
        assert _maximal([s1, s2, s3]) == [s3]

    def test_same_attribute_different_intervals_incomparable(self):
        a = Signature([_iv(0, 0.0, 0.2)])
        b = Signature([_iv(0, 0.5, 0.9)])
        assert len(_maximal([a, b])) == 2


class TestSingletons:
    def test_one_signature_per_interval(self):
        intervals = [_iv(0), _iv(1), _iv(0, 0.6, 0.9)]
        table = IntervalTable(intervals)
        singles = [table.encode([iv]) for iv in intervals]
        assert len(set(singles)) == 3
        for single, interval in zip(singles, intervals):
            assert table.decode(single) == Signature([interval])
