"""Unit tests for candidate proving (Eq. 1 + effect size).

The prover takes signatures as id masks over an :class:`IntervalTable`;
a Signature-level Eq. 1 loop below is its oracle.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.core.proving import ProveStats, SupportTester
from repro.core.stats import cohens_d_cc, poisson_deviation_significant
from repro.core.types import Interval, IntervalTable, Signature
from tests.oracles import count_supports, without

#: Every interval the unit tests use: [0, 0.1] and [0, 0.5] on
#: attributes 0-3.
_TABLE = IntervalTable(
    Interval(a, 0.0, width) for a in range(4) for width in (0.1, 0.5)
)


def _signature(*attrs: int, width: float = 0.1) -> Signature:
    return Signature([Interval(a, 0.0, width) for a in attrs])


def _sig(*attrs: int, width: float = 0.1) -> int:
    """The id mask of :func:`_signature` over ``_TABLE``."""
    return _TABLE.encode(_signature(*attrs, width=width))


class TestCountSupports:
    def test_matches_signature_support(self, tiny_dataset):
        sigs = [_signature(0, width=0.5), _signature(0, 1, width=0.5)]
        supports = count_supports(tiny_dataset.data, sigs)
        for sig in sigs:
            assert supports[sig] == sig.support(tiny_dataset.data)


class TestSupportTester:
    def test_validates_n(self):
        with pytest.raises(ValueError):
            SupportTester(_TABLE, 0)

    def test_level1_significant_singleton_passes(self):
        tester = SupportTester(_TABLE, n=1_000, alpha=0.01, theta_cc=0.35)
        sig = _sig(0)  # width 0.1 => expected 100
        assert tester.evaluate(sig, support=500, known={}) is None

    def test_level1_uniform_singleton_fails(self):
        tester = SupportTester(_TABLE, n=1_000, alpha=0.01, theta_cc=0.35)
        sig = _sig(0)
        assert tester.evaluate(sig, support=100, known={}) is not None

    def test_effect_size_blocks_weak_but_significant(self):
        # Huge n: +2% is significant but below theta_cc = 0.35.
        tester = SupportTester(_TABLE, n=10_000_000, alpha=0.01, theta_cc=0.35)
        sig = _sig(0)  # expected 1e6
        support = 1_020_000
        assert tester.evaluate(sig, support, known={}) is not None
        poisson_only = SupportTester(
            _TABLE, n=10_000_000, alpha=0.01, theta_cc=None
        )
        assert poisson_only.evaluate(sig, support, known={}) is None

    def test_eq1_requires_every_leave_one_out(self):
        tester = SupportTester(_TABLE, n=1_000, alpha=0.01, theta_cc=None)
        pair = _sig(0, 1)
        known = {_sig(0): 500, _sig(1): 900}
        # 120 >> 500*0.1 = 50 (attr 1 left out: parent {0});
        # but 120 vs 900*0.1 = 90 (attr 0 left out) is a weak deviation.
        assert tester.evaluate(pair, support=92, known=known) is not None
        assert tester.evaluate(pair, support=500, known=known) is None

    def test_missing_parent_raises_keyerror(self):
        tester = SupportTester(_TABLE, n=100)
        with pytest.raises(KeyError):
            tester.evaluate(_sig(0, 1), 50, {})

    def test_empty_parent_has_support_n(self):
        tester = SupportTester(_TABLE, n=123)
        # The parent of a 1-signature is the empty mask: expected 123 * 0.1.
        for support in range(60):
            passes = poisson_deviation_significant(
                support, 12.3, 0.01
            ) and cohens_d_cc(support, 12.3) >= 0.35
            assert (tester.evaluate(_sig(0), support, {}) is None) == passes


class TestProveBatch:
    def test_level_order_resolves_parents(self):
        tester = SupportTester(_TABLE, n=1_000, alpha=0.01, theta_cc=None)
        s0, s1 = _sig(0), _sig(1)
        pair = _sig(0, 1)
        supports = {s0: 400, s1: 400, pair: 380}
        proven = tester.prove([pair, s0, s1], supports)
        assert {p.signature for p in proven} == {s0, s1, pair}

    def test_unproven_parent_blocks_child(self):
        tester = SupportTester(_TABLE, n=1_000, alpha=0.01, theta_cc=None)
        s0, s1 = _sig(0), _sig(1)
        pair = _sig(0, 1)
        # s1 is uniform (fails level 1), so the pair must not be proven
        # even though its own counts look significant.
        supports = {s0: 400, s1: 100, pair: 95}
        proven = {p.signature for p in tester.prove([s0, s1, pair], supports)}
        assert s0 in proven
        assert s1 not in proven
        assert pair not in proven

    def test_proven_set_carries_across_batches(self):
        tester = SupportTester(_TABLE, n=1_000, alpha=0.01, theta_cc=None)
        s0, s1 = _sig(0), _sig(1)
        batch1 = tester.prove([s0, s1], {s0: 400, s1: 400})
        assert len(batch1) == 2
        pair = _sig(0, 1)
        batch2 = tester.prove(
            [pair],
            {pair: 380},
            known={s0: 400, s1: 400},
            proven_set=[p.signature for p in batch1],
        )
        assert [p.signature for p in batch2] == [pair]

    def test_missing_parent_support_fails_closed(self):
        tester = SupportTester(_TABLE, n=1_000, alpha=0.01, theta_cc=None)
        pair = _sig(0, 1)
        proven = tester.prove(
            [pair], {pair: 380}, proven_set=[_sig(0), _sig(1)]
        )
        assert proven == []

    def test_proven_signature_records_support(self):
        tester = SupportTester(_TABLE, n=1_000, alpha=0.01, theta_cc=None)
        (proven,) = tester.prove([_sig(0)], {_sig(0): 400})
        assert proven.support == 400
        assert proven.p == 1


def _prove_oracle(n, alpha, theta_cc, candidates, supports, known, proven_set):
    """Eq. 1 on :class:`Signature` objects, interval by interval in
    attribute order: the proven ``(signature, support)`` list, the
    batch's :class:`ProveStats`, and the position of the failing
    interval of every candidate a test rejected."""
    merged = {**known, **supports}
    accepted = set(proven_set)
    proven, stats, failed_at = [], ProveStats(), []
    for sig in sorted(candidates, key=len):
        stats.candidates += 1
        if len(sig) > 1 and any(without(sig, iv) not in accepted for iv in sig):
            stats.rejected_unproven_parent += 1
            continue
        verdict = None
        for position, interval in enumerate(sig):
            parent = without(sig, interval)
            if len(parent) and parent not in merged:
                verdict = "poisson"
            else:
                expected = (merged[parent] if len(parent) else n) * interval.width
                if not poisson_deviation_significant(supports[sig], expected, alpha):
                    verdict = "poisson"
                elif theta_cc is not None and (
                    cohens_d_cc(supports[sig], expected) < theta_cc
                ):
                    verdict = "effect_size"
            if verdict is not None:
                failed_at.append(position)
                break
        if verdict is None:
            proven.append((sig, supports[sig]))
            accepted.add(sig)
            stats.proven += 1
        elif verdict == "poisson":
            stats.rejected_poisson += 1
        else:
            stats.rejected_effect_size += 1
    return proven, stats, failed_at


def _random_batch(rng, n):
    """Every 1-signature over 5 attributes with two intervals each, and
    random 2- and 3-signatures over them.  Each support lands near the
    largest of its leave-one-out expectations, so candidates fail at
    whichever interval that is, not only at their first one."""
    intervals = [
        [Interval(a, lo, lo + float(rng.uniform(0.05, 0.45))) for lo in (0.0, 0.5)]
        for a in range(5)
    ]
    signatures = [Signature([iv]) for row in intervals for iv in row]
    for size in (2, 3):
        for attrs in combinations(range(5), size):
            if rng.random() < 0.6:
                choice = rng.integers(0, 2, size=size)
                signatures.append(
                    Signature([intervals[a][c] for a, c in zip(attrs, choice)])
                )
    supports = {}
    for sig in signatures:
        expected = [supports.get(without(sig, iv), n) * iv.width for iv in sig]
        supports[sig] = int(max(expected) * rng.uniform(0.8, 2.5))
    rng.shuffle(signatures)
    table = IntervalTable(iv for row in intervals for iv in row)
    return table, signatures, supports


class TestProverMatchesSignatureOracle:
    @pytest.mark.parametrize("theta_cc", [0.35, None])
    def test_random_batches(self, theta_cc):
        rng = np.random.default_rng(17)
        n, alpha = 5_000, 0.01
        failed_later = 0
        totals = ProveStats()
        for _ in range(40):
            table, signatures, supports = _random_batch(rng, n)
            tester = SupportTester(table, n, alpha=alpha, theta_cc=theta_cc)
            encoded = {table.encode(sig): s for sig, s in supports.items()}
            # One collected batch, as the multi-level collection proves it.
            oracle, oracle_stats, failed_at = _prove_oracle(
                n, alpha, theta_cc, signatures, supports, {}, []
            )
            stats = ProveStats()
            proven = tester.prove(
                [table.encode(sig) for sig in signatures], encoded, stats=stats
            )
            assert [(table.decode(p.signature), p.support) for p in proven] == oracle
            assert stats == oracle_stats
            failed_later += sum(position > 0 for position in failed_at)
            totals.merge(stats)

            # Level by level: level 1, then the rest with the first
            # batch's supports known and its proven signatures carried.
            first = [sig for sig in signatures if len(sig) == 1]
            rest = [sig for sig in signatures if len(sig) > 1]
            first_proven, _, _ = _prove_oracle(
                n, alpha, theta_cc, first, supports, {}, []
            )
            known = {sig: supports[sig] for sig in first}
            rest_supports = {sig: supports[sig] for sig in rest}
            oracle, oracle_stats, _ = _prove_oracle(
                n,
                alpha,
                theta_cc,
                rest,
                rest_supports,
                known,
                [sig for sig, _ in first_proven],
            )
            stats = ProveStats()
            proven = tester.prove(
                [table.encode(sig) for sig in rest],
                {table.encode(sig): s for sig, s in rest_supports.items()},
                known={table.encode(sig): s for sig, s in known.items()},
                proven_set=[table.encode(sig) for sig, _ in first_proven],
                stats=stats,
            )
            assert [(table.decode(p.signature), p.support) for p in proven] == oracle
            assert stats == oracle_stats
        # The batches exercised every outcome, and candidates whose
        # failing interval is not their first one.
        assert failed_later > 0
        assert totals.proven and totals.rejected_poisson
        assert totals.rejected_unproven_parent
        if theta_cc is not None:
            assert totals.rejected_effect_size
