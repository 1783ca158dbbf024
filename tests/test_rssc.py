"""Tests for the Rapid Signature Support Counter (Section 5.3).

The crucial property: RSSC counting equals brute-force closed-interval
support counting bit-for-bit, including points sitting exactly on
interval boundaries.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.proving import count_supports
from repro.core.types import Interval, Signature
from repro.mr.rssc import RSSC


def _random_signatures(rng, num_sigs: int, d: int) -> list[Signature]:
    signatures = []
    for _ in range(num_sigs):
        num_attrs = rng.integers(1, min(4, d) + 1)
        attrs = rng.choice(d, size=num_attrs, replace=False)
        intervals = []
        for attribute in attrs:
            lo = rng.uniform(0, 0.8)
            hi = lo + rng.uniform(0.05, 0.2)
            intervals.append(Interval(int(attribute), lo, min(hi, 1.0)))
        signatures.append(Signature(intervals))
    return signatures


class TestRSSCEquality:
    def test_matches_bruteforce_random(self, rng):
        data = rng.uniform(size=(500, 6))
        signatures = _random_signatures(rng, 25, 6)
        rssc = RSSC(signatures)
        assert rssc.count_supports(data) == count_supports(data, signatures)

    def test_matches_bruteforce_on_synthetic(self, tiny_dataset):
        data = tiny_dataset.data
        signatures = [
            cluster.signature for cluster in tiny_dataset.hidden_clusters
        ]
        rssc = RSSC(signatures)
        assert rssc.count_supports(data) == count_supports(data, signatures)

    def test_boundary_points_counted_as_closed(self):
        sig = Signature([Interval(0, 0.25, 0.5)])
        rssc = RSSC([sig])
        data = np.array([[0.25], [0.5], [0.2499999], [0.5000001]])
        counts = rssc.count_supports(data)
        assert counts[sig] == 2

    def test_shared_boundary_between_signatures(self):
        left = Signature([Interval(0, 0.0, 0.5)])
        right = Signature([Interval(0, 0.5, 1.0)])
        rssc = RSSC([left, right])
        counts = rssc.count_supports(np.array([[0.5]]))
        assert counts[left] == 1
        assert counts[right] == 1

    def test_degenerate_interval(self):
        sig = Signature([Interval(0, 0.3, 0.3)])
        rssc = RSSC([sig])
        counts = rssc.count_supports(np.array([[0.3], [0.30001], [0.29999]]))
        assert counts[sig] == 1

    def test_irrelevant_attribute_bits_stay_set(self):
        # Figure 3's point: a signature without an interval on attribute
        # a keeps bit 1 in every cell of a's binning.
        sig_a = Signature([Interval(0, 0.2, 0.4)])
        sig_b = Signature([Interval(1, 0.6, 0.8)])
        rssc = RSSC([sig_a, sig_b])
        point = np.array([0.3, 0.7])
        assert rssc.membership_bits(point) == 0b11

    def test_empty_candidate_set(self):
        rssc = RSSC([])
        assert rssc.count_supports(np.zeros((3, 2))) == {}

    def test_membership_bits_early_exit(self):
        sig = Signature([Interval(0, 0.0, 0.1), Interval(1, 0.0, 0.1)])
        rssc = RSSC([sig])
        assert rssc.membership_bits(np.array([0.9, 0.05])) == 0

    def test_relevant_attributes_listed(self):
        signatures = [
            Signature([Interval(2, 0.1, 0.2)]),
            Signature([Interval(0, 0.1, 0.2)]),
        ]
        assert RSSC(signatures).relevant_attributes == (0, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_equality_property(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        data = rng.uniform(size=(60, d))
        # Include exact boundary values in the data.
        signatures = _random_signatures(rng, int(rng.integers(1, 10)), d)
        for sig in signatures[: min(3, len(signatures))]:
            interval = sig.intervals[0]
            data[0, interval.attribute] = interval.lower
            data[1, interval.attribute] = interval.upper
        rssc = RSSC(signatures)
        assert rssc.count_supports(data) == count_supports(data, signatures)


class TestAddPoint:
    def test_counts_accumulate(self, rng):
        data = rng.uniform(size=(100, 3))
        signatures = _random_signatures(rng, 5, 3)
        rssc = RSSC(signatures)
        counts = np.zeros(len(signatures), dtype=np.int64)
        for point in data:
            rssc.add_point(point, counts)
        expected = count_supports(data, signatures)
        for j, sig in enumerate(signatures):
            assert counts[j] == expected[sig]

    def test_num_signatures(self, rng):
        signatures = _random_signatures(rng, 7, 4)
        assert RSSC(signatures).num_signatures == 7


class TestAddPoints:
    """The batch path must be bit-for-bit identical to the scalar
    oracle and to brute-force closed-interval counting."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.one_of(st.integers(1, 120), st.sampled_from([1, 63, 64, 65, 129])),
        st.sampled_from([7, 65, 65536]),
    )
    def test_batch_equals_scalar_and_bruteforce(self, seed, n, chunk_rows):
        # Row counts around the 64-bit word size and small chunks leave
        # padding bits in a chunk's last word; they must never count.
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        data = rng.uniform(size=(n, d))
        signatures = _random_signatures(rng, int(rng.integers(1, 12)), d)
        # Plant exact boundary values (the singleton cells at even
        # indices of every attribute binning) and values drifted
        # outside [0, 1], which clip to its ends.
        for sig in signatures[: min(3, len(signatures))]:
            interval = sig.intervals[0]
            data[0, interval.attribute] = interval.lower
            data[-1, interval.attribute] = interval.upper
        for row, value in enumerate([1.0 + 1e-12, -1e-12, 1.5, -0.5], start=1):
            if row < n - 1:
                data[row, int(rng.integers(d))] = value
        rssc = RSSC(signatures)

        scalar = np.zeros(rssc.num_signatures, dtype=np.int64)
        for point in data:
            rssc.add_point(point, scalar)
        batch = np.zeros(rssc.num_signatures, dtype=np.int64)
        rssc.add_points(data, batch, chunk_rows=chunk_rows)

        np.testing.assert_array_equal(batch, scalar)
        clipped = np.clip(data, 0.0, 1.0)
        brute = count_supports(clipped, signatures)
        for j, sig in enumerate(signatures):
            assert batch[j] == brute[sig]

        np.testing.assert_array_equal(
            rssc.membership_matrix(data),
            np.stack([sig.support_mask(clipped) for sig in signatures], axis=1),
        )

        # Integer weights: the weighted kernel counts a point w times,
        # exactly as the integer kernel counts w copies of it.
        weights = rng.integers(0, 4, size=n)
        weighted = np.zeros(rssc.num_signatures)
        rssc.add_points_weighted(data, weights, weighted, chunk_rows=chunk_rows)
        copies = np.zeros(rssc.num_signatures, dtype=np.int64)
        rssc.add_points(np.repeat(data, weights, axis=0), copies)
        np.testing.assert_array_equal(weighted, copies)
        # Float weights fold in another order than a masked sum: equal
        # up to float64 rounding.
        weights = rng.exponential(size=n)
        weighted = np.zeros(rssc.num_signatures)
        rssc.add_points_weighted(data, weights, weighted, chunk_rows=chunk_rows)
        np.testing.assert_allclose(
            weighted,
            [weights[sig.support_mask(clipped)].sum() for sig in signatures],
            rtol=1e-12,
        )

    def test_counts_accumulate_across_calls(self, rng):
        data = rng.uniform(size=(90, 3))
        signatures = _random_signatures(rng, 6, 3)
        rssc = RSSC(signatures)
        counts = np.zeros(len(signatures), dtype=np.int64)
        rssc.add_points(data[:40], counts)
        rssc.add_points(data[40:], counts)
        expected = np.zeros(len(signatures), dtype=np.int64)
        rssc.add_points(data, expected)
        np.testing.assert_array_equal(counts, expected)

    def test_chunked_equals_unchunked(self, rng):
        signatures = _random_signatures(rng, 70, 4)  # spills into 2nd word
        rssc = RSSC(signatures)
        # Row counts and chunk sizes around the 64-bit word, whose
        # padding bits must never count.
        for n in (1, 63, 64, 65, 129, 200):
            data = rng.uniform(size=(n, 4))
            whole = np.zeros(len(signatures), dtype=np.int64)
            rssc.add_points(data, whole)
            brute = count_supports(data, signatures)
            np.testing.assert_array_equal(
                whole, [brute[sig] for sig in signatures]
            )
            for chunk_rows in (7, 65):
                chunked = np.zeros(len(signatures), dtype=np.int64)
                rssc.add_points(data, chunked, chunk_rows=chunk_rows)
                np.testing.assert_array_equal(chunked, whole)

    def test_more_than_64_signatures(self, rng):
        # Multi-word masks: signature j must land in word j//64, bit j%64.
        data = rng.uniform(size=(150, 5))
        signatures = _random_signatures(rng, 130, 5)
        rssc = RSSC(signatures)
        batch = np.zeros(len(signatures), dtype=np.int64)
        rssc.add_points(data, batch)
        brute = count_supports(data, signatures)
        for j, sig in enumerate(signatures):
            assert batch[j] == brute[sig]

    def test_empty_block(self, rng):
        rssc = RSSC(_random_signatures(rng, 4, 2))
        counts = np.zeros(4, dtype=np.int64)
        rssc.add_points(np.empty((0, 2)), counts)
        assert not counts.any()

    def test_empty_candidate_set(self):
        rssc = RSSC([])
        counts = np.zeros(0, dtype=np.int64)
        rssc.add_points(np.zeros((3, 2)), counts)  # must not raise

    def test_count_supports_routes_through_batch(self, rng):
        data = rng.uniform(size=(80, 4))
        signatures = _random_signatures(rng, 9, 4)
        assert RSSC(signatures).count_supports(data) == count_supports(
            data, signatures
        )


class TestClampRegression:
    """Values a hair outside [0, 1] (normalization float drift) must be
    treated as the nearest boundary, not crash or wrap around.

    Pre-fix, ``1.0 + 1e-12`` binned past the last cell (IndexError) and
    ``-1e-12`` hit cell -1 (Python wrap-around: silently wrong counts).
    """

    def _rssc(self):
        return RSSC(
            [
                Signature([Interval(0, 0.0, 0.4)]),
                Signature([Interval(0, 0.6, 1.0)]),
            ]
        )

    def test_scalar_above_one(self):
        rssc = self._rssc()
        counts = np.zeros(2, dtype=np.int64)
        rssc.add_point(np.array([1.0 + 1e-12]), counts)
        np.testing.assert_array_equal(counts, [0, 1])

    def test_scalar_below_zero(self):
        rssc = self._rssc()
        counts = np.zeros(2, dtype=np.int64)
        rssc.add_point(np.array([-1e-12]), counts)
        np.testing.assert_array_equal(counts, [1, 0])

    def test_batch_matches_scalar_on_drifted_values(self):
        rssc = self._rssc()
        data = np.array(
            [[1.0 + 1e-12], [-1e-12], [1.0], [0.0], [0.5], [1.5], [-0.5]]
        )
        scalar = np.zeros(2, dtype=np.int64)
        for point in data:
            rssc.add_point(point, scalar)
        batch = np.zeros(2, dtype=np.int64)
        rssc.add_points(data, batch)
        np.testing.assert_array_equal(batch, scalar)
        # After clamping: {-1e-12, 0.0, -0.5} -> [0, 0.4] and
        # {1 + 1e-12, 1.0, 1.5} -> [0.6, 1.0]; 0.5 supports neither.
        np.testing.assert_array_equal(batch, [3, 3])
        np.testing.assert_array_equal(
            rssc.membership_matrix(data),
            [[0, 1], [1, 0], [0, 1], [1, 0], [0, 0], [0, 1], [1, 0]],
        )
        weighted = np.zeros(2)
        rssc.add_points_weighted(data, np.arange(1.0, 8.0), weighted)
        np.testing.assert_array_equal(weighted, [2 + 4 + 7, 1 + 3 + 6])

    def test_membership_bits_on_drifted_values(self):
        rssc = self._rssc()
        assert rssc.membership_bits(np.array([1.0 + 1e-12])) == 0b10
        assert rssc.membership_bits(np.array([-1e-12])) == 0b01
