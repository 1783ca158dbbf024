"""Unit tests for the Definition 1-5 value types."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.types import (
    ClusterCore,
    ClusteringResult,
    Interval,
    ProjectedCluster,
    Signature,
)
from tests.oracles import without


def interval_strategy(attribute=st.integers(0, 5)):
    return st.tuples(
        attribute,
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
    ).map(lambda t: Interval(t[0], min(t[1], t[2]), max(t[1], t[2])))


class TestInterval:
    def test_width(self):
        assert Interval(0, 0.2, 0.5).width == pytest.approx(0.3)

    def test_degenerate_interval_allowed(self):
        assert Interval(0, 0.5, 0.5).width == 0.0

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(0, 0.6, 0.5)

    def test_negative_attribute_rejected(self):
        with pytest.raises(ValueError):
            Interval(-1, 0.0, 1.0)

    def test_contains_is_closed(self):
        interval = Interval(0, 0.2, 0.5)
        assert interval.contains(0.2)
        assert interval.contains(0.5)
        assert not interval.contains(0.5000001)

    def test_contains_column(self):
        interval = Interval(0, 0.25, 0.75)
        column = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        assert interval.contains_column(column).tolist() == [
            False,
            True,
            True,
            True,
            False,
        ]

    def test_drift_past_zero_or_one_clamps_to_the_bound(self):
        column = np.array([-1e-12, 1.0 + 1e-12, -0.5, 1.5])
        assert Interval(0, 0.0, 0.4).contains_column(column).tolist() == [
            True,
            False,
            True,
            False,
        ]
        assert Interval(0, 0.6, 1.0).contains_column(column).tolist() == [
            False,
            True,
            False,
            True,
        ]
        assert Interval(0, 0.0, 1.0).contains(1.0 + 1e-12)
        assert not Interval(0, 0.2, 0.5).contains(-1e-12)

    def test_non_finite_values_are_outside(self):
        column = np.array([np.nan, np.inf, -np.inf])
        assert not Interval(0, 0.0, 1.0).contains_column(column).any()
        assert not Interval(0, 0.0, 1.0).contains(float("nan"))

    def test_overlaps_same_attribute_only(self):
        assert Interval(0, 0.0, 0.5).overlaps(Interval(0, 0.5, 1.0))
        assert not Interval(0, 0.0, 0.5).overlaps(Interval(1, 0.0, 0.5))
        assert not Interval(0, 0.0, 0.4).overlaps(Interval(0, 0.5, 1.0))

    def test_covers(self):
        outer = Interval(0, 0.1, 0.9)
        inner = Interval(0, 0.2, 0.8)
        assert outer.covers(inner)
        assert not inner.covers(outer)
        assert not outer.covers(Interval(1, 0.2, 0.8))

    def test_merge_takes_union_span(self):
        merged = Interval(0, 0.1, 0.4).merge(Interval(0, 0.3, 0.8))
        assert (merged.lower, merged.upper) == (0.1, 0.8)

    def test_merge_different_attributes_rejected(self):
        with pytest.raises(ValueError):
            Interval(0, 0.1, 0.4).merge(Interval(1, 0.3, 0.8))

    @given(interval_strategy())
    def test_interval_is_hashable_and_ordered(self, interval):
        assert hash(interval) == hash(
            Interval(interval.attribute, interval.lower, interval.upper)
        )


class TestSignature:
    def setup_method(self):
        self.i0 = Interval(0, 0.1, 0.3)
        self.i1 = Interval(1, 0.4, 0.6)
        self.i2 = Interval(2, 0.0, 0.5)

    def test_intervals_sorted_by_attribute(self):
        sig = Signature([self.i1, self.i0])
        assert [iv.attribute for iv in sig] == [0, 1]

    def test_equal_signatures_hash_equal(self):
        assert Signature([self.i1, self.i0]) == Signature([self.i0, self.i1])
        assert hash(Signature([self.i1, self.i0])) == hash(
            Signature([self.i0, self.i1])
        )

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(ValueError):
            Signature([self.i0, Interval(0, 0.5, 0.9)])

    def test_volume_is_width_product(self):
        sig = Signature([self.i0, self.i1])
        assert sig.volume() == pytest.approx(0.2 * 0.2)

    def test_without_missing_interval_rejected(self):
        with pytest.raises(ValueError):
            without(Signature([self.i0]), self.i1)

    def test_support_mask_matches_manual(self):
        data = np.array(
            [
                [0.2, 0.5, 0.1],
                [0.2, 0.9, 0.1],
                [0.9, 0.5, 0.1],
                [0.15, 0.45, 0.9],
            ]
        )
        sig = Signature([self.i0, self.i1])
        assert sig.support_mask(data).tolist() == [True, False, False, True]
        assert sig.support(data) == 2

    def test_contains_point(self):
        sig = Signature([self.i0, self.i1])
        assert sig.contains_point(np.array([0.2, 0.5, 0.99]))
        assert not sig.contains_point(np.array([0.2, 0.7, 0.99]))

    def test_expected_support_eq7(self):
        sig = Signature([self.i0, self.i1])
        assert sig.expected_support(1000) == pytest.approx(1000 * 0.04)

    def test_interval_on(self):
        sig = Signature([self.i0, self.i1])
        assert sig.interval_on(0) == self.i0
        assert sig.interval_on(5) is None

    def test_attributes(self):
        assert Signature([self.i0, self.i2]).attributes == frozenset({0, 2})


class TestClusterCore:
    def test_interestingness_ratio(self):
        core = ClusterCore(
            signature=Signature([Interval(0, 0.0, 0.1)]),
            support=50,
            expected_support=10.0,
        )
        assert core.interestingness == pytest.approx(5.0)

    def test_zero_expected_support(self):
        core = ClusterCore(
            signature=Signature([Interval(0, 0.5, 0.5)]),
            support=5,
            expected_support=0.0,
        )
        assert core.interestingness == float("inf")


class TestProjectedCluster:
    def test_micro_objects(self):
        cluster = ProjectedCluster(
            members=np.array([3, 7]), relevant_attributes=frozenset({0, 2})
        )
        assert cluster.micro_objects() == {(3, 0), (3, 2), (7, 0), (7, 2)}

    def test_member_set(self):
        cluster = ProjectedCluster(
            members=np.array([1, 2]), relevant_attributes=frozenset({0})
        )
        assert cluster.member_set() == {1, 2}


class TestClusteringResult:
    def test_labels_unique_assignment(self):
        result = ClusteringResult(
            clusters=[
                ProjectedCluster(np.array([0, 1]), frozenset({0})),
                ProjectedCluster(np.array([2]), frozenset({1})),
            ],
            outliers=np.array([3]),
            n_points=4,
            n_dims=2,
        )
        assert result.labels().tolist() == [0, 0, 1, -1]

    def test_labels_prefers_first_cluster_on_overlap(self):
        result = ClusteringResult(
            clusters=[
                ProjectedCluster(np.array([0]), frozenset({0})),
                ProjectedCluster(np.array([0, 1]), frozenset({1})),
            ],
            n_points=2,
            n_dims=2,
        )
        assert result.labels().tolist() == [0, 1]

    def test_summary_mentions_counts(self):
        result = ClusteringResult(clusters=[], n_points=10, n_dims=3)
        assert "0 clusters" in result.summary()
