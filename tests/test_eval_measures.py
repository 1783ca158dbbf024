"""Tests for the subspace quality measures (E4SC, F1, RNIA, CE)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import ProjectedCluster
from repro.eval import ce_score, e4sc_score, f1_score, rnia_score
from repro.eval import e4sc as e4sc_module
from repro.eval.matching import (
    micro_object_count,
    micro_object_intersection,
    pairwise_intersections,
    total_coverage,
    union_coverage,
)


def _cluster(members, attrs) -> ProjectedCluster:
    return ProjectedCluster(
        members=np.asarray(members, dtype=np.int64),
        relevant_attributes=frozenset(attrs),
    )


TRUTH = [
    _cluster(range(0, 50), {0, 1}),
    _cluster(range(50, 100), {2, 3}),
]

ALL_SCORES = [e4sc_score, f1_score, rnia_score, ce_score]


class TestMicroObjects:
    def test_count(self):
        assert micro_object_count(_cluster([1, 2, 3], {0, 1})) == 6

    def test_intersection_factorises(self):
        a = _cluster([1, 2, 3], {0, 1})
        b = _cluster([2, 3, 4], {1, 2})
        assert micro_object_intersection(a, b) == 2 * 1

    def test_no_shared_attributes(self):
        a = _cluster([1, 2], {0})
        b = _cluster([1, 2], {1})
        assert micro_object_intersection(a, b) == 0

    def test_pairwise_matrix(self):
        matrix = pairwise_intersections(TRUTH, TRUTH)
        assert matrix[0, 0] == 100
        assert matrix[0, 1] == 0

    def test_total_coverage_disjoint(self):
        assert total_coverage(TRUTH) == 200

    def test_total_coverage_overlapping(self):
        overlapping = [
            _cluster([0, 1], {0}),
            _cluster([1, 2], {0}),
        ]
        assert total_coverage(overlapping) == 3

    def test_union_coverage_identical(self):
        assert union_coverage(TRUTH, TRUTH) == 200


class TestPerfectScores:
    @pytest.mark.parametrize("score", ALL_SCORES)
    def test_identical_clustering_scores_one(self, score):
        assert score(TRUTH, TRUTH) == pytest.approx(1.0)

    @pytest.mark.parametrize("score", ALL_SCORES)
    def test_empty_found_scores_zero(self, score):
        assert score([], TRUTH) == 0.0

    @pytest.mark.parametrize("score", ALL_SCORES)
    def test_empty_truth_rejected(self, score):
        with pytest.raises(ValueError):
            score(TRUTH, [])

    @pytest.mark.parametrize("score", ALL_SCORES)
    def test_scores_in_unit_interval(self, score):
        found = [
            _cluster(range(0, 30), {0, 1, 5}),
            _cluster(range(60, 100), {2}),
            _cluster(range(30, 40), {7}),
        ]
        assert 0.0 <= score(found, TRUTH) <= 1.0


class TestE4SCSensitivity:
    def test_wrong_subspace_punished(self):
        right = [_cluster(range(0, 50), {0, 1}), _cluster(range(50, 100), {2, 3})]
        wrong = [_cluster(range(0, 50), {6, 7}), _cluster(range(50, 100), {8, 9})]
        assert e4sc_score(wrong, TRUTH) == 0.0
        assert e4sc_score(right, TRUTH) == 1.0

    def test_f1_blind_to_subspace(self):
        """The paper's criticism of F1: full-space measure, cannot punish
        wrong subspaces."""
        wrong_subspace = [
            _cluster(range(0, 50), {6, 7}),
            _cluster(range(50, 100), {8, 9}),
        ]
        assert f1_score(wrong_subspace, TRUTH) == pytest.approx(1.0)
        assert e4sc_score(wrong_subspace, TRUTH) < 0.5

    def test_merge_punished(self):
        merged = [_cluster(range(0, 100), {0, 1, 2, 3})]
        assert e4sc_score(merged, TRUTH) < 0.8

    def test_split_punished(self):
        split = [
            _cluster(range(0, 25), {0, 1}),
            _cluster(range(25, 50), {0, 1}),
            _cluster(range(50, 100), {2, 3}),
        ]
        assert e4sc_score(split, TRUTH) < 1.0

    def test_phantom_cluster_punished(self):
        with_phantom = TRUTH + [_cluster(range(100, 120), {5})]
        assert e4sc_score(with_phantom, TRUTH) < 1.0

    def test_partial_overlap_in_between(self):
        partial = [
            _cluster(range(0, 40), {0, 1}),
            _cluster(range(50, 90), {2, 3}),
        ]
        assert 0.5 < e4sc_score(partial, TRUTH) < 1.0


class TestCEvsRNIA:
    def test_ce_punishes_splits_harder(self):
        split = [
            _cluster(range(0, 25), {0, 1}),
            _cluster(range(25, 50), {0, 1}),
            _cluster(range(50, 100), {2, 3}),
        ]
        assert ce_score(split, TRUTH) < rnia_score(split, TRUTH)

    def test_rnia_equals_ce_for_one_to_one(self):
        found = [
            _cluster(range(0, 45), {0, 1}),
            _cluster(range(50, 95), {2, 3}),
        ]
        assert rnia_score(found, TRUTH) == pytest.approx(
            ce_score(found, TRUTH)
        )


class TestScoreProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_clusterings_bounded(self, seed):
        rng = np.random.default_rng(seed)
        found = []
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(1, 40))
            members = rng.choice(100, size=size, replace=False)
            attrs = set(
                int(a) for a in rng.choice(10, size=rng.integers(1, 4), replace=False)
            )
            found.append(_cluster(members, attrs))
        for score in ALL_SCORES:
            value = score(found, TRUTH)
            assert 0.0 <= value <= 1.0

    def test_better_overlap_scores_higher(self):
        close = [_cluster(range(0, 48), {0, 1}), _cluster(range(50, 98), {2, 3})]
        far = [_cluster(range(0, 10), {0, 1}), _cluster(range(50, 60), {2, 3})]
        for score in ALL_SCORES:
            assert score(close, TRUTH) > score(far, TRUTH)


class TestVectorizedIntersections:
    """The disjoint fast path must be bit-identical to the per-pair oracle."""

    @staticmethod
    def _oracle(found, hidden):
        matrix = np.zeros((len(found), len(hidden)), dtype=np.int64)
        for i, c in enumerate(found):
            for j, h in enumerate(hidden):
                matrix[i, j] = micro_object_intersection(c, h)
        return matrix

    @staticmethod
    def _disjoint_clustering(rng, universe, max_clusters=5, num_attrs=8):
        permuted = rng.permutation(universe)
        cuts = np.sort(
            rng.choice(
                len(permuted), size=int(rng.integers(1, max_clusters)), replace=False
            )
        )
        clusters = []
        for part in np.split(permuted, cuts):
            if len(part) == 0:
                continue
            attrs = rng.choice(
                num_attrs, size=int(rng.integers(1, 4)), replace=False
            )
            clusters.append(_cluster(part, {int(a) for a in attrs}))
        return clusters

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_fast_path_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        universe = rng.choice(200, size=int(rng.integers(10, 120)), replace=False)
        found = self._disjoint_clustering(rng, universe)
        hidden = self._disjoint_clustering(rng, universe)
        assert np.array_equal(
            pairwise_intersections(found, hidden), self._oracle(found, hidden)
        )

    def test_overlapping_clusterings_use_exact_fallback(self):
        found = [_cluster([0, 1, 2], {0}), _cluster([2, 3], {0})]  # overlap on 2
        hidden = [_cluster([1, 2, 3], {0})]
        assert np.array_equal(
            pairwise_intersections(found, hidden), self._oracle(found, hidden)
        )


class TestE4SCSampling:
    """The seeded max_points cap must track the exact score."""

    def test_no_op_when_universe_fits(self):
        found = [_cluster(range(0, 45), {0, 1}), _cluster(range(50, 95), {2, 3})]
        exact = e4sc_score(found, TRUTH)
        assert e4sc_score(found, TRUTH, max_points=1_000) == exact

    def test_sampled_score_near_exact(self):
        rng = np.random.default_rng(3)
        hidden = [
            _cluster(range(0, 2_000), {0, 1, 2}),
            _cluster(range(2_000, 4_000), {3, 4}),
        ]
        # Found: the truth with 5% of members scrambled across clusters.
        labels = np.repeat([0, 1], 2_000)
        flip = rng.choice(4_000, size=200, replace=False)
        labels[flip] = 1 - labels[flip]
        found = [
            _cluster(np.where(labels == 0)[0], {0, 1, 2}),
            _cluster(np.where(labels == 1)[0], {3, 4}),
        ]
        exact = e4sc_score(found, hidden)
        sampled = e4sc_score(found, hidden, max_points=800, seed=0)
        assert sampled == pytest.approx(exact, abs=0.03)

    def test_sampling_is_seed_deterministic(self):
        hidden = [_cluster(range(0, 3_000), {0, 1})]
        found = [_cluster(range(100, 2_900), {0, 1})]
        a = e4sc_score(found, hidden, max_points=500, seed=4)
        b = e4sc_score(found, hidden, max_points=500, seed=4)
        assert a == b

    def test_invalid_max_points_rejected(self):
        with pytest.raises(ValueError, match="max_points"):
            e4sc_score(TRUTH, TRUTH, max_points=0)

    @staticmethod
    def _unique_universe(clusters):
        """The universe as a hash/sort ``unique`` builds it (the oracle)."""
        return np.unique(np.concatenate([c.members for c in clusters]))

    @pytest.mark.parametrize(
        "members",
        [
            [[5, 1, 9], [9, 3, 1, 12]],  # overlapping sets
            [[4, 4, 4, 0], [0, 7, 7]],  # duplicated members
            [[], [2, 6]],  # one empty set
            [[], []],  # every set empty
            [[0], [1_000]],  # a sparse universe
        ],
        ids=["overlapping", "duplicated", "one_empty", "all_empty", "sparse"],
    )
    def test_universe_matches_unique(self, members):
        clusters = [_cluster(m, {0}) for m in members]
        universe = e4sc_module._universe(clusters)
        oracle = self._unique_universe(clusters)
        assert universe.dtype == oracle.dtype
        assert np.array_equal(universe, oracle)

    def test_capped_score_unchanged(self, monkeypatch):
        """Overlapping found clusters over a shuffled, partly covered
        universe: the capped scores equal the ``unique``-built sample's,
        pinned here."""
        rng = np.random.default_rng(7)
        perm = rng.permutation(6_000)
        hidden = [
            _cluster(np.sort(perm[:2_500]), {0, 1}),
            _cluster(np.sort(perm[2_500:5_000]), {2, 3, 4}),
        ]
        found = [
            _cluster(np.sort(perm[100:2_700]), {0, 1}),
            _cluster(np.sort(perm[2_600:5_500]), {2, 3}),
        ]
        cases = [(700, 0, 0.843203678157588), (1_500, 3, 0.8324087554242686)]
        scores = [
            e4sc_score(found, hidden, max_points=cap, seed=seed)
            for cap, seed, _ in cases
        ]
        assert scores == [pinned for _, _, pinned in cases]
        monkeypatch.setattr(e4sc_module, "_universe", self._unique_universe)
        assert scores == [
            e4sc_score(found, hidden, max_points=cap, seed=seed)
            for cap, seed, _ in cases
        ]
