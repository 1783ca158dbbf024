"""Unit + property tests for histogram building and bin-count rules."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.binning import (
    Histogram,
    bin_index,
    build_all_histograms,
    build_histogram,
    freedman_diaconis_bins,
    sturges_bins,
)


class TestBinRules:
    def test_sturges_known_values(self):
        assert sturges_bins(1) == 1
        assert sturges_bins(62) == 7  # the colon data set
        assert sturges_bins(1024) == 11

    def test_freedman_diaconis_known_values(self):
        # bins = ceil(n^(1/3)) under the IQR = 1/2 simplification
        assert freedman_diaconis_bins(62) == 4
        assert freedman_diaconis_bins(1000) == 10
        assert freedman_diaconis_bins(1_000_000) == 100

    def test_fd_exceeds_sturges_for_large_n(self):
        """The paper's point: Sturges oversmooths large data sets."""
        assert freedman_diaconis_bins(10**6) > sturges_bins(10**6)

    def test_sturges_exceeds_fd_for_tiny_n(self):
        assert sturges_bins(62) > freedman_diaconis_bins(62)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            sturges_bins(0)
        with pytest.raises(ValueError):
            freedman_diaconis_bins(0)
        with pytest.raises(ValueError):
            freedman_diaconis_bins(100, iqr=0.0)

    @given(st.integers(1, 10**9))
    def test_rules_always_positive(self, n):
        assert sturges_bins(n) >= 1
        assert freedman_diaconis_bins(n) >= 1


class TestBinIndex:
    def test_eq8_semantics(self):
        # max(1, ceil(m * x)) with m = 4, 0-based
        values = np.array([0.0, 0.1, 0.25, 0.26, 0.5, 0.75, 1.0])
        assert bin_index(values, 4).tolist() == [0, 0, 0, 1, 1, 2, 3]

    def test_zero_maps_to_first_bin(self):
        assert bin_index(np.array([0.0]), 10)[0] == 0

    def test_one_maps_to_last_bin(self):
        assert bin_index(np.array([1.0]), 10)[0] == 9

    def test_invalid_bins_rejected(self):
        with pytest.raises(ValueError):
            bin_index(np.array([0.5]), 0)

    @pytest.mark.filterwarnings("error")
    def test_out_of_range_values_clamp_without_wrapping(self):
        """Values past [0, 1] land in the edge bins, even where
        ``num_bins * x`` leaves the int64 range (1e300 once wrapped to
        bin 0 with a cast warning)."""
        values = np.array([1e300, -1e300, 1e17, 1.5, -0.5])
        assert bin_index(values, 59).tolist() == [58, 0, 58, 58, 0]

    @given(
        hnp.arrays(
            float,
            st.integers(1, 50),
            elements=st.floats(-1e15, 1e15, allow_nan=False),
        ),
        st.integers(1, 64),
    )
    def test_clamp_agrees_with_clipping_the_integer_bins(self, values, m):
        """Wherever ``ceil(m * x)`` fits int64, the bins are the
        integer-clipped Eq. 8 bins."""
        ceiled = np.ceil(m * values).astype(np.int64)
        assert bin_index(values, m).tolist() == (np.clip(ceiled, 1, m) - 1).tolist()

    @given(
        hnp.arrays(
            float,
            st.integers(1, 50),
            elements=st.floats(0, 1, allow_nan=False),
        ),
        st.integers(1, 64),
    )
    def test_indices_always_in_range(self, values, m):
        idx = bin_index(values, m)
        assert (idx >= 0).all() and (idx < m).all()


class TestHistogram:
    def test_mass_conservation(self, tiny_dataset):
        m = 8
        histograms = build_all_histograms(tiny_dataset.data, m)
        for histogram in histograms:
            assert histogram.total == len(tiny_dataset.data)

    def test_masked_histogram_counts_only_members(self, tiny_dataset):
        mask = np.zeros(len(tiny_dataset.data), dtype=bool)
        mask[:100] = True
        histogram = build_histogram(tiny_dataset.data, 0, 5, mask=mask)
        assert histogram.total == 100

    def test_bin_interval_bounds(self):
        histogram = Histogram(attribute=3, counts=np.array([1, 2, 3, 4]))
        interval = histogram.bin_interval(1)
        assert interval.attribute == 3
        assert (interval.lower, interval.upper) == (0.25, 0.5)

    def test_bins_to_interval_run(self):
        histogram = Histogram(attribute=0, counts=np.array([1, 2, 3, 4]))
        interval = histogram.bins_to_interval(1, 2)
        assert (interval.lower, interval.upper) == (0.25, 0.75)

    def test_bins_to_interval_validates_range(self):
        histogram = Histogram(attribute=0, counts=np.array([1, 2]))
        with pytest.raises(IndexError):
            histogram.bins_to_interval(1, 0)
        with pytest.raises(IndexError):
            histogram.bin_interval(5)

    def test_counts_are_copied(self):
        counts = np.array([1, 2, 3])
        histogram = Histogram(attribute=0, counts=counts)
        counts[0] = 99
        assert histogram.counts[0] == 1

    @settings(max_examples=25)
    @given(
        hnp.arrays(
            float,
            st.integers(1, 200),
            elements=st.floats(0, 1, allow_nan=False),
        ),
        st.integers(1, 32),
    )
    def test_histogram_mass_property(self, values, m):
        data = values.reshape(-1, 1)
        histogram = build_histogram(data, 0, m)
        assert histogram.total == len(values)
