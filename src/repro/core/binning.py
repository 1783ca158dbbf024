"""Histogram building and bin-count rules (Sections 4.1.1 and 5.1).

The original P3C uses Sturges' rule; P3C+ replaces it with the
Freedman-Diaconis rule under the simplifying assumption that each
attribute is uniform on [0, 1], i.e. ``IQR = 1/2`` (Section 4.1.1), so

    bin_size = 2 * (1/2) * n^(-1/3) = n^(-1/3)   =>   #bins = n^(1/3).

Histograms are equi-width over [0, 1]; the bin of a value x is
``max(1, ceil(m * x))`` in the paper's 1-based notation (Eq. 8), i.e.
``min(m - 1, floor(m * x))`` 0-based with the right edge closed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2

import numpy as np

from repro.core.types import Interval


def sturges_bins(n: int) -> int:
    """Sturges' rule: ``ceil(1 + log2 n)`` (used by original P3C)."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    return max(1, ceil(1 + log2(n)))


def freedman_diaconis_bins(n: int, iqr: float = 0.5) -> int:
    """Freedman-Diaconis rule on a [0, 1] attribute (used by P3C+).

    ``bin_size = 2 * IQR * n^(-1/3)``; with the paper's uniformity
    simplification ``IQR = 1/2`` this is ``n^(-1/3)`` and the bin count
    is ``ceil(n^(1/3))``.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if not 0 < iqr <= 1:
        raise ValueError(f"IQR on a [0,1] attribute must be in (0, 1], got {iqr}")
    bin_size = 2.0 * iqr * n ** (-1.0 / 3.0)
    return max(1, ceil(1.0 / bin_size))


def bin_index(values: np.ndarray, num_bins: int) -> np.ndarray:
    """Vectorised Eq. 8 binning of values in [0, 1] (0-based bins)."""
    if num_bins < 1:
        raise ValueError(f"num_bins must be >= 1, got {num_bins}")
    # Clipped in float, then cast: a product past the int64 range
    # (1e300, say) would wrap in the cast.
    idx = np.clip(np.ceil(num_bins * np.asarray(values, dtype=float)), 1, num_bins)
    return idx.astype(np.int64) - 1


@dataclass(frozen=True)
class Histogram:
    """An equi-width histogram of one attribute over [0, 1]."""

    attribute: int
    counts: np.ndarray  # shape (num_bins,); int64, or float64 when weighted

    def __post_init__(self) -> None:
        # Integer inputs keep the classic int64 counts byte-for-byte;
        # float inputs (weighted coreset histograms) stay float64 so
        # fractional weighted counts are not silently truncated.
        counts = np.asarray(self.counts)
        dtype = np.float64 if counts.dtype.kind == "f" else np.int64
        object.__setattr__(self, "counts", counts.astype(dtype).copy())
        if self.counts.ndim != 1 or len(self.counts) < 1:
            raise ValueError("histogram needs at least one bin")

    @property
    def num_bins(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> float:
        total = self.counts.sum()
        return int(total) if self.counts.dtype.kind == "i" else float(total)

    @property
    def bin_width(self) -> float:
        return 1.0 / self.num_bins

    def bin_interval(self, index: int) -> Interval:
        """The [lower, upper] range covered by bin ``index`` (0-based)."""
        if not 0 <= index < self.num_bins:
            raise IndexError(index)
        width = self.bin_width
        return Interval(self.attribute, index * width, (index + 1) * width)

    def bins_to_interval(self, first: int, last: int) -> Interval:
        """The range covered by the contiguous bin run [first, last]."""
        if not 0 <= first <= last < self.num_bins:
            raise IndexError((first, last))
        width = self.bin_width
        return Interval(self.attribute, first * width, (last + 1) * width)


def build_histogram(
    data: np.ndarray,
    attribute: int,
    num_bins: int,
    mask: np.ndarray | None = None,
) -> Histogram:
    """Histogram of one attribute, optionally restricted to masked rows.

    The masked form is what attribute inspection uses to build per-cluster
    histograms (Section 5.6).
    """
    column = data[:, attribute]
    if mask is not None:
        column = column[mask]
    idx = bin_index(column, num_bins)
    counts = np.bincount(idx, minlength=num_bins)
    return Histogram(attribute=attribute, counts=counts)


def build_all_histograms(
    data: np.ndarray,
    num_bins: int,
    mask: np.ndarray | None = None,
    attributes: list[int] | None = None,
) -> list[Histogram]:
    """Histograms of every (or the given) attribute in one pass each."""
    attrs = attributes if attributes is not None else list(range(data.shape[1]))
    return [build_histogram(data, a, num_bins, mask) for a in attrs]
