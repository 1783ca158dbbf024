"""Rapid Signature Support Counter (paper Section 5.3, Figure 3).

Counting the support of |Ŝ| candidate signatures naively costs
``O(|Ŝ| * p)`` interval checks per data point.  The paper's RSSC gives
every signature a bit position and, per relevant attribute, partitions
[0, 1] into cells by the interval bounds; every cell carries a bitmask
whose bit ``j`` is set iff a point in that cell is **not excluded** from
signature ``j`` by this attribute (bit stays 1 when the attribute is
irrelevant to ``j``, as in Figure 3).  Per point, one binary search per
attribute finds its cells and the AND of their masks is the set of
signatures containing it.

The production kernel runs the same test transposed: its bits index
points, not signatures.  Per split chunk it packs one bitmap per
*distinct interval* of the candidate set (bit ``i`` set iff point ``i``
lies in the closed interval, after the same clip to [0, 1]), ANDs the
bitmaps of each candidate's intervals and popcounts the result.  Cost
follows points × candidates / 64 words instead of one unpacked byte per
point per candidate, and the distinct intervals are few: every
candidate is built from the same relevant intervals.  The counts are
identical to the per-point form because both evaluate
``lower <= value <= upper`` on the same clipped value; a property test
checks the kernel against the scalar oracle and brute force
bit-for-bit.

- :meth:`RSSC.add_points` — integer supports of a block;
- :meth:`RSSC.add_points_weighted` — weighted supports (coreset path);
- :meth:`RSSC.membership_matrix` — per-point membership (serving).

Figure 3's cell masks are built only on demand, for the scalar oracle
(:meth:`RSSC.add_point`, :meth:`RSSC.membership_bits`) with
arbitrary-precision Python ``int`` masks, and for the figure's harness
(:meth:`RSSC.cell_binnings`).

Values marginally outside [0, 1] (float drift after normalization) are
clamped to the boundary in every path, so a ``1.0 + 1e-12`` counts as
``1.0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.types import Signature

_WORD_BITS = 64
#: Elements of one candidate slice (packed words; unpacked floats in
#: the weighted kernel): bounds the kernel's transient memory whatever
#: the chunk's row count and the batch's candidate count.
_SLICE_WORDS = 1 << 18


@dataclass(frozen=True)
class _AttributeBinning:
    """Figure 3's cell boundaries and per-cell bitmasks for one attribute."""

    attribute: int
    boundaries: np.ndarray  # sorted unique bounds, starts 0.0 ends 1.0
    cell_masks: tuple[int, ...]  # length 2 * len(boundaries) - 1

    def cell_of(self, value: float) -> int:
        """Cell index of a value in [0, 1]: singleton cells sit at even
        indices ``2*i`` (value == boundaries[i]), open cells at odd
        indices ``2*i - 1`` (boundaries[i-1] < value < boundaries[i]).
        Values drifting marginally outside [0, 1] clamp to the boundary
        cells (searchsorted would otherwise index past the cell table)."""
        value = min(max(float(value), 0.0), 1.0)
        left = int(np.searchsorted(self.boundaries, value, side="left"))
        right = int(np.searchsorted(self.boundaries, value, side="right"))
        if left != right:
            return 2 * left
        return 2 * left - 1

    def mask_of(self, value: float) -> int:
        return self.cell_masks[self.cell_of(value)]


class RSSC:
    """Bitmap support counter over a fixed candidate set."""

    def __init__(self, signatures: list[Signature]) -> None:
        self.signatures = list(signatures)
        # Interval table: the distinct intervals sorted by attribute, so
        # each attribute's intervals occupy one contiguous id range.
        intervals = sorted({iv for sig in self.signatures for iv in sig})
        ids = {iv: k for k, iv in enumerate(intervals)}
        self._lowers = np.array([iv.lower for iv in intervals]).reshape(-1, 1)
        self._uppers = np.array([iv.upper for iv in intervals]).reshape(-1, 1)
        attributes, starts = np.unique(
            [iv.attribute for iv in intervals], return_index=True
        )
        stops = np.append(starts[1:], len(intervals))
        self._columns = tuple(
            zip(attributes.tolist(), starts.tolist(), stops.tolist())
        )
        # Each candidate's interval ids, grouped by signature size.
        by_size: dict[int, tuple[list[int], list[list[int]]]] = {}
        for j, sig in enumerate(self.signatures):
            positions, rows = by_size.setdefault(len(sig), ([], []))
            positions.append(j)
            rows.append([ids[iv] for iv in sig])
        self._groups = tuple(
            (np.array(positions, dtype=np.intp), np.array(rows, dtype=np.intp))
            for _, (positions, rows) in sorted(by_size.items())
        )
        self._binnings: list[_AttributeBinning] | None = None

    def __getstate__(self) -> dict:
        # The scalar oracle's cell masks are derived state: an RSSC
        # shipped in a job's cache pickles the same before and after use.
        state = self.__dict__.copy()
        state["_binnings"] = None
        return state

    # -- queries ---------------------------------------------------------

    @property
    def num_signatures(self) -> int:
        return len(self.signatures)

    @property
    def relevant_attributes(self) -> tuple[int, ...]:
        return tuple(attribute for attribute, _, _ in self._columns)

    # -- transposed kernel ------------------------------------------------

    def _bitmaps(self, block: np.ndarray) -> np.ndarray:
        """``(num_intervals, ⌈rows/64⌉)`` uint64 words: bit ``i`` of row
        ``k`` is set iff point ``i`` of ``block``, clipped to [0, 1],
        lies in distinct interval ``k``.  Padding bits past the last
        point are 0, so they never count."""
        rows = len(block)
        words = -(-rows // _WORD_BITS)
        bitmaps = np.zeros((len(self._lowers), 8 * words), dtype=np.uint8)
        for attribute, start, stop in self._columns:
            column = np.clip(block[:, attribute], 0.0, 1.0)
            inside = (column >= self._lowers[start:stop]) & (
                column <= self._uppers[start:stop]
            )
            bitmaps[start:stop, : -(-rows // 8)] = np.packbits(
                inside, axis=1, bitorder="little"
            )
        return bitmaps.view(np.uint64)

    def _supports(
        self, bitmaps: np.ndarray, step: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(positions, words)`` per slice of at most ``step``
        same-size candidates: ``words[r]`` is the AND of the bitmaps of
        candidate ``positions[r]``'s intervals, its support set."""
        for positions, ids in self._groups:
            for start in range(0, len(positions), step):
                rows = ids[start : start + step]
                words = bitmaps[rows[:, 0]]
                for column in range(1, rows.shape[1]):
                    words &= bitmaps[rows[:, column]]
                yield positions[start : start + step], words

    def membership_matrix(self, block: np.ndarray) -> np.ndarray:
        """Boolean ``(n, num_signatures)`` membership matrix of a block:
        entry ``(i, j)`` is True iff signature ``j`` contains point ``i``
        (the serving scorer's core-interval test)."""
        block = np.atleast_2d(np.asarray(block, dtype=float))
        n = len(block)
        matrix = np.zeros((self.num_signatures, n), dtype=bool)
        if n and self.num_signatures:
            bitmaps = self._bitmaps(block)
            step = max(1, _SLICE_WORDS // bitmaps.shape[1])
            for positions, words in self._supports(bitmaps, step):
                matrix[positions] = np.unpackbits(
                    words.view(np.uint8), axis=1, count=n, bitorder="little"
                )
        return matrix.T

    def add_points(
        self,
        block: np.ndarray,
        counts: np.ndarray,
        chunk_rows: int = 65536,
    ) -> None:
        """Add the supports of a whole ``(n, d)`` block to ``counts``.

        Per chunk of ``chunk_rows`` points: one bitmap per distinct
        interval, one AND per candidate interval, one popcount per
        candidate — bit-for-bit the counts of :meth:`add_point`.
        """
        block = np.atleast_2d(np.asarray(block, dtype=float))
        if len(block) == 0 or self.num_signatures == 0:
            return
        for start in range(0, len(block), chunk_rows):
            bitmaps = self._bitmaps(block[start : start + chunk_rows])
            step = max(1, _SLICE_WORDS // bitmaps.shape[1])
            for positions, words in self._supports(bitmaps, step):
                counts[positions] += np.bitwise_count(words).sum(
                    axis=1, dtype=np.int64
                )

    def add_points_weighted(
        self,
        block: np.ndarray,
        weights: np.ndarray,
        counts: np.ndarray,
        chunk_rows: int = 65536,
    ) -> None:
        """Weighted :meth:`add_points`: each point contributes its
        weight instead of 1 to every signature containing it.

        ``counts`` must be float64.  Per chunk, a candidate's weighted
        support is the sum of the chunk's weights under its support
        bitmap, folded in a fixed order, and chunks accumulate in
        sequence, so a fixed chunking yields a deterministic float
        fold.  With all-unit weights the result equals
        :meth:`add_points` numerically but in float dtype — callers
        wanting bitwise parity with the unweighted path must
        canonicalise unit weights to the integer kernel.
        """
        block = np.atleast_2d(np.asarray(block, dtype=float))
        weights = np.asarray(weights, dtype=float)
        if len(weights) != len(block):
            raise ValueError(
                f"weights ({len(weights)}) must align with block rows "
                f"({len(block)})"
            )
        if len(block) == 0 or self.num_signatures == 0:
            return
        for start in range(0, len(block), chunk_rows):
            chunk = weights[start : start + chunk_rows]
            bitmaps = self._bitmaps(block[start : start + chunk_rows])
            # Unpacked, a slice costs one float per point per candidate.
            step = max(1, _SLICE_WORDS // len(chunk))
            for positions, words in self._supports(bitmaps, step):
                bits = np.unpackbits(
                    words.view(np.uint8),
                    axis=1,
                    count=len(chunk),
                    bitorder="little",
                )
                counts[positions] += (bits * chunk).sum(axis=1)

    def count_supports(self, data: np.ndarray) -> dict[Signature, int]:
        """Supports of all candidate signatures over a data block."""
        counts = np.zeros(self.num_signatures, dtype=np.int64)
        self.add_points(np.atleast_2d(data), counts)
        return {sig: int(c) for sig, c in zip(self.signatures, counts)}

    # -- Figure 3 cell masks: the scalar oracle ----------------------------

    def cell_binnings(self) -> list[_AttributeBinning]:
        """Figure 3's per-attribute binnings, one per relevant
        attribute, built on first use."""
        if self._binnings is None:
            self._binnings = self._build_binnings()
        return self._binnings

    def _build_binnings(self) -> list[_AttributeBinning]:
        by_attr: dict[int, list[tuple[int, float, float]]] = {}
        for j, sig in enumerate(self.signatures):
            for interval in sig:
                by_attr.setdefault(interval.attribute, []).append(
                    (j, interval.lower, interval.upper)
                )
        binnings: list[_AttributeBinning] = []
        for attribute in sorted(by_attr):
            entries = by_attr[attribute]
            bounds = {0.0, 1.0}
            for _, lower, upper in entries:
                bounds.add(lower)
                bounds.add(upper)
            boundaries = np.array(sorted(bounds))
            binnings.append(
                self._build_attribute_binning(attribute, boundaries, entries)
            )
        return binnings

    def _build_attribute_binning(
        self,
        attribute: int,
        boundaries: np.ndarray,
        entries: list[tuple[int, float, float]],
    ) -> _AttributeBinning:
        """Sweep construction of the per-cell masks in O(|entries| + cells).

        A signature's interval ``[l, u]`` covers exactly the contiguous
        cell range ``[2 * idx(l), 2 * idx(u)]`` (its bounds are boundary
        values by construction), so bits toggle on entering and leaving
        that range.  Bit ``j`` of a cell mask is 0 iff signature ``j``
        has an interval on this attribute and the cell lies outside it.
        """
        full_mask = (1 << self.num_signatures) - 1
        num_cells = 2 * len(boundaries) - 1
        participating = 0
        toggle_on = [0] * (num_cells + 1)
        toggle_off = [0] * (num_cells + 1)
        for j, lower, upper in entries:
            bit = 1 << j
            participating |= bit
            first = 2 * int(np.searchsorted(boundaries, lower))
            last = 2 * int(np.searchsorted(boundaries, upper))
            toggle_on[first] |= bit
            toggle_off[last + 1] |= bit
        masks: list[int] = []
        active = 0
        for cell in range(num_cells):
            active |= toggle_on[cell]
            active &= ~toggle_off[cell]
            masks.append(full_mask & ~(participating & ~active))
        return _AttributeBinning(
            attribute=attribute,
            boundaries=boundaries,
            cell_masks=tuple(masks),
        )

    def membership_bits(self, point: np.ndarray) -> int:
        """Bitmask of the signatures whose support set contains ``point``
        (the paper's ``Ŝ_in(x)`` as a bit vector)."""
        bits = (1 << self.num_signatures) - 1
        for binning in self.cell_binnings():
            bits &= binning.mask_of(float(point[binning.attribute]))
            if bits == 0:
                return 0
        return bits

    def add_point(self, point: np.ndarray, counts: np.ndarray) -> None:
        """Increment per-signature support counts for one data point."""
        bits = self.membership_bits(point)
        while bits:
            low = bits & -bits
            counts[low.bit_length() - 1] += 1
            bits ^= low
