"""Definitions 1-5 of the paper as value types.

- :class:`Interval` — a closed range on one attribute (Definition 1).
- :class:`Signature` — a p-signature: intervals on pairwise-disjoint
  attributes (Definition 2).
- :class:`IntervalTable` — the integer coding core generation runs on:
  a p-signature as an ``int`` with p interval-id bits set.
- :class:`ClusterCore` — a proven, maximal signature with its measured
  and expected support (Definition 5).
- :class:`ProjectedCluster` — a set of member points plus a set of
  relevant attributes (Definition 3), with the tightened output
  signature attached once known.
- :class:`ClusteringResult` — the algorithm output: clusters, outlier
  indices and run metadata.

All attributes are 0-based column indices into the (normalised) data
matrix; the paper's convention of values in ``[0, 1]`` is asserted by
the pipeline entry points, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np


@dataclass(frozen=True, order=True)
class Interval:
    """A closed interval ``[lower, upper]`` on one attribute."""

    attribute: int
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.attribute < 0:
            raise ValueError(f"attribute index must be >= 0, got {self.attribute}")
        if not self.lower <= self.upper:
            raise ValueError(
                f"empty interval on attribute {self.attribute}: "
                f"[{self.lower}, {self.upper}]"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        """Closed-interval test of ``value`` clamped to [0, 1]."""
        return bool(self.contains_column(np.asarray(value)))

    def contains_column(self, column: np.ndarray) -> np.ndarray:
        """Vectorised membership test over a 1-D array of values.

        Values are clamped to [0, 1] first, as the RSSC and
        ``bin_index`` do, so float drift past a bound at 0 or 1 still
        counts: such a bound drops its comparison.  Non-finite values
        are outside."""
        lower = column >= self.lower if self.lower > 0.0 else column > -np.inf
        upper = column <= self.upper if self.upper < 1.0 else column < np.inf
        return lower & upper

    def overlaps(self, other: "Interval") -> bool:
        if self.attribute != other.attribute:
            return False
        return self.lower <= other.upper and other.lower <= self.upper

    def covers(self, other: "Interval") -> bool:
        """True when ``other`` lies fully inside this interval
        (same attribute)."""
        return (
            self.attribute == other.attribute
            and self.lower <= other.lower
            and other.upper <= self.upper
        )

    def merge(self, other: "Interval") -> "Interval":
        """Union span of two intervals on the same attribute."""
        if self.attribute != other.attribute:
            raise ValueError(
                f"cannot merge intervals on attributes "
                f"{self.attribute} and {other.attribute}"
            )
        return Interval(
            self.attribute, min(self.lower, other.lower), max(self.upper, other.upper)
        )

    def __repr__(self) -> str:
        return f"I(a{self.attribute}:[{self.lower:.4g},{self.upper:.4g}])"


class Signature:
    """A p-signature: intervals on pairwise-disjoint attributes.

    Immutable and hashable; intervals are kept sorted by attribute so
    two signatures with the same interval set compare and hash equal.
    """

    __slots__ = ("_intervals", "_hash")

    def __init__(self, intervals: Sequence[Interval] | frozenset[Interval]) -> None:
        ordered = tuple(sorted(intervals, key=lambda iv: iv.attribute))
        attrs = [iv.attribute for iv in ordered]
        if len(set(attrs)) != len(attrs):
            raise ValueError(
                f"signature intervals must be on disjoint attributes, got {attrs}"
            )
        object.__setattr__(self, "_intervals", ordered)
        object.__setattr__(self, "_hash", hash(ordered))

    # -- container protocol -------------------------------------------

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return self._intervals

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __contains__(self, interval: Interval) -> bool:
        return interval in self._intervals

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(repr(iv) for iv in self._intervals)
        return f"Signature({inner})"

    # -- Definition 2 accessors ----------------------------------------

    @property
    def attributes(self) -> frozenset[int]:
        """``Attr(S)`` — the attribute set of this signature."""
        return frozenset(iv.attribute for iv in self._intervals)

    @property
    def p(self) -> int:
        """The signature's dimensionality ``p``."""
        return len(self._intervals)

    def volume(self) -> float:
        """Product of interval widths (the hyperrectangle volume used in
        the expected-support formula, Eq. 7)."""
        result = 1.0
        for iv in self._intervals:
            result *= iv.width
        return result

    def interval_on(self, attribute: int) -> Interval | None:
        for iv in self._intervals:
            if iv.attribute == attribute:
                return iv
        return None

    # -- support (Definitions 1-2) ---------------------------------------

    def support_mask(self, data: np.ndarray) -> np.ndarray:
        """Boolean mask of the support set ``SuppSet(S)`` over ``data``."""
        mask = np.ones(len(data), dtype=bool)
        for iv in self._intervals:
            mask &= iv.contains_column(data[:, iv.attribute])
        return mask

    def support(self, data: np.ndarray) -> int:
        """``Supp(S)`` — cardinality of the support set."""
        return int(self.support_mask(data).sum())

    def contains_point(self, point: np.ndarray) -> bool:
        return all(iv.contains(point[iv.attribute]) for iv in self._intervals)

    def expected_support(self, n: int) -> float:
        """``Supp_exp(S)`` under global uniformity (Eq. 7)."""
        return n * self.volume()


class IntervalTable:
    """Integer coding of the signatures over one set of intervals.

    The distinct intervals sit in ``Interval`` order (attribute, lower,
    upper); an interval's id is its position, and a p-signature is an
    ``int`` with the bits of its p interval ids set.  A signature has at
    most one interval per attribute, so its ascending ids are ascending
    attributes: the order a :class:`Signature` iterates in.  Python ints
    have no fixed width, so any number of intervals fits.
    """

    def __init__(self, intervals: Iterable[Interval]) -> None:
        self.intervals: tuple[Interval, ...] = tuple(sorted(set(intervals)))
        self.attributes = [iv.attribute for iv in self.intervals]
        self.widths = [iv.width for iv in self.intervals]
        self._ids = {iv: k for k, iv in enumerate(self.intervals)}

    def __len__(self) -> int:
        return len(self.intervals)

    def encode(self, intervals: Iterable[Interval]) -> int:
        """The mask of a signature (or of any of the table's intervals)."""
        mask = 0
        for interval in intervals:
            mask |= 1 << self._ids[interval]
        return mask

    def decode(self, mask: int) -> Signature:
        return Signature([self.intervals[k] for k in mask_ids(mask)])


def mask_ids(mask: int) -> list[int]:
    """The ids of the bits set in ``mask``, ascending."""
    ids: list[int] = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


@dataclass(frozen=True)
class ClusterCore:
    """A proven, maximal, non-redundant signature (Definition 5)."""

    signature: Signature
    support: int
    expected_support: float

    @property
    def interestingness(self) -> float:
        """``Supp / Supp_exp`` — the ratio ordering of Eq. 6."""
        if self.expected_support <= 0:
            return float("inf")
        return self.support / self.expected_support

    @property
    def attributes(self) -> frozenset[int]:
        return self.signature.attributes

    def __repr__(self) -> str:
        return (
            f"ClusterCore({self.signature!r}, supp={self.support}, "
            f"exp={self.expected_support:.3g})"
        )


@dataclass
class ProjectedCluster:
    """A found cluster ``Cl = (X, Y)`` (Definition 3) with its tightened
    output signature (Section 3.2.2, interval tightening)."""

    members: np.ndarray
    relevant_attributes: frozenset[int]
    signature: Signature | None = None
    core: ClusterCore | None = None

    def __post_init__(self) -> None:
        self.members = np.asarray(self.members, dtype=np.int64)

    @property
    def size(self) -> int:
        return len(self.members)

    def member_set(self) -> frozenset[int]:
        return frozenset(int(i) for i in self.members)

    def micro_objects(self) -> frozenset[tuple[int, int]]:
        """The (object, attribute) micro-object set used by the subspace
        quality measures in :mod:`repro.eval`."""
        return frozenset(
            (int(obj), attr)
            for obj in self.members
            for attr in self.relevant_attributes
        )

    def __repr__(self) -> str:
        attrs = sorted(self.relevant_attributes)
        return f"ProjectedCluster(|X|={self.size}, Y={attrs})"


@dataclass
class ClusteringResult:
    """Final algorithm output: found clusters, outliers and metadata."""

    clusters: list[ProjectedCluster]
    outliers: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    n_points: int = 0
    n_dims: int = 0
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.outliers = np.asarray(self.outliers, dtype=np.int64)

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    def labels(self) -> np.ndarray:
        """Per-point cluster id (first matching cluster), -1 for outliers
        and unassigned points.  Projected clusterings assign each point
        to at most one cluster, so "first" is unambiguous except in the
        Light variant's multi-core overlap regions."""
        labels = np.full(self.n_points, -1, dtype=np.int64)
        for cid in range(len(self.clusters) - 1, -1, -1):
            labels[self.clusters[cid].members] = cid
        labels[self.outliers] = -1
        return labels

    def summary(self) -> str:
        lines = [
            f"{self.num_clusters} clusters over {self.n_points} points "
            f"({len(self.outliers)} outliers)"
        ]
        for cid, cluster in enumerate(self.clusters):
            attrs = ",".join(str(a) for a in sorted(cluster.relevant_attributes))
            lines.append(f"  cluster {cid}: |X|={cluster.size} Y={{{attrs}}}")
        return "\n".join(lines)
