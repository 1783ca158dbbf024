"""Candidate proving: the support test of Eq. 1 plus the P3C+ effect size.

A candidate (p+1)-signature ``S`` is *proven* when, for every interval
``I`` in ``S``, its support is significantly larger than the support
expected if the points of ``S \\ {I}`` were uniform on ``I``'s attribute:

    Supp_exp(S \\ {I}, I) = Supp(S \\ {I}) * width(I)        (Eq. 2)

P3C+ additionally requires the *effect size* (Cohen's d_cc with
sigma = Supp_exp, i.e. the relative deviation) to reach ``theta_cc``
(Section 4.1.2).  Setting ``theta_cc=None`` reproduces the original
P3C 'Poisson only' behaviour used as the baseline in Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.stats import cohens_d_cc, poisson_deviation_significant
from repro.core.types import IntervalTable, mask_ids


@dataclass(frozen=True)
class ProvenSignature:
    """A signature (an id mask over the tester's table) that passed the
    support test, with its support."""

    signature: int
    support: int | float

    @property
    def p(self) -> int:
        return self.signature.bit_count()


@dataclass
class ProveStats:
    """Where one proving batch's candidates went.

    The paper's pruning pipeline has three distinct kill sites before
    the redundancy filter; attributing candidates to the *first* test
    they failed is what lets the observability layer answer "what did
    the statistical tests actually prune?".
    """

    candidates: int = 0
    proven: int = 0
    #: First failing check was the Poisson deviation test (Eq. 1).
    rejected_poisson: int = 0
    #: Passed Poisson but failed the effect-size threshold (P3C+ only).
    rejected_effect_size: int = 0
    #: Skipped because a (p-1)-parent was never proven (Definition 5).
    rejected_unproven_parent: int = 0

    def merge(self, other: "ProveStats") -> None:
        self.candidates += other.candidates
        self.proven += other.proven
        self.rejected_poisson += other.rejected_poisson
        self.rejected_effect_size += other.rejected_effect_size
        self.rejected_unproven_parent += other.rejected_unproven_parent

    def as_dict(self) -> dict[str, int]:
        return {
            "candidates": self.candidates,
            "proven": self.proven,
            "rejected_poisson": self.rejected_poisson,
            "rejected_effect_size": self.rejected_effect_size,
            "rejected_unproven_parent": self.rejected_unproven_parent,
        }


class SupportTester:
    """Evaluates Eq. 1 (+ effect size) given known subsignature supports.

    Signatures are id masks over ``table``; a parent is the mask with
    one bit cleared, and supports are keyed by mask.

    Parameters
    ----------
    table:
        The interval table the signatures are coded over; it supplies
        the interval widths.
    n:
        Database size (support of the empty signature).
    alpha:
        Poisson significance level (the 'threshold' swept in Figure 5).
    theta_cc:
        Effect-size threshold; ``None`` disables the effect-size test
        (original P3C behaviour).
    """

    def __init__(
        self,
        table: IntervalTable,
        n: int,
        alpha: float = 0.01,
        theta_cc: float | None = 0.35,
    ) -> None:
        if n < 1:
            raise ValueError(f"database size must be >= 1, got {n}")
        self.widths = table.widths
        self.n = n
        self.alpha = alpha
        self.theta_cc = theta_cc

    def evaluate(
        self,
        signature: int,
        support: int | float,
        known: Mapping[int, int | float],
    ) -> str | None:
        """Eq. 1 verdict: ``None`` when proven, otherwise the name of
        the first failing test (``"poisson"`` / ``"effect_size"``).

        Intervals are tested in ascending id order, which is attribute
        order.  The empty parent of a 1-signature has support ``n``;
        any other parent missing from ``known`` raises ``KeyError``.
        """
        for k in mask_ids(signature):
            parent = signature ^ (1 << k)
            parent_supp = known[parent] if parent else self.n
            expected = parent_supp * self.widths[k]
            if not poisson_deviation_significant(support, expected, self.alpha):
                return "poisson"
            if self.theta_cc is not None:
                if cohens_d_cc(support, expected) < self.theta_cc:
                    return "effect_size"
        return None

    def prove(
        self,
        candidates: Iterable[int],
        supports: Mapping[int, int | float],
        known: Mapping[int, int | float] | None = None,
        proven_set: Iterable[int] | None = None,
        stats: ProveStats | None = None,
    ) -> list[ProvenSignature]:
        """Prove a batch of candidates whose supports were counted.

        ``known`` supplies parent supports (proven signatures of the
        previous level); parents may also come from ``supports`` itself,
        which is what the multi-level collection relies on: all ancestors
        of a collected candidate are in the same counted batch.

        Definition 5 condition 1 quantifies over *all* q-subsignatures,
        so a candidate is only provable when every (p-1)-parent is itself
        proven — ``proven_set`` carries the signatures proven in earlier
        batches, and candidates proven inside this batch extend it.
        Candidates are processed in increasing signature size so parents
        are always resolved before children.

        ``stats``, when given, accumulates where each candidate went
        (proven, or the first test it failed).
        """
        merged: dict[int, int | float] = dict(known or {})
        merged.update(supports)
        # The empty signature, mask 0, is the parent of every
        # 1-signature; its support is n.
        accepted: set[int] = {0, *(proven_set or ())}
        proven: list[ProvenSignature] = []
        for sig in sorted(candidates, key=int.bit_count):
            support = supports[sig]
            if stats is not None:
                stats.candidates += 1
            if not all((sig ^ (1 << k)) in accepted for k in mask_ids(sig)):
                if stats is not None:
                    stats.rejected_unproven_parent += 1
                continue
            try:
                verdict = self.evaluate(sig, support, merged)
            except KeyError:
                verdict = "poisson"
            if verdict is None:
                proven.append(ProvenSignature(signature=sig, support=support))
                accepted.add(sig)
                if stats is not None:
                    stats.proven += 1
            elif stats is not None:
                if verdict == "poisson":
                    stats.rejected_poisson += 1
                else:
                    stats.rejected_effect_size += 1
        return proven
