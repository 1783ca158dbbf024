"""Figure 3: the RSSC binning illustrated on the paper's example.

The paper's figure shows a binning ``B_a`` of one attribute with four
signatures: the interval bounds partition the axis into bins, each bin
carries a bit vector ``v_{a,b}`` whose bit ``j`` is 0 exactly when a
point in that bin cannot belong to signature ``S_j``, and a signature
without an interval on ``a`` (S2 in the figure) keeps bit 1 everywhere.

This harness builds an equivalent four-signature example, renders the
per-cell bit vectors, and checks the figure's defining properties.
"""

from __future__ import annotations

from repro.core.types import Interval, Signature
from repro.mr.rssc import RSSC


def build_example() -> tuple[RSSC, list[Signature]]:
    """Four signatures; S2 (index 1) has no interval on attribute 0."""
    signatures = [
        Signature([Interval(0, 0.10, 0.40)]),                     # S1
        Signature([Interval(1, 0.50, 0.80)]),                     # S2 — not on a
        Signature([Interval(0, 0.30, 0.70)]),                     # S3
        Signature([Interval(0, 0.60, 0.90), Interval(1, 0.0, 0.5)]),  # S4
    ]
    return RSSC(signatures), signatures


def run() -> dict[str, object]:
    rssc, signatures = build_example()
    binning = next(b for b in rssc.cell_binnings() if b.attribute == 0)
    cells = []
    for index, mask in enumerate(binning.cell_masks):
        bits = format(mask, f"0{len(signatures)}b")[::-1]  # bit j = S_j
        cells.append((index, bits))
    s2_bit_always_one = all(bits[1] == "1" for _, bits in cells)
    return {
        "boundaries": [float(b) for b in binning.boundaries],
        "cells": cells,
        "s2_bit_always_one": s2_bit_always_one,
    }


def main() -> str:
    outcome = run()
    lines = [
        "Figure 3 — RSSC binning B_a with per-cell bit vectors "
        "(bit j = signature S_{j+1}; cells alternate boundary points "
        "and open intervals)",
        f"boundaries on attribute a: {outcome['boundaries']}",
    ]
    for index, bits in outcome["cells"]:
        lines.append(f"  cell {index:2d}: v = {bits}")
    lines.append(
        "S2 has no interval on a, so its bit stays 1 in every cell: "
        f"{outcome['s2_bit_always_one']}"
    )
    return "\n".join(lines)


if __name__ == "__main__":
    print(main())
