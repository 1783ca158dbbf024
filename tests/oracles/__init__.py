"""Brute-force references the tests check the production kernels
against.  Nothing under ``src/`` calls them."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.types import Interval, Signature


def count_supports(
    data: np.ndarray, signatures: Sequence[Signature]
) -> dict[Signature, int]:
    """Exact support of each signature by brute-force mask evaluation;
    the RSSC bitmap counter must agree exactly."""
    return {sig: sig.support(data) for sig in signatures}


def without(signature: Signature, interval: Interval) -> Signature:
    """``S \\ {I}``, the parent Eq. 1 tests ``S`` against."""
    if interval not in signature:
        raise ValueError(f"{interval} not in signature")
    return Signature([iv for iv in signature if iv != interval])
