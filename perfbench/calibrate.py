"""Fixed reference kernels that measure how fast the host runs right now.

The benchmark shares its host with other work.  On a 2-core host the
same code was seen to switch between a fast and a slow state, about 1.4x
apart, for phases of seconds to minutes, so a whole run can land in the
slow one.  Timing a fixed piece of work that uses none of the
benchmark's subject code, right beside each timed operation, gives the
host's speed at that moment.  ``run.py`` scales its timings by
``nominal / reference`` so that they read as seconds on the host in its
fast state.  A change to the program moves a scaled timing as it moves
the raw one; a change in the host's speed moves both the timing and the
reference, and cancels.

``host_seconds`` mixes the kinds of work a fit does: small numpy calls
on a ``4096 x 8`` batch, histogram passes over a ``25000 x 8`` split, and
interpreter-bound Python (driver-side Apriori and bookkeeping).
``batch_seconds`` is the small-batch part alone, short enough to run
beside every ``4096``-row assign batch.
"""

from __future__ import annotations

import time

import numpy as np

#: ``host_seconds`` and ``batch_seconds`` on the 2-core host in its fast
#: state.  They only fix the unit of the scaled timings: any constants
#: would do, as long as they never change.
HOST_NOMINAL_S = 0.0048
BATCH_NOMINAL_S = 0.00055
#: ``host_seconds`` reports the best of this many kernel runs.
REPEATS = 5

_rng = np.random.default_rng(20140324)
_BATCH = _rng.random((4096, 8))
_CENTRES = _rng.random((3, 8))
_SPLIT = _rng.random((25_000, 8))
_KEYS = [int(k) for k in _rng.integers(0, 4096, 4096)]


def _batch_kernel() -> float:
    total = 0.0
    for centre in _CENTRES:
        diff = _BATCH - centre
        quad = np.zeros(len(diff))
        for a in range(4):
            for b in range(4):
                quad += diff[:, a] * 0.25 * diff[:, b]
        total += float(quad[0])
    return total


def _split_kernel() -> float:
    total = 0.0
    for column in _SPLIT.T:
        bins = np.minimum((column * 32).astype(np.int64), 31)
        total += float(np.bincount(bins, minlength=32)[0])
    total += float((_SPLIT > 0.5).all(axis=1).sum())
    return total + float((_SPLIT.T @ _SPLIT)[0, 0])


def _python_kernel() -> float:
    counts: dict[int, int] = {}
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + 1
    for _ in range(3):
        ordered = sorted(counts.items())
    return float(ordered[0][1])


def batch_seconds() -> float:
    """One run of the small-batch kernel, in seconds."""
    started = time.perf_counter()
    _batch_kernel()
    return time.perf_counter() - started


def host_seconds() -> float:
    """The best of ``REPEATS`` runs of the mixed kernel, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        _batch_kernel()
        _split_kernel()
        _python_kernel()
        best = min(best, time.perf_counter() - started)
    return best
