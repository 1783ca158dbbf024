"""Ablation: RSSC bitmap counting vs naive per-signature counting
(Section 5.3).

The paper introduces the RSSC because a mapper that queries every
candidate signature for containment of every record is too slow once
candidates number in the 10^5 range.  This bench compares, on the same
candidate set and with the same record-at-a-time mapper discipline,

- the naive counter: one ``contains_point`` check per (record,
  candidate) pair, and
- the RSSC: one binary search per relevant attribute + bitwise ANDs,

asserts exact agreement (also against the vectorised reference) and
reports the speedup, which grows with the candidate count.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.types import Interval, Signature
from repro.experiments.runner import format_table, make_dataset
from repro.mr.rssc import RSSC


def _candidate_set(rng, num_sigs: int, d: int) -> list[Signature]:
    signatures = []
    for _ in range(num_sigs):
        attrs = rng.choice(d, size=int(rng.integers(2, 5)), replace=False)
        intervals = []
        for attribute in attrs:
            lo = float(rng.uniform(0, 0.8))
            intervals.append(
                Interval(int(attribute), lo, lo + float(rng.uniform(0.05, 0.2)))
            )
        signatures.append(Signature(intervals))
    return signatures


def _naive_record_at_a_time(
    data: np.ndarray, candidates: list[Signature]
) -> dict[Signature, int]:
    """The pre-RSSC mapper: query every signature for every record."""
    counts = dict.fromkeys(candidates, 0)
    for point in data:
        for signature in candidates:
            if signature.contains_point(point):
                counts[signature] += 1
    return counts


def _rssc_record_at_a_time(
    data: np.ndarray, rssc: RSSC
) -> dict[Signature, int]:
    counts = np.zeros(rssc.num_signatures, dtype=np.int64)
    for point in data:
        rssc.add_point(point, counts)
    return {sig: int(c) for sig, c in zip(rssc.signatures, counts)}


def test_rssc_vs_naive_counting(benchmark, bench_scale, save_exhibit):
    rng = np.random.default_rng(0)
    dataset = make_dataset(1_000, bench_scale.dims, 5, 0.1, bench_scale.seed)
    rows = []
    speedups = {}
    for num_sigs in (50, 200, 800):
        candidates = _candidate_set(rng, num_sigs, bench_scale.dims)
        rssc = RSSC(candidates)

        started = time.perf_counter()
        naive_counts = _naive_record_at_a_time(dataset.data, candidates)
        naive_time = time.perf_counter() - started

        started = time.perf_counter()
        rssc_counts = _rssc_record_at_a_time(dataset.data, rssc)
        rssc_time = time.perf_counter() - started

        assert rssc_counts == naive_counts
        assert rssc_counts == rssc.count_supports(dataset.data)
        speedups[num_sigs] = naive_time / rssc_time
        rows.append(
            [num_sigs, naive_time, rssc_time, naive_time / rssc_time]
        )

    largest = _candidate_set(rng, 800, bench_scale.dims)
    rssc = RSSC(largest)
    benchmark.pedantic(
        lambda: _rssc_record_at_a_time(dataset.data, rssc),
        rounds=1,
        iterations=1,
    )

    table = format_table(
        ["#candidates", "naive (s)", "RSSC (s)", "speedup"], rows
    )
    save_exhibit(
        "ablation_rssc",
        "Ablation — RSSC vs naive support counting (Section 5.3)\n" + table,
    )

    # The RSSC must win at the largest candidate count, and its
    # advantage must grow with the candidate count (the paper's point).
    assert speedups[800] > 1.0
    assert speedups[800] > speedups[50]
