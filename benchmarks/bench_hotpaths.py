"""Hot-path microbenchmarks: the data-plane before/after trajectory.

Measures the per-point inner loops the vectorized data plane replaced —
scalar RSSC support counting vs the transposed bitmap kernel, per-row
histogram binning vs whole-block binning — plus the cost of shipping a
task's distributed cache with and without per-worker broadcast.  Writes
``BENCH_hotpaths.json`` at the repository root so successive runs
record the trajectory (schema v2: ``{bench, n, d, seconds,
points_per_sec}`` rows).

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py            # full workload
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --quick \\
        --min-rssc-speedup 5

``--min-rssc-speedup`` exits non-zero when batch RSSC counting is less
than that multiple faster than the scalar path (the CI ``perf-smoke``
gate).
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.binning import bin_index  # noqa: E402
from repro.core.types import Interval, Signature  # noqa: E402
from repro.mapreduce.cache import DistributedCache  # noqa: E402
from repro.mapreduce.executors import ProcessExecutor  # noqa: E402
from repro.mr.rssc import RSSC  # noqa: E402

SCHEMA = "repro.benchmarks/hotpaths/v2"
DEFAULT_OUT = REPO_ROOT / "BENCH_hotpaths.json"


def _random_signatures(
    rng: np.random.Generator, num_sigs: int, d: int
) -> list[Signature]:
    signatures = []
    for _ in range(num_sigs):
        num_attrs = int(rng.integers(1, min(4, d) + 1))
        attrs = rng.choice(d, size=num_attrs, replace=False)
        intervals = []
        for attribute in attrs:
            lo = float(rng.uniform(0, 0.8))
            hi = lo + float(rng.uniform(0.05, 0.2))
            intervals.append(Interval(int(attribute), lo, min(hi, 1.0)))
        signatures.append(Signature(intervals))
    return signatures


def _row(bench: str, n: int, d: int, seconds: float) -> dict:
    return {
        "bench": bench,
        "n": n,
        "d": d,
        "seconds": round(seconds, 6),
        "points_per_sec": round(n / seconds, 1) if seconds > 0 else None,
    }


def bench_rssc(
    rng: np.random.Generator, n: int, d: int, num_candidates: int, scalar_n: int
) -> tuple[list[dict], float]:
    """Scalar vs batch support counting; returns (rows, speedup)."""
    data = rng.uniform(size=(n, d))
    rssc = RSSC(_random_signatures(rng, num_candidates, d))

    scalar_counts = np.zeros(rssc.num_signatures, dtype=np.int64)
    started = time.perf_counter()
    for point in data[:scalar_n]:
        rssc.add_point(point, scalar_counts)
    scalar_s = time.perf_counter() - started

    batch_counts = np.zeros(rssc.num_signatures, dtype=np.int64)
    started = time.perf_counter()
    rssc.add_points(data, batch_counts)
    batch_s = time.perf_counter() - started

    # Parity guard: the benchmark refuses to report a speedup for a
    # batch path that diverged from the scalar oracle.
    check = np.zeros(rssc.num_signatures, dtype=np.int64)
    rssc.add_points(data[:scalar_n], check)
    if not np.array_equal(check, scalar_counts):
        raise AssertionError("batch RSSC diverged from the scalar oracle")

    scalar_pps = scalar_n / scalar_s
    batch_pps = n / batch_s
    speedup = batch_pps / scalar_pps
    rows = [
        _row("rssc_scalar", scalar_n, d, scalar_s),
        _row("rssc_batch", n, d, batch_s),
    ]
    return rows, speedup


def bench_histogram(rng: np.random.Generator, n: int, d: int) -> list[dict]:
    """Per-row Eq. 8 binning (the pre-PR mapper loop) vs whole-block."""
    data = rng.uniform(size=(n, d))
    num_bins = max(1, round(n ** (1.0 / 3.0)))

    row_counts = np.zeros((d, num_bins), dtype=np.int64)
    started = time.perf_counter()
    for point in data:
        bins = bin_index(point, num_bins)
        row_counts[np.arange(d), bins] += 1
    rows_s = time.perf_counter() - started

    batch_counts = np.zeros((d, num_bins), dtype=np.int64)
    started = time.perf_counter()
    bins = bin_index(data, num_bins)
    for attribute in range(d):
        batch_counts[attribute] += np.bincount(
            bins[:, attribute], minlength=num_bins
        )
    batch_s = time.perf_counter() - started

    if not np.array_equal(row_counts, batch_counts):
        raise AssertionError("batch histogram diverged from the per-row path")
    return [
        _row("histogram_rows", n, d, rows_s),
        _row("histogram_batch", n, d, batch_s),
    ]


def bench_cache_dispatch(
    rng: np.random.Generator, d: int, num_candidates: int, num_tasks: int
) -> list[dict]:
    """Per-task cache pickling vs fingerprint-keyed handle dispatch.

    ``n`` is the task count here; ``points_per_sec`` reads as tasks/s.
    """
    cache = DistributedCache(
        {
            "rssc": RSSC(_random_signatures(rng, num_candidates, d)),
            "params": rng.uniform(size=(num_candidates, d)),
        }
    )
    started = time.perf_counter()
    for _ in range(num_tasks):
        pickle.loads(pickle.dumps(cache, protocol=5))
    per_task_s = time.perf_counter() - started

    executor = ProcessExecutor(max_workers=1)
    started = time.perf_counter()
    handle = executor.broadcast(cache)  # one registration...
    for _ in range(num_tasks):  # ...then O(1)-byte handles per task
        pickle.loads(pickle.dumps(handle, protocol=5))
    broadcast_s = time.perf_counter() - started
    return [
        _row("cache_per_task", num_tasks, d, per_task_s),
        _row("cache_broadcast", num_tasks, d, broadcast_s),
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=None, help="points per split")
    parser.add_argument("--d", type=int, default=20, help="dimensionality")
    parser.add_argument(
        "--candidates", type=int, default=256, help="candidate signatures"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke workload (smaller n; same candidate count)",
    )
    parser.add_argument(
        "--min-rssc-speedup",
        type=float,
        default=None,
        help="fail unless batch RSSC >= this multiple of the scalar path",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="output JSON path"
    )
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    n = args.n if args.n is not None else (10_000 if args.quick else 100_000)
    scalar_n = min(n, 10_000 if args.quick else 20_000)
    rng = np.random.default_rng(args.seed)

    rows: list[dict] = []
    rssc_rows, speedup = bench_rssc(rng, n, args.d, args.candidates, scalar_n)
    rows.extend(rssc_rows)
    rows.extend(bench_histogram(rng, n, args.d))
    rows.extend(bench_cache_dispatch(rng, args.d, args.candidates, 64))

    report = {
        "schema": SCHEMA,
        "quick": bool(args.quick),
        "workload": {"n": n, "d": args.d, "candidates": args.candidates},
        "rssc_speedup": round(speedup, 2),
        "rows": rows,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    width = max(len(r["bench"]) for r in rows)
    print(
        f"{'bench':<{width}} {'n':>8} {'d':>4} {'seconds':>10} {'points/s':>14}"
    )
    for r in rows:
        pps = f"{r['points_per_sec']:,.0f}" if r["points_per_sec"] else "-"
        print(
            f"{r['bench']:<{width}} {r['n']:>8} {r['d']:>4} "
            f"{r['seconds']:>10.4f} {pps:>14}"
        )
    print(f"\nbatch RSSC speedup over scalar: {speedup:.1f}x")
    print(f"[saved to {args.out}]")

    bound = args.min_rssc_speedup
    if bound is not None and speedup < bound:
        print(
            f"FAIL: batch RSSC speedup {speedup:.1f}x is below the "
            f"required {bound:g}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
