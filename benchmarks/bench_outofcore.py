"""Out-of-core data-plane benchmark: a bounded-RSS scan.

Proves the headline property of the out-of-core plane on a dataset
that is deliberately larger than the configured memory budget: a
``.npy`` matrix is written to disk in streaming chunks (the full matrix
is never resident), then a column-statistics MR job consumes it through
:func:`~repro.mapreduce.fs.make_npy_splits` under
``JobConf.memory_budget_bytes``.  The runtime derives a per-chunk row
cap from the budget, so peak RSS growth during the job must stay a
small fraction of the dataset size.  ``peak_rss_ratio`` = (RSS
high-water delta across the scan) / dataset bytes.

Writes ``BENCH_outofcore.json`` at the repository root (schema v1).

Usage::

    PYTHONPATH=src python benchmarks/bench_outofcore.py           # full
    PYTHONPATH=src python benchmarks/bench_outofcore.py --quick   # CI
    PYTHONPATH=src python benchmarks/bench_outofcore.py --quick \\
        --max-rss-ratio 0.6

``--max-rss-ratio`` exits non-zero when the scan's RSS delta exceeds
the given fraction of the dataset; it is the CI ``outofcore-smoke``
gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.mapreduce.fs import make_npy_splits  # noqa: E402
from repro.mapreduce.job import BatchMapper, Job, Reducer  # noqa: E402
from repro.mapreduce.runtime import MapReduceRuntime  # noqa: E402
from repro.mapreduce.types import JobConf  # noqa: E402
from repro.obs.resources import peak_rss_kb  # noqa: E402

SCHEMA = "repro.benchmarks/outofcore/v1"
DEFAULT_OUT = REPO_ROOT / "BENCH_outofcore.json"

#: Rows written per chunk while generating the input matrix; keeps the
#: generator's own footprint far below the dataset it produces.
_GEN_ROWS = 65536


def write_streaming_npy(path: Path, n: int, d: int, seed: int) -> int:
    """Write an ``(n, d)`` float64 ``.npy`` without materialising it."""
    header = {
        "descr": "<f8",
        "fortran_order": False,
        "shape": (n, d),
    }
    rng = np.random.default_rng(seed)
    with open(path, "wb") as handle:
        np.lib.format.write_array_header_1_0(handle, header)
        written = 0
        while written < n:
            rows = min(_GEN_ROWS, n - written)
            chunk = rng.uniform(size=(rows, d))
            handle.write(chunk.tobytes())
            written += rows
    return n * d * 8


class ColumnStatsMapper(BatchMapper):
    """Streams chunks, accumulates per-column sums, emits in cleanup."""

    def setup(self, context) -> None:
        self._sums = None
        self._count = 0

    def map_batch(self, keys, block, context) -> None:
        partial = block.sum(axis=0)
        if self._sums is None:
            self._sums = partial
        else:
            self._sums = self._sums + partial
        self._count += block.shape[0]

    def cleanup(self, context) -> None:
        if self._sums is not None:
            context.emit(0, np.concatenate(([float(self._count)], self._sums)))


class ColumnStatsReducer(Reducer):
    def reduce(self, key, values, context) -> None:
        total = values[0].copy()
        for value in values[1:]:
            total += value
        context.emit(key, total)


def bench_bounded_scan(
    path: Path, n: int, d: int, num_splits: int, budget: int
) -> dict:
    """Column stats over npy splits under a memory budget."""
    splits, _, _ = make_npy_splits(path, num_splits, mode="read")
    baseline_kb = peak_rss_kb()
    job = Job(
        mapper_factory=ColumnStatsMapper, reducer_factory=ColumnStatsReducer
    )
    conf = JobConf(
        name="outofcore-scan",
        num_reducers=1,
        memory_budget_bytes=budget,
    )
    runtime = MapReduceRuntime(executor="serial")
    started = time.perf_counter()
    result = runtime.run(job, splits, conf)
    seconds = time.perf_counter() - started
    peak_kb = peak_rss_kb()
    (_, stats), = result.output
    assert int(stats[0]) == n, "scan lost rows"
    dataset_bytes = n * d * 8
    return {
        "bench": "bounded_scan",
        "n": n,
        "d": d,
        "seconds": round(seconds, 6),
        "rows_per_sec": round(n / seconds, 1) if seconds > 0 else None,
        "dataset_bytes": dataset_bytes,
        "baseline_rss_kb": baseline_kb,
        "peak_rss_kb": peak_kb,
        "rss_delta_kb": peak_kb - baseline_kb,
        "peak_rss_ratio": round(
            (peak_kb - baseline_kb) * 1024 / dataset_bytes, 6
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="artifact path"
    )
    parser.add_argument(
        "--max-rss-ratio",
        type=float,
        default=None,
        help="fail when the scan's RSS delta exceeds this fraction of "
        "the dataset size",
    )
    args = parser.parse_args(argv)

    # The scan matrix must dwarf the process's import-time RSS
    # high-water (~120 MB with numpy loaded): if a regression ever
    # materialises the whole matrix, the high-water visibly jumps and
    # the ratio gate trips.  A dataset smaller than the baseline would
    # hide inside it and make the gate vacuous.
    if args.quick:
        n, d, num_splits = 2_000_000, 8, 8
        budget = 4 * 1024 * 1024
    else:
        n, d, num_splits = 8_000_000, 12, 16
        budget = 16 * 1024 * 1024

    rows: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="repro-outofcore-") as tmp:
        scan_path = Path(tmp) / "scan.npy"
        dataset_bytes = write_streaming_npy(scan_path, n, d, seed=11)
        print(
            f"scanning {dataset_bytes / 1e6:.0f} MB "
            f"({n} x {d}) under a {budget / 1e6:.1f} MB budget"
        )
        scan = bench_bounded_scan(scan_path, n, d, num_splits, budget)
        rows.append(scan)
        print(
            f"  {scan['seconds']:.2f}s, RSS delta "
            f"{scan['rss_delta_kb']} KiB "
            f"(ratio {scan['peak_rss_ratio']:.3f})"
        )

    artifact = {
        "schema": SCHEMA,
        "quick": bool(args.quick),
        "peak_rss_ratio": rows[0]["peak_rss_ratio"],
        "scan_rows_per_sec": rows[0]["rows_per_sec"],
        "rows": rows,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")

    status = 0
    if (
        args.max_rss_ratio is not None
        and artifact["peak_rss_ratio"] > args.max_rss_ratio
    ):
        print(
            f"FAIL: peak_rss_ratio {artifact['peak_rss_ratio']:.3f} exceeds "
            f"--max-rss-ratio {args.max_rss_ratio}",
            file=sys.stderr,
        )
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
