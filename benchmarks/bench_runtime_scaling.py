"""Runtime-scaling bench: thread/process executors vs serial.

Times the two dominant P3C+-MR job shapes — the histogram job
(Section 5.1) and the RSSC support-counting job (Section 5.3) — under
every executor backend, asserts bit-identical outputs, and emits a JSON
record (``benchmarks/output/runtime_scaling.json``) for the bench
trajectory: per-executor wall times and speedups vs serial.

Alongside it, a standard observability run report
(``runtime_scaling.run.json``, schema ``repro.obs/run-report/v1``)
carries the per-job task percentiles, skew ratios and the per-executor
timing gauges in the same stable fields every driver emits.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.core.intervals import find_relevant_intervals
from repro.core.types import Signature
from repro.data import GeneratorConfig, generate_synthetic
from repro.mapreduce import JobChain, MapReduceRuntime
from repro.mapreduce.types import split_records
from repro.mr.histogram import run_histogram_job
from repro.mr.support import run_support_job
from repro.obs import Observability, build_run_report, validate_run_report

from conftest import OUTPUT_DIR

EXECUTORS = ("serial", "thread", "process")
NUM_SPLITS = 8
WORKERS = 4
NUM_BINS = 10
MAX_CANDIDATES = 400


def _dataset(n: int = 12_000, d: int = 16) -> np.ndarray:
    return generate_synthetic(
        GeneratorConfig(
            n=n, d=d, num_clusters=3, noise_fraction=0.1,
            max_cluster_dims=8, seed=7,
        )
    ).data


def _candidates(chain: JobChain, splits) -> list[Signature]:
    """Realistic 2-signature candidate batch from relevant intervals."""
    histograms = run_histogram_job(chain, splits, NUM_BINS)
    intervals = find_relevant_intervals(histograms, alpha=0.001)
    candidates = []
    for i, first in enumerate(intervals):
        for second in intervals[i + 1:]:
            if first.attribute != second.attribute:
                candidates.append(Signature([first, second]))
            if len(candidates) >= MAX_CANDIDATES:
                return candidates
    return candidates


def test_runtime_scaling(save_exhibit):
    data = _dataset()
    timings: dict[str, dict[str, float]] = {"histogram": {}, "support": {}}
    outputs: dict[str, tuple] = {}
    candidates: list[Signature] | None = None
    obs_by_executor: dict[str, Observability] = {}
    chains: dict[str, JobChain] = {}

    for name in EXECUTORS:
        obs = obs_by_executor[name] = Observability()
        runtime = MapReduceRuntime(executor=name, max_workers=WORKERS, obs=obs)
        chain = chains[name] = JobChain(runtime)
        splits = split_records(data, NUM_SPLITS)

        # The two jobs are one chain: the first starts the pool, the
        # second reuses it and the chain's end joins it, inside a timer.
        with runtime:
            started = time.perf_counter()
            histograms = run_histogram_job(chain, splits, NUM_BINS)
            timings["histogram"][name] = time.perf_counter() - started

            if candidates is None:
                candidates = _candidates(JobChain(MapReduceRuntime()), splits)
            started = time.perf_counter()
            supports = run_support_job(chain, splits, candidates)
            runtime.close()
            timings["support"][name] = time.perf_counter() - started

        outputs[name] = (
            tuple(tuple(h.counts) for h in histograms),
            tuple(sorted(supports.values())),
        )

    # Parity guard: every backend computed the same histograms/supports.
    assert outputs["thread"] == outputs["serial"]
    assert outputs["process"] == outputs["serial"]

    record = {
        "n": int(len(data)),
        "d": int(data.shape[1]),
        "num_splits": NUM_SPLITS,
        "workers": WORKERS,
        "num_candidates": len(candidates),
        "seconds": timings,
        "speedup_vs_serial": {
            job: {
                name: round(times["serial"] / times[name], 3)
                for name in EXECUTORS
            }
            for job, times in timings.items()
        },
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / "runtime_scaling.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    # Standard run report (serial chain as the comparable baseline, the
    # per-executor timings as metrics gauges) for the perf trajectory.
    obs = obs_by_executor["serial"]
    for job, times in timings.items():
        for name, seconds in times.items():
            obs.gauge(f"bench.{job}_seconds.{name}", seconds)
    report = build_run_report(
        "bench-runtime-scaling",
        obs=obs,
        chain=chains["serial"],
        dataset={"n": int(len(data)), "d": int(data.shape[1])},
        extra={"bench": {"workers": WORKERS, "num_splits": NUM_SPLITS}},
    )
    assert validate_run_report(report) == []
    report_path = OUTPUT_DIR / "runtime_scaling.run.json"
    report_path.write_text(json.dumps(report, indent=2, default=repr) + "\n")

    lines = [
        "Runtime scaling — executor wall times (s), "
        f"{len(data)} x {data.shape[1]}, {NUM_SPLITS} splits, "
        f"{WORKERS} workers",
    ]
    for job, times in timings.items():
        row = "  ".join(f"{name}={times[name]:.3f}" for name in EXECUTORS)
        lines.append(f"{job:<12} {row}")
    lines.append(f"[json saved to {path}]")
    lines.append(f"[run report saved to {report_path}]")
    save_exhibit("runtime_scaling", "\n".join(lines))
