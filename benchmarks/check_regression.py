#!/usr/bin/env python
"""Bench-regression gate: diff BENCH_*.json against committed baselines.

The repo commits five benchmark artifacts at the root —
``BENCH_hotpaths.json`` (data-plane speedup ratios),
``BENCH_service.json`` (fair-share service latencies),
``BENCH_serving.json`` (batched model-scoring throughput),
``BENCH_outofcore.json`` (bounded-RSS scan) and
``BENCH_coreset.json`` (approximate-fit speedup + quality) — plus
frozen copies under ``benchmarks/baselines/``.  This script compares the named
headline metrics between the two and exits non-zero when any metric
regresses by more than the tolerance (20% by default), so CI fails the
build instead of silently eroding the numbers the paper reproduction
advertises.

Each metric has a direction: for *higher-is-better* ratios
(``rssc_speedup``) a regression is the current value falling below
``baseline * (1 - tolerance)``; for *lower-is-better* latencies
(``probe_p95_s``, ``starvation_ratio``) it is the current value rising
above ``baseline * (1 + tolerance)``.  Improvements never fail.

Timing-sensitive metrics only compare like with like: when the
``quick`` flags of the current and baseline artifacts differ (CI quick
mode vs a full local run), metrics marked ``scale_sensitive`` are
skipped rather than producing false alarms from a smaller workload.

Usage::

    python benchmarks/check_regression.py              # gate both files
    python benchmarks/check_regression.py --quick      # CI: mark current
                                                       # runs as quick
    python benchmarks/check_regression.py \
        --current-dir /tmp/run --baseline-dir benchmarks/baselines
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_BASELINE_DIR = Path(__file__).resolve().parent / "baselines"
DEFAULT_TOLERANCE = 0.20


@dataclass(frozen=True)
class MetricSpec:
    """One gated headline metric inside one benchmark artifact."""

    file: str             # artifact filename (same in both dirs)
    name: str             # top-level key holding the metric
    higher_is_better: bool
    scale_sensitive: bool = False  # skip when quick flags mismatch
    #: Absolute slack added to the bound in the failing direction.  A
    #: multiplicative tolerance is meaningless around a zero baseline
    #: (``peak_rss_ratio`` is 0.0 when the scan stays fully bounded),
    #: so metrics that can legitimately sit at zero carry an absolute
    #: allowance instead of failing on any nonzero jitter.
    slack: float = 0.0


#: The gated metrics.  Ratios (speedups, starvation) are scale-free and
#: always compared; absolute latencies/throughputs move with workload
#: size and only compare when both artifacts ran at the same scale.
METRICS: tuple[MetricSpec, ...] = (
    MetricSpec("BENCH_hotpaths.json", "rssc_speedup", True),
    MetricSpec("BENCH_service.json", "starvation_ratio", False),
    MetricSpec(
        "BENCH_service.json", "probe_p95_s", False, scale_sensitive=True
    ),
    MetricSpec(
        "BENCH_service.json",
        "throughput_chains_per_s",
        True,
        scale_sensitive=True,
    ),
    MetricSpec("BENCH_serving.json", "assign_speedup", True),
    MetricSpec(
        "BENCH_serving.json",
        "throughput_points_per_s",
        True,
        scale_sensitive=True,
    ),
    MetricSpec(
        "BENCH_serving.json", "batch_p95_ms", False, scale_sensitive=True
    ),
    # Out-of-core plane: the bounded scan's RSS growth as a fraction of
    # the dataset (0.0 when fully bounded; 5% absolute allowance for
    # allocator jitter).
    MetricSpec(
        "BENCH_outofcore.json",
        "peak_rss_ratio",
        False,
        scale_sensitive=True,
        slack=0.05,
    ),
    # Coreset fast path: wall-clock multiple over the exact chain (the
    # ratio shifts with workload size — the two extra full scans
    # amortise better at larger n — so it only compares like scales)
    # and the fraction of the exact fit's E4SC the approximate fit
    # retains (scale-free).
    MetricSpec(
        "BENCH_coreset.json",
        "coreset_speedup",
        True,
        scale_sensitive=True,
    ),
    MetricSpec("BENCH_coreset.json", "e4sc_retention", True),
)


def _load(path: Path) -> dict | None:
    if not path.exists():
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_regressions(
    current_dir: Path,
    baseline_dir: Path,
    tolerance: float = DEFAULT_TOLERANCE,
    quick: bool | None = None,
) -> tuple[list[str], list[str]]:
    """Compare every gated metric; returns ``(failures, report_lines)``.

    ``quick`` overrides the current artifacts' own ``quick`` flag (CI
    passes ``--quick`` when it regenerated the artifacts in quick
    mode); ``None`` trusts the flag stored in each file.
    """
    failures: list[str] = []
    lines: list[str] = []
    cache: dict[str, tuple[dict | None, dict | None]] = {}
    for spec in METRICS:
        if spec.file not in cache:
            cache[spec.file] = (
                _load(current_dir / spec.file),
                _load(baseline_dir / spec.file),
            )
        current, baseline = cache[spec.file]
        label = f"{spec.file}:{spec.name}"
        if baseline is None:
            lines.append(f"SKIP {label}: no baseline committed")
            continue
        if current is None:
            failures.append(f"{label}: current artifact missing")
            continue
        if spec.name not in baseline:
            lines.append(f"SKIP {label}: not in baseline")
            continue
        if spec.name not in current:
            failures.append(f"{label}: missing from current artifact")
            continue
        current_quick = (
            bool(current.get("quick")) if quick is None else quick
        )
        if spec.scale_sensitive and current_quick != bool(
            baseline.get("quick")
        ):
            lines.append(
                f"SKIP {label}: quick-mode mismatch "
                f"(current={current_quick}, "
                f"baseline={bool(baseline.get('quick'))})"
            )
            continue
        base = float(baseline[spec.name])
        now = float(current[spec.name])
        if spec.higher_is_better:
            bound = base * (1.0 - tolerance) - spec.slack
            regressed = now < bound
            arrow = ">="
        else:
            bound = base * (1.0 + tolerance) + spec.slack
            regressed = now > bound
            arrow = "<="
        verdict = "FAIL" if regressed else "ok"
        lines.append(
            f"{verdict:>4} {label}: {now:.4g} "
            f"(baseline {base:.4g}, must be {arrow} {bound:.4g})"
        )
        if regressed:
            change = (
                f"{(now - base) / base * 100.0:+.1f}%"
                if base != 0
                else f"+{now - base:.4g} absolute"
            )
            failures.append(
                f"{label}: {now:.4g} vs baseline {base:.4g} "
                f"({change}, tolerance ±{tolerance:.0%})"
            )
    return failures, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when committed benchmark metrics regress "
        "beyond tolerance"
    )
    parser.add_argument(
        "--current-dir",
        type=Path,
        default=REPO_ROOT,
        help="directory holding the BENCH_*.json files under test "
        "(default: repo root)",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=DEFAULT_BASELINE_DIR,
        help="directory holding the frozen baselines "
        "(default: benchmarks/baselines)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional regression (default 0.20 = 20%%)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        default=None,
        help="treat current artifacts as quick-mode runs: "
        "scale-sensitive metrics are skipped unless the baseline "
        "is quick too",
    )
    args = parser.parse_args(argv)
    failures, lines = check_regressions(
        args.current_dir, args.baseline_dir, args.tolerance, args.quick
    )
    for line in lines:
        print(line)
    if failures:
        print(
            f"\n{len(failures)} benchmark regression(s):", file=sys.stderr
        )
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nall gated benchmark metrics within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
