"""The run report: one JSON artifact describing one driver run.

Drivers, the CLI (``repro cluster --metrics run.json``) and the
benchmarks all emit the same schema, so every performance number in the
repo — per-job shuffle volumes, task-duration percentiles, EM
iterations, filter kill counts, memory peaks — lands in one stable,
diffable place.  ``repro report <run.json>`` renders it back as the
per-job ledger of paper Sections 7.4–7.5.

Schema (``repro.obs/run-report/v1``) — top-level keys:

- ``schema``, ``algorithm``, ``wall_time_s``
- ``dataset``: ``{n, d, ...}`` (free-form but ``n``/``d`` expected)
- ``jobs``: per-MR-job accounting rows (name, task counts, executor,
  shuffle volume, phase seconds, task-duration percentiles + skew)
- ``totals``: ``{mr_jobs, shuffle_records, wall_time_s}``
- ``metrics``: the :class:`~repro.obs.metrics.MetricsRegistry` snapshot
- ``resources``: ``{peak_rss_kb, samples: [...]}``
- ``spans``: the span list (``[]`` when tracing was off)
- ``result``: optional clustering outcome summary

:func:`validate_run_report` is the hand-rolled schema check used by the
tests and the CI smoke step (no jsonschema dependency in the image).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Mapping

from repro.mapreduce.counters import Counters
from repro.obs.context import Observability
from repro.obs.resources import duration_stats, peak_rss_kb

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapreduce.chain import JobChain

SCHEMA_VERSION = "repro.obs/run-report/v1"


def job_summary(name: str, result: Any) -> dict[str, Any]:
    """One per-job accounting row from a :class:`JobResult`."""
    task_times = list(result.map_task_times) + list(result.reduce_task_times)
    return {
        "name": name,
        "map_tasks": result.num_map_tasks,
        "reduce_tasks": result.num_reduce_tasks,
        "executor": result.executor,
        "shuffle_records": result.counters.framework_value(
            Counters.SHUFFLE_RECORDS
        ),
        "shuffled_bytes": result.counters.framework_value(
            Counters.SHUFFLE_BYTES
        ),
        "map_seconds": round(result.phase_seconds("map"), 6),
        "reduce_seconds": round(result.phase_seconds("reduce"), 6),
        "wall_seconds": round(result.wall_time, 6),
        "task_durations": duration_stats(task_times),
        "counters": result.counters.snapshot(),
    }


def build_run_report(
    algorithm: str,
    obs: Observability | None = None,
    chain: "JobChain | None" = None,
    dataset: Mapping[str, Any] | None = None,
    result: Mapping[str, Any] | None = None,
    wall_time_s: float | None = None,
    extra: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the schema-v1 run report from whatever is available.

    Every section degrades gracefully: no chain → empty job table, no
    (or disabled) ``obs`` → empty metrics/spans, so serial algorithms
    and benchmarks can emit comparable artifacts too.
    """
    jobs = (
        [job_summary(step.name, step.result) for step in chain.steps]
        if chain is not None
        else []
    )
    observed = obs is not None and obs.enabled
    if observed:
        obs.tracer.close()
    report: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "algorithm": algorithm,
        "dataset": dict(dataset) if dataset else {},
        "wall_time_s": (
            round(wall_time_s, 6)
            if wall_time_s is not None
            else round(sum(j["wall_seconds"] for j in jobs), 6)
        ),
        "totals": {
            "mr_jobs": len(jobs),
            "shuffle_records": sum(j["shuffle_records"] for j in jobs),
            "shuffled_bytes": sum(j.get("shuffled_bytes", 0) for j in jobs),
            "task_attempts": sum(
                j["map_tasks"] + j["reduce_tasks"] for j in jobs
            ),
        },
        "jobs": jobs,
        "metrics": obs.metrics.snapshot() if observed else {},
        "resources": {
            "peak_rss_kb": peak_rss_kb(),
            "samples": obs.resources.as_dicts() if observed else [],
        },
        "spans": obs.tracer.to_dicts() if observed else [],
        "result": dict(result) if result else {},
    }
    # A run that executed under the live service plane carries a
    # compact view of the telemetry series (last value + window
    # quantiles per series) so the post-mortem artifact links back to
    # what the continuous plane saw.
    if observed and getattr(obs, "telemetry", None) is not None:
        try:
            report["telemetry"] = obs.telemetry.summary()
        except Exception:  # noqa: BLE001 - reports must always build
            pass
    if extra:
        report.update(dict(extra))
    return report


def save_run_report(path: str, report: Mapping[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, default=repr)
        handle.write("\n")


def load_run_report(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# -- validation ---------------------------------------------------------

_TOP_LEVEL: dict[str, type | tuple[type, ...]] = {
    "schema": str,
    "algorithm": str,
    "dataset": dict,
    "wall_time_s": (int, float),
    "totals": dict,
    "jobs": list,
    "metrics": dict,
    "resources": dict,
    "spans": list,
    "result": dict,
}

_JOB_FIELDS: dict[str, type | tuple[type, ...]] = {
    "name": str,
    "map_tasks": int,
    "reduce_tasks": int,
    "executor": str,
    "shuffle_records": int,
    "shuffled_bytes": int,
    "map_seconds": (int, float),
    "reduce_seconds": (int, float),
    "wall_seconds": (int, float),
    "task_durations": dict,
}

_DURATION_FIELDS = ("tasks", "p50_s", "p95_s", "max_s", "mean_s", "skew_ratio")


def validate_run_report(report: Mapping[str, Any]) -> list[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    errors: list[str] = []
    if not isinstance(report, Mapping):
        return [f"report must be a mapping, got {type(report).__name__}"]
    for key, expected in _TOP_LEVEL.items():
        if key not in report:
            errors.append(f"missing top-level key {key!r}")
        elif not isinstance(report[key], expected):
            errors.append(
                f"{key!r} must be {expected}, got {type(report[key]).__name__}"
            )
    if report.get("schema") not in (None,) and report.get("schema") != SCHEMA_VERSION:
        errors.append(
            f"schema is {report.get('schema')!r}, expected {SCHEMA_VERSION!r}"
        )
    for index, job in enumerate(report.get("jobs") or []):
        if not isinstance(job, Mapping):
            errors.append(f"jobs[{index}] must be a mapping")
            continue
        for key, expected in _JOB_FIELDS.items():
            if key not in job:
                errors.append(f"jobs[{index}] missing {key!r}")
            elif not isinstance(job[key], expected):
                errors.append(f"jobs[{index}].{key} must be {expected}")
        durations = job.get("task_durations")
        if isinstance(durations, Mapping):
            for field in _DURATION_FIELDS:
                if field not in durations:
                    errors.append(
                        f"jobs[{index}].task_durations missing {field!r}"
                    )
    metrics = report.get("metrics")
    if isinstance(metrics, Mapping) and metrics:
        for section in ("counters", "gauges", "series", "histograms"):
            if section not in metrics:
                errors.append(f"metrics missing section {section!r}")
    resources = report.get("resources")
    if isinstance(resources, Mapping):
        if "peak_rss_kb" not in resources:
            errors.append("resources missing 'peak_rss_kb'")
        if not isinstance(resources.get("samples", []), list):
            errors.append("resources.samples must be a list")
    for index, span in enumerate(report.get("spans") or []):
        if not isinstance(span, Mapping):
            errors.append(f"spans[{index}] must be a mapping")
            continue
        for field in ("name", "kind", "span_id", "start_s"):
            if field not in span:
                errors.append(f"spans[{index}] missing {field!r}")
    return errors


# -- rendering ----------------------------------------------------------

def render_run_report(report: Mapping[str, Any]) -> str:
    """Human-readable ledger for ``repro report <run.json>``."""
    lines: list[str] = []
    dataset = report.get("dataset") or {}
    shape = ""
    if "n" in dataset and "d" in dataset:
        shape = f" on {dataset['n']} x {dataset['d']}"
    lines.append(
        f"run report — {report.get('algorithm', '?')}{shape} "
        f"({report.get('wall_time_s', 0):.3f}s wall)"
    )

    totals = report.get("totals") or {}
    lines.append(
        f"totals: {totals.get('mr_jobs', 0)} MR jobs, "
        f"{totals.get('shuffle_records', 0)} shuffle records, "
        f"{totals.get('task_attempts', 0)} tasks"
    )

    jobs = report.get("jobs") or []
    if jobs:
        lines.append("")
        lines.append(
            f"{'job':<34} {'maps':>5} {'reds':>5} {'shuffle':>10} "
            f"{'wall(s)':>8} {'p50(ms)':>8} {'p95(ms)':>8} {'skew':>6}"
        )
        for job in jobs:
            stats = job.get("task_durations") or {}
            lines.append(
                f"{job['name']:<34} {job['map_tasks']:>5} "
                f"{job['reduce_tasks']:>5} {job['shuffle_records']:>10} "
                f"{job['wall_seconds']:>8.4f} "
                f"{stats.get('p50_s', 0) * 1e3:>8.2f} "
                f"{stats.get('p95_s', 0) * 1e3:>8.2f} "
                f"{stats.get('skew_ratio', 0):>6.2f}"
            )

    metrics = report.get("metrics") or {}
    counters = metrics.get("counters") or {}
    gauges = metrics.get("gauges") or {}
    series = metrics.get("series") or {}
    if counters or gauges or series:
        lines.append("")
        lines.append("algorithm metrics:")
        for name, value in sorted(gauges.items()):
            lines.append(f"  {name} = {value:g}")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name} = {value:g}")
        for name, values in sorted(series.items()):
            rendered = ", ".join(f"{v:g}" for v in values[:12])
            suffix = ", ..." if len(values) > 12 else ""
            lines.append(f"  {name} = [{rendered}{suffix}]")

    resources = report.get("resources") or {}
    if resources:
        lines.append("")
        lines.append(
            f"resources: peak RSS {resources.get('peak_rss_kb', 0)} KiB, "
            f"{len(resources.get('samples') or [])} samples"
        )

    result = report.get("result") or {}
    if result:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(result.items()))
        lines.append(f"result: {pairs}")

    spans = report.get("spans") or []
    if spans:
        lines.append(f"spans: {len(spans)} recorded (see trace export)")
    return "\n".join(lines)
