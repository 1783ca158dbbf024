"""Spans around each layer's public calls, and the ledger built from them.

The benchmark traces the program from outside: :func:`traced` rebinds
the public functions each layer exposes to timing wrappers for the
duration of one fit, and puts the originals back afterwards.

- ``repro.mr`` stages: the names the drivers call (``run_em_mr``,
  ``run_od_job``, ...) are rebound in the driver modules, because the
  drivers import them by name.
- ``repro.mapreduce.chain``: ``JobChain.run``, one ``job`` span per
  executed job, carrying the task times and counters of its
  ``JobResult``.
- ``repro.mapreduce.executors``: ``make_pool`` of the pool executors,
  counted.
- ``repro.mapreduce.fs``: the npy block reads (``as_block`` and each
  chunk of ``iter_blocks``).  Pool workers are forked from the traced
  process, so they run the wrappers too; they append their spans to a
  spool file per process, which the tracer collects after the fit.

Spans are kept in memory as ``(name, start, end, parent, run id)`` plus
attributes and written out when the benchmark ends.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

#: Stage name of each wrapped driver call, keyed by (module, function).
STAGE_CALLS: dict[tuple[str, str], str] = {
    ("repro.mr.p3c_mr", "run_histogram_job"): "histograms",
    ("repro.mr.p3c_mr", "find_relevant_intervals"): "interval_detection",
    ("repro.mr.p3c_mr", "generate_cluster_cores_mr"): "core_generation",
    ("repro.mr.p3c_mr", "run_em_mr"): "em",
    ("repro.mr.p3c_mr", "run_mvb_jobs"): "outlier_detection",
    ("repro.mr.p3c_mr", "run_od_job"): "outlier_detection",
    ("repro.mr.p3c_mr", "mr_attribute_inspection"): "attribute_inspection",
    ("repro.mr.p3c_mr", "run_tightening_job"): "tightening",
    ("repro.mr.p3c_mr_light", "run_light_membership_job"): "light_membership",
    ("repro.mr.p3c_mr", "build_coreset"): "coreset_summary",
    ("repro.mr.p3c_mr", "run_assign_job"): "coreset_assign",
}
STAGES = tuple(dict.fromkeys(STAGE_CALLS.values()))

#: Job kinds: step names with their digits stripped.
JOB_KINDS = (
    "histogram_building",
    "candidate_generation",
    "candidate_proving",
    "em_init_support_sums",
    "em_init_support_cov",
    "em_init_full_sums",
    "em_init_full_cov",
    "em_iter_sums",
    "em_iter_cov",
    "mvb_center_radius",
    "mvb_moments_sums",
    "mvb_moments_cov",
    "outlier_detection",
    "attribute_inspection_histograms",
    "ai_proving",
    "interval_tightening",
    "light_membership",
    "coreset_summary",
    "coreset_assign",
)

_MIB = float(1 << 20)


def job_kind(step: str) -> str:
    return re.sub(r"\d+", "", step)


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store with a per-thread parent stack.

    ``spool_dir`` receives the spans recorded in forked pool workers
    (one JSON-lines file per process); :meth:`collect_spool` folds them
    in after the fit.
    """

    def __init__(self, spool_dir: Path) -> None:
        self.spans: list[Span] = []
        self.spool_dir = Path(spool_dir)
        self.run_id = ""
        self.pools = 0
        self._pid = os.getpid()
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        stack = self._stack()
        span = Span(
            span_id=self._new_id(),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=stack[-1] if stack else None,
            run_id=self.run_id,
            attrs=attrs,
        )
        stack.append(span.span_id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self._add(span)

    def record(self, name: str, start: float, end: float, **attrs: Any) -> None:
        """Add a finished leaf span under the current parent."""
        stack = self._stack()
        self._add(
            Span(
                span_id=self._new_id(),
                name=name,
                start=start,
                end=end,
                parent=stack[-1] if stack else None,
                run_id=self.run_id,
                attrs=attrs,
            )
        )

    def _add(self, span: Span) -> None:
        if os.getpid() == self._pid:
            with self._lock:
                self.spans.append(span)
            return
        # A forked pool worker: its memory dies with it, so spool.
        span.parent = None
        path = self.spool_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(asdict(span)) + "\n")

    def collect_spool(self) -> None:
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    span = Span(**json.loads(line))
                    span.span_id = self._new_id()
                    self.spans.append(span)
            path.unlink()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


# -- wrappers -------------------------------------------------------------


def _stage_wrapper(tracer: Tracer, stage: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        with tracer.span(f"stage.{stage}"):
            return fn(*args, **kwargs)

    return wrapper


def _job_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    def run(self, name, *args, **kwargs):
        with tracer.span("job", step=name) as span:
            result = fn(self, name, *args, **kwargs)
            span.attrs.update(_job_attrs(result))
            return result

    return run


def _job_attrs(result) -> dict[str, Any]:
    from repro.mapreduce.counters import Counters

    counters = result.counters
    return {
        "map_task_times": list(result.map_task_times),
        "reduce_task_times": list(result.reduce_task_times),
        "shuffle_records": counters.framework_value(Counters.SHUFFLE_RECORDS),
        "shuffle_bytes": counters.framework_value(Counters.SHUFFLE_BYTES),
        "spilled_bytes": counters.framework_value(Counters.SPILLED_BYTES),
        "task_retries": counters.framework_value(Counters.TASK_RETRIES),
    }


def _pool_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    def make_pool(self):
        pool = fn(self)
        if pool is not None:
            tracer.pools += 1
        return pool

    return make_pool


def _as_block_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    def as_block(self):
        start = time.perf_counter()
        keys, block = fn(self)
        tracer.record(
            "fs.read",
            start,
            time.perf_counter(),
            rows=len(block),
            nbytes=len(block) * self.row_nbytes,
        )
        return keys, block

    return as_block


def _iter_blocks_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    def iter_blocks(self, max_rows):
        chunks = fn(self, max_rows)
        while True:
            start = time.perf_counter()
            try:
                keys, block = next(chunks)
            except StopIteration:
                return
            tracer.record(
                "fs.read",
                start,
                time.perf_counter(),
                rows=len(block),
                nbytes=len(block) * self.row_nbytes,
            )
            yield keys, block

    return iter_blocks


@contextmanager
def traced(tracer: Tracer, run_id: str) -> Iterator[None]:
    """Rebind every traced call for the duration of one fit."""
    import importlib

    from repro.mapreduce.chain import JobChain
    from repro.mapreduce.executors import ProcessExecutor, ThreadExecutor
    from repro.mapreduce.fs import NpyRecordStream

    patches: list[tuple[object, str, Callable]] = []
    for (module_name, attr), stage in STAGE_CALLS.items():
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        patches.append((module, attr, _stage_wrapper(tracer, stage, fn)))
    patches.append((JobChain, "run", _job_wrapper(tracer, JobChain.run)))
    for cls in (ProcessExecutor, ThreadExecutor):
        patches.append((cls, "make_pool", _pool_wrapper(tracer, cls.make_pool)))
    patches.append(
        (
            NpyRecordStream,
            "as_block",
            _as_block_wrapper(tracer, NpyRecordStream.as_block),
        )
    )
    patches.append(
        (
            NpyRecordStream,
            "iter_blocks",
            _iter_blocks_wrapper(tracer, NpyRecordStream.iter_blocks),
        )
    )

    saved = [(owner, attr, owner.__dict__.get(attr)) for owner, attr, _ in patches]
    tracer.run_id = run_id
    tracer.pools = 0
    for owner, attr, wrapper in patches:
        setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            if original is None:
                # Inherited (make_pool): drop the override.
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        tracer.collect_spool()


# -- the ledger ------------------------------------------------------------


def _median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def fit_ledger(
    spans: list[Span],
    fit_span: Span,
    *,
    workers: int,
    pools: int,
    metadata: dict[str, Any],
) -> dict[str, float]:
    """Per-layer metrics of one traced fit.

    ``spans`` holds every span recorded during the fit (its run id);
    ``fit_span`` is the span around the ``fit``/``fit_splits`` call.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    stages = [s for s in spans if s.name.startswith("stage.")]
    jobs = [s for s in spans if s.name == "job"]
    reads = [s for s in spans if s.name == "fs.read"]

    out: dict[str, float] = {}
    map_times = [t for j in jobs for t in j.attrs["map_task_times"]]
    reduce_times = [t for j in jobs for t in j.attrs["reduce_task_times"]]
    job_s = sum(j.duration for j in jobs)
    task_s = sum(map_times) + sum(reduce_times)
    max_sum = sum(max(j.attrs["map_task_times"], default=0.0) for j in jobs)
    median_sum = sum(
        _median_or_zero(j.attrs["map_task_times"]) for j in jobs
    )
    out["runtime.jobs"] = len(jobs)
    out["runtime.map_tasks"] = len(map_times)
    out["runtime.reduce_tasks"] = len(reduce_times)
    out["runtime.pools"] = pools
    out["runtime.job_s"] = job_s
    out["runtime.task_s"] = task_s
    out["runtime.overhead_s"] = max(0.0, job_s - task_s / max(1, workers))
    # Time-weighted over jobs: sum of each job's slowest map task over
    # the sum of its median map task.
    out["runtime.task_skew"] = max_sum / median_sum if median_sum > 0 else 0.0
    out["runtime.shuffle_records"] = sum(j.attrs["shuffle_records"] for j in jobs)
    out["runtime.shuffle_mb"] = sum(j.attrs["shuffle_bytes"] for j in jobs) / _MIB
    out["runtime.spilled_mb"] = sum(j.attrs["spilled_bytes"] for j in jobs) / _MIB
    out["runtime.task_retries"] = sum(j.attrs["task_retries"] for j in jobs)

    out["fs.read_calls"] = len(reads)
    out["fs.read_s"] = sum(r.duration for r in reads)
    out["fs.read_mb"] = sum(r.attrs["nbytes"] for r in reads) / _MIB

    stage_total = 0.0
    for stage in STAGES:
        seconds = sum(s.duration for s in stages if s.name == f"stage.{stage}")
        out[f"stage.{stage}_s"] = seconds
        stage_total += seconds
    out["stage.driver_s"] = sum(
        s.duration - sum(c.duration for c in children.get(s.span_id, []))
        for s in stages
    )
    out["stage.unaccounted_s"] = fit_span.duration - stage_total

    for kind in JOB_KINDS:
        of_kind = [j for j in jobs if job_kind(j.attrs["step"]) == kind]
        out[f"job.{kind}_s"] = sum(j.duration for j in of_kind)
        out[f"job.{kind}_jobs"] = len(of_kind)

    iterations = int(metadata.get("em_iterations", 0))
    out["em.iterations"] = iterations
    out["em.s_per_iter"] = (
        (out["job.em_iter_sums_s"] + out["job.em_iter_cov_s"]) / iterations
        if iterations
        else 0.0
    )

    candidates = sum(metadata.get("candidates_per_level", []))
    cores = int(metadata.get("cores_after_redundancy", 0))
    out["core_generation.candidates"] = candidates
    out["core_generation.proving_jobs"] = int(metadata.get("proving_jobs", 0))
    out["core_generation.cores"] = cores
    out["core_generation.cores_per_candidate"] = (
        cores / candidates if candidates else 0.0
    )

    coreset = metadata.get("coreset", {})
    out["coreset.points"] = int(coreset.get("size", 0))
    out["coreset.effective_size"] = float(coreset.get("effective_size", 0.0))
    return out


def is_count(name: str) -> bool:
    """Whether a per-layer metric is a count, which must repeat exactly."""
    return name in {
        "runtime.jobs",
        "runtime.map_tasks",
        "runtime.reduce_tasks",
        "runtime.pools",
        "runtime.shuffle_records",
        "runtime.task_retries",
        "fs.read_calls",
        "em.iterations",
        "coreset.points",
        "serving.batches",
    } or name.startswith("core_generation.") or name.endswith("_jobs")
