"""Driver helper for multi-job pipelines.

P3C+-MR is a *chain* of MapReduce jobs whose count itself matters (the
paper attributes P3C+-MR's higher runtime to its larger job count and
EM iterations, Section 7.5.2).  ``JobChain`` runs jobs against one
runtime and keeps a per-step ledger so drivers and the cost model can
report "number of MR jobs" and shuffle volumes faithfully.  The ledger
holds counters and timings, not outputs: a job's output belongs to the
caller that ran it and is freed when the caller drops it.  Each step's
shape is the driver's: it passes the reducer count (0 for map-only
jobs, 1 for the single-reducer aggregations), and the runtime runs the
step as one map → shuffle → reduce barrier.

Chains are also the recovery unit: with a
:class:`~repro.mapreduce.fs.CheckpointStore` attached, every completed
job's output is persisted under the run directory, keyed by chain
position/name and an input fingerprint chained over the upstream
history.  A failed multi-job run resumed with ``resume=True`` replays
the driver, restores every job whose fingerprint still matches
(emitting a ``job_skipped`` event instead of executing), and re-runs
only the suffix from the first stale or missing entry — on huge data
sets that turns "lost an hour to one bad task" into "replay one job".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Sequence

from repro.mapreduce.counters import Counters
from repro.mapreduce.events import EventKind
from repro.mapreduce.fs import CheckpointStore, chain_fingerprint
from repro.mapreduce.job import Job
from repro.mapreduce.runtime import (
    JobResult,
    MapReduceRuntime,
    RuntimeContext,
    new_run_id,
)
from repro.mapreduce.types import InputSplit, JobConf


@dataclass
class ChainStep:
    """One executed step of a job chain.

    ``result`` is the job's :class:`JobResult` without its output pairs
    (conf, counters and timings stay): the chain keeps the ledger, and
    the caller that ran the job holds the only reference to its output.
    """

    name: str
    result: JobResult
    #: True when the step was restored from a checkpoint, not executed.
    restored: bool = False

    @property
    def shuffle_records(self) -> int:
        return self.result.counters.framework_value(Counters.SHUFFLE_RECORDS)


class JobChain:
    """Runs a sequence of jobs and records per-step accounting.

    Parameters
    ----------
    checkpoint:
        A :class:`~repro.mapreduce.fs.CheckpointStore` (or a directory
        path for one), enabling per-job output persistence.  ``None``
        disables checkpointing entirely.
    resume:
        When true, a job whose key + input fingerprint matches the
        store is *restored* — its persisted output becomes the step
        result, a ``job_skipped`` event is emitted, and no tasks run.
        When false the store is still written, but never read.
    memory_budget_bytes:
        Out-of-core knob stamped onto every step's :class:`JobConf`: a
        resident-input budget that bounds ``BatchMapper`` chunk sizes
        for file-backed splits.  ``None`` (default) delivers whole
        splits.
    """

    def __init__(
        self,
        runtime: MapReduceRuntime | RuntimeContext,
        checkpoint: CheckpointStore | str | Path | None = None,
        resume: bool = False,
        run_id: str | None = None,
        memory_budget_bytes: int | None = None,
    ) -> None:
        if isinstance(runtime, RuntimeContext):
            # Service-plane path: the scheduler hands the chain a
            # pre-wired context instead of a runtime.
            runtime = MapReduceRuntime(context=runtime)
        self.runtime = runtime
        self.run_id = run_id or getattr(runtime, "run_id", None) or new_run_id(
            "chain"
        )
        self.steps: list[ChainStep] = []
        if checkpoint is not None and not isinstance(checkpoint, CheckpointStore):
            checkpoint = CheckpointStore(checkpoint)
        self.checkpoint = checkpoint
        self.resume = resume
        self.memory_budget_bytes = memory_budget_bytes
        self._fingerprint = ""

    def run(
        self,
        name: str,
        job: Job,
        splits: Sequence[InputSplit],
        num_reducers: int = 1,
        num_splits: int | None = None,
        **extra: Any,
    ) -> JobResult:
        """Run ``job`` over ``splits`` and log it as step ``name``."""
        conf = JobConf(
            name=name,
            num_splits=num_splits if num_splits is not None else len(splits),
            num_reducers=num_reducers,
            memory_budget_bytes=self.memory_budget_bytes,
            extra=extra,
        )
        if self.checkpoint is not None:
            return self._run_checkpointed(name, job, splits, conf)
        result = self.runtime.run(job, splits, conf)
        self._log(name, result)
        return result

    def _log(self, name: str, result: JobResult, restored: bool = False) -> None:
        self.steps.append(
            ChainStep(name, replace(result, output=[]), restored=restored)
        )

    def _run_checkpointed(
        self,
        name: str,
        job: Job,
        splits: Sequence[InputSplit],
        conf: JobConf,
    ) -> JobResult:
        assert self.checkpoint is not None
        key = CheckpointStore.job_key(len(self.steps), name)
        fingerprint = chain_fingerprint(self._fingerprint, name, conf, splits)
        if self.resume:
            stored = self.checkpoint.load(key, fingerprint)
            if stored is not None:
                output, meta = stored
                result = JobResult(
                    output=output,
                    counters=Counters.from_snapshot(meta.get("counters", {})),
                    conf=conf,
                    wall_time=float(meta.get("wall_time", 0.0)),
                    executor="checkpoint",
                    map_task_times=list(meta.get("map_task_times", [])),
                    reduce_task_times=list(meta.get("reduce_task_times", [])),
                )
                self.runtime.events.emit(
                    EventKind.JOB_SKIPPED, name, duration_s=result.wall_time
                )
                self._log(name, result, restored=True)
                self._fingerprint = fingerprint
                return result
        result = self.runtime.run(job, splits, conf)
        self.checkpoint.save(
            key,
            fingerprint,
            result.output,
            meta={
                "counters": result.counters.snapshot(),
                "wall_time": result.wall_time,
                "executor": result.executor,
                "map_task_times": list(result.map_task_times),
                "reduce_task_times": list(result.reduce_task_times),
            },
        )
        self._log(name, result)
        self._fingerprint = fingerprint
        return result

    @property
    def num_jobs(self) -> int:
        return len(self.steps)

    @property
    def num_restored_jobs(self) -> int:
        """Steps restored from the checkpoint store instead of executed."""
        return sum(1 for step in self.steps if step.restored)

    @property
    def total_wall_time(self) -> float:
        return sum(step.result.wall_time for step in self.steps)

    @property
    def total_shuffle_records(self) -> int:
        return sum(step.shuffle_records for step in self.steps)

    def total_map_input_records(self) -> int:
        return sum(
            step.result.counters.framework_value(Counters.MAP_INPUT_RECORDS)
            for step in self.steps
        )

    def report(self) -> str:
        """Human-readable per-step ledger.

        One row per executed job with its map/reduce task counts, the
        executor backend it ran on (``checkpoint`` for restored steps),
        shuffle volume and the phase wall times measured by the
        runtime's event stream.
        """
        header = (
            f"{'step':<34} {'maps':>5} {'reds':>5} {'executor':>8} "
            f"{'shuffle':>10} {'map(s)':>8} {'reduce(s)':>9} {'wall(s)':>8}"
        )
        lines = [header]
        for step in self.steps:
            result = step.result
            lines.append(
                f"{step.name:<34} {result.num_map_tasks:>5} "
                f"{result.num_reduce_tasks:>5} {result.executor:>8} "
                f"{step.shuffle_records:>10} {result.phase_seconds('map'):>8.4f} "
                f"{result.phase_seconds('reduce'):>9.4f} {result.wall_time:>8.4f}"
            )
        total_maps = sum(s.result.num_map_tasks for s in self.steps)
        total_reds = sum(s.result.num_reduce_tasks for s in self.steps)
        lines.append(
            f"{f'TOTAL ({self.num_jobs} jobs)':<34} {total_maps:>5} "
            f"{total_reds:>5} {'':>8} {self.total_shuffle_records:>10} "
            f"{sum(s.result.phase_seconds('map') for s in self.steps):>8.4f} "
            f"{sum(s.result.phase_seconds('reduce') for s in self.steps):>9.4f} "
            f"{self.total_wall_time:>8.4f}"
        )
        return "\n".join(lines)
