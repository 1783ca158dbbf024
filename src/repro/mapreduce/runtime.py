"""Job execution: split -> map (+partition) -> shuffle -> reduce.

The runtime is layered:

- :mod:`repro.mapreduce.executors` decides *where* task attempts run
  (serial / thread pool / process pool) and owns the one task
  lifecycle (:class:`~repro.mapreduce.executors.TaskRunner`);
- :class:`Shuffle` partitions intermediate pairs *inside each map
  task* (map-side partitioning: pre-partitioned output crosses the
  process boundary once and makes per-partition reduce scheduling
  natural) and concatenates the per-task partition lists between
  phases;
- this module composes them: both the map and the reduce phase run
  through the same executor, so reducers parallelise exactly like
  mappers, and the reduce phase starts only once every map task has
  settled (the barrier of a Hadoop job).

Output is deterministic for every backend: results are collected in
task order and each reduce partition re-sorts its pairs, so completion
order cannot leak into the output.

Fault tolerance mirrors Hadoop's task model: a failing task (mapper or
reducer raising any exception) is retried from scratch up to
``JobConf.max_task_attempts`` times — tasks are pure functions of their
split, so re-execution is always safe — and the job fails with
:class:`TaskFailedError` only when one task exhausts its attempts.
Every retry is counted in ``framework.task_retries`` (exhausted tasks
included) and every attempt is visible in the runtime's event stream.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

from repro.mapreduce.counters import Counters
from repro.mapreduce.events import Event, EventKind, EventLog
from repro.mapreduce.executors import (
    CacheHandle,
    Executor,
    TaskFailedError,
    TaskRunner,
    TaskTimeoutError,
    resolve_executor,
)
from repro.mapreduce.faults import ChaosExecutor, FaultPlan
from repro.mapreduce.job import (
    BatchMapper,
    Context,
    Job,
    Partitioner,
    group_sorted_pairs,
)
from repro.mapreduce.types import (
    InputSplit,
    JobConf,
    bucket_nbytes,
    iter_split_blocks,
)

#: Backwards-compatible alias; the canonical name lives on ``Counters``.
TASK_RETRIES = Counters.TASK_RETRIES

__all__ = [
    "JobResult",
    "MapReduceRuntime",
    "RuntimeContext",
    "Shuffle",
    "ShuffleIntegrityError",
    "TaskFailedError",
    "TaskTimeoutError",
    "TASK_RETRIES",
    "new_run_id",
]

_RUN_IDS = itertools.count(1)


def new_run_id(prefix: str = "run") -> str:
    """Process-unique run identifier (``chain-3``); cheap, monotone."""
    return f"{prefix}-{next(_RUN_IDS)}"


@dataclass(frozen=True)
class RuntimeContext:
    """Injected wiring for one chain's runtime (the service-plane seam).

    Historically every :class:`MapReduceRuntime` constructed its own
    executor and event log, so only one chain could sensibly exist per
    process.  A context inverts that ownership: the scheduler (or a
    test) decides the executor — typically one whose ``slot_lease`` is
    bound to the shared fair-share pool — the per-chain event log, the
    run identity and the fault/timeout policies, and hands the bundle
    to the runtime.  When a context is given it *fully* determines the
    runtime's wiring; the runtime's own keyword defaults are ignored.
    """

    executor: "str | Executor | None" = None
    max_workers: int | None = None
    events: EventLog | None = None
    run_id: str | None = None
    tenant: str = "default"
    fault_plan: FaultPlan | None = None
    task_timeout_s: float | None = None
    #: Per-run observability scope (``Observability.for_run``); kept as
    #: ``Any`` so the mapreduce layer stays import-free of ``repro.obs``.
    obs: Any = None


class ShuffleIntegrityError(RuntimeError):
    """A map task's payload disagrees with its own counters.

    The in-process analogue of Hadoop's shuffle checksum verification:
    every map task accounts for the records it emitted, so a corrupted
    or truncated partition list is detectable without trusting the
    transport.  Raised inside the task-settlement path, it is treated
    exactly like a task failure — the attempt is retried from scratch.
    """


class Shuffle:
    """Partitioning of intermediate pairs, split across the two sides.

    ``scatter`` runs map-side, inside each map task: it fans the task's
    pairs out into ``num_partitions`` pair lists and accounts for the
    shuffle volume in the task's own counters.  ``gather`` runs in the
    runtime between the phases: it concatenates the per-task lists
    into one partition each, in task order, so the reducers' input is
    deterministic.
    """

    def __init__(self, partitioner: Partitioner, num_partitions: int) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.partitioner = partitioner
        self.num_partitions = num_partitions

    def scatter(
        self, pairs: list[tuple[Any, Any]], counters: Counters
    ) -> list[list[tuple[Any, Any]]]:
        buckets: list[list[tuple[Any, Any]]] = [
            [] for _ in range(self.num_partitions)
        ]
        for key, value in pairs:
            pid = self.partitioner.partition(key, self.num_partitions)
            if not 0 <= pid < self.num_partitions:
                raise ValueError(
                    f"partitioner returned {pid} for {self.num_partitions} "
                    "reducers"
                )
            buckets[pid].append((key, value))
        counters.increment(Counters.FRAMEWORK, Counters.SHUFFLE_RECORDS, len(pairs))
        counters.increment(
            Counters.FRAMEWORK, Counters.SHUFFLE_BYTES, bucket_nbytes(pairs)
        )
        return buckets

    @staticmethod
    def gather(
        task_buckets: Sequence[Sequence[list[tuple[Any, Any]]]],
        num_partitions: int,
    ) -> list[list[tuple[Any, Any]]]:
        partitions: list[list[tuple[Any, Any]]] = [
            [] for _ in range(num_partitions)
        ]
        for buckets in task_buckets:
            for partition, bucket in zip(partitions, buckets):
                partition.extend(bucket)
        return partitions


@dataclass
class JobResult:
    """Output pairs plus accounting for one executed job."""

    output: list[tuple[Any, Any]]
    counters: Counters
    conf: JobConf
    wall_time: float
    executor: str = "serial"
    map_task_times: list[float] = field(default_factory=list)
    reduce_task_times: list[float] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)

    @property
    def values(self) -> list[Any]:
        return [value for _, value in self.output]

    @property
    def num_map_tasks(self) -> int:
        return len(self.map_task_times)

    @property
    def num_reduce_tasks(self) -> int:
        return len(self.reduce_task_times)

    def phase_seconds(self, phase: str) -> float:
        """Wall time of one phase (``"map"`` / ``"reduce"``), from events."""
        return sum(
            e.duration_s or 0.0
            for e in self.events
            if e.kind == EventKind.PHASE_FINISH and e.phase == phase
        )

    def as_dict(self) -> dict[Any, Any]:
        """Output pairs as a dict (requires unique keys)."""
        out: dict[Any, Any] = {}
        for key, value in self.output:
            if key in out:
                raise ValueError(f"duplicate output key {key!r}")
            out[key] = value
        return out


def _run_map_task(
    job: Job,
    split: InputSplit,
    conf: JobConf,
) -> tuple[Any, Counters, float]:
    """Execute one mapper task over one split.

    Runs the mapper lifecycle and — for jobs with a reduce phase —
    map-side partitioning.  The payload is a flat pair list for
    map-only jobs and a per-partition bucket list otherwise.  A
    :class:`BatchMapper` receives the split as one block, or — under
    a memory budget, for file-backed splits — as a stream of bounded
    chunks (multiple ``map_batch`` calls per task).
    """
    started = time.perf_counter()
    counters = Counters()
    ctx = Context(job.cache, counters, task_id=split.split_id, conf=conf)
    mapper = job.mapper_factory()
    mapper.setup(ctx)
    n_records = 0
    blocks = (
        iter_split_blocks(split, conf.memory_budget_bytes)
        if isinstance(mapper, BatchMapper)
        else None
    )
    if blocks is not None:
        for keys, block in blocks:
            mapper.map_batch(keys, block, ctx)
            n_records += len(keys)
    else:
        for key, value in split:
            mapper.map(key, value, ctx)
            n_records += 1
    mapper.cleanup(ctx)
    pairs = ctx.drain()
    counters.increment(Counters.FRAMEWORK, Counters.MAP_INPUT_RECORDS, n_records)
    counters.increment(Counters.FRAMEWORK, Counters.MAP_OUTPUT_RECORDS, len(pairs))

    payload: Any = pairs
    if conf.num_reducers > 0 and job.reducer_factory is not None:
        payload = Shuffle(job.partitioner, conf.num_reducers).scatter(
            pairs, counters
        )
    return payload, counters, time.perf_counter() - started


def _map_payload_validator(job: Job, conf: JobConf):
    """Shuffle-integrity check for one job's map payloads.

    Compares the records present in a map task's payload against the
    record counts the task itself accumulated; a mismatch means the
    payload was corrupted or truncated after emission and fails the
    attempt (see :class:`ShuffleIntegrityError`).
    """
    reduce_job = conf.num_reducers > 0 and job.reducer_factory is not None

    def validate(payload: Any, task_counters: Counters) -> None:
        if reduce_job:
            if len(payload) != conf.num_reducers:
                raise ShuffleIntegrityError(
                    f"map task produced {len(payload)} shuffle partitions, "
                    f"expected {conf.num_reducers}"
                )
            found = sum(len(bucket) for bucket in payload)
            expected = task_counters.framework_value(Counters.SHUFFLE_RECORDS)
        else:
            found = len(payload)
            expected = task_counters.framework_value(Counters.MAP_OUTPUT_RECORDS)
        if found != expected:
            raise ShuffleIntegrityError(
                f"map task payload carries {found} records but its counters "
                f"claim {expected} (corrupted shuffle partition?)"
            )

    return validate


def _run_reduce_task(
    job: Job,
    partition_id: int,
    pairs: list[tuple[Any, Any]],
    conf: JobConf,
) -> tuple[list[tuple[Any, Any]], Counters, float]:
    """Execute one reducer task over one shuffled partition."""
    started = time.perf_counter()
    counters = Counters()
    ctx = Context(job.cache, counters, task_id=partition_id, conf=conf)
    assert job.reducer_factory is not None
    reducer = job.reducer_factory()
    reducer.setup(ctx)
    n_groups = 0
    for key, values in group_sorted_pairs(pairs):
        reducer.reduce(key, values, ctx)
        n_groups += 1
    reducer.cleanup(ctx)
    output = ctx.drain()
    counters.increment(Counters.FRAMEWORK, Counters.REDUCE_INPUT_GROUPS, n_groups)
    counters.increment(
        Counters.FRAMEWORK, Counters.REDUCE_OUTPUT_RECORDS, len(output)
    )
    return output, counters, time.perf_counter() - started


def _resolve_broadcast(job: Job, executor: Executor) -> Job:
    """Ship the job's distributed cache once per worker, not per task.

    When the (possibly chaos-wrapped) executor supports cache broadcast
    (the process backend), the job dispatched to tasks is swapped for a
    copy whose cache is a fingerprint-keyed
    :class:`~repro.mapreduce.executors.CacheHandle` — task pickles stay
    O(split), and each pool worker loads the real cache at most once,
    from the file the executor localised it to.  Identity for every
    other backend.
    """
    base = executor
    while isinstance(base, ChaosExecutor):
        base = base.inner
    broadcast = getattr(base, "broadcast", None)
    if (
        broadcast is None
        or len(job.cache) == 0
        or isinstance(job.cache, CacheHandle)
    ):
        return job
    return replace(job, cache=broadcast(job.cache))


class MapReduceRuntime:
    """Executes :class:`~repro.mapreduce.job.Job` specifications.

    Parameters
    ----------
    max_workers:
        Worker count for pool-backed executors.  With ``executor=None``
        the historical auto rule applies: ``max_workers`` > 1 selects
        the process pool, anything else the serial executor.
    executor:
        Backend selection: ``"serial"``, ``"thread"``, ``"process"``,
        an :class:`~repro.mapreduce.executors.Executor` instance, or
        ``None`` for the auto rule.  Every job of this runtime runs on
        it.
    obs:
        Optional :class:`repro.obs.Observability` context.  When given
        (and enabled) its event bridge subscribes to this runtime's
        event log, deriving job/phase/task spans, memory samples and
        task-duration histograms from the lifecycle stream.
    fault_plan:
        Optional :class:`~repro.mapreduce.faults.FaultPlan`.  When set,
        the executor is wrapped in a
        :class:`~repro.mapreduce.faults.ChaosExecutor` announcing its
        injections on this runtime's event log.  ``None`` (default) is
        fully inert.
    task_timeout_s:
        The per-attempt deadline of
        :class:`~repro.mapreduce.executors.TaskRunner`, applied to every
        job of this runtime.

    Every job runs one schedule on every executor: the map phase, then
    the barrier, then the reduce phase — each reduce task waits for
    every map task, as in the paper's chain of Hadoop jobs.

    Every job of a runtime runs on its executor's one worker pool.
    :meth:`close` (or leaving a ``with`` block) releases it when the
    executor was resolved here from a name or the auto rule; an
    executor handed in as an instance belongs to the caller, who
    closes it.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        executor: str | Executor | None = None,
        obs: Any = None,
        fault_plan: FaultPlan | None = None,
        task_timeout_s: float | None = None,
        context: RuntimeContext | None = None,
    ) -> None:
        if context is not None:
            # An injected context fully determines the wiring; the other
            # keyword defaults are ignored (except obs, which may still
            # be passed explicitly and falls back to the context's).
            max_workers = context.max_workers
            executor = context.executor
            fault_plan = context.fault_plan
            task_timeout_s = context.task_timeout_s
            if obs is None:
                obs = context.obs
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.context = context
        self.run_id = context.run_id if context is not None else None
        if context is not None and context.events is not None:
            self.events = context.events
        else:
            self.events = EventLog(run_id=self.run_id)
        self.task_timeout_s = task_timeout_s
        self._owns_executor = not isinstance(executor, Executor)
        self.default_executor = resolve_executor(executor, max_workers)
        if fault_plan is not None:
            self.default_executor = ChaosExecutor(
                self.default_executor, fault_plan, events=self.events
            )
        self.obs = obs
        if obs is not None:
            obs.observe_events(self.events)

    # -- public API ---------------------------------------------------

    def close(self) -> None:
        """End the chain: join the worker pool of an executor this
        runtime resolved itself.  A later job starts a new pool."""
        if self._owns_executor:
            self.default_executor.close()

    def __enter__(self) -> "MapReduceRuntime":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def run(self, job: Job, splits: Sequence[InputSplit], conf: JobConf) -> JobResult:
        """Run one job over pre-computed input splits."""
        started = time.perf_counter()
        counters = Counters()
        executor = self.default_executor
        job = _resolve_broadcast(job, executor)
        runner = TaskRunner(
            executor,
            self.events,
            conf.name,
            conf.max_task_attempts,
            task_timeout_s=self.task_timeout_s,
        )
        first_event = len(self.events)
        self.events.emit(EventKind.JOB_START, conf.name)

        map_results = runner.run_phase(
            "map",
            _run_map_task,
            [(job, split, conf) for split in splits],
            [split.split_id for split in splits],
            counters,
            validate=_map_payload_validator(job, conf),
        )
        map_outputs = [payload for payload, _ in map_results]
        map_times = [elapsed for _, elapsed in map_results]

        reduce_times: list[float] = []
        if conf.num_reducers == 0 or job.reducer_factory is None:
            output = [pair for pairs in map_outputs for pair in pairs]
        else:
            # The barrier: every reduce task starts only after every map
            # task has settled.
            partitions = Shuffle.gather(map_outputs, conf.num_reducers)
            reduce_results = runner.run_phase(
                "reduce",
                _run_reduce_task,
                [
                    (job, pid, partitions[pid], conf)
                    for pid in range(conf.num_reducers)
                ],
                list(range(conf.num_reducers)),
                counters,
            )
            output = [
                pair for part_output, _ in reduce_results for pair in part_output
            ]
            reduce_times = [elapsed for _, elapsed in reduce_results]

        wall_time = time.perf_counter() - started
        self.events.emit(
            EventKind.JOB_FINISH,
            conf.name,
            duration_s=wall_time,
            counters=counters.snapshot(),
        )
        return JobResult(
            output=output,
            counters=counters,
            conf=conf,
            wall_time=wall_time,
            executor=executor.name,
            map_task_times=map_times,
            reduce_task_times=reduce_times,
            events=self.events.events[first_event:],
        )
