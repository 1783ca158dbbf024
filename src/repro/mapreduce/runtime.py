"""Job execution: split -> map (+combine, +partition) -> shuffle -> reduce.

The runtime is layered:

- :mod:`repro.mapreduce.executors` decides *where* task batches run
  (serial / thread pool / process pool) and owns the one retry path
  (:class:`~repro.mapreduce.executors.TaskRunner`);
- :class:`Shuffle` partitions intermediate pairs *inside each map
  task* (map-side partitioning: pre-partitioned output crosses the
  process boundary once and makes per-partition reduce scheduling
  natural) and merges the per-task partition lists between phases;
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
import os
import re
import shutil
import tempfile
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
    ArraySumCombiner,
    BatchMapper,
    Context,
    Job,
    Partitioner,
    fold_uniform_pairs,
    group_sorted_pairs,
)
from repro.mapreduce.spill import (
    DEFAULT_SEGMENT_BYTES,
    SpilledBucket,
    SpilledPartition,
    spill_bucket,
)
from repro.mapreduce.types import (
    ColumnarBucket,
    InputSplit,
    JobConf,
    bucket_nbytes,
    bucket_pairs,
    iter_split_blocks,
    pack_pairs,
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
    speculative: bool = False
    speculation_factor: float = 2.0
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
    pairs out into ``num_partitions`` buckets and accounts for the
    shuffle volume in the task's own counters.  ``gather`` runs in the
    runtime between the phases: it concatenates the per-task buckets
    into one partition payload each (in task order, preserving
    determinism).

    With ``columnar=True`` a bucket whose pairs are uniform —
    scalar/tuple keys, fixed-shape ndarray values — is packed into a
    :class:`~repro.mapreduce.types.ColumnarBucket`, so ``gather``
    concatenates value blocks instead of pair lists and the process
    executor ships one out-of-band buffer per bucket.  Anything
    non-uniform keeps the ``list[tuple]`` representation, which doubles
    as the parity oracle in tests.

    With a ``spill_budget_bytes`` *and* a ``spill_dir``, ``scatter``
    additionally bounds the task's resident payload: columnar buckets
    that would push the retained bytes past the budget are written as
    compressed segment files (:mod:`repro.mapreduce.spill`) and
    replaced by :class:`~repro.mapreduce.spill.SpilledBucket` stand-ins.
    ``shuffle_bytes`` keeps counting logical payload, so spilled runs
    stay comparable — and byte-identical in output — to in-heap runs.
    """

    def __init__(
        self,
        partitioner: Partitioner,
        num_partitions: int,
        columnar: bool = True,
        spill_dir: str | None = None,
        spill_budget_bytes: int | None = None,
        spill_tag: str = "task",
    ) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.partitioner = partitioner
        self.num_partitions = num_partitions
        self.columnar = columnar
        self.spill_dir = spill_dir
        self.spill_budget_bytes = spill_budget_bytes
        self.spill_tag = spill_tag

    def scatter(
        self, pairs: list[tuple[Any, Any]], counters: Counters
    ) -> list[Any]:
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
        spillable = (
            self.spill_dir is not None and self.spill_budget_bytes is not None
        )
        payload: list[Any] = []
        shuffled_bytes = 0
        retained_bytes = 0
        spilled_disk_bytes = 0
        spill_segments = 0
        for pid, bucket in enumerate(buckets):
            packed = pack_pairs(bucket) if self.columnar else None
            chosen: Any = packed if packed is not None else bucket
            size = bucket_nbytes(chosen)
            shuffled_bytes += size
            if (
                spillable
                and isinstance(chosen, ColumnarBucket)
                and len(chosen) > 0
                and retained_bytes + size > self.spill_budget_bytes
            ):
                # Over budget: this bucket's block moves to disk.  Only
                # columnar buckets spill — tuple buckets are the parity
                # oracle and jobs that hit them are small by design.
                spilled = spill_bucket(
                    chosen,
                    self.spill_dir,
                    f"{self.spill_tag}-p{pid}",
                    segment_bytes=min(
                        DEFAULT_SEGMENT_BYTES, self.spill_budget_bytes
                    ),
                )
                spilled_disk_bytes += spilled.disk_bytes
                spill_segments += len(spilled.segments)
                chosen = spilled
            else:
                retained_bytes += size
            payload.append(chosen)
        counters.increment(
            Counters.FRAMEWORK, Counters.SHUFFLE_BYTES, shuffled_bytes
        )
        if spill_segments:
            counters.increment(
                Counters.FRAMEWORK, Counters.SPILLED_BYTES, spilled_disk_bytes
            )
            counters.increment(
                Counters.FRAMEWORK, Counters.SPILL_SEGMENTS, spill_segments
            )
        return payload

    @staticmethod
    def gather(
        task_buckets: Sequence[Sequence[Any]],
        num_partitions: int,
    ) -> list[Any]:
        partitions: list[Any] = []
        for pid in range(num_partitions):
            chunks = [
                buckets[pid] for buckets in task_buckets if len(buckets[pid])
            ]
            partitions.append(Shuffle.merge_buckets(chunks))
        return partitions

    @staticmethod
    def merge_buckets(
        chunks: Sequence[Any],
    ) -> Any:
        """Merge one partition's task-ordered bucket chunks.

        All-columnar chunks with a shared value dtype/shape concatenate
        into one block; chunks containing a spilled bucket stay lazy as
        a :class:`~repro.mapreduce.spill.SpilledPartition` (segments
        are only materialised reducer-side, one at a time); any other
        mix degrades to the tuple representation.
        """
        if chunks and all(isinstance(c, ColumnarBucket) for c in chunks):
            first = chunks[0]
            if all(
                c.block.dtype == first.block.dtype
                and c.block.shape[1:] == first.block.shape[1:]
                for c in chunks[1:]
            ):
                return ColumnarBucket.concat(list(chunks))
        if (
            chunks
            and any(isinstance(c, SpilledBucket) for c in chunks)
            and all(
                isinstance(c, (ColumnarBucket, SpilledBucket)) for c in chunks
            )
        ):
            return SpilledPartition(tuple(chunks))
        merged: list[tuple[Any, Any]] = []
        for chunk in chunks:
            merged.extend(bucket_pairs(chunk))
        return merged


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


def _resolve_block_rows(split: InputSplit, conf: JobConf) -> int | None:
    """Rows per ``BatchMapper`` delivery for one split.

    The explicit ``max_block_rows`` knob wins; otherwise a memory
    budget is translated into a row cap for file-backed splits that
    report their row width (``records.row_nbytes``), sized so one
    resident chunk takes roughly a quarter of the budget.  ``None``
    keeps the historical whole-split delivery.
    """
    if conf.max_block_rows is not None:
        return conf.max_block_rows
    if conf.memory_budget_bytes is None:
        return None
    row_nbytes = getattr(split.records, "row_nbytes", None)
    if not row_nbytes:
        return None
    return max(1, conf.memory_budget_bytes // (4 * int(row_nbytes)))


def _run_map_task(
    job: Job,
    split: InputSplit,
    conf: JobConf,
) -> tuple[Any, Counters, float]:
    """Execute one mapper task over one split.

    Runs the mapper lifecycle, the optional combiner, and — for jobs
    with a reduce phase — map-side partitioning.  The payload is a flat
    pair list for map-only jobs and a per-partition bucket list
    otherwise.  A :class:`BatchMapper` receives the split as one block,
    or — under ``max_block_rows`` / a memory budget — as a stream of
    bounded chunks (multiple ``map_batch`` calls per task).
    """
    started = time.perf_counter()
    counters = Counters()
    ctx = Context(job.cache, counters, task_id=split.split_id, conf=conf)
    mapper = job.mapper_factory()
    mapper.setup(ctx)
    n_records = 0
    blocks = (
        iter_split_blocks(split, _resolve_block_rows(split, conf))
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

    if job.combiner_factory is not None and pairs:
        combiner = job.combiner_factory()
        combined: list[tuple[Any, Any]] | None = None
        if isinstance(combiner, ArraySumCombiner) and conf.sort_keys:
            # Vectorized fast path: one argsort + per-group np.cumsum
            # fold over uniform pairs, bitwise-identical to the scalar
            # loop below (the oracle for anything non-uniform).
            combined = fold_uniform_pairs(pairs)
        if combined is None:
            combine_ctx = Context(
                job.cache, counters, task_id=split.split_id, conf=conf
            )
            for key, values in group_sorted_pairs(pairs, conf.sort_keys):
                combiner.combine(key, values, combine_ctx)
            combined = combine_ctx.drain()
            emitted_keys = {k for k, _ in pairs}
            for key, _ in combined:
                if key not in emitted_keys:
                    raise ValueError(
                        f"combiner emitted new key {key!r}; combiners must "
                        "preserve the key space of their input"
                    )
        pairs = combined
        counters.increment(
            Counters.FRAMEWORK, Counters.COMBINE_OUTPUT_RECORDS, len(pairs)
        )

    payload: Any = pairs
    if conf.num_reducers > 0 and job.reducer_factory is not None:
        shuffle = Shuffle(
            job.partitioner,
            conf.num_reducers,
            columnar=conf.columnar_shuffle,
            spill_dir=conf.spill_dir,
            spill_budget_bytes=conf.memory_budget_bytes,
            spill_tag=f"{conf.name}-m{split.split_id}",
        )
        payload = shuffle.scatter(pairs, counters)
    return payload, counters, time.perf_counter() - started


def _map_payload_validator(job: Job, conf: JobConf):
    """Shuffle-integrity check for one job's map payloads.

    Compares the records present in a map task's payload against the
    record counts the task itself accumulated; a mismatch means the
    payload was corrupted or truncated after emission and fails the
    attempt (see :class:`ShuffleIntegrityError`).
    """
    reduce_job = conf.num_reducers > 0 and job.reducer_factory is not None
    has_combiner = job.combiner_factory is not None

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
            emitted = task_counters.framework_value(Counters.MAP_OUTPUT_RECORDS)
            if has_combiner and emitted > 0:
                expected = task_counters.framework_value(
                    Counters.COMBINE_OUTPUT_RECORDS
                )
            else:
                expected = emitted
        if found != expected:
            raise ShuffleIntegrityError(
                f"map task payload carries {found} records but its counters "
                f"claim {expected} (corrupted shuffle partition?)"
            )

    return validate


def _run_reduce_task(
    job: Job,
    partition_id: int,
    bucket: "ColumnarBucket | list[tuple[Any, Any]]",
    conf: JobConf,
) -> tuple[list[tuple[Any, Any]], Counters, float]:
    """Execute one reducer task over one shuffled partition.

    The partition arrives in either shuffle representation; a columnar
    bucket is unpacked into ``(key, value_row)`` view pairs here, so
    reducers observe exactly the tuple-path input.
    """
    started = time.perf_counter()
    counters = Counters()
    pairs = bucket_pairs(bucket)
    ctx = Context(job.cache, counters, task_id=partition_id, conf=conf)
    assert job.reducer_factory is not None
    reducer = job.reducer_factory()
    reducer.setup(ctx)
    n_groups = 0
    for key, values in group_sorted_pairs(pairs, conf.sort_keys):
        reducer.reduce(key, values, ctx)
        n_groups += 1
    reducer.cleanup(ctx)
    output = ctx.drain()
    counters.increment(Counters.FRAMEWORK, Counters.REDUCE_INPUT_GROUPS, n_groups)
    counters.increment(
        Counters.FRAMEWORK, Counters.REDUCE_OUTPUT_RECORDS, len(output)
    )
    return output, counters, time.perf_counter() - started


_SPILL_IDS = itertools.count(1)


def _prepare_spill(conf: JobConf) -> tuple[JobConf, str]:
    """Resolve the run-scoped spill directory for one budgeted job.

    ``spill_dir=None`` gets a fresh temporary directory; a user-given
    root gets a job-unique subdirectory (job name, pid, sequence
    number) so retries, speculative attempts and concurrent jobs
    sharing the root never collide on segment files.  The caller owns
    the returned directory and removes it when the job finishes —
    orphans from killed attempts vanish with it.
    """
    safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", conf.name) or "job"
    if conf.spill_dir is None:
        path = tempfile.mkdtemp(prefix=f"repro-spill-{safe}-")
    else:
        path = os.path.join(
            conf.spill_dir, f"{safe}-{os.getpid()}-{next(_SPILL_IDS)}"
        )
        os.makedirs(path, exist_ok=True)
    return replace(conf, spill_dir=path), path


def _resolve_broadcast(job: Job, executor: Executor) -> Job:
    """Ship the job's distributed cache once per worker, not per task.

    When the (possibly chaos-wrapped) executor supports cache broadcast
    (the process backend), the job dispatched to tasks is swapped for a
    copy whose cache is a fingerprint-keyed
    :class:`~repro.mapreduce.executors.CacheHandle` — task pickles stay
    O(split), and each pool worker receives the real cache exactly once
    via its initializer.  Identity for every other backend.
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
    task_timeout_s / speculative / speculation_factor:
        The task-lifecycle policies of
        :class:`~repro.mapreduce.executors.TaskRunner`, applied to every
        job of this runtime.

    Every job runs one schedule on every executor: the map phase, then
    the barrier, then the reduce phase — each reduce task waits for
    every map task, as in the paper's chain of Hadoop jobs.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        executor: str | Executor | None = None,
        obs: Any = None,
        fault_plan: FaultPlan | None = None,
        task_timeout_s: float | None = None,
        speculative: bool = False,
        speculation_factor: float = 2.0,
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
            speculative = context.speculative
            speculation_factor = context.speculation_factor
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
        self.speculative = speculative
        self.speculation_factor = speculation_factor
        self.default_executor = resolve_executor(executor, max_workers)
        if fault_plan is not None:
            self.default_executor = ChaosExecutor(
                self.default_executor, fault_plan, events=self.events
            )
        self.history: list[JobResult] = []
        self.obs = obs
        if obs is not None:
            obs.observe_events(self.events)

    # -- public API ---------------------------------------------------

    def run(self, job: Job, splits: Sequence[InputSplit], conf: JobConf) -> JobResult:
        """Run one job over pre-computed input splits."""
        spill_root: str | None = None
        if (
            conf.memory_budget_bytes is not None
            and conf.num_reducers > 0
            and job.reducer_factory is not None
        ):
            # Resolve the job's spill directory up front so every task
            # (local or in a pool worker) sees the same path via conf;
            # the whole tree goes away with the job, orphaned segments
            # from retried or speculative attempts included.
            conf, spill_root = _prepare_spill(conf)
        try:
            return self._run(job, splits, conf)
        finally:
            if spill_root is not None:
                shutil.rmtree(spill_root, ignore_errors=True)

    def _run(
        self, job: Job, splits: Sequence[InputSplit], conf: JobConf
    ) -> JobResult:
        started = time.perf_counter()
        counters = Counters()
        executor = self.default_executor
        job = _resolve_broadcast(job, executor)
        runner = TaskRunner(
            executor,
            self.events,
            conf.name,
            conf.max_task_attempts,
            conf.retry_backoff_s,
            task_timeout_s=self.task_timeout_s,
            speculative=self.speculative,
            speculation_factor=self.speculation_factor,
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
        result = JobResult(
            output=output,
            counters=counters,
            conf=conf,
            wall_time=wall_time,
            executor=executor.name,
            map_task_times=map_times,
            reduce_task_times=reduce_times,
            events=self.events.events[first_event:],
        )
        self.history.append(result)
        return result

    # -- accounting -----------------------------------------------------

    def total_counters(self) -> Counters:
        """Aggregate counters across every job this runtime executed."""
        total = Counters()
        for result in self.history:
            total.merge(result.counters)
        return total

    @property
    def jobs_run(self) -> int:
        return len(self.history)
