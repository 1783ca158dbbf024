"""Pluggable task executors and the unified task lifecycle.

The runtime delegates *how* a batch of tasks runs to an
:class:`Executor` backend:

``SerialExecutor``
    In-process, in-order — fully deterministic, the default.
``ThreadExecutor``
    A thread pool.  The P3C+ mappers are NumPy-heavy and release the
    GIL inside vectorised kernels, so threads overlap real work without
    any pickling cost.
``ProcessExecutor``
    A process pool for CPU-bound pure-Python tasks.  Task functions,
    their arguments and their outputs must be picklable.

*What* a task's lifecycle is — first attempt, Hadoop-style retry with
optional exponential backoff, retry counting, per-attempt timeouts,
speculative re-execution of stragglers, lifecycle events — lives in
exactly one place, :class:`TaskRunner`, shared by the map and reduce
phases.  First attempts of a phase are dispatched through the executor
as one batch; retries re-run in-process (tasks are pure functions of
their arguments, so the backend cannot change the output).

A pool-backed executor starts one pool on first use (:meth:`~Executor.pool`)
and every phase of every job it runs reuses it, so a job chain pays the
pool start-up once, not once per job.  :meth:`~Executor.close` joins the
pool at the end of the chain; a pool that broke (a dead worker) or was
left running an abandoned attempt is retired instead, and the next batch
starts a fresh one.

Executors also expose two *wrapping hooks* (``wrap_calls`` for a
phase's first-attempt batch, ``wrap_call`` for individual re-dispatched
attempts).  The base implementations are the identity, costing nothing;
:class:`~repro.mapreduce.faults.ChaosExecutor` overrides them to
inject deterministic faults without the runner knowing chaos exists.
"""

from __future__ import annotations

import os
import pickle
import shutil
import statistics
import tempfile
import threading
import time
import weakref
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.counters import Counters
from repro.mapreduce.events import EventKind, EventLog


class TaskFailedError(RuntimeError):
    """A task failed on every allowed attempt.

    Carries the job-level :class:`Counters` accumulated up to the
    failure (including ``framework.task_retries`` for the exhausted
    task), so retry accounting survives even when no ``JobResult`` is
    produced.
    """

    def __init__(
        self,
        phase: str,
        task_id: int,
        attempts: int,
        cause: Exception,
        counters: Counters | None = None,
    ):
        super().__init__(
            f"{phase} task {task_id} failed after {attempts} attempt(s): "
            f"{cause!r}"
        )
        self.phase = phase
        self.task_id = task_id
        self.attempts = attempts
        self.cause = cause
        self.counters = counters


class TaskTimeoutError(RuntimeError):
    """One task attempt exceeded ``task_timeout_s`` and was abandoned.

    Mirrors Hadoop's ``mapreduce.task.timeout`` kill: the attempt is
    treated exactly like a failed attempt — retried while the budget
    lasts, fatal (as the ``cause`` of :class:`TaskFailedError`) once
    exhausted.
    """

    def __init__(self, phase: str, task_id: int, timeout_s: float):
        super().__init__(
            f"{phase} task {task_id} exceeded the {timeout_s:g}s task timeout"
        )
        self.phase = phase
        self.task_id = task_id
        self.timeout_s = timeout_s


@dataclass(frozen=True)
class TaskOutcome:
    """Result of one task attempt: a value or a captured exception."""

    value: Any = None
    error: Exception | None = None

    @classmethod
    def capture(cls, fn: Callable[..., Any], args: tuple) -> "TaskOutcome":
        try:
            return cls(value=fn(*args))
        except Exception as error:  # noqa: BLE001 - any task error retries
            return cls(error=error)


class LeaseStats:
    """Thread-safe lease accounting, sampled by the telemetry plane.

    The executor seam (:class:`_LeasedPool` / :func:`_run_inline`)
    updates these around every leased dispatch, so the service's
    telemetry sampler can read live per-chain slot pressure — task
    attempts in flight, cumulative slot-wait — without touching the
    scheduler's own ledger.
    """

    __slots__ = ("_lock", "acquired_total", "released_total",
                 "wait_s_total", "last_wait_s")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.acquired_total = 0
        self.released_total = 0
        self.wait_s_total = 0.0
        self.last_wait_s = 0.0

    def on_acquired(self, waited_s: float) -> None:
        waited_s = max(0.0, float(waited_s))
        with self._lock:
            self.acquired_total += 1
            self.wait_s_total += waited_s
            self.last_wait_s = waited_s

    def on_released(self) -> None:
        with self._lock:
            self.released_total += 1

    def inflight(self) -> int:
        with self._lock:
            return self.acquired_total - self.released_total

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "acquired_total": self.acquired_total,
                "released_total": self.released_total,
                "inflight": self.acquired_total - self.released_total,
                "wait_s_total": round(self.wait_s_total, 6),
                "last_wait_s": round(self.last_wait_s, 6),
            }


class SlotLease:
    """Cooperative slot admission: the scheduler's seam into executors.

    An executor carrying a lease (:attr:`Executor.slot_lease`) holds
    exactly one slot per in-flight task: ``acquire()`` runs before each
    dispatch and ``release()`` when the attempt completes, so a
    scheduler (see :mod:`repro.mapreduce.scheduler`) can interleave
    task batches from many concurrent chains on one bounded pool.
    Implementations must be thread-safe — a chain's driver thread
    acquires (batch dispatch, the timeout/speculation monitor) while
    releases arrive on pool callback threads.  No slot is ever held
    while waiting for another (acquire-per-task, release-at-settle), so
    leases cannot deadlock across chains.
    """

    _stats_guard = threading.Lock()

    def acquire(self) -> None:
        raise NotImplementedError

    def release(self) -> None:
        raise NotImplementedError

    def stats(self) -> LeaseStats:
        """Lazily-created per-lease accounting (telemetry sampling)."""
        stats = getattr(self, "_stats", None)
        if stats is None:
            with SlotLease._stats_guard:
                stats = getattr(self, "_stats", None)
                if stats is None:
                    stats = LeaseStats()
                    self._stats = stats
        return stats


class _LeasedPool:
    """Wraps a task pool so every submitted call holds one lease slot
    until its future settles.  Done callbacks fire exactly once —
    including for cancelled futures — so accounting balances on every
    path, and a submit that itself raises releases eagerly."""

    def __init__(self, pool: Any, lease: SlotLease) -> None:
        self._pool = pool
        self._lease = lease

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        stats = self._lease.stats()
        started = time.monotonic()
        self._lease.acquire()
        stats.on_acquired(time.monotonic() - started)
        try:
            future = self._pool.submit(fn, *args)
        except BaseException:
            self._lease.release()
            stats.on_released()
            raise

        def _settle(_f: Future) -> None:
            self._lease.release()
            stats.on_released()

        future.add_done_callback(_settle)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)


def _run_inline(
    fn: Callable[..., Any],
    calls: Sequence[tuple],
    lease: SlotLease | None,
) -> list[TaskOutcome]:
    """In-process batch execution, lease-gated when a lease is set."""
    if lease is None:
        return [TaskOutcome.capture(fn, args) for args in calls]
    outcomes: list[TaskOutcome] = []
    stats = lease.stats()
    for args in calls:
        started = time.monotonic()
        lease.acquire()
        stats.on_acquired(time.monotonic() - started)
        try:
            outcomes.append(TaskOutcome.capture(fn, args))
        finally:
            lease.release()
            stats.on_released()
    return outcomes


class Executor:
    """Backend contract: run a batch of task calls, never raise.

    ``run_batch`` returns one :class:`TaskOutcome` per call, in call
    order, regardless of completion order — ordering (and therefore
    output determinism) is the runner's job, not the backend's.
    """

    name: str = "executor"

    #: Optional cooperative admission lease.  When set (by the service
    #: plane), every task dispatch acquires one slot first and releases
    #: it at completion; ``None`` (the default) costs one attribute
    #: check per batch.
    slot_lease: SlotLease | None = None

    def run_batch(
        self, fn: Callable[..., Any], calls: Sequence[tuple]
    ) -> list[TaskOutcome]:
        raise NotImplementedError

    # -- chaos hooks (identity by default; see faults.ChaosExecutor) ----

    def wrap_calls(
        self,
        fn: Callable[..., Any],
        calls: Sequence[tuple],
        *,
        job: str,
        phase: str,
        task_ids: Sequence[int],
    ) -> tuple[Callable[..., Any], Sequence[tuple]]:
        """Rewrite a phase's first-attempt batch (fault injection hook)."""
        return fn, calls

    def wrap_call(
        self,
        fn: Callable[..., Any],
        args: tuple,
        *,
        job: str,
        phase: str,
        task_id: int,
        attempt: int,
        clean: bool = False,
    ) -> tuple[Callable[..., Any], tuple]:
        """Rewrite one re-dispatched attempt (retry / speculative copy)."""
        return fn, args

    # -- pool lifetime ---------------------------------------------------

    def pool(self):
        """The pool every batch and every timed or speculative attempt
        submits to, started on first use and kept until :meth:`close`;
        ``None`` for backends without one."""
        return None

    def retire_pool(self, pool) -> None:
        """Stop using ``pool`` without waiting for it, if it is still
        the current pool: it broke, or an abandoned attempt still runs
        on it.  The next batch starts a fresh pool."""

    def close(self) -> None:
        """Join the pool and release what the executor holds; it stays
        usable and starts a new pool on its next batch."""

    def submit(self, fn: Callable[..., Any], *args: Any) -> tuple[Future, Any]:
        """Submit one call to :meth:`pool`; returns its future and the
        pool running it, for :meth:`outcome`.  A pool found broken (a
        worker died while it sat idle) is retired and the call goes to
        a fresh one."""
        pool = self.pool()
        try:
            return pool.submit(fn, *args), pool
        except BrokenExecutor:
            self.retire_pool(pool)
        pool = self.pool()
        return pool.submit(fn, *args), pool

    def outcome(self, future: Future, pool) -> TaskOutcome:
        """The outcome of a settled future from :meth:`submit`.  A
        worker that died mid-batch broke ``pool``: it is retired, and
        the attempt's retry and the next batch run on a fresh one."""
        try:
            return TaskOutcome(value=future.result())
        except BrokenExecutor as error:
            self.retire_pool(pool)
            return TaskOutcome(error=error)
        except Exception as error:  # noqa: BLE001 - any task error retries
            return TaskOutcome(error=error)


class SerialExecutor(Executor):
    """In-order, in-process execution — deterministic, zero overhead."""

    name = "serial"

    def run_batch(
        self, fn: Callable[..., Any], calls: Sequence[tuple]
    ) -> list[TaskOutcome]:
        return _run_inline(fn, calls, self.slot_lease)


class _PoolExecutor(Executor):
    """Shared submit/collect logic and pool lifetime of the pool-backed
    executors."""

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers or os.cpu_count() or 1
        self._pool: Any = None

    def _make_pool(self):
        raise NotImplementedError

    def make_pool(self):
        """Start a ``concurrent.futures`` pool.  The only pool
        constructor; :meth:`pool` calls it once per pool lifetime."""
        pool = self._make_pool()
        lease = self.slot_lease
        return _LeasedPool(pool, lease) if lease is not None else pool

    def pool(self):
        if self._pool is None:
            # make_pool (not _make_pool): a set slot_lease gates every
            # submit through the leased wrapper.
            self._pool = self.make_pool()
        return self._pool

    def retire_pool(self, pool) -> None:
        if pool is None or pool is not self._pool:
            return
        self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def run_batch(
        self, fn: Callable[..., Any], calls: Sequence[tuple]
    ) -> list[TaskOutcome]:
        if len(calls) <= 1 or self.max_workers == 1:
            # A pool buys nothing for a single task; skip its overhead.
            return _run_inline(fn, calls, self.slot_lease)
        submitted = [self.submit(fn, *args) for args in calls]
        return [self.outcome(future, pool) for future, pool in submitted]


class ThreadExecutor(_PoolExecutor):
    """Thread-pool backend for GIL-releasing (NumPy-heavy) tasks."""

    name = "thread"

    def _make_pool(self):
        return ThreadPoolExecutor(max_workers=self.max_workers)


# -- process-executor data plane ----------------------------------------
#
# Two costs dominate process-pool dispatch on cache-heavy jobs:
#
# 1. the distributed cache (RSSC tables, candidate sets, GMM params)
#    used to be re-pickled into *every* task's arguments;
# 2. ndarray split payloads were serialised inline into the pickle
#    stream.
#
# The broadcast below localises each cache once, as Hadoop's
# DistributedCache does: the executor writes it to a file keyed by its
# content fingerprint, and each worker loads that file the first time a
# task asks for it, while tasks carry only a :class:`CacheHandle`.
# Workers outlive many jobs, so caches cannot ride the pool initializer.
# Argument packing uses pickle protocol 5 so ndarray buffers travel
# out-of-band instead of being copied through the pickle stream.

#: Per-process registry of broadcast caches, keyed by content
#: fingerprint, oldest first.  The parent registers at broadcast time,
#: so in-process attempts (the single-task shortcut, retries) and
#: workers forked afterwards resolve handles without a file read.
_WORKER_CACHES: dict[str, DistributedCache] = {}

#: Jobs run sequentially and carry one cache each, so a handful of live
#: broadcasts is ample; the cap bounds every process's registry.
_MAX_BROADCASTS = 8


#: Guards the registry: chains on other threads broadcast concurrently.
_REGISTRY_LOCK = threading.Lock()


def _reset_registry_lock() -> None:
    # A pool forked while another thread held the lock must not hand
    # its workers a lock that nobody will release.
    global _REGISTRY_LOCK
    _REGISTRY_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reset_registry_lock)


def _register(fingerprint: str, cache: DistributedCache) -> None:
    """Install ``cache`` as this process's newest broadcast, evicting
    the oldest past :data:`_MAX_BROADCASTS`."""
    with _REGISTRY_LOCK:
        _WORKER_CACHES.pop(fingerprint, None)
        _WORKER_CACHES[fingerprint] = cache
        for stale in list(_WORKER_CACHES)[:-_MAX_BROADCASTS]:
            del _WORKER_CACHES[stale]


class CacheHandle(DistributedCache):
    """A reference to a broadcast distributed cache: the path of the
    cache's localised file, named by its content fingerprint.

    Pickles to that path, so a task's arguments carry O(1) bytes of
    cache no matter how large the RSSC tables are.  Lookups resolve
    against this process's registry; a miss loads the file once and
    registers it.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.cache_fingerprint = os.path.basename(path)

    @property
    def _entries(self):  # type: ignore[override]
        resolved = _WORKER_CACHES.get(self.cache_fingerprint)
        if resolved is None:
            resolved = self._localise()
        return resolved._entries

    def _localise(self) -> DistributedCache:
        try:
            with open(self.path, "rb") as handle:
                cache = pickle.load(handle)
        except FileNotFoundError:
            raise RuntimeError(
                f"broadcast cache {self.cache_fingerprint!r} is not "
                "installed in this process and has no localised file; "
                "tasks carrying a CacheHandle must run while the executor "
                "that broadcast it is open"
            ) from None
        _register(self.cache_fingerprint, cache)
        return cache

    def fingerprint(self) -> str:
        return self.cache_fingerprint

    def __reduce__(self):
        return (CacheHandle, (self.path,))

    def __repr__(self) -> str:
        return f"CacheHandle({self.cache_fingerprint!r})"


def _pack_args(args: tuple) -> tuple[bytes, list[bytes]]:
    """Pickle-5 out-of-band packing of one task's arguments.

    Contiguous ndarray buffers (the split payloads) leave the pickle
    stream via ``buffer_callback`` instead of being copied into it.
    """
    buffers: list[pickle.PickleBuffer] = []
    data = pickle.dumps(args, protocol=5, buffer_callback=buffers.append)
    return data, [buffer.raw().tobytes() for buffer in buffers]


def _run_packed(fn: Callable[..., Any], data: bytes, buffers: list[bytes]):
    """Worker-side companion of :func:`_pack_args`."""
    return fn(*pickle.loads(data, buffers=buffers))


class _PackingPool:
    """Wraps a process pool so submitted arguments go through
    :func:`_pack_args`; futures and shutdown delegate unchanged."""

    def __init__(self, pool: ProcessPoolExecutor) -> None:
        self._pool = pool

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        data, buffers = _pack_args(args)
        return self._pool.submit(_run_packed, fn, data, buffers)

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)


def _remove_cache_dir(path: str, owner_pid: int) -> None:
    # Forked workers hold copies of the executor: only its own process
    # may remove the directory.
    if os.getpid() == owner_pid:
        shutil.rmtree(path, ignore_errors=True)


class ProcessExecutor(_PoolExecutor):
    """Process-pool backend; tasks and their data must be picklable.

    Job caches registered via :meth:`broadcast` are written once to a
    private directory and loaded once per worker (keyed by content
    fingerprint) rather than shipped once per task, and task arguments
    are packed with pickle protocol 5 so ndarray split payloads travel
    out-of-band.  :meth:`close` removes the directory; an executor that
    is never closed removes it when it is garbage-collected.
    """

    name = "process"

    def __init__(self, max_workers: int | None = None) -> None:
        super().__init__(max_workers)
        #: Localised cache file per broadcast fingerprint, oldest first.
        self._broadcasts: dict[str, str] = {}
        self._cache_dir: str | None = None
        self._cache_dir_cleanup: weakref.finalize | None = None

    def broadcast(self, cache: DistributedCache) -> CacheHandle:
        """Localise ``cache`` for the workers.

        Returns the :class:`CacheHandle` tasks should carry in its
        place.  Idempotent per content fingerprint: re-broadcasting an
        equal cache reuses the existing file.
        """
        fingerprint = cache.fingerprint()
        path = self._broadcasts.pop(fingerprint, None)
        if path is None:
            if self._cache_dir is None:
                self._cache_dir = tempfile.mkdtemp(prefix="repro-cache-")
                self._cache_dir_cleanup = weakref.finalize(
                    self, _remove_cache_dir, self._cache_dir, os.getpid()
                )
            path = os.path.join(self._cache_dir, fingerprint)
            with open(path, "wb") as handle:
                pickle.dump(cache, handle, protocol=pickle.HIGHEST_PROTOCOL)
        self._broadcasts[fingerprint] = path
        _register(fingerprint, cache)
        for stale in list(self._broadcasts)[:-_MAX_BROADCASTS]:
            os.unlink(self._broadcasts.pop(stale))
        return CacheHandle(path)

    def close(self) -> None:
        super().close()
        with _REGISTRY_LOCK:
            for fingerprint in self._broadcasts:
                _WORKER_CACHES.pop(fingerprint, None)
        self._broadcasts.clear()
        if self._cache_dir_cleanup is not None:
            self._cache_dir_cleanup()
            self._cache_dir = self._cache_dir_cleanup = None

    def _make_pool(self):
        return _PackingPool(ProcessPoolExecutor(max_workers=self.max_workers))


EXECUTORS: dict[str, type[Executor]] = {
    SerialExecutor.name: SerialExecutor,
    ThreadExecutor.name: ThreadExecutor,
    ProcessExecutor.name: ProcessExecutor,
}


def resolve_executor(
    spec: str | Executor | None,
    max_workers: int | None = None,
) -> Executor:
    """Resolve an executor selection to a backend instance.

    ``spec`` may be an :class:`Executor` instance (used as-is), a name
    from :data:`EXECUTORS`, or ``None`` for the historical auto rule:
    ``max_workers`` > 1 selects the process pool, anything else serial.
    """
    if isinstance(spec, Executor):
        return spec
    if spec is None:
        if max_workers is not None and max_workers > 1:
            return ProcessExecutor(max_workers)
        return SerialExecutor()
    try:
        backend = EXECUTORS[spec]
    except KeyError:
        raise ValueError(
            f"unknown executor {spec!r}; expected one of {sorted(EXECUTORS)}"
        ) from None
    if backend is SerialExecutor:
        return SerialExecutor()
    return backend(max_workers)


class TaskRunner:
    """The single retry/backoff path for every task of every phase.

    One runner executes one job: it dispatches each phase's first
    attempts as a batch through the executor, settles them in task
    order (retrying failed attempts in-process with exponential
    backoff), merges per-task counters into the job counters, counts
    every retry — including those of tasks that go on to exhaust their
    attempts — and emits the full lifecycle event stream.

    Two optional policies extend the lifecycle:

    - ``task_timeout_s``: an attempt running longer than this is
      treated as failed (:class:`TaskTimeoutError`) and retried.  On a
      pool-backed executor the runner monitors wall clock and abandons
      the in-flight attempt; on the serial executor (which cannot
      preempt) the limit is enforced post-hoc from the attempt's
      reported elapsed time.
    - ``speculative``: once at least half the phase's tasks finished,
      a task still running past ``speculation_factor`` × the median
      completed duration gets a *speculative* duplicate attempt on a
      fresh worker; the first successful result wins and the loser is
      discarded, so output invariants are untouched.  Requires a
      pool-backed executor; a no-op on serial.
    """

    #: Polling granularity of the concurrent monitor loop (seconds).
    _TICK_S = 0.005

    def __init__(
        self,
        executor: Executor,
        events: EventLog,
        job_name: str,
        max_attempts: int,
        backoff_s: float = 0.0,
        task_timeout_s: float | None = None,
        speculative: bool = False,
        speculation_factor: float = 2.0,
        speculation_floor_s: float = 0.02,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be > 0")
        if speculation_factor <= 1.0:
            raise ValueError("speculation_factor must be > 1")
        self.executor = executor
        self.events = events
        self.job_name = job_name
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.task_timeout_s = task_timeout_s
        self.speculative = speculative
        self.speculation_factor = speculation_factor
        self.speculation_floor_s = speculation_floor_s

    def run_phase(
        self,
        phase: str,
        fn: Callable[..., tuple[Any, Counters, float]],
        calls: Sequence[tuple],
        task_ids: Sequence[int],
        counters: Counters,
        validate: Callable[[Any, Counters], None] | None = None,
    ) -> list[tuple[Any, float]]:
        """Run one phase's tasks; returns ``(payload, seconds)`` per task.

        ``fn`` is the task function: it must return a
        ``(payload, task_counters, elapsed_seconds)`` triple.
        ``validate`` (optional) inspects a successful attempt's payload
        against its counters; raising marks the attempt failed (the
        shuffle-integrity analogue of Hadoop's fetch checksums).
        """
        started = time.perf_counter()
        self.events.emit(EventKind.PHASE_START, self.job_name, phase=phase)
        if len(calls) > 1 and (
            self.task_timeout_s is not None or self.speculative
        ) and self.executor.pool() is not None:
            results = self._run_phase_concurrent(
                phase, fn, calls, task_ids, counters, validate
            )
        else:
            for task_id in task_ids:
                self.events.emit(
                    EventKind.TASK_START,
                    self.job_name,
                    phase=phase,
                    task_id=task_id,
                    attempt=1,
                )
            batch_fn, batch_calls = self.executor.wrap_calls(
                fn, calls, job=self.job_name, phase=phase, task_ids=task_ids
            )
            outcomes = self.executor.run_batch(batch_fn, batch_calls)
            results = [
                self._settle(phase, task_id, fn, args, outcome, counters, validate)
                for task_id, args, outcome in zip(task_ids, calls, outcomes)
            ]
        self.events.emit(
            EventKind.PHASE_FINISH,
            self.job_name,
            phase=phase,
            duration_s=time.perf_counter() - started,
            counters=counters.snapshot(),
        )
        return results

    # -- shared attempt post-checks -------------------------------------

    def _post_check(
        self,
        phase: str,
        task_id: int,
        outcome: TaskOutcome,
        validate: Callable[[Any, Counters], None] | None,
        enforce_timeout: bool = True,
    ) -> TaskOutcome:
        """Convert a "successful" attempt into a failure when it broke a
        policy: ran past the task timeout or produced a payload that
        fails shuffle-integrity validation."""
        if outcome.error is not None:
            return outcome
        payload, task_counters, elapsed = outcome.value
        if (
            enforce_timeout
            and self.task_timeout_s is not None
            and elapsed > self.task_timeout_s
        ):
            self.events.emit(
                EventKind.TASK_TIMEOUT,
                self.job_name,
                phase=phase,
                task_id=task_id,
                error=f"exceeded {self.task_timeout_s:g}s",
            )
            return TaskOutcome(
                error=TaskTimeoutError(phase, task_id, self.task_timeout_s)
            )
        if validate is not None:
            try:
                validate(payload, task_counters)
            except Exception as error:  # noqa: BLE001 - any defect retries
                return TaskOutcome(error=error)
        return outcome

    # -- batch (serial / no-policy) path --------------------------------

    def _settle(
        self,
        phase: str,
        task_id: int,
        fn: Callable[..., Any],
        args: tuple,
        outcome: TaskOutcome,
        counters: Counters,
        validate: Callable[[Any, Counters], None] | None = None,
    ) -> tuple[Any, float]:
        attempt = 1
        while True:
            outcome = self._post_check(phase, task_id, outcome, validate)
            if outcome.error is None:
                payload, task_counters, elapsed = outcome.value
                counters.merge(task_counters)
                self.events.emit(
                    EventKind.TASK_FINISH,
                    self.job_name,
                    phase=phase,
                    task_id=task_id,
                    attempt=attempt,
                    duration_s=elapsed,
                    counters=task_counters.snapshot(),
                )
                return payload, elapsed
            if attempt >= self.max_attempts:
                self.events.emit(
                    EventKind.TASK_FAILED,
                    self.job_name,
                    phase=phase,
                    task_id=task_id,
                    attempt=attempt,
                    error=repr(outcome.error),
                    counters=counters.snapshot(),
                )
                raise TaskFailedError(
                    phase, task_id, attempt, outcome.error, counters=counters
                )
            counters.increment(Counters.FRAMEWORK, Counters.TASK_RETRIES)
            self.events.emit(
                EventKind.TASK_RETRY,
                self.job_name,
                phase=phase,
                task_id=task_id,
                attempt=attempt,
                error=repr(outcome.error),
            )
            if self.backoff_s > 0:
                time.sleep(self.backoff_s * (2 ** (attempt - 1)))
            attempt += 1
            self.events.emit(
                EventKind.TASK_START,
                self.job_name,
                phase=phase,
                task_id=task_id,
                attempt=attempt,
            )
            # Retries re-run in-process: tasks are pure functions of
            # their arguments, so the backend cannot change the output.
            retry_fn, retry_args = self.executor.wrap_call(
                fn,
                args,
                job=self.job_name,
                phase=phase,
                task_id=task_id,
                attempt=attempt,
            )
            outcome = TaskOutcome.capture(retry_fn, retry_args)

    # -- concurrent (timeout / speculation) path -------------------------

    def _run_phase_concurrent(
        self,
        phase: str,
        fn: Callable[..., Any],
        calls: Sequence[tuple],
        task_ids: Sequence[int],
        counters: Counters,
        validate: Callable[[Any, Counters], None] | None,
    ) -> list[tuple[Any, float]]:
        """Task-level scheduling with wall-clock timeouts and
        first-result-wins speculative duplicates, on the executor's
        shared pool.

        Abandoned attempts (timeouts, speculation losers) may keep
        running on their worker — tasks are pure, so their ignored
        results are harmless — but their outcome can never settle a
        task twice: settlement is guarded per task id.  A phase that
        leaves one still running retires the pool, so no later job
        waits behind it; a pool that broke is retired at once and the
        retries go to a fresh one.
        """
        index = {tid: i for i, tid in enumerate(task_ids)}
        results: dict[int, tuple[Any, float]] = {}
        attempt_no = {tid: 1 for tid in task_ids}
        dispatched_at = {tid: 0.0 for tid in task_ids}
        speculated: set[int] = set()
        durations: list[float] = []
        # future -> (task_id, attempt, is_speculative)
        pending: dict[Future, tuple[int, int, bool]] = {}
        # future -> the pool it was submitted to
        origin: dict[Future, Any] = {}
        abandoned: set[Future] = set()

        def dispatch(tid: int, attempt: int, speculative: bool) -> None:
            call_fn, call_args = self.executor.wrap_call(
                fn,
                calls[index[tid]],
                job=self.job_name,
                phase=phase,
                task_id=tid,
                attempt=attempt,
                clean=speculative,
            )
            kind = (
                EventKind.TASK_SPECULATED if speculative else EventKind.TASK_START
            )
            self.events.emit(
                kind,
                self.job_name,
                phase=phase,
                task_id=tid,
                attempt=attempt,
            )
            future, pool = self.executor.submit(call_fn, *call_args)
            if not speculative:
                # Timed from submit *completion*: a leased pool may
                # block in submit waiting for a slot grant, and slot
                # wait must not count against the task's timeout.
                dispatched_at[tid] = time.perf_counter()
            pending[future] = (tid, attempt, speculative)
            origin[future] = pool

        def fail_attempt(tid: int, attempt: int, error: Exception) -> None:
            """Retry (counted) or exhaust the task's attempt budget."""
            if attempt >= self.max_attempts:
                self.events.emit(
                    EventKind.TASK_FAILED,
                    self.job_name,
                    phase=phase,
                    task_id=tid,
                    attempt=attempt,
                    error=repr(error),
                    counters=counters.snapshot(),
                )
                raise TaskFailedError(
                    phase, tid, attempt, error, counters=counters
                )
            counters.increment(Counters.FRAMEWORK, Counters.TASK_RETRIES)
            self.events.emit(
                EventKind.TASK_RETRY,
                self.job_name,
                phase=phase,
                task_id=tid,
                attempt=attempt,
                error=repr(error),
            )
            attempt_no[tid] = attempt + 1
            dispatch(tid, attempt + 1, speculative=False)

        def settle_success(tid: int, attempt: int, value: Any) -> None:
            payload, task_counters, elapsed = value
            counters.merge(task_counters)
            durations.append(elapsed)
            results[tid] = (payload, elapsed)
            self.events.emit(
                EventKind.TASK_FINISH,
                self.job_name,
                phase=phase,
                task_id=tid,
                attempt=attempt,
                duration_s=elapsed,
                counters=task_counters.snapshot(),
            )

        try:
            for tid in task_ids:
                dispatch(tid, 1, speculative=False)
            while len(results) < len(task_ids):
                done, _ = wait(
                    list(pending),
                    timeout=self._TICK_S,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    tid, attempt, is_spec = pending.pop(future)
                    outcome = self.executor.outcome(future, origin.pop(future))
                    stale = tid in results or future in abandoned
                    abandoned.discard(future)
                    if stale:
                        continue  # task already settled / attempt timed out
                    # Wall-clock timeouts are enforced by the monitor
                    # below; a completed attempt counts.
                    outcome = self._post_check(
                        phase, tid, outcome, validate, enforce_timeout=False
                    )
                    if outcome.error is None:
                        settle_success(tid, attempt, outcome.value)
                    elif not is_spec:  # a losing speculative copy is discarded
                        fail_attempt(tid, attempt, outcome.error)
                now = time.perf_counter()
                if self.task_timeout_s is not None:
                    for future, (tid, attempt, is_spec) in list(pending.items()):
                        if (
                            is_spec
                            or tid in results
                            or future in abandoned
                            or now - dispatched_at[tid] <= self.task_timeout_s
                        ):
                            continue
                        abandoned.add(future)
                        future.cancel()
                        self.events.emit(
                            EventKind.TASK_TIMEOUT,
                            self.job_name,
                            phase=phase,
                            task_id=tid,
                            attempt=attempt,
                            error=f"exceeded {self.task_timeout_s:g}s",
                        )
                        fail_attempt(
                            tid,
                            attempt,
                            TaskTimeoutError(phase, tid, self.task_timeout_s),
                        )
                if self.speculative and len(results) >= max(
                    1, len(task_ids) // 2
                ):
                    threshold = max(
                        self.speculation_factor * statistics.median(durations),
                        self.speculation_floor_s,
                    )
                    for tid in task_ids:
                        if (
                            tid in results
                            or tid in speculated
                            or now - dispatched_at[tid] <= threshold
                        ):
                            continue
                        speculated.add(tid)
                        dispatch(tid, attempt_no[tid], speculative=True)
        finally:
            for future in pending:
                if not future.cancel() and not future.done():
                    self.executor.retire_pool(origin[future])
        return [results[tid] for tid in task_ids]
