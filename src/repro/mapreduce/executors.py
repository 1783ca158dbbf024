"""Pluggable task executors and the unified task lifecycle.

The runtime delegates *where* a task attempt runs to an
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

*What* a task's lifecycle is — dispatch, Hadoop-style retry, retry
counting, per-attempt deadlines, lifecycle events — lives in exactly
one place, :class:`TaskRunner`, shared by the map and reduce phases.
Every attempt of a phase, first or retry, goes through the same
dispatch: onto the executor's pool, or inline (tasks are pure
functions of their arguments, so where an attempt runs cannot change
the output).

A pool-backed executor starts one pool on first use (:meth:`~Executor.pool`)
and every phase of every job it runs reuses it, so a job chain pays the
pool start-up once, not once per job.  :meth:`~Executor.close` joins the
pool at the end of the chain; a pool that broke (a dead worker) or was
left running an abandoned attempt is retired instead, and the next
dispatch starts a fresh one.

Executors also expose a *wrapping hook*, ``wrap_call``, applied to
every dispatched attempt.  The base implementation is the identity,
costing nothing; :class:`~repro.mapreduce.faults.ChaosExecutor`
overrides it to inject deterministic faults without the runner knowing
chaos exists.
"""

from __future__ import annotations

import heapq
import math
import os
import pickle
import shutil
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
    the tasks of many concurrent chains on one bounded pool.
    Implementations must be thread-safe — a chain's driver thread
    acquires at every dispatch while releases arrive on pool callback
    threads.  No slot is ever held while waiting for another
    (acquire-per-task, release-at-settle), so leases cannot deadlock
    across chains.
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
    fn: Callable[..., Any], args: tuple, lease: SlotLease | None
) -> Future:
    """Run one attempt in this thread, holding one lease slot when a
    lease is set; returns its settled future."""
    future: Future = Future()
    if lease is not None:
        stats = lease.stats()
        started = time.monotonic()
        lease.acquire()
        stats.on_acquired(time.monotonic() - started)
    try:
        future.set_result(fn(*args))
    except Exception as error:  # noqa: BLE001 - any task error retries
        future.set_exception(error)
    finally:
        if lease is not None:
            lease.release()
            stats.on_released()
    return future


class Executor:
    """Backend contract: where a task attempt runs.

    The runner dispatches a phase's attempts to :meth:`submit` when
    the phase has more than one task and ``max_workers`` > 1, and runs
    them inline otherwise; ordering (and therefore output determinism)
    is the runner's job, not the backend's.
    """

    name: str = "executor"

    #: Workers of the executor's pool; 1 runs every attempt inline.
    max_workers: int = 1

    #: Optional cooperative admission lease.  When set (by the service
    #: plane), every task dispatch acquires one slot first and releases
    #: it at completion; ``None`` (the default) costs one attribute
    #: check per dispatch.
    slot_lease: SlotLease | None = None

    def wrap_call(
        self,
        fn: Callable[..., Any],
        args: tuple,
        *,
        job: str,
        phase: str,
        task_id: int,
        attempt: int,
    ) -> tuple[Callable[..., Any], tuple]:
        """Rewrite one dispatched attempt (the fault-injection hook of
        :class:`~repro.mapreduce.faults.ChaosExecutor`)."""
        return fn, args

    # -- pool lifetime ---------------------------------------------------

    def pool(self):
        """The pool attempts are submitted to, started on first use and
        kept until :meth:`close`; ``None`` for backends without one."""
        return None

    def retire_pool(self, pool) -> None:
        """Stop using ``pool`` without waiting for it, if it is still
        the current pool: it broke, or an abandoned attempt still runs
        on it.  The next dispatch starts a fresh pool."""

    def close(self) -> None:
        """Join the pool and release what the executor holds; it stays
        usable and starts a new pool on its next dispatch."""

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
        """The outcome of an attempt's future, once it settles (``pool``
        is ``None`` for an inline one).  A worker that died mid-phase broke
        ``pool``: it is retired, and the attempt's retry and every later
        dispatch run on a fresh one."""
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


class ThreadExecutor(_PoolExecutor):
    """Thread-pool backend for GIL-releasing (NumPy-heavy) tasks."""

    name = "thread"

    def _make_pool(self):
        return ThreadPoolExecutor(max_workers=self.max_workers)


# -- process-executor data plane ----------------------------------------
#
# The distributed cache (RSSC tables, candidate sets, GMM params) would
# otherwise be re-pickled into *every* task's arguments.  The broadcast
# below localises each cache once, as Hadoop's DistributedCache does:
# the executor writes it to a file keyed by its content fingerprint,
# and each worker loads that file the first time a task asks for it,
# while tasks carry only a :class:`CacheHandle`.  Workers outlive many
# jobs, so caches cannot ride the pool initializer.

#: Per-process registry of broadcast caches, keyed by content
#: fingerprint, oldest first.  The parent registers at broadcast time,
#: so inline attempts (single-task phases, one-worker pools) and
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


def _remove_cache_dir(path: str, owner_pid: int) -> None:
    # Forked workers hold copies of the executor: only its own process
    # may remove the directory.
    if os.getpid() == owner_pid:
        shutil.rmtree(path, ignore_errors=True)


class ProcessExecutor(_PoolExecutor):
    """Process-pool backend; tasks and their data must be picklable.

    Job caches registered via :meth:`broadcast` are written once to a
    private directory and loaded once per worker (keyed by content
    fingerprint) rather than shipped once per task.  :meth:`close`
    removes the directory; an executor that is never closed removes it
    when it is garbage-collected.
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
        return ProcessPoolExecutor(max_workers=self.max_workers)


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
    """The one task lifecycle of every phase of every job.

    One runner executes one job.  A phase dispatches every first
    attempt, then settles its tasks in task-id order: it retries a
    failed attempt through the same dispatch as the first, up to
    ``max_attempts``, counts every retry (those of tasks that go on to
    exhaust their attempts included), merges per-task counters into
    the job counters and emits the full lifecycle event stream.
    Serial, thread and process runs therefore emit one event sequence.

    A phase runs on the executor's pool when it has more than one task
    and the pool more than one worker; otherwise every attempt runs
    inline, holding one lease slot.  An attempt fails when it raises,
    fails ``validate``, dies with its worker or runs out of time.  With
    ``task_timeout_s`` set, the runner waits on an attempt only until
    its deadline and abandons it there; an attempt that reports a
    longer run fails after the fact (an inline attempt cannot be
    preempted).  Either way the attempt fails with
    :class:`TaskTimeoutError`.  The deadline counts run time only: it
    starts when the attempt starts running, so a phase with more tasks
    than workers does not time out the tasks that wait their turn in
    the pool's queue (see :meth:`_deadline`).
    """

    def __init__(
        self,
        executor: Executor,
        events: EventLog,
        job_name: str,
        max_attempts: int,
        task_timeout_s: float | None = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be > 0")
        self.executor = executor
        self.events = events
        self.job_name = job_name
        self.max_attempts = max_attempts
        self.task_timeout_s = task_timeout_s

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
        pooled = len(calls) > 1 and self.executor.max_workers > 1
        #: Every attempt dispatched in this phase.
        attempts: list[_Attempt] = []

        def dispatch(task_id: int, args: tuple, attempt: int):
            call_fn, call_args = self.executor.wrap_call(
                fn,
                args,
                job=self.job_name,
                phase=phase,
                task_id=task_id,
                attempt=attempt,
            )
            if pooled:
                future, pool = self.executor.submit(call_fn, *call_args)
            else:
                lease = self.executor.slot_lease
                future, pool = _run_inline(call_fn, call_args, lease), None
            current = _Attempt(future, pool, time.monotonic())
            future.add_done_callback(current.settle)
            attempts.append(current)
            return current

        try:
            for task_id in task_ids:
                self._emit(EventKind.TASK_START, phase, task_id, 1)
            running = [
                dispatch(task_id, args, 1) for task_id, args in zip(task_ids, calls)
            ]
            results = []
            for task_id, args, current in zip(task_ids, calls, running):
                attempt = 1
                while True:
                    outcome = self._wait(
                        phase, task_id, attempt, current, attempts, validate
                    )
                    if outcome.error is None:
                        break
                    self._fail(phase, task_id, attempt, outcome.error, counters)
                    attempt += 1
                    self._emit(EventKind.TASK_START, phase, task_id, attempt)
                    current = dispatch(task_id, args, attempt)
                payload, task_counters, elapsed = outcome.value
                counters.merge(task_counters)
                self._emit(
                    EventKind.TASK_FINISH,
                    phase,
                    task_id,
                    attempt,
                    duration_s=elapsed,
                    counters=task_counters.snapshot(),
                )
                results.append((payload, elapsed))
        finally:
            # An attempt still running when the phase ends — abandoned,
            # or left behind by a failed task — gets until its deadline
            # (one never waited on started by now at the latest, so it
            # gets one timeout from now); past it, it retires its pool
            # so no later job waits on it.
            cutoff = None
            if self.task_timeout_s is not None:
                cutoff = time.monotonic() + self.task_timeout_s
            retired = set()
            for current in attempts:
                future = current.future
                if current.pool in retired or future.done() or future.cancel():
                    continue
                wait((future,), timeout=_time_left(current.deadline or cutoff))
                if not future.done():
                    self.executor.retire_pool(current.pool)
                    retired.add(current.pool)
        self.events.emit(
            EventKind.PHASE_FINISH,
            self.job_name,
            phase=phase,
            duration_s=time.perf_counter() - started,
            counters=counters.snapshot(),
        )
        return results

    def _emit(
        self, kind: str, phase: str, task_id: int, attempt: int, **fields: Any
    ) -> None:
        self.events.emit(
            kind,
            self.job_name,
            phase=phase,
            task_id=task_id,
            attempt=attempt,
            **fields,
        )

    def _wait(
        self,
        phase: str,
        task_id: int,
        attempt: int,
        current: _Attempt,
        attempts: list[_Attempt],
        validate: Callable[[Any, Counters], None] | None,
    ) -> TaskOutcome:
        """Wait for one attempt until its deadline.  An attempt still
        running there, or one that ran past the timeout or produced a
        payload failing ``validate``, settles as a failure."""
        future = current.future
        if self.task_timeout_s is not None and not future.done():
            current.deadline = self._deadline(current, attempts)
            wait((future,), timeout=_time_left(current.deadline))
            if not future.done():
                future.cancel()
                return self._timeout(phase, task_id, attempt)
        outcome = self.executor.outcome(future, current.pool)
        if outcome.error is not None:
            return outcome
        payload, task_counters, elapsed = outcome.value
        if self.task_timeout_s is not None and elapsed > self.task_timeout_s:
            return self._timeout(phase, task_id, attempt)
        if validate is not None:
            try:
                validate(payload, task_counters)
            except Exception as error:  # noqa: BLE001 - any defect retries
                return TaskOutcome(error=error)
        return outcome

    def _deadline(self, current: _Attempt, attempts: list[_Attempt]) -> float:
        """Wait until pooled attempt ``current`` starts running; its
        deadline is ``task_timeout_s`` past that.

        A pool starts its calls in dispatch order, each on the first
        worker to free up, so replaying the settles of the attempts
        dispatched to its pool before ``current`` (a cancelled one never
        ran) tells when ``current`` started.  A worker frees up at the
        latest when its attempt reaches its deadline, unless that attempt
        hangs: once every busy worker holds an attempt past its deadline,
        the queue time counts too and the deadline is ``task_timeout_s``
        past the dispatch, so a permanently hung pool still fails the
        phase.
        """
        timeout = self.task_timeout_s
        queued_deadline = current.dispatched + timeout
        ahead = [
            other
            for other in attempts[: attempts.index(current)]
            if other.pool is current.pool and not other.future.cancelled()
        ]
        while not current.future.done():
            now = time.monotonic()
            *starts, start = _replay_starts(
                ahead + [current], self.executor.max_workers, now
            )
            if start < math.inf:
                return start + timeout
            # Queued: wake when a busy worker frees up, or when the next
            # of their attempts runs past its deadline.
            busy = [
                (other.future, began + timeout)
                for other, began in zip(ahead, starts)
                if began < math.inf and not other.future.done()
            ]
            live = [deadline for _, deadline in busy if deadline > now]
            until = min(live) if live else queued_deadline
            if until <= now:
                return queued_deadline
            wait(
                [future for future, _ in busy] + [current.future],
                timeout=until - now,
                return_when=FIRST_COMPLETED,
            )
        return time.monotonic()

    def _timeout(self, phase: str, task_id: int, attempt: int) -> TaskOutcome:
        """Fail an attempt that ran out of time."""
        self._emit(
            EventKind.TASK_TIMEOUT,
            phase,
            task_id,
            attempt,
            error=f"exceeded {self.task_timeout_s:g}s",
        )
        return TaskOutcome(error=TaskTimeoutError(phase, task_id, self.task_timeout_s))

    def _fail(
        self,
        phase: str,
        task_id: int,
        attempt: int,
        error: Exception,
        counters: Counters,
    ) -> None:
        """Count a retry of a failed attempt, or raise once the task's
        attempt budget is spent."""
        if attempt >= self.max_attempts:
            self._emit(
                EventKind.TASK_FAILED,
                phase,
                task_id,
                attempt,
                error=repr(error),
                counters=counters.snapshot(),
            )
            raise TaskFailedError(phase, task_id, attempt, error, counters=counters)
        counters.increment(Counters.FRAMEWORK, Counters.TASK_RETRIES)
        self._emit(EventKind.TASK_RETRY, phase, task_id, attempt, error=repr(error))


@dataclass(eq=False)
class _Attempt:
    """One dispatched attempt of a task."""

    future: Future
    #: The pool running it; ``None`` for an inline attempt.
    pool: Any
    #: When its dispatch returned.
    dispatched: float
    #: When its future settled.
    finished: float | None = None
    #: Set once the runner has waited on it with a task timeout.
    deadline: float | None = None

    def settle(self, _future: Future) -> None:
        self.finished = time.monotonic()


def _replay_starts(
    attempts: list[_Attempt], workers: int, now: float
) -> list[float]:
    """When each of one pool's ``attempts`` (in dispatch order) started
    running, replayed from when the ones before it settled: each starts
    on the first of the pool's ``workers`` to free up, ``math.inf`` for
    one still queued behind busy workers."""
    free = [-math.inf] * workers  # when each worker frees up (a heap)
    starts = []
    for attempt in attempts:
        starts.append(max(attempt.dispatched, heapq.heappop(free)))
        if not attempt.future.done():
            finished = math.inf
        elif attempt.finished is None:  # its settle callback is running
            finished = now
        else:
            finished = attempt.finished
        heapq.heappush(free, finished)
    return starts


def _time_left(deadline: float | None) -> float | None:
    """Seconds until ``deadline`` (``None``: wait without one)."""
    if deadline is None:
        return None
    return max(0.0, deadline - time.monotonic())
