"""The service plane: a scheduler-owned pool serving concurrent chains.

Historically this runtime was one-shot — a driver built a
:class:`~repro.mapreduce.runtime.MapReduceRuntime`, ran its chain and
exited, so one process served one chain.  This module inverts the
ownership, following the shared-service framing of MapReduce analysis
(Gonen, arXiv 1712.01817): a long-lived :class:`ClusterService` owns
*one* executor pool, and chains become *submitted jobs* from named
tenants.

Three mechanisms compose:

``FairShareSlotPool``
    The global slot ledger.  Every task an executor would dispatch
    first acquires a slot via the executor's
    :class:`~repro.mapreduce.executors.SlotLease` seam; under
    contention, grants go to the *most starved* tenant — the waiting
    tenant whose ``in_use / weight`` share is smallest — implementing
    weighted fair queueing over phase task batches.  Per-tenant
    ``max_slots`` quotas cap a tenant without blocking others, and
    every grant / wait-millisecond is mirrored into Hadoop-style
    :class:`~repro.mapreduce.counters.Counters` for run reports.

``ClusterService``
    Admission and lifecycle.  Submissions are *gated, not rejected*:
    a :class:`~repro.mapreduce.costmodel.ClusterCostModel` estimate
    prices each chain, and when the active estimated load exceeds the
    service's budget new chains queue until capacity frees (an idle
    service always admits, so nothing starves on a bad estimate).
    Admitted chains run on a daemon thread with an injected
    :class:`~repro.mapreduce.runtime.RuntimeContext`: a fresh executor
    whose lease is bound to the shared pool, a per-chain event log and
    a per-run observability scope — per-chain isolation with
    service-level aggregate counters.

``ServiceHandle``
    The client surface: ``status`` / ``wait`` / ``result`` / ``cancel``.
    Cancellation is cooperative — a queued chain is dropped in place,
    a running chain observes the cancel at its next slot acquisition
    and unwinds with :class:`JobCancelledError`.

Retried task attempts run leased too: a retry goes through the same
dispatch as its first attempt, onto the chain's pool, so it holds one
slot like every other attempt.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.mapreduce.costmodel import ClusterCostModel
from repro.mapreduce.counters import Counters
from repro.mapreduce.events import EventLog
from repro.mapreduce.executors import SlotLease, resolve_executor
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.runtime import RuntimeContext
from repro.obs.metrics import Histogram
from repro.obs.slo import SLORegistry, SLOTarget

if False:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.obs.telemetry import TelemetryPlane

__all__ = [
    "ClusterService",
    "FairShareSlotPool",
    "JobCancelledError",
    "ServiceHandle",
    "TenantLease",
    "TenantQuota",
]

#: Slot-wait histogram buckets (seconds): scheduling delays are small,
#: so the resolution is concentrated under one second.
WAIT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 15.0, 60.0,
)

#: Serve-time batch latency buckets (seconds): a vectorized assign over
#: a typical batch lands well under a millisecond, so most of the
#: resolution sits below 100ms.
ASSIGN_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 1.0, 5.0,
)


class JobCancelledError(RuntimeError):
    """A submitted chain was cancelled before or during execution."""


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant scheduling policy.

    ``weight`` scales the tenant's fair share (2.0 = twice the slots
    under contention); ``max_slots`` hard-caps concurrent slots held;
    ``max_concurrent`` caps chains admitted at once (excess chains
    queue).
    """

    weight: float = 1.0
    max_slots: int | None = None
    max_concurrent: int | None = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("tenant weight must be > 0")
        if self.max_slots is not None and self.max_slots < 1:
            raise ValueError("max_slots must be >= 1")
        if self.max_concurrent is not None and self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")


class FairShareSlotPool:
    """Weighted-fair slot admission over one shared executor pool.

    A slot is one concurrently running task.  ``acquire(tenant)``
    blocks until the tenant may run another task: the pool must have a
    free slot, the tenant must be under its ``max_slots`` cap, and no
    *other* eligible waiting tenant may be more starved (smaller
    ``in_use / weight``).  Because executors acquire one slot per task
    and never hold a slot while waiting for another, grants cannot
    deadlock; fairness emerges from per-task interleaving across
    tenants' phase batches.
    """

    def __init__(self, slots: int, poll_s: float = 0.05) -> None:
        if slots < 1:
            raise ValueError("slot pool needs >= 1 slot")
        self.slots = slots
        self.poll_s = poll_s
        self._cond = threading.Condition()
        self._quotas: dict[str, TenantQuota] = {}
        self._in_use: dict[str, int] = {}
        self._waiting: dict[str, int] = {}
        #: Per-tenant (``tenant.<name>``) and aggregate (``service``)
        #: grant/wait accounting, mirrored into run reports.
        self.counters = Counters()
        #: Per-tenant slot-wait distributions (thread-safe histograms)
        #: exported as the ``repro_slot_wait_seconds`` OpenMetrics
        #: histogram by the telemetry plane.
        self.wait_histograms: dict[str, Histogram] = {}

    def configure(self, tenant: str, quota: TenantQuota) -> None:
        with self._cond:
            self._quotas[tenant] = quota
            self._cond.notify_all()

    def quota(self, tenant: str) -> TenantQuota:
        with self._cond:
            return self._quotas.get(tenant, TenantQuota())

    # -- grant rule (call with the lock held) ---------------------------

    def _capped(self, tenant: str) -> bool:
        quota = self._quotas.get(tenant, TenantQuota())
        return (
            quota.max_slots is not None
            and self._in_use.get(tenant, 0) >= quota.max_slots
        )

    def _share(self, tenant: str) -> float:
        weight = self._quotas.get(tenant, TenantQuota()).weight
        return self._in_use.get(tenant, 0) / weight

    def _may_grant(self, tenant: str) -> bool:
        if sum(self._in_use.values()) >= self.slots:
            return False
        if self._capped(tenant):
            return False
        # Yield to any strictly-more-starved eligible waiter: weighted
        # fair queueing, evaluated at every grant point.
        share = self._share(tenant)
        for other, waiting in self._waiting.items():
            if other == tenant or waiting <= 0 or self._capped(other):
                continue
            if self._share(other) < share - 1e-9:
                return False
        return True

    # -- slot protocol --------------------------------------------------

    def acquire(
        self, tenant: str, cancel: threading.Event | None = None
    ) -> float:
        """Block until ``tenant`` is granted a slot; returns the wait in
        seconds.  Raises :class:`JobCancelledError` once ``cancel`` is
        set — the cooperative cancellation point of running chains."""
        started = time.monotonic()
        with self._cond:
            if cancel is not None and cancel.is_set():
                raise JobCancelledError(f"chain of tenant {tenant!r} cancelled")
            self._waiting[tenant] = self._waiting.get(tenant, 0) + 1
            try:
                while not self._may_grant(tenant):
                    # Bounded wait only when a cancel flag needs polling;
                    # otherwise sleep until a release/configure notifies.
                    self._cond.wait(self.poll_s if cancel is not None else None)
                    if cancel is not None and cancel.is_set():
                        raise JobCancelledError(
                            f"chain of tenant {tenant!r} cancelled"
                        )
            finally:
                self._waiting[tenant] -= 1
            self._in_use[tenant] = self._in_use.get(tenant, 0) + 1
            # Monotonic end-to-end (as is every scheduler timestamp),
            # so NTP steps can never inject a negative wait into the
            # SLO histograms; the clamp guards coarse-tick platforms.
            waited = max(0.0, time.monotonic() - started)
            for group in (f"tenant.{tenant}", Counters.SERVICE):
                self.counters.increment(group, Counters.SLOTS_GRANTED)
                self.counters.increment(
                    group, Counters.SLOT_WAIT_MS, int(waited * 1000)
                )
            histogram = self.wait_histograms.get(tenant)
            if histogram is None:
                histogram = self.wait_histograms[tenant] = Histogram(
                    WAIT_BUCKETS
                )
        histogram.observe(waited)
        return waited

    def release(self, tenant: str) -> None:
        with self._cond:
            held = self._in_use.get(tenant, 0)
            if held <= 0:
                raise RuntimeError(
                    f"tenant {tenant!r} released a slot it never acquired"
                )
            self._in_use[tenant] = held - 1
            self._cond.notify_all()

    def snapshot(self) -> dict[str, Any]:
        with self._cond:
            in_use = {t: n for t, n in self._in_use.items() if n}
            waiting = {t: n for t, n in self._waiting.items() if n}
            counters = self.counters.snapshot()
            histograms = dict(self.wait_histograms)
        held = sum(in_use.values())
        return {
            "slots": self.slots,
            "in_use": in_use,
            "waiting": waiting,
            "slots_held": held,
            "utilization": round(held / self.slots, 6),
            "counters": counters,
            "wait_histograms": {
                tenant: histogram.snapshot()
                for tenant, histogram in sorted(histograms.items())
            },
        }


@dataclass
class TenantLease(SlotLease):
    """Binds one chain's executor to the shared pool, as one tenant.

    The executor seam calls ``acquire``/``release`` around every task;
    this lease routes those calls to the fair-share pool and mirrors
    grant/wait accounting into the chain's per-run obs scope.
    """

    pool: FairShareSlotPool
    tenant: str = "default"
    obs: Any = None
    cancel: threading.Event | None = None
    #: Optional :class:`~repro.obs.slo.TenantSLO` fed one wait sample
    #: per grant (the sliding-window side of the SLO ledger).
    slo: Any = None

    def acquire(self) -> None:
        waited = self.pool.acquire(self.tenant, cancel=self.cancel)
        if self.obs is not None and getattr(self.obs, "enabled", False):
            self.obs.count("service.slots_granted")
            self.obs.observe("service.slot_wait_s", waited)
        if self.slo is not None:
            self.slo.record_wait(waited)

    def release(self) -> None:
        self.pool.release(self.tenant)


# -- the service ---------------------------------------------------------

_QUEUED = "queued"
_RUNNING = "running"
_DONE = "done"
_FAILED = "failed"
_CANCELLED = "cancelled"


@dataclass
class _ServiceJob:
    """Internal lifecycle record of one submitted chain."""

    id: str
    name: str
    tenant: str
    fn: Callable[[RuntimeContext], Any]
    estimate_s: float
    fault_plan: FaultPlan | None = None
    task_timeout_s: float | None = None
    state: str = _QUEUED
    cancel: threading.Event = field(default_factory=threading.Event)
    finished: threading.Event = field(default_factory=threading.Event)
    result: Any = None
    error: BaseException | None = None
    submitted_s: float = 0.0
    started_s: float | None = None
    finished_s: float | None = None
    #: The chain's :class:`TenantLease` once launched — its
    #: :class:`~repro.mapreduce.executors.LeaseStats` give the
    #: telemetry sampler live in-flight task counts.
    lease: "TenantLease | None" = None


class ServiceHandle:
    """Client-side view of one submitted chain."""

    def __init__(self, service: "ClusterService", job: _ServiceJob) -> None:
        self._service = service
        self._job = job

    @property
    def job_id(self) -> str:
        return self._job.id

    @property
    def tenant(self) -> str:
        return self._job.tenant

    @property
    def name(self) -> str:
        return self._job.name

    def status(self) -> str:
        """``queued`` / ``running`` / ``done`` / ``failed`` / ``cancelled``."""
        return self._job.state

    def done(self) -> bool:
        return self._job.finished.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._job.finished.wait(timeout)

    def result(self, timeout: float | None = None) -> Any:
        """The chain's return value; re-raises its failure or
        :class:`JobCancelledError` when it did not complete."""
        if not self._job.finished.wait(timeout):
            raise TimeoutError(
                f"job {self._job.id} still {self._job.state} after {timeout}s"
            )
        if self._job.state == _CANCELLED:
            raise JobCancelledError(f"job {self._job.id} was cancelled")
        if self._job.error is not None:
            raise self._job.error
        return self._job.result

    @property
    def error(self) -> BaseException | None:
        return self._job.error

    def cancel(self) -> None:
        """Cooperative cancel: queued chains are dropped immediately,
        running chains unwind at their next slot acquisition."""
        self._service._cancel(self._job)

    def info(self) -> dict[str, Any]:
        job = self._job
        now = time.monotonic()
        queue_wait = (job.started_s or now) - job.submitted_s
        run_s = None
        if job.started_s is not None:
            run_s = (job.finished_s or now) - job.started_s
        return {
            "id": job.id,
            "name": job.name,
            "tenant": job.tenant,
            "state": job.state,
            "estimate_s": job.estimate_s,
            "queue_wait_s": queue_wait,
            "run_s": run_s,
        }


class ClusterService:
    """Long-lived multi-tenant scheduler over one shared executor pool.

    ``submit`` takes a *chain function* — any callable of one
    :class:`~repro.mapreduce.runtime.RuntimeContext` argument — and
    returns a :class:`ServiceHandle`.  The service builds the context:
    a fresh executor of the configured backend, lease-bound to the
    fair-share pool under the submitting tenant, plus a per-chain
    event log and per-run observability scope.

    Admission is cost-gated, not rejecting: each submission is priced
    by the cost model (``estimated_records`` x ``estimated_jobs``
    through :meth:`~repro.mapreduce.costmodel.ClusterCostModel.scan_job`)
    and queues while the active estimated load exceeds
    ``admission_budget_s`` — except on an idle service, which always
    admits the next chain so a pessimistic estimate can never wedge
    the queue.
    """

    #: Chain length assumed when a submission carries no estimate —
    #: the typical P3C+-MR pipeline depth.
    DEFAULT_CHAIN_JOBS = 10

    def __init__(
        self,
        slots: int | None = None,
        executor: str = "thread",
        *,
        cost_model: ClusterCostModel | None = None,
        obs: Any = None,
        admission_budget_s: float | None = None,
        name: str = "cluster",
        slo_target: SLOTarget | None = None,
        registry: Any = None,
    ) -> None:
        self.slots = slots or os.cpu_count() or 4
        self.executor_spec = executor
        self.cost_model = cost_model or ClusterCostModel()
        self.obs = obs
        self.name = name
        self.admission_budget_s = (
            admission_budget_s
            if admission_budget_s is not None
            else self.slots * 600.0
        )
        self.pool = FairShareSlotPool(self.slots)
        #: Per-tenant service-level objective trackers: chain latency
        #: windows, lifecycle counts, error rates.  ``slo_target`` is
        #: the default objective; per-tenant targets go through
        #: :meth:`set_slo_target`.
        self.slo = SLORegistry(default_target=slo_target)
        #: The live telemetry plane once :meth:`start_telemetry` runs.
        self.telemetry: "TelemetryPlane | None" = None
        self._started_s = time.monotonic()
        self._lock = threading.Lock()
        self._jobs: dict[str, _ServiceJob] = {}
        self._queue: deque[_ServiceJob] = deque()
        self._running: set[str] = set()
        self._active_cost_s = 0.0
        self._seq = itertools.count(1)
        self._closed = False
        #: Serving state: the model registry backing ``serve_assign``
        #: (a :class:`repro.serving.ModelRegistry` or a root path),
        #: loaded models keyed by id, and per-tenant assign telemetry.
        self.registry = self._resolve_registry(registry)
        self._model_cache: dict[str, Any] = {}
        self._model_lock = threading.Lock()
        self._assign_lock = threading.Lock()
        self._assign_stats: dict[str, dict[str, Any]] = {}

    @staticmethod
    def _resolve_registry(registry: Any) -> Any:
        if registry is None or not isinstance(registry, (str, os.PathLike)):
            return registry
        # Imported lazily: repro.serving reaches back into repro.mr.
        from repro.serving import ModelRegistry

        return ModelRegistry(registry)

    # -- tenant policy --------------------------------------------------

    def set_quota(
        self,
        tenant: str,
        *,
        weight: float = 1.0,
        max_slots: int | None = None,
        max_concurrent: int | None = None,
    ) -> None:
        self.pool.configure(
            tenant,
            TenantQuota(
                weight=weight,
                max_slots=max_slots,
                max_concurrent=max_concurrent,
            ),
        )

    def set_slo_target(self, tenant: str, target: SLOTarget) -> None:
        """Install a tenant's service-level objective (latency p95 /
        error-rate bounds evaluated over a sliding window)."""
        self.slo.set_target(tenant, target)

    # -- submission -----------------------------------------------------

    def _estimate_cost_s(
        self,
        estimated_records: int | None,
        estimated_jobs: int | None,
        coreset_size: int | None = None,
    ) -> float:
        jobs = estimated_jobs or self.DEFAULT_CHAIN_JOBS
        if coreset_size is not None and coreset_size >= 1:
            # Approximate pipeline: two full scans + the chain over the
            # summary, so admission stops over-charging coreset runs.
            return self.cost_model.coreset_chain_cost(
                estimated_records or 0, coreset_size, chain_jobs=jobs
            ).total_s
        per_job = self.cost_model.scan_job(estimated_records or 0)
        return per_job.total_s * jobs

    def submit(
        self,
        fn: Callable[[RuntimeContext], Any],
        *,
        name: str | None = None,
        tenant: str = "default",
        priority: float | None = None,
        estimated_records: int | None = None,
        estimated_jobs: int | None = None,
        coreset_size: int | None = None,
        fault_plan: FaultPlan | None = None,
        task_timeout_s: float | None = None,
    ) -> ServiceHandle:
        """Queue one chain for execution; returns immediately.

        ``priority`` is sugar for the tenant's fair-share weight (it
        reconfigures the tenant's quota, keeping any slot caps).
        ``coreset_size`` marks the chain as an approximate (coreset)
        run so admission prices it as two full scans plus a summary
        chain instead of a full-data chain.
        """
        if self._closed:
            raise RuntimeError("service is shut down")
        if priority is not None:
            current = self.pool.quota(tenant)
            self.pool.configure(
                tenant,
                TenantQuota(
                    weight=priority,
                    max_slots=current.max_slots,
                    max_concurrent=current.max_concurrent,
                ),
            )
        job = _ServiceJob(
            id=f"{tenant}/{name or 'chain'}-{next(self._seq)}",
            name=name or "chain",
            tenant=tenant,
            fn=fn,
            estimate_s=self._estimate_cost_s(
                estimated_records, estimated_jobs, coreset_size
            ),
            fault_plan=fault_plan,
            task_timeout_s=task_timeout_s,
            submitted_s=time.monotonic(),
        )
        self.slo.tenant(tenant).record_admitted()
        with self._lock:
            self._jobs[job.id] = job
            self._queue.append(job)
            launch = self._admit_locked()
        for admitted in launch:
            self._launch(admitted)
        return ServiceHandle(self, job)

    # -- serving --------------------------------------------------------

    def load_model(self, name: str) -> tuple[str, Any]:
        """Resolve and load a registered model, memoizing by model id."""
        if self.registry is None:
            raise RuntimeError("service has no model registry configured")
        model_id = self.registry.resolve(name)
        with self._model_lock:
            model = self._model_cache.get(model_id)
        if model is None:
            model = self.registry.load(model_id)
            with self._model_lock:
                self._model_cache.setdefault(model_id, model)
        return model_id, model

    def _assign_stats_for(self, tenant: str) -> dict[str, Any]:
        with self._assign_lock:
            row = self._assign_stats.get(tenant)
            if row is None:
                row = {
                    "requests_total": 0,
                    "points_total": 0,
                    "outliers_total": 0,
                    "errors_total": 0,
                    "histogram": Histogram(ASSIGN_BUCKETS),
                }
                self._assign_stats[tenant] = row
            return row

    def serve_assign(
        self,
        model: Any,
        points: Any,
        *,
        tenant: str = "default",
        priority: float | None = None,
    ) -> ServiceHandle:
        """Score a point batch against a registered model.

        ``model`` is a model id or tag name resolved through the
        service's registry (or an in-memory
        :class:`repro.serving.FittedModel`).  The scoring call is a
        submitted job like any chain: it acquires one fair-share slot
        under ``tenant`` (so heavy fits and serving traffic share the
        pool under the same weighted-fair policy), records per-tenant
        SLO latency, and feeds the ``repro_assign_*`` telemetry
        families.  The handle's result is a dict with ``model_id``,
        ``cluster_ids``, ``outlier_mask``, ``scores``, ``n_points``,
        ``num_outliers`` and ``wall_time_s``.
        """
        import numpy as np

        points = np.asarray(points, dtype=float)
        n_points = len(np.atleast_2d(points)) if points.size else 0

        def run_assign(ctx: RuntimeContext) -> dict[str, Any]:
            stats = self._assign_stats_for(tenant)
            started = time.monotonic()
            try:
                if isinstance(model, str):
                    model_id, fitted = self.load_model(model)
                else:
                    model_id, fitted = "inline", model
                lease = getattr(ctx.executor, "slot_lease", None)
                if lease is not None:
                    lease.acquire()
                try:
                    result = fitted.assign(points)
                finally:
                    if lease is not None:
                        lease.release()
            except BaseException:
                with self._assign_lock:
                    stats["errors_total"] += 1
                raise
            elapsed = time.monotonic() - started
            num_outliers = int(result.outlier_mask.sum())
            with self._assign_lock:
                stats["requests_total"] += 1
                stats["points_total"] += len(result.cluster_ids)
                stats["outliers_total"] += num_outliers
            stats["histogram"].observe(elapsed)
            return {
                "model_id": model_id,
                "cluster_ids": result.cluster_ids,
                "outlier_mask": result.outlier_mask,
                "scores": result.scores,
                "n_points": len(result.cluster_ids),
                "num_outliers": num_outliers,
                "wall_time_s": elapsed,
            }

        return self.submit(
            run_assign,
            name="assign",
            tenant=tenant,
            priority=priority,
            estimated_records=n_points,
            estimated_jobs=1,
        )

    # -- admission (call with self._lock held) --------------------------

    def _admit_locked(self) -> list[_ServiceJob]:
        """Drain the queue prefix the budget and quotas allow.

        Blocked entries stay queued *in order* — admission is a gate,
        not a rejection — and a cancelled-while-queued job is dropped
        on the way through.
        """
        admitted: list[_ServiceJob] = []
        blocked: deque[_ServiceJob] = deque()
        running_per_tenant: dict[str, int] = {}
        for job_id in self._running:
            tenant = self._jobs[job_id].tenant
            running_per_tenant[tenant] = running_per_tenant.get(tenant, 0) + 1
        while self._queue:
            job = self._queue.popleft()
            if job.state != _QUEUED:
                continue
            quota = self.pool.quota(job.tenant)
            tenant_running = running_per_tenant.get(job.tenant, 0)
            over_quota = (
                quota.max_concurrent is not None
                and tenant_running >= quota.max_concurrent
            )
            over_budget = (
                self._active_cost_s + job.estimate_s > self.admission_budget_s
                and self._running
            )
            if over_quota or over_budget:
                blocked.append(job)
                continue
            job.state = _RUNNING
            job.started_s = time.monotonic()
            self._running.add(job.id)
            self._active_cost_s += job.estimate_s
            running_per_tenant[job.tenant] = tenant_running + 1
            admitted.append(job)
        self._queue = blocked
        return admitted

    # -- execution ------------------------------------------------------

    def _launch(self, job: _ServiceJob) -> None:
        thread = threading.Thread(
            target=self._run_job,
            args=(job,),
            name=f"svc-{job.id}",
            daemon=True,
        )
        thread.start()

    def _run_job(self, job: _ServiceJob) -> None:
        run_obs = None
        if self.obs is not None and getattr(self.obs, "enabled", False):
            run_obs = self.obs.for_run(job.id)
        executor = resolve_executor(self.executor_spec, self.slots)
        lease = TenantLease(
            self.pool,
            job.tenant,
            obs=run_obs,
            cancel=job.cancel,
            slo=self.slo.tenant(job.tenant),
        )
        executor.slot_lease = lease
        job.lease = lease
        ctx = RuntimeContext(
            executor=executor,
            max_workers=self.slots,
            events=EventLog(run_id=job.id),
            run_id=job.id,
            tenant=job.tenant,
            fault_plan=job.fault_plan,
            task_timeout_s=job.task_timeout_s,
            obs=run_obs,
        )
        try:
            # The chain's runtime never closes an executor handed to
            # it: release the chain's pool here, before reporting.
            with closing(executor):
                result = job.fn(ctx)
        except JobCancelledError:
            self._finish(job, _CANCELLED)
        except BaseException as error:  # noqa: BLE001 - reported via handle
            job.error = error
            self._finish(job, _FAILED)
        else:
            # A chain that completed normally beats a late cancel:
            # the work is done, deliver the result.
            job.result = result
            self._finish(job, _DONE)

    def _finish(self, job: _ServiceJob, state: str) -> None:
        with self._lock:
            job.state = state
            job.finished_s = time.monotonic()
            self._running.discard(job.id)
            self._active_cost_s = max(
                0.0, self._active_cost_s - job.estimate_s
            )
            launch = self._admit_locked()
        if self.obs is not None and getattr(self.obs, "enabled", False):
            self.obs.count(f"service.{state}")
        self.slo.tenant(job.tenant).record_completion(
            job.finished_s - job.submitted_s, state=state
        )
        job.finished.set()
        for admitted in launch:
            self._launch(admitted)

    def _cancel(self, job: _ServiceJob) -> None:
        with self._lock:
            if job.state == _QUEUED:
                job.state = _CANCELLED
                job.finished_s = time.monotonic()
                self.slo.tenant(job.tenant).record_completion(
                    job.finished_s - job.submitted_s, state=_CANCELLED
                )
                job.finished.set()
                return
        # Running (or already finished): flip the cooperative flag; a
        # running chain unwinds at its next slot acquisition.
        job.cancel.set()

    # -- telemetry ------------------------------------------------------

    def telemetry_snapshot(self) -> dict[str, Any]:
        """One structured view of the whole service, for the telemetry
        plane: scheduler state (queue depth, running chains, slot
        utilization), per-tenant slot accounting (grants, wait totals,
        wait histograms, in-flight leased tasks) and the SLO ledger.

        Sampled by :class:`~repro.obs.telemetry.TelemetryPlane` from
        its own thread; every substructure is copied under the
        relevant lock, never held across locks.
        """
        with self._lock:
            queued_chains = sum(
                1 for job in self._queue if job.state == _QUEUED
            )
            running_chains = len(self._running)
            chains_by_state: dict[str, int] = {}
            queued_per_tenant: dict[str, int] = {}
            running_per_tenant: dict[str, int] = {}
            inflight_per_tenant: dict[str, int] = {}
            for job in self._jobs.values():
                chains_by_state[job.state] = (
                    chains_by_state.get(job.state, 0) + 1
                )
                if job.state == _QUEUED:
                    queued_per_tenant[job.tenant] = (
                        queued_per_tenant.get(job.tenant, 0) + 1
                    )
                elif job.state == _RUNNING:
                    running_per_tenant[job.tenant] = (
                        running_per_tenant.get(job.tenant, 0) + 1
                    )
                    if job.lease is not None:
                        inflight_per_tenant[job.tenant] = (
                            inflight_per_tenant.get(job.tenant, 0)
                            + job.lease.stats().inflight()
                        )
            active_cost_s = self._active_cost_s
            closed = self._closed
        pool = self.pool.snapshot()
        pool_counters = pool["counters"]
        tenant_names = sorted(
            set(queued_per_tenant)
            | set(running_per_tenant)
            | set(pool["in_use"])
            | set(pool["waiting"])
            | set(pool["wait_histograms"])
            | {
                group[len("tenant."):]
                for group in pool_counters
                if group.startswith("tenant.")
            }
            | set(self.slo.tenants())
        )
        tenants: dict[str, Any] = {}
        for tenant in tenant_names:
            counters = pool_counters.get(f"tenant.{tenant}", {})
            tenants[tenant] = {
                "queued_chains": queued_per_tenant.get(tenant, 0),
                "running_chains": running_per_tenant.get(tenant, 0),
                "slots_in_use": pool["in_use"].get(tenant, 0),
                "waiting_tasks": pool["waiting"].get(tenant, 0),
                "tasks_inflight": inflight_per_tenant.get(tenant, 0),
                "slots_granted_total": counters.get(
                    Counters.SLOTS_GRANTED, 0
                ),
                "slot_wait_ms_total": counters.get(
                    Counters.SLOT_WAIT_MS, 0
                ),
                "wait_histogram": pool["wait_histograms"].get(tenant),
            }
        with self._model_lock:
            models_loaded = len(self._model_cache)
        with self._assign_lock:
            serving_tenants = {
                tenant: {
                    "requests_total": row["requests_total"],
                    "points_total": row["points_total"],
                    "outliers_total": row["outliers_total"],
                    "errors_total": row["errors_total"],
                    "latency_histogram": row["histogram"].snapshot(),
                }
                for tenant, row in sorted(self._assign_stats.items())
            }
        return {
            "service": {
                "name": self.name,
                "executor": self.executor_spec,
                "slots": self.slots,
                "closed": closed,
                "uptime_s": round(time.monotonic() - self._started_s, 6),
                "admission_budget_s": self.admission_budget_s,
                "active_cost_s": round(active_cost_s, 6),
            },
            "scheduler": {
                "queue_depth": queued_chains,
                "running_chains": running_chains,
                "slots_total": self.slots,
                "slots_in_use": pool["slots_held"],
                "utilization": pool["utilization"],
                "waiting_tasks": sum(pool["waiting"].values()),
                "chains_by_state": chains_by_state,
            },
            "tenants": tenants,
            "serving": {
                "models_loaded": models_loaded,
                "tenants": serving_tenants,
            },
            "slo": self.slo.snapshot(),
        }

    def start_telemetry(
        self,
        port: int = 0,
        *,
        host: str = "127.0.0.1",
        interval_s: float = 1.0,
        log_path: str | None = None,
    ) -> "TelemetryPlane":
        """Start the service-owned telemetry plane: periodic sampling
        of :meth:`telemetry_snapshot`, ``/metrics`` + ``/healthz`` +
        ``/statusz`` HTTP endpoints on ``port`` (0 = ephemeral; the
        bound port is on the returned plane), and an append-only JSONL
        log when ``log_path`` is given.  Stopped by :meth:`shutdown`.
        """
        if self.telemetry is not None:
            raise RuntimeError("telemetry already started")
        from repro.obs.telemetry import TelemetryPlane

        plane = TelemetryPlane(
            self.telemetry_snapshot,
            interval_s=interval_s,
            log_path=log_path,
        )
        plane.start(port, host=host)
        self.telemetry = plane
        # Attach the hub to the service obs so per-run scopes (and the
        # run reports built from them) carry the live-series summary.
        if self.obs is not None and getattr(self.obs, "enabled", False):
            self.obs.telemetry = plane.hub
        return plane

    # -- lifecycle ------------------------------------------------------

    def jobs(self) -> list[ServiceHandle]:
        with self._lock:
            return [ServiceHandle(self, job) for job in self._jobs.values()]

    def drain(self, timeout: float | None = None) -> bool:
        """Wait until every submitted chain has finished."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for job in list(self._jobs.values()):
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            if not job.finished.wait(remaining):
                return False
        return True

    def shutdown(self, cancel_pending: bool = False) -> None:
        self._closed = True
        if cancel_pending:
            for job in list(self._jobs.values()):
                if not job.finished.is_set():
                    self._cancel(job)
        self.drain()
        if self.telemetry is not None:
            self.telemetry.stop()
            self.telemetry = None

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
