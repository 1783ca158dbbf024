"""Tests for the multi-tenant service plane: the fair-share slot pool
(weighted grants, quotas, cancellation, counters), the executor slot
lease seam, and the long-lived :class:`ClusterService` (submission,
cost-gated admission, per-tenant concurrency caps, cancel semantics,
per-run observability scoping).
"""

from __future__ import annotations

import threading
import time
from typing import Any

import pytest

from repro.mapreduce import (
    ClusterService,
    Context,
    Counters,
    EventLog,
    FairShareSlotPool,
    Job,
    JobCancelledError,
    JobChain,
    Mapper,
    MapReduceRuntime,
    Reducer,
    SlotLease,
    TaskFailedError,
    TaskRunner,
    TenantQuota,
    ThreadExecutor,
)
from repro.mapreduce.types import split_records
from repro.obs import Observability


def _wait_until(predicate, timeout: float = 5.0) -> None:
    deadline = time.perf_counter() + timeout
    while not predicate():
        if time.perf_counter() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.005)


def _acquire_in_thread(
    pool: FairShareSlotPool,
    tenant: str,
    grants: list[str],
    cancel: threading.Event | None = None,
) -> threading.Thread:
    def run() -> None:
        pool.acquire(tenant, cancel=cancel)
        grants.append(tenant)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


def _waiting(pool: FairShareSlotPool, tenant: str) -> int:
    return pool.snapshot()["waiting"].get(tenant, 0)


class TestFairShareSlotPool:
    def test_grants_up_to_slots_and_blocks_beyond(self):
        pool = FairShareSlotPool(2)
        pool.acquire("a")
        pool.acquire("a")
        grants: list[str] = []
        thread = _acquire_in_thread(pool, "a", grants)
        _wait_until(lambda: _waiting(pool, "a") == 1)
        assert grants == []
        pool.release("a")
        thread.join(timeout=5)
        assert grants == ["a"]

    def test_prefers_starved_tenant(self):
        # a holds the whole pool; waiters arrive as b then a.  The
        # freed slot must go to b (share 0) over a (share > 0), even
        # though a asked "first" in wall-clock terms is irrelevant —
        # starvation, not FIFO, orders grants.
        pool = FairShareSlotPool(2)
        pool.acquire("a")
        pool.acquire("a")
        grants: list[str] = []
        thread_b = _acquire_in_thread(pool, "b", grants)
        _wait_until(lambda: _waiting(pool, "b") == 1)
        thread_a = _acquire_in_thread(pool, "a", grants)
        _wait_until(lambda: _waiting(pool, "a") == 1)

        pool.release("a")
        thread_b.join(timeout=5)
        assert grants == ["b"]
        pool.release("a")
        thread_a.join(timeout=5)
        assert grants == ["b", "a"]

    def test_weight_scales_fair_share(self):
        # x, h (weight 2) and l (weight 1) each hold one slot; h and l
        # both wait for a second.  When x releases, h's share (1/2) is
        # below l's (1/1), so the heavier tenant is granted first.
        pool = FairShareSlotPool(3)
        pool.configure("h", TenantQuota(weight=2.0))
        pool.acquire("x")
        pool.acquire("h")
        pool.acquire("l")
        grants: list[str] = []
        thread_h = _acquire_in_thread(pool, "h", grants)
        _wait_until(lambda: _waiting(pool, "h") == 1)
        thread_l = _acquire_in_thread(pool, "l", grants)
        _wait_until(lambda: _waiting(pool, "l") == 1)

        pool.release("x")
        thread_h.join(timeout=5)
        assert grants == ["h"]
        pool.release("h")
        pool.release("h")
        thread_l.join(timeout=5)
        assert grants == ["h", "l"]

    def test_max_slots_caps_tenant_without_blocking_others(self):
        pool = FairShareSlotPool(3)
        pool.configure("capped", TenantQuota(max_slots=1))
        pool.acquire("capped")
        grants: list[str] = []
        thread = _acquire_in_thread(pool, "capped", grants)
        _wait_until(lambda: _waiting(pool, "capped") == 1)
        assert grants == []  # over its cap with two slots still free

        # A capped waiter must not veto other tenants' grants.
        assert pool.acquire("other") < 1.0
        assert grants == []

        pool.release("capped")
        thread.join(timeout=5)
        assert grants == ["capped"]

    def test_cancel_set_before_acquire_raises_immediately(self):
        pool = FairShareSlotPool(1)
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(JobCancelledError):
            pool.acquire("a", cancel=cancel)
        assert pool.snapshot()["in_use"] == {}

    def test_cancel_while_waiting_raises(self):
        pool = FairShareSlotPool(1, poll_s=0.01)
        pool.acquire("holder")
        cancel = threading.Event()
        errors: list[BaseException] = []

        def run() -> None:
            try:
                pool.acquire("victim", cancel=cancel)
            except JobCancelledError as error:
                errors.append(error)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        _wait_until(lambda: _waiting(pool, "victim") == 1)
        cancel.set()
        thread.join(timeout=5)
        assert len(errors) == 1
        assert _waiting(pool, "victim") == 0

    def test_release_without_acquire_raises(self):
        pool = FairShareSlotPool(1)
        with pytest.raises(RuntimeError, match="never acquired"):
            pool.release("ghost")

    def test_counters_track_grants_per_tenant_and_aggregate(self):
        pool = FairShareSlotPool(2)
        pool.acquire("a")
        pool.release("a")
        pool.acquire("a")
        pool.release("a")
        pool.acquire("b")
        pool.release("b")
        counters = pool.counters.snapshot()
        assert counters["tenant.a"]["slots_granted"] == 2
        assert counters["tenant.b"]["slots_granted"] == 1
        assert counters["service"]["slots_granted"] == 3
        assert counters["service"]["slot_wait_ms"] >= 0

    def test_invalid_quota_rejected(self):
        with pytest.raises(ValueError):
            TenantQuota(weight=0.0)
        with pytest.raises(ValueError):
            TenantQuota(max_slots=0)
        with pytest.raises(ValueError):
            TenantQuota(max_concurrent=0)
        with pytest.raises(ValueError):
            FairShareSlotPool(0)


class _CountingLease(SlotLease):
    """Semaphore-backed lease that records peak concurrency."""

    def __init__(self, slots: int) -> None:
        self._semaphore = threading.Semaphore(slots)
        self._lock = threading.Lock()
        self.acquires = 0
        self.releases = 0
        self.active = 0
        self.peak = 0

    def acquire(self) -> None:
        self._semaphore.acquire()
        with self._lock:
            self.acquires += 1
            self.active += 1
            self.peak = max(self.peak, self.active)

    def release(self) -> None:
        with self._lock:
            self.releases += 1
            self.active -= 1
        self._semaphore.release()


def _nap(i: int):
    time.sleep(0.02)
    return i, Counters(), 0.02


def _leased_phase(executor, fn, num_tasks: int):
    """Run one phase of ``num_tasks`` calls through the runner's
    dispatch, one attempt per task."""
    runner = TaskRunner(executor, EventLog(), "leased", max_attempts=1)
    try:
        return runner.run_phase(
            "map",
            fn,
            [(i,) for i in range(num_tasks)],
            list(range(num_tasks)),
            Counters(),
        )
    finally:
        executor.close()


class TestExecutorLeaseSeam:
    def test_lease_bounds_pool_concurrency(self):
        # A 4-worker pool under a 2-slot lease never runs more than 2
        # tasks at once, and acquire/release balance over the phase.
        executor = ThreadExecutor(max_workers=4)
        lease = _CountingLease(2)
        executor.slot_lease = lease
        results = _leased_phase(executor, _nap, 8)
        assert [payload for payload, _ in results] == list(range(8))
        assert lease.acquires == 8
        assert lease.releases == 8
        assert lease.active == 0
        assert lease.peak <= 2

    def test_lease_released_on_task_error(self):
        executor = ThreadExecutor(max_workers=2)
        lease = _CountingLease(2)
        executor.slot_lease = lease

        def boom(i: int):
            raise ValueError(f"task {i}")

        with pytest.raises(TaskFailedError):
            _leased_phase(executor, boom, 4)
        assert lease.acquires == lease.releases == 4
        assert lease.active == 0


class AddMapper(Mapper):
    def map(self, key: Any, value: int, context: Context) -> None:
        context.emit(key % 4, value + 1)


class SumReducer(Reducer):
    def reduce(self, key: Any, values: list[int], context: Context) -> None:
        context.emit(key, sum(values))


def _sum_chain(ctx) -> list:
    chain = JobChain(MapReduceRuntime(context=ctx))
    data = split_records([(i, i) for i in range(40)], 4)
    result = chain.run(
        "sums", Job(mapper_factory=AddMapper, reducer_factory=SumReducer),
        data, num_reducers=2,
    )
    return sorted(result.output)


def _serial_baseline() -> list:
    chain = JobChain(MapReduceRuntime())
    data = split_records([(i, i) for i in range(40)], 4)
    result = chain.run(
        "sums", Job(mapper_factory=AddMapper, reducer_factory=SumReducer),
        data, num_reducers=2,
    )
    return sorted(result.output)


class TestClusterService:
    def test_concurrent_tenants_match_serial(self):
        expected = _serial_baseline()
        with ClusterService(slots=2, executor="thread") as service:
            handles = [
                service.submit(_sum_chain, name=f"c{i}", tenant=f"t{i % 2}")
                for i in range(4)
            ]
            results = [handle.result(timeout=60) for handle in handles]
        assert all(result == expected for result in results)
        counters = service.pool.counters.snapshot()
        assert counters["tenant.t0"]["slots_granted"] > 0
        assert counters["tenant.t1"]["slots_granted"] > 0
        assert counters["service"]["slots_granted"] == (
            counters["tenant.t0"]["slots_granted"]
            + counters["tenant.t1"]["slots_granted"]
        )

    def test_handle_lifecycle_and_info(self):
        with ClusterService(slots=2) as service:
            handle = service.submit(_sum_chain, name="chain", tenant="alice")
            assert handle.result(timeout=60) == _serial_baseline()
        assert handle.status() == "done"
        assert handle.done()
        assert handle.job_id == "alice/chain-1"
        info = handle.info()
        assert info["state"] == "done"
        assert info["queue_wait_s"] >= 0.0
        assert info["run_s"] > 0.0

    def test_admission_gates_on_cost_budget(self):
        # Budget below one default chain estimate: the first (idle
        # service) submission always runs; the second queues until the
        # first completes, then is admitted — gated, never rejected.
        release = threading.Event()

        def blocking_chain(ctx) -> str:
            assert release.wait(timeout=30)
            return "first"

        with ClusterService(slots=2, admission_budget_s=1.0) as service:
            first = service.submit(blocking_chain, tenant="a")
            second = service.submit(lambda ctx: "second", tenant="b")
            _wait_until(lambda: first.status() == "running")
            time.sleep(0.05)
            assert second.status() == "queued"
            release.set()
            assert first.result(timeout=30) == "first"
            assert second.result(timeout=30) == "second"

    def test_max_concurrent_quota_queues_excess_chains(self):
        release = threading.Event()

        def blocking_chain(ctx) -> str:
            assert release.wait(timeout=30)
            return ctx.run_id

        with ClusterService(slots=4) as service:
            service.set_quota("a", max_concurrent=1)
            first = service.submit(blocking_chain, tenant="a")
            second = service.submit(blocking_chain, tenant="a")
            _wait_until(lambda: first.status() == "running")
            time.sleep(0.05)
            assert second.status() == "queued"
            release.set()
            assert first.result(timeout=30)
            assert second.result(timeout=30)

    def test_cancel_queued_job(self):
        release = threading.Event()

        def blocking_chain(ctx) -> str:
            assert release.wait(timeout=30)
            return "ok"

        with ClusterService(slots=2, admission_budget_s=1.0) as service:
            first = service.submit(blocking_chain, tenant="a")
            second = service.submit(lambda ctx: "never", tenant="b")
            _wait_until(lambda: first.status() == "running")
            second.cancel()
            assert second.status() == "cancelled"
            with pytest.raises(JobCancelledError):
                second.result(timeout=5)
            release.set()
            assert first.result(timeout=30) == "ok"

    def test_cancel_running_job_at_slot_acquire(self):
        started = threading.Event()

        def endless_chain(ctx) -> None:
            chain = JobChain(MapReduceRuntime(context=ctx))
            data = split_records([(i, i) for i in range(8)], 2)
            job = Job(mapper_factory=AddMapper, reducer_factory=SumReducer)
            for ordinal in range(10_000):
                chain.run(f"job_{ordinal}", job, data, num_reducers=2)
                started.set()

        with ClusterService(slots=2) as service:
            handle = service.submit(endless_chain, tenant="a")
            assert started.wait(timeout=30)
            handle.cancel()
            with pytest.raises(JobCancelledError):
                handle.result(timeout=30)
        assert handle.status() == "cancelled"
        # Every slot the cancelled chain held was returned to the pool.
        assert service.pool.snapshot()["in_use"] == {}

    def test_failed_chain_reraises_from_result(self):
        def broken_chain(ctx) -> None:
            raise ValueError("deliberate failure")

        with ClusterService(slots=2) as service:
            handle = service.submit(broken_chain, tenant="a")
            with pytest.raises(ValueError, match="deliberate failure"):
                handle.result(timeout=30)
        assert handle.status() == "failed"
        assert isinstance(handle.error, ValueError)

    def test_submit_after_shutdown_rejected(self):
        service = ClusterService(slots=1)
        service.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            service.submit(lambda ctx: None)

    def test_per_run_obs_scopes_are_isolated(self):
        base = Observability(enabled=True)
        seen: dict[str, Any] = {}

        def chain(ctx) -> str:
            seen[ctx.run_id] = ctx.obs
            ctx.obs.count("chain.ticks")
            return ctx.run_id

        with ClusterService(slots=2, obs=base) as service:
            first = service.submit(chain, tenant="a", name="one")
            second = service.submit(chain, tenant="b", name="two")
            run_ids = {first.result(timeout=30), second.result(timeout=30)}
        assert run_ids == {"a/one-1", "b/two-2"}
        scopes = list(seen.values())
        assert scopes[0] is not scopes[1]
        for scope in scopes:
            assert scope.metrics.snapshot()["counters"]["chain.ticks"] == 1
        # Per-run counts chain up into the service-level aggregate, and
        # lifecycle counts land on the base scope.
        base_counters = base.metrics.snapshot()["counters"]
        assert base_counters["chain.ticks"] == 2
        assert base_counters["service.done"] == 2

    def test_priority_reconfigures_tenant_weight(self):
        with ClusterService(slots=2) as service:
            service.set_quota("a", max_slots=1)
            service.submit(lambda ctx: None, tenant="a", priority=3.0)
            quota = service.pool.quota("a")
        assert quota.weight == 3.0
        assert quota.max_slots == 1  # priority keeps existing caps
