"""Failure-injection tests for the runtime's task re-execution, in both
the map and reduce phases, across executor backends."""

from __future__ import annotations

import os
from typing import Any

import pytest

from repro.mapreduce import (
    Context,
    FaultPlan,
    Job,
    JobConf,
    Mapper,
    MapReduceRuntime,
    Reducer,
    TaskFailedError,
)
from repro.mapreduce.runtime import TASK_RETRIES
from repro.mapreduce.types import split_records

# Module-level attempt ledger: mapper instances are re-created per
# attempt, so flaky behaviour must live outside the task object —
# exactly the kind of external transient failure retries exist for.
_ATTEMPTS: dict[tuple[str, int], int] = {}


def _reset() -> None:
    _ATTEMPTS.clear()


class FlakyMapper(Mapper):
    """Fails the first N attempts of each map task."""

    fail_first = 1

    def setup(self, context: Context) -> None:
        key = ("map", context.task_id)
        _ATTEMPTS[key] = _ATTEMPTS.get(key, 0) + 1
        if _ATTEMPTS[key] <= self.fail_first:
            raise IOError(f"transient failure on split {context.task_id}")

    def map(self, key: Any, value: Any, context: Context) -> None:
        context.emit("count", 1)


class AlwaysFailingMapper(Mapper):
    def map(self, key: Any, value: Any, context: Context) -> None:
        raise RuntimeError("permanent failure")


class FlakyReducer(Reducer):
    def setup(self, context: Context) -> None:
        key = ("reduce", context.task_id)
        _ATTEMPTS[key] = _ATTEMPTS.get(key, 0) + 1
        if _ATTEMPTS[key] <= 1:
            raise IOError("transient reducer failure")

    def reduce(self, key: Any, values: list[Any], context: Context) -> None:
        context.emit(key, sum(values))


class SumReducer(Reducer):
    def reduce(self, key: Any, values: list[Any], context: Context) -> None:
        context.emit(key, sum(values))


def _splits(n: int = 12, k: int = 3):
    return split_records([(i, i) for i in range(n)], k)


class TestMapRetries:
    def test_transient_failure_recovered(self):
        _reset()
        runtime = MapReduceRuntime()
        job = Job(mapper_factory=FlakyMapper, reducer_factory=SumReducer)
        result = runtime.run(job, _splits(), JobConf(max_task_attempts=3))
        assert result.as_dict() == {"count": 12}

    def test_retries_counted(self):
        _reset()
        runtime = MapReduceRuntime()
        job = Job(mapper_factory=FlakyMapper, reducer_factory=SumReducer)
        result = runtime.run(job, _splits(k=3), JobConf(max_task_attempts=3))
        assert result.counters.framework_value(TASK_RETRIES) == 3  # one/split

    def test_permanent_failure_raises(self):
        runtime = MapReduceRuntime()
        job = Job(mapper_factory=AlwaysFailingMapper)
        with pytest.raises(TaskFailedError) as info:
            runtime.run(job, _splits(), JobConf(max_task_attempts=2, num_reducers=0))
        assert info.value.phase == "map"
        assert info.value.attempts == 2
        assert isinstance(info.value.cause, RuntimeError)

    def test_fail_fast_with_single_attempt(self):
        _reset()
        runtime = MapReduceRuntime()
        job = Job(mapper_factory=FlakyMapper, reducer_factory=SumReducer)
        with pytest.raises(TaskFailedError):
            runtime.run(job, _splits(), JobConf(max_task_attempts=1))

    def test_no_duplicate_output_after_retry(self):
        """Re-executed tasks must not double-count records."""
        _reset()
        runtime = MapReduceRuntime()
        job = Job(mapper_factory=FlakyMapper, reducer_factory=SumReducer)
        result = runtime.run(job, _splits(n=20, k=4), JobConf(max_task_attempts=4))
        assert result.as_dict() == {"count": 20}


class TestReduceRetries:
    def test_transient_reducer_recovered(self):
        _reset()
        runtime = MapReduceRuntime()

        class CountMapper(Mapper):
            def map(self, key: Any, value: Any, context: Context) -> None:
                context.emit("total", value)

        job = Job(mapper_factory=CountMapper, reducer_factory=FlakyReducer)
        result = runtime.run(job, _splits(n=5, k=1), JobConf(max_task_attempts=2))
        assert result.as_dict() == {"total": sum(range(5))}

    def test_conf_validates_attempts(self):
        with pytest.raises(ValueError):
            JobConf(max_task_attempts=0)


class CountMapper(Mapper):
    def map(self, key: Any, value: Any, context: Context) -> None:
        context.emit(key % 4, 1)


class AlwaysFailingReducer(Reducer):
    def reduce(self, key: Any, values: list[Any], context: Context) -> None:
        raise RuntimeError("permanent reducer failure")


class PidMapper(Mapper):
    """Emits each record, then the pid of the process that ran the
    attempt."""

    def map(self, key: Any, value: Any, context: Context) -> None:
        context.emit(key, value)

    def cleanup(self, context: Context) -> None:
        context.emit("pid", os.getpid())


class TestRetriesAcrossExecutors:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_map_faults_recovered(self, executor):
        _reset()
        runtime = MapReduceRuntime(executor=executor, max_workers=2)
        job = Job(mapper_factory=FlakyMapper, reducer_factory=SumReducer)
        result = runtime.run(job, _splits(), JobConf(max_task_attempts=3))
        assert result.as_dict() == {"count": 12}
        assert result.counters.framework_value(TASK_RETRIES) == 3

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_reduce_faults_recovered_in_parallel_phase(self, executor):
        _reset()
        runtime = MapReduceRuntime(executor=executor, max_workers=2)
        job = Job(mapper_factory=CountMapper, reducer_factory=FlakyReducer)
        result = runtime.run(
            job,
            _splits(n=16, k=4),
            JobConf(num_reducers=4, max_task_attempts=2),
        )
        assert sum(result.as_dict().values()) == 16
        # Every non-empty reduce partition failed once and was retried.
        retried = {
            tid for phase, tid in _ATTEMPTS if phase == "reduce"
        }
        assert result.counters.framework_value(TASK_RETRIES) >= len(retried)

    @pytest.mark.parametrize("task_timeout_s", [None, 30])
    def test_process_pool_retries_run_on_the_pool(self, task_timeout_s):
        # Every first map attempt fails; each retry goes through the
        # same dispatch as its first attempt, so it runs in a pool
        # worker, never in the parent, with or without a deadline.
        with MapReduceRuntime(
            executor="process",
            max_workers=2,
            fault_plan=FaultPlan.parse("map:error:p=1"),
            task_timeout_s=task_timeout_s,
        ) as runtime:
            result = runtime.run(
                Job(mapper_factory=PidMapper),
                _splits(),
                JobConf(max_task_attempts=2, num_reducers=0),
            )
        records = [key for key, _ in result.output if key != "pid"]
        pids = {value for key, value in result.output if key == "pid"}
        assert records == list(range(12))
        assert result.counters.framework_value(TASK_RETRIES) == 3
        assert pids and os.getpid() not in pids


class TestExhaustedTaskAccounting:
    def test_retries_recorded_for_exhausted_map_task(self):
        runtime = MapReduceRuntime()
        job = Job(mapper_factory=AlwaysFailingMapper)
        with pytest.raises(TaskFailedError) as info:
            runtime.run(
                job, _splits(), JobConf(max_task_attempts=3, num_reducers=0)
            )
        # The failed-then-exhausted task's re-executions are counted
        # even though the job produced no result.
        assert info.value.counters is not None
        assert info.value.counters.framework_value(TASK_RETRIES) == 2

    def test_retries_recorded_for_exhausted_reduce_task(self):
        runtime = MapReduceRuntime()
        job = Job(
            mapper_factory=CountMapper, reducer_factory=AlwaysFailingReducer
        )
        with pytest.raises(TaskFailedError) as info:
            runtime.run(job, _splits(), JobConf(max_task_attempts=2))
        assert info.value.phase == "reduce"
        assert info.value.counters.framework_value(TASK_RETRIES) == 1

    def test_failed_job_leaves_event_trail(self):
        from repro.mapreduce import EventKind

        runtime = MapReduceRuntime()
        job = Job(mapper_factory=AlwaysFailingMapper)
        with pytest.raises(TaskFailedError):
            runtime.run(
                job,
                _splits(n=4, k=1),
                JobConf(name="doomed", max_task_attempts=3, num_reducers=0),
            )
        kinds = [e.kind for e in runtime.events.select(job="doomed")]
        assert kinds.count(EventKind.TASK_START) == 3  # every attempt
        assert kinds.count(EventKind.TASK_RETRY) == 2
        assert kinds.count(EventKind.TASK_FAILED) == 1


class TestRetryEvents:
    def test_every_attempt_emits_events(self):
        from repro.mapreduce import EventKind

        _reset()
        runtime = MapReduceRuntime()
        job = Job(mapper_factory=FlakyMapper, reducer_factory=SumReducer)
        runtime.run(
            job, _splits(), JobConf(name="flaky", max_task_attempts=3)
        )
        events = runtime.events.select(job="flaky", phase="map")
        starts = [e for e in events if e.kind == EventKind.TASK_START]
        retries = [e for e in events if e.kind == EventKind.TASK_RETRY]
        # 3 splits, each failing once: 6 attempts, 3 retry events.
        assert len(starts) == 6
        assert len(retries) == 3
        assert all(e.error is not None for e in retries)
        assert {e.attempt for e in starts} == {1, 2}


class TestDeterminismUnderRetry:
    def test_output_independent_of_which_attempt_succeeded(self):
        _reset()
        runtime = MapReduceRuntime()
        flaky_job = Job(mapper_factory=FlakyMapper, reducer_factory=SumReducer)
        flaky = runtime.run(flaky_job, _splits(), JobConf(max_task_attempts=3))

        class CleanMapper(Mapper):
            def map(self, key: Any, value: Any, context: Context) -> None:
                context.emit("count", 1)

        clean_job = Job(mapper_factory=CleanMapper, reducer_factory=SumReducer)
        clean = runtime.run(clean_job, _splits(), JobConf())
        assert flaky.as_dict() == clean.as_dict()
