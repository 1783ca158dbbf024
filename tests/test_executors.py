"""Tests for the pluggable executor layer and the runtime event stream:
backend resolution, serial/thread/process parity (down to the full
P3C+-MR pipeline on the Figure-6 small config), parallel reduce,
per-attempt trace events, and one worker pool per chain.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from concurrent.futures import BrokenExecutor
from typing import Any

import numpy as np
import pytest

from repro.core.types import ClusteringResult
from repro.mapreduce import (
    Context,
    Counters,
    DistributedCache,
    EventKind,
    FaultPlan,
    Job,
    JobChain,
    JobConf,
    Mapper,
    MapReduceRuntime,
    ProcessExecutor,
    Reducer,
    SerialExecutor,
    TaskFailedError,
    ThreadExecutor,
    resolve_executor,
)
from repro.mapreduce.events import format_trace
from repro.mapreduce.executors import Executor
from repro.mapreduce.types import split_records
from repro.mr import P3CPlusMR, P3CPlusMRConfig

EXECUTOR_NAMES = ("serial", "thread", "process")


class WordCountMapper(Mapper):
    def map(self, key: Any, value: str, context: Context) -> None:
        for word in value.split():
            context.emit(word, 1)


class SumReducer(Reducer):
    def reduce(self, key: Any, values: list[int], context: Context) -> None:
        context.emit(key, sum(values))


def _text_splits():
    lines = [
        (0, "the quick brown fox"),
        (1, "the lazy dog"),
        (2, "the quick dog"),
        (3, "fox and dog and fox"),
    ]
    return split_records(lines, 2)


def _double(x: int) -> int:
    return 2 * x


def _maybe_fail(x: int) -> int:
    if x == 2:
        raise ValueError("boom")
    return x


class TestResolveExecutor:
    def test_auto_rule(self):
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert isinstance(resolve_executor(None, 1), SerialExecutor)
        assert isinstance(resolve_executor(None, 3), ProcessExecutor)

    def test_by_name(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("thread", 2), ThreadExecutor)
        assert isinstance(resolve_executor("process", 2), ProcessExecutor)

    def test_instance_passthrough(self):
        backend = ThreadExecutor(2)
        assert resolve_executor(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("gpu")

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ThreadExecutor(0)


class TestRunBatch:
    @pytest.mark.parametrize(
        "backend",
        [SerialExecutor(), ThreadExecutor(2), ProcessExecutor(2)],
        ids=EXECUTOR_NAMES,
    )
    def test_results_in_call_order(self, backend: Executor):
        outcomes = backend.run_batch(_double, [(i,) for i in range(6)])
        assert [o.value for o in outcomes] == [0, 2, 4, 6, 8, 10]
        assert all(o.error is None for o in outcomes)

    @pytest.mark.parametrize(
        "backend",
        [SerialExecutor(), ThreadExecutor(2), ProcessExecutor(2)],
        ids=EXECUTOR_NAMES,
    )
    def test_errors_captured_not_raised(self, backend: Executor):
        outcomes = backend.run_batch(_maybe_fail, [(i,) for i in range(4)])
        assert [o.value for o in outcomes] == [0, 1, None, 3]
        assert isinstance(outcomes[2].error, ValueError)


class _SpyExecutor(Executor):
    """Delegating backend that records every batch it executes."""

    name = "spy"

    def __init__(self, inner: Executor) -> None:
        self.inner = inner
        self.batches: list[tuple[str, int]] = []

    def run_batch(self, fn, calls):
        self.batches.append((fn.__name__, len(calls)))
        return self.inner.run_batch(fn, calls)


class TestExecutorDispatch:
    def test_both_phases_run_through_the_executor(self):
        spy = _SpyExecutor(ThreadExecutor(2))
        runtime = MapReduceRuntime(executor=spy)
        job = Job(mapper_factory=WordCountMapper, reducer_factory=SumReducer)
        result = runtime.run(job, _text_splits(), JobConf(num_reducers=4))
        assert result.executor == "spy"
        assert spy.batches == [("_run_map_task", 2), ("_run_reduce_task", 4)]
        assert result.num_map_tasks == 2
        assert result.num_reduce_tasks == 4


class TestExecutorParity:
    def _run(self, name: str, num_reducers: int):
        runtime = MapReduceRuntime(executor=name, max_workers=2)
        job = Job(mapper_factory=WordCountMapper, reducer_factory=SumReducer)
        return runtime.run(job, _text_splits(), JobConf(num_reducers=num_reducers))

    @pytest.mark.parametrize("num_reducers", [1, 3])
    def test_wordcount_bit_identical(self, num_reducers: int):
        results = [self._run(name, num_reducers) for name in EXECUTOR_NAMES]
        baseline = results[0]
        for other in results[1:]:
            assert other.output == baseline.output  # order included
            assert other.counters.snapshot() == baseline.counters.snapshot()

    def test_full_pipeline_bit_identical(self):
        """All three executors on the full P3C+-MR pipeline, Figure-6
        small config (smallest QUICK_SCALE cell): bit-identical results."""
        from repro.experiments.configs import QUICK_SCALE
        from repro.experiments.runner import make_dataset

        dataset = make_dataset(
            QUICK_SCALE.sizes[0],
            QUICK_SCALE.dims,
            QUICK_SCALE.num_clusters[0],
            QUICK_SCALE.noise_levels[2],
            QUICK_SCALE.seed,
        )
        results = []
        before = _live_children()
        for name in EXECUTOR_NAMES:
            driver = P3CPlusMR(
                mr_config=P3CPlusMRConfig(executor=name, max_workers=2)
            )
            results.append(driver.fit(dataset.data))
        # The fit closed its chain's pool: no worker outlives it.
        assert _live_children() - before == set()
        _assert_identical_results(results[0], results[1])
        _assert_identical_results(results[0], results[2])


def _assert_identical_results(a: ClusteringResult, b: ClusteringResult) -> None:
    assert a.n_points == b.n_points and a.n_dims == b.n_dims
    assert np.array_equal(a.outliers, b.outliers)
    assert len(a.clusters) == len(b.clusters)
    for ca, cb in zip(a.clusters, b.clusters):
        assert np.array_equal(ca.members, cb.members)
        assert ca.relevant_attributes == cb.relevant_attributes
        assert ca.signature == cb.signature
    assert a.metadata == b.metadata


class TestEvents:
    def test_job_lifecycle_events(self):
        runtime = MapReduceRuntime()
        job = Job(mapper_factory=WordCountMapper, reducer_factory=SumReducer)
        result = runtime.run(job, _text_splits(), JobConf(name="wc"))
        kinds = [e.kind for e in result.events]
        assert kinds[0] == EventKind.JOB_START
        assert kinds[-1] == EventKind.JOB_FINISH
        assert kinds.count(EventKind.PHASE_START) == 2  # map + reduce
        assert kinds.count(EventKind.PHASE_FINISH) == 2
        # One start and one finish per task attempt: 2 maps + 1 reduce.
        assert kinds.count(EventKind.TASK_START) == 3
        assert kinds.count(EventKind.TASK_FINISH) == 3

    def test_task_finish_carries_counters_and_timing(self):
        runtime = MapReduceRuntime()
        job = Job(mapper_factory=WordCountMapper, reducer_factory=SumReducer)
        result = runtime.run(job, _text_splits(), JobConf(name="wc"))
        finishes = [
            e
            for e in result.events
            if e.kind == EventKind.TASK_FINISH and e.phase == "map"
        ]
        assert all(e.duration_s is not None for e in finishes)
        assert (
            sum(e.counter("framework", "map_input_records") for e in finishes)
            == 4
        )

    def test_phase_seconds_and_log_queries(self):
        runtime = MapReduceRuntime()
        job = Job(mapper_factory=WordCountMapper, reducer_factory=SumReducer)
        result = runtime.run(job, _text_splits(), JobConf(name="wc"))
        assert result.phase_seconds("map") > 0
        assert runtime.events.phase_seconds("wc", "map") == pytest.approx(
            result.phase_seconds("map")
        )
        assert runtime.events.task_attempts("wc") == 3

    def test_format_trace_renders_every_event(self):
        runtime = MapReduceRuntime()
        job = Job(mapper_factory=WordCountMapper, reducer_factory=SumReducer)
        result = runtime.run(job, _text_splits(), JobConf(name="wc"))
        trace = format_trace(result.events)
        assert trace.count("\n") + 1 == len(result.events)
        assert "job_start" in trace and "task_finish" in trace

    def test_events_to_jsonl_round_trips(self):
        import json

        from repro.mapreduce import events_to_jsonl

        runtime = MapReduceRuntime()
        job = Job(mapper_factory=WordCountMapper, reducer_factory=SumReducer)
        result = runtime.run(job, _text_splits(), JobConf(name="wc"))
        lines = events_to_jsonl(result.events).splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == len(result.events)
        assert records[0]["kind"] == "job_start"
        assert records[0]["job"] == "wc"

    def test_serial_and_thread_emit_same_event_shape(self):
        def run(name: str):
            runtime = MapReduceRuntime(executor=name, max_workers=2)
            job = Job(mapper_factory=WordCountMapper, reducer_factory=SumReducer)
            result = runtime.run(
                job, _text_splits(), JobConf(name="wc", num_reducers=2)
            )
            return [
                (e.kind, e.phase, e.task_id, e.attempt) for e in result.events
            ]

        # One barrier schedule on every executor: event order is part
        # of the contract, not just the event multiset.
        serial = run("serial")
        assert run("thread") == serial
        assert run("process") == serial


class TestCalibration:
    def test_calibrate_from_events(self):
        from repro.mapreduce import ClusterCostModel, calibrate_from_events

        runtime = MapReduceRuntime()
        job = Job(mapper_factory=WordCountMapper, reducer_factory=SumReducer)
        runtime.run(job, _text_splits(), JobConf(name="wc"))
        base = ClusterCostModel()
        fitted = calibrate_from_events(runtime.events, base=base)
        assert fitted.map_record_cost_s > 0
        assert fitted.map_record_cost_s != base.map_record_cost_s
        assert fitted.reduce_record_cost_s > 0
        # Constants without a local observable keep their defaults.
        assert fitted.shuffle_record_cost_s == base.shuffle_record_cost_s
        assert fitted.job_overhead_s == base.job_overhead_s

    def test_calibrate_with_no_events_is_identity(self):
        from repro.mapreduce import ClusterCostModel, calibrate_from_events

        base = ClusterCostModel()
        assert calibrate_from_events([], base=base) == base

    def test_model_shorthand(self):
        from repro.mapreduce import ClusterCostModel

        runtime = MapReduceRuntime()
        job = Job(mapper_factory=WordCountMapper, reducer_factory=SumReducer)
        runtime.run(job, _text_splits(), JobConf(name="wc"))
        fitted = ClusterCostModel().calibrate(runtime.events)
        assert fitted.map_record_cost_s > 0


# -- one pool per chain ----------------------------------------------------

_PARENT_PID = os.getpid()


def _live_children() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


class _CountingProcessExecutor(ProcessExecutor):
    """A process executor that counts the pools it starts."""

    def __init__(self, max_workers: int) -> None:
        super().__init__(max_workers)
        self.pools = 0

    def make_pool(self):
        self.pools += 1
        return super().make_pool()


class PidMapper(Mapper):
    """Emits each record, and the pid of the process that mapped it."""

    def map(self, key: Any, value: int, context: Context) -> None:
        context.emit(key, value)
        context.emit(("pid", key), os.getpid())


class WorkerKillingMapper(PidMapper):
    """Kills its worker process on the first attempt that runs in one."""

    def setup(self, context: Context) -> None:
        if os.getpid() == _PARENT_PID:
            return
        try:
            open(context.cache["flag"], "x").close()
        except FileExistsError:
            return
        os._exit(1)


def _records(result) -> list:
    return [(k, v) for k, v in result.output if not isinstance(k, tuple)]


def _pids(result) -> set[int]:
    return {v for k, v in result.output if isinstance(k, tuple)}


def _pid_splits():
    return split_records([(i, i) for i in range(8)], 4)


def _wait_until_broken(pool) -> None:
    """Probe ``pool`` until it reports a dead worker: the pool's own
    manager thread notices the death asynchronously."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            pool.submit(os.getpid).result(timeout=10)
        except BrokenExecutor:
            return
        time.sleep(0.01)
    raise AssertionError("the pool never reported its dead worker")


class TestPoolPerChain:
    def test_chain_reuses_one_pool(self):
        executor = _CountingProcessExecutor(2)
        chain = JobChain(MapReduceRuntime(executor=executor))
        try:
            results = [
                chain.run(
                    f"job{i}",
                    Job(mapper_factory=PidMapper),
                    _pid_splits(),
                    num_reducers=0,
                )
                for i in range(3)
            ]
        finally:
            executor.close()
        assert executor.pools == 1
        pids = set().union(*(_pids(result) for result in results))
        # Three jobs, one set of forked workers.
        assert os.getpid() not in pids
        assert len(pids) <= executor.max_workers

    @pytest.mark.parametrize("task_timeout_s", [None, 30])
    def test_dead_worker_does_not_break_later_jobs(self, tmp_path, task_timeout_s):
        flag = tmp_path / "killed"
        job = Job(
            mapper_factory=WorkerKillingMapper,
            cache=DistributedCache({"flag": str(flag)}),
        )
        expected = MapReduceRuntime().run(
            job, _pid_splits(), JobConf(num_reducers=0)
        )
        executor = _CountingProcessExecutor(2)
        runtime = MapReduceRuntime(executor=executor, task_timeout_s=task_timeout_s)
        try:
            first, second = (
                runtime.run(job, _pid_splits(), JobConf(name=name, num_reducers=0))
                for name in ("first", "second")
            )
        finally:
            executor.close()
        assert flag.exists()  # a worker really died
        assert _records(first) == _records(expected)
        assert first.counters.framework_value(Counters.TASK_RETRIES) >= 1
        # The broken pool was retired; the next job got a fresh one.
        assert _records(second) == _records(expected)
        assert executor.pools == 2
        assert os.getpid() not in _pids(second)

    @pytest.mark.parametrize("task_timeout_s", [None, 30])
    def test_worker_killed_between_jobs(self, task_timeout_s):
        # Batch path and timeout path alike: the idle pool's death is
        # found at submit, the pool retired and the job run on a fresh
        # one without costing an attempt.
        job = Job(mapper_factory=PidMapper)
        expected = MapReduceRuntime().run(job, _pid_splits(), JobConf(num_reducers=0))
        executor = _CountingProcessExecutor(2)
        runtime = MapReduceRuntime(executor=executor, task_timeout_s=task_timeout_s)
        try:
            first = runtime.run(job, _pid_splits(), JobConf(num_reducers=0))
            victim = min(_pids(first))
            os.kill(victim, signal.SIGKILL)
            _wait_until_broken(executor.pool())
            second = runtime.run(job, _pid_splits(), JobConf(num_reducers=0))
        finally:
            executor.close()
        assert _records(second) == _records(expected)
        assert executor.pools == 2
        assert second.counters.framework_value(Counters.TASK_RETRIES) == 0
        assert victim not in _pids(second)

    def test_failed_fit_leaves_no_worker_behind(self, small_dataset):
        before = _live_children()
        driver = P3CPlusMR(
            mr_config=P3CPlusMRConfig(
                num_splits=4,
                executor="process",
                max_workers=2,
                fault_plan=FaultPlan.parse("map:error:job=em_iter:always=1"),
            )
        )
        with pytest.raises(TaskFailedError):
            driver.fit(small_dataset.data)
        assert driver.chain.num_jobs > 1  # the pool served earlier jobs
        assert _live_children() - before == set()
