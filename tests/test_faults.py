"""Unit tests for the chaos layer: spec parsing, deterministic
schedules, recovery via retries, shuffle-integrity validation and task
timeouts."""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import Counter

import numpy as np
import pytest

from repro.mapreduce import (
    ChaosError,
    ChaosExecutor,
    FaultPlan,
    JobConf,
    MapReduceRuntime,
    SerialExecutor,
    ShuffleIntegrityError,
    TaskFailedError,
    TaskTimeoutError,
    parse_fault_spec,
    split_records,
)
from repro.mapreduce.events import EventKind
from repro.mapreduce.job import Job, Mapper, Reducer


class ModMapper(Mapper):
    def map(self, key, value, context):
        context.emit(key % 3, value)


class SumReducer(Reducer):
    def reduce(self, key, values, context):
        context.emit(key, sum(values))


class PidMapper(Mapper):
    def map(self, key, value, context):
        context.emit(key, os.getpid())


def _job(mapper=ModMapper):
    return Job(mapper_factory=mapper, reducer_factory=SumReducer)


def _splits(n=30, num_splits=6):
    return split_records([(i, i) for i in range(n)], num_splits)


def _expected(n=30):
    totals = Counter()
    for i in range(n):
        totals[i % 3] += i
    return sorted(totals.items())


def _event_kinds(runtime):
    return Counter(e.kind for e in runtime.events.events)


# -- spec parsing -------------------------------------------------------


class TestParseFaultSpec:
    def test_minimal_clause(self):
        (clause,) = parse_fault_spec("map:error")
        assert clause.phase == "map"
        assert clause.kind == "error"
        assert clause.probability == 1.0
        assert not clause.always

    def test_full_clause(self):
        (clause,) = parse_fault_spec("reduce:delay:p=0.25:ms=40:job=em:task=3")
        assert clause.phase == "reduce"
        assert clause.kind == "delay"
        assert clause.probability == 0.25
        assert clause.delay_ms == 40
        assert clause.job == "em"
        assert clause.task_id == 3

    def test_multiple_clauses_get_distinct_indices(self):
        clauses = parse_fault_spec("map:error;map:error;reduce:delay")
        assert [c.index for c in clauses] == [0, 1, 2]

    def test_always_flag(self):
        (clause,) = parse_fault_spec("map:error:always=1")
        assert clause.always

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "map",
            "map:explode",
            "orbit:error",
            "map:error:p=1.5",
            "map:error:banana",
            "map:error:what=1",
            "reduce:corrupt",  # corrupt is map-only
        ],
    )
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            parse_fault_spec(spec)

    def test_clause_describe_round_trips_fields(self):
        (clause,) = parse_fault_spec("map:delay:p=0.5:ms=10:task=2")
        description = clause.describe()
        for token in ("map:delay", "p=0.5", "ms=10", "task=2"):
            assert token in description


# -- deterministic schedules --------------------------------------------


class TestFaultPlanDeterminism:
    def test_same_seed_same_schedule(self):
        plan_a = FaultPlan.parse("map:error:p=0.5", seed=3)
        plan_b = FaultPlan.parse("map:error:p=0.5", seed=3)
        coords = [("job", "map", t, 1) for t in range(50)]
        assert [plan_a.faults_for(*c) for c in coords] == [
            plan_b.faults_for(*c) for c in coords
        ]

    def test_different_seeds_differ(self):
        plan_a = FaultPlan.parse("map:error:p=0.5", seed=0)
        plan_b = FaultPlan.parse("map:error:p=0.5", seed=1)
        hits_a = [bool(plan_a.faults_for("j", "map", t, 1)) for t in range(64)]
        hits_b = [bool(plan_b.faults_for("j", "map", t, 1)) for t in range(64)]
        assert hits_a != hits_b

    def test_probability_is_roughly_respected(self):
        plan = FaultPlan.parse("map:error:p=0.3", seed=11)
        hits = sum(
            bool(plan.faults_for("j", "map", t, 1)) for t in range(2000)
        )
        assert 0.25 < hits / 2000 < 0.35

    def test_transient_faults_spare_retries(self):
        plan = FaultPlan.parse("map:error")
        assert plan.faults_for("j", "map", 0, 1)
        assert not plan.faults_for("j", "map", 0, 2)

    def test_always_faults_hit_every_attempt(self):
        plan = FaultPlan.parse("map:error:always=1")
        for attempt in (1, 2, 3):
            assert plan.faults_for("j", "map", 0, attempt)

    def test_job_filter_is_substring_match(self):
        plan = FaultPlan.parse("map:error:job=em_")
        assert plan.faults_for("em_estep_2", "map", 0, 1)
        assert not plan.faults_for("histogram", "map", 0, 1)

    def test_phase_and_task_filters(self):
        plan = FaultPlan.parse("reduce:error:task=1")
        assert plan.faults_for("j", "reduce", 1, 1)
        assert not plan.faults_for("j", "reduce", 2, 1)
        assert not plan.faults_for("j", "map", 1, 1)
        wildcard = FaultPlan.parse("*:error")
        assert wildcard.faults_for("j", "map", 0, 1)
        assert wildcard.faults_for("j", "reduce", 0, 1)


# -- recovery through the runtime ---------------------------------------


class TestChaosRecovery:
    def test_transient_map_errors_recover_and_output_matches(self):
        plan = FaultPlan.parse("map:error:p=0.6", seed=2)
        runtime = MapReduceRuntime(fault_plan=plan)
        result = runtime.run(_job(), _splits(), JobConf(name="j", num_splits=6))
        assert result.output == _expected()
        kinds = _event_kinds(runtime)
        assert kinds[EventKind.FAULT_INJECTED] >= 1
        assert kinds[EventKind.TASK_RETRY] >= 1
        assert kinds[EventKind.TASK_FAILED] == 0

    def test_transient_reduce_errors_recover(self):
        plan = FaultPlan.parse("reduce:error:p=0.9", seed=4)
        runtime = MapReduceRuntime(fault_plan=plan)
        result = runtime.run(
            _job(), _splits(), JobConf(name="j", num_splits=6, num_reducers=3)
        )
        assert result.output == _expected()
        assert _event_kinds(runtime)[EventKind.TASK_RETRY] >= 1

    def test_permanent_fault_exhausts_attempts(self):
        plan = FaultPlan.parse("map:error:task=0:always=1")
        runtime = MapReduceRuntime(fault_plan=plan)
        with pytest.raises(TaskFailedError) as info:
            runtime.run(_job(), _splits(), JobConf(name="j", num_splits=6))
        assert isinstance(info.value.cause, ChaosError)

    def test_corrupt_payload_is_caught_and_retried(self):
        plan = FaultPlan.parse("map:corrupt:task=2", seed=0)
        runtime = MapReduceRuntime(fault_plan=plan)
        result = runtime.run(_job(), _splits(), JobConf(name="j", num_splits=6))
        assert result.output == _expected()
        retries = [
            e
            for e in runtime.events.events
            if e.kind == EventKind.TASK_RETRY and e.task_id == 2
        ]
        assert retries and "ShuffleIntegrityError" in retries[0].error

    def test_corrupt_map_only_payload_is_caught(self):
        plan = FaultPlan.parse("map:corrupt:task=1")
        runtime = MapReduceRuntime(fault_plan=plan)
        result = runtime.run(
            Job(mapper_factory=ModMapper),
            _splits(),
            JobConf(name="j", num_splits=6, num_reducers=0),
        )
        assert sorted(result.output) == sorted(
            (i % 3, i) for i in range(30)
        )
        assert _event_kinds(runtime)[EventKind.TASK_RETRY] >= 1

    def test_delay_fault_slows_but_preserves_output(self):
        plan = FaultPlan.parse("map:delay:task=0:ms=30")
        runtime = MapReduceRuntime(fault_plan=plan)
        started = time.perf_counter()
        result = runtime.run(_job(), _splits(), JobConf(name="j", num_splits=6))
        assert time.perf_counter() - started > 0.03
        assert result.output == _expected()

    def test_no_plan_means_no_chaos_wrapping(self):
        runtime = MapReduceRuntime()
        assert not isinstance(runtime.default_executor, ChaosExecutor)
        result = runtime.run(_job(), _splits(), JobConf(name="j", num_splits=6))
        assert result.output == _expected()
        assert _event_kinds(runtime)[EventKind.FAULT_INJECTED] == 0

    def test_fault_injected_events_carry_clause_description(self):
        plan = FaultPlan.parse("map:error:p=0.8", seed=1)
        runtime = MapReduceRuntime(fault_plan=plan)
        runtime.run(_job(), _splits(), JobConf(name="j", num_splits=6))
        injected = [
            e for e in runtime.events.events if e.kind == EventKind.FAULT_INJECTED
        ]
        assert injected
        assert all("map:error" in e.error for e in injected)

    def test_chaos_executor_name_tags_inner_backend(self):
        plan = FaultPlan.parse("map:error")
        chaos = ChaosExecutor(SerialExecutor(), plan)
        assert chaos.name == "chaos+serial"


# -- shuffle-integrity validation ---------------------------------------


class TestShuffleIntegrity:
    def test_error_message_names_the_mismatch(self):
        plan = FaultPlan.parse("map:corrupt:task=0:always=1")
        runtime = MapReduceRuntime(fault_plan=plan)
        with pytest.raises(TaskFailedError) as info:
            runtime.run(_job(), _splits(), JobConf(name="j", num_splits=6))
        assert isinstance(info.value.cause, ShuffleIntegrityError)


# -- task timeouts ------------------------------------------------------


class TestTaskTimeouts:
    def test_serial_post_hoc_timeout_retries(self):
        plan = FaultPlan.parse("map:delay:task=1:ms=80")
        runtime = MapReduceRuntime(fault_plan=plan, task_timeout_s=0.04)
        result = runtime.run(_job(), _splits(), JobConf(name="j", num_splits=6))
        assert result.output == _expected()
        kinds = _event_kinds(runtime)
        assert kinds[EventKind.TASK_TIMEOUT] >= 1
        assert kinds[EventKind.TASK_RETRY] >= 1

    def test_thread_pool_timeout_abandons_straggler(self):
        plan = FaultPlan.parse("map:delay:task=1:ms=600")
        runtime = MapReduceRuntime(
            executor="thread",
            max_workers=4,
            fault_plan=plan,
            task_timeout_s=0.08,
        )
        started = time.perf_counter()
        result = runtime.run(_job(), _splits(), JobConf(name="j", num_splits=6))
        elapsed = time.perf_counter() - started
        assert result.output == _expected()
        assert elapsed < 0.6  # did not wait out the 600 ms straggler
        kinds = _event_kinds(runtime)
        assert kinds[EventKind.TASK_TIMEOUT] >= 1
        assert kinds[EventKind.TASK_RETRY] >= 1

    def test_straggler_does_not_hold_a_worker_in_the_next_job(self):
        # The abandoned attempt sleeps on in its worker, so the first
        # job retires the chain's pool and the second starts a fresh one.
        plan = FaultPlan.parse("map:delay:job=first:task=1:ms=1500")
        before = {child.pid for child in multiprocessing.active_children()}
        pids = {}
        with MapReduceRuntime(
            executor="process",
            max_workers=2,
            fault_plan=plan,
            task_timeout_s=0.3,
        ) as runtime:
            for name in ("first", "second"):
                result = runtime.run(
                    Job(mapper_factory=PidMapper),
                    _splits(),
                    JobConf(name=name, num_splits=6),
                )
                assert sorted(key for key, _ in result.output) == list(range(30))
                pids[name] = {pid for _, pid in result.output}
        assert _event_kinds(runtime)[EventKind.TASK_TIMEOUT] >= 1
        assert os.getpid() not in pids["first"] | pids["second"]
        assert pids["first"].isdisjoint(pids["second"])
        for child in multiprocessing.active_children():
            if child.pid not in before:
                deadline = time.monotonic() + 5
                child.join(timeout=5)
                # The retired pool's manager thread joins its workers too.
                # When it reaps this one first, join() returns before that
                # thread has stored the exit code, and is_alive() still
                # reads True for a moment.
                while child.is_alive() and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert not child.is_alive()

    def test_permanent_straggler_exhausts_attempts(self):
        plan = FaultPlan.parse("map:delay:task=0:ms=200:always=1")
        runtime = MapReduceRuntime(
            executor="thread",
            max_workers=2,
            fault_plan=plan,
            task_timeout_s=0.05,
        )
        with pytest.raises(TaskFailedError) as info:
            runtime.run(_job(), _splits(), JobConf(name="j", num_splits=6))
        assert isinstance(info.value.cause, TaskTimeoutError)

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            MapReduceRuntime(task_timeout_s=0.0).run(
                _job(), _splits(), JobConf(name="j", num_splits=6)
            )


# -- chaos payload corruption helpers -----------------------------------


class TestTruncatePayload:
    def test_bucketed_payload_truncates_last_nonempty_partition(self):
        from repro.mapreduce.faults import _truncate_payload

        payload = [[(0, 1)], [(1, 2), (1, 3)], []]
        corrupted = _truncate_payload(payload)
        assert corrupted == [[(0, 1)], [(1, 2)], []]
        assert payload == [[(0, 1)], [(1, 2), (1, 3)], []]  # input untouched

    def test_flat_payload_drops_last_pair(self):
        from repro.mapreduce.faults import _truncate_payload

        assert _truncate_payload([(0, 1), (1, 2)]) == [(0, 1)]

    def test_numpy_values_are_supported(self):
        from repro.mapreduce.faults import _truncate_payload

        payload = [[("k", np.arange(3))], []]
        corrupted = _truncate_payload(payload)
        assert corrupted == [[], []]
