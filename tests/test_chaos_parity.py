"""Executor parity under chaos: the acid test of the fault machinery.

For a multi-job chain under injected map errors, reduce errors,
stragglers and corrupted shuffle partitions, every executor backend
must produce *byte-identical* results to a clean serial run — fault
recovery (retries + shuffle-integrity validation) must be invisible in
the output.  The fault schedule is a pure function of the seed, so the
sweep is reproducible.
"""

from __future__ import annotations

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.core.types import Interval, Signature
from repro.mapreduce import (
    FaultPlan,
    JobChain,
    MapReduceRuntime,
    split_records,
)
from repro.mapreduce.events import EventKind
from repro.mapreduce.job import Job, Mapper, Reducer
from tests.mr_helpers import count_supports_mr

# One spec exercising every fault kind across both phases.
CHAOS_SPEC = (
    "map:error:p=0.3;reduce:error:p=0.25;map:delay:p=0.2:ms=3;map:corrupt:p=0.2"
)

N_RECORDS = 120
NUM_SPLITS = 6


class TokenizeMapper(Mapper):
    """records -> (word_bucket, 1) pairs, many per key and task."""

    def map(self, key, value, context):
        context.emit(value % 7, 1)


class CountReducer(Reducer):
    def reduce(self, key, values, context):
        context.emit(key, sum(values))


class RescaleMapper(Mapper):
    """Consumes job 1's output: (bucket, count) -> (bucket % 2, count)."""

    def map(self, key, value, context):
        context.emit(key % 2, value * 10)


class MaxReducer(Reducer):
    def reduce(self, key, values, context):
        context.emit(key, max(values))


class SpreadMapper(Mapper):
    """Map-only job over job 2's output (exercises map-only corruption)."""

    def map(self, key, value, context):
        context.emit(key, value + 1)
        context.emit(key + 100, value)


def _run_jobs(chain: JobChain) -> bytes:
    """The 3-job chaos chain body; returns the pickled outputs."""
    splits = split_records([(i, i) for i in range(N_RECORDS)], NUM_SPLITS)
    r1 = chain.run(
        "count",
        Job(mapper_factory=TokenizeMapper, reducer_factory=CountReducer),
        splits,
        num_reducers=3,
    )
    r2 = chain.run(
        "rescale",
        Job(mapper_factory=RescaleMapper, reducer_factory=MaxReducer),
        split_records(r1.output, 4),
        num_reducers=2,
    )
    r3 = chain.run(
        "spread",
        Job(mapper_factory=SpreadMapper),
        split_records(r2.output, 2),
        num_reducers=0,
    )
    return pickle.dumps([r1.output, r2.output, sorted(r3.output)])


def run_chain(
    executor: str | None,
    fault_spec: str | None,
    seed: int = 0,
    max_workers: int | None = None,
):
    """Run the 3-job chain; returns (pickled outputs, runtime)."""
    plan = FaultPlan.parse(fault_spec, seed=seed) if fault_spec else None
    runtime = MapReduceRuntime(
        executor=executor, max_workers=max_workers, fault_plan=plan
    )
    outputs = _run_jobs(JobChain(runtime))
    return outputs, runtime


@pytest.fixture(scope="module")
def clean_baseline():
    outputs, _ = run_chain("serial", None)
    return outputs


@pytest.mark.parametrize("seed", range(20))
def test_serial_chaos_matches_clean_run(clean_baseline, seed):
    outputs, runtime = run_chain("serial", CHAOS_SPEC, seed=seed)
    assert outputs == clean_baseline
    kinds = {e.kind for e in runtime.events.events}
    assert EventKind.TASK_FAILED not in kinds


@pytest.mark.parametrize("seed", range(20))
def test_thread_chaos_matches_clean_run(clean_baseline, seed):
    outputs, _ = run_chain("thread", CHAOS_SPEC, seed=seed, max_workers=4)
    assert outputs == clean_baseline


@pytest.mark.parametrize("seed", [0, 7, 13])
def test_process_chaos_matches_clean_run(clean_baseline, seed):
    # Fewer seeds: each process-pool chain pays worker spawn cost.
    outputs, _ = run_chain("process", CHAOS_SPEC, seed=seed, max_workers=2)
    assert outputs == clean_baseline


@pytest.mark.parametrize("executor", ["serial", "thread"])
def test_fault_schedule_identical_across_executors(executor):
    """The injected schedule (not just the output) matches serial."""

    def schedule(runtime):
        return sorted(
            (e.job, e.phase, e.task_id, e.attempt, e.error)
            for e in runtime.events.events
            if e.kind == EventKind.FAULT_INJECTED
        )

    _, baseline_rt = run_chain("serial", CHAOS_SPEC, seed=5)
    _, runtime = run_chain(executor, CHAOS_SPEC, seed=5, max_workers=4)
    assert schedule(runtime) == schedule(baseline_rt)


def test_chaos_runs_actually_injected_faults():
    """Guard against a silently inert sweep."""
    _, runtime = run_chain("serial", CHAOS_SPEC, seed=0)
    injected = sum(
        1 for e in runtime.events.events if e.kind == EventKind.FAULT_INJECTED
    )
    assert injected >= 3


# -- service-plane parity: concurrent chains on one shared pool -----------
#
# N chains submitted through the ClusterService — sharing one
# fair-share slot pool, interleaved at every task grant, optionally
# under per-chain chaos — must each reproduce the clean serial output
# byte for byte.  This is the isolation acid test: no cross-chain state
# (events, counters, retries, shuffle buffers) may leak.


@pytest.mark.parametrize(
    ("executor", "slots", "num_chains", "fault_spec"),
    [
        ("serial", 2, 4, None),
        ("thread", 4, 8, None),  # the 8-concurrent-chains criterion
        ("thread", 4, 4, CHAOS_SPEC),
        ("process", 2, 2, CHAOS_SPEC),
    ],
)
def test_scheduler_concurrent_chains_match_serial(
    clean_baseline, executor, slots, num_chains, fault_spec
):
    from repro.mapreduce import ClusterService

    def make_chain_fn(index: int):
        plan = (
            FaultPlan.parse(fault_spec, seed=index) if fault_spec else None
        )

        def run(ctx) -> bytes:
            return _run_jobs(JobChain(MapReduceRuntime(context=ctx)))

        return run, plan

    before = {child.pid for child in multiprocessing.active_children()}
    with ClusterService(slots=slots, executor=executor) as service:
        handles = []
        for i in range(num_chains):
            fn, plan = make_chain_fn(i)
            handles.append(
                service.submit(
                    fn, name=f"c{i}", tenant=f"t{i % 2}", fault_plan=plan
                )
            )
        results = [handle.result(timeout=120) for handle in handles]
    assert all(outputs == clean_baseline for outputs in results)
    # Each chain closed its executor's pool before reporting.
    left = {child.pid for child in multiprocessing.active_children()} - before
    assert left == set()


# -- vectorized (BatchMapper) chain parity --------------------------------
#
# The support-counting job runs the whole vectorized data plane: the
# runtime feeds ndarray split blocks to a BatchMapper, the RSSC counts
# supports through the packed-uint64 batch path, and on the process
# executor the cache ships via per-worker broadcast.  All of that must
# stay byte-invisible: under chaos, every backend must reproduce the
# clean serial output exactly.


def _support_workload():
    rng = np.random.default_rng(99)
    data = rng.uniform(size=(150, 5))
    signatures = []
    for j in range(12):
        attribute = j % 5
        lo = float(rng.uniform(0, 0.7))
        signatures.append(
            Signature([Interval(attribute, lo, lo + float(rng.uniform(0.1, 0.3)))])
        )
    # Exact boundary hits keep the closed-interval edge cases in play.
    data[0, 0] = signatures[0].intervals[0].lower
    data[1, 0] = signatures[0].intervals[0].upper
    return data, signatures


def run_vectorized_chain(
    executor: str | None,
    fault_spec: str | None,
    seed: int = 0,
    max_workers: int | None = None,
):
    """Run the RSSC support job end to end; returns (pickled output, runtime)."""
    plan = FaultPlan.parse(fault_spec, seed=seed) if fault_spec else None
    runtime = MapReduceRuntime(
        executor=executor, max_workers=max_workers, fault_plan=plan
    )
    chain = JobChain(runtime)
    data, signatures = _support_workload()
    supports = count_supports_mr(
        chain, split_records(data, NUM_SPLITS), signatures
    )
    outputs = pickle.dumps([(repr(sig), count) for sig, count in supports.items()])
    return outputs, runtime


@pytest.fixture(scope="module")
def clean_vectorized_baseline():
    outputs, _ = run_vectorized_chain("serial", None)
    return outputs


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_vectorized_serial_chaos_matches_clean_run(
    clean_vectorized_baseline, seed
):
    outputs, runtime = run_vectorized_chain("serial", CHAOS_SPEC, seed=seed)
    assert outputs == clean_vectorized_baseline
    kinds = {e.kind for e in runtime.events.events}
    assert EventKind.TASK_FAILED not in kinds


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_vectorized_thread_chaos_matches_clean_run(
    clean_vectorized_baseline, seed
):
    outputs, _ = run_vectorized_chain(
        "thread", CHAOS_SPEC, seed=seed, max_workers=4
    )
    assert outputs == clean_vectorized_baseline


@pytest.mark.parametrize("seed", [0, 7])
def test_vectorized_process_chaos_matches_clean_run(
    clean_vectorized_baseline, seed
):
    # The process run also exercises the cache broadcast + pickle-5
    # packing path; fewer seeds since each chain spawns a pool.
    outputs, _ = run_vectorized_chain(
        "process", CHAOS_SPEC, seed=seed, max_workers=2
    )
    assert outputs == clean_vectorized_baseline


# -- coreset-summary chain parity ------------------------------------------
#
# The coreset mapper samples in cleanup with an RNG derived from
# (seed, split id), so a chaos-injected retry of a map task must redraw
# the *identical* sample — points and weights of the summary stay byte-
# identical to a clean serial run on every backend.  Without this, a
# retried split would silently change the downstream weighted fit.


def run_coreset_chain(
    executor: str | None,
    fault_spec: str | None,
    seed: int = 0,
    max_workers: int | None = None,
):
    from repro.mr.coreset import build_coreset

    plan = FaultPlan.parse(fault_spec, seed=seed) if fault_spec else None
    runtime = MapReduceRuntime(
        executor=executor, max_workers=max_workers, fault_plan=plan
    )
    data = np.random.default_rng(42).uniform(size=(200, 4))
    summary = build_coreset(
        JobChain(runtime),
        split_records(data, NUM_SPLITS),
        60,
        mode="lightweight",
        seed=17,
    )
    return pickle.dumps((summary.points, summary.weights)), runtime


@pytest.fixture(scope="module")
def clean_coreset_baseline():
    outputs, _ = run_coreset_chain("serial", None)
    return outputs


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_coreset_serial_chaos_preserves_weights(clean_coreset_baseline, seed):
    outputs, runtime = run_coreset_chain("serial", CHAOS_SPEC, seed=seed)
    assert outputs == clean_coreset_baseline
    kinds = {e.kind for e in runtime.events.events}
    assert EventKind.TASK_FAILED not in kinds


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_coreset_thread_chaos_preserves_weights(clean_coreset_baseline, seed):
    outputs, _ = run_coreset_chain(
        "thread", CHAOS_SPEC, seed=seed, max_workers=4
    )
    assert outputs == clean_coreset_baseline


def test_coreset_process_chaos_preserves_weights(clean_coreset_baseline):
    outputs, _ = run_coreset_chain(
        "process", CHAOS_SPEC, seed=7, max_workers=2
    )
    assert outputs == clean_coreset_baseline


def test_vectorized_counts_match_bruteforce():
    """Anchor the parity sweep to ground truth, not just to itself."""
    from tests.oracles import count_supports

    data, signatures = _support_workload()
    expected = count_supports(data, signatures)
    outputs, _ = run_vectorized_chain("serial", None)
    assert pickle.loads(outputs) == [
        (repr(sig), expected[sig]) for sig in signatures
    ]
