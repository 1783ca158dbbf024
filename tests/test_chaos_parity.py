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
from repro.mr.support import run_support_job

# One spec exercising every fault kind across both phases.
CHAOS_SPEC = (
    "map:error:p=0.3;reduce:error:p=0.25;map:delay:p=0.2:ms=3;map:corrupt:p=0.2"
)

N_RECORDS = 120
NUM_SPLITS = 6


class TokenizeMapper(Mapper):
    """records -> (word_bucket, 1) pairs with a combiner-friendly shape."""

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
    supports = run_support_job(
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
    from repro.core.proving import count_supports

    data, signatures = _support_workload()
    expected = count_supports(data, signatures)
    outputs, _ = run_vectorized_chain("serial", None)
    assert pickle.loads(outputs) == [
        (repr(sig), expected[sig]) for sig in signatures
    ]


# -- columnar vs tuple shuffle-plane parity (property-based) ---------------
#
# The tuple plane is the columnar plane's oracle: for any uniform
# (key, ndarray) workload, packing buckets into ColumnarBucket blocks
# (plus the vectorized combiner fold) must be byte-invisible in the
# job output on every executor backend.

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce import JobConf
from repro.mapreduce.job import ArraySumCombiner


class ArrayEmitMapper(Mapper):
    def map(self, key, value, context):
        inner_key, row = value
        context.emit(inner_key, row)


class ArraySumReducer(Reducer):
    def reduce(self, key, values, context):
        total = values[0].copy()
        for value in values[1:]:
            total += value
        context.emit(key, total)


def _run_array_job(records, num_reducers, executor, columnar):
    runtime = MapReduceRuntime(executor=executor, max_workers=2)
    job = Job(
        mapper_factory=ArrayEmitMapper,
        reducer_factory=ArraySumReducer,
        combiner_factory=ArraySumCombiner,
    )
    result = runtime.run(
        job,
        split_records(records, 3),
        JobConf(num_reducers=num_reducers, columnar_shuffle=columnar),
    )
    return pickle.dumps(result.output)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    d=st.integers(1, 5),
    num_keys=st.integers(1, 8),
    num_reducers=st.integers(1, 4),
    numpy_keys=st.booleans(),
)
def test_columnar_plane_matches_tuple_plane(
    seed, n, d, num_keys, num_reducers, numpy_keys
):
    rng = np.random.default_rng(seed)
    data = rng.uniform(size=(n, d))
    key_of = (lambda i: np.int64(i % num_keys)) if numpy_keys else (
        lambda i: int(i % num_keys)
    )
    records = [(i, (key_of(i), data[i])) for i in range(n)]
    oracle = _run_array_job(records, num_reducers, "serial", columnar=False)
    assert _run_array_job(records, num_reducers, "serial", True) == oracle
    assert _run_array_job(records, num_reducers, "thread", True) == oracle


def test_columnar_plane_matches_tuple_plane_on_process_executor():
    """One fixed workload through the real pickle-5 process transport.

    Both planes run on the process executor so the transport is held
    constant: arrays that cross a process boundary come back with a
    non-singleton dtype instance, which perturbs whole-list pickle
    memoization against a serial run while every pair stays
    byte-identical — so the serial oracle is compared pairwise."""
    rng = np.random.default_rng(7)
    records = [(i, (int(i % 5), rng.uniform(size=3))) for i in range(40)]
    columnar = _run_array_job(records, 2, "process", columnar=True)
    assert columnar == _run_array_job(records, 2, "process", columnar=False)
    serial = pickle.loads(_run_array_job(records, 2, "serial", columnar=False))
    assert [pickle.dumps(pair) for pair in pickle.loads(columnar)] == [
        pickle.dumps(pair) for pair in serial
    ]


# -- spill-to-disk shuffle parity ------------------------------------------
#
# The in-heap columnar plane is the spill plane's oracle: with a
# one-byte memory budget every columnar bucket is written out as
# compressed npz segments and gathered by streaming concat, and the job
# output must stay byte-identical — clean and under chaos, on every
# backend.


def _spill_records(n=80, d=4, num_keys=6, seed=21):
    rng = np.random.default_rng(seed)
    data = rng.uniform(size=(n, d))
    return [(i, (int(i % num_keys), data[i])) for i in range(n)]


def _run_spill_job(
    records,
    num_reducers,
    executor,
    spill,
    fault_spec=None,
    seed=0,
    spill_dir=None,
):
    plan = FaultPlan.parse(fault_spec, seed=seed) if fault_spec else None
    runtime = MapReduceRuntime(
        executor=executor, max_workers=2, fault_plan=plan
    )
    job = Job(
        mapper_factory=ArrayEmitMapper,
        reducer_factory=ArraySumReducer,
        combiner_factory=ArraySumCombiner,
    )
    conf = JobConf(
        num_reducers=num_reducers,
        memory_budget_bytes=1 if spill else None,
        spill_dir=str(spill_dir) if spill_dir is not None else None,
    )
    result = runtime.run(job, split_records(records, 3), conf)
    return pickle.dumps(result.output), result


def test_spill_plane_matches_heap_plane():
    records = _spill_records()
    oracle, heap_result = _run_spill_job(records, 3, "serial", spill=False)
    spilled, result = _run_spill_job(records, 3, "serial", spill=True)
    assert spilled == oracle
    assert result.counters.framework_value("spilled_bytes") > 0
    assert result.counters.framework_value("spill_segments") > 0
    assert heap_result.counters.framework_value("spilled_bytes") == 0
    # Spilling must not change the *logical* shuffle volume accounting.
    assert result.counters.framework_value(
        "shuffle_bytes"
    ) == heap_result.counters.framework_value("shuffle_bytes")


def test_spill_leaves_no_segments_behind(tmp_path):
    root = tmp_path / "spill-root"
    root.mkdir()
    records = _spill_records()
    oracle, _ = _run_spill_job(records, 3, "serial", spill=False)
    spilled, _ = _run_spill_job(
        records, 3, "serial", spill=True, spill_dir=root
    )
    assert spilled == oracle
    # The user-supplied root survives; the job-scoped subdir (and every
    # segment in it) is removed when the job finishes.
    assert root.exists()
    assert list(root.iterdir()) == []


@pytest.mark.parametrize("executor", ["serial", "thread"])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_spill_chaos_matches_heap_plane(executor, seed):
    records = _spill_records()
    oracle, _ = _run_spill_job(records, 3, "serial", spill=False)
    spilled, result = _run_spill_job(
        records, 3, executor, spill=True, fault_spec=CHAOS_SPEC, seed=seed
    )
    assert spilled == oracle
    assert result.counters.framework_value("spill_segments") > 0


def test_spill_process_matches_heap_plane():
    # Workers spill into the runtime-resolved directory from separate
    # processes; the reducer side streams them back through pickle-5
    # transport.  Compared against the process-executor heap run so the
    # transport is held constant (see the columnar process test above).
    records = _spill_records()
    heap, _ = _run_spill_job(records, 2, "process", spill=False)
    spilled, result = _run_spill_job(records, 2, "process", spill=True)
    assert spilled == heap
    assert result.counters.framework_value("spill_segments") > 0


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 50),
    d=st.integers(1, 4),
    num_keys=st.integers(1, 6),
    num_reducers=st.integers(1, 4),
)
def test_spill_plane_property_parity(seed, n, d, num_keys, num_reducers):
    rng = np.random.default_rng(seed)
    data = rng.uniform(size=(n, d))
    records = [(i, (int(i % num_keys), data[i])) for i in range(n)]
    oracle, _ = _run_spill_job(records, num_reducers, "serial", spill=False)
    spilled, _ = _run_spill_job(records, num_reducers, "serial", spill=True)
    assert spilled == oracle
