"""Tests for the process-executor data plane: stable cache
fingerprints and per-worker broadcast via :class:`CacheHandle`
(localised files, a bounded registry, workers reused across jobs).
"""

from __future__ import annotations

import gc
import os
import pickle
import sys
import threading
from typing import Any

import numpy as np
import pytest

from repro.core.types import Interval, Signature
from repro.mapreduce import (
    CacheHandle,
    Context,
    DistributedCache,
    Job,
    JobConf,
    Mapper,
    MapReduceRuntime,
    ProcessExecutor,
    Reducer,
    SerialExecutor,
)
from repro.mapreduce import executors
from repro.mapreduce.executors import _MAX_BROADCASTS, _WORKER_CACHES
from repro.mapreduce.types import split_records


class TestFingerprintStability:
    def test_equal_entries_equal_fingerprint(self):
        a = DistributedCache({"x": 1, "y": [1, 2, 3]})
        b = DistributedCache({"y": [1, 2, 3], "x": 1})  # other insertion order
        assert a.fingerprint() == b.fingerprint()

    def test_different_entries_different_fingerprint(self):
        a = DistributedCache({"x": 1})
        assert a.fingerprint() != DistributedCache({"x": 2}).fingerprint()
        assert a.fingerprint() != DistributedCache({"z": 1}).fingerprint()

    def test_ndarray_entries(self):
        data = np.arange(12.0).reshape(3, 4)
        a = DistributedCache({"m": data})
        assert a.fingerprint() == DistributedCache({"m": data.copy()}).fingerprint()
        assert (
            a.fingerprint()
            != DistributedCache({"m": data + 1e-9}).fingerprint()
        )
        # Same bytes, different shape must not collide.
        assert (
            a.fingerprint()
            != DistributedCache({"m": data.reshape(4, 3)}).fingerprint()
        )

    def test_set_entries_order_independent(self):
        # Native set iteration order varies across processes under hash
        # randomisation; the fingerprint must not.
        a = DistributedCache({"s": {"alpha", "beta", "gamma"}})
        b = DistributedCache({"s": {"gamma", "alpha", "beta"}})
        assert a.fingerprint() == b.fingerprint()

    def test_nested_dict_entries(self):
        a = DistributedCache({"cfg": {"lo": 0.1, "hi": 0.9}})
        b = DistributedCache({"cfg": {"hi": 0.9, "lo": 0.1}})
        assert a.fingerprint() == b.fingerprint()

    def test_value_dataclass_entries(self):
        sigs = [Signature([Interval(0, 0.1, 0.4)])]
        a = DistributedCache({"signatures": sigs})
        assert (
            a.fingerprint()
            == DistributedCache({"signatures": list(sigs)}).fingerprint()
        )

    def test_pickle_roundtrip_preserves_fingerprint(self):
        cache = DistributedCache(
            {"b": np.ones(5), "a": {"k": (1, 2)}, "c": {3, 1, 2}}
        )
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.fingerprint() == cache.fingerprint()
        assert sorted(clone) == sorted(cache)
        np.testing.assert_array_equal(clone["b"], cache["b"])
        assert clone["a"] == cache["a"] and clone["c"] == cache["c"]


class TestCacheHandle:
    def test_resolves_against_registry(self):
        cache = DistributedCache({"k": 41})
        _WORKER_CACHES[cache.fingerprint()] = cache
        try:
            handle = CacheHandle(cache.fingerprint())
            assert handle["k"] == 41
            assert len(handle) == 1
            assert list(handle) == ["k"]
            assert handle.fingerprint() == cache.fingerprint()
        finally:
            del _WORKER_CACHES[cache.fingerprint()]

    def test_miss_raises_helpful_error(self):
        handle = CacheHandle("deadbeefdeadbeef")
        with pytest.raises(RuntimeError, match="not\\s+installed"):
            handle["anything"]

    def test_pickles_to_constant_size(self):
        big = DistributedCache({"blob": np.zeros((500, 500))})
        executor = ProcessExecutor(max_workers=1)
        handle = executor.broadcast(big)
        handle_bytes = pickle.dumps(handle, protocol=5)
        cache_bytes = pickle.dumps(big, protocol=5)
        executor.close()
        assert len(handle_bytes) < 200
        assert len(cache_bytes) > 1_000_000
        clone = pickle.loads(handle_bytes)
        assert isinstance(clone, CacheHandle)
        assert clone.fingerprint() == big.fingerprint()

    def test_broadcast_is_idempotent(self):
        executor = ProcessExecutor(max_workers=1)
        cache = DistributedCache({"x": np.arange(4)})
        first = executor.broadcast(cache)
        second = executor.broadcast(DistributedCache({"x": np.arange(4)}))
        assert len(executor._broadcasts) == 1
        executor.close()
        assert first.fingerprint() == second.fingerprint()
        assert first.path == second.path

    def test_miss_loads_localised_file_once(self):
        executor = ProcessExecutor(max_workers=1)
        cache = DistributedCache({"seed": 7})
        handle = pickle.loads(pickle.dumps(executor.broadcast(cache)))
        try:
            # A worker forked before the broadcast misses its registry...
            del _WORKER_CACHES[cache.fingerprint()]
            assert handle["seed"] == 7
            # ...loads the file once, then resolves from the registry.
            os.unlink(handle.path)
            assert handle["seed"] == 7
        finally:
            executor.close()
        assert not os.path.exists(os.path.dirname(handle.path))
        assert cache.fingerprint() not in _WORKER_CACHES

    def test_unclosed_executor_removes_its_files_when_collected(self):
        executor = ProcessExecutor(max_workers=1)
        handle = executor.broadcast(DistributedCache({"seed": 7}))
        assert os.path.exists(handle.path)
        del executor
        gc.collect()
        assert not os.path.exists(os.path.dirname(handle.path))

    def test_concurrent_registration_keeps_the_cap(self):
        # Chains on several threads broadcast into one registry; an
        # unguarded eviction races into a KeyError.
        errors: list[Exception] = []

        def register(worker: int) -> None:
            caches = [DistributedCache({"worker": worker, "i": i}) for i in range(16)]
            try:
                for _ in range(1000):
                    for cache in caches:
                        executors._register(cache.fingerprint(), cache)
            except Exception as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        threads = [
            threading.Thread(target=register, args=(w,)) for w in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(_WORKER_CACHES) == _MAX_BROADCASTS


# -- end-to-end: broadcast through a real process-pool job ---------------


class CacheProbeMapper(Mapper):
    """Emits, per record, the value looked up in the distributed cache,
    the concrete cache type the task saw, the worker's pid and the size
    of its cache registry."""

    def setup(self, context: Context) -> None:
        self._offsets: np.ndarray = context.cache["offsets"]
        self._cache_type = type(context.cache).__name__

    def map(self, key: Any, value: int, context: Context) -> None:
        context.emit(key, int(self._offsets[value]))
        context.emit(("cache_type", key), self._cache_type)
        context.emit(("pid", key), os.getpid())
        context.emit(("registry", key), len(executors._WORKER_CACHES))


class FirstReducer(Reducer):
    def reduce(self, key: Any, values: list[Any], context: Context) -> None:
        context.emit(key, values[0])


def _probe_job(shift: int = 0) -> tuple[Job, list]:
    job = Job(
        mapper_factory=CacheProbeMapper,
        reducer_factory=FirstReducer,
        cache=DistributedCache({"offsets": np.arange(8) * 10 + shift}),
    )
    splits = split_records([(i, i) for i in range(8)], 4)
    return job, splits


def _probes(result, name: str) -> set:
    return {
        v for k, v in result.output if isinstance(k, tuple) and k[0] == name
    }


class TestBroadcastEndToEnd:
    def test_process_tasks_see_a_handle_and_correct_values(self):
        executor = ProcessExecutor(2)
        runtime = MapReduceRuntime(executor=executor)
        results = []
        try:
            # The second job's cache is broadcast after the pool started.
            for shift in (0, 5):
                job, splits = _probe_job(shift)
                results.append(runtime.run(job, splits, JobConf(num_reducers=1)))
        finally:
            executor.close()
        for shift, result in zip((0, 5), results):
            output = dict(result.output)
            for i in range(8):
                assert output[i] == i * 10 + shift
            # Every map task resolved the cache through the broadcast handle.
            assert _probes(result, "cache_type") == {"CacheHandle"}
        # Both jobs ran in the same forked workers.
        first, second = (_probes(result, "pid") for result in results)
        assert os.getpid() not in first | second
        assert len(first | second) <= executor.max_workers

    def test_worker_registry_stays_bounded(self):
        executor = ProcessExecutor(2)
        runtime = MapReduceRuntime(executor=executor)
        sizes: set[int] = set()
        try:
            for shift in range(10):
                job, splits = _probe_job(shift)
                result = runtime.run(job, splits, JobConf(num_reducers=1))
                assert dict(result.output)[7] == 70 + shift
                sizes |= _probes(result, "registry")
        finally:
            executor.close()
        assert max(sizes) <= _MAX_BROADCASTS

    def test_serial_matches_process_output(self):
        job, splits = _probe_job()
        serial = MapReduceRuntime(executor=SerialExecutor()).run(
            job, splits, JobConf(num_reducers=1)
        )
        process = MapReduceRuntime(executor=ProcessExecutor(2)).run(
            job, splits, JobConf(num_reducers=1)
        )
        # Payloads match except the probe rows (cache type, pid, registry).
        def payload(result):
            return [
                (k, v) for k, v in result.output if not isinstance(k, tuple)
            ]

        assert payload(serial) == payload(process)
