"""Chain checkpoint/resume: kill-and-recover, staleness, accounting."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.mapreduce import (
    CheckpointStore,
    Counters,
    FaultPlan,
    JobChain,
    MapReduceRuntime,
    TaskFailedError,
    chain_fingerprint,
    fingerprint_splits,
    split_records,
)
from repro.mapreduce.events import EventKind
from repro.mapreduce.job import Job, Mapper, Reducer
from repro.mapreduce.types import JobConf
from repro.mr import P3CPlusMRConfig, P3CPlusMRLight
from repro.obs import Observability, build_run_report


class AddMapper(Mapper):
    def map(self, key, value, context):
        context.emit(key % 4, value)


class SumReducer(Reducer):
    def reduce(self, key, values, context):
        context.emit(key, sum(values))


def _records(n=48, offset=0):
    return [(i, i + offset) for i in range(n)]


def _run_chain(tmpdir, resume=False, fault_spec=None, offset=0, names=None):
    plan = FaultPlan.parse(fault_spec) if fault_spec else None
    runtime = MapReduceRuntime(fault_plan=plan)
    chain = JobChain(runtime, checkpoint=tmpdir, resume=resume)
    names = names or ["stage_a", "stage_b", "stage_c"]
    splits = split_records(_records(offset=offset), 4)
    result = None
    for name in names:
        result = chain.run(
            name,
            Job(mapper_factory=AddMapper, reducer_factory=SumReducer),
            splits,
            num_reducers=2,
        )
        splits = split_records(result.output, 2)
    return chain, result


# -- fingerprints -------------------------------------------------------


class TestFingerprints:
    def test_split_fingerprint_is_stable(self):
        splits = split_records(_records(), 4)
        assert fingerprint_splits(splits) == fingerprint_splits(
            split_records(_records(), 4)
        )

    def test_split_fingerprint_sees_data_changes(self):
        a = fingerprint_splits(split_records(_records(offset=0), 4))
        b = fingerprint_splits(split_records(_records(offset=1), 4))
        assert a != b

    def test_split_fingerprint_sees_resplits(self):
        a = fingerprint_splits(split_records(_records(), 4))
        b = fingerprint_splits(split_records(_records(), 6))
        assert a != b

    def test_split_fingerprint_handles_numpy_rows(self):
        data = np.arange(20.0).reshape(10, 2)
        a = fingerprint_splits(split_records(data, 2))
        data2 = data.copy()
        data2[0, 0] += 1
        b = fingerprint_splits(split_records(data2, 2))
        assert a != b

    def test_chain_fingerprint_folds_history(self):
        splits = split_records(_records(), 4)
        conf = JobConf(name="x", num_splits=4)
        a = chain_fingerprint("", "x", conf, splits)
        b = chain_fingerprint(a, "x", conf, splits)
        assert a != b

    def test_chain_fingerprint_sees_conf_changes(self):
        splits = split_records(_records(), 4)
        a = chain_fingerprint("", "x", JobConf(name="x", num_reducers=1), splits)
        b = chain_fingerprint("", "x", JobConf(name="x", num_reducers=2), splits)
        assert a != b


# -- the store ----------------------------------------------------------


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("000_a", "fp1", [(1, 2)], meta={"wall_time": 0.5})
        output, meta = store.load("000_a", "fp1")
        assert output == [(1, 2)]
        assert meta["wall_time"] == 0.5

    def test_stale_fingerprint_misses(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("000_a", "fp1", [(1, 2)], meta={})
        assert store.load("000_a", "other") is None

    def test_corrupt_manifest_is_tolerated(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("000_a", "fp1", [(1, 2)], meta={})
        (tmp_path / "manifest.json").write_text("{not json")
        reopened = CheckpointStore(tmp_path)
        assert len(reopened) == 0

    def test_truncated_pickle_is_tolerated(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("000_a", "fp1", [(1, 2)], meta={})
        (tmp_path / "jobs" / "000_a.pkl").write_bytes(b"\x80")
        reopened = CheckpointStore(tmp_path)
        assert reopened.load("000_a", "fp1") is None

    def test_job_key_sanitizes_names(self):
        assert CheckpointStore.job_key(3, "em step/2 (cov)") == "003_em_step_2_cov_"

    def test_manifest_is_valid_json_with_schema(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("000_a", "fp1", [], meta={})
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["schema"] == CheckpointStore.SCHEMA
        assert "000_a" in manifest["jobs"]


# -- resume semantics ---------------------------------------------------


class TestResume:
    def test_full_resume_skips_every_job(self, tmp_path):
        chain1, result1 = _run_chain(tmp_path)
        assert chain1.num_restored_jobs == 0

        chain2, result2 = _run_chain(tmp_path, resume=True)
        assert chain2.num_restored_jobs == 3
        assert result2.output == result1.output
        assert result2.executor == "checkpoint"
        skipped = [
            e
            for e in chain2.runtime.events.events
            if e.kind == EventKind.JOB_SKIPPED
        ]
        assert [e.job for e in skipped] == ["stage_a", "stage_b", "stage_c"]

    def test_restored_counters_match_original(self, tmp_path):
        chain1, result1 = _run_chain(tmp_path)
        chain2, result2 = _run_chain(tmp_path, resume=True)
        assert result2.counters.snapshot() == result1.counters.snapshot()
        assert chain2.total_shuffle_records == chain1.total_shuffle_records

    def test_kill_after_job_k_then_resume_matches_uninterrupted(self, tmp_path):
        # Uninterrupted reference run (separate store).
        _, reference = _run_chain(tmp_path / "ref")

        # Interrupted run: permanent fault kills stage_b.
        with pytest.raises(TaskFailedError):
            _run_chain(
                tmp_path / "ck", fault_spec="map:error:job=stage_b:always=1"
            )
        interrupted = CheckpointStore(tmp_path / "ck")
        assert len(interrupted) == 1  # only stage_a completed

        # Resume without the fault: stage_a restored, b/c re-run.
        chain, result = _run_chain(tmp_path / "ck", resume=True)
        assert result.output == reference.output
        assert chain.num_restored_jobs == 1
        skipped = [
            e
            for e in chain.runtime.events.events
            if e.kind == EventKind.JOB_SKIPPED
        ]
        assert [e.job for e in skipped] == ["stage_a"]

    def test_stale_input_forces_recompute(self, tmp_path):
        _run_chain(tmp_path)
        # Same chain shape, different data: nothing may be restored.
        chain, _ = _run_chain(tmp_path, resume=True, offset=100)
        assert chain.num_restored_jobs == 0

    def test_renamed_job_forces_recompute_of_suffix(self, tmp_path):
        _run_chain(tmp_path)
        chain, _ = _run_chain(
            tmp_path,
            resume=True,
            names=["stage_a", "stage_b2", "stage_c"],
        )
        # stage_a restores; the rename breaks the chained fingerprint
        # for everything after it.
        assert chain.num_restored_jobs == 1

    def test_without_resume_flag_store_is_write_only(self, tmp_path):
        _run_chain(tmp_path)
        chain, _ = _run_chain(tmp_path, resume=False)
        assert chain.num_restored_jobs == 0


# -- driver + run-report integration ------------------------------------


class TestDriverResume:
    @pytest.fixture(scope="class")
    def data(self, tiny_dataset):
        return tiny_dataset.data

    def test_mr_light_resume_matches_and_reports_skips(self, tmp_path, data):
        ck = str(tmp_path / "ck")
        algo1 = P3CPlusMRLight(
            mr_config=P3CPlusMRConfig(num_splits=4, checkpoint_dir=ck)
        )
        result1 = algo1.fit(data)

        obs = Observability(enabled=True)
        algo2 = P3CPlusMRLight(
            mr_config=P3CPlusMRConfig(
                num_splits=4, checkpoint_dir=ck, resume=True
            ),
            obs=obs,
        )
        with obs.run("resume"):
            result2 = algo2.fit(data)

        assert algo2.chain.num_restored_jobs == algo2.chain.num_jobs
        members1 = sorted(tuple(sorted(c.members)) for c in result1.clusters)
        members2 = sorted(tuple(sorted(c.members)) for c in result2.clusters)
        assert members1 == members2
        assert np.array_equal(
            np.sort(result1.outliers), np.sort(result2.outliers)
        )

        # run.json surfaces the skips: the counter and the per-job
        # executor column both say "checkpoint".
        report = build_run_report("mr-light", obs=obs, chain=algo2.chain)
        counters = report["metrics"]["counters"]
        assert counters["mr.jobs_skipped"] == algo2.chain.num_jobs
        assert {row["executor"] for row in report["jobs"]} == {"checkpoint"}

    def test_mr_light_kill_then_resume(self, tmp_path, data):
        ck = str(tmp_path / "ck2")
        reference = P3CPlusMRLight(
            mr_config=P3CPlusMRConfig(num_splits=4)
        ).fit(data)

        plan = FaultPlan.parse("map:error:job=light_membership:always=1")
        broken = P3CPlusMRLight(
            mr_config=P3CPlusMRConfig(
                num_splits=4, checkpoint_dir=ck, fault_plan=plan
            )
        )
        with pytest.raises(TaskFailedError):
            broken.fit(data)
        completed_before = broken.chain.num_jobs
        assert completed_before >= 1

        resumed = P3CPlusMRLight(
            mr_config=P3CPlusMRConfig(
                num_splits=4, checkpoint_dir=ck, resume=True
            )
        )
        result = resumed.fit(data)
        assert resumed.chain.num_restored_jobs == completed_before
        # The interval index is restored with the level-1 job: the
        # resumed run re-ran no proving job.
        proving = [
            step for step in resumed.chain.steps
            if step.name == "candidate_proving"
        ]
        assert len(proving) == result.metadata["proving_jobs"] >= 2
        assert all(step.restored for step in proving)
        members_ref = sorted(
            tuple(sorted(c.members)) for c in reference.clusters
        )
        members_res = sorted(tuple(sorted(c.members)) for c in result.clusters)
        assert members_ref == members_res
        assert np.array_equal(
            np.sort(reference.outliers), np.sort(result.outliers)
        )


# -- counters restore ---------------------------------------------------


def test_counters_snapshot_round_trip():
    counters = Counters()
    counters.increment("framework", "map_input_records", 7)
    counters.increment("app", "things", 3)
    restored = Counters.from_snapshot(counters.snapshot())
    assert restored.snapshot() == counters.snapshot()
