"""Tests of the fit benchmark itself, on reduced workloads.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
from ledger import STAGES, is_count
from workloads import WORKLOADS

ROOT = Path(bench.__file__).resolve().parent.parent

#: Reduced sizes with the cluster counts and floors measured at them.
SMALL = {
    "exact": dataclasses.replace(
        WORKLOADS["exact"], n=20_000, expected_clusters=3, e4sc_floor=0.8
    ),
    "light_wide": dataclasses.replace(
        WORKLOADS["light_wide"], n=20_000, expected_clusters=4, e4sc_floor=0.8
    ),
    "coreset_outofcore": dataclasses.replace(
        WORKLOADS["coreset_outofcore"],
        n=100_000,
        coreset_size=2_000,
        expected_clusters=3,
        e4sc_floor=0.8,
        e4sc_max_points=20_000,
    ),
}

@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two traced runs of a reduced workload with the same seed, cached."""
    cache: dict[str, list] = {}

    def get(name: str) -> list:
        if name not in cache:
            cache[name] = []
            for _ in range(2):
                workdir = tmp_path_factory.mktemp(name)
                cache[name].append(
                    bench.run_traced(
                        SMALL[name], 3, 0.0, workdir, workdir / "spans.jsonl"
                    )
                )
        return cache[name]

    return get


@pytest.mark.parametrize("name", sorted(SMALL))
def test_count_metrics_repeat_exactly(name, traced_runs):
    (first, first_metrics, _), (second, second_metrics, _) = traced_runs(name)
    assert first.failed == 0 and second.failed == 0, first.problems + second.problems
    counts = sorted(m for m in first_metrics if is_count(m))
    assert "runtime.jobs" in counts and "em.iterations" in counts
    assert any(m.startswith("job.") for m in counts)
    assert {m: first_metrics[m] for m in counts} == {
        m: second_metrics[m] for m in counts
    }
    # Every traced fit of one run has the same counts, not just the median.
    for ledger in first.ledgers[1:]:
        assert {m: ledger[m] for m in counts if m in ledger} == {
            m: first.ledgers[0][m] for m in counts if m in ledger
        }


@pytest.mark.parametrize("name", sorted(SMALL))
def test_stage_spans_add_up_to_traced_fit(name, traced_runs):
    session, _, _ = traced_runs(name)[0]
    assert session.ledgers and len(session.ledgers) == len(session.traced_fit_s)
    for ledger, fit_s in zip(session.ledgers, session.traced_fit_s):
        total = sum(ledger[f"stage.{stage}_s"] for stage in STAGES)
        assert math.isclose(
            total + ledger["stage.unaccounted_s"], fit_s, rel_tol=1e-9
        )
        assert 0 <= ledger["stage.driver_s"] <= total


def test_layers_show_where_expected(traced_runs):
    """Absent layers read 0; the out-of-core workload reads and pools."""
    _, light, _ = traced_runs("light_wide")[0]
    _, coreset, _ = traced_runs("coreset_outofcore")[0]
    assert light["em.iterations"] == 0 and light["job.outlier_detection_jobs"] == 0
    assert light["fs.read_calls"] == 0 and light["runtime.pools"] == 0
    assert coreset["fs.read_calls"] > 0 and coreset["runtime.pools"] > 0
    assert coreset["coreset.points"] >= SMALL["coreset_outofcore"].coreset_size
    assert coreset["job.coreset_assign_jobs"] == 1


def test_metrics_match_benchmark_json(tmp_path, traced_runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    _, traced, traced_units = traced_runs("exact")[0]
    session, untraced, untraced_units = bench.run_untraced(
        SMALL["exact"], 3, 0.0, tmp_path
    )
    assert session.failed == 0, session.problems
    # peak_rss_mb may read 0 here: earlier tests already raised this
    # process's high-water mark above a 20k-point fit.
    assert all(
        value > 0 for name, value in untraced.items() if name != "peak_rss_mb"
    ), untraced
    for kind, metrics, units in (
        ("per_layer", traced, traced_units),
        ("end_to_end", untraced, untraced_units),
    ):
        assert {name: units[name] for name in metrics} == {
            m["name"]: m["unit"] for m in spec[kind]
        }


def test_gate_counts_a_wrong_cluster_count(tmp_path):
    workload = dataclasses.replace(SMALL["exact"], expected_clusters=99)
    session = bench.Session(workload, bench.setup(workload, 3, tmp_path))
    session.cycle(timed=True)
    assert session.attempted == 2
    assert session.failed == 1
    assert "expected 99" in session.problems[0]


def test_calibrated_cycle_pairs_every_timing_with_a_reference(tmp_path):
    workload = SMALL["exact"]
    session = bench.Session(
        workload, bench.setup(workload, 3, tmp_path), calibrated=True
    )
    session.cycle(timed=True)
    assert session.failed == 0, session.problems
    assert len(session.fit_host_s) == len(session.fit_s) == 1
    assert len(session.batch_ref_s) == len(session.batch_s) > 0
    assert min(session.fit_host_s + session.batch_ref_s) > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [sys.executable, *command[1:]]
        + ["--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
