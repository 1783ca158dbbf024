"""Ablation: multi-level candidate collection vs prove-every-level
(Section 5.3's T_c heuristic).

The heuristic trades extra counted candidates (weaker Apriori pruning)
for fewer proving jobs — each MR job carries a fixed overhead.  T_c
follows the interval index's row count (``collection_limit``).  Both
modes must produce identical cluster cores.
"""

from __future__ import annotations

from repro.experiments.runner import format_table, make_dataset
from repro.mr import P3CPlusMRConfig, P3CPlusMRLight


def _run(dataset, multi_level: bool):
    driver = P3CPlusMRLight(
        mr_config=P3CPlusMRConfig(num_splits=4, multi_level=multi_level)
    )
    result = driver.fit(dataset.data)
    proving_jobs = sum(
        1 for step in driver.chain.steps if step.name == "candidate_proving"
    )
    counted = result.metadata["prove_stats"]["candidates"]
    return result, proving_jobs, counted


def test_multilevel_collection_ablation(benchmark, bench_scale, save_exhibit):
    dataset = make_dataset(
        bench_scale.sizes[0], bench_scale.dims, 5, 0.10, bench_scale.seed
    )

    per_level_result, per_level_jobs, per_level_counted = _run(
        dataset, multi_level=False
    )
    multi_result, multi_jobs, multi_counted = benchmark.pedantic(
        lambda: _run(dataset, multi_level=True),
        rounds=1,
        iterations=1,
    )

    table = format_table(
        ["mode", "proving jobs", "counted candidates", "#clusters"],
        [
            [
                "prove-every-level",
                per_level_jobs,
                per_level_counted,
                per_level_result.num_clusters,
            ],
            [
                "multi-level (T_c)",
                multi_jobs,
                multi_counted,
                multi_result.num_clusters,
            ],
        ],
    )
    save_exhibit(
        "ablation_multilevel",
        "Ablation — multi-level candidate collection (Section 5.3)\n" + table,
    )

    # Identical cores in both modes.
    assert sorted(
        (c.core.signature for c in per_level_result.clusters),
        key=lambda s: s.intervals,
    ) == sorted(
        (c.core.signature for c in multi_result.clusters),
        key=lambda s: s.intervals,
    )
    # The heuristic must not use *more* proving jobs.
    assert multi_jobs <= per_level_jobs
