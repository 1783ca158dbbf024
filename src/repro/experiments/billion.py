"""Section 7.5.2's billion-point run: MR-Light vs BoW-Light at 10^9 x 100d.

The paper: on a 10^9-point, 100-dimension data set (~0.2 TB), BoW
(Light) needed > 9 500 s while P3C+-MR-Light finished in ~4 300 s.
This environment cannot hold 10^9 points, so the harness

1. *measures* both algorithms on a scaled data set (same generator,
   100 dimensions), confirming both complete and recording their job
   structure, and
2. *projects* both at 10^9 points with the calibrated cluster cost
   model, pricing the paper's job plan (:func:`repro.mr.paper_plan_jobs`),
   reproducing the headline ordering and its rough factor (~2x).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.baselines import BoW, BoWConfig
from repro.experiments.figure7 import project_runtime
from repro.experiments.runner import make_dataset
from repro.mapreduce.costmodel import ClusterCostModel
from repro.mr import P3CPlusMR, P3CPlusMRConfig, P3CPlusMRLight, paper_plan_jobs
from repro.obs import Observability, build_run_report

PAPER_N = 1_000_000_000
PAPER_DIMS = 100
PAPER_BOW_SECONDS = 9_500.0
PAPER_MR_LIGHT_SECONDS = 4_300.0


@dataclass
class BillionResult:
    measured_mr_light_s: float
    measured_bow_light_s: float
    measured_mr_jobs: int
    projected_mr_light_s: float
    projected_bow_light_s: float
    #: Standard run report of the measured MR-Light run (schema
    #: ``repro.obs/run-report/v1``), for the bench trajectory.
    run_report: dict | None = None

    @property
    def projected_ratio(self) -> float:
        return self.projected_bow_light_s / self.projected_mr_light_s

    @property
    def paper_ratio(self) -> float:
        return PAPER_BOW_SECONDS / PAPER_MR_LIGHT_SECONDS


def run(
    scaled_n: int = 5_000,
    dims: int = 50,
    num_clusters: int = 5,
    noise: float = 0.10,
    seed: int = 42,
) -> BillionResult:
    dataset = make_dataset(scaled_n, dims, num_clusters, noise, seed)

    obs = Observability()
    mr_light = P3CPlusMRLight(mr_config=P3CPlusMRConfig(num_splits=8), obs=obs)
    started = time.perf_counter()
    mr_result = mr_light.fit(dataset.data)
    mr_seconds = time.perf_counter() - started

    started = time.perf_counter()
    BoW(bow_config=BoWConfig(variant="light", samples_per_reducer=1_000)).fit(
        dataset.data
    )
    bow_seconds = time.perf_counter() - started

    model = ClusterCostModel()
    mr_jobs = int(mr_result.metadata["mr_jobs"])
    paper_jobs = paper_plan_jobs(mr_result.metadata)
    report = build_run_report(
        "mr-light",
        obs=obs,
        chain=mr_light.chain,
        dataset={"n": scaled_n, "d": dims},
        result={
            "num_clusters": len(mr_result.clusters),
            "num_outliers": int(len(mr_result.outliers)),
        },
        wall_time_s=mr_seconds,
        extra={"experiment": "billion"},
    )
    return BillionResult(
        measured_mr_light_s=mr_seconds,
        measured_bow_light_s=bow_seconds,
        measured_mr_jobs=mr_jobs,
        projected_mr_light_s=project_runtime(
            "MR (Light)", PAPER_N, paper_jobs, model
        ),
        projected_bow_light_s=project_runtime("BoW (Light)", PAPER_N, 1, model),
        run_report=report,
    )


def render(outcome: BillionResult, scaled_n: int) -> str:
    return "\n".join(
        [
            "Section 7.5.2 — one-billion-point run (10^9 x 100 dims)",
            f"measured at scaled n={scaled_n}: "
            f"MR (Light) {outcome.measured_mr_light_s:.1f}s "
            f"({outcome.measured_mr_jobs} MR jobs), "
            f"BoW (Light) {outcome.measured_bow_light_s:.1f}s",
            f"projected at n=10^9: MR (Light) "
            f"{outcome.projected_mr_light_s:,.0f}s, BoW (Light) "
            f"{outcome.projected_bow_light_s:,.0f}s "
            f"(ratio {outcome.projected_ratio:.2f}x)",
            f"paper:            MR (Light) {PAPER_MR_LIGHT_SECONDS:,.0f}s, "
            f"BoW (Light) {PAPER_BOW_SECONDS:,.0f}s "
            f"(ratio {outcome.paper_ratio:.2f}x)",
        ]
    )


def main(scaled_n: int = 5_000, dims: int = 50) -> str:
    return render(run(scaled_n=scaled_n, dims=dims), scaled_n)


# -- optional honest-run route: execute the coreset fast path --------------


@dataclass
class CoresetExecution:
    """A real exact-vs-coreset run at scaled n, with the model's view."""

    n: int
    coreset_size: int
    measured_exact_s: float
    measured_coreset_s: float
    modelled_exact_s: float
    modelled_coreset_s: float
    chain_jobs: int

    @property
    def measured_speedup(self) -> float:
        return self.measured_exact_s / self.measured_coreset_s

    @property
    def modelled_speedup(self) -> float:
        return self.modelled_exact_s / self.modelled_coreset_s

    @property
    def coreset_model_delta(self) -> float:
        """(measured - modelled) / modelled of the coreset run."""
        return (
            self.measured_coreset_s - self.modelled_coreset_s
        ) / self.modelled_coreset_s


def run_coreset_execution(
    scaled_n: int = 50_000,
    dims: int = 8,
    coreset_size: int = 2_000,
    coreset_mode: str = "uniform",
    num_clusters: int = 3,
    noise: float = 0.10,
    seed: int = 42,
) -> CoresetExecution:
    """Execute the full pipeline exactly AND through the coreset path.

    This is the honest-run complement of the projection above: instead
    of only *pricing* the approximate pipeline with
    :meth:`~repro.mapreduce.costmodel.ClusterCostModel.coreset_chain_cost`,
    it runs both fits for real, calibrates a single-slot local cost
    model from the coreset run's own task events, and reports how far
    the model's prediction lands from the measured wall clock.
    """
    dataset = make_dataset(scaled_n, dims, num_clusters, noise, seed)

    exact = P3CPlusMR(mr_config=P3CPlusMRConfig(num_splits=8))
    started = time.perf_counter()
    exact_result = exact.fit(dataset.data)
    exact_s = time.perf_counter() - started

    approx = P3CPlusMR(
        mr_config=P3CPlusMRConfig(
            num_splits=8,
            coreset_size=coreset_size,
            coreset_mode=coreset_mode,
        )
    )
    started = time.perf_counter()
    approx_result = approx.fit(dataset.data)
    coreset_s = time.perf_counter() - started

    # Price both runs with a model fitted to THIS machine: one slot
    # (the local chain runs tasks in-process), no per-job scheduler
    # overhead, per-record costs calibrated from the coreset run's
    # task-finish events.
    local = replace(
        ClusterCostModel(), map_slots=1, reduce_slots=1, job_overhead_s=0.0
    ).calibrate(approx.chain.runtime.events)
    # This local model is checked against the measured wall clock, so
    # it prices the jobs that ran, not the paper's plan.
    exact_jobs = int(exact_result.metadata["mr_jobs"])
    # The coreset ledger counts the two full scans separately.
    chain_jobs = max(1, int(approx_result.metadata["mr_jobs"]) - 2)
    modelled_exact = local.chain_cost(
        [local.scan_job(scaled_n)] * exact_jobs
    )
    modelled_coreset = local.coreset_chain_cost(
        scaled_n, coreset_size, chain_jobs=chain_jobs
    )
    return CoresetExecution(
        n=scaled_n,
        coreset_size=coreset_size,
        measured_exact_s=exact_s,
        measured_coreset_s=coreset_s,
        modelled_exact_s=modelled_exact.total_s,
        modelled_coreset_s=modelled_coreset.total_s,
        chain_jobs=chain_jobs,
    )


def render_coreset(outcome: CoresetExecution) -> str:
    return "\n".join(
        [
            "Coreset honest run — exact vs approximate pipeline at "
            f"n={outcome.n:,} (m={outcome.coreset_size:,})",
            f"measured:  exact {outcome.measured_exact_s:.2f}s, "
            f"coreset {outcome.measured_coreset_s:.2f}s "
            f"(speedup {outcome.measured_speedup:.1f}x)",
            f"modelled:  exact {outcome.modelled_exact_s:.2f}s, "
            f"coreset {outcome.modelled_coreset_s:.2f}s "
            f"(speedup {outcome.modelled_speedup:.1f}x, "
            f"{outcome.chain_jobs} summary-chain jobs)",
            f"coreset model delta: {outcome.coreset_model_delta:+.0%} "
            "(measured vs calibrated local cost model)",
        ]
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Section 7.5.2 billion-point projection; optionally "
        "execute a real exact-vs-coreset run at scaled n"
    )
    parser.add_argument("--scaled-n", type=int, default=None)
    parser.add_argument("--dims", type=int, default=None)
    parser.add_argument(
        "--execute",
        action="store_true",
        help="run the exact AND coreset pipelines for real instead of "
        "only projecting with the cost model",
    )
    parser.add_argument(
        "--coreset-size",
        type=int,
        default=2_000,
        help="summary size for the --execute coreset run",
    )
    parser.add_argument(
        "--coreset-mode", default="uniform", choices=("uniform", "lightweight")
    )
    args = parser.parse_args()
    if args.execute:
        print(
            render_coreset(
                run_coreset_execution(
                    scaled_n=args.scaled_n or 50_000,
                    dims=args.dims or 8,
                    coreset_size=args.coreset_size,
                    coreset_mode=args.coreset_mode,
                )
            )
        )
    else:
        print(
            main(
                scaled_n=args.scaled_n or 5_000, dims=args.dims or 50
            )
        )
