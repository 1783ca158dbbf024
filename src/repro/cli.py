"""Command-line interface: ``python -m repro <command>``.

Commands
--------
generate    write a synthetic data set (Section 7.1 recipe) to CSV
cluster     run an algorithm on a CSV data set, write a JSON result
evaluate    score a JSON result against a labelled data set
experiment  run one paper-exhibit harness and print its table
report      render a run-report JSON (see ``cluster --metrics``)
serve       run the multi-tenant cluster service over a job spool
submit      queue one clustering job on a service spool
assign      score points against a registered fitted model

Examples
--------
python -m repro generate --n 5000 --dims 20 --clusters 3 --noise 0.1 \\
    --out data.csv
python -m repro cluster --algorithm mr-light --data data.csv \\
    --out result.json --metrics run.json --trace-format chrome
python -m repro report run.json
python -m repro evaluate --data data.csv --result result.json
python -m repro experiment figure1
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.baselines import BoW, BoWConfig
from repro.core.p3c import P3C
from repro.core.p3c_plus import P3CPlus, P3CPlusConfig, P3CPlusLight
from repro.data import GeneratorConfig, generate_synthetic, normalize_unit_range
from repro.data.io import (
    load_dataset_csv,
    load_result_json,
    save_dataset_csv,
    save_result_json,
)
from repro.eval import e4sc_score, label_accuracy
from repro.mapreduce.events import events_to_jsonl, format_trace
from repro.mapreduce.executors import EXECUTORS
from repro.mapreduce.faults import FaultPlan
from repro.mr import P3CPlusMR, P3CPlusMRConfig, P3CPlusMRLight
from repro.obs import (
    Observability,
    build_run_report,
    load_run_report,
    render_run_report,
    save_run_report,
    spans_to_chrome_trace,
    spans_to_jsonl,
    validate_run_report,
)


@dataclass(frozen=True)
class ExecOptions:
    """Runtime executor selection (and observability / fault-tolerance
    context) forwarded to the MR/BoW drivers."""

    executor: str | None = None
    max_workers: int | None = None
    obs: Observability | None = None
    fault_plan: FaultPlan | None = None
    task_timeout_s: float | None = None
    speculative: bool = False
    checkpoint_dir: str | None = None
    resume: bool = False
    model_registry: str | None = None
    memory_budget_bytes: int | None = None
    max_block_rows: int | None = None
    coreset_size: int | None = None
    coreset_mode: str = "uniform"
    coreset_seed: int = 0


ALGORITHMS: dict[str, Callable[[P3CPlusConfig, ExecOptions], Any]] = {
    "p3c": lambda config, opts: P3C(
        config.with_overrides(
            binning="sturges",
            theta_cc=None,
            redundancy_filter=False,
            outlier_method="naive",
            ai_proving=False,
        )
    ),
    "p3c-plus": lambda config, opts: P3CPlus(config),
    "p3c-plus-light": lambda config, opts: P3CPlusLight(config),
    "mr": lambda config, opts: P3CPlusMR(
        config,
        P3CPlusMRConfig(
            executor=opts.executor,
            max_workers=opts.max_workers,
            fault_plan=opts.fault_plan,
            task_timeout_s=opts.task_timeout_s,
            speculative=opts.speculative,
            checkpoint_dir=opts.checkpoint_dir,
            resume=opts.resume,
            model_registry=opts.model_registry,
            memory_budget_bytes=opts.memory_budget_bytes,
            max_block_rows=opts.max_block_rows,
            coreset_size=opts.coreset_size,
            coreset_mode=opts.coreset_mode,
            coreset_seed=opts.coreset_seed,
        ),
        obs=opts.obs,
    ),
    "mr-light": lambda config, opts: P3CPlusMRLight(
        config,
        P3CPlusMRConfig(
            executor=opts.executor,
            max_workers=opts.max_workers,
            fault_plan=opts.fault_plan,
            task_timeout_s=opts.task_timeout_s,
            speculative=opts.speculative,
            checkpoint_dir=opts.checkpoint_dir,
            resume=opts.resume,
            model_registry=opts.model_registry,
            memory_budget_bytes=opts.memory_budget_bytes,
            max_block_rows=opts.max_block_rows,
        ),
        obs=opts.obs,
    ),
    "bow-light": lambda config, opts: BoW(
        config,
        BoWConfig(
            variant="light",
            executor=opts.executor,
            max_workers=opts.max_workers,
        ),
    ),
    "bow-mvb": lambda config, opts: BoW(
        config,
        BoWConfig(
            variant="mvb",
            executor=opts.executor,
            max_workers=opts.max_workers,
        ),
    ),
}

EXPERIMENTS = (
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "theta",
    "colon",
    "billion",
    "blurring",
    "report",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="P3C+-MR reproduction (EDBT 2014) command-line interface",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="write a synthetic data set")
    generate.add_argument("--n", type=int, default=10_000)
    generate.add_argument("--dims", type=int, default=50)
    generate.add_argument("--clusters", type=int, default=5)
    generate.add_argument("--noise", type=float, default=0.10)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True)

    cluster = commands.add_parser("cluster", help="run an algorithm on a CSV")
    cluster.add_argument("--algorithm", choices=sorted(ALGORITHMS), required=True)
    cluster.add_argument("--data", required=True)
    cluster.add_argument("--out", required=True)
    cluster.add_argument("--theta-cc", type=float, default=0.35)
    cluster.add_argument("--poisson-alpha", type=float, default=0.01)
    cluster.add_argument(
        "--normalize",
        action="store_true",
        help="min-max normalise attributes to [0, 1] first",
    )
    cluster.add_argument(
        "--executor",
        choices=sorted(EXECUTORS),
        default=None,
        help="MapReduce executor backend for the mr/bow algorithms "
        "(default: serial, or process when --workers > 1)",
    )
    cluster.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for the thread/process executors",
    )
    cluster.add_argument(
        "--trace",
        action="store_true",
        help="print the per-task runtime event trace and job ledger "
        "after clustering (mr/bow algorithms only); shorthand for "
        "--trace-format text",
    )
    cluster.add_argument(
        "--trace-format",
        choices=("text", "jsonl", "chrome"),
        default=None,
        help="trace export: 'text' prints the event trace and ledger, "
        "'jsonl' writes span records as JSON lines, 'chrome' writes "
        "Chrome trace-event JSON (open in Perfetto / chrome://tracing)",
    )
    cluster.add_argument(
        "--trace-out",
        default=None,
        help="output path for --trace-format jsonl/chrome "
        "(default: <out>.trace.jsonl / <out>.trace.json)",
    )
    cluster.add_argument(
        "--metrics",
        metavar="RUN_JSON",
        default=None,
        help="write the run report (spans, algorithm metrics, per-job "
        "task percentiles, memory samples) to this path",
    )
    cluster.add_argument(
        "--trace-allocations",
        action="store_true",
        help="additionally sample tracemalloc allocation peaks per "
        "phase (slower; requires --metrics or --trace-format)",
    )
    cluster.add_argument(
        "--chaos",
        metavar="SPEC",
        default=None,
        help="inject deterministic faults into the MapReduce runtime "
        "(mr/mr-light only); SPEC is ';'-separated clauses like "
        "'map:error:p=0.2;reduce:delay:p=0.5:ms=50' — see "
        "docs/fault_tolerance.md for the grammar",
    )
    cluster.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="seed for the fault-injection schedule (default 0); the "
        "same spec + seed reproduces the exact same faults",
    )
    cluster.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-attempt task wall-clock budget; attempts exceeding "
        "it fail and retry (mr/mr-light only)",
    )
    cluster.add_argument(
        "--speculative",
        action="store_true",
        help="speculatively re-execute straggler tasks, first result "
        "wins (mr/mr-light only)",
    )
    cluster.add_argument(
        "--checkpoint-dir",
        default=None,
        help="persist each completed MR job's output under this "
        "directory (mr/mr-light only)",
    )
    cluster.add_argument(
        "--resume",
        action="store_true",
        help="restore completed jobs from --checkpoint-dir instead of "
        "re-running them (skips every job whose inputs are unchanged)",
    )
    cluster.add_argument(
        "--register",
        default=None,
        metavar="REGISTRY",
        help="save the fitted model into this model-registry directory "
        "and tag it 'latest' (mr/mr-light only)",
    )
    cluster.add_argument(
        "--memory-budget",
        default=None,
        metavar="SIZE",
        help="out-of-core mode (mr/mr-light only): per-task resident "
        "byte budget like '64m' or '2g'; the input streams from disk "
        "in budget-sized chunks (without --normalize the data matrix "
        "is never materialised in the driver)",
    )
    cluster.add_argument(
        "--max-block-rows",
        type=int,
        default=None,
        metavar="ROWS",
        help="explicit cap on rows per batch-mapper delivery "
        "(default: whole splits, or derived from --memory-budget)",
    )
    cluster.add_argument(
        "--coreset-size",
        type=int,
        default=None,
        metavar="POINTS",
        help="approximate fast path (mr only): fit the chain on a "
        "one-pass weighted summary of about this many points, then "
        "assign the full data with one extra scan; a size >= n falls "
        "back to the exact run",
    )
    cluster.add_argument(
        "--coreset-mode",
        choices=("uniform", "lightweight"),
        default=None,
        help="coreset sampler: 'uniform' (unbiased per-split sampling, "
        "the default) or 'lightweight' (distance-to-mean sensitivity "
        "sampling, overweights far-out structure); requires "
        "--coreset-size",
    )
    cluster.add_argument(
        "--coreset-seed",
        type=int,
        default=None,
        help="seed of the deterministic coreset samplers (default 0); "
        "requires --coreset-size",
    )

    evaluate = commands.add_parser("evaluate", help="score a saved result")
    evaluate.add_argument("--data", required=True)
    evaluate.add_argument("--result", required=True)

    experiment = commands.add_parser(
        "experiment", help="run one paper-exhibit harness"
    )
    experiment.add_argument("name", choices=EXPERIMENTS)

    report = commands.add_parser(
        "report", help="render a run-report JSON written by cluster --metrics"
    )
    report.add_argument("run_json", help="path to the run.json artifact")

    serve = commands.add_parser(
        "serve",
        help="serve a job spool: admit queued submissions as concurrent "
        "chains on one shared fair-share executor pool",
    )
    serve.add_argument(
        "--spool",
        required=True,
        help="spool directory (submissions in <spool>/pending, completion "
        "records in <spool>/done)",
    )
    serve.add_argument(
        "--slots",
        type=int,
        default=None,
        help="shared pool size in concurrent task slots (default: CPUs)",
    )
    serve.add_argument(
        "--executor",
        choices=sorted(EXECUTORS),
        default="thread",
        help="executor backend each admitted chain runs on (default thread)",
    )
    serve.add_argument(
        "--drain",
        type=int,
        default=None,
        metavar="N",
        help="exit after serving N jobs (deterministic batch mode)",
    )
    serve.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit after this long with no pending or running jobs",
    )
    serve.add_argument(
        "--poll-s", type=float, default=0.2, help="spool scan interval"
    )
    serve.add_argument(
        "--telemetry-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /metrics (OpenMetrics), /healthz and /statusz on "
        "this port (0 = pick an ephemeral port; printed at startup)",
    )
    serve.add_argument(
        "--telemetry-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="telemetry sampling period (default 1.0)",
    )
    serve.add_argument(
        "--telemetry-log",
        default=None,
        metavar="JSONL",
        help="append every telemetry sample to this JSONL file "
        "(default <spool>/telemetry.jsonl when telemetry is on)",
    )
    serve.add_argument(
        "--registry",
        default=None,
        metavar="DIR",
        help="model-registry directory backing assign submissions "
        "(and --register on submitted fits)",
    )

    top = commands.add_parser(
        "top",
        help="live tenant table for a running service: queued/running "
        "chains, granted slots, wait/latency p95, SLO status",
    )
    top.add_argument(
        "--endpoint",
        default=None,
        metavar="URL",
        help="telemetry base URL of a running service "
        "(e.g. http://127.0.0.1:9464)",
    )
    top.add_argument(
        "--log",
        default=None,
        metavar="JSONL",
        help="read the newest sample from a telemetry JSONL log instead",
    )
    top.add_argument(
        "--spool",
        default=None,
        help="shorthand for --log <spool>/telemetry.jsonl",
    )
    top.add_argument(
        "--watch",
        action="store_true",
        help="refresh continuously until interrupted",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period with --watch (default 2.0)",
    )

    telemetry = commands.add_parser(
        "telemetry",
        help="summarize a telemetry JSONL log: per-series quantiles "
        "over the logged window",
    )
    telemetry.add_argument("log", help="path to telemetry.jsonl")
    telemetry.add_argument(
        "--series",
        default=None,
        metavar="PREFIX",
        help="only show series whose dotted name starts with PREFIX",
    )
    telemetry.add_argument(
        "--json",
        action="store_true",
        help="emit the raw summary JSON instead of the table",
    )

    submit = commands.add_parser(
        "submit", help="queue one clustering job on a service spool"
    )
    submit.add_argument("--spool", required=True, help="spool directory")
    submit.add_argument(
        "--algorithm", choices=("mr", "mr-light"), default="mr-light"
    )
    submit.add_argument("--data", required=True)
    submit.add_argument("--out", required=True)
    submit.add_argument(
        "--metrics",
        default=None,
        metavar="RUN_JSON",
        help="write the chain's run report (including fair-share "
        "service counters) to this path",
    )
    submit.add_argument(
        "--tenant",
        default="default",
        help="tenant name for fair-share accounting",
    )
    submit.add_argument(
        "--priority",
        type=float,
        default=1.0,
        help="fair-share weight of the tenant (2.0 = twice the slots "
        "under contention)",
    )
    submit.add_argument("--theta-cc", type=float, default=0.35)
    submit.add_argument("--poisson-alpha", type=float, default=0.01)
    submit.add_argument("--normalize", action="store_true")
    submit.add_argument(
        "--estimated-records",
        type=int,
        default=None,
        help="admission estimate: input size priced by the cost model "
        "to gate the submission against the service budget",
    )
    submit.add_argument(
        "--coreset-size",
        type=int,
        default=None,
        metavar="POINTS",
        help="run the chain on a one-pass weighted summary of about "
        "this many points (approximate fast path); admission prices "
        "the run as two full scans plus a summary-sized chain",
    )
    submit.add_argument(
        "--coreset-mode",
        choices=("uniform", "lightweight"),
        default=None,
        help="coreset sampler for --coreset-size (default 'uniform'); "
        "requires --coreset-size",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="block until the job's completion record appears",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="max seconds to wait with --wait (default 300)",
    )
    submit.add_argument(
        "--register",
        default=None,
        metavar="REGISTRY",
        help="save the fitted model into this model-registry directory "
        "on the serving host and tag it 'latest'",
    )

    assign = commands.add_parser(
        "assign",
        help="score a CSV of points against a registered fitted model",
    )
    assign.add_argument(
        "--model",
        default="latest",
        help="model id or tag to score against (default 'latest')",
    )
    assign.add_argument("--data", required=True)
    assign.add_argument("--out", required=True)
    assign.add_argument(
        "--registry",
        default=None,
        metavar="DIR",
        help="score locally against this model-registry directory",
    )
    assign.add_argument(
        "--spool",
        default=None,
        help="queue the batch on a running service's spool instead "
        "(the service must run with --registry)",
    )
    assign.add_argument(
        "--tenant",
        default="default",
        help="tenant name for fair-share accounting (spool mode)",
    )
    assign.add_argument(
        "--priority",
        type=float,
        default=None,
        help="fair-share weight of the tenant (spool mode)",
    )
    assign.add_argument(
        "--wait",
        action="store_true",
        help="block until the completion record appears (spool mode)",
    )
    assign.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="max seconds to wait with --wait (default 300)",
    )
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = generate_synthetic(
        GeneratorConfig(
            n=args.n,
            d=args.dims,
            num_clusters=args.clusters,
            noise_fraction=args.noise,
            max_cluster_dims=min(10, args.dims),
            seed=args.seed,
        )
    )
    save_dataset_csv(args.out, dataset.data, dataset.labels)
    print(
        f"wrote {args.n} x {args.dims} data set with {args.clusters} hidden "
        f"clusters to {args.out} (+ .labels sidecar)"
    )
    return 0


def _default_trace_out(out: str, trace_format: str) -> str:
    suffix = ".trace.jsonl" if trace_format == "jsonl" else ".trace.json"
    stem = out[:-5] if out.endswith(".json") else out
    return stem + suffix


_SIZE_SUFFIXES = {"": 1, "k": 1024, "m": 1024**2, "g": 1024**3}


def _parse_size_bytes(text: str) -> int:
    """Parse a byte-size string like ``'67108864'``, ``'64m'``, ``'2g'``."""
    cleaned = text.strip().lower().removesuffix("b")
    suffix = cleaned[-1:] if cleaned[-1:] in ("k", "m", "g") else ""
    number = cleaned.removesuffix(suffix) if suffix else cleaned
    try:
        value = float(number)
    except ValueError:
        raise ValueError(f"cannot parse size {text!r}") from None
    if value <= 0:
        raise ValueError(f"size must be positive, got {text!r}")
    return int(value * _SIZE_SUFFIXES[suffix])


def _cmd_cluster(args: argparse.Namespace) -> int:
    memory_budget = None
    if args.memory_budget:
        if args.algorithm not in ("mr", "mr-light"):
            print(
                "error: --memory-budget requires an mr/mr-light algorithm",
                file=sys.stderr,
            )
            return 2
        try:
            memory_budget = _parse_size_bytes(args.memory_budget)
        except ValueError as exc:
            print(f"error: bad --memory-budget: {exc}", file=sys.stderr)
            return 2
    # Under a memory budget the input streams straight from disk via
    # file-backed splits; --normalize needs the whole matrix, so it
    # forces the classic in-memory load.
    streaming = memory_budget is not None and not args.normalize
    data = None
    if not streaming:
        data, _ = load_dataset_csv(args.data)
        if args.normalize:
            data = normalize_unit_range(data)
    config = P3CPlusConfig(
        theta_cc=args.theta_cc, poisson_alpha=args.poisson_alpha
    )
    trace_format = args.trace_format or ("text" if args.trace else None)
    observing = bool(args.metrics) or trace_format in ("jsonl", "chrome")
    obs = Observability(
        enabled=observing, trace_allocations=args.trace_allocations
    )
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    fault_plan = None
    if args.chaos:
        try:
            fault_plan = FaultPlan.parse(args.chaos, seed=args.chaos_seed)
        except ValueError as exc:
            print(f"error: bad --chaos spec: {exc}", file=sys.stderr)
            return 2
    if args.coreset_size is not None:
        if args.algorithm != "mr":
            print(
                "error: --coreset-size requires the mr algorithm "
                "(the Light and serial variants have no coreset path)",
                file=sys.stderr,
            )
            return 2
        if args.coreset_size < 1:
            print("error: --coreset-size must be >= 1", file=sys.stderr)
            return 2
    elif args.coreset_mode is not None or args.coreset_seed is not None:
        print(
            "error: --coreset-mode/--coreset-seed require --coreset-size",
            file=sys.stderr,
        )
        return 2
    opts = ExecOptions(
        executor=args.executor,
        max_workers=args.workers,
        obs=obs,
        fault_plan=fault_plan,
        task_timeout_s=args.task_timeout,
        speculative=args.speculative,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        model_registry=args.register,
        memory_budget_bytes=memory_budget,
        max_block_rows=args.max_block_rows,
        coreset_size=args.coreset_size,
        coreset_mode=args.coreset_mode or "uniform",
        coreset_seed=args.coreset_seed or 0,
    )
    if args.register and args.algorithm not in ("mr", "mr-light"):
        print(
            "error: --register requires an mr/mr-light algorithm",
            file=sys.stderr,
        )
        return 2
    algorithm = ALGORITHMS[args.algorithm](config, opts)
    started = time.perf_counter()
    if streaming:
        from repro.mapreduce.fs import make_csv_splits

        splits, n, d = make_csv_splits(
            args.data, algorithm.mr_config.num_splits
        )
        result = algorithm.fit_splits(splits, n, d)
    else:
        n, d = (int(dim) for dim in data.shape)
        result = algorithm.fit(data)
    wall_time = time.perf_counter() - started
    save_result_json(args.out, result)
    print(result.summary())
    model_id = getattr(algorithm, "model_id", None)
    if model_id:
        print(f"model registered as {model_id} (tag 'latest') in {args.register}")
    elif args.register:
        print("no cluster cores found: nothing registered", file=sys.stderr)

    chain = getattr(algorithm, "chain", None)
    # MR drivers scope their spans/metrics to a per-run obs context;
    # export from the scope the fit actually wrote to.
    run_obs = getattr(algorithm, "obs", None)
    if run_obs is None or not getattr(run_obs, "enabled", False):
        run_obs = obs
    obs = run_obs
    if trace_format == "text":
        if chain is None:
            print("(--trace: no MapReduce chain; serial algorithms emit no events)")
        else:
            print(format_trace(chain.runtime.events))
            print(chain.report())
    elif trace_format in ("jsonl", "chrome"):
        obs.tracer.close()
        trace_out = args.trace_out or _default_trace_out(args.out, trace_format)
        if trace_format == "jsonl":
            payload = spans_to_jsonl(obs.tracer.spans) + "\n"
            if chain is not None:
                payload += events_to_jsonl(chain.runtime.events) + "\n"
            with open(trace_out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        else:
            with open(trace_out, "w", encoding="utf-8") as handle:
                json.dump(spans_to_chrome_trace(obs.tracer.spans), handle)
                handle.write("\n")
        print(f"trace ({trace_format}) written to {trace_out}")

    if args.metrics:
        report = build_run_report(
            args.algorithm,
            obs=obs,
            chain=chain,
            dataset={"n": n, "d": d, "path": args.data},
            result={
                "num_clusters": len(result.clusters),
                "num_outliers": int(len(result.outliers)),
            },
            wall_time_s=wall_time,
        )
        save_run_report(args.metrics, report)
        print(f"run report written to {args.metrics}")

    print(f"result written to {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = load_run_report(args.run_json)
    errors = validate_run_report(report)
    print(render_run_report(report))
    if errors:
        print(
            "\nschema problems:\n" + "\n".join(f"  - {e}" for e in errors),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    data, labels = load_dataset_csv(args.data)
    result = load_result_json(args.result)
    if result.n_points != len(data):
        print(
            f"error: result covers {result.n_points} points but the data "
            f"set has {len(data)}",
            file=sys.stderr,
        )
        return 2
    print(result.summary())
    if labels is not None:
        print(f"label accuracy: {label_accuracy(result, labels):.3f}")
        truth = _clusters_from_labels(labels, result)
        if truth:
            print(f"E4SC vs label ground truth: "
                  f"{e4sc_score(result.clusters, truth):.3f}")
    else:
        print("(no .labels sidecar: skipping quality scores)")
    return 0


def _clusters_from_labels(labels: np.ndarray, result):
    """Full-space ground-truth clusters from a label sidecar (used when
    no subspace ground truth is available)."""
    from repro.core.types import ProjectedCluster

    all_attrs = frozenset(range(result.n_dims))
    clusters = []
    for value in np.unique(labels):
        if value < 0:
            continue
        clusters.append(
            ProjectedCluster(
                members=np.where(labels == value)[0],
                relevant_attributes=all_attrs,
            )
        )
    return clusters


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    module = importlib.import_module(f"repro.experiments.{args.name}")
    print(module.main())
    return 0


# -- the service plane (serve / submit) ----------------------------------


def _spool_dirs(spool: str) -> tuple[Path, Path]:
    pending = Path(spool) / "pending"
    done = Path(spool) / "done"
    pending.mkdir(parents=True, exist_ok=True)
    done.mkdir(parents=True, exist_ok=True)
    return pending, done


def _write_json_atomic(path: Path, payload: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _make_spool_job(spec: dict):
    """Build the chain function one spool submission runs as.

    The returned callable receives the service's
    :class:`~repro.mapreduce.runtime.RuntimeContext` — the MR driver is
    constructed around that context, so its tasks run on the shared
    fair-share pool under the submitting tenant, and its run report
    (when requested) carries the per-run service counters.
    """

    def run_chain(ctx):
        data, _ = load_dataset_csv(spec["data"])
        if spec.get("normalize"):
            data = normalize_unit_range(data)
        config = P3CPlusConfig(
            theta_cc=spec.get("theta_cc", 0.35),
            poisson_alpha=spec.get("poisson_alpha", 0.01),
        )
        driver_cls = P3CPlusMR if spec["algorithm"] == "mr" else P3CPlusMRLight
        driver = driver_cls(
            config,
            P3CPlusMRConfig(
                model_registry=spec.get("register"),
                coreset_size=spec.get("coreset_size"),
                coreset_mode=spec.get("coreset_mode", "uniform"),
            ),
            context=ctx,
        )
        started = time.perf_counter()
        result = driver.fit(data)
        wall_time = time.perf_counter() - started
        save_result_json(spec["out"], result)
        if spec.get("metrics"):
            report = build_run_report(
                spec["algorithm"],
                obs=driver.obs,
                chain=driver.chain,
                dataset={
                    "n": int(data.shape[0]),
                    "d": int(data.shape[1]),
                    "path": spec["data"],
                },
                result={
                    "num_clusters": len(result.clusters),
                    "num_outliers": int(len(result.outliers)),
                },
                wall_time_s=wall_time,
                extra={
                    "service": {
                        "run_id": ctx.run_id,
                        "tenant": ctx.tenant,
                    }
                },
            )
            save_run_report(spec["metrics"], report)
        return {
            "num_clusters": len(result.clusters),
            "num_outliers": int(len(result.outliers)),
            "out": spec["out"],
            "wall_time_s": wall_time,
            "model_id": driver.model_id,
        }

    return run_chain


def _write_assign_result(path: str, payload: dict) -> None:
    """Persist one assign batch's output as JSON.

    Shared by local ``repro assign`` and the serve loop so both paths
    produce byte-identical artifacts for the same model and batch
    (non-finite scores serialize as JSON ``NaN``, which ``json.loads``
    reads back).
    """
    document = {
        "schema": "repro.serving/assign-result/v1",
        "model_id": payload["model_id"],
        "n_points": int(payload["n_points"]),
        "num_outliers": int(payload["num_outliers"]),
        "cluster_ids": [int(v) for v in payload["cluster_ids"]],
        "outlier_mask": [bool(v) for v in payload["outlier_mask"]],
        "scores": [float(v) for v in payload["scores"]],
    }
    _write_json_atomic(Path(path), document)


def _cmd_assign(args: argparse.Namespace) -> int:
    if bool(args.registry) == bool(args.spool):
        print(
            "error: pass exactly one of --registry (local) or --spool "
            "(via a running service)",
            file=sys.stderr,
        )
        return 2
    if args.registry:
        from repro.serving import ModelRegistry, RegistryError

        data, _ = load_dataset_csv(args.data)
        registry = ModelRegistry(args.registry)
        try:
            model_id = registry.resolve(args.model)
            model = registry.load(model_id)
        except RegistryError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        started = time.perf_counter()
        result = model.assign(data)
        wall_time = time.perf_counter() - started
        num_outliers = int(result.outlier_mask.sum())
        _write_assign_result(
            args.out,
            {
                "model_id": model_id,
                "n_points": len(result.cluster_ids),
                "num_outliers": num_outliers,
                "cluster_ids": result.cluster_ids,
                "outlier_mask": result.outlier_mask,
                "scores": result.scores,
            },
        )
        print(
            f"assigned {len(result.cluster_ids)} point(s) with {model_id}: "
            f"{num_outliers} outlier(s) in {wall_time:.4f}s"
        )
        print(f"result written to {args.out}")
        return 0

    pending, done = _spool_dirs(args.spool)
    job_id = f"{time.time_ns():016x}-{os.getpid()}"
    spec = {
        "id": job_id,
        "kind": "assign",
        "model": args.model,
        "data": args.data,
        "out": args.out,
        "tenant": args.tenant,
        "priority": args.priority,
    }
    _write_json_atomic(pending / f"{job_id}.json", spec)
    print(f"submitted assign {job_id} (tenant {args.tenant}) to {args.spool}")
    if not args.wait:
        return 0
    deadline = time.monotonic() + args.timeout
    record_path = done / f"{job_id}.json"
    while time.monotonic() < deadline:
        if record_path.exists():
            record = json.loads(record_path.read_text())
            print(json.dumps(record, indent=2, sort_keys=True))
            return 0 if record.get("state") == "done" else 1
        time.sleep(0.2)
    print(
        f"error: assign {job_id} not finished after {args.timeout}s",
        file=sys.stderr,
    )
    return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.mapreduce import ClusterService

    pending, done = _spool_dirs(args.spool)
    obs = Observability(enabled=True)
    service = ClusterService(
        slots=args.slots, executor=args.executor, obs=obs,
        registry=args.registry,
    )
    print(
        f"serving {args.spool} on {service.slots} {args.executor} slot(s)"
        + (f", model registry {args.registry}" if args.registry else "")
    )
    if args.telemetry_port is not None:
        log_path = args.telemetry_log or str(
            Path(args.spool) / "telemetry.jsonl"
        )
        plane = service.start_telemetry(
            args.telemetry_port,
            interval_s=args.telemetry_interval,
            log_path=log_path,
        )
        print(
            f"telemetry on http://127.0.0.1:{plane.port} "
            f"(/metrics /healthz /statusz), log {log_path}"
        )
    active: dict[str, Any] = {}
    served = 0
    idle_since = time.monotonic()
    try:
        while True:
            for path in sorted(pending.glob("*.json")):
                try:
                    spec = json.loads(path.read_text())
                except (OSError, json.JSONDecodeError):
                    continue  # mid-write or corrupt; retry next scan
                path.unlink()
                if spec.get("kind") == "assign":
                    try:
                        points, _ = load_dataset_csv(spec["data"])
                        handle = service.serve_assign(
                            spec["model"],
                            points,
                            tenant=spec.get("tenant", "default"),
                            priority=spec.get("priority"),
                        )
                    except Exception as exc:  # noqa: BLE001 - recorded
                        _write_json_atomic(
                            done / f"{spec['id']}.json",
                            {
                                "id": spec["id"],
                                "state": "failed",
                                "error": f"{type(exc).__name__}: {exc}",
                            },
                        )
                        print(f"rejected assign {spec['id']}: {exc}")
                        continue
                else:
                    handle = service.submit(
                        _make_spool_job(spec),
                        name=spec.get("algorithm", "chain"),
                        tenant=spec.get("tenant", "default"),
                        priority=spec.get("priority"),
                        estimated_records=spec.get("estimated_records"),
                        coreset_size=spec.get("coreset_size"),
                    )
                active[spec["id"]] = (handle, spec)
                print(f"admitted {handle.job_id} ({spec['id']})")
            for spool_id, (handle, spec) in list(active.items()):
                if not handle.done():
                    continue
                record = {"id": spool_id, "state": handle.status()}
                record.update(handle.info())
                try:
                    result = handle.result(timeout=0)
                    if spec.get("kind") == "assign":
                        _write_assign_result(spec["out"], result)
                        result = {
                            "model_id": result["model_id"],
                            "n_points": result["n_points"],
                            "num_outliers": result["num_outliers"],
                            "wall_time_s": result["wall_time_s"],
                            "out": spec["out"],
                        }
                    record["result"] = result
                except BaseException as exc:  # noqa: BLE001 - recorded
                    record["error"] = f"{type(exc).__name__}: {exc}"
                _write_json_atomic(done / f"{spool_id}.json", record)
                print(f"finished {handle.job_id}: {handle.status()}")
                del active[spool_id]
                served += 1
            if active:
                idle_since = time.monotonic()
            if args.drain is not None and served >= args.drain and not active:
                break
            if (
                args.idle_timeout is not None
                and not active
                and time.monotonic() - idle_since > args.idle_timeout
            ):
                break
            time.sleep(args.poll_s)
    finally:
        service.shutdown()
    snapshot = service.pool.snapshot()
    print(
        f"served {served} job(s); fair-share counters: "
        + json.dumps(snapshot["counters"].get("service", {}), sort_keys=True)
    )
    return 0


def _fetch_statusz(endpoint: str, timeout: float = 5.0) -> dict:
    import urllib.request

    url = endpoint.rstrip("/") + "/statusz"
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def _last_log_sample(log_path: Path) -> dict:
    """Newest parseable sample in an append-only telemetry log.

    The writer appends whole lines and flushes, but the final line can
    still be mid-write when we race it — walk backwards to the newest
    line that parses.
    """
    lines = log_path.read_text(encoding="utf-8").splitlines()
    for line in reversed(lines):
        line = line.strip()
        if not line:
            continue
        try:
            sample = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(sample, dict):
            return sample
    raise ValueError(f"no parseable telemetry samples in {log_path}")


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.telemetry import render_top

    log_path = args.log or (
        str(Path(args.spool) / "telemetry.jsonl") if args.spool else None
    )
    if bool(args.endpoint) == bool(log_path):
        print(
            "error: pass exactly one of --endpoint or --log/--spool",
            file=sys.stderr,
        )
        return 2

    def fetch() -> dict:
        if args.endpoint:
            return _fetch_statusz(args.endpoint)
        return _last_log_sample(Path(log_path))

    try:
        while True:
            try:
                screen = render_top(fetch())
            except (OSError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            if args.watch:
                # Home + clear-to-end keeps the refresh flicker-free.
                sys.stdout.write("\x1b[H\x1b[J" + screen + "\n")
                sys.stdout.flush()
                time.sleep(args.interval)
            else:
                print(screen)
                return 0
    except KeyboardInterrupt:
        return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.obs.telemetry import summarize_log_lines

    log_path = Path(args.log)
    if not log_path.exists():
        print(f"error: {log_path} does not exist", file=sys.stderr)
        return 1
    with open(log_path, "r", encoding="utf-8") as handle:
        summary = summarize_log_lines(handle)
    if args.series:
        summary["series"] = {
            name: stats
            for name, stats in summary["series"].items()
            if name.startswith(args.series)
        }
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(
        f"{summary['samples']} sample(s) over {summary['span_s']:.1f}s"
        + (f" ({summary['skipped']} skipped)" if summary["skipped"] else "")
    )
    if not summary["series"]:
        print("(no series matched)")
        return 0
    print(
        f"{'series':<44} {'last':>10} {'p50':>10} {'p95':>10} {'max':>10}"
    )
    for name, stats in summary["series"].items():
        print(
            f"{name[:44]:<44} {stats['last']:>10.4g} {stats['p50']:>10.4g} "
            f"{stats['p95']:>10.4g} {stats['max']:>10.4g}"
        )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    pending, done = _spool_dirs(args.spool)
    job_id = f"{time.time_ns():016x}-{os.getpid()}"
    spec = {
        "id": job_id,
        "algorithm": args.algorithm,
        "data": args.data,
        "out": args.out,
        "metrics": args.metrics,
        "tenant": args.tenant,
        "priority": args.priority,
        "theta_cc": args.theta_cc,
        "poisson_alpha": args.poisson_alpha,
        "normalize": args.normalize,
        "estimated_records": args.estimated_records,
        "coreset_size": args.coreset_size,
        "coreset_mode": args.coreset_mode or "uniform",
        "register": args.register,
    }
    if args.coreset_size is not None and args.algorithm != "mr":
        print(
            "error: --coreset-size requires the mr algorithm",
            file=sys.stderr,
        )
        return 2
    if args.coreset_size is None and args.coreset_mode is not None:
        print(
            "error: --coreset-mode requires --coreset-size",
            file=sys.stderr,
        )
        return 2
    _write_json_atomic(pending / f"{job_id}.json", spec)
    print(f"submitted {job_id} (tenant {args.tenant}) to {args.spool}")
    if not args.wait:
        return 0
    deadline = time.monotonic() + args.timeout
    record_path = done / f"{job_id}.json"
    while time.monotonic() < deadline:
        if record_path.exists():
            record = json.loads(record_path.read_text())
            print(json.dumps(record, indent=2, sort_keys=True))
            return 0 if record.get("state") == "done" else 1
        time.sleep(0.2)
    print(f"error: job {job_id} not finished after {args.timeout}s",
          file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "assign": _cmd_assign,
        "generate": _cmd_generate,
        "cluster": _cmd_cluster,
        "evaluate": _cmd_evaluate,
        "experiment": _cmd_experiment,
        "report": _cmd_report,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "telemetry": _cmd_telemetry,
        "top": _cmd_top,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
