"""Fit benchmark for P3C+-MR: exact, Light and out-of-core coreset fits.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exact --seed 1 --seconds 12 --trace 0

One run sets the workload up (data generation in a child process, on-disk
materialisation, split construction) ``SETUP_REPEATS`` times, runs one
untimed warm-up fit, then fits back to back in a closed loop from one
client until ``--seconds`` have passed.  Every fit is followed by one
full-data pass through ``FittedModel.assign`` in 4096-row batches, and
every fit and assign pass is checked against the workload's recorded
gate (cluster count, E4SC floor, assign labels equal to the fit's).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced fits and reports the per-layer ledger (see
``ledger.py``), writing the spans to ``.perfbench/``.  Human-readable
lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when every operation passed its checks, 1 when one failed, 2 when the
benchmark cannot run (no ``src/repro`` beside it).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

BATCH_ROWS = 4096
SETUP_REPEATS = 3
#: Fewest timed fits an untraced run reports a quantile over.
MIN_FITS = 3
#: Fewest fits of each kind (untraced, traced) in a traced run.
MIN_TRACED_FITS = 2
SETUP_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "fit_s": "s",
    "assign_points_per_s": "points/s",
    "e4sc": "score",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "em.s_per_iter":
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_ms_p50") or name.endswith("_ms_p95"):
        return "ms"
    if name in (
        "runtime.task_skew",
        "core_generation.cores_per_candidate",
        "trace.overhead_frac",
    ):
        return "ratio"
    if name == "coreset.effective_size":
        return "points"
    return "count"


@dataclass
class Inputs:
    """One workload's data as the fit sees it, plus its ground truth."""

    n: int
    d: int
    hidden: list
    path: Path
    data: Any = None  # in-memory matrix
    splits: list | None = None  # file-backed npy splits


def setup(workload, seed: int, workdir: Path) -> Inputs:
    """Generate the data set in a child process and load it for fitting."""
    from repro.core.types import ProjectedCluster
    from repro.mapreduce.fs import make_npy_splits

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    subprocess.run(
        [
            sys.executable,
            str(HERE / "gendata.py"),
            str(workdir),
            str(workload.n),
            str(workload.d),
            str(workload.clusters),
            str(workload.max_cluster_dims),
            repr(workload.noise_fraction),
            str(workload.generator_seed),
            str(seed),
        ],
        env=env,
        check=True,
        timeout=SETUP_TIMEOUT_S,
    )
    labels = np.load(workdir / "labels.npy")
    attributes = json.loads((workdir / "truth.json").read_text())
    hidden = [
        ProjectedCluster(
            members=np.flatnonzero(labels == cid),
            relevant_attributes=frozenset(attrs),
        )
        for cid, attrs in enumerate(attributes)
    ]
    path = workdir / "data.npy"
    if workload.on_disk:
        splits, n, d = make_npy_splits(path, workload.num_splits, mode="read")
        return Inputs(n=n, d=d, hidden=hidden, path=path, splits=splits)
    data = np.load(path)
    n, d = data.shape
    return Inputs(n=n, d=d, hidden=hidden, path=path, data=data)


def make_driver(workload):
    from repro.core.p3c_plus import P3CPlusConfig
    from repro.mr import P3CPlusMR, P3CPlusMRConfig, P3CPlusMRLight

    config = P3CPlusConfig(em_max_iter=workload.em_max_iter)
    mr_config = P3CPlusMRConfig(
        num_splits=workload.num_splits,
        executor=workload.executor,
        max_workers=workload.workers,
        coreset_size=workload.coreset_size,
        memory_budget_bytes=workload.memory_budget_bytes,
    )
    return (P3CPlusMRLight if workload.light else P3CPlusMR)(
        config=config, mr_config=mr_config
    )


def batches(inputs: Inputs) -> Iterator[tuple[int, Any]]:
    """The full data in fixed ``BATCH_ROWS`` batches, as ``(first row, block)``."""
    if inputs.data is not None:
        for lo in range(0, inputs.n, BATCH_ROWS):
            yield lo, inputs.data[lo : lo + BATCH_ROWS]
        return
    from repro.mapreduce.fs import make_npy_splits

    (whole,), _, _ = make_npy_splits(inputs.path, 1, mode="read")
    for keys, block in whole.records.iter_blocks(BATCH_ROWS):
        yield int(keys[0]), block


def fit_labels(result, model, n: int):
    """The fit's cluster id per point, in the fitted model's core order."""
    labels = np.full(n, -1, dtype=np.int64)
    for cluster in result.clusters:
        labels[cluster.members] = model.cores.index(cluster.core)
    return labels


@dataclass
class Session:
    """The closed loop of one run: fit, check, assign, check."""

    workload: Any
    inputs: Inputs
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Time each fit, set-up and assign batch against a reference kernel
    #: run beside it (see ``calibrate.py``).
    calibrated: bool = False
    fit_s: list[float] = field(default_factory=list)
    #: ``host_seconds`` around each timed untraced fit (calibrated runs).
    fit_host_s: list[float] = field(default_factory=list)
    traced_fit_s: list[float] = field(default_factory=list)
    #: Seconds of every full ``BATCH_ROWS`` batch of the timed passes.
    batch_s: list[float] = field(default_factory=list)
    #: ``batch_seconds`` right before each of those batches.
    batch_ref_s: list[float] = field(default_factory=list)
    batches_per_pass: list[int] = field(default_factory=list)
    e4sc: list[float] = field(default_factory=list)
    ledgers: list[dict[str, float]] = field(default_factory=list)
    #: ``ru_maxrss`` right after the first fit, before its checks: the
    #: high-water mark only rises, so later fits' peaks hide under the
    #: checks' (E4SC on 2M points needs more than the fit does).
    first_fit_rss_mib: float | None = None

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def cycle(self, timed: bool, tracer=None, run_id: str = "") -> None:
        """One fit and its assign pass; untimed for the warm-up."""
        from repro.eval.e4sc import e4sc_score

        from calibrate import host_seconds
        from ledger import fit_ledger, traced

        w, inputs = self.workload, self.inputs
        driver = make_driver(w)
        # Garbage from the previous cycle is not this fit's cost.
        gc.collect()
        calibrating = timed and self.calibrated and tracer is None
        host_before = host_seconds() if calibrating else 0.0
        self.attempted += 1
        try:
            if tracer is None:
                started = time.perf_counter()
                result = self._fit(driver)
                elapsed = time.perf_counter() - started
            else:
                with traced(tracer, run_id), tracer.span("fit") as fit_span:
                    result = self._fit(driver)
                elapsed = fit_span.duration
        except Exception as error:  # noqa: BLE001 - counted, run continues
            self._fail(f"fit raised {type(error).__name__}: {error}")
            return
        if self.first_fit_rss_mib is None:
            self.first_fit_rss_mib = _max_rss_mib()
        score = e4sc_score(
            result.clusters, inputs.hidden, max_points=w.e4sc_max_points, seed=0
        )
        if len(result.clusters) != w.expected_clusters:
            self._fail(
                f"fit found {len(result.clusters)} clusters, "
                f"expected {w.expected_clusters}"
            )
        elif score < w.e4sc_floor:
            self._fail(f"E4SC {score:.4f} below the floor {w.e4sc_floor}")
        if calibrating:
            self.fit_host_s.append((host_before + host_seconds()) / 2)
        if timed:
            (self.fit_s if tracer is None else self.traced_fit_s).append(elapsed)
            self.e4sc.append(score)
            if tracer is not None:
                self.ledgers.append(
                    fit_ledger(
                        [s for s in tracer.spans if s.run_id == run_id],
                        fit_span,
                        workers=w.workers,
                        pools=tracer.pools,
                        metadata=result.metadata,
                    )
                )

        self.attempted += 1
        try:
            assigned, seconds, references = self._assign_pass(
                driver.fitted_model, tracer, calibrating
            )
        except Exception as error:  # noqa: BLE001 - counted, run continues
            self._fail(f"assign raised {type(error).__name__}: {error}")
            return
        expected = fit_labels(result, driver.fitted_model, inputs.n)
        mismatched = int((assigned != expected).sum())
        if mismatched:
            self._fail(f"assign pass differs from the fit on {mismatched} points")
        if timed:
            self.batch_s.extend(seconds[: inputs.n // BATCH_ROWS])
            self.batch_ref_s.extend(references[: inputs.n // BATCH_ROWS])
            self.batches_per_pass.append(len(seconds))

    def _fit(self, driver):
        inputs = self.inputs
        if inputs.data is not None:
            return driver.fit(inputs.data)
        return driver.fit_splits(inputs.splits, inputs.n, inputs.d)

    def _assign_pass(self, model, tracer, calibrating: bool):
        from calibrate import batch_seconds

        assigned = np.empty(self.inputs.n, dtype=np.int64)
        seconds: list[float] = []
        references: list[float] = []
        for lo, block in batches(self.inputs):
            if calibrating:
                references.append(batch_seconds())
            started = time.perf_counter()
            ids = model.assign(block).cluster_ids
            ended = time.perf_counter()
            assigned[lo : lo + len(ids)] = ids
            seconds.append(ended - started)
            if tracer is not None:
                tracer.record("serving.assign", started, ended, rows=len(ids))
        return assigned, seconds, references


def _max_rss_mib() -> float:
    from repro.obs.resources import peak_rss_kb

    return peak_rss_kb() / 1024.0


def run_untraced(workload, seed: int, seconds: float, workdir: Path):
    from calibrate import BATCH_NOMINAL_S, HOST_NOMINAL_S, host_seconds

    setup_s = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        inputs = None  # drop the previous copy before loading the next
        host_before = host_seconds()
        started = time.perf_counter()
        inputs = setup(workload, seed, workdir)
        elapsed = time.perf_counter() - started
        host = (host_before + host_seconds()) / 2
        setup_s.append(elapsed * HOST_NOMINAL_S / host)
    baseline_mib = _max_rss_mib()

    session = Session(workload, inputs, calibrated=True)
    session.cycle(timed=False)
    started = time.perf_counter()
    while len(session.fit_s) < MIN_FITS or time.perf_counter() - started < seconds:
        session.cycle(timed=True)
        if not session.fit_s and session.failed:
            break  # fits that cannot run would loop forever
    # Every timing is scaled to the host's fast state by the reference
    # kernel run beside it (see calibrate.py), then the run's median taken.
    fit_s = [
        elapsed * HOST_NOMINAL_S / host
        for elapsed, host in zip(session.fit_s, session.fit_host_s)
    ]
    batch_s = [
        elapsed * BATCH_NOMINAL_S / reference
        for elapsed, reference in zip(session.batch_s, session.batch_ref_s)
    ]
    metrics = {
        "fit_s": _median(fit_s),
        # Single batches rather than whole passes: each batch is paired
        # with the reference run right before it.
        "assign_points_per_s": BATCH_ROWS / _median(batch_s) if batch_s else 0.0,
        "e4sc": _median(session.e4sc),
        "peak_rss_mb": (session.first_fit_rss_mib or baseline_mib) - baseline_mib,
        "setup_s": statistics.median(setup_s),
    }
    units = END_TO_END_UNITS
    return session, metrics, units


def run_traced(
    workload, seed: int, seconds: float, workdir: Path, spans_path: Path
):
    from ledger import Tracer

    inputs = setup(workload, seed, workdir)
    session = Session(workload, inputs)
    session.cycle(timed=False)
    spool = workdir / "spool"
    spool.mkdir()
    tracer = Tracer(spool)
    started = time.perf_counter()
    turn = 0
    while (
        min(len(session.fit_s), len(session.traced_fit_s)) < MIN_TRACED_FITS
        or time.perf_counter() - started < seconds
    ):
        if turn % 2:
            session.cycle(timed=True, tracer=tracer, run_id=f"fit{turn}")
        else:
            session.cycle(timed=True)
        turn += 1
        if session.failed and not session.ledgers and turn > 2 * MIN_TRACED_FITS:
            break
    tracer.write(spans_path)

    names = list(session.ledgers[0]) if session.ledgers else []
    metrics = {
        name: _median([ledger[name] for ledger in session.ledgers])
        for name in names
    }
    batch_ms = [1000.0 * s for s in session.batch_s]
    metrics["serving.batches"] = _median(session.batches_per_pass)
    metrics["serving.batch_ms_p50"] = _quantile(batch_ms, 0.50)
    metrics["serving.batch_ms_p95"] = _quantile(batch_ms, 0.95)
    untraced = _median(session.fit_s)
    metrics["trace.overhead_frac"] = (
        _median(session.traced_fit_s) / untraced - 1.0 if untraced else 0.0
    )
    units = {name: per_layer_unit(name) for name in metrics}
    return session, metrics, units


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    return float(np.quantile(values, q))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package to benchmark at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    # Keep temporary files (spill directories included) inside the tree.
    (workdir / "tmp").mkdir()
    os.environ["TMPDIR"] = str(workdir / "tmp")
    try:
        if args.trace:
            session, metrics, units = run_traced(
                workload,
                args.seed,
                args.seconds,
                workdir,
                OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl",
            )
        else:
            session, metrics, units = run_untraced(
                workload, args.seed, args.seconds, workdir
            )
    finally:
        _join_children()
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
        f"fits {len(session.fit_s) + len(session.traced_fit_s)} timed  "
        f"operations {session.attempted}  failed {session.failed}"
    )
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6f} {units[name]}")
    print(f"  {'failed_frac':<40} {session.failed / session.attempted:>16.6f} ratio")
    if session.calibrated and session.fit_s and session.batch_s:
        print(
            f"  unscaled: fit_s {_median(session.fit_s):.6f} s, "
            f"assign {BATCH_ROWS / _median(session.batch_s):.1f} points/s, "
            f"host reference {1000 * _median(session.fit_host_s):.3f} ms"
        )
    for problem in session.problems:
        print(f"  FAILED: {problem}")
    correct = session.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def _join_children() -> None:
    """Wait for every pool worker the fits started."""
    import multiprocessing

    for child in multiprocessing.active_children():
        child.join(timeout=30)


if __name__ == "__main__":
    sys.exit(main())
