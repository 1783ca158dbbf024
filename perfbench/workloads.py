"""The fit benchmark's workloads and their recorded correctness gates.

Every workload fits one data set from the paper's synthetic generator
(Section 7.1).  ``generator_seed`` fixes the data set itself — cluster
layout, relevant dimensions and so the shape of the job chain (Apriori
levels, EM iterations).  The run's ``--seed`` permutes the record order,
which changes what each split and map task holds, the summation order
and the coreset sample, but not the workload's shape; so the spread
over seeds measures the system rather than the luck of the layout.

``expected_clusters`` and ``e4sc_floor`` are the correctness gate: they
were measured on generator seed 11 over run seeds 1-20, where the exact
and Light fits scored the same E4SC on every seed (0.869 and 0.877); the
coreset fit scored between 0.737 and 0.871 over run seeds 1-50 and
101-110.  Each floor sits below the lowest score seen.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    d: int
    clusters: int
    max_cluster_dims: int
    noise_fraction: float = 0.1
    generator_seed: int = 11
    #: ``P3CPlusMRLight`` instead of the full ``P3CPlusMR``.
    light: bool = False
    num_splits: int = 4
    executor: str = "serial"
    workers: int = 1
    #: Coreset fast path (``P3CPlusMRConfig.coreset_size``).
    coreset_size: int | None = None
    #: Fit from file-backed ``.npy`` splits (``mode="read"``) instead of
    #: an in-memory matrix.
    on_disk: bool = False
    memory_budget_bytes: int | None = None
    #: ``P3CPlusConfig.em_max_iter``; 15 is the library default.
    em_max_iter: int = 15
    expected_clusters: int = 0
    e4sc_floor: float = 0.0
    #: Seeded ``e4sc_score`` sampling cap (``None`` = exact score).
    e4sc_max_points: int | None = None


#: The process pool never has more workers than the machine has cores.
POOL_WORKERS = max(1, min(2, os.cpu_count() or 1))

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="exact",
            why="exact P3C+-MR fit, serial, n=100k d=8: EM and outlier "
            "detection dominate, so EM and outlier-scorer work shows here",
            n=100_000,
            d=8,
            clusters=3,
            max_cluster_dims=4,
            expected_clusters=3,
            e4sc_floor=0.85,
        ),
        Workload(
            name="light_wide",
            why="P3C+-MR-Light, serial, n=200k d=20: no EM or OD, driver-side "
            "core generation and candidate proving dominate",
            n=200_000,
            d=20,
            clusters=5,
            max_cluster_dims=6,
            light=True,
            expected_clusters=4,
            e4sc_floor=0.85,
        ),
        Workload(
            name="coreset_outofcore",
            why="coreset fit (5k) over 8 file-backed npy splits of n=2M under "
            "a 4 MiB budget on a 2-worker process pool: fs streaming, pools",
            n=2_000_000,
            d=8,
            clusters=3,
            max_cluster_dims=4,
            num_splits=8,
            executor="process",
            workers=POOL_WORKERS,
            coreset_size=5_000,
            on_disk=True,
            memory_budget_bytes=4 << 20,
            # Uncapped, EM on the 5k sample stops after 6 to 13 iterations
            # depending on the record order, which moved fit_s by 25%
            # between seeds; every order runs at least 6.
            em_max_iter=6,
            expected_clusters=3,
            # The sample moves with record order: E4SC 0.74-0.87 seen.
            e4sc_floor=0.70,
            e4sc_max_points=200_000,
        ),
    )
}
