"""Write one workload's data set to disk (run as a child process).

Usage: python3 gendata.py OUT_DIR N D CLUSTERS MAX_DIMS NOISE GEN_SEED RUN_SEED

Generates the paper's synthetic data set with ``GEN_SEED``, permutes
its records with ``RUN_SEED`` and writes

- ``data.npy``: the ``(N, D)`` float64 matrix, copied in row chunks;
- ``labels.npy``: int8 hidden-cluster id per record (-1 = noise);
- ``truth.json``: the relevant attributes of every hidden cluster.

It runs in its own process so the measuring process never holds the
generator's matrix or temporaries: a ~500 MB generation high-water mark
would otherwise hide any RSS growth during the fits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

_CHUNK_ROWS = 1 << 16


def main(argv: list[str]) -> int:
    out_dir = Path(argv[0])
    n, d, clusters, max_dims = (int(v) for v in argv[1:5])
    noise = float(argv[5])
    gen_seed, run_seed = int(argv[6]), int(argv[7])

    from repro.data import GeneratorConfig, generate_synthetic

    dataset = generate_synthetic(
        GeneratorConfig(
            n=n,
            d=d,
            num_clusters=clusters,
            noise_fraction=noise,
            max_cluster_dims=max_dims,
            seed=gen_seed,
        )
    )
    order = np.random.default_rng(run_seed).permutation(n)
    out = np.lib.format.open_memmap(
        out_dir / "data.npy", mode="w+", dtype=np.float64, shape=(n, d)
    )
    for lo in range(0, n, _CHUNK_ROWS):
        out[lo : lo + _CHUNK_ROWS] = dataset.data[order[lo : lo + _CHUNK_ROWS]]
    out.flush()
    del out
    np.save(out_dir / "labels.npy", dataset.labels[order].astype(np.int8))
    truth = [sorted(c.relevant_attributes) for c in dataset.hidden_clusters]
    (out_dir / "truth.json").write_text(json.dumps(truth))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
