"""Interval-tightening job (paper Section 5.7).

Each mapper computes the per-split minimum and maximum of every
cluster's members in the cluster's relevant dimensions; the single
reducer aggregates by repeated min/max extraction.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.types import Interval, Signature
from repro.mapreduce import BufferedBatchMapper, Context, DistributedCache, Job, Reducer
from repro.mapreduce.chain import JobChain
from repro.mapreduce.types import InputSplit


class TighteningMapper(BufferedBatchMapper):
    def setup(self, context: Context) -> None:
        super().setup(context)
        self._attributes: dict[int, tuple[int, ...]] = context.cache[
            "cluster_attributes"
        ]

    def cleanup(self, context: Context) -> None:
        data = self.split_block()
        if data is None:
            return
        labels = context.cache["membership"][self.split_keys()]
        for cid, attributes in self._attributes.items():
            members = data[labels == cid]
            if len(members) == 0:
                continue
            columns = members[:, list(attributes)]
            context.emit(cid, (columns.min(axis=0), columns.max(axis=0)))


class MinMaxReducer(Reducer):
    def reduce(self, key: Any, values: list[Any], context: Context) -> None:
        mins = np.min(np.stack([v[0] for v in values]), axis=0)
        maxs = np.max(np.stack([v[1] for v in values]), axis=0)
        context.emit(key, (mins, maxs))


def run_tightening_job(
    chain: JobChain,
    splits: list[InputSplit],
    membership: np.ndarray,
    cluster_attributes: dict[int, tuple[int, ...]],
    step_name: str = "interval_tightening",
) -> dict[int, Signature]:
    """Tightened output signature per cluster id."""
    job = Job(
        mapper_factory=TighteningMapper,
        reducer_factory=MinMaxReducer,
        cache=DistributedCache(
            {
                "membership": membership,
                "cluster_attributes": cluster_attributes,
            }
        ),
    )
    result = chain.run(step_name, job, splits, num_reducers=1)
    signatures: dict[int, Signature] = {}
    for cid, (mins, maxs) in result.as_dict().items():
        attributes = cluster_attributes[int(cid)]
        signatures[int(cid)] = Signature(
            [
                Interval(attribute, float(lo), float(hi))
                for attribute, lo, hi in zip(attributes, mins, maxs)
            ]
        )
    return signatures
