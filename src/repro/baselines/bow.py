"""BoW (Cordeiro et al., KDD 2011) as used by the paper (Section 2, 7).

BoW parallelises a plug-in clustering algorithm whose results are
hyperrectangles:

1. a map phase splits the data into random subsets of (at most)
   ``samples_per_reducer`` points (the paper sets 100 000 per reducer;
   this reproduction scales the default down with everything else);
2. every reducer runs the plug-in algorithm on its subset;
3. the driver merges intersecting hyperrectangles of the partial
   results into larger hyperrectangles.

The paper evaluates two variants that differ in the plug-in:
``BoW (Light)`` runs P3C+-Light per subset, ``BoW (MVB)`` runs the full
P3C+ with the MVB outlier detector.  BoW is *approximate*: each subset
only sees a sample of the distribution, and the merge phase can both
split (a cluster shifted in one subset fails to merge) and blur
(merged boxes take the union span), which is exactly the quality
degradation Figure 6 reports for growing data sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Any, Literal

import numpy as np

from repro.core.p3c_plus import (
    P3CPlus,
    P3CPlusConfig,
    P3CPlusLight,
    _validate_data,
)
from repro.core.types import (
    ClusteringResult,
    Interval,
    ProjectedCluster,
    Signature,
)
from repro.mapreduce import (
    Context,
    DistributedCache,
    Job,
    JobChain,
    Mapper,
    MapReduceRuntime,
    Partitioner,
    Reducer,
    RuntimeContext,
)
from repro.mapreduce.types import split_records


@dataclass(frozen=True)
class BoWConfig:
    """BoW-specific knobs."""

    variant: Literal["light", "mvb"] = "light"
    samples_per_reducer: int = 2_000
    #: Minimum Jaccard similarity of relevant-attribute sets for two
    #: boxes to be merge candidates (guards against merging genuinely
    #: different clusters that overlap on a few shared attributes).
    attribute_jaccard: float = 0.5
    num_splits: int = 8
    seed: int = 0
    #: Executor backend ("serial"/"thread"/"process"); ``None`` keeps
    #: the auto rule: max_workers > 1 selects the process pool.
    executor: str | None = None
    max_workers: int | None = None


class _PartitionMapper(Mapper):
    """Assigns every point a pseudo-random partition key."""

    def setup(self, context: Context) -> None:
        self._num_partitions = int(context.cache["num_partitions"])
        self._seed = int(context.cache["seed"])

    def map(self, key: Any, value: np.ndarray, context: Context) -> None:
        # Deterministic multiplicative hash of the row index: stable
        # across runs and executors, uniform across partitions.
        partition = ((key + self._seed) * 2654435761) % self._num_partitions
        context.emit(int(partition), (key, value))


class _IdentityPartitioner(Partitioner):
    def partition(self, key: int, num_partitions: int) -> int:
        return key % num_partitions


class _PluginClusteringReducer(Reducer):
    """Runs the plug-in clustering algorithm on one data subset."""

    def setup(self, context: Context) -> None:
        self._config: P3CPlusConfig = context.cache["config"]
        self._variant: str = context.cache["variant"]

    def reduce(self, key: int, values: list[Any], context: Context) -> None:
        indices = np.array([idx for idx, _ in values], dtype=np.int64)
        block = np.stack([row for _, row in values])
        if self._variant == "light":
            algorithm: Any = P3CPlusLight(self._config)
        else:
            algorithm = P3CPlus(
                self._config.with_overrides(outlier_method="mvb")
            )
        result = algorithm.fit(block)
        for cluster in result.clusters:
            context.emit(
                key,
                (
                    cluster.signature,
                    cluster.relevant_attributes,
                    indices[cluster.members],
                ),
            )


@dataclass
class _Box:
    """A partial-result hyperrectangle awaiting merging."""

    signature: Signature
    attributes: frozenset[int]
    members: np.ndarray

    def intersects(self, other: "_Box", attribute_jaccard: float) -> bool:
        shared = self.attributes & other.attributes
        union = self.attributes | other.attributes
        if not shared or len(shared) / len(union) < attribute_jaccard:
            return False
        for attribute in shared:
            mine = self.signature.interval_on(attribute)
            theirs = other.signature.interval_on(attribute)
            if mine is None or theirs is None or not mine.overlaps(theirs):
                return False
        return True

    def merge(self, other: "_Box") -> "_Box":
        intervals: list[Interval] = []
        for attribute in sorted(self.attributes | other.attributes):
            mine = self.signature.interval_on(attribute)
            theirs = other.signature.interval_on(attribute)
            if mine is not None and theirs is not None:
                intervals.append(mine.merge(theirs))
            else:
                intervals.append(mine if mine is not None else theirs)
        return _Box(
            signature=Signature(intervals),
            attributes=self.attributes | other.attributes,
            members=np.union1d(self.members, other.members),
        )


def merge_boxes(boxes: list[_Box], attribute_jaccard: float) -> list[_Box]:
    """Iteratively merge intersecting hyperrectangles to a fixpoint."""
    merged = list(boxes)
    changed = True
    while changed:
        changed = False
        for i in range(len(merged)):
            for j in range(i + 1, len(merged)):
                if merged[i].intersects(merged[j], attribute_jaccard):
                    combined = merged[i].merge(merged[j])
                    merged[j] = combined
                    del merged[i]
                    changed = True
                    break
            if changed:
                break
    return merged


class BoW:
    """The BoW framework with a P3C+ plug-in (Light or MVB variant)."""

    def __init__(
        self,
        config: P3CPlusConfig | None = None,
        bow_config: BoWConfig | None = None,
        context: RuntimeContext | None = None,
    ) -> None:
        self.config = config or P3CPlusConfig()
        self.bow_config = bow_config or BoWConfig()
        #: Optional service-plane wiring (shared-pool executor etc.).
        self.context = context
        self.chain: JobChain | None = None

    def fit(self, data: np.ndarray) -> ClusteringResult:
        data = _validate_data(data)
        n, d = data.shape
        bow = self.bow_config
        num_partitions = max(1, ceil(n / bow.samples_per_reducer))

        if self.context is not None:
            runtime = MapReduceRuntime(context=self.context)
        else:
            runtime = MapReduceRuntime(
                max_workers=bow.max_workers, executor=bow.executor
            )
        chain = JobChain(runtime)
        self.chain = chain
        splits = split_records(data, bow.num_splits)
        job = Job(
            mapper_factory=_PartitionMapper,
            reducer_factory=_PluginClusteringReducer,
            partitioner=_IdentityPartitioner(),
            cache=DistributedCache(
                {
                    "num_partitions": num_partitions,
                    "seed": bow.seed,
                    "config": self.config,
                    "variant": bow.variant,
                }
            ),
        )
        with runtime:
            result = chain.run(
                "bow_partition_cluster", job, splits, num_reducers=num_partitions
            )

        boxes = [
            _Box(signature=sig, attributes=frozenset(attrs), members=members)
            for _, (sig, attrs, members) in result.output
        ]
        merged = merge_boxes(boxes, bow.attribute_jaccard)

        clusters = [
            ProjectedCluster(
                members=box.members,
                relevant_attributes=box.attributes,
                signature=box.signature,
            )
            for box in merged
        ]
        assigned = np.zeros(n, dtype=bool)
        for cluster in clusters:
            assigned[cluster.members] = True
        return ClusteringResult(
            clusters=clusters,
            outliers=np.where(~assigned)[0],
            n_points=n,
            n_dims=d,
            metadata={
                "num_partitions": num_partitions,
                "boxes_before_merge": len(boxes),
                "boxes_after_merge": len(merged),
                "mr_jobs": chain.num_jobs,
            },
        )
