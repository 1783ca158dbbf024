"""A faithful, in-process MapReduce runtime.

This package is the *substrate* of the reproduction: the paper's
algorithms (P3C+-MR, P3C+-MR-Light, BoW) are expressed as genuine
map / shuffle / reduce programs against this runtime, with the same
dataflow contracts Hadoop offers:

- input is partitioned into :class:`~repro.mapreduce.types.InputSplit`\\ s,
  one mapper task per split;
- mapper tasks emit intermediate ``(key, value)`` pairs; the P3C+-MR
  mappers aggregate their split in memory and emit from ``cleanup``
  (in-mapper combining), so there is no separate combiner stage;
- pairs are partitioned into per-reducer lists, sorted by key and
  grouped before reduction;
- a read-only *distributed cache* ships side data to every task;
- *counters* account for records and (approximate) shuffle volume,
  which feeds the cluster cost model used for paper-scale runtime
  projection.

The runtime executes serially (deterministic, default), on a thread
pool or on a process pool; all three run every job as one map →
shuffle → reduce barrier and produce identical output for well-formed
jobs.
"""

from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.chain import JobChain
from repro.mapreduce.costmodel import (
    ClusterCostModel,
    CostEstimate,
    calibrate_from_events,
)
from repro.mapreduce.counters import CounterGroup, Counters
from repro.mapreduce.events import (
    Event,
    EventKind,
    EventLog,
    events_to_jsonl,
    format_trace,
)
from repro.mapreduce.executors import (
    CacheHandle,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    SlotLease,
    TaskFailedError,
    TaskRunner,
    TaskTimeoutError,
    ThreadExecutor,
    resolve_executor,
)
from repro.mapreduce.faults import (
    ChaosError,
    ChaosExecutor,
    FaultClause,
    FaultPlan,
    parse_fault_spec,
)
from repro.mapreduce.fs import (
    CheckpointStore,
    chain_fingerprint,
    fingerprint_splits,
    make_csv_splits,
)
from repro.mapreduce.job import (
    BatchMapper,
    BufferedBatchMapper,
    Context,
    HashPartitioner,
    Job,
    Mapper,
    Partitioner,
    Reducer,
)
from repro.mapreduce.runtime import (
    JobResult,
    MapReduceRuntime,
    RuntimeContext,
    Shuffle,
    ShuffleIntegrityError,
    new_run_id,
)
from repro.mapreduce.types import InputSplit, JobConf, split_block, split_records

# The service plane composes everything above; import it last so the
# module graph stays acyclic.
from repro.mapreduce.scheduler import (  # noqa: E402
    ClusterService,
    FairShareSlotPool,
    JobCancelledError,
    ServiceHandle,
    TenantLease,
    TenantQuota,
)

__all__ = [
    "BatchMapper",
    "BufferedBatchMapper",
    "CacheHandle",
    "calibrate_from_events",
    "chain_fingerprint",
    "ChaosError",
    "ChaosExecutor",
    "CheckpointStore",
    "ClusterCostModel",
    "ClusterService",
    "Context",
    "CostEstimate",
    "CounterGroup",
    "Counters",
    "DistributedCache",
    "Event",
    "EventKind",
    "EventLog",
    "events_to_jsonl",
    "Executor",
    "FairShareSlotPool",
    "FaultClause",
    "FaultPlan",
    "fingerprint_splits",
    "format_trace",
    "HashPartitioner",
    "InputSplit",
    "Job",
    "JobCancelledError",
    "JobChain",
    "JobConf",
    "JobResult",
    "MapReduceRuntime",
    "Mapper",
    "make_csv_splits",
    "new_run_id",
    "parse_fault_spec",
    "Partitioner",
    "ProcessExecutor",
    "Reducer",
    "resolve_executor",
    "RuntimeContext",
    "SerialExecutor",
    "ServiceHandle",
    "Shuffle",
    "ShuffleIntegrityError",
    "SlotLease",
    "TenantLease",
    "TenantQuota",
    "TaskFailedError",
    "TaskRunner",
    "TaskTimeoutError",
    "ThreadExecutor",
    "split_block",
    "split_records",
]
