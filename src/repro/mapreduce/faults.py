"""Deterministic fault injection: the chaos layer of the runtime.

Multi-hour MapReduce runs on real clusters see task crashes, straggler
nodes and corrupted shuffle fetches as routine events; the paper's
Hadoop setting assumes all three are survivable.  This module makes
those faults *reproducible* so the fault-tolerance machinery (retries,
timeouts, shuffle-integrity validation, checkpoint/resume) can be
tested deterministically:

- :class:`FaultPlan` parses a compact fault-spec grammar and decides —
  from a seed and a stable hash, never from RNG call order — whether a
  given ``(job, phase, task, attempt)`` coordinate gets a fault.  The
  schedule is therefore identical across serial, thread and process
  executors and across repeated runs.
- :class:`ChaosExecutor` wraps any :class:`Executor` and applies the
  plan through the executor wrapping hook, leaving scheduling,
  retries and output ordering untouched.

Fault-spec grammar (``;``-separated clauses)::

    clause := phase ":" kind (":" key "=" value)*
    phase  := "map" | "reduce" | "*"
    kind   := "error"    raise an injected exception before the task runs
            | "delay"    sleep ``ms`` milliseconds first (straggler)
            | "corrupt"  truncate the task's output payload (map only;
                         caught by the runtime's shuffle-integrity check)
    keys   := p=<probability 0..1>   (default 1.0)
            | ms=<delay milliseconds> (delay clauses; default 25)
            | job=<substring of the job name>
            | task=<task id>
            | always=1               (inject on *every* attempt —
                                      a permanent fault; default is
                                      first attempts only, so retries
                                      recover like transient cluster
                                      faults do)

Examples::

    map:error:p=0.2                        every 5th map task crashes once
    reduce:delay:p=0.5:ms=40               half the reducers straggle
    map:corrupt:p=0.3                      corrupted shuffle partitions
    map:error:job=em_estep:task=0:always=1 kill one task permanently

Injected faults are announced through ``fault_injected`` events, so a
chaos run's schedule is visible in traces and run reports.  Fully
inert when no plan is configured: the default executor wrapping hook
is the identity.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.mapreduce.events import EventKind, EventLog
from repro.mapreduce.executors import Executor

ERROR = "error"
DELAY = "delay"
CORRUPT = "corrupt"
_KINDS = (ERROR, DELAY, CORRUPT)
_PHASES = ("map", "reduce", "*")


class ChaosError(RuntimeError):
    """The exception raised by an injected ``error`` fault."""


@dataclass(frozen=True)
class FaultClause:
    """One parsed clause of a fault spec."""

    phase: str
    kind: str
    probability: float = 1.0
    delay_ms: float = 25.0
    job: str | None = None
    task_id: int | None = None
    always: bool = False
    index: int = 0  # clause position: salts the per-clause hash draw

    def describe(self) -> str:
        parts = [f"{self.phase}:{self.kind}"]
        if self.probability < 1.0:
            parts.append(f"p={self.probability:g}")
        if self.kind == DELAY:
            parts.append(f"ms={self.delay_ms:g}")
        if self.job is not None:
            parts.append(f"job={self.job}")
        if self.task_id is not None:
            parts.append(f"task={self.task_id}")
        if self.always:
            parts.append("always=1")
        return ":".join(parts)


def parse_fault_spec(spec: str) -> tuple[FaultClause, ...]:
    """Parse the fault-spec grammar into clauses (see module docs)."""
    clauses: list[FaultClause] = []
    for index, raw in enumerate(part for part in spec.split(";") if part.strip()):
        fields = [field.strip() for field in raw.strip().split(":")]
        if len(fields) < 2:
            raise ValueError(
                f"fault clause {raw!r} needs at least phase:kind"
            )
        phase, kind = fields[0], fields[1]
        if phase not in _PHASES:
            raise ValueError(
                f"fault clause {raw!r}: phase must be one of {_PHASES}"
            )
        if kind not in _KINDS:
            raise ValueError(
                f"fault clause {raw!r}: kind must be one of {_KINDS}"
            )
        if kind == CORRUPT and phase != "map":
            raise ValueError(
                f"fault clause {raw!r}: corrupt faults target the shuffle "
                "and only apply to the map phase"
            )
        params: dict[str, Any] = {}
        for field in fields[2:]:
            if "=" not in field:
                raise ValueError(
                    f"fault clause {raw!r}: parameter {field!r} is not "
                    "key=value"
                )
            key, value = field.split("=", 1)
            if key == "p":
                params["probability"] = float(value)
            elif key == "ms":
                params["delay_ms"] = float(value)
            elif key == "job":
                params["job"] = value
            elif key == "task":
                params["task_id"] = int(value)
            elif key == "always":
                params["always"] = value not in ("0", "false", "")
            else:
                raise ValueError(
                    f"fault clause {raw!r}: unknown parameter {key!r}"
                )
        probability = params.get("probability", 1.0)
        if not 0.0 <= probability <= 1.0:
            raise ValueError(
                f"fault clause {raw!r}: p must be within [0, 1]"
            )
        clauses.append(FaultClause(phase=phase, kind=kind, index=index, **params))
    if not clauses:
        raise ValueError(f"fault spec {spec!r} contains no clauses")
    return tuple(clauses)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic fault schedule.

    The decision for a coordinate is a pure function of
    ``(seed, clause, job, phase, task_id, attempt)`` — no RNG state, so
    concurrent executors and repeated runs draw identical schedules.
    """

    clauses: tuple[FaultClause, ...]
    seed: int = 0

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        return cls(clauses=parse_fault_spec(spec), seed=seed)

    def _draw(
        self, clause: FaultClause, job: str, phase: str, task_id: int, attempt: int
    ) -> float:
        token = f"{self.seed}:{clause.index}:{job}:{phase}:{task_id}:{attempt}"
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def faults_for(
        self, job: str, phase: str, task_id: int, attempt: int
    ) -> tuple[FaultClause, ...]:
        """The clauses that fire for one task attempt (possibly empty)."""
        fired = []
        for clause in self.clauses:
            if clause.phase != "*" and clause.phase != phase:
                continue
            if clause.job is not None and clause.job not in job:
                continue
            if clause.task_id is not None and clause.task_id != task_id:
                continue
            if not clause.always and attempt > 1:
                continue
            if self._draw(clause, job, phase, task_id, attempt) < clause.probability:
                fired.append(clause)
        return tuple(fired)


def _truncate_payload(payload: Any) -> Any:
    """Corrupt a map task's output: silently drop trailing records.

    Models a truncated shuffle partition.  The counters the task
    reported still claim the full record count, which is exactly what
    the runtime's shuffle-integrity validation catches.
    """
    if not isinstance(payload, list) or not payload:
        return payload
    if all(isinstance(bucket, list) for bucket in payload):
        # Pre-partitioned bucket list (reduce job): truncate the last
        # non-empty partition.
        for pos in range(len(payload) - 1, -1, -1):
            if payload[pos]:
                corrupted = list(payload)
                corrupted[pos] = payload[pos][:-1]
                return corrupted
        return payload
    # Map-only job: a flat pair list.
    return payload[:-1]


def chaos_call(
    faults: Sequence[FaultClause], fn: Callable[..., Any], args: tuple
) -> Any:
    """Execute one task attempt under the given faults.

    Module-level (not a closure) so wrapped calls stay picklable for
    the process executor.  Order: delays first (stragglers), then
    injected errors, then output corruption of a completed attempt.
    The injected delay is folded into the attempt's reported elapsed
    time — a straggler looks slow to the task-timeout policy even on
    the serial executor, which enforces the limit post-hoc.
    """
    delayed_s = 0.0
    for clause in faults:
        if clause.kind == DELAY and clause.delay_ms > 0:
            time.sleep(clause.delay_ms / 1000.0)
            delayed_s += clause.delay_ms / 1000.0
    for clause in faults:
        if clause.kind == ERROR:
            raise ChaosError(f"injected fault [{clause.describe()}]")
    result = fn(*args)
    corrupt = any(clause.kind == CORRUPT for clause in faults)
    if (corrupt or delayed_s) and isinstance(result, tuple) and len(result) == 3:
        payload, counters, elapsed = result
        if corrupt:
            payload = _truncate_payload(payload)
        result = (payload, counters, elapsed + delayed_s)
    return result


class ChaosExecutor(Executor):
    """Wraps any executor, injecting the plan's faults into attempts.

    Everything except the wrapping hook delegates to the inner
    backend, so scheduling, pooling and outcome ordering are untouched.
    """

    def __init__(
        self,
        inner: Executor,
        plan: FaultPlan,
        events: EventLog | None = None,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.events = events

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"chaos+{self.inner.name}"

    @property
    def slot_lease(self):  # type: ignore[override]
        """Delegates to the wrapped backend: its pool runs the attempts,
        so the lease must live there too — and the scheduler may bind
        it before or after chaos wrapping."""
        return self.inner.slot_lease

    @slot_lease.setter
    def slot_lease(self, lease) -> None:
        self.inner.slot_lease = lease

    def _announce(
        self,
        faults: Sequence[FaultClause],
        job: str,
        phase: str,
        task_id: int,
        attempt: int,
    ) -> None:
        if self.events is None:
            return
        for clause in faults:
            self.events.emit(
                EventKind.FAULT_INJECTED,
                job,
                phase=phase,
                task_id=task_id,
                attempt=attempt,
                error=clause.describe(),
            )

    # -- wrapping hook ---------------------------------------------------

    def wrap_call(
        self,
        fn: Callable[..., Any],
        args: tuple,
        *,
        job: str,
        phase: str,
        task_id: int,
        attempt: int,
    ) -> tuple[Callable[..., Any], tuple]:
        faults = self.plan.faults_for(job, phase, task_id, attempt)
        if not faults:
            return fn, args
        self._announce(faults, job, phase, task_id, attempt)
        return chaos_call, (faults, fn, args)

    # -- delegation ------------------------------------------------------

    def pool(self):
        return self.inner.pool()

    def retire_pool(self, pool) -> None:
        self.inner.retire_pool(pool)

    def close(self) -> None:
        self.inner.close()

    @property
    def max_workers(self) -> int:  # type: ignore[override]
        return self.inner.max_workers
